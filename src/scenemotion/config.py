"""Run configuration: every knob with a default, JSON file + override support.

Defaults are the project's reference settings: k = 61 at 30 fps, the
training recipe (learning rates, batch sizes, epochs, CVAE loss weights) and
the refinement length and step size. The smoke profile shrinks everything for
tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields


@dataclass
class RunConfig:
    # timeline
    k: int = 61
    fps: int = 30

    # network widths
    hidden: int = 256
    fc_width: int = 512
    cond_dim: int = 256
    point_hidden: tuple = (64, 128)
    cloud_points: int = 1024

    # CVAE training
    cvae_lr: float = 1e-3
    cvae_batch: int = 16
    cvae_epochs: int = 40
    w_kl: float = 0.1
    kl_warmup_frac: float = 0.1
    w_col: float = 0.01
    w_cont: float = 0.01

    # motion nets training
    route_lr: float = 1e-3
    route_batch: int = 32
    route_epochs: int = 20
    pose_lr: float = 1e-3
    pose_batch: int = 16
    pose_epochs: int = 20

    # scene field
    sdf_cell: float = 0.05
    sdf_padding: float = 0.5
    sdf_node_budget: int = 64_000_000

    # refinement (RefinementSchedule.two_stage fixes the stage weights)
    refine_iters: int = 200
    refine_lr: float = 1e-2

    # synthetic data
    n_scenes: int = 8
    clips_per_scene: int = 125
    min_displacement: float = 0.5
    body_stride: int = 10  # one static body every 1/3 second at 30 fps

    # seeds
    seed: int = 0
    template_seed: int = 20240117

    @staticmethod
    def smoke():
        """Small, fast profile for tests and the end-to-end smoke run."""
        return RunConfig(
            k=15, hidden=64, fc_width=128, point_hidden=(32, 64), cond_dim=128,
            cloud_points=256, sdf_cell=0.15, sdf_padding=0.4,
            refine_iters=40, n_scenes=2, clips_per_scene=24,
        )

    def to_dict(self):
        d = asdict(self)
        d["point_hidden"] = list(self.point_hidden)
        return d

    @staticmethod
    def from_dict(d):
        if not isinstance(d, dict):
            raise ValueError(f"a config is a JSON object, got {type(d).__name__}")
        cfg = RunConfig()
        for key, value in d.items():
            cfg._set(key, value)
        return cfg

    @staticmethod
    def load_file(path):
        with open(path) as f:
            return RunConfig.from_dict(json.load(f))

    def apply_overrides(self, pairs):
        """Apply ``key=value`` strings; values parse as JSON, else raw strings."""
        for pair in pairs:
            if "=" not in pair:
                raise ValueError(f"override must look like key=value, got {pair!r}")
            key, raw = pair.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            self._set(key, value)
        return self

    def _set(self, key, value):
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        value = _coerce(f"config key {key!r}", value, _DEFAULTS[key])
        for v in value if isinstance(value, tuple) else (value,):
            if problem := _range_problem(key, v):
                raise ValueError(f"config key {key!r} {problem}, got {value!r}")
        setattr(self, key, value)

    def hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _range_problem(key, v):
    """What is wrong with the value ``v`` of knob ``key``, or None. Ints are >= 1 (k >= 2,
    seeds free); floats finite: rates and scales > 0, a fraction in [0, 1], others >= 0."""
    if isinstance(v, int):
        low = 2 if key == "k" else 1
        return None if key.endswith("seed") or v >= low else f"must be >= {low}"
    if not math.isfinite(v):
        return "must be finite"
    if key.endswith("_lr") or key == "sdf_cell":
        return None if v > 0 else "must be > 0"
    if key == "kl_warmup_frac":
        return None if 0 <= v <= 1 else "must lie in [0, 1]"
    return None if v >= 0 else "must be >= 0"


def _coerce(what, value, default):
    """``value`` as the type of ``default``; otherwise a ValueError that names
    ``what``. Config knobs and refinement schedules share this rule.

    A bool is not a number here; an int is a valid float.
    """
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{what} takes a list, got {value!r}")
        return tuple(_coerce(what, v, default[0]) for v in value)
    if not isinstance(value, bool):
        if isinstance(default, int) and isinstance(value, int):
            return value
        if isinstance(default, float) and isinstance(value, (int, float)):
            return float(value)
    kind = "an int" if isinstance(default, int) else "a number"
    raise ValueError(f"{what} takes {kind}, got {value!r}")
