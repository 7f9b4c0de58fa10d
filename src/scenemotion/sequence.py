"""Motion sequences: ordered frames of flat body parameters on a 30 fps timeline."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import body
from .errors import ArtefactError

# the index fields that fix how frames.bin is laid out
_LAYOUT = {"version": 1, "param_dim": body.PARAM_DIM, "dtype": "<f8"}


@dataclass
class MotionSequence:
    frames: np.ndarray                       # (T, 75) flat BodyParams records
    fps: int = 30
    chunk_boundaries: list = field(default_factory=list)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64).reshape(-1, body.PARAM_DIM)
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("sequence contains non-finite parameters")
        if not all(0 <= b < len(self.frames) for b in self.chunk_boundaries):
            raise ValueError(f"chunk boundaries {self.chunk_boundaries} fall outside "
                             f"{len(self.frames)} frames")

    def __len__(self):
        return len(self.frames)

    @property
    def translations(self):
        return self.frames[:, 0:3]

    @property
    def rotations(self):
        return self.frames[:, 3:9]

    @property
    def betas(self):
        return self.frames[:, 9:19]

    @property
    def poses(self):
        return self.frames[:, 19:51]

    @property
    def hands(self):
        return self.frames[:, 51:75]

    def copy(self):
        return MotionSequence(frames=self.frames.copy(), fps=self.fps,
                              chunk_boundaries=list(self.chunk_boundaries))

    def meshes(self, template):
        """Posed vertices for every frame, (T, V, 3)."""
        return body.forward_batch(template, self.frames).vertices


def save_sequence(dirpath, seq, extra=None):
    """JSON index plus a raw little-endian float64 frame block."""
    os.makedirs(dirpath, exist_ok=True)
    frames_path = os.path.join(dirpath, "frames.bin")
    with open(frames_path, "wb") as f:
        f.write(np.ascontiguousarray(seq.frames, dtype=_LAYOUT["dtype"]).tobytes())
    index = {
        **_LAYOUT,
        "fps": seq.fps,
        "num_frames": int(len(seq)),
        "frames_file": "frames.bin",
        "chunk_boundaries": [int(i) for i in seq.chunk_boundaries],
    }
    if extra:
        index["extra"] = extra
    with open(os.path.join(dirpath, "sequence.json"), "w") as f:
        json.dump(index, f, indent=2, sort_keys=True)


def load_sequence(dirpath):
    """The sequence saved in ``dirpath``; a missing or malformed index or
    frames file raises ArtefactError."""
    try:
        index = json.loads(Path(dirpath, "sequence.json").read_bytes())
        layout = {k: index.get(k) for k in _LAYOUT} if isinstance(index, dict) else index
        if layout != _LAYOUT:
            raise ValueError(f"unsupported sequence layout {layout!r}, expected {_LAYOUT}")
        shape = (int(index["num_frames"]), body.PARAM_DIM)
        raw = np.fromfile(os.path.join(dirpath, index["frames_file"]), dtype=_LAYOUT["dtype"])
        if raw.size != shape[0] * shape[1]:
            raise ValueError(f"frames file holds {raw.size} values, expected {shape[0]} x {shape[1]}")
        return MotionSequence(frames=raw.reshape(shape).astype(np.float64), fps=index["fps"],
                              chunk_boundaries=list(index.get("chunk_boundaries", [])))
    except KeyError as e:
        raise ArtefactError(f"{dirpath}: sequence index lacks {e}") from None
    except (OSError, TypeError, ValueError) as e:
        raise ArtefactError(f"{dirpath}: {e}") from None


def export_meshes(dirpath, seq, template, every=1):
    """Per-frame OBJ export plus a frame index file; returns written paths."""
    from .scene import save_obj
    os.makedirs(dirpath, exist_ok=True)
    written = []
    mesh = body.forward_batch(template, seq.frames[::every])
    for i, vertices in zip(range(0, len(seq), every), mesh.vertices):
        path = os.path.join(dirpath, f"frame_{i:05d}.obj")
        save_obj(path, vertices, mesh.faces)
        written.append(path)
    with open(os.path.join(dirpath, "frames_index.json"), "w") as f:
        json.dump({"fps": seq.fps, "files": [os.path.basename(p) for p in written]}, f, indent=2)
    return written
