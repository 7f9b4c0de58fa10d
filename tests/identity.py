"""Digests of the program's outputs: one command that shows a change kept them bit-identical.

    python tests/identity.py            # print one sha256 per artefact
    python tests/identity.py --check    # compare with IDENTITY.json; exit 0 only when identical
    python tests/identity.py --write    # record this checkout's digests in IDENTITY.json

The artefacts come from two sources, run in one process from this checkout's
``src``:

- the smoke-profile CLI chain for seeds 0 and 1: the ``gen-data`` container
  and scene OBJs; the loss curve, ``Module.checksum()`` and weight file of
  ``train-cvae``, ``train-route`` and ``train-pose``; the frames and the
  ``run_log.json`` energies (with their per-term ``terms``) of ``synthesize``
  and ``refine``; the ``baseline-interp`` frames and the ``evaluate`` report;
- the four benchmark workloads of ``perfbench/workloads.py`` at seed 1: the
  frames and energies of ``synthesize`` and ``plan``, the ``train`` clips,
  losses and weights, and the ``scene`` SDF grids and clouds.

Bits may differ on another CPU, BLAS, thread setting or allocator policy, so
this is a script and not a tier-1 test, and ``IDENTITY.json`` records the
environment next to the digests. ``--check`` in a different environment
reports "not comparable" and exits 2 without running anything; a digest that
differs is named and exits 1.

A change that means to alter outputs rewrites ``IDENTITY.json`` with
``--write`` and says which digests changed and why; every other change runs
``--check``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RECORD = os.path.join(ROOT, "IDENTITY.json")

SEEDS = (0, 1)              # seeds of the smoke-profile CLI chain
WORKLOAD_SEED = 1
# ops run per workload: one whole cycle of goal lists or rooms, and two training
# steps, the second from the weights the first wrote
WORKLOAD_OPS = {"synthesize": 4, "plan": 4, "train": 2, "scene": 4}

IDENTICAL, DIFFERS, NOT_COMPARABLE = "identical", "differs", "not comparable"
EXIT = {IDENTICAL: 0, DIFFERS: 1, NOT_COMPARABLE: 2}


# -- digests --------------------------------------------------------------------------

def digest_arrays(*arrays):
    """sha256 over the shapes and little-endian float64 bytes of ``arrays``."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def digest_json(obj):
    """sha256 of ``obj`` as sorted JSON; floats keep every bit through ``repr``."""
    blob = json.dumps(obj, sort_keys=True, default=lambda o: np.asarray(o).tolist())
    return hashlib.sha256(blob.encode()).hexdigest()


def digest_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# -- the CLI chain --------------------------------------------------------------------

def _goals():
    """Three goals 1.2-1.3 m apart near the floor's centre, each facing the next hop."""
    from scenemotion.rotation import heading_to_rot6d
    pts = np.array([[-1.0, -0.6], [0.1, -0.1], [1.1, 0.7]])
    hops = np.diff(pts, axis=0)
    headings = np.arctan2(hops[:, 1], hops[:, 0])
    headings = np.append(headings, headings[-1])
    return {"beta": [0.1] * 10,
            "goals": [{"t": [x, y, 0.93], "r": heading_to_rot6d(h - np.pi / 2.0).tolist(),
                       "seed": 7 + i}
                      for i, ((x, y), h) in enumerate(zip(pts, headings))]}


def _cli(*argv):
    """Run one CLI command in this process; its log is kept unless it fails."""
    from scenemotion.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"scenemotion {' '.join(argv)} exited {code}:\n{out.getvalue()}")


def cli_digests(seed, work):
    """Digests of the smoke-profile CLI chain at ``seed``, run in directory ``work``."""
    from scenemotion.config import RunConfig
    from scenemotion.datagen import DATASET_FILE
    from scenemotion.persist import load_model
    from scenemotion.sequence import load_sequence
    cfg = RunConfig.smoke()
    cfg.seed = seed
    paths = {name: os.path.join(work, name) for name in
             ("config.json", "goals.json", "data", "w", "syn", "ref", "base", "report.json")}
    with open(paths["config.json"], "w") as f:
        json.dump(cfg.to_dict(), f)
    with open(paths["goals.json"], "w") as f:
        json.dump(_goals(), f)
    conf = ("--config", paths["config.json"])
    data = paths["data"]
    scene = os.path.join(data, "scenes", "scene_000.obj")
    weights = {kind: os.path.join(paths["w"], f"model.{kind}")
               for kind in ("cvae", "route", "pose")}

    _cli("gen-data", *conf, "--out", data)
    _cli("train-cvae", *conf, "--dataset", data, "--out", weights["cvae"])
    _cli("train-route", *conf, "--dataset", data, "--out", weights["route"])
    _cli("train-pose", *conf, "--dataset", data, "--route", weights["route"],
         "--out", weights["pose"])
    _cli("synthesize", *conf, "--scene", scene, "--goals", paths["goals.json"],
         "--cvae", weights["cvae"], "--route", weights["route"], "--pose", weights["pose"],
         "--out", paths["syn"])
    _cli("refine", *conf, "--scene", scene, "--seq", paths["syn"], "--out", paths["ref"])
    _cli("baseline-interp", *conf, "--scene", scene, "--goals", paths["goals.json"],
         "--cvae", weights["cvae"], "--steps", str(2 * cfg.k + 1), "--out", paths["base"])
    _cli("evaluate", *conf, "--pred", paths["ref"], "--gt", paths["base"], "--scene", scene,
         "--out", paths["report.json"])

    out = {"gen-data/dataset": digest_file(os.path.join(data, DATASET_FILE))}
    for name in sorted(os.listdir(os.path.join(data, "scenes"))):
        out[f"gen-data/scenes/{name}"] = digest_file(os.path.join(data, "scenes", name))
    for kind, path in weights.items():
        model, meta = load_model(path, kind)
        out[f"train-{kind}/curve"] = digest_json(meta["loss_curve"])
        out[f"train-{kind}/checksum"] = model.checksum()
        out[f"train-{kind}/weights"] = digest_file(path)
    for command, key, fields in (("synthesize", "syn", ("pre_energy", "post_energy",
                                                       "energy_history")),
                                 ("refine", "ref", ("energy_history", "diagnostic")),
                                 ("baseline-interp", "base", ())):
        out[f"{command}/frames"] = digest_arrays(load_sequence(paths[key]).frames)
        if fields:
            with open(os.path.join(paths[key], "run_log.json")) as f:
                log = json.load(f)
            out[f"{command}/energies"] = digest_json({field: log[field] for field in fields})
    with open(paths["report.json"]) as f:
        out["evaluate/report"] = digest_json(json.load(f))
    return {f"cli/seed{seed}/{name}": d for name, d in out.items()}


# -- the benchmark workloads ------------------------------------------------------------

def _plan_digests(case, outs):
    results = [result for _, result in outs]
    return {
        "frames": digest_arrays(*(a for r in results
                                  for a in (r.sequence.frames, r.pre_refine.frames))),
        "energies": digest_json([{"pre": r.pre_report.to_dict(),
                                  "post": r.post_report and r.post_report.to_dict(),
                                  "history": r.energy_history} for r in results]),
    }


def _train_digests(case, outs):
    return {
        "clips": digest_arrays(*(clip["frames"] for clip in case.clips)),
        "losses": digest_json([out["losses"] for out in outs]),
        "weights": digest_json([m.checksum() for m in (case.cvae, case.route, case.pose)]),
    }


def _scene_digests(case, outs):
    fields = [field for _, _, field in outs]
    return {
        "sdf": digest_arrays(*(a for f in fields for a in (f.grid.origin, f.grid.values))),
        "cloud": digest_arrays(*(f.cloud.points for f in fields)),
    }


_WORKLOAD_DIGESTS = {"synthesize": _plan_digests, "plan": _plan_digests,
                     "train": _train_digests, "scene": _scene_digests}


def load_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_digests(seed=WORKLOAD_SEED):
    """Digests of the outputs of each benchmark workload's first ops at ``seed``."""
    out = {}
    for name, cls in sorted(load_workloads().WORKLOADS.items()):
        case = cls(seed, cls.inputs(seed))
        outs = [case.op(i) for i in range(WORKLOAD_OPS[name])]
        problems = [p for o in outs for p in case.check(o)]
        if problems:
            raise RuntimeError(f"workload {name} failed its own check: {problems}")
        for key, d in _WORKLOAD_DIGESTS[name](case, outs).items():
            out[f"workload/{name}/{key}"] = d
    return out


# -- environment and comparison ----------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    """What the bits may depend on besides the code: machine, python and numpy
    (with its BLAS), scipy, the BLAS thread variables and the allocator policy."""
    import scipy
    from scenemotion import _runtime
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": {"arch": platform.machine(), "cpu": _cpu_model(),
                    "simd": config.get("SIMD Extensions", {}).get("found")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in _runtime.THREAD_VARS},
        "allocator": {"keeps_freed_memory": _runtime.KEEPS_FREED_MEMORY,
                      "mmap_threshold": _runtime.MMAP_THRESHOLD,
                      "trim_threshold": _runtime.TRIM_THRESHOLD},
    }


def environment_differences(recorded, current):
    """One line per environment entry that differs between two records."""
    return [f"{key}: recorded {recorded.get(key)!r}, here {current.get(key)!r}"
            for key in sorted(set(recorded) | set(current))
            if recorded.get(key) != current.get(key)]


def digest_differences(recorded, current):
    """One line per artefact whose digest differs, or that only one side has."""
    lines = []
    for name in sorted(set(recorded) | set(current)):
        if name not in current:
            lines.append(f"{name}: recorded, not produced")
        elif name not in recorded:
            lines.append(f"{name}: produced, not recorded")
        elif recorded[name] != current[name]:
            lines.append(f"{name}: recorded {recorded[name][:16]}, here {current[name][:16]}")
    return lines


def compare(recorded, current):
    """(verdict, lines) of two records ``{"environment", "digests"}``. Records
    from different environments are not comparable, whatever their digests."""
    lines = environment_differences(recorded["environment"], current["environment"])
    if lines:
        return NOT_COMPARABLE, lines
    lines = digest_differences(recorded["digests"], current["digests"])
    return (DIFFERS if lines else IDENTICAL), lines


# -- main ---------------------------------------------------------------------------------

def _import_checkout():
    """Import scenemotion from this checkout's ``src``; raise if it comes from elsewhere."""
    sys.path.insert(0, SRC)
    import scenemotion
    if os.path.commonpath([os.path.abspath(scenemotion.__file__), SRC]) != SRC:
        raise ImportError(f"scenemotion was imported from {scenemotion.__file__}, not {SRC}")


def digests():
    out = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory(prefix=f"identity-seed{seed}-") as work:
            out.update(cli_digests(seed, work))
    out.update(workload_digests())
    return out


def _report(headline, lines):
    print(headline)
    for line in lines:
        print(f"  {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"record the digests in {RECORD}")
    mode.add_argument("--check", action="store_true", help=f"compare with {RECORD}")
    args = ap.parse_args(argv)
    _import_checkout()
    current = {"environment": environment()}
    if args.check:
        with open(RECORD) as f:
            recorded = json.load(f)
        lines = environment_differences(recorded["environment"], current["environment"])
        if lines:
            _report(f"{NOT_COMPARABLE}: the environment differs from {RECORD}'s", lines)
            return EXIT[NOT_COMPARABLE]
    t0 = time.perf_counter()
    current["digests"] = digests()
    elapsed = time.perf_counter() - t0
    for name, d in current["digests"].items():
        print(f"{d}  {name}")
    print(f"{len(current['digests'])} artefacts in {elapsed:.1f} s")
    if args.write:
        with open(RECORD, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"written to {RECORD}")
    if args.check:
        verdict, lines = compare(recorded, current)
        _report(f"{verdict}: {len(current['digests'])} artefacts against {RECORD}", lines)
        return EXIT[verdict]
    return 0


if __name__ == "__main__":
    sys.exit(main())
