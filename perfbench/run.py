"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload synthesize --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run. The full record of a run (environment, every op and reference
time, failures, details) goes to ``perfbench/out/``; a traced run also writes
its spans there.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import common  # noqa: F401  (first: pins BLAS threads before numpy loads)

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

SETUP_MIN_REPEATS = 3      # set-up runs at least this often ...
SETUP_MIN_SECONDS = 3.0    # ... and until this much set-up time has passed,
SETUP_MAX_REPEATS = 200    # ... but no more often than this
TAIL_BEYOND = 10           # samples a tail percentile must have beyond it
REF_SHARE = 0.15           # reference timing after an op, as a share of the op's time
REF_MIN_REPEATS = 5        # reference kernel repeats in one reference timing

END_TO_END_UNITS = {"setup_s": "s", "op_ref_p50": "ref", "peak_rss_mb": "MB"}

_REF = np.random.default_rng(0)
_REF_MAT = _REF.standard_normal((256, 256))
_REF_ROT = _REF.standard_normal((24, 3, 3))
_REF_VEC = _REF.standard_normal((24, 3))
_REF_ROW = _REF.standard_normal(20000)


def reference_kernel():
    """A fixed piece of CPU work of about 20 ms on the tuning machine.

    It mixes the kinds of work the ops do (BLAS matmuls, many small numpy
    calls, sorting, plain Python) and no scenemotion code, so no change to
    the program changes it.
    """
    for _ in range(8):
        _REF_MAT @ _REF_MAT
    for _ in range(1200):
        np.einsum("jab,jb->ja", _REF_ROT, _REF_VEC).sum(axis=0)
    for _ in range(10):
        np.sort(np.tanh(_REF_ROW))
    acc = 0
    for i in range(50000):
        acc += i * i


def reference_ms(seconds):
    """One ``ref``: the median time of ``reference_kernel`` in ms, repeated for
    at least ``seconds`` (and at least REF_MIN_REPEATS times).

    Ops are timed in refs measured next to them, which cancels the slow
    phases of a shared machine; the median drops single interrupted repeats.
    """
    times = []
    end = time.perf_counter() + seconds
    while len(times) < REF_MIN_REPEATS or time.perf_counter() < end:
        t0 = time.perf_counter()
        reference_kernel()
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def set_up(cls, seed):
    """Build the workload repeatedly from one draw of its seeded inputs.

    Drawing the inputs is not timed, so ``setup_s`` times only calls into
    scenemotion. Returns the last instance and every set-up time.
    """
    inputs = cls.inputs(seed)
    times, case = [], None
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        case = None
        t0 = time.perf_counter()
        case = cls(seed, inputs)
        times.append(time.perf_counter() - t0)
    return case, times


class Runner:
    """Runs, times and checks ops; a wrong output is counted, never raised."""

    def __init__(self, case):
        self.case = case
        self.ops = []
        self.last_out = None
        self.last_ref_ms = None

    def run(self, op_id, tracer=None, timed=True):
        """Run one op between two reference timings (shared with its neighbours)."""
        if self.last_ref_ms is None:
            self.last_ref_ms = reference_ms(0.0)
        ref_before = self.last_ref_ms
        t0 = time.perf_counter()
        if tracer is None:
            out = self.case.op(op_id)
        else:
            with tracer.op(op_id):
                out = self.case.op(op_id)
        ms = 1e3 * (time.perf_counter() - t0)
        self.last_ref_ms = reference_ms(REF_SHARE * ms / 1e3)
        ref_ms = (ref_before + self.last_ref_ms) / 2.0
        self.last_out = out
        problems = self.case.check(out)
        self.ops.append({"op": op_id, "ms": ms, "ref_ms": ref_ms, "timed": timed,
                         "traced": tracer is not None,
                         "problems": problems,
                         "details": {} if problems else self.case.details(out)})

    def timed(self, traced):
        return [o for o in self.ops if o["timed"] and o["traced"] == traced]

    @property
    def failed(self):
        return sum(bool(o["problems"]) for o in self.ops)


def measure(runner, seconds, tracer=None):
    """Warm-up op 0 untimed, then closed-loop ops while the window lasts.

    Traced, each step is a pair: the op untraced, then the same op traced.
    """
    runner.run(0, timed=False)
    start = time.perf_counter()
    i = 1
    while i == 1 or time.perf_counter() - start < seconds:
        runner.run(i)
        if tracer is not None:
            runner.run(i, tracer)
        i += 1


def tail(ms):
    """Highest whole percentile with TAIL_BEYOND samples beyond it, if >= p50."""
    n = len(ms)
    pct = math.floor(100.0 * (1.0 - TAIL_BEYOND / n))
    if pct < 50:
        return {"omitted": f"{n} timed ops; a tail at or above p50 needs "
                           f"{2 * TAIL_BEYOND}", "samples": n}
    rank = max(1, math.ceil(pct / 100.0 * n))
    return {"percentile": pct, "value_ms": sorted(ms)[rank - 1], "samples": n}


def ratio(a, b):
    return a / b if b else 0.0


def detail_values(ops, key):
    return [o["details"][key] for o in ops if key in o["details"]]


def wall(runner):
    """Wall-clock op metrics of the untraced timed ops, in ms and items/s."""
    ops = runner.timed(traced=False)
    ms = [o["ms"] for o in ops]
    return {
        "wall.op_ms_p50": statistics.median(ms),
        "wall.items_per_s": runner.case.items_per_op * len(ms) / (sum(ms) / 1e3),
        "wall.ref_ms_p50": statistics.median(o["ref_ms"] for o in ops),
    }


def end_to_end(runner, setup_times):
    return {
        "setup_s": statistics.median(setup_times),
        "op_ref_p50": statistics.median(o["ms"] / o["ref_ms"]
                                        for o in runner.timed(traced=False)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner, tracer):
    from tracing import span_names, summarize
    traced = runner.timed(traced=True)
    untraced = runner.timed(traced=False)
    n = len(traced)
    spans = [s for s in tracer.spans if s[4] is not None]
    summary = summarize(spans)
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0}
    get = lambda name: summary.get(name, zero)  # noqa: E731
    m = {}
    for name in span_names():
        m[f"{name}.calls"] = get(name)["calls"] / n
        m[f"{name}.self_ms"] = 1e3 * get(name)["self_s"] / n
    fwd, pull = get("body.forward_with_cache"), get("body.pullback")
    m["body.forward.us_per_frame"] = 1e6 * ratio(fwd["incl_s"], fwd["calls"])
    m["body.pullback.us_per_frame"] = 1e6 * ratio(pull["incl_s"], pull["calls"])
    m["body.forward.per_output_frame"] = ratio(fwd["calls"] / n,
                                               getattr(runner.case, "frames_per_op", 0))
    eg = get("refine.energy_and_gradients")
    m["refine.iter_ms"] = 1e3 * ratio(eg["incl_s"], eg["calls"])
    ops = [o for o in runner.ops if o["timed"]]
    m["refine.iters_run_frac"] = ratio(sum(detail_values(ops, "iters_run")),
                                       sum(detail_values(ops, "iters_scheduled")))
    ratios = detail_values(ops, "energy_ratio")
    m["refine.energy_ratio"] = statistics.median(ratios) if ratios else 0.0
    sample = get("sdf.sample_sdf_batch")
    m["sdf.sample.points"] = sample["work"] / n
    m["sdf.sample.points_per_call"] = ratio(sample["work"], sample["calls"])
    m["sdf.sample.ns_per_point"] = 1e9 * ratio(sample["incl_s"], sample["work"])
    near = get("scene.nearest")
    m["scene.nearest.queries"] = near["work"] / n
    m["scene.nearest.queries_per_call"] = ratio(near["work"], near["calls"])
    m["scene.nearest.ns_per_query"] = 1e9 * ratio(near["incl_s"], near["work"])
    build = get("sdf.build_sdf")
    m["sdf.build.node_faces"] = build["work"] / n
    m["sdf.build.ns_per_node_face"] = 1e9 * ratio(build["incl_s"], build["work"])
    passes = [ratio(len(keys), len(set(keys))) for keys in
              ([s[5] for s in spans if s[0] == "nn.pointnet.forward" and s[4] == op_id]
               for op_id in sorted({s[4] for s in spans}))]
    m["nn.pointnet.passes_per_cloud"] = statistics.mean(passes)
    for step in ("cvae", "route", "pose"):
        vals = detail_values(untraced, f"{step}_step_ms")
        m[f"train.{step}_step_ms"] = statistics.median(vals) if vals else 0.0
    m.update(wall(runner))
    m["tracing.overhead_frac"] = (statistics.median(o["ms"] for o in traced)
                                  / statistics.median(o["ms"] for o in untraced) - 1.0)
    return m


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in ((".calls", "count"), ("_ms", "ms"), ("_ms_p50", "ms"),
                         (".us_per_frame", "us"), ("ns_per_point", "ns"),
                         ("ns_per_query", "ns"), ("ns_per_node_face", "ns"),
                         (".points", "count"), (".queries", "count"),
                         (".node_faces", "count"), (".items_per_s", "items/s")):
        if name.endswith(suffix):
            return unit
    return "1"


def write_json(name, obj):
    os.makedirs(common.OUT, exist_ok=True)
    path = os.path.join(common.OUT, name)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
    return path


def main(argv=None):
    try:
        common.import_package()
        import workloads
        from tracing import Tracer
    except ImportError as e:
        print(f"perfbench: cannot import the scenemotion sources: {e}", file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.WORKLOADS)
    case, setup_times = set_up(workloads.WORKLOADS[args.workload], args.seed)
    runner = Runner(case)
    tracer = Tracer() if args.trace else None
    measure(runner, args.seconds, tracer)

    if args.trace:
        metrics = per_layer(runner, tracer)
        spans_path = write_json(f"spans-{args.workload}-seed{args.seed}.json", {
            "fields": ["name", "start_s", "end_s", "parent", "op", "work"],
            "spans": tracer.spans, "binding_sites": tracer.sites})
    else:
        metrics = end_to_end(runner, setup_times)
        spans_path = None
    timed_ms = [o["ms"] for o in runner.timed(traced=False)]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": common.environment(),
        "setup_s": setup_times, "warm_up": "op 0 of every run is checked but not timed",
        "op_ms_tail": tail(timed_ms), "wall": wall(runner),
        "items_per_op": case.items_per_op,
        "attempted": len(runner.ops), "failed": runner.failed,
        "failed_frac": runner.failed / len(runner.ops),
        "ops": runner.ops, "metrics": metrics, "spans_file": spans_path,
    }
    path = write_json(f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    for o in runner.ops:
        for p in o["problems"]:
            print(f"perfbench: op {o['op']} failed its check: {p}", file=sys.stderr)
    print(f"perfbench: record written to {os.path.relpath(path, common.ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": len(runner.ops), "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
