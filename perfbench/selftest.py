"""Self-test of the benchmark itself; exits 1 if any check fails.

    python3 perfbench/selftest.py

For each workload, at seed 1, it checks that:
  * two traced runs from fresh set-ups record exactly the same ``*.calls``;
  * the spans form one well-nested tree per op, and corrupted span lists
    (a span re-parented to the root, one with no parent, one from outside
    the op) are rejected;
  * the ``*.self_ms`` that ``run.per_layer`` reports, plus the root span's
    self time, add up to the traced op time, short only by the cost of
    installing the wrappers;
  * the wrapper cost per span, times the spans of an op, stays under
    MAX_OVERHEAD of the untraced op;
  * the output check accepts a real output and rejects corrupted copies of it;
  * functions imported by name elsewhere are traced at every binding site.
It also checks that the metric names and units match ``BENCHMARK.json``.
"""

from __future__ import annotations

import common  # noqa: F401  (first: pins BLAS threads before numpy loads)

import copy
import json
import os
import statistics
import sys
import time

import numpy as np

common.import_package()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scenemotion.body import BodyParams  # noqa: E402
from scenemotion.sequence import MotionSequence  # noqa: E402

BINDING_SITES = {
    "sdf.sample_sdf_batch": {"sdf", "energy", "cvae", "metrics"},
    "motion_nets.synthesize_clip": {"motion_nets", "pipeline"},
    "refine.refine": {"refine", "pipeline"},
    "energy.total_energy": {"energy", "pipeline"},
    "energy.segment_stable_foot": {"energy", "refine"},
}

SEED = 1
MAX_OVERHEAD = 0.05     # estimated tracing cost as a share of the untraced op

failures = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def traced_run(cls):
    """Set up afresh, then warm-up op 0 and op 1 untraced and traced."""
    runner = run.Runner(cls(SEED, cls.inputs(SEED)))
    tracer = tracing.Tracer()
    run.measure(runner, seconds=0.0, tracer=tracer)
    return runner, tracer


def install_s():
    """Median time to install and uninstall every wrapper once."""
    times = []
    for _ in range(5):
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        tracer.install()
        tracer.uninstall()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def wrapper_s(n=20000):
    """Extra time one traced call costs over the bare call."""
    def bare():
        return None
    tracer = tracing.Tracer()
    tracer._op = 0
    traced = tracer._wrap("calibration", bare, None)
    times = []
    for fn in (bare, traced):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append(time.perf_counter() - t0)
    return (times[1] - times[0]) / n


def span_corruptions(spans):
    """Named corrupted copies of a valid span list."""
    root = next(i for i, s in enumerate(spans) if s[0] == tracing.Tracer.ROOT)
    deep = next(i for i, s in enumerate(spans) if s[3] >= 0 and spans[s[3]][3] >= 0)
    cases = {
        "span re-parented to the root": lambda sp: sp[deep].__setitem__(3, root),
        "span with no parent": lambda sp: sp[deep].__setitem__(3, -1),
        "span from outside the op": lambda sp: sp[deep].__setitem__(
            slice(1, 3), [spans[root][2] + 1e-3, spans[root][2] + 2e-3]),
        "span of another op": lambda sp: sp[deep].__setitem__(4, -7),
    }
    for what, corrupt in cases.items():
        bad = copy.deepcopy(spans)
        corrupt(bad)
        yield what, bad


def corruptions(name, out):
    """Named corrupted copies of one correct op output."""
    K = workloads.K
    if name in ("synthesize", "plan"):
        def short(o):
            o[1].sequence = MotionSequence(frames=o[1].sequence.frames[:-1])

        def nan(o):
            o[1].sequence.frames[1, 0] = np.nan

        def seam(o):
            o[1].pre_refine.frames[K, 20] += 1e-9

        def goal(o):
            g = o[1].goal_bodies[1]
            o[1].goal_bodies[1] = BodyParams(t=g.t + 0.01, r=g.r, beta=g.beta, p=g.p, h=g.h)

        cases = {"one frame short": short, "NaN frame": nan, "seam frame moved": seam,
                 "goal body moved": goal}
        if name == "synthesize":
            cases["refinement cut short"] = lambda o: o[1].energy_history[-1]["totals"].pop()
        else:
            cases["refined without a schedule"] = lambda o: o[1].sequence.frames.__iadd__(1e-9)
    elif name == "train":
        cases = {"NaN loss": lambda o: o["losses"].__setitem__(3, np.nan),
                 "parameters unchanged": lambda o: o["changed"].__setitem__(1, False)}
    else:
        cell = workloads.CELL

        def nan(o):
            o[2].grid.values[3, 3, 3] = np.nan

        def jump(o):
            o[2].grid.values[10, 10, 5] += 1.0

        cases = {"sign flipped": lambda o: o[2].grid.values.__imul__(-1.0),
                 "NaN node": nan, "Lipschitz jump": jump,
                 "offset by two cells": lambda o: o[2].grid.values.__iadd__(2 * cell)}
    for what, corrupt in cases.items():
        bad = copy.deepcopy(out)
        corrupt(bad)
        yield what, bad


def check_spans(name, runner, tracer, layer):
    spans = tracer.spans
    problems = tracing.span_problems(spans)
    expect(not problems, f"{name}: spans form one tree per op {problems[:1] or ''}")
    for what, bad in span_corruptions(spans):
        problems = tracing.span_problems(bad)
        expect(bool(problems), f"{name}: span check rejects '{what}': {problems[:1]}")
    selfs = tracing.self_times(spans)
    expect(min(selfs) > -1e-6, f"{name}: no negative self time (min {min(selfs):.2e} s)")

    traced = runner.timed(traced=True)
    untraced = runner.timed(traced=False)
    n = len(traced)
    root_ms = 1e3 * sum(t for s, t in zip(spans, selfs) if s[0] == tracing.Tracer.ROOT) / n
    layer_ms = sum(layer[f"{span}.self_ms"] for span in tracing.span_names())
    root_span_ms = 1e3 * sum(s[2] - s[1] for s in spans if s[0] == tracing.Tracer.ROOT) / n
    expect(abs(layer_ms + root_ms - root_span_ms) <= 1e-6 * root_span_ms,
           f"{name}: per_layer self_ms ({layer_ms:.2f} ms) plus root self ({root_ms:.2f} ms) "
           f"equal the root spans ({root_span_ms:.2f} ms)")
    op_ms = statistics.mean(o["ms"] for o in traced)
    slack_ms = 3e3 * install_s() + 2e-3 * op_ms
    expect(0.0 <= op_ms - root_span_ms <= slack_ms,
           f"{name}: traced op {op_ms:.2f} ms exceeds its root spans by "
           f"{op_ms - root_span_ms:.2f} ms, at most {slack_ms:.2f} ms "
           f"(install/uninstall and 0.2% of the op)")
    untraced_ms = statistics.mean(o["ms"] for o in untraced)
    estimate = 1e3 * wrapper_s() * (len(spans) - n) / n / untraced_ms
    expect(estimate < MAX_OVERHEAD,
           f"{name}: estimated tracing cost {100 * estimate:.2f}% of the untraced op, under "
           f"{100 * MAX_OVERHEAD:.0f}% (measured overhead_frac "
           f"{layer['tracing.overhead_frac']:+.3f}, one op each)")
    print(f"      {name}: layer spans cover {100 * layer_ms / op_ms:.1f}% of the op")


def check_workload(name):
    cls = workloads.WORKLOADS[name]
    runs = [traced_run(cls) for _ in range(2)]
    layers = [run.per_layer(r, t) for r, t in runs]
    calls = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in layers]
    differ = sorted(k for k in calls[0] if calls[0][k] != calls[1][k])
    expect(not differ, f"{name}: *.calls repeat exactly across two traced runs {differ or ''}")
    runner, tracer = runs[0]
    check_spans(name, runner, tracer, layers[0])

    for span, modules in BINDING_SITES.items():
        got = {site.split(".", 1)[1].rsplit(".", 1)[0] for site in tracer.sites.get(span, [])}
        expect(modules <= got, f"{name}: {span} traced in {sorted(modules)} (got {sorted(got)})")

    out = runner.last_out
    expect(not runner.case.check(out), f"{name}: check accepts a real output")
    for what, bad in corruptions(name, out):
        problems = runner.case.check(bad)
        expect(bool(problems), f"{name}: check rejects '{what}': {problems[:1]}")
    expect(runner.failed == 0, f"{name}: all {len(runner.ops)} ops of seed {SEED} passed")
    return layers[0]


def check_manifest(layer_names):
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    for section, names in (("end_to_end", list(run.END_TO_END_UNITS)),
                           ("per_layer", layer_names)):
        declared = {m["name"]: m["unit"] for m in manifest[section]}
        expect(sorted(declared) == sorted(names),
               f"BENCHMARK.json {section} names match the metrics run.py emits "
               f"{sorted(set(declared) ^ set(names)) or ''}")
        wrong = {n: u for n, u in declared.items() if run.unit_of(n) != u}
        expect(not wrong, f"BENCHMARK.json {section} units match {wrong or ''}")
    expect(sorted(w["name"] for w in manifest["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")


def main():
    names = None
    for name in workloads.WORKLOADS:
        names = list(check_workload(name))
    check_manifest(names)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
