"""One workload in a fresh interpreter: set up, measure passes, check every op.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
once the first timed op could run (``--setup-only`` stops there), then one
JSON line with the pass times, the gate's counts and the peak RSS.

A pass runs every op of the workload once, in the seeded order, as a
closed loop with one caller: the next op starts when the previous one has
returned and been checked.  ``gc.collect()`` runs between ops, outside the
timed region; the collector stays enabled inside ops.

Host speed.  On a shared host the CPU speed changes by up to 1.5x from
one second to the next, so the wall time of an op depends on which speed
states it met.  A fixed calibration loop (``Fraction`` arithmetic in a dict
and big-integer products, no package code; about 1 ms) is timed right
before and right after each op, and every ``CAL_INTERVAL_S`` during it from
a ``SIGALRM`` handler.  The op's time is its wall time minus the time spent
in those handlers, scaled by ``CAL_REF_S`` over the mean loop time: the
op's time on a host where the loop takes ``CAL_REF_S``.  Timing the loop
during the op, not only at its edges, cut the spread of the scaled times
of one op repeated in a process by a quarter to two thirds on a 2-vCPU
shared virtual machine.  Unscaled times are reported alongside.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 3
# no new pass starts this late, whatever the pass count (run.py's child
# timeout is 150 s)
HARD_STOP_S = 100.0


def import_package():
    sys.path.insert(0, SRC)
    import affwhit

    here = os.path.dirname(os.path.abspath(affwhit.__file__))
    if here != os.path.join(SRC, "affwhit"):
        raise ImportError(f"affwhit imported from {here}, not from {SRC}")


CAL_REF_S = 0.001
CAL_ITERS = 100
CAL_INTERVAL_S = 0.05
_CAL_MODULUS = (1 << 607) - 1


def calibration_s():
    """One timing of the fixed calibration loop: small ``Fraction`` sums in a
    dict, as in straightening and elimination, and big-integer products, as
    in Bareiss rank.  The collector is paused meanwhile, so that a collection
    of the op's heap never lands in the loop; the op pays for it after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        x = 3**200
        for i in range(1, CAL_ITERS):
            k = i % 61
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i, k + 1) * Fraction(3, 7)
            x = (x * x + i) % _CAL_MODULUS
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def mean_calibration_s():
    return statistics.mean(calibration_s() for _ in range(10))


def timed_op(fn, *args):
    """(result, [seconds, calibration, handler seconds]) of fn(*args): its
    wall time less the handler time, and the mean calibration loop time
    before, during and after it."""
    samples = [calibration_s()]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t = time.perf_counter()
        samples.append(calibration_s())
        spent += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    samples.append(calibration_s())
    return result, [wall - spent, statistics.mean(samples), spent]


def timed_pass(ops, gate, run_op):
    """Run one pass; returns timed_op's times per op."""
    from ops import execute

    times = []
    modules = {}
    for op in ops:
        gc.collect()
        raw, op_times = timed_op(run_op, op["id"], execute, op, modules)
        times.append(op_times)
        gate.check(op, raw)
    return times


def pass_wall(times):
    return sum(seconds for seconds, _, _ in times)


def pass_calibrated(times):
    return sum(seconds * CAL_REF_S / cal for seconds, cal, _ in times)


def plain(op_id, fn, *args):
    return fn(*args)


def measure(ops, gate, seconds, trace, spans_path):
    """Passes until the time budget is spent; returns the result fields."""
    start = time.perf_counter()

    def budget_left(n_done):
        elapsed = time.perf_counter() - start
        if n_done < MIN_PASSES:
            return elapsed < HARD_STOP_S
        return elapsed + elapsed / n_done <= seconds

    if not trace:
        passes = []
        while budget_left(len(passes)):
            passes.append(timed_pass(ops, gate, plain))
        return {"passes": passes}

    from tracing import COUNT_METRICS, TIME_METRICS, Counter, SpanTracer, span_cost_s

    counter = Counter()
    counter.install()
    try:
        timed_pass(ops, gate, counter.run_op)
    finally:
        counter.uninstall()
    tracer = SpanTracer()
    untraced, traced, layers, n_spans = [], [], [], []
    while budget_left(len(traced)):
        untraced.append(timed_pass(ops, gate, plain))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(timed_pass(ops, gate, tracer.run_op))
        finally:
            tracer.uninstall()
        # each op's spans are scaled like its time in pass_s; the handler time
        # inside them is taken out in proportion
        scale = {op["id"]: CAL_REF_S / cal * seconds / (seconds + spent)
                 for op, (seconds, cal, spent) in zip(ops, traced[-1])}
        layers.append(tracer.layer_times(first, len(tracer.spans), scale))
        n_spans.append(len(tracer.spans) - first)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"fields": ["name", "start", "end", "parent", "op", "gc_generation"],
             "spans": tracer.spans},
            fh,
        )
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics.update({name: counter.counts[name] for name in COUNT_METRICS})
    metrics["trace.pass_s"] = statistics.median(map(pass_calibrated, traced))
    metrics["trace.untraced_pass_s"] = statistics.median(map(pass_calibrated, untraced))
    # each traced pass against the untraced pass right before it
    metrics["trace.overhead_s"] = statistics.median(
        pass_calibrated(t) - pass_calibrated(u) for t, u in zip(traced, untraced)
    )
    # what the spans themselves cost, far below the pass-to-pass noise that
    # trace.overhead_s carries: spans per pass times the cost of one span
    before = mean_calibration_s()
    per_span = span_cost_s()
    per_span *= CAL_REF_S * 2 / (before + mean_calibration_s())
    metrics["trace.span_cost_s"] = statistics.median(n_spans) * per_span
    # the scaled self times of one traced pass add up to its scaled time
    layer_sums = [sum(layer[name] for name in TIME_METRICS) for layer in layers]
    return {"passes": untraced, "layers": metrics, "layer_sum_s": statistics.median(layer_sums)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    import gate as gate_mod
    import ops as ops_mod
    import workloads

    ops = workloads.generate(args.workload, args.seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops_mod.prepare(ops, workdir)
        recorded = None
        if args.seed == 0:
            with open(os.path.join(os.path.dirname(__file__), "seed0_digests.json"),
                      encoding="utf-8") as fh:
                recorded = json.load(fh)[args.workload]
        gate = gate_mod.Gate(recorded)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        result = measure(ops, gate, args.seconds, args.trace, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        attempted=gate.attempted,
        failed=gate.failed,
        reasons=gate.reasons,
        warnings=gate.warnings,
        ops=len(ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
