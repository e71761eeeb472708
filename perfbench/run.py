"""affwhit benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the root of a checkout; the package is imported from ``src/``
there.  The workload runs in a fresh child process (``child.py``), so peak
RSS and heap state are per workload.  ``setup_s`` is the median, over
several children started only to set up, of the time from starting the
child until its first timed op could run (interpreter start, ``import
affwhit``, input generation), scaled to the reference host speed by the
calibration loop timed before and after each child.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (median time of one
pass over the op list, each op's time scaled to the reference host
speed measured before, during and after it -- see ``child.py``), ``setup_s`` and
``peak_rss_mb``.
``--trace 1`` reports the per-layer metrics of a counting pass and of
traced passes alternated with untraced ones.  Either way, every op is
checked (see ``gate.py``) and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``fail_rate`` is
printed on the summary lines above it.  ``--workload all`` runs the four
workloads in turn and prints only the summary lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from child import CAL_REF_S, mean_calibration_s, pass_calibrated, pass_wall
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def start_child(argv):
    """Start child.py; returns (process, seconds until it printed READY)."""
    # a fixed hash seed gives every run the same dict and set layouts
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _, err = finish(proc)
        raise BenchError(f"child did not start: {line.strip()} {err.strip()}")
    return proc, ready


def finish(proc):
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    return out, err


def setup_seconds(workload, seed):
    """Median set-up time over SETUP_SAMPLES children, after one warm-up,
    each scaled to the reference host speed by the calibration loop timed
    before and after it."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        before = mean_calibration_s()
        proc, ready = start_child(argv)
        finish(proc)
        samples.append(ready * CAL_REF_S * 2 / (before + mean_calibration_s()))
    return statistics.median(samples[1:])


def run_workload(workload, seed, seconds, trace):
    env_start = host_state()
    setup = setup_seconds(workload, seed)
    proc, _ = start_child(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])
    out, err = finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    result["host"] = {"start": env_start, "end": host_state()}
    return result


def host_state():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(workload, seed, r):
    passes = [pass_calibrated(p) for p in r["passes"]]
    walls = [pass_wall(p) for p in r["passes"]]
    q1, q3 = quartiles(passes)
    w1, w3 = quartiles(walls)
    lines = [
        f"{workload} seed {seed}: {r['ops']} ops per pass, {len(passes)} passes, "
        f"{r['attempted']} ops attempted, {r['warnings']} genericity warnings captured",
        f"  pass_s      {statistics.median(passes):.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}; "
        f"at {CAL_REF_S * 1000:g} ms per calibration loop)",
        f"  wall pass   {statistics.median(walls):.4f} s  (q1 {w1:.4f}, q3 {w3:.4f})",
        f"  setup_s     {r['setup_s']:.4f} s  (median of {SETUP_SAMPLES})",
        f"  peak_rss_mb {r['peak_rss_mb']:.1f} MB",
        f"  fail_rate   {r['failed'] / r['attempted']:.4f} ratio  "
        f"({r['failed']} of {r['attempted']})",
        f"  host        start {r['host']['start']}  end loadavg {r['host']['end']['loadavg']}",
    ]
    lines += [f"  FAILED {reason}" for reason in r["reasons"]]
    if "layers" in r:
        lines.append(f"  layer self times sum to {r['layer_sum_s']:.4f} s per traced pass "
                     f"(traced pass {r['layers']['trace.pass_s']:.4f} s)")
        lines += [f"  {k:28s} {v:.6g}" for k, v in sorted(r["layers"].items())]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="affwhit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "affwhit", "__init__.py")):
        print(f"error: no affwhit package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except (BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, r in results.items():
        print("\n".join(summary(w, args.seed, r)))
    if args.workload == "all":
        return 0
    r = results[args.workload]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(r["layers"].items())}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(pass_calibrated(p) for p in r["passes"]),
                       "unit": "s"},
            "setup_s": {"value": r["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
