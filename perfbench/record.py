"""Check the benchmark's recorded answers and record the seed-0 stdout digests.

    python3 perfbench/record.py            # check only
    python3 perfbench/record.py --write    # also write seed0_digests.json

For every workload and every seed in ``range(SEEDS)`` this runs each op
once and puts it through the full gate (dimensions, exact re-verification
of every kernel vector, window ranks and verdicts), which confirms that
the rung tables in ``workloads.py`` are structural rather than properties
of one draw.  Every window rank is also recomputed with sympy from the
sequences' entries, independently of ``affwhit.linalg``.

``--write`` records the SHA-256 of each op's stdout on seed 0.  Those
digests pin the output of the commit that defined the benchmark; rewrite
them only when a change to stdout is intended and reviewed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 10
sys.path.insert(0, HERE)

from child import OUT, import_package  # noqa: E402

import_package()

import gate as gate_mod  # noqa: E402
import ops as ops_mod  # noqa: E402
import workloads  # noqa: E402
from affwhit.seqspace import sequence_from_literal, weighted  # noqa: E402


def sympy_window_rank(cfg):
    """Rank of the check-seq window matrix, computed by sympy."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    S, W = cfg["S"], cfg["W"]
    rows = []
    for lit in cfg["sequences"]:
        x = sequence_from_literal(lit)
        for s in range(-S, S + 1):
            rows.append([QQ(x.entry(i + s)) for i in range(-W, W + 1)])
        if cfg["weighted"]:
            w = weighted(x)
            rows.append([QQ(w.entry(i)) for i in range(-W, W + 1)])
    return DomainMatrix(rows, (len(rows), 2 * W + 1), QQ).rank()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    digests = {}
    failures = 0
    workdir = os.path.join(OUT, "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            digests[workload] = {}
            for seed in range(SEEDS):
                ops = workloads.generate(workload, seed)
                ops_mod.prepare(ops, workdir)
                gate = gate_mod.Gate()
                modules = {}
                for op in ops:
                    raw = ops_mod.execute(op, modules)
                    gate.check(op, raw)
                    if seed == 0:
                        text = raw.stdout
                        if op["kind"] == "solve":
                            text = gate_mod.solve_answer(op, raw, verify=False)[0]
                        digests[workload][op["id"]] = gate_mod.sha256(text)
                    if op["kind"] == "check-seq":
                        rank = sympy_window_rank(op["config"])
                        if rank != op["expect"]["rank"]:
                            failures += 1
                            print(f"{op['id']}: sympy rank {rank}, recorded "
                                  f"{op['expect']['rank']}")
                print(f"{workload} seed {seed}: {gate.attempted} ops, "
                      f"{gate.failed} failed {gate.reasons}", flush=True)
                failures += gate.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.write:
        with open(os.path.join(HERE, "seed0_digests.json"), "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
