"""Self-test of the correctness gate and of the tracing wrappers.

    python3 perfbench/selftest.py

Runs a few seed-0 ops once, then feeds the gate corrupted copies of their
outputs -- a dropped kernel vector, a perturbed coefficient, altered
stdout, a wrong window rank -- and requires every one of them to be
counted as a failed op, while the untouched outputs pass.  It also runs
each op again under the span tracer and under the counters and requires
the same output digests as the untraced run.  Exits 1 if any case does
not behave.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import OUT, import_package  # noqa: E402

import_package()

import gate as gate_mod  # noqa: E402
import ops as ops_mod  # noqa: E402
import workloads  # noqa: E402
from tracing import Counter, SpanTracer  # noqa: E402

# (workload, op id) of the ops under test: cheap ones, one of each kind
CASES = (
    ("multiplicity", "tensor:tensor-sl2(2,1,3)"),
    ("certify", "whittaker:sl4-borel(2,1,3)"),
    ("jscan", "scan:tensor-sl2(1,1,J=2..6)@J=6"),
    ("seq-window", "check-seq:geo+int+rec+fin(S=10,W=40)#0"),
)


def last_pass_failures(op, passes, recorded):
    """Failed ops in the last of ``passes`` [(raw, report)], one gate for all,
    and the last failure reason."""
    gate = gate_mod.Gate(recorded)
    before = 0
    for raw, report in passes:
        if report is not None:
            with open(raw.report_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
        before = gate.failed
        gate.check(op, raw)
    return gate.failed - before, (gate.reasons or [""])[-1]


def read_report(raw):
    if not raw.report_path:
        return None
    with open(raw.report_path, encoding="utf-8") as fh:
        return json.load(fh)


def corruptions(op, raw, report):
    """(name, raw, report) variants that must each fail."""
    out = []
    swapped = raw.stdout.replace("dimension:", "dimension :", 1)
    if op["kind"] != "solve":  # an API call prints nothing
        out.append(("altered stdout", dataclasses.replace(raw, stdout=raw.stdout + " "), report))
    if op["kind"] in ("whittaker", "tensor"):
        dropped = copy.deepcopy(report)
        dropped["vectors"].pop()
        out.append(("dropped kernel vector", raw, dropped))
        perturbed = copy.deepcopy(report)
        coeff, label = perturbed["vectors"][-1][-1]
        perturbed["vectors"][-1][-1] = [str(2 * gate_mod.Fraction(coeff) + 1), label]
        out.append(("perturbed coefficient", raw, perturbed))
        out.append(("altered dimension line", dataclasses.replace(raw, stdout=swapped), report))
    elif op["kind"] == "solve":
        res = raw.result
        dropped = dataclasses.replace(res, vectors=res.vectors[:-1])
        out.append(("dropped kernel vector", dataclasses.replace(raw, result=dropped), None))
        vecs = [dict(v) for v in res.vectors]
        key = next(iter(vecs[-1]))
        vecs[-1][key] = vecs[-1][key] * 2 + 1
        perturbed = dataclasses.replace(res, vectors=vecs)
        out.append(("perturbed coefficient", dataclasses.replace(raw, result=perturbed), None))
    else:
        rank = op["expect"]["rank"]
        wrong = raw.stdout.replace(f"window rank: {rank} ", f"window rank: {rank - 1} ")
        out.append(("wrong window rank", dataclasses.replace(raw, stdout=wrong), None))
    return out


def wrong_but_consistent(op, raw, report):
    """A solver answer whose stdout and report agree on a vector that is not
    a Whittaker vector: only exact re-verification can reject it."""
    tensor = op["kind"] == "tensor"
    module = gate_mod.fresh_module(op["config"], tensor)
    datum = (module.left if tensor else module).spec.datum
    wrong = copy.deepcopy(report)
    entries = wrong["vectors"][-1]
    if len(entries) > 1:  # change one coefficient of the last vector
        coeff, label = entries[-1]
        entries[-1] = [str(gate_mod.Fraction(coeff) + 1), label]
    else:  # a lone term can only be rescaled, which stays a kernel vector: add one
        entries.append(["1", "1 (x) (d)" if tensor else "(d)"])
    vec = gate_mod.parse_vector(entries, datum, tensor)
    render = gate_mod.pair_str if tensor else gate_mod.mono_str
    lines = raw.stdout.splitlines(keepends=True)
    start = lines.index(f"dimension: {op['expect']}\n") + 1
    lines[start + op["expect"] - 1] = f"  {gate_mod.element_str(vec, render=render)}\n"
    return dataclasses.replace(raw, stdout="".join(lines)), wrong


def main():
    with open(os.path.join(HERE, "seed0_digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    workdir = os.path.join(OUT, "selftest")
    os.makedirs(workdir, exist_ok=True)
    bad = 0
    try:
        for workload, op_id in CASES:
            ops = workloads.generate(workload, 0)
            ops_mod.prepare(ops, workdir)
            op = next(o for o in ops if o["id"] == op_id)
            raw = ops_mod.execute(op, {})
            good = (raw, read_report(raw))
            recorded = digests[workload]
            rows = [("untouched output", [good], False, recorded)]
            # a solve op prints nothing: its corruptions must fail on the vectors alone
            digests_or_none = None if op["kind"] == "solve" else recorded
            for name, r, rep in corruptions(op, raw, good[1]):
                rows.append((name, [(r, rep)], True, digests_or_none))
                rows.append((f"{name}, later pass", [good, (r, rep)], True, digests_or_none))
            if op["kind"] in ("whittaker", "tensor"):
                # without the seed-0 digest, as on any other seed
                rows.append(("wrong vector, consistent stdout",
                             [wrong_but_consistent(op, raw, good[1])], True, None))
            for mode in (SpanTracer(), Counter()):
                mode.install()
                try:
                    again = mode.run_op(op_id, ops_mod.execute, op, {})
                finally:
                    mode.uninstall()
                rows.append((f"rerun under {type(mode).__name__}",
                             [good, (again, read_report(again))], False, recorded))
            for name, passes, must_fail, recorded in rows:
                got, reason = last_pass_failures(op, passes, recorded)
                ok = (got > 0) == must_fail
                bad += not ok
                print(f"{'ok ' if ok else 'BAD'} {workload:12s} {name:36s} failed ops: {got}"
                      + (f"  ({reason.split(': ', 1)[1]})" if got else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("gate self-test:", "passed" if not bad else f"{bad} case(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
