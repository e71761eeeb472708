"""The names the benchmark in ``perfbench/`` imports and patches.

The benchmark records spans and counts by replacing package attributes
with wrappers (``tracing.SpanTracer``, ``tracing.Counter``) and imports
package names in ``gate`` and ``ops``.  Importing those modules and
installing and uninstalling both recorders here makes a removed or
renamed hook fail the test suite, not only a traced benchmark run.
"""

import importlib
import os
import sys

import pytest

from affwhit import cli, engine, is_generic, linalg, sequence_from_literal
from affwhit.engine import Truncation, WhittakerModule
from affwhit.presets import PRESETS

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        yield {name: importlib.import_module(name)
               for name in ("tracing", "gate", "ops", "workloads")}
    finally:
        sys.path.remove(BENCH)


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_span_sites_install_and_restore(bench):
    tracing = bench["tracing"]
    sites = [site for sites in tracing.SPAN_SITES.values() for site in sites]
    before = [_bound(owner, attr) for owner, attr in sites]
    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        assert all(_bound(o, a) is not f for (o, a), f in zip(sites, before))
        module = bench["ops"].build_module(PRESETS["sl2"], False)
        traced = tracer.run_op("probe", module.solve, Truncation(1, 1, 1))
    finally:
        tracer.uninstall()
    assert all(_bound(o, a) is f for (o, a), f in zip(sites, before))
    assert any(span[0] == "engine.solve" for span in tracer.spans)
    plain = bench["ops"].build_module(PRESETS["sl2"], False).solve(Truncation(1, 1, 1))
    assert traced.vectors == plain.vectors


def test_counter_install_and_restore(bench):
    tracing = bench["tracing"]
    names = [(WhittakerModule, "lmul"), (engine.TensorModule, "act_gen"),
             (linalg, "nullspace"), (linalg, "rref_pivots")]
    before = [_bound(owner, attr) for owner, attr in names]
    counter = tracing.Counter()
    counter.install()
    try:
        module = WhittakerModule(cli.build_spec(PRESETS["sl2"]))
        counter.run_op("probe", module.solve, Truncation(1, 1, 1))
    finally:
        counter.uninstall()
    assert all(_bound(o, a) is f for (o, a), f in zip(names, before))
    assert counter.counts["engine.rows"] > 0
    assert counter.counts["engine.basis_cols"] > 0


def test_gate_and_ops_names(bench):
    gate, ops = bench["gate"], bench["ops"]
    assert gate.element_str is engine.element_str
    assert gate.mono_str is engine.mono_str and gate.pair_str is engine.pair_str
    assert ops.WhittakerModule is WhittakerModule and ops.Truncation is Truncation


# (S, W) of each seq-window template: the W0 its tail forms allow
SEQ_W0 = {(10, 40): 21, (12, 48): 25, (8, 32): 18, (14, 56): 23, (16, 64): 25}


def test_seq_window_ops_eliminate_the_smallest_window(bench, tmp_path, monkeypatch):
    ops = bench["workloads"].generate("seq-window", 0)
    bench["ops"].prepare(ops, str(tmp_path))
    cols = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: cols.append(len(rows[0])) or rank(rows))
    for op in ops:
        cfg = op["config"]
        S, W = cfg["S"], cfg["W"]
        raw = bench["ops"].execute(op, {})
        assert raw.rc is not None and raw.error is None, op["id"]
        assert f"window rank: {op['expect']['rank']} of {op['expect']['rows']} rows" in raw.stdout
        assert cols == [2 * SEQ_W0[S, W] + 1] and cols[0] < 2 * W + 1, op["id"]
        cols.clear()


def test_seq_window_ops_pass_only_the_translates_that_can_be_independent(
    bench, tmp_path, monkeypatch
):
    # a member whose annihilator has width omega spans its translates from
    # omega of them, so it passes min(omega, 2S + 1), any other 2S + 1
    ops = bench["workloads"].generate("seq-window", 0)
    bench["ops"].prepare(ops, str(tmp_path))
    passed = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: passed.append(len(rows)) or rank(rows))
    dropped = 0
    for op in ops:
        cfg = op["config"]
        S = cfg["S"]
        assert cfg["weighted"] is True
        kept = 0
        for literal in cfg["sequences"]:
            verdict = is_generic(sequence_from_literal(literal))
            omega = verdict.witness.width() if verdict.kind == "not_generic" else 2 * S + 1
            kept += min(omega, 2 * S + 1) + 1
        count = len(cfg["sequences"]) * (2 * S + 2)
        raw = bench["ops"].execute(op, {})
        assert raw.rc is not None and raw.error is None, op["id"]
        assert f"window rank: {op['expect']['rank']} of {op['expect']['rows']} rows" in raw.stdout
        assert op["expect"]["rows"] == count and passed == [kept], op["id"]
        dropped += count - kept
        passed.clear()
    assert dropped > 0
