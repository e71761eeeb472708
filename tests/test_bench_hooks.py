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

import oracles
from affwhit import cli, engine, linalg, sequence_from_literal
from affwhit.engine import Truncation, WhittakerModule
from affwhit.presets import PRESETS
from test_seqspace import record_rank_rows, reduced_rows, window_of

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
    seen = record_rank_rows(monkeypatch)
    for op in ops:
        cfg = op["config"]
        S, W = cfg["S"], cfg["W"]
        raw = bench["ops"].execute(op, {})
        assert raw.rc is not None and raw.error is None, op["id"]
        assert f"window rank: {op['expect']['rank']} of {op['expect']['rows']} rows" in raw.stdout
        assert [window_of(rows) for rows in seen] == [SEQ_W0[S, W]] and SEQ_W0[S, W] < W, op["id"]
        seen.clear()


def test_seq_window_ops_pass_only_the_translates_that_can_be_independent(
    bench, tmp_path, monkeypatch
):
    # each member passes rows that span its 2S + 1 translates: the first
    # min(omega(T), 2S + 1) of them, the translates of the finite z =
    # T(S)x that are nonzero on the window, and its weighted row; the
    # z-rows of the geometric members have one entry each
    ops = bench["workloads"].generate("seq-window", 0)
    bench["ops"].prepare(ops, str(tmp_path))
    seen = record_rank_rows(monkeypatch)
    units = 0
    for op in ops:
        cfg = op["config"]
        S, W = cfg["S"], cfg["W"]
        assert cfg["weighted"] is True
        seqs = [sequence_from_literal(literal) for literal in cfg["sequences"]]
        count = len(seqs) * (2 * S + 2)
        raw = bench["ops"].execute(op, {})
        assert raw.rc is not None and raw.error is None, op["id"]
        assert f"window rank: {op['expect']['rank']} of {op['expect']['rows']} rows" in raw.stdout
        assert op["expect"]["rows"] == count, op["id"]
        assert seen == [reduced_rows(seqs, S, SEQ_W0[S, W])], op["id"]
        assert len(seen[0]) <= count, op["id"]
        units += sum(len(row) == 1 for row in seen[0])
        seen.clear()
    assert units > 0


def test_rank_of_the_seq_window_rows_equals_sympy_and_makes_no_fraction(
    bench, tmp_path, monkeypatch
):
    # linalg.rank counts the certified candidate's pivots, never turning it
    # into Fraction rows; on every seed-0 seq-window op it equals sympy's rank
    ops = bench["workloads"].generate("seq-window", 0)
    bench["ops"].prepare(ops, str(tmp_path))
    seen = record_rank_rows(monkeypatch)

    def refuse(cand):
        raise AssertionError("rank built Fraction rows")

    for op in ops:
        raw = bench["ops"].execute(op, {})
        assert raw.rc == 0 and raw.error is None, (op["id"], raw.error)
        (rows,) = seen
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_fractions", refuse)
            got = linalg.rank(rows)
        W0 = window_of(rows)
        shifted = [{c + W0: v for c, v in row.items()} for row in rows]
        assert got == oracles.sympy_rank(shifted, 2 * W0 + 1), op["id"]
        assert f"window rank: {got} of" in raw.stdout, op["id"]
        seen.clear()


# memo entries a seed-0 solve leaves: after a solve the memo holds only the
# images a later step can read (the ``affwhit.engine`` docstring), 42,188
# and 20,849 entries when it kept every image, 10,899 and 7,862 when it
# also stored the zero images of c and of L(n) on the cyclic vector
MEMO_ENTRIES = {
    ("multiplicity", "whittaker:sl3-abelian(3,1,4)"): 10_659,
    ("certify", "whittaker:sl2(4,2,4)"): 7_473,
}


@pytest.mark.filterwarnings("ignore:Lam multiset is not certified")
@pytest.mark.parametrize("workload, op_id", sorted(MEMO_ENTRIES))
def test_solve_leaves_only_the_memo_entries_a_later_step_reads(bench, workload, op_id):
    op = next(op for op in bench["workloads"].generate(workload, 0) if op["id"] == op_id)
    cfg = op["config"]
    module = bench["ops"].build_module(cfg, False)
    assert module.solve(Truncation(**cfg["truncation"])).dimension == op["expect"]
    assert sum(map(len, module._memo)) == MEMO_ENTRIES[workload, op_id]


def per_pair_action(tensor, g, elt):
    """g . elt with one ``lmul`` per factor of every pair."""
    out = {}
    for (ma, mb), coeff in elt.items():
        for m, c in tensor.left.lmul(g, ma).items():
            linalg.add_term(out, (m, mb), coeff * c)
        for m, c in tensor.right.lmul(g, mb).items():
            linalg.add_term(out, (ma, m), coeff * c)
    return out


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_tensor_action_straightens_each_factor_monomial_once(bench, monkeypatch):
    op_id = "tensor:tensor-sl2(2,1,3)"
    op = next(op for op in bench["workloads"].generate("multiplicity", 0) if op["id"] == op_id)
    cfg = op["config"]
    tensor = bench["ops"].build_module(cfg, True)
    vectors = tensor.solve(Truncation(**cfg["truncation"])).vectors
    assert len(vectors) == op["expect"] == 14
    sides = {"left": tensor.left, "right": tensor.right}
    factor = {id(module._tables): side for side, module in sides.items()}
    requests, depth = [], [0]
    straighten = engine._straighten

    def spy(t, g, mids, top=1):
        # the recursion calls _straighten too: record the outermost calls only
        if not depth[0]:
            requests.append((factor[id(t)], g, sorted(mids)))
        depth[0] += 1
        try:
            yield from straighten(t, g, mids, top)
        finally:
            depth[0] -= 1

    J = cfg["truncation"]["J"]
    checked = 0
    for root in tensor.condition_roots():
        for j in range(-J, J + 1):
            g = ("X", root, j)
            for vec in vectors:
                requests.clear()
                with monkeypatch.context() as m:
                    m.setattr(engine, "_straighten", spy)
                    got = tensor.act_gen(g, vec)
                # one request per factor, each distinct factor monomial once
                assert requests == [
                    (side, module._gid(g), sorted({module._mid(pair[k]) for pair in vec}))
                    for k, (side, module) in enumerate(sides.items())
                ]
                assert got == per_pair_action(tensor, g, vec)
                checked += 1
    assert checked == 14 * (2 * J + 1) * len(tensor.condition_roots())
