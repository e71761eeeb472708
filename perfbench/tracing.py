"""Spans and counters recorded from outside the package.

The package is not edited: the benchmark replaces attributes with wrappers
and puts the originals back afterwards.  Functions are wrapped at every
site that binds them, because ``engine`` and ``cli`` import some of them
by name (``from .seqspace import is_generic``); patching only the
defining module would miss those calls.

Two modes, never active together:

* ``SpanTracer`` records one span per call into a layer's public
  functions -- name, start, end, parent span and op id -- plus one span
  per garbage-collector pause (through ``gc.callbacks``).  Spans stay in
  memory and are written out when the run ends.  The hot recursive
  functions (``lmul``, ``bracket_gens``, ``act_gen``) are not spanned.
* ``Counter`` counts calls of those hot functions and the rows, pivots
  and entries that pass between the layers.  Its pass is slowed by the
  counting, so its times are discarded.
"""

from __future__ import annotations

import gc
import time
import weakref
from collections import defaultdict

from affwhit import cli, engine, linalg, seqspace
from affwhit.affine import AffineAlgebra
from affwhit.engine import TensorModule, WhittakerModule

# span name -> [(owner, attribute), ...]: every binding site of the function
SPAN_SITES = {
    "cli.main": [(cli, "main")],
    "cli.build_spec": [(cli, "build_spec")],
    "cli.render": [(cli, "element_str"), (cli, "emit")],
    "engine.solve": [(WhittakerModule, "solve"), (TensorModule, "solve")],
    "engine.basis": [(WhittakerModule, "basis")],
    "linalg.nullspace": [(linalg, "nullspace")],
    "linalg.rref_pivots": [(linalg, "rref_pivots")],
    "linalg.rank": [(linalg, "rank")],
    "seqspace.window_rank_check": [
        (seqspace, "window_rank_check"),
        (cli, "window_rank_check"),
    ],
    "seqspace.verdict": [
        (seqspace, "is_generic"),
        (seqspace, "is_strongly_generic_set"),
        (seqspace, "minimal_annihilator"),
        (engine, "is_generic"),
        (engine, "is_strongly_generic_set"),
        (cli, "is_generic"),
        (cli, "is_strongly_generic_set"),
        (cli, "minimal_annihilator"),
        (cli, "size"),
    ],
}

# Per-layer self-time metrics.  A nullspace whose nearest engine or
# seqspace ancestor is a verdict span (minimal_annihilator solves a small
# one) counts as seqspace.verdict_s, so linalg.rref_s and linalg.backsub_s
# are the elimination of engine solves only.
SELF_TIME = {
    "op": "trace.harness_s",
    "cli.main": "cli.other_s",
    "cli.build_spec": "cli.spec_s",
    "cli.render": "cli.render_s",
    "engine.solve": "engine.assembly_s",
    "engine.basis": "engine.basis_s",
    "linalg.nullspace": "linalg.backsub_s",
    "linalg.rref_pivots": "linalg.rref_s",
    "linalg.rank": "linalg.rank_s",
    "seqspace.window_rank_check": "seqspace.window_rows_s",
    "seqspace.verdict": "seqspace.verdict_s",
    "py.gc": "py.gc_s",
}
TIME_METRICS = sorted(set(SELF_TIME.values()))
GC_COUNTS = ("py.gc_collections", "py.gc_gen2_collections")
COUNT_METRICS = (
    "engine.basis_cols",
    "engine.rows",
    "engine.row_nnz",
    "engine.lmul_calls",
    "engine.memo_hit_ratio",
    "engine.tensor_act_calls",
    "affine.bracket_calls",
    "linalg.rref_rows",
    "linalg.rref_useful_ratio",
    "linalg.pivot_nnz",
)


class _Patches:
    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, wrapper_for):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class SpanTracer:
    """Spans at the layer boundaries; ``run_op`` opens an op's root span."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, gc generation]
        self._stack = []
        self._op = None
        self._gc_start = None
        self._patches = _Patches()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                if self._op is None:
                    return fn(*args, **kwargs)
                self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close()

            return traced

        return make

    def _on_gc(self, phase, info):
        if self._op is None:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(
                ["py.gc", self._gc_start, time.perf_counter(), parent, self._op,
                 info["generation"]]
            )
            self._gc_start = None

    def install(self):
        for name, sites in SPAN_SITES.items():
            for owner, attr in sites:
                self._patches.patch(owner, attr, self._wrapper(name))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as the root span of op ``op_id``; returns its result."""
        self._op = op_id
        self._open("op")
        try:
            return fn(*args)
        finally:
            self._close()
            self._op = None

    def layer_times(self, first, last, scale):
        """Self time per metric over spans[first:last], one pass's spans, each
        multiplied by ``scale[op id]``."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = dict.fromkeys(TIME_METRICS, 0.0)
        out.update(dict.fromkeys(GC_COUNTS, 0))
        for i, (name, t0, t1, _, op, gen) in enumerate(spans, start=first):
            metric = SELF_TIME[name]
            if name in ("linalg.nullspace", "linalg.rref_pivots") and self._under_verdict(i):
                metric = "seqspace.verdict_s"
            out[metric] += ((t1 - t0) - child[i]) * scale[op]
            if name == "py.gc":
                out["py.gc_collections"] += 1
                out["py.gc_gen2_collections"] += gen == 2
        return out

    def _under_verdict(self, i):
        parent = self.spans[i][3]
        while parent is not None:
            name = self.spans[parent][0]
            if name.startswith(("engine.", "seqspace.")):
                return name == "seqspace.verdict"
            parent = self.spans[parent][3]
        return False


def span_cost_s():
    """Wall seconds one span adds to a call: a traced no-op against a bare one."""
    calls = 20000
    tracer = SpanTracer()

    def noop():
        return None

    traced = tracer._wrapper("probe")(noop)
    tracer._op = "probe"
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


class Counter:
    """Call and size counters for one counting pass."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._misses = 0
        self._pivots = 0
        self._keys = weakref.WeakKeyDictionary()  # module -> (g, mono) seen
        self._active = False
        self._in_solve = 0
        self._patches = _Patches()

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) with counting on; calls outside ops are not counted."""
        self._active = True
        try:
            return fn(*args)
        finally:
            self._active = False

    def install(self):
        c = self.counts
        keys = self._keys

        def lmul(fn):
            def counted(module, g, mono):
                if self._active:
                    c["engine.lmul_calls"] += 1
                    seen = keys.setdefault(module, set())
                    if (g, mono) not in seen:
                        seen.add((g, mono))
                        self._misses += 1
                return fn(module, g, mono)

            return counted

        def calls(metric):
            def make(fn):
                def counted(*args, **kwargs):
                    if self._active:
                        c[metric] += 1
                    return fn(*args, **kwargs)

                return counted

            return make

        def solve(fn):
            def counted(module, trunc):
                if not self._active:
                    return fn(module, trunc)
                self._in_solve += 1
                try:
                    result = fn(module, trunc)
                finally:
                    self._in_solve -= 1
                c["engine.rows"] += result.row_count
                return result

            return counted

        def basis(fn):
            def counted(module, trunc):
                result = fn(module, trunc)
                if self._active:
                    c["engine.basis_cols"] += len(result)
                return result

            return counted

        def nullspace(fn):
            def counted(rows, ncols):
                rows = list(rows)
                if self._in_solve:
                    c["engine.row_nnz"] += sum(len(r) for r in rows)
                return fn(rows, ncols)

            return counted

        def rref(fn):
            def counted(rows):
                rows = list(rows)
                result = fn(rows)
                if self._in_solve:
                    c["linalg.rref_rows"] += len(rows)
                    self._pivots += len(result)
                    c["linalg.pivot_nnz"] += sum(len(r) for r in result.values())
                return result

            return counted

        p = self._patches
        p.patch(WhittakerModule, "lmul", lmul)
        p.patch(AffineAlgebra, "bracket_gens", calls("affine.bracket_calls"))
        p.patch(TensorModule, "act_gen", calls("engine.tensor_act_calls"))
        p.patch(WhittakerModule, "solve", solve)
        p.patch(TensorModule, "solve", solve)
        p.patch(WhittakerModule, "basis", basis)
        p.patch(linalg, "nullspace", nullspace)
        p.patch(linalg, "rref_pivots", rref)

    def uninstall(self):
        self._patches.restore()
        c = self.counts
        calls = c["engine.lmul_calls"]
        c["engine.memo_hit_ratio"] = (calls - self._misses) / calls if calls else 0.0
        rows = c["linalg.rref_rows"]
        c["linalg.rref_useful_ratio"] = self._pivots / rows if rows else 0.0
