"""Solving at a larger J extends the held condition system in place."""

import gc
import json
import pathlib
import random
import warnings
import weakref
from fractions import Fraction

import pytest

import oracles
from affwhit import cli, linalg
from affwhit import (
    Geometric,
    TensorModule,
    Truncation,
    WhittakerModule,
    WhittakerSpec,
    build_datum,
)

A1 = (1,)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def quiet(factory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return factory()


def sl2():
    return WhittakerModule(WhittakerSpec(build_datum(2), {A1: Geometric(2)}, theta=1))


def sl3_abelian():
    lam = {(1, 0): Geometric(2), (1, 1): Geometric(3)}
    return WhittakerModule(
        quiet(lambda: WhittakerSpec(build_datum(3, {2}), lam, theta=1))
    )


def tensor_sl2():
    d = build_datum(2)
    return quiet(
        lambda: TensorModule(
            WhittakerSpec(d, {A1: Geometric(2)}, theta=1),
            WhittakerSpec(d, {A1: Geometric(3)}, theta=2),
        )
    )


# the rung shapes of the benchmark's J-scans: module, D, E, the Js scanned
SCANS = {
    "sl2(3,2)": (sl2, 3, 2, range(1, 7)),
    "sl3-abelian(2,1)": (sl3_abelian, 2, 1, range(2, 6)),
    "tensor-sl2(1,1)": (tensor_sl2, 1, 1, range(2, 7)),
    "tensor-sl2(2,1)": (tensor_sl2, 2, 1, range(2, 5)),
}


def count_rows_fed(module):
    """A list that receives the row count of every condition the module builds."""
    fed = []
    build = module.condition_rows

    def counted(*args):
        rows, count = build(*args)
        fed.append(count)
        return rows, count

    module.condition_rows = counted
    return fed


def assert_same(got, want):
    assert got.vectors == want.vectors
    assert got.basis == want.basis
    assert got.condition_count == want.condition_count
    assert got.row_count == want.row_count
    assert got.dimension == want.dimension
    assert got.truncation == want.truncation


@pytest.mark.parametrize("name", sorted(SCANS))
def test_ascending_scan_equals_fresh_solves(name):
    make, D, E, Js = SCANS[name]
    module = make()
    fed = count_rows_fed(module)
    before = 0
    for J in Js:
        trunc = Truncation(D, E, J)
        want = make().solve(trunc)
        assert_same(module.solve(trunc), want)
        # only the conditions with the new |j| were built
        assert sum(fed) == want.row_count - before
        before = want.row_count
        fed.clear()
        assert_same(module.solve(trunc), want)  # the same J feeds nothing
        assert not fed


@pytest.mark.parametrize("name", sorted(SCANS))
def test_descending_or_changed_truncation_rebuilds(name):
    make, D, E, Js = SCANS[name]
    lo, hi = Js[0], Js[1]
    module = make()
    fed = count_rows_fed(module)
    module.solve(Truncation(D, E, hi))
    for trunc in (
        Truncation(D, E, lo),  # descending J
        Truncation(D - 1, E, hi),  # smaller D, larger J
        Truncation(D - 1, E - 1, hi),  # smaller E
        Truncation(D, E - 1, hi),  # larger D
    ):
        fed.clear()
        want = make().solve(trunc)
        assert_same(module.solve(trunc), want)
        assert sum(fed) == want.row_count
        assert len(fed) == want.condition_count


def record_eliminations(monkeypatch):
    """A list that gets (rows, pivot rows) for every ``linalg.rref_pivots`` call."""
    calls = []
    rref = linalg.rref_pivots

    def recorded(rows):
        rows = list(rows)
        pivots = rref(rows)
        calls.append((rows, pivots))
        return pivots

    monkeypatch.setattr(linalg, "rref_pivots", recorded)
    return calls


def record_kernel_systems(monkeypatch):
    """A list that gets (rows, ncols) for every ``linalg.nullspace`` call."""
    calls = []
    kernel = linalg.nullspace

    def recorded(rows, ncols):
        rows = list(rows)
        calls.append((rows, ncols))
        return kernel(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", recorded)
    return calls


def held_kernel(pruner):
    """The kernel basis the pruner returned last (and holds)."""
    return pruner._held[1]


def m_supports(pruner, held, kept, dead_before):
    """The supports, sorted, of the rows of M that ``held`` is cut by:
    v[c] over the held vectors v for each column c killed since, and
    r . v for each core row r kept since row ``kept``."""
    supports = []
    for c in pruner.dead - dead_before:
        supports.append([i for i, v in enumerate(held) if c in v])
    for r in pruner.core(kept):
        supports.append([
            i for i, v in enumerate(held)
            if sum(x * v.get(c, 0) for c, x in r.items())
        ])
    return sorted(s for s in supports if s)


def assert_normalized(kernel):
    """Each vector's first key is its free column, its largest, and the
    vectors ascend by it."""
    free = [next(iter(v)) for v in kernel]
    assert free == [max(v) for v in kernel]
    assert free == sorted(free)
    assert all(v[f] == 1 for f, v in zip(free, kernel))


def assert_m_cuts_held(m_call, pruner, held, kept, dead_before):
    """The one M system of a later call is over the held vectors' k
    coordinates and has exactly the rows the killed columns and the new
    core rows give."""
    rows, ncols = m_call
    assert ncols == len(held)
    assert all(0 <= i < ncols for r in rows for i in r)
    assert sorted(sorted(r) for r in rows) == m_supports(pruner, held, kept, dead_before)


@pytest.mark.parametrize("name", sorted(SCANS))
def test_only_the_first_J_eliminates_the_whole_core(name, monkeypatch):
    # later Js eliminate only a system over the held kernel's coordinates;
    # a silent return to the whole core would feed the old core rows again
    make, D, E, Js = SCANS[name]
    module = make()
    systems = record_kernel_systems(monkeypatch)
    calls = record_eliminations(monkeypatch)
    module.solve(Truncation(D, E, Js[0]))
    (rows, _), = calls
    pruner = module._held.pruner
    assert rows == list(pruner.core())
    assert systems == []
    for J in Js[1:]:
        held = held_kernel(pruner)
        kept, dead_before = len(pruner._kept), set(pruner.dead)
        calls.clear()
        systems.clear()
        got = module.solve(Truncation(D, E, J))
        assert module._held.pruner is pruner
        (m_call,) = systems
        assert_m_cuts_held(m_call, pruner, held, kept, dead_before)
        (rows, _), = calls
        assert all(0 <= i < len(held) for r in rows for i in r)
        kernel = held_kernel(pruner)
        assert len(kernel) == got.dimension
        assert_normalized(kernel)


def batch(rng, nc, held):
    """Random rows with two to four entries, and a singleton row killing
    a column of one of the ``held`` kernel vectors when any."""
    rows = []
    for _ in range(rng.randint(1, 4)):
        cols = rng.sample(range(nc), rng.randint(2, 4))
        rows.append({c: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
                     for c in cols})
    if held:
        rows.append({rng.choice(sorted(rng.choice(held))): Fraction(rng.randint(1, 4))})
    rng.shuffle(rows)
    return rows


def test_pruner_shrinks_its_held_kernel_batch_by_batch(monkeypatch):
    rng = random.Random(1109)
    held_column_died = 0
    for _ in range(40):
        nc = rng.randint(6, 12)
        pruner = linalg.SingletonPruner()
        rows, held = [], []
        for k in range(4):
            kept, dead_before = len(pruner._kept), set(pruner.dead)
            new = batch(rng, nc, held)
            pruner.extend(new)
            rows += new
            held_column_died += any(c in pruner.dead for v in held for c in v)
            systems = record_kernel_systems(monkeypatch)
            got = pruner.nullspace(nc)
            monkeypatch.undo()
            if k == 0:
                assert systems == []  # the first call eliminates the whole core
            else:
                (m_call,) = systems
                assert_m_cuts_held(m_call, pruner, held, kept, dead_before)
            assert got is held_kernel(pruner)
            assert_normalized(got)
            assert got == linalg.nullspace(rows, nc)
            assert got == oracles.sympy_nullspace(rows, nc)
            held = got
    assert held_column_died > 10, held_column_died


M127 = 2**127 - 1


def tall_rows(rng, nc, n):
    """n rows with 100-bit entries on every column: their products with a
    held kernel have a reduced form far taller than the 2^63 one prime
    reconstructs."""
    return [
        {c: Fraction(rng.getrandbits(100) | 1, rng.getrandbits(100) | 1) for c in range(nc)}
        for _ in range(n)
    ]


def log_primes(monkeypatch):
    """A list that gets every prime ``linalg.rref_pivots`` draws."""
    primes = []
    draw = linalg._primes

    def logged():
        for p in draw():
            primes.append(p)
            yield p

    monkeypatch.setattr(linalg, "_primes", logged)
    return primes


def test_held_rows_are_certified_when_one_prime_is_not_enough(monkeypatch):
    rng = random.Random(6364)
    cases = [
        # a held kernel of six vectors, then three rows of 100-bit entries
        ([{0: 1, 1: 2, 2: 3}, {2: 1, 3: -1}], tall_rows(rng, 8, 3)),
        # a held kernel with a denominator that is a multiple of 2^127 - 1
        ([{0: M127, 1: 1}, {2: 1, 3: 1, 4: -1}], tall_rows(rng, 8, 4)),
        # M's reduced form holds -2^126, which is -1/2 modulo 2^127 - 1:
        # the lift succeeds and only the check against M's rows rejects it
        ([{2: 1, 3: 1}], [{0: 1, 1: -(2**126)}]),
    ]
    for first, second in cases:
        nc = 8
        pruner = linalg.SingletonPruner()
        pruner.extend(first)
        assert pruner.nullspace(nc) == oracles.sympy_nullspace(first, nc)
        pruner.extend(second)
        calls = record_eliminations(monkeypatch)
        primes = log_primes(monkeypatch)
        got = pruner.nullspace(nc)
        monkeypatch.undo()
        (m_rows, _), = calls  # M's elimination alone draws the primes
        assert m_rows and len(primes) > 1
        rows = first + second
        assert got == linalg.nullspace(rows, nc)
        assert got == oracles.sympy_nullspace(rows, nc)


@pytest.mark.parametrize("first, second, m_rows, want", [
    # the free column 1 of the held vector {1: 1, 0: -1} dies, and 0 with it
    ([{0: 1, 1: 1}], [{1: 1}], [{0: 1}, {0: -1}], [{2: 1}]),
    # column 0, a pivot entry of the held vectors of free columns 1 and 2,
    # dies; columns 1 and 2 stay live
    ([{0: 1, 1: 1, 2: 1}], [{0: 3}], [{0: -1, 1: -1}], [{2: 1, 1: -1}, {3: 1}]),
], ids=["free-column-dies", "pivot-entry-dies"])
def test_held_kernel_loses_its_dead_columns(first, second, m_rows, want, monkeypatch):
    nc = 4 if len(want) == 2 else 3
    pruner = linalg.SingletonPruner()
    pruner.extend(first)
    pruner.nullspace(nc)
    pruner.extend(second)
    systems = record_kernel_systems(monkeypatch)
    got = pruner.nullspace(nc)
    monkeypatch.undo()
    (rows, _), = systems
    entries = lambda r: sorted(r.items())  # noqa: E731
    assert sorted(rows, key=entries) == sorted(m_rows, key=entries)
    assert got == want
    assert_normalized(got)
    assert got == oracles.sympy_nullspace(first + second, nc)


def test_a_repeated_solve_eliminates_no_row(monkeypatch):
    for make, D, E, Js in SCANS.values():
        module = make()
        trunc = Truncation(D, E, Js[1])
        want = module.solve(trunc)
        calls = record_eliminations(monkeypatch)
        assert_same(module.solve(trunc), want)
        monkeypatch.undo()
        assert calls and all(rows == [] for rows, _ in calls)


def test_a_batch_that_kills_every_held_kernel_column_leaves_it_empty():
    nc = 6
    first = [{0: 1, 1: 2, 2: 3}, {3: 1, 4: -1}]
    pruner = linalg.SingletonPruner()
    pruner.extend(first)
    held = pruner.nullspace(nc)
    assert len(held) == 4
    second = [{c: 1} for c in sorted(set().union(*held))]
    pruner.extend(second)
    assert pruner.nullspace(nc) == []
    third = [{0: 1, 5: 2}, {1: 1, 2: 1, 3: 1}]
    pruner.extend(third)
    assert pruner.nullspace(nc) == []
    assert linalg.nullspace(first + second + third, nc) == []
    # a call with more columns does not shrink the held kernel
    assert pruner.nullspace(nc + 2) == [{6: 1}, {7: 1}]


FRACTIONAL = ("frac-sl2", "frac-sl3-borel", "frac-tensor-sl2")


@pytest.mark.parametrize("name", FRACTIONAL)
def test_fractional_ratio_scans_equal_fresh_solves(name):
    cfg = json.loads((GOLDEN / f"{name}.json").read_text())
    parts = [cfg["left"], cfg["right"]] if "left" in cfg else [cfg]
    specs = quiet(lambda: [cli.build_spec(part) for part in parts])

    def make():
        return TensorModule(*specs) if len(specs) == 2 else WhittakerModule(specs[0])

    D, E = cfg["truncation"]["D"], cfg["truncation"]["E"]
    module = quiet(make)
    for J in range(1, 5):
        trunc = Truncation(D, E, J)
        assert_same(module.solve(trunc), quiet(make).solve(trunc))


def test_dropped_solved_modules_are_freed_without_the_collector():
    """A held system keeps the basis ids, not the module's row builder,
    so a solved module is freed by reference counting alone."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (sl2, tensor_sl2):
            module = make()
            module.solve(Truncation(2, 1, 2))
            module.solve(Truncation(2, 1, 3))  # extends the held system
            assert module._held is not None
            ref = weakref.ref(module)
            del module
            assert ref() is None, make.__name__
    finally:
        if was_enabled:
            gc.enable()
