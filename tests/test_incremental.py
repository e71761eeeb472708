"""Solving at a larger J extends the held condition system in place."""

import gc
import random
import warnings
import weakref
from fractions import Fraction

import pytest

import oracles
from affwhit import linalg
from affwhit import (
    Geometric,
    TensorModule,
    Truncation,
    WhittakerModule,
    WhittakerSpec,
    build_datum,
)

A1 = (1,)


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


def count_eliminations(monkeypatch):
    """A list that gets one entry per call of ``linalg.rref_pivots``."""
    calls = []
    rref = linalg.rref_pivots

    def counted(rows):
        calls.append(None)
        return rref(rows)

    monkeypatch.setattr(linalg, "rref_pivots", counted)
    return calls


@pytest.mark.parametrize("name", sorted(SCANS))
def test_only_the_first_J_eliminates_the_whole_core(name, monkeypatch):
    # later Js extend the certified form held from the last solve; a silent
    # fall back to full elimination (say, without the unit rows of columns
    # that died since) would call rref_pivots again
    make, D, E, Js = SCANS[name]
    module = make()
    calls = count_eliminations(monkeypatch)
    for J in Js:
        module.solve(Truncation(D, E, J))
        assert len(calls) == 1


def batch(rng, nc, pivots):
    """Random rows with two to four entries, and a singleton row killing
    one of ``pivots`` (the pivot columns of the core so far) when any."""
    rows = []
    for _ in range(rng.randint(1, 4)):
        cols = rng.sample(range(nc), rng.randint(2, 4))
        rows.append({c: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
                     for c in cols})
    if pivots:
        rows.append({rng.choice(sorted(pivots)): Fraction(rng.randint(1, 4))})
    rng.shuffle(rows)
    return rows


def test_pruner_extends_its_certified_form_batch_by_batch(monkeypatch):
    rng = random.Random(1109)
    held_pivot_died = 0
    for _ in range(40):
        nc = rng.randint(6, 12)
        pruner = linalg.SingletonPruner()
        rows, pivots = [], set()
        calls = count_eliminations(monkeypatch)
        for k in range(4):
            new = batch(rng, nc, pivots)
            pruner.extend(new)
            rows += new
            held_pivot_died += bool(pivots & pruner.dead)
            got = pruner.nullspace(nc)
            # only the first solve eliminates the whole core
            assert len(calls) == (k == 0)
            calls.clear()
            assert got == linalg.nullspace(rows, nc)
            assert got == oracles.sympy_nullspace(rows, nc)
            calls.clear()
            pivots = set(oracles.fraction_rref(list(pruner.core())))
        monkeypatch.undo()
    assert held_pivot_died > 10


M127 = 2**127 - 1


def tall_rows(rng, nc, n):
    """n rows with 100-bit entries on every column: their reduced form is
    far taller than the 2^63 one prime reconstructs."""
    return [
        {c: Fraction(rng.getrandbits(100) | 1, rng.getrandbits(100) | 1) for c in range(nc)}
        for _ in range(n)
    ]


def test_held_path_falls_back_when_one_prime_is_not_enough(monkeypatch):
    rng = random.Random(6364)
    cases = [
        # small held form, then rows of 100-bit entries: the lift fails
        ([{0: 1, 1: 2, 2: 3}, {2: 1, 3: -1}], tall_rows(rng, 8, 3)),
        # the new reduced form holds -2^126, which is -1/2 modulo 2^127 - 1:
        # the lift succeeds and only the check against the core rejects it
        ([{2: 1, 3: 1}], [{0: 1, 1: -(2**126)}]),
        # a held denominator that is a multiple of 2^127 - 1
        ([{0: M127, 1: 1}], [{1: 1, 2: 3}]),
    ]
    for first, second in cases:
        nc = 8
        pruner = linalg.SingletonPruner()
        pruner.extend(first)
        calls = count_eliminations(monkeypatch)
        assert pruner.nullspace(nc) == oracles.sympy_nullspace(first, nc)
        pruner.extend(second)
        got = pruner.nullspace(nc)
        assert len(calls) == 2  # the first solve, then the fallback
        rows = first + second
        assert got == linalg.nullspace(rows, nc)
        assert got == oracles.sympy_nullspace(rows, nc)
        monkeypatch.undo()


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
