"""Solving at a larger J extends the held condition system in place."""

import warnings

import pytest

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
        rows = build(*args)
        fed.append(len(rows))
        return rows

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
