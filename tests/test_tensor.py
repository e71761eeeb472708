"""Tensor products of induced modules under the diagonal action."""

import warnings
from fractions import Fraction

import pytest

from affwhit import (
    C,
    Geometric,
    H,
    Scaled,
    TensorModule,
    Truncation,
    VACUUM,
    WhittakerModule,
    WhittakerSpec,
    X,
    build_datum,
    tensor_whittaker_solve,
)

F = Fraction

A1 = (1,)


def specs(j2=2, j3=3, th1=1, th2=2):
    d = build_datum(2)
    return (
        WhittakerSpec(d, {A1: Geometric(j2)}, theta=th1),
        WhittakerSpec(d, {A1: Geometric(j3)}, theta=th2),
    )


def neg_specs():
    d = build_datum(2)
    return (
        WhittakerSpec(d, {A1: Geometric(2)}, theta=1),
        WhittakerSpec(d, {A1: Scaled(Geometric(2), -1)}, theta=-1),
    )


def quiet_tensor(make):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a, b = make()
        return TensorModule(a, b)


VAC2 = (VACUUM, VACUUM)


def test_union_genericity_and_warning():
    with pytest.warns(UserWarning, match="union of the two eigenvalue families"):
        a, b = specs()
        t = TensorModule(a, b)
    assert t.union_genericity.kind == "not_strongly_generic"
    assert "cutoff identity" in t.union_genericity.reason

    with pytest.warns(UserWarning, match="union of the two eigenvalue families"):
        a, b = neg_specs()
        t = TensorModule(a, b)
    assert "proportional" in t.union_genericity.reason


def test_theta_and_eigenvalues_add():
    t = quiet_tensor(specs)
    assert t.theta == 3
    for j in range(-6, 7):
        assert t.lam_sum(A1, j) == Geometric(2).entry(j) + Geometric(3).entry(j)
    vac = {VAC2: F(1)}
    for j in range(-5, 6):
        got = t.act_gen(X(A1, j), vac)
        target = t.lam_sum(A1, j)
        assert got == ({VAC2: target} if target else {})


def test_c_acts_by_theta_sum():
    t = quiet_tensor(specs)
    form = {VAC2: F(1), ((((X((-1,), 0), 1),)), VACUUM): F(2)}
    got = t.act_gen(C, form)
    assert got == {m: 3 * c for m, c in form.items()}


def test_leibniz_rule_anchor():
    t = quiet_tensor(specs)
    m = (((X((-1,), 0), 1),), VACUUM)
    got = t.act_gen(X(A1, 1), {m: F(1)})
    # left factor straightens as in the single module; right factor
    # multiplies the pair by its vacuum eigenvalue Lam'(a)_1 = 3
    assert got == {
        m: F(2 + 3),
        (((H(1, 1), 1),), VACUUM): F(1),
    }


def test_tensor_dimension_scan():
    t = quiet_tensor(specs)
    dims = {J: t.solve(Truncation(1, 1, J)).dimension for J in (2, 3, 4, 5)}
    assert dims == {2: 7, 3: 5, 4: 4, 5: 3}
    res = t.solve(Truncation(1, 1, 5))
    assert {VAC2: F(1)} in res.vectors


def test_tensor_plateau_vectors_are_genuine():
    """The J=5 kernel satisfies conditions far beyond the imposed window."""
    t = quiet_tensor(specs)
    res = t.solve(Truncation(1, 1, 5))
    for v in res.vectors:
        for j in range(-9, 10):
            got = t.act_gen(X(A1, j), v)
            target = t.lam_sum(A1, j)
            want = {m: target * c for m, c in v.items()} if target else {}
            want = {m: c for m, c in want.items() if c}
            assert got == want, (j, v)


def test_tensor_solve_row_bookkeeping():
    t = quiet_tensor(specs)
    res = t.solve(Truncation(1, 1, 3))
    assert res.basis_size == 64  # 8 monomials per factor
    assert res.condition_count == 7
    assert res.row_count == 376
    assert res.dimension == 5


def test_tensor_negative_scaled_scan():
    t = quiet_tensor(neg_specs)
    assert t.theta == 0
    dims = {J: t.solve(Truncation(1, 1, J)).dimension for J in (2, 3, 4)}
    assert dims == {2: 7, 3: 5, 4: 5}


def test_vacuum_only_truncation():
    t = quiet_tensor(specs)
    res = t.solve(Truncation(0, 0, 3))
    assert res.dimension == 1
    assert res.vectors[0] == {VAC2: F(1)}
    assert res.basis_size == 1


def test_mismatched_factors_rejected():
    d2, d3 = build_datum(2), build_datum(3)
    s2 = WhittakerSpec(d2, {A1: Geometric(2)}, theta=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s3 = WhittakerSpec(
            d3, {(1, 0): Geometric(2), (0, 1): Geometric(3)}, theta=1
        )
        with pytest.raises(ValueError, match="share the algebra"):
            TensorModule(s2, s3)
        loop = WhittakerSpec(
            d2, {A1: Geometric(2)}, theta=0, mode="loop_only"
        )
        with pytest.raises(ValueError, match="share mode"):
            TensorModule(s2, loop)


def test_tensor_wrapper():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a, b = specs()
        res = tensor_whittaker_solve(a, b, Truncation(1, 1, 2))
    assert res.dimension == 7


def test_tensor_memo_coefficients_are_int_when_integral():
    d = build_datum(2)
    left = WhittakerSpec(d, {A1: Geometric(F(5, 2))}, theta=F(1, 2))
    right = WhittakerSpec(d, {A1: Geometric(3)}, theta=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = TensorModule(left, right)
    res = t.solve(Truncation(1, 1, 2))
    coeffs = [
        c
        for module in (t.left, t.right)
        for out in module._cache.values()
        for c in out.values()
    ]
    assert any(type(c) is Fraction for c in coeffs)
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    assert res.vectors
    assert all(type(c) is Fraction for v in res.vectors for c in v.values())
