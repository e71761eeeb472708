"""Tensor products of induced modules under the diagonal action."""

import random
import warnings
from fractions import Fraction

import pytest

import oracles
from test_engine import straighten_spy
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
    linalg,
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
    # theta * kappa(X_a, X_-a) = 4/3 is not integral, so Fractions enter
    # through the cocycle; the loop rotation clears only the ratio's 2
    left = WhittakerSpec(d, {A1: Geometric(F(5, 2))}, theta=F(1, 3))
    right = WhittakerSpec(d, {A1: Geometric(3)}, theta=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = TensorModule(left, right)
    # every image as straightening yields it: the top-degree images never
    # enter the memo, and at D = 1 that leaves no nonzero image there
    with straighten_spy() as seen:
        res = t.solve(Truncation(1, 1, 2))
    coeffs = [c for _, _, _, _, out in seen for c in out.values()]
    assert any(type(c) is Fraction for c in coeffs)
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    assert res.vectors
    assert all(type(c) is Fraction for v in res.vectors for c in v.values())


# ---------------------------------------------------------------------------
# the Kronecker-sum row builder
# ---------------------------------------------------------------------------


def sl3_borel_pair():
    d = build_datum(3)
    return (
        WhittakerSpec(d, {(1, 0): Geometric(2), (0, 1): Geometric(3)}, theta=1),
        WhittakerSpec(d, {(1, 0): Geometric(5), (0, 1): Geometric(7)}, theta=2),
    )


def fractional_pair():
    """Non-integral theta and ratios on both factors: Fraction coefficients
    meet the unit coefficients of prepends in both straighteners."""
    d = build_datum(2)
    return (
        WhittakerSpec(d, {A1: Geometric(F(5, 2))}, theta=F(1, 3)),
        WhittakerSpec(d, {A1: Geometric(F(7, 3))}, theta=F(-5, 4)),
    )


def act_gen_rows(t, basis, root, j):
    """Rows of one condition from act_gen(g, {pair: 1}) minus the target."""
    target = t.lam_sum(root, j)
    rows = {}
    for col, pair in enumerate(basis):
        img = t.act_gen(X(root, j), {pair: 1})
        linalg.add_term(img, pair, -target)
        for out, c in img.items():
            rows.setdefault(out, {})[col] = c
    return rows


def dead_sets(rng, n):
    """Nonempty dead sets over n columns: about half, all but a few, one."""
    cols = range(n)
    few = set(rng.sample(cols, min(3, n - 1)))
    return [
        {c for c in cols if rng.random() < 0.5} or {0},
        set(cols) - few,
        {rng.randrange(n)},
    ]


@pytest.mark.parametrize(
    "make, trunc",
    [
        (specs, Truncation(1, 1, 4)),
        (specs, Truncation(2, 1, 3)),
        (sl3_borel_pair, Truncation(1, 1, 2)),
        (fractional_pair, Truncation(2, 1, 3)),
    ],
)
def test_kronecker_rows_equal_act_gen_rows(make, trunc):
    t = quiet_tensor(make)
    basis_a, basis_b = t.left.basis(trunc), t.right.basis(trunc)
    basis = [(ma, mb) for ma in basis_a for mb in basis_b]
    ids_a = [t.left._mid(m) for m in basis_a]
    ids_b = [t.right._mid(m) for m in basis_b]
    mono_a, mono_b = t.left.mono, t.right.mono
    rng = random.Random(33)
    cancelled = 0
    # act_gen acts on M(Lam) (x) M(Lam'), the rows are those of the rotation
    # by one s for both factors
    rot = oracles.rotation_factor(t.left.spec, t.right.spec)
    for root in t.left.condition_roots():
        for j in range(-trunc.J, trunc.J + 1):
            built, count = t.condition_rows(ids_a, ids_b, root, j, set())
            assert count == len(built)
            rows = {(mono_a(a), mono_b(b)): row for (a, b), row in built.items()}
            want = oracles.rotated_rows(
                act_gen_rows(t, basis, root, j), basis, j, rot, oracles.pair_degree
            )
            assert rows == want, (root, j)
            # dead columns: the oracle rows on the live columns, empty rows dropped
            for dead in dead_sets(rng, len(basis)):
                built, dead_count = t.condition_rows(ids_a, ids_b, root, j, dead)
                assert dead_count == count
                got = {(mono_a(a), mono_b(b)): row for (a, b), row in built.items()}
                live = {}
                for out, row in want.items():
                    kept = {col: c for col, c in row.items() if col not in dead}
                    if kept:
                        live[out] = kept
                assert got == live, (root, j, sorted(dead))
            # pairs whose diagonal s_a + s_b meets the target get no entry
            g, target = X(root, j), t.lam_sum(root, j)
            for col, (ma, mb) in enumerate(basis):
                s = t.left.lmul(g, ma).get(ma, 0) + t.right.lmul(g, mb).get(mb, 0)
                if s == target:
                    cancelled += 1
                    assert col not in rows.get((ma, mb), {})
    assert cancelled


def test_fractional_factor_images_equal_tuple_straightening():
    t = quiet_tensor(fractional_pair)
    trunc = Truncation(2, 1, 3)
    assert t.solve(trunc).vectors  # the memos fill through the row builder
    for module in (t.left, t.right):
        memo = {}
        for root in module.condition_roots():
            for j in range(-trunc.J, trunc.J + 1):
                g = X(root, j)
                for m in module.basis(trunc):
                    want = oracles.tuple_lmul(module.alg, module.spec, g, m, memo)
                    assert module.lmul(g, m) == want


def test_tensor_solve_does_not_call_act_gen():
    t = quiet_tensor(specs)

    def refuse(*args):
        raise AssertionError("act_gen called by the solver")

    t.act_gen = refuse
    assert t.solve(Truncation(1, 1, 3)).row_count == 376
