"""Straightening engine and exact Whittaker solvers."""

import gc
import random
import warnings
from fractions import Fraction

import pytest

from affwhit import (
    C,
    D,
    AffineElement,
    FinVector,
    FiniteSupport,
    Geometric,
    Recurrence,
    Truncation,
    VACUUM,
    WhittakerModule,
    WhittakerSpec,
    X,
    H,
    ZeroElement,
    build_datum,
    whittaker_solve,
)
from affwhit.engine import solve_conditions

F = Fraction

A1 = (1,)  # sl(2) simple root


def sl2_spec(**kw):
    return WhittakerSpec(build_datum(2), {A1: Geometric(2)}, theta=1, **kw)


def sl3_borel_spec():
    lam = {(1, 0): Geometric(2), (0, 1): Geometric(3)}
    return WhittakerSpec(build_datum(3), lam, theta=1)


def sl3_abelian_spec():
    lam = {(1, 0): Geometric(2), (1, 1): Geometric(3)}
    return WhittakerSpec(build_datum(3, {2}), lam, theta=1)


def loop_spec():
    return WhittakerSpec(
        build_datum(2), {A1: FiniteSupport({1: 1})}, theta=0, mode="loop_only"
    )


def const_spec():
    seq = Recurrence(FinVector({0: -1, 1: 1}), [1])
    return WhittakerSpec(build_datum(2), {A1: seq}, theta=1)


def quiet(factory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return factory()


def mono(*factors):
    out = []
    for g in factors:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return tuple(out)


def is_standard(module, m):
    keys = [module.gen_key(g) for g, _ in m]
    return (
        all(mult >= 1 for _, mult in m)
        and keys == sorted(keys)
        and len(set(keys)) == len(keys)
        and all(module.is_module_gen(g) for g, _ in m)
    )


# ---------------------------------------------------------------------------
# generator order
# ---------------------------------------------------------------------------


def test_gen_order_anchors():
    module = WhittakerModule(quiet(sl3_abelian_spec))
    a2, na2, nb = (0, 1), (0, -1), (-1, -1)
    # strata group: -(a1+a2) block below -a1 is empty here (abelian radical);
    # negative nilradical roots sit below everything Levi-or-zero
    assert module.gen_order(X(nb, 5), X(na2, -5)) == -1
    # inside a weight, t-exponent decides
    assert module.gen_order(X(nb, -1), X(nb, 0)) == -1
    # Cartan loops order by exponent then index
    assert module.gen_order(H(1, 0), H(2, 0)) == -1
    assert module.gen_order(H(2, -1), H(1, 0)) == -1
    # d sits above every weight-zero loop generator ...
    assert module.gen_order(H(1, 99), "d") == -1
    # ... and below the positive Levi-root generators
    assert module.gen_order("d", X(a2, -99)) == -1
    assert module.gen_order(X(na2, 99), H(1, -99)) == -1


def test_gen_order_rejects_nilradical_and_c():
    module = WhittakerModule(sl2_spec())
    with pytest.raises(ValueError):
        module.gen_key(X(A1, -2))  # in L(n) for the Borel
    with pytest.raises(ValueError):
        module.gen_key(C)
    assert module.is_module_gen(X((-1,), 7))
    assert not module.is_module_gen(X(A1, 7))
    assert not module.is_module_gen(C)


def test_generators_enumeration():
    module = WhittakerModule(sl2_spec())
    gens = module.generators(1)
    assert gens == [
        X((-1,), -1),
        X((-1,), 0),
        X((-1,), 1),
        H(1, -1),
        H(1, 0),
        H(1, 1),
        "d",
    ]
    loop = WhittakerModule(quiet(loop_spec))
    assert "d" not in loop.generators(2)


# ---------------------------------------------------------------------------
# action anchors
# ---------------------------------------------------------------------------


def test_cyclic_vector_conditions():
    for factory in (sl2_spec, sl3_borel_spec, sl3_abelian_spec, loop_spec):
        module = WhittakerModule(quiet(factory))
        spec = module.spec
        one = {VACUUM: F(1)}
        for root in module.condition_roots():
            for j in range(-10, 11):
                got = module.act_gen(X(root, j), one)
                target = spec.vacuum_scalar(root, j)
                assert got == ({VACUUM: target} if target else {}), (root, j)


def test_act_straightening_anchor():
    module = WhittakerModule(sl2_spec())
    # e t^1 . (f t^0 . 1) = f t^0 . (e t^1 . 1) + [e t^1, f t^0] . 1
    #                     = Lam(a)_1 f t^0 . 1 + h t^1 . 1
    got = module.act_gen(X(A1, 1), {mono(X((-1,), 0)): F(1)})
    assert got == {mono(X((-1,), 0)): F(2), mono(H(1, 1)): F(1)}


def test_act_central_term_through_theta():
    module = WhittakerModule(sl2_spec())
    # e t^2 . (f t^-2 . 1): bracket h t^0 + 8c, c acts by theta = 1
    got = module.act_gen(X(A1, 2), {mono(X((-1,), -2)): F(1)})
    expected = {
        mono(X((-1,), -2)): F(4),  # Lam(a)_2 = 4
        mono(H(1, 0)): F(1),
        VACUUM: F(8),  # 8 c . 1 = 8 theta
    }
    assert got == expected


def test_act_d_counts_exponents():
    module = WhittakerModule(sl2_spec())
    m = mono(X((-1,), -2), H(1, 1))
    got = module.act_gen(D, {m: F(1)})
    # d appends above the H block, and [d, -] contributes the total
    # t-exponent of the monomial: -2 + 1 = -1
    assert got == {m + (("d", 1),): F(1), m: F(-1)}


def test_d_does_not_act_in_loop_only_mode():
    """d is rejected on every monomial, the cyclic vector included."""
    module = WhittakerModule(quiet(loop_spec))
    for m in (VACUUM, mono(H(1, 0))):
        with pytest.raises(ValueError):
            module.act_gen(D, {m: F(1)})
    with pytest.raises(ValueError):
        module.act_gen(C, {VACUUM: F(1)})


def test_act_outputs_are_standard():
    rng = random.Random(314)
    for factory in (sl2_spec, sl3_abelian_spec):
        module = WhittakerModule(quiet(factory))
        gens = module.generators(2)
        pool = gens + [X(r, j) for r in module.spec.datum.phi_n for j in (-2, 0, 1)]
        for _ in range(120):
            m = mono(*sorted(
                (rng.choice(gens) for _ in range(rng.randint(0, 2))),
                key=module.gen_key,
            ))
            g = rng.choice(pool)
            for out in module.lmul(g, m):
                assert is_standard(module, out), (g, m, out)


def test_action_compatibility_property():
    """x.(y.v) - y.(x.v) == [x,y].v with c acting by theta, 500 pairs/preset."""
    rng = random.Random(2718)
    for factory in (sl2_spec, sl3_borel_spec, sl3_abelian_spec):
        module = WhittakerModule(quiet(factory))
        datum = module.spec.datum
        roots = sorted(datum.phi)
        gens = module.generators(2)

        def random_gen():
            r = rng.random()
            if r < 0.55:
                return X(rng.choice(roots), rng.randint(-3, 3))
            if r < 0.8:
                return H(rng.randint(1, datum.rank), rng.randint(-3, 3))
            return C if r < 0.9 else D

        def random_affine():
            terms = {}
            for _ in range(rng.randint(1, 2)):
                terms[random_gen()] = F(rng.randint(-3, 3), rng.randint(1, 2))
            return AffineElement({g: c for g, c in terms.items() if c})

        alg = module.alg
        for _ in range(500):
            x, y = random_affine(), random_affine()
            v = {
                mono(*sorted(
                    (rng.choice(gens) for _ in range(rng.randint(0, 2))),
                    key=module.gen_key,
                )): F(1)
            }
            lhs = module.act(x, module.act(y, v))
            for m, c in module.act(y, module.act(x, v)).items():
                s = lhs.get(m, F(0)) - c
                if s:
                    lhs[m] = s
                else:
                    lhs.pop(m, None)
            rhs = module.act(alg.bracket(x, y), v)
            assert lhs == rhs, (x, y, v)


# ---------------------------------------------------------------------------
# leading terms and bases
# ---------------------------------------------------------------------------


def test_leading_term_rules():
    module = WhittakerModule(sl2_spec())
    f0 = X((-1,), 0)
    fm1 = X((-1,), -1)
    # vacuum is maximal
    assert module.leading_term({VACUUM: F(1), mono(f0): F(1)}) == mono(f0)
    # smaller generator leads
    assert module.leading_term({mono(f0): F(1), mono(fm1): F(2)}) == mono(fm1)
    # a proper extension is smaller than its prefix
    assert (
        module.leading_term({mono(fm1): F(1), mono(fm1, f0): F(1)})
        == mono(fm1, f0)
    )
    # higher multiplicity of the least generator leads
    assert (
        module.leading_term({mono(fm1, fm1): F(1), mono(fm1, f0): F(1)})
        == mono(fm1, fm1)
    )
    # zero coefficients are ignored; all-zero raises
    assert module.leading_term({VACUUM: F(0), mono(f0): F(1)}) == mono(f0)
    with pytest.raises(ZeroElement):
        module.leading_term({mono(f0): F(0)})


def test_basis_counts():
    module = WhittakerModule(sl2_spec())
    basis = module.basis(Truncation(2, 2, 0))
    # 11 generators at E=2; 1 + 11 + C(12, 2) monomials
    assert len(basis) == 1 + 11 + 66
    assert basis[0] == VACUUM
    assert all(is_standard(module, m) for m in basis[1:])
    assert len(set(basis)) == len(basis)

    const = WhittakerModule(quiet(const_spec))
    assert len(const.basis(Truncation(1, 0, 0))) == 4  # 1, f, h, d at E=0


# ---------------------------------------------------------------------------
# solver: frozen dimensions and honest verification
# ---------------------------------------------------------------------------


def verify_in_full_module(module, vec, J_check):
    """Every Whittaker condition up to |j| <= J_check, via the action."""
    spec = module.spec
    for root in module.condition_roots():
        for j in range(-J_check, J_check + 1):
            got = module.act_gen(X(root, j), vec)
            target = spec.vacuum_scalar(root, j)
            want = {m: target * c for m, c in vec.items()} if target else {}
            want = {m: c for m, c in want.items() if c}
            if got != want:
                return False, (root, j)
    return True, None


SL2_SPURIOUS = {
    mono("d"): F(1),
    mono(H(1, -1)): F(-1),
    mono(H(1, -2)): F(-2),
    mono(H(1, 0)): F(-1, 2),
}


def test_sl2_dimensions_and_certificate():
    module = WhittakerModule(sl2_spec())
    dims = {}
    for D_, J_ in [(2, 3), (3, 3), (2, 4), (3, 4), (2, 5)]:
        dims[(D_, J_)] = module.solve(Truncation(D_, 2, J_)).dimension
    assert dims == {(2, 3): 3, (3, 3): 4, (2, 4): 1, (3, 4): 1, (2, 5): 1}

    res = module.solve(Truncation(2, 2, 4))
    assert res.unique and res.vectors[0] == {VACUUM: F(1)}

    # the J=3 kernel satisfies the imposed window but contains vectors
    # that die at |j| = 4; the degree-1 spurious vector is pinned
    res3 = module.solve(Truncation(2, 2, 3))
    assert any(v == SL2_SPURIOUS for v in res3.vectors)
    for v in res3.vectors:
        ok, _ = verify_in_full_module(module, v, 3)
        assert ok
    got = module.act_gen(X(A1, 4), SL2_SPURIOUS)
    residual = {
        m: c - Geometric(2).entry(4) * SL2_SPURIOUS.get(m, F(0))
        for m, c in got.items()
    }
    residual = {m: c for m, c in residual.items() if c}
    assert residual == {VACUUM: F(-16)}


def test_sl2_solve_row_bookkeeping():
    module = WhittakerModule(sl2_spec())
    res = module.solve(Truncation(2, 2, 3))
    assert res.basis_size == 78
    assert res.condition_count == 7
    assert res.row_count == 476
    assert not res.unique


def test_sl3_borel_dimensions():
    module = WhittakerModule(quiet(sl3_borel_spec))
    assert module.solve(Truncation(2, 1, 2)).dimension == 3
    res = module.solve(Truncation(2, 1, 3))
    assert res.dimension == 1
    assert res.vectors[0] == {VACUUM: F(1)}


# the Cartan coefficients make the first-root functional vanish
# identically (the H2 row is twice the H1 row), and the negative-Levi
# factors convert the second-root conditions into the cutoff identity
# for the two ratios, which cancels entrywise
SL3_ABELIAN_WITNESS = {
    mono(H(1, -1)): F(-3, 2),
    mono(H(1, 0)): F(1, 2),
    mono(H(2, -1)): F(-3),
    mono(H(2, 0)): F(1),
    mono(X((0, -1), -1)): F(-9, 2),
    mono(X((0, -1), 0)): F(9, 4),
}


def test_sl3_abelian_dimensions_and_genuine_witness():
    module = WhittakerModule(quiet(sl3_abelian_spec))
    assert module.solve(Truncation(2, 1, 2)).dimension == 34
    assert module.solve(Truncation(2, 1, 3)).dimension == 19

    # a degree-1 vector satisfying EVERY condition, far beyond any window:
    # the eigenvalue family admits dependent translates, and this vector
    # realizes the dependence inside the module
    ok, where = verify_in_full_module(module, SL3_ABELIAN_WITNESS, 12)
    assert ok, where

    # it is picked up by the solver's kernel: residual of the span test
    res = module.solve(Truncation(1, 1, 2))
    basis_index = {m: i for i, m in enumerate(res.basis)}
    assert all(m in basis_index for m in SL3_ABELIAN_WITNESS)
    # witness must lie in the span of the kernel: check by exact rank
    from affwhit import linalg

    rows = [
        {basis_index[m]: c for m, c in v.items()} for v in res.vectors
    ]
    aug = rows + [{basis_index[m]: c for m, c in SL3_ABELIAN_WITNESS.items()}]
    assert len(linalg.rref_pivots(aug)) == len(linalg.rref_pivots(rows))


def test_loop_only_dimensions():
    module = WhittakerModule(quiet(loop_spec))
    assert module.solve(Truncation(2, 2, 2)).dimension == 3
    res = module.solve(Truncation(2, 2, 3))
    assert res.dimension == 1
    assert res.vectors[0] == {VACUUM: F(1)}
    for v in res.vectors:
        assert verify_in_full_module(module, v, 8)[0]


def test_const_eigenvalue_dimension():
    module = WhittakerModule(quiet(const_spec))
    res = module.solve(Truncation(1, 0, 0))
    assert res.dimension == 2
    assert {VACUUM: F(1)} in res.vectors
    for v in res.vectors:
        assert verify_in_full_module(module, v, 0)[0]


def test_j_monotonicity():
    module = WhittakerModule(sl2_spec())
    dims = [module.solve(Truncation(2, 2, j)).dimension for j in range(6)]
    assert dims == sorted(dims, reverse=True)
    assert dims[3:] == [3, 1, 1]


def test_kernel_vectors_verified_by_action():
    """Solver output is re-checked through the module action alone."""
    for factory, trunc in [
        (sl2_spec, Truncation(2, 2, 3)),
        (sl3_borel_spec, Truncation(2, 1, 2)),
        (loop_spec, Truncation(2, 2, 2)),
    ]:
        module = WhittakerModule(quiet(factory))
        res = module.solve(trunc)
        for v in res.vectors:
            ok, where = verify_in_full_module(module, v, trunc.J)
            assert ok, where


def test_whittaker_solve_wrapper():
    res = whittaker_solve(sl2_spec(), Truncation(2, 2, 4))
    assert res.unique


def test_spec_validation():
    datum = build_datum(3)
    with pytest.raises(ValueError):
        WhittakerSpec(datum, {(1, 0): Geometric(2)}, theta=1)
    with pytest.raises(ValueError):
        WhittakerSpec(
            build_datum(2), {A1: Geometric(2)}, theta=1, mode="sideways"
        )
    with pytest.raises(ValueError):
        Truncation(-1, 0, 0)


def test_genericity_warnings_fire():
    with pytest.warns(UserWarning, match="not certified strongly generic"):
        sl3_borel_spec()
    with pytest.warns(UserWarning, match="not certified strongly generic"):
        const_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sl2_spec()  # single geometric: no warning


# ---------------------------------------------------------------------------
# coefficient types and the collector pause
# ---------------------------------------------------------------------------


def memo_coefficients(module):
    return [c for out in module._cache.values() for c in out.values()]


def assert_exact_coefficients(coeffs):
    """int when integral, else a Fraction with denominator != 1; never float."""
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_memo_coefficients_are_int_when_integral():
    fractional = WhittakerSpec(
        build_datum(2), {A1: Geometric(F(5, 2))}, theta=F(1, 2)
    )
    for spec in (sl2_spec(), fractional):
        module = WhittakerModule(spec)
        res = module.solve(Truncation(2, 2, 3))
        coeffs = memo_coefficients(module)
        assert_exact_coefficients(coeffs)
        assert any(type(c) is int for c in coeffs)
        assert all(type(c) is Fraction for v in res.vectors for c in v.values())
    assert any(type(c) is Fraction for c in coeffs)


def test_solve_pauses_and_restores_the_collector():
    module = WhittakerModule(sl2_spec())
    eigenvalue = module.spec.vacuum_scalar
    trunc = Truncation(1, 1, 1)
    seen = []

    def action(g, item):
        seen.append(gc.isenabled())
        return module.lmul(g, item)

    def failing(g, item):
        raise RuntimeError("action failed")

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert module.solve(trunc).dimension == 3
            assert gc.isenabled() is enabled
            basis = module.basis(trunc)
            res = solve_conditions(action, basis, [A1], eigenvalue, trunc)
            assert res.dimension == 3
            assert seen and not any(seen)
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="action failed"):
                solve_conditions(failing, basis, [A1], eigenvalue, trunc)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
