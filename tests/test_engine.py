"""Straightening engine and exact Whittaker solvers."""

import contextlib
import gc
import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from test_acceptance import act
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
    build_datum,
    linalg,
    whittaker_solve,
)
from affwhit import cli, engine, presets
from affwhit.affine import AffineAlgebra
from affwhit.engine import TensorModule, generator_key

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


def is_module_gen(module, g):
    """Whether generator_key places g in the order (c never, d only in
    affine mode) and g lies outside L(n)."""
    try:
        generator_key(module.spec.datum, g, module.spec.loop_only)
    except ValueError:
        return False
    return not module.alg.in_Ln(g)


def is_standard(module, m):
    keys = [module.gen_key(g) for g, _ in m]
    return (
        all(mult >= 1 for _, mult in m)
        and keys == sorted(keys)
        and len(set(keys)) == len(keys)
        and all(is_module_gen(module, g) for g, _ in m)
    )


# ---------------------------------------------------------------------------
# generator order
# ---------------------------------------------------------------------------


def test_gen_order_anchors():
    module = WhittakerModule(quiet(sl3_abelian_spec))
    a2, na2, nb = (0, 1), (0, -1), (-1, -1)

    def below(g1, g2):
        k1, k2 = module.gen_key(g1), module.gen_key(g2)
        datum = module.spec.datum
        assert (k1, k2) == (generator_key(datum, g1), generator_key(datum, g2))
        return k1 < k2

    # strata group: -(a1+a2) block below -a1 is empty here (abelian radical);
    # negative nilradical roots sit below everything Levi-or-zero
    assert below(X(nb, 5), X(na2, -5))
    # inside a weight, t-exponent decides
    assert below(X(nb, -1), X(nb, 0))
    # Cartan loops order by exponent then index
    assert below(H(1, 0), H(2, 0))
    assert below(H(2, -1), H(1, 0))
    # d sits above every weight-zero loop generator ...
    assert below(H(1, 99), "d")
    # ... and below the positive Levi-root generators
    assert below("d", X(a2, -99))
    assert below(X(na2, 99), H(1, -99))


def test_gen_order_rejects_nilradical_and_c():
    module = WhittakerModule(sl2_spec())
    with pytest.raises(ValueError):
        module.gen_key(X(A1, -2))  # in L(n) for the Borel
    with pytest.raises(ValueError):
        module.gen_key(C)
    assert is_module_gen(module, X((-1,), 7))
    assert module.alg.in_Ln(X(A1, 7)) and not is_module_gen(module, X(A1, 7))
    assert not is_module_gen(module, C)
    assert is_module_gen(module, D)
    assert not is_module_gen(WhittakerModule(loop_spec()), D)


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
            lhs = act(module, x, act(module, y, v))
            for m, c in act(module, y, act(module, x, v)).items():
                s = lhs.get(m, F(0)) - c
                if s:
                    lhs[m] = s
                else:
                    lhs.pop(m, None)
            rhs = act(module, alg.bracket(x, y), v)
            assert lhs == rhs, (x, y, v)


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


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


def preset_module(name):
    cfg = presets.get_preset(name)
    return quiet(lambda: WhittakerModule(cli.build_spec(cfg))), Truncation(**cfg["truncation"])


@pytest.mark.parametrize("name", presets.MODULE_PRESETS)
def test_basis_equals_the_oracle_and_its_ids_name_it(name):
    module, _ = preset_module(name)
    spec = module.spec
    for D in range(4):
        for E in range(3):
            trunc = Truncation(D, E, 0)
            want = oracles.basis_monomials(spec.datum, D, E, spec.loop_only)
            assert module.basis(trunc) == want
            system = module.condition_system(trunc)
            (ids,) = system.ids
            assert system.basis == want and len(ids) == len(want)
            for i, mid in enumerate(ids):
                assert module._mid(want[i]) == mid
                assert module.mono(mid) == want[i]
    assert_tables_consistent(module)


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
    assert res.dimension == 1 and res.vectors[0] == {VACUUM: F(1)}

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
    assert res.dimension != 1


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
    assert res.dimension == 1


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
    for theta in (0.1, 0.5, True):
        with pytest.raises(TypeError):
            WhittakerSpec(build_datum(2), {A1: Geometric(2)}, theta=theta)
    for theta, want in ((1, F(1)), (F(1, 10), F(1, 10)), ("-2/3", F(-2, 3))):
        spec = WhittakerSpec(build_datum(2), {A1: Geometric(2)}, theta=theta)
        assert spec.theta == want and type(spec.theta) is Fraction
    for bounds in ((True, 1, 1), (1, 1.5, 1), (1, 1, 2.0), (1, "1", 1)):
        with pytest.raises(ValueError, match="must be an int"):
            Truncation(*bounds)


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
    return [c for memo in module._memo for out in memo.values() for c in out.values()]


def assert_exact_coefficients(coeffs):
    """int when integral, else a Fraction with denominator != 1; never float."""
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_memo_coefficients_are_int_when_integral():
    fractional = WhittakerSpec(
        build_datum(2), {A1: Geometric(F(5, 2))}, theta=F(1, 2)
    )
    lam = {(1, 0): Geometric(F(5, 2)), (0, 1): Geometric(F(7, 3))}
    sl3 = quiet(lambda: WhittakerSpec(build_datum(3), lam, theta=F(3, 2)))
    # at (3, 1, 3) sums and products of Fractions come out integral, on the
    # lambda part of a bracket and on its terms too
    for trunc, specs in ((Truncation(2, 2, 3), (sl2_spec(), fractional)),
                         (Truncation(3, 1, 3), (sl2_spec(), sl3, fractional))):
        for spec in specs:
            module = WhittakerModule(spec)
            with straighten_spy() as seen:  # the top-degree images too
                res = module.solve(trunc)
            coeffs = memo_coefficients(module)
            assert_exact_coefficients(coeffs)
            assert_exact_coefficients(c for *_, img in seen for c in img.values())
            assert any(type(c) is int for c in coeffs)
            assert all(type(c) is Fraction for v in res.vectors for c in v.values())
        assert any(type(c) is Fraction for c in coeffs)


def sl2_tensor():
    spec_b = WhittakerSpec(build_datum(2), {A1: Geometric(3)}, theta=2)
    return quiet(lambda: TensorModule(sl2_spec(), spec_b))


# the shared solve on a module and on a tensor product, with the dimension
# each has at D = E = J = 1
SOLVERS = ((lambda: WhittakerModule(sl2_spec()), 3), (sl2_tensor, 11))


def test_solve_pauses_and_restores_the_collector():
    trunc = Truncation(1, 1, 1)
    was_enabled = gc.isenabled()
    try:
        for make, dimension in SOLVERS:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                assert make().solve(trunc).dimension == dimension
                assert gc.isenabled() is enabled
                module, seen = make(), []
                build = module.condition_rows

                def recording(*args):
                    seen.append(gc.isenabled())
                    return build(*args)

                def failing(*args):
                    raise RuntimeError("row builder failed")

                module.condition_rows = recording  # shadows the method
                assert module.solve(trunc).dimension == dimension
                assert seen and not any(seen)
                assert gc.isenabled() is enabled
                module = make()
                module.condition_rows = failing
                with pytest.raises(RuntimeError, match="row builder failed"):
                    module.solve(trunc)
                assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_failed_extension_drops_the_held_system():
    """A builder raising partway through a J extension leaves the module
    to rebuild: nothing fed before the raise is counted twice."""
    wide = Truncation(1, 1, 3)
    was_enabled = gc.isenabled()
    try:
        for make, _ in SOLVERS:
            fresh = make().solve(wide)
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                module = make()
                module.solve(Truncation(1, 1, 1))
                build, fed = module.condition_rows, []

                def flaky(*args):
                    if fed:  # the first new condition is fed, the second raises
                        raise RuntimeError("row builder failed")
                    fed.append(args[-2])  # j; the last argument is the dead set
                    return build(*args)

                module.condition_rows = flaky  # shadows the method
                with pytest.raises(RuntimeError, match="row builder failed"):
                    module.solve(wide)
                del module.condition_rows
                assert fed == [-3]
                assert gc.isenabled() is enabled
                assert module._held is None
                res = module.solve(wide)
                assert (res.condition_count, res.row_count) == (
                    fresh.condition_count,
                    fresh.row_count,
                )
                assert res.vectors == fresh.vectors
                assert module._held is not None and module._held.J == 3
    finally:
        gc.enable() if was_enabled else gc.disable()


# ---------------------------------------------------------------------------
# hash-consing: the id tables and the public lmul against a tuple oracle
# ---------------------------------------------------------------------------


def sl2_fractional_spec():
    return WhittakerSpec(build_datum(2), {A1: Geometric(F(5, 2))}, theta=F(3, 2))


def sl3_borel_fractional_spec():
    """theta and both geometric ratios non-integral, so straightening
    multiplies Fraction coefficients by the unit coefficient of a prepend."""
    lam = {(1, 0): Geometric(F(3, 2)), (0, 1): Geometric(F(7, 3))}
    return WhittakerSpec(build_datum(3), lam, theta=F(7, 4))


# module, truncation (D, E, J) whose condition generators and basis are checked
INTERNED = {
    "sl2": (sl2_fractional_spec, Truncation(4, 2, 4)),
    "sl2-loop": (loop_spec, Truncation(4, 2, 4)),
    "sl3-borel": (sl3_borel_spec, Truncation(3, 1, 3)),
    "sl3-borel-fractional": (sl3_borel_fractional_spec, Truncation(3, 1, 3)),
    "sl3-abelian": (sl3_abelian_spec, Truncation(2, 1, 3)),
}


def assert_tables_consistent(module, rejected=()):
    """Each call in ``rejected`` raises ValueError and interns nothing;
    then: ``_prep[g][rest] == mid`` exactly when ``_split[mid]`` is (g,
    mult, rest), every split rebuilds a distinct standard monomial, which
    ``mono`` returns, and every prepend is in standard order."""
    for call in rejected:
        sizes = len(module._split), len(module._gens)
        with pytest.raises(ValueError):
            call()
        assert (len(module._split), len(module._gens)) == sizes
    split, gens = module._split, module._gens
    assert split[0] is None and module.mono(0) == VACUUM
    assert all(module._gen_ids[g] == gid for gid, g in enumerate(gens))
    # the prepend tables hold one entry per split and nothing else
    assert len(module._prep) == len(gens)
    assert sum(len(prep) for prep in module._prep) == len(split) - 1
    key = module.gen_key
    monos = [VACUUM]
    for mid in range(1, len(split)):
        head, mult, rest = split[mid]
        assert module._prep[head][rest] == mid and rest < mid
        tail = monos[rest]
        assert not module._gen_info[head][0]  # a module generator
        if mult > 1:
            assert tail[0] == (gens[head], mult - 1)
            tail = tail[1:]
        else:  # gen_key(g) below the key of the head of rest
            assert not tail or key(gens[head]) < key(tail[0][0])
        monos.append(((gens[head], mult),) + tail)
    assert len(set(monos)) == len(monos)
    assert all(module.mono(mid) == m for mid, m in enumerate(monos))
    # one memo, bracket and prepend table per generator, on known ids only
    assert len(module._memo) == len(module._brackets) == len(gens)
    for memo in module._memo:
        for mid, out in memo.items():
            assert 0 <= mid < len(monos)
            assert all(0 <= m < len(monos) for m in out)
    for brackets in module._brackets:
        for head, (_, terms) in brackets.items():
            assert 0 <= head < len(gens)
            assert all(0 <= h < len(gens) for h, _ in terms)


@pytest.mark.parametrize("name", sorted(INTERNED))
def test_lmul_equals_tuple_straightening(name):
    factory, trunc = INTERNED[name]
    module = WhittakerModule(quiet(factory))
    basis = module.basis(trunc)
    assert [module.mono(module._mid(m)) for m in basis] == basis
    memo = {}
    for root in module.condition_roots():
        for j in range(-trunc.J, trunc.J + 1):
            g = X(root, j)
            for m in basis:
                got = module.lmul(g, m)
                assert got == oracles.tuple_lmul(module.alg, module.spec, g, m, memo)
                assert all(c for c in got.values())
    assert_tables_consistent(module)


def tuple_rows(module, basis, root, j, memo):
    """Rows of one condition from the tuple straightener: Lam(root)_j comes
    off each column's own monomial, and zero entries are dropped."""
    g, target = X(root, j), module.spec.vacuum_scalar(root, j)
    rows = {}
    for col, m in enumerate(basis):
        img = dict(oracles.tuple_lmul(module.alg, module.spec, g, m, memo))
        img[m] = img.get(m, 0) - target
        for out, c in img.items():
            if c:
                rows.setdefault(out, {})[col] = c
    return rows


@pytest.mark.parametrize("name", sorted(INTERNED))
def test_condition_rows_equal_tuple_straightening_rows(name):
    factory, trunc = INTERNED[name]
    module = WhittakerModule(quiet(factory))
    basis = module.basis(trunc)
    ids = [module._mid(m) for m in basis]
    memo = {}
    cancelled = 0
    for root in module.condition_roots():
        for j in range(-trunc.J, trunc.J + 1):
            built, count = module.condition_rows(ids, root, j, set())
            assert count == len(built)
            rows = {module.mono(out): row for out, row in built.items()}
            assert rows == tuple_rows(module, basis, root, j, memo), (root, j)
            # a column whose diagonal meets Lam(root)_j gets no entry there
            target = module.spec.vacuum_scalar(root, j)
            for col, m in enumerate(basis):
                want = oracles.tuple_lmul(module.alg, module.spec, X(root, j), m, memo)
                if target and want.get(m, 0) == target:
                    cancelled += 1
                    assert col not in rows.get(m, {})
    assert cancelled


@pytest.mark.parametrize("factory", [f for f, _ in INTERNED.values()] + [const_spec],
                         ids=list(INTERNED) + ["sl2-const"])
def test_shifted_image_has_no_term_on_its_monomial(factory):
    # the two parts of a tensor row, from the factors' condition rows, never
    # share a column, on the weight argument of the engine docstring
    module = WhittakerModule(quiet(factory))
    ids = [module._mid(m) for m in module.basis(Truncation(2, 2, 3))]
    for root in module.condition_roots():
        for j in range(-3, 4):
            g = module._gid(X(root, j))
            for m, img in zip(ids, engine._straighten(module._tables, g, ids, len(ids))):
                assert m not in img, (root, j, module.mono(m))

LIVE_ONLY = {
    **{
        name: ((lambda f=factory: WhittakerModule(f())), trunc)
        for name, (factory, trunc) in INTERNED.items()
    },
    "tensor-sl2": (sl2_tensor, Truncation(2, 1, 3)),
    "tensor-sl3-borel": (
        lambda: TensorModule(sl3_borel_spec(), sl3_borel_fractional_spec()),
        Truncation(1, 1, 2),
    ),
}


def dead_after_first_condition(module, trunc):
    """The pruner's dead set when a solve at trunc builds its second condition."""
    dead_sets = []
    build = module.condition_rows

    def recording(*args):
        dead_sets.append(set(args[-1]))
        return build(*args)

    module.condition_rows = recording  # shadows the method
    module.solve(trunc)
    del module.condition_rows
    return dead_sets[1]


def live_part(rows, dead):
    """rows without the entries of dead columns, rows left empty dropped."""
    out = {}
    for key, row in rows.items():
        live = {c: v for c, v in row.items() if c not in dead}
        if live:
            out[key] = live
    return out


@pytest.mark.parametrize("name", sorted(LIVE_ONLY))
def test_condition_rows_leave_out_dead_columns_and_count_them(name):
    make, trunc = LIVE_ONLY[name]
    module = quiet(make)
    dead = dead_after_first_condition(module, trunc)
    assert dead
    ids = module._held.ids
    dropped = 0
    for root in module.condition_roots():
        for j in range(-trunc.J, trunc.J + 1):
            full, full_count = module.condition_rows(*ids, root, j, set())
            rows, count = module.condition_rows(*ids, root, j, dead)
            assert count == full_count == len(full), (root, j)
            assert rows == live_part(full, dead), (root, j)
            dropped += len(full) - len(rows)
    assert dropped


def tuple_tensor_rows(t, basis_a, basis_b, root, j, memos):
    """Rows of one tensor condition from the tuple straightener on each
    factor: g.ma (x) mb + ma (x) g.mb, (Lam + Lam')(root)_j off the pair
    itself, zero entries dropped; and the number of rows that take terms
    of both factors."""
    g = X(root, j)
    left, right = t.left, t.right
    target = left.spec.vacuum_scalar(root, j) + right.spec.vacuum_scalar(root, j)
    rows, from_a, from_b = {}, set(), set()
    col = 0
    for ma in basis_a:
        img_a = oracles.tuple_lmul(left.alg, left.spec, g, ma, memos[0])
        for mb in basis_b:
            img_b = oracles.tuple_lmul(right.alg, right.spec, g, mb, memos[1])
            img = {(m, mb): c for m, c in img_a.items()}
            for m, c in img_b.items():
                img[ma, m] = img.get((ma, m), 0) + c
            img[ma, mb] = img.get((ma, mb), 0) - target
            for out, c in img.items():
                if c:
                    rows.setdefault(out, {})[col] = c
                    (from_a if out[1] == mb else from_b).add(out)
            col += 1
    return rows, len(from_a & from_b)


@pytest.mark.parametrize("name", ["tensor-sl2", "tensor-sl3-borel"])
def test_tensor_condition_rows_equal_tuple_straightening_rows(name):
    make, trunc = LIVE_ONLY[name]
    t = quiet(make)
    system = t.condition_system(trunc)
    basis_a, basis_b = t.left.basis(trunc), t.right.basis(trunc)
    memos, both = ({}, {}), 0
    for root in t.condition_roots():
        for j in range(-trunc.J, trunc.J + 1):
            built, count = t.condition_rows(*system.ids, root, j, set())
            rows = {
                (t.left.mono(a), t.right.mono(b)): row for (a, b), row in built.items()
            }
            want, merged = tuple_tensor_rows(t, basis_a, basis_b, root, j, memos)
            assert rows == want, (root, j)
            assert count == len(want), (root, j)
            both += merged
    # rows with terms of both factors occur, so the count's overlap term is used
    assert both


def test_no_row_reaches_the_pruner_with_a_column_dead_before_its_condition(
    monkeypatch,
):
    extend = linalg.SingletonPruner.extend
    fed = []  # per condition: (columns dead at its start, rows touching one)

    def checked(pruner, rows):
        rows = list(rows)
        dead = set(pruner.dead)
        fed.append((len(dead), sum(1 for row in rows if dead & row.keys())))
        extend(pruner, rows)

    monkeypatch.setattr(linalg.SingletonPruner, "extend", checked)
    result = WhittakerModule(sl2_spec()).solve(Truncation(4, 2, 4))
    assert len(fed) == result.condition_count
    assert all(dead for dead, _ in fed[1:])
    assert not any(touching for _, touching in fed)


def test_lmul_returns_a_fresh_dict():
    module = WhittakerModule(sl2_spec())
    m = mono(X((-1,), 0), H(1, 1))
    first = module.lmul(X(A1, 1), m)
    want = dict(first)
    first.clear()
    first[VACUUM] = F(7)
    assert module.lmul(X(A1, 1), m) == want


def test_rejected_generator_is_not_interned():
    module = WhittakerModule(quiet(loop_spec))
    assert_tables_consistent(
        module, [lambda m=m: module.lmul(D, m) for m in (VACUUM, mono(H(1, 0)))]
    )
    assert D not in module._gen_ids


# monomials from outside that are not standard; lmul must refuse them whole
NONSTANDARD = {
    "factor-in-Ln": (H(1, 0), ((X(A1, 0), 1),)),
    "multiplicity-0": (D, ((H(1, 0), 0),)),
    "out-of-order": (H(1, 0), ((H(1, 0), 1), (X((-1,), 0), 1))),
}


@pytest.mark.parametrize("name", sorted(NONSTANDARD))
def test_lmul_rejects_a_nonstandard_monomial(name):
    g, bad = NONSTANDARD[name]
    module = WhittakerModule(sl2_spec())
    good = mono(X((-1,), 0), H(1, 1))
    want = module.lmul(g, good)
    # no tail of it is interned
    assert_tables_consistent(module, [lambda: module.lmul(g, bad)])
    assert bad not in {module.mono(mid) for mid in range(len(module._split))}
    assert module.lmul(g, good) == want


def test_lmul_rejects_what_is_no_generator():
    module = WhittakerModule(sl2_spec())
    for g in (("Z", 1, 0), H(7, 0), X((3,), 0)):
        with pytest.raises(ValueError):
            module.lmul(g, VACUUM)
    assert module._gens == [C]
    assert_tables_consistent(module)


@pytest.mark.parametrize(
    "g",
    [("H", 1, "x"), ("H", 1, True), ("X", (-1,), 1.5), ("X", (1,), 1.5), ("H", True, 0)],
)
def test_lmul_rejects_a_generator_with_a_non_int_index_or_exponent(g):
    # each used to give a one-factor monomial, or an AttributeError for
    # X_a t^1.5, which lies in L(n) and so acts by a Lam entry
    module = WhittakerModule(sl2_spec())
    with pytest.raises(ValueError):
        module.lmul(g, VACUUM)
    assert module._gens == [C]
    assert_tables_consistent(module)


def test_lmul_refuses_a_root_given_as_a_list():
    # a list is unhashable: the generator table lookup used to raise TypeError
    module = WhittakerModule(sl2_spec())
    with pytest.raises(ValueError):
        module.lmul(("X", [1], 0), VACUUM)
    assert module._gens == [C]
    assert_tables_consistent(module)


def test_lmul_refuses_a_root_with_a_bool_entry():
    # (True,) == (1,), so a membership test alone took it for the root (1,)
    module = WhittakerModule(sl2_spec())
    with pytest.raises(ValueError):
        module.lmul(("X", (True,), 0), VACUUM)
    module.lmul(X(A1, 0), VACUUM)
    with pytest.raises(ValueError):
        module.lmul(("X", (True,), 0), VACUUM)
    assert all(type(x) is int for g in module._gens[1:] for x in g[1])
    assert_tables_consistent(module)


def test_lmul_refuses_a_bool_exponent_once_its_int_twin_is_interned():
    # ("H", 1, True) == ("H", 1, 1): a table hit used to skip validation
    module = WhittakerModule(sl2_spec())
    want = module.lmul(H(1, 1), VACUUM)
    with pytest.raises(ValueError):
        module.lmul(("H", 1, True), VACUUM)
    assert module.lmul(H(1, 1), VACUUM) == want
    assert_tables_consistent(module)


def test_mid_rejects_malformed_factors():
    module = WhittakerModule(sl2_spec())
    for bad in (
        [(H(1, 0), 1)],  # a list, not a tuple
        ((H(1, 0), 1, 0),),  # not a pair
        ((H(1, 0), True),),  # bool is not an int multiplicity
        ((H(1, 0), 2), (H(1, 0), 1)),  # a repeated factor
        ((C, 1),),  # c is not a module generator
        ((("H", 5, 0), 1),),  # Cartan index out of range
    ):
        assert_tables_consistent(module, [lambda: module._mid(bad)])
    assert len(module._split) == 1 and len(module._gens) == 1


def test_mid_refuses_invalid_twins_of_interned_monomials():
    # every tuple from outside is checked on every call, so an equal but
    # invalid twin of an interned monomial is refused, and so is one whose
    # factors are the interned ones out of order
    module = WhittakerModule(sl2_spec())
    good = mono(X((-1,), 0), H(1, 1))
    mid = module._mid(good)
    twins = [
        ((X((-1,), 0), 1), (H(1, 1), True)),  # bool multiplicity
        ((X((-1,), 0), 1), (("H", 1, True), 1)),  # bool exponent
        ((X((-1,), 0), True), (H(1, 1), 1)),
        ((H(1, 1), 1), (X((-1,), 0), 1)),  # out of order
    ]
    assert twins[0] == twins[1] == twins[2] == good
    assert_tables_consistent(module, [lambda t=t: module._mid(t) for t in twins])
    assert module._mid(good) == mid


def prepended(g, m):
    """The monomial tuple of g prepended to m, g <= the head of m."""
    if m and m[0][0] == g:
        return ((g, m[0][1] + 1),) + m[1:]
    return ((g, 1),) + m


@contextlib.contextmanager
def straighten_spy():
    """Route every ``engine._straighten`` call, the row builders', the
    public entries' and the recursion's, through a spy; yields the list
    that gets (tables, gid, mid, whether the memo lacked the image when
    asked, image) for every image, once the image is computed."""
    kernel, seen = engine._straighten, []

    def spy(t, g, mids, top=1):
        images = kernel(t, g, mids, top)
        for m in mids:
            missed = m not in t[0][g]
            img = next(images)
            seen.append((t, g, m, missed, img))
            yield img

    engine._straighten = spy
    try:
        yield seen
    finally:
        engine._straighten = kernel


def straightening_calls(module, g, m):
    """(module.lmul(g, m), the (gid, mid) of every image it asked the
    straightener for, recursion included)."""
    with straighten_spy() as seen:
        got = module.lmul(g, m)
    return got, [(gid, mid) for t, gid, mid, _, _ in seen if t is module._tables]


def prep_entries(module):
    """Every recorded prepend of ``module`` as (gid, rest mid)."""
    return {(gid, rest) for gid, prep in enumerate(module._prep) for rest in prep}


def prepend_calls(module, calls):
    """The calls among ``calls`` whose generator prepends to the monomial."""
    out = []
    for gid, mid in calls:
        in_ln, gk = module._gen_info[gid]
        if not gid or in_ln:
            continue
        if not mid or gk <= module._gen_info[module._split[mid][0]][1]:
            out.append((module._gens[gid], module.mono(mid)))
    return out


@pytest.mark.parametrize("g, m", [
    (X(A1, 1), mono(X((-1,), 0), X((-1,), 0), H(1, 1))),
    (X(A1, 2), mono(X((-1,), -1), H(1, 0), H(1, 1), D)),
    (X(A1, 2), mono(X((-1,), 1), X((-1,), 1), H(1, 0))),
])
def test_prepend_fast_path_equals_tuple_straightening(g, m):
    # on a fresh module some straightening steps are first-time prepends,
    # each recorded in _prep (in place when the head prepends, else by a
    # call) and taking no memo entry; once their results are interned
    # they are read from _prep, with Fraction coefficients c2, and make
    # no call
    fresh = WhittakerModule(quiet(sl2_fractional_spec))
    fresh._mid(m)
    before = prep_entries(fresh)
    want, _ = straightening_calls(fresh, g, m)
    prepends = [
        (fresh._gens[gid], fresh.mono(rest))
        for gid, rest in prep_entries(fresh) - before
    ]
    assert prepends
    assert want == oracles.tuple_lmul(fresh.alg, fresh.spec, g, m, {})
    module = WhittakerModule(quiet(sl2_fractional_spec))
    for h, rest in prepends:
        module._mid(prepended(h, rest))
    module._mid(m)
    before = prep_entries(module)
    got, calls = straightening_calls(module, g, m)
    assert got == want
    assert any(type(c) is Fraction for c in got.values())
    assert prep_entries(module) == before
    skipped = set(prepends) - set(prepend_calls(module, calls))
    assert skipped
    for h, rest in skipped:
        assert module._mid(rest) not in module._memo[module._gid(h)]
    assert_tables_consistent(module)


# ---------------------------------------------------------------------------
# memo retention: a solve keeps only the images a later step reads
# ---------------------------------------------------------------------------

def factors(module):
    """The modules whose memos a solve on ``module`` fills."""
    return (module.left, module.right) if isinstance(module, TensorModule) else (module,)


def top_degree(factor, trunc):
    """The basis monomials of degree D, from their tuples."""
    return [m for m in factor.basis(trunc) if sum(k for _, k in m) == trunc.D]


def spied_solve(module, trunc):
    """(solve(trunc), every image the solve asked the straightener for as
    (factor index, gid, mid, whether the memo lacked the image when
    asked))."""
    index = {id(factor._tables): k for k, factor in enumerate(factors(module))}
    with straighten_spy() as seen:
        result = module.solve(trunc)
    return result, [(index[id(t)], gid, mid, missed) for t, gid, mid, missed, _ in seen]


@pytest.mark.parametrize("name", sorted(LIVE_ONLY))
def test_solve_leaves_no_top_degree_image_and_no_prepend_in_the_memo(name):
    make, trunc = LIVE_ONLY[name]
    module = quiet(make)
    module.solve(trunc)
    for factor in factors(module):
        top = {factor._mid(m) for m in top_degree(factor, trunc)}
        assert top
        assert all(not top & memo.keys() for memo in factor._memo)
        # a prepend is recorded in _prep and nowhere else
        assert sum(map(len, factor._prep)) > len(factor.basis(trunc))
        for gid, memo in enumerate(factor._memo):
            prep = factor._prep[gid]
            for mid, out in memo.items():
                assert out != {prep.get(mid): 1}, (factor._gens[gid], factor.mono(mid))
        if trunc.D > 1:
            assert any(factor._memo)
        else:  # below the top degree lies only the cyclic vector, whose images are zero
            assert not any(factor._memo)


@pytest.mark.parametrize("name", sorted(LIVE_ONLY))
def test_solve_straightens_each_image_once_and_each_top_column_once_per_condition(
    name,
):
    make, trunc = LIVE_ONLY[name]
    module = quiet(make)
    _, calls = spied_solve(module, trunc)
    computed = [(k, gid, mid) for k, gid, mid, missed in calls if missed]
    assert computed and len(computed) == len(set(computed))
    js = range(-trunc.J, trunc.J + 1)
    for k, factor in enumerate(factors(module)):
        top = {factor._mid(m) for m in top_degree(factor, trunc)}
        conditions = {factor._gid(X(root, j)) for root in module.condition_roots() for j in js}
        passed = Counter((gid, mid) for kk, gid, mid, _ in calls if kk == k and mid in top)
        assert passed == {(g, m): 1 for g in conditions for m in top}


@pytest.mark.parametrize("name", sorted(LIVE_ONLY))
def test_lmul_after_a_solve_recomputes_top_degree_images(name):
    make, trunc = LIVE_ONLY[name]
    module = quiet(make)
    module.solve(trunc)
    for factor in factors(module):
        tops = top_degree(factor, trunc)
        memo = {}
        for root in module.condition_roots():
            for j in (-trunc.J, 0, trunc.J):
                g = X(root, j)
                for m in tops[:: max(1, len(tops) // 12)]:
                    want = oracles.tuple_lmul(factor.alg, factor.spec, g, m, memo)
                    assert factor.lmul(g, m) == want, (g, m)


@pytest.mark.parametrize("name", sorted(LIVE_ONLY))
def test_solves_on_one_module_equal_fresh_solves(name):
    # (D, E, J), then D + 1 (rebuilt: the old top degree straightened
    # again), then J + 1 at the old D (rebuilt on a warm memo)
    make, _ = LIVE_ONLY[name]
    D = 1 if name.startswith("tensor") else 3
    module = quiet(make)
    for trunc in (Truncation(D, 1, D + 1), Truncation(D + 1, 1, D + 1),
                  Truncation(D, 1, D + 2)):
        got, want = module.solve(trunc), quiet(make).solve(trunc)
        assert got.vectors == want.vectors and got.basis == want.basis, trunc
        assert (got.row_count, got.condition_count) == (want.row_count, want.condition_count)


def recorded_solve(module, trunc):
    """(solve(trunc), each condition's (rows, count), rows keyed by monomial
    tuples: the ids of two modules differ with the order they meet them)."""
    build, rows = module.condition_rows, []
    if isinstance(module, TensorModule):
        def named(out):
            return module.left.mono(out[0]), module.right.mono(out[1])
    else:
        named = module.mono

    def recording(*args):
        built, count = build(*args)
        rows.append(({named(out): dict(row) for out, row in built.items()}, count))
        return built, count

    module.condition_rows = recording  # shadows the method
    try:
        return module.solve(trunc), rows
    finally:
        del module.condition_rows


def memo_contents(factor):
    """The memo as {(generator, monomial): {monomial: (type, coeff)}}."""
    mono = factor.mono
    return {
        (factor._gens[g], mono(m)): {mono(k): (type(c), c) for k, c in img.items()}
        for g, memo in enumerate(factor._memo) for m, img in memo.items()
    }


@pytest.mark.parametrize("name", sorted(LIVE_ONLY))
def test_a_memo_warmed_by_lmul_changes_nothing_in_a_solve(name):
    make, trunc = LIVE_ONLY[name]
    fresh, warm = quiet(make), quiet(make)
    rng = random.Random(name)
    js = range(-trunc.J, trunc.J + 1)
    filled = []
    for k, factor in enumerate(factors(warm)):
        basis = factor.basis(trunc)
        pairs = [(X(root, j), m) for root in warm.condition_roots() for j in js
                 for m in basis]
        filled += [(k, g, m) for g, m in rng.sample(pairs, len(pairs) // 3)]
    rng.shuffle(filled)
    for k, g, m in filled:
        factors(warm)[k].lmul(g, m)
    # the top-degree images lmul left in the memo, per factor
    warmed = []
    for k, factor in enumerate(factors(warm)):
        top = set(top_degree(factor, trunc))
        ids = {(factor._gid(g), factor._mid(m)) for kk, g, m in filled if kk == k and m in top}
        warmed.append({(gid, mid): factor._memo[gid][mid] for gid, mid in ids})
        assert warmed[k]
    want, want_rows = recorded_solve(fresh, trunc)
    with straighten_spy() as seen:
        got, got_rows = recorded_solve(warm, trunc)
    assert got_rows == want_rows
    assert (got.row_count, got.condition_count) == (want.row_count, want.condition_count)
    assert got.vectors == want.vectors and got.basis == want.basis
    for a, b, images in zip(factors(warm), factors(fresh), warmed):
        assert memo_contents(a) == memo_contents(b)
        # each is read, not straightened again, and then dropped
        read = {(gid, mid) for t, gid, mid, _, img in seen
                if t is a._tables and img is images.get((gid, mid))}
        assert read == images.keys()
        assert not any(mid in a._memo[gid] for gid, mid in images)


# ---------------------------------------------------------------------------
# cold-solve set-up: one basis enumeration, one bracket call per table entry
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def call_spy(monkeypatch, owner, name):
    """Count the calls of the method ``owner.name`` by their arguments, the
    instance first, while the block runs."""
    calls, fn = Counter(), getattr(owner, name)

    def spy(*args):
        calls[args] += 1
        return fn(*args)

    with monkeypatch.context() as m:
        m.setattr(owner, name, spy)
        yield calls


def expected_bracket(module, a, b):
    """[a, b] as the bracket table should hold it: (the sum of c.lambda(h)
    over its terms, normalized, and its (gid, c) pairs bar c), recomputed
    from ``alg.bracket_gens`` and the spec."""
    spec, lam, terms = module.spec, Fraction(0), []
    for h, c in module.alg.bracket_gens(a, b).items():
        if h == "c":
            lam += c * spec.theta
        else:
            if module.alg.in_Ln(h):
                lam += c * spec.vacuum_scalar(h[1], h[2])
            terms.append((module._gen_ids[h], c))
    return (lam.numerator if lam.denominator == 1 else lam), terms


@pytest.mark.parametrize("name", presets.MODULE_PRESETS)
def test_bracket_table_equals_bracket_gens_called_once_per_entry(monkeypatch, name):
    module, trunc = preset_module(name)
    with call_spy(monkeypatch, AffineAlgebra, "bracket_gens") as calls:
        module.solve(trunc)
    gens = module._gens
    entries = [(g, head) for g, table in enumerate(module._brackets) for head in table]
    assert entries
    assert calls == Counter((module.alg, gens[g], gens[head]) for g, head in entries)
    assert max(calls.values()) == 1
    for g, head in entries:
        lam, terms = module._brackets[g][head]
        want_lam, want_terms = expected_bracket(module, gens[g], gens[head])
        assert (type(lam), lam) == (type(want_lam), want_lam)
        assert [(h, type(c), c) for h, c in terms] == [
            (h, type(c), c) for h, c in want_terms
        ]


@pytest.mark.parametrize("name", sorted(LIVE_ONLY))
def test_a_solve_enumerates_each_basis_once_and_a_held_extension_none(
    monkeypatch, name
):
    make, trunc = LIVE_ONLY[name]
    module = quiet(make)
    with call_spy(monkeypatch, WhittakerModule, "basis") as calls:
        module.solve(trunc)
        assert calls == {(factor, trunc): 1 for factor in factors(module)}
        calls.clear()
        module.solve(Truncation(trunc.D, trunc.E, trunc.J))
        module.solve(Truncation(trunc.D, trunc.E, trunc.J + 1))
        assert not calls
        rebuilt = Truncation(trunc.D, trunc.E + 1, 0)
        module.solve(rebuilt)
        assert calls == {(factor, rebuilt): 1 for factor in factors(module)}
