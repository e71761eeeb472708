"""Affinized algebra: central extension, derivation, modes, parsing."""

import random
from fractions import Fraction

import pytest

from affwhit import (
    C,
    D,
    AffineAlgebra,
    AffineElement,
    H,
    X,
    bracket,
    build_datum,
    gen_str,
    parse_gen,
)

F = Fraction

SL2 = build_datum(2)
SL3 = build_datum(3, {2})
A = (1,)  # the simple root of sl(2)
NA = (-1,)


def alg(datum=SL2, **kw):
    return AffineAlgebra(datum, **kw)


def elem(*terms):
    return AffineElement({g: F(c) for g, c in terms})


def random_affine(algebra, rng, max_terms=3, max_exp=2):
    datum = algebra.datum
    roots = sorted(datum.phi)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        kind = rng.random()
        m = rng.randint(-max_exp, max_exp)
        if kind < 0.5:
            g = X(rng.choice(roots), m)
        elif kind < 0.8:
            g = H(rng.randint(1, datum.rank), m)
        elif kind < 0.9 and not algebra.loop_only:
            g = C
        elif not algebra.loop_only:
            g = D
        else:
            g = H(1, m)
        terms[g] = terms.get(g, F(0)) + F(rng.randint(-4, 4), rng.randint(1, 3))
    return AffineElement({g: c for g, c in terms.items() if c})


# ---------------------------------------------------------------------------
# pinned brackets
# ---------------------------------------------------------------------------


def test_central_term_standard_cocycle():
    a = alg()
    # [e t^2, f t^-2] = h t^0 + 2 * kappa(e, f) c = H + 8c
    got = a.bracket(elem((X(A, 2), 1)), elem((X(NA, -2), 1)))
    assert got == elem((H(1, 0), 1), (C, 8))
    # opposite exponent ordering flips the cocycle sign
    got = a.bracket(elem((X(A, -2), 1)), elem((X(NA, 2), 1)))
    assert got == elem((H(1, 0), 1), (C, -8))
    # exponents not summing to zero never produce c
    got = a.bracket(elem((X(A, 2), 1)), elem((X(NA, -1), 1)))
    assert got == elem((H(1, 1), 1))


def test_cartan_loop_brackets():
    a = alg()
    # [h t^m, h t^-m] = m * kappa(h, h) c = 8m c
    got = a.bracket(elem((H(1, 3), 1)), elem((H(1, -3), 1)))
    assert got == elem((C, 24))
    assert a.bracket(elem((H(1, 2), 1)), elem((H(1, 3), 1))).is_zero()


def test_derivation_grades_by_exponent():
    a = alg()
    assert a.bracket(elem((D, 1)), elem((X(A, 3), 1))) == elem((X(A, 3), 3))
    assert a.bracket(elem((X(A, 3), 1)), elem((D, 1))) == elem((X(A, 3), -3))
    assert a.bracket(elem((D, 1)), elem((H(1, -2), 1))) == elem((H(1, -2), -2))
    assert a.bracket(elem((D, 1)), elem((X(A, 0), 1))).is_zero()
    assert a.bracket(elem((D, 1)), elem((D, 1))).is_zero()


def test_c_is_central():
    a = alg()
    rng = random.Random(11)
    for _ in range(20):
        x = random_affine(a, rng)
        assert a.bracket(elem((C, 1)), x).is_zero()
        assert a.bracket(x, elem((C, 1))).is_zero()


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_antisymmetry_and_jacobi_standard():
    rng = random.Random(42)
    zero = AffineElement({})
    for datum in (SL2, SL3):
        a = alg(datum)
        for _ in range(40):
            x, y, z = (random_affine(a, rng) for _ in range(3))
            assert a.bracket(x, y) + a.bracket(y, x) == zero
            jac = (
                a.bracket(x, a.bracket(y, z))
                + a.bracket(y, a.bracket(z, x))
                + a.bracket(z, a.bracket(x, y))
            )
            assert jac == zero


def test_literal_cocycle_breaks_jacobi():
    """The constant-factor cocycle is not a Lie bracket; pinned witness."""
    a = alg(cocycle="literal")
    x = elem((X(A, 1), 1))
    y = elem((X(NA, 1), 1))
    z = elem((H(1, -2), 1))
    jac = (
        a.bracket(x, a.bracket(y, z))
        + a.bracket(y, a.bracket(z, x))
        + a.bracket(z, a.bracket(x, y))
    )
    assert jac == elem((C, 24))


def test_literal_cocycle_pinned_bracket():
    a = alg(cocycle="literal")
    # factor 1 instead of m: [e t^0, f t^0] = h + kappa(e,f) c even at m=0
    got = a.bracket(elem((X(A, 0), 1)), elem((X(NA, 0), 1)))
    assert got == elem((H(1, 0), 1), (C, 4))


def test_loop_only_mode():
    a = alg(loop_only=True)
    got = a.bracket(elem((X(A, 2), 1)), elem((X(NA, -2), 1)))
    assert got == elem((H(1, 0), 1))  # no central term
    with pytest.raises(ValueError):
        a.validate_gen(C)
    with pytest.raises(ValueError):
        a.validate_gen(D)


def test_module_level_bracket_helper():
    got = bracket(SL2, elem((X(A, 2), 1)), elem((X(NA, -2), 1)))
    assert got == elem((H(1, 0), 1), (C, 8))


def test_validate_gen():
    a = alg()
    a.validate_gen(X(A, 5))
    a.validate_gen(H(1, -5))
    a.validate_gen(C)
    # the datum's one root and Cartan-range check (RootDatum._basis_key)
    with pytest.raises(ValueError, match=r"^not a root: \(2,\)$"):
        a.validate_gen(X((2,), 0))
    with pytest.raises(ValueError, match=r"^Cartan index must lie in 1\.\.1, got 2$"):
        a.validate_gen(H(2, 0))
    with pytest.raises(ValueError):
        a.validate_gen(("Y", A, 0))
    # index, root entries and t-exponent must be of type int; a bool is not one
    for g in (("H", 1, "x"), ("H", 1, True), ("H", True, 0), ("H", "1", 0),
              ("X", A, 1.5), ("X", A, F(1)), ("X", A, None),
              ("X", (True,), 0), ("X", [1], 0), ("X", (F(1),), 0)):
        with pytest.raises(ValueError):
            a.validate_gen(g)


def test_in_Ln():
    a3 = alg(SL3)
    assert a3.in_Ln(X((1, 0), -7))
    assert a3.in_Ln(X((1, 1), 0))
    assert not a3.in_Ln(X((0, 1), 0))  # Levi root
    assert not a3.in_Ln(X((-1, 0), 0))
    assert not a3.in_Ln(H(1, 0))
    assert not a3.in_Ln(C)


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------


def test_gen_str_round_trip():
    gens = [X(A, -3), X(NA, 0), H(1, 7), C, D]
    for g in gens:
        assert parse_gen(gen_str(g), SL2) == g
    gens3 = [X((1, 1), 2), X((0, -1), -1), H(2, 0)]
    for g in gens3:
        assert parse_gen(gen_str(g), SL3) == g


def test_parse_gen_errors():
    with pytest.raises(ValueError):
        parse_gen("bogus", SL2)
    # the datum's one root and Cartan-range check, with the text
    with pytest.raises(ValueError, match=r"^not a root: \(2,\) in 'X\[2\]@t\^0'$"):
        parse_gen("X[2]@t^0", SL2)
    with pytest.raises(ValueError, match=r"^not a root: \(1, 0\) in "):
        parse_gen("X[1,0]@t^0", SL2)
    with pytest.raises(ValueError, match=r"^Cartan index must lie in 1\.\.1, got 5 in "):
        parse_gen("H[5]@t^0", SL2)
    with pytest.raises(ValueError, match=r"^H takes one Cartan index: 'H\[1,1\]@t\^0'$"):
        parse_gen("H[1,1]@t^0", SL2)


def test_element_repr_deterministic():
    x = elem((X(A, 2), 1), (C, 8), (H(1, 0), 1))
    assert repr(AffineElement(dict(reversed(list(x.coeffs.items()))))) == repr(x)
