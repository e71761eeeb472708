"""The four sparse element classes: repr bytes, arithmetic, equality, hash.

``FinVector``, ``FiniteSupport``, ``AffineElement`` and
``ChevalleyElement`` share their linear-combination arithmetic and
coefficient coercion; these tests pin what each one shows and how each
compares, so that sharing the code changes neither.
"""

from fractions import Fraction as F

import pytest

from affwhit import (
    AffineElement,
    ChevalleyElement,
    FiniteSupport,
    FinVector,
    H,
    X,
    build_datum,
)
from affwhit.engine import VACUUM, element_str, mono_str, pair_str

SL3 = build_datum(3)

FIN_TERMS = {0: 1, 1: -1, 2: F(2, 3), 3: F(-5, 2), 4: 3}
AFF_TERMS = {
    X((1, 0), 2): 1,
    H(1, 0): -1,
    "c": F(2, 3),
    "d": F(-5, 2),
    X((-1, -1), -3): 3,
}
CHEV_TERMS = {
    ("H", 1): 1,
    ("X", (0, 1)): F(2, 3),
    ("X", (-1, -1)): F(-5, 2),
    ("H", 2): -1,
    ("X", (1, 1)): 3,
}


def reversed_dict(d):
    return dict(reversed(list(d.items())))


def chev(terms, datum=SL3):
    return ChevalleyElement(datum, terms)


@pytest.mark.parametrize(
    "elt, text",
    [
        (FinVector({}), "FinVector(0)"),
        (FinVector({0: 1}), "FinVector(v_0)"),
        (FinVector({0: -1}), "FinVector(-v_0)"),
        (FinVector({3: F(1, 2)}), "FinVector(1/2*v_3)"),
        (FinVector({-2: -1, 0: "-2/3"}), "FinVector(-v_-2 - 2/3*v_0)"),
        (FinVector({1: F(-7, 3), -1: 1}), "FinVector(v_-1 - 7/3*v_1)"),
        (FinVector(FIN_TERMS), "FinVector(v_0 - v_1 + 2/3*v_2 - 5/2*v_3 + 3*v_4)"),
        (
            FinVector(reversed_dict(FIN_TERMS)),
            "FinVector(v_0 - v_1 + 2/3*v_2 - 5/2*v_3 + 3*v_4)",
        ),
        (AffineElement({}), "0"),
        (AffineElement({"c": 1}), "c"),
        (AffineElement({"d": -1}), "- d"),
        (AffineElement({H(2, 1): F(-7, 3)}), "- 7/3*H[2]@t^1"),
        (AffineElement({X((1, 0), 0): F(1, 2)}), "1/2*X[1,0]@t^0"),
        (
            AffineElement(AFF_TERMS),
            "2/3*c - 5/2*d - H[1]@t^0 + 3*X[-1,-1]@t^-3 + X[1,0]@t^2",
        ),
        (
            AffineElement(reversed_dict(AFF_TERMS)),
            "2/3*c - 5/2*d - H[1]@t^0 + 3*X[-1,-1]@t^-3 + X[1,0]@t^2",
        ),
        (ChevalleyElement(SL3, {}), "0"),
        (SL3.X((1, 0)), "X[a1]"),
        (SL3.X((1, 0), -1), "-X[a1]"),
        (SL3.H(2, F(-7, 3)), "-7/3*H2"),
        (SL3.X((0, 1), F(1, 2)), "1/2*X[a2]"),
        (chev(CHEV_TERMS), "H1 -H2 -5/2*X[-a1-a2] +2/3*X[a2] +3*X[a1+a2]"),
        (chev(reversed_dict(CHEV_TERMS)), "H1 -H2 -5/2*X[-a1-a2] +2/3*X[a2] +3*X[a1+a2]"),
    ],
)
def test_repr_bytes(elt, text):
    assert repr(elt) == text


def test_element_str_bytes():
    h, xm1, xm0, h2 = H(1, 0), X((-1,), 1), X((-1,), 0), H(1, 2)
    elt = {
        VACUUM: F(1),
        ((h, 1),): F(-2, 3),
        ((xm1, 2),): 3,
        ((xm0, 1), (h2, 1)): -1,
    }
    text = "1 - 2/3*(H[1]@t^0) + 3*(X[-1]@t^1)^2 - (X[-1]@t^0) (H[1]@t^2)"
    assert element_str(elt) == text
    assert element_str(reversed_dict(elt)) == text
    assert element_str({((h, 1),): -1, VACUUM: F(5, 2)}) == "5/2*1 - (H[1]@t^0)"
    assert element_str({((h, 1),): F(1, 2)}) == "1/2*(H[1]@t^0)"
    assert element_str({}) == "0"
    pair = {(VACUUM, ((h, 1),)): -1, (VACUUM, VACUUM): F(3, 4)}
    assert element_str(pair, render=pair_str) == "- 1 (x) (H[1]@t^0) + 3/4*1 (x) 1"
    assert mono_str(((xm1, 2),)) == "(X[-1]@t^1)^2"


@pytest.mark.parametrize(
    "make, terms",
    [
        (FinVector, FIN_TERMS),
        (AffineElement, AFF_TERMS),
        (chev, CHEV_TERMS),
        (FiniteSupport, FIN_TERMS),
    ],
)
def test_linear_combination_arithmetic(make, terms):
    x = make(terms)
    y = make(reversed_dict(terms))
    cls = type(x)
    assert x == y and hash(x) == hash(y)
    assert hash(x) == hash(frozenset(x.coeffs.items()))
    assert all(type(c) is F for c in x.coeffs.values())
    assert make({}).is_zero() and not x.is_zero()
    assert (x - y).is_zero() and type(x - y) is cls
    assert (x + x).coeffs == {k: 2 * c for k, c in x.coeffs.items()}
    assert (-x).coeffs == {k: -c for k, c in x.coeffs.items()}
    assert type(-x) is cls and type(x + y) is cls
    assert x * 3 == 3 * x == x + x + x
    assert (x * F(1, 2)).coeffs == {k: c / 2 for k, c in x.coeffs.items()}
    assert (x * 0).is_zero() and (0 * x).is_zero()
    # an entry that cancels is dropped, not stored as 0
    k0 = next(iter(x.coeffs))
    part = make({k0: terms[k0]})
    assert k0 not in (x - part).coeffs
    assert make({k0: 0}).is_zero()
    assert x != make({k0: terms[k0]})
    assert x != 0 and x != dict(x.coeffs)


def test_equality_and_hash_across_classes():
    # no key is valid in all four classes, so the empty combinations stand
    # for equal coefficients
    fin, aff = FinVector({}), AffineElement({})
    ch = ChevalleyElement(SL3, {})
    seq = FiniteSupport({})
    assert fin.coeffs == aff.coeffs == ch.coeffs == seq.coeffs
    assert fin != aff and aff != fin
    assert fin != ch and ch != fin and aff != ch and ch != aff
    assert seq != fin and fin != seq and seq != aff and seq != ch
    # hashes follow the coefficients only; equality keeps them apart
    assert hash(fin) == hash(aff) == hash(ch) == hash(seq)
    assert len({fin, aff, ch, seq}) == 4
    # an index is a key of both vectors and sequences
    vec, delta = FinVector({0: 1}), FiniteSupport({0: 1})
    assert vec.coeffs == delta.coeffs and hash(vec) == hash(delta)
    assert vec != delta and delta != vec and len({vec, delta}) == 2


# (element class, key, message): a key an element class cannot hold
BAD_KEYS = [
    ("affine", 0, "malformed generator 0"),
    ("affine", ("X", 1, 0), "malformed generator"),
    ("affine", ("Y", (1,), 0), "malformed generator"),
    ("affine", ("H", 1, 0, 0), "malformed generator"),
    ("affine", ("H", 1, 0.0), "t-exponent must be an int"),
    ("chevalley", 0, "malformed basis key 0"),
    ("chevalley", ("X", [1, 0]), "malformed basis key"),
    ("chevalley", ("X", (1, 0), 0), "malformed basis key"),
    ("chevalley", ("X", (2, 0)), r"not a root: \(2, 0\)"),
    ("chevalley", ("X", (1,)), r"not a root: \(1,\)"),
    ("chevalley", ("X", (1, False)), "root coordinate must be an int"),
    ("chevalley", ("H", 3), r"Cartan index must lie in 1\.\.2, got 3"),
    ("chevalley", ("H", True), "Cartan index must be an int"),
]


@pytest.mark.parametrize("cls, key, message", BAD_KEYS, ids=range(len(BAD_KEYS)))
def test_element_keys_are_checked(cls, key, message):
    # a zero coefficient is not stored, but its key is checked all the same
    for coeff in (1, 0):
        with pytest.raises(ValueError, match=message):
            if cls == "affine":
                AffineElement([(key, coeff)])
            else:
                ChevalleyElement(SL3, [(key, coeff)])


def test_chevalley_equality_needs_the_same_datum():
    other = build_datum(3)
    a, b = SL3.X((1, 0), 2), other.X((1, 0), 2)
    assert a.coeffs == b.coeffs
    assert a != b and not a == b
    assert hash(a) == hash(b)
    assert a == SL3.X((1, 0), 2)
    assert (a + a).datum is SL3 and (-a).datum is SL3 and (3 * a).datum is SL3
    assert (a - SL3.X((1, 0), 2)).datum is SL3
    assert len({a, b, SL3.X((1, 0), 2)}) == 2


def test_chevalley_sums_need_the_same_datum():
    other = build_datum(3)
    a, b = SL3.X((1, 0)), other.X((0, 1))
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(ValueError, match="elements live over different root data"):
            op()
    assert repr(a + SL3.X((0, 1))) == "X[a2] +X[a1]"
    assert repr(b - other.X((0, 1))) == "0"


def test_finvector_keys_and_exact_coefficients():
    # an index must be an int: a string or a float key is refused, not coerced
    for key in ("2", 3.0):
        with pytest.raises(ValueError, match="index must be an int"):
            FinVector({key: 1})
    v = FinVector({2: "1/2", 3: 1})
    assert v.coeffs == {2: F(1, 2), 3: F(1)}
    assert all(type(i) is int for i in v.coeffs)
    assert v * "2/3" == FinVector({2: F(1, 3), 3: F(2, 3)})
    with pytest.raises(TypeError):
        FinVector({0: 0.5})
    with pytest.raises(ValueError):
        FinVector({0: "0.5"})
    with pytest.raises(ValueError):
        FinVector({0: "1e3"})
    with pytest.raises(TypeError):
        v * 0.5
    with pytest.raises(ValueError):
        v * "0.5"
    with pytest.raises(TypeError):
        0.5 * v


def test_fraction_coefficients_for_affine_and_chevalley():
    assert AffineElement({"c": "3/4"}).coeffs == {"c": F(3, 4)}
    assert (AffineElement({"c": 1}) * "1/2").coeffs == {"c": F(1, 2)}
    assert SL3.H(1, "2/5").coeffs == {("H", 1): F(2, 5)}
    assert (SL3.H(1) * "1/3").coeffs == {("H", 1): F(1, 3)}


@pytest.mark.parametrize(
    "make",
    [
        lambda c: FinVector({0: c}),
        lambda c: FiniteSupport({0: c}),
        lambda c: AffineElement({"c": c}),
        lambda c: SL3.H(1, c),
        lambda c: SL3.X((1, 1), c),
    ],
    ids=["FinVector", "FiniteSupport", "AffineElement", "H", "X"],
)
def test_floats_are_refused_and_exact_scalars_accepted(make):
    for x in (0.1, 0.5, 2.0):
        with pytest.raises(TypeError):
            make(x)
    elt = make(3)
    with pytest.raises(TypeError):
        elt * 0.5
    with pytest.raises(TypeError):
        0.5 * elt
    for c, want in ((3, F(3)), (F(-2, 7), F(-2, 7)), ("2/3", F(2, 3))):
        assert list(make(c).coeffs.values()) == [want]
        assert list((elt * c).coeffs.values()) == [3 * want]
