"""Bi-infinite sequence space: exact classes, genericity, window evidence."""

import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest

import oracles
from affwhit import (
    AffineElement,
    BothInfiniteSupport,
    ChevalleyElement,
    DegenerateAnnihilator,
    FinVector,
    FiniteSupport,
    Geometric,
    GenericInput,
    H,
    Recurrence,
    RootDatum,
    Scaled,
    Shifted,
    Weighted,
    X,
    build_datum,
    is_generic,
    is_strongly_generic_set,
    linalg,
    member_strong_genericity,
    minimal_annihilator,
    pairing,
    reconstruct,
    sequence_from_literal,
    size,
    weighted,
    window_rank_check,
)
from affwhit import seqspace

F = Fraction

FIB = Recurrence(FinVector({0: -1, 1: -1, 2: 1}), [0, 1])
CONST1 = Recurrence(FinVector({0: -1, 1: 1}), [1])
ZERO_REASON = "the zero sequence is dependent"


def fib_oracle(i: int) -> int:
    """Two-sided Fibonacci by plain iteration, no package code."""
    a, b = 0, 1
    if i >= 0:
        for _ in range(i):
            a, b = b, a + b
        return a
    for _ in range(-i):
        a, b = b - a, a
    return a


# ---------------------------------------------------------------------------
# exact classes
# ---------------------------------------------------------------------------


def test_fibonacci_two_sided_extension():
    assert FIB.entry(5) == 5
    assert FIB.entry(-2) == -1
    for i in range(-15, 16):
        assert FIB.entry(i) == fib_oracle(i), i


def test_geometric_one_sided_cutoff():
    a = Geometric(2)
    assert [a.entry(i) for i in range(-2, 4)] == [0, 0, 0, 2, 4, 8]
    b = Geometric(F(5, 2))
    assert b.entry(2) == F(25, 4)
    assert b.entry(0) == 0
    with pytest.raises(ValueError):
        Geometric(1)
    with pytest.raises(ValueError):
        Geometric(F(1, 2))


def test_wrappers_and_translate():
    a = Geometric(3)
    s = Shifted(a, 2)
    assert s.entry(1) == a.entry(3) == 27
    assert all(Shifted(s, -2).entry(i) == a.entry(i) for i in range(-3, 6))
    w = weighted(a)
    assert w.entry(4) == 4 * 81
    assert w.entry(-1) == 0
    sc = Scaled(a, F(-1, 2))
    assert sc.entry(2) == F(-9, 2)
    fin = FiniteSupport({0: 1, 3: -2})
    t = Shifted(fin, 1)
    assert t.entry(-1) == 1 and t.entry(2) == -2
    assert weighted(fin).entry(3) == -6


def test_translate_moves_vectors_and_sequences_oppositely():
    # a vector's support moves by +n, a sequence's by -n
    assert FinVector({0: 1}).translate(2) == FinVector({2: 1})
    moved = Shifted(FiniteSupport({0: 1}), 2)
    assert all(moved.entry(i) == FiniteSupport({-2: 1}).entry(i) for i in range(-5, 5))
    v, a = FinVector({0: 1, 1: -3}), FIB
    for n in range(-3, 4):
        assert pairing(v.translate(n), a) == pairing(v, Shifted(a, n))
        assert Shifted(a, n).entry(0) == a.entry(n)


def test_finite_support_arithmetic():
    f, g = FiniteSupport({0: 1, 2: "1/2"}), FiniteSupport({2: F(-1, 2), 3: 4})
    assert f + g == FiniteSupport({0: 1, 3: 4})
    assert f - f == FiniteSupport({}) and (f - f).is_zero()
    assert 2 * f == f * 2 == FiniteSupport({0: 2, 2: 1})
    assert (f + g).support == [0, 3] and f.items() == [(0, F(1)), (2, F(1, 2))]
    for i in range(-2, 5):
        assert (f - 3 * g).entry(i) == f.entry(i) - 3 * g.entry(i)
    with pytest.raises(TypeError):
        f * 0.5


WRAPPED = [
    Scaled(Shifted(Scaled(FiniteSupport({-1: 2, 3: "1/3"}), -2), 2), F(3, 4)),
    Shifted(Weighted(Shifted(FiniteSupport({0: 1, 4: -1}), -3)), 1),
    Scaled(Weighted(Scaled(Weighted(FiniteSupport({-2: 1, 1: 5})), 2)), -1),
    Shifted(Shifted(FiniteSupport({2: 7}), 5), -4),
]


@pytest.mark.parametrize("s", WRAPPED, ids=range(len(WRAPPED)))
def test_finite_core_folds_every_wrapper(s):
    fin = seqspace.member_record(s).core
    assert type(fin) is FiniteSupport
    assert all(fin.entry(i) == s.entry(i) for i in range(-12, 13))
    assert all(-12 <= i <= 12 for i in fin.support)


def test_geometric_and_recurrence_cores_see_through_shifts_and_scales():
    geo = Scaled(Shifted(Scaled(Geometric(3), 2), -4), F(1, 5))
    lo, hi, p = seqspace._tails(geo)
    assert (lo, hi) == (4, 5) and p == FinVector({0: -3, 1: 1})
    assert seqspace._geometric_ratio(seqspace._tails(geo)) == 3
    assert seqspace._geometric_ratio(seqspace._tails(Weighted(Geometric(3)))) is None
    rec = Shifted(Scaled(Shifted(FIB, 2), -1), 3)
    lo, hi, p = seqspace._tails(rec)
    assert (lo, hi) == (-5, -5) and p is FIB.v
    assert all(rec.entry(i) == -FIB.entry(i + 5) for i in range(-8, 9))
    assert all(geo.entry(i) == F(2, 5) * Geometric(3).entry(i - 4) for i in range(-2, 9))
    assert minimal_annihilator(rec) == FinVector({0: 1, 1: 1, 2: -1})


def test_weighting_can_clear_a_shifted_finite_sequence():
    # the shift puts the only entry at index 0, where the weight is 0
    s = Weighted(Shifted(FiniteSupport({1: 1}), 1))
    assert all(s.entry(i) == 0 for i in range(-5, 6))
    assert member_strong_genericity(s).reason == ZERO_REASON
    assert size(s) == 0 and minimal_annihilator(s) == FinVector({0: 1})
    assert member_strong_genericity(s).kind == "not_strongly_generic"
    for nonzero in (
        Weighted(Shifted(FiniteSupport({1: 1}), 2)),
        Weighted(Weighted(Geometric(2))),
        Weighted(Scaled(FIB, 2)),
    ):
        assert member_strong_genericity(nonzero).reason != ZERO_REASON
    assert member_strong_genericity(Weighted(FiniteSupport({}))).reason == ZERO_REASON


def test_pairing_conventions():
    v = FinVector({0: 1, 1: -1})
    fin = FiniteSupport({0: 2, 1: 3})
    assert pairing(v, fin) == -1
    assert pairing(fin, v) == -1
    assert pairing(v, Geometric(2)) == -2
    # <v, s^(n)> runs over the vector's support against shifted entries
    assert pairing(v, Shifted(Geometric(2), 3)) == 8 - 16
    # two infinite supports have no finite sum; the CLI reads the error as
    # a ValueError
    assert issubclass(BothInfiniteSupport, ValueError)
    for x, y in [(Geometric(2), FIB), (FIB, Shifted(Geometric(3), 1)),
                 (Weighted(Geometric(2)), Scaled(Geometric(2), 5))]:
        with pytest.raises(BothInfiniteSupport):
            pairing(x, y)


NON_INT = [
    (Shifted, (Geometric(2), 1.5)),
    (Shifted, (Geometric(2), True)),
    (Shifted, (FIB, F(2))),
    (Shifted, (FiniteSupport({0: 1}), "1")),
    (FinVector({0: 1}).translate, (2.0,)),
    (FinVector({0: 1}).translate, (True,)),
    (window_rank_check, ([Geometric(2)], 2.7, 4)),
    (window_rank_check, ([Geometric(2)], 2, 4.9)),
    (window_rank_check, ([Geometric(2)], False, 4)),
    # every other integer argument goes through the same linalg.require_int
    (RootDatum, (3.7,)),
    (RootDatum, (3, {1.5})),
    (X, ((1,), 2.5)),
    (H, (1.9, 0)),
    (FinVector, ({1.5: 2},)),
    (FiniteSupport, ({True: 3},)),
    (FinVector({0: 1}).translate, (1.5,)),
    (Geometric(2).entry, (1.5,)),
    (Recurrence(FinVector({0: 1, 1: 1, 2: -1}), [0, 1]).entry, (2.5,)),
    (build_datum(2).H, (1.0,)),
    (build_datum(2).X, ((1.0,),)),
    (FiniteSupport({1: 1}).entry, (True,)),
    (FinVector({1: 1}).__getitem__, (1.0,)),
    # hand-built element keys, checked with a zero coefficient too
    (AffineElement, ({("X", (1,), 2.5): 1},)),
    (ChevalleyElement, (build_datum(2), {("H", 1.0): 1})),
    (ChevalleyElement, (build_datum(2), {("H", 1.0): 0})),
    (FinVector, ({1.5: 0},)),
]


@pytest.mark.parametrize("fn, args", NON_INT, ids=range(len(NON_INT)))
def test_integer_arguments_refuse_what_int_would_truncate(fn, args):
    with pytest.raises(ValueError, match="must be an int"):
        fn(*args)


# a root is a tuple: anything else is refused, not iterated or converted
NON_TUPLE = [
    (X, (5, 0), "root must be a tuple, got 5"),
    (X, ([1], 0), r"root must be a tuple, got \[1\]"),
    (build_datum(2).X, (5,), r"malformed basis key \('X', 5\)"),
    (build_datum(2).X, ([1],), "malformed basis key"),
    (AffineElement, ({("X", 5, 0): 0},), "malformed generator"),
    (build_datum(3).order_key, (5,), "root must be a tuple, got 5"),
    (build_datum(3).order_key, ([1, 0],), r"root must be a tuple, got \[1, 0\]"),
]


@pytest.mark.parametrize("fn, args, message", NON_TUPLE, ids=range(len(NON_TUPLE)))
def test_roots_must_be_tuples(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_finvector_normal_forms():
    v = FinVector({2: F(1, 2), 5: -1})
    assert v.l() == 2 and v.r() == 5 and v.width() == 3
    assert v.translate(4)[6] == F(1, 2)
    assert FinVector({0: 1}) - FinVector({0: 1}) == FinVector({})


# ---------------------------------------------------------------------------
# annihilators, size, reconstruction
# ---------------------------------------------------------------------------


def test_minimal_annihilator_fibonacci():
    v = minimal_annihilator(FIB)
    assert v == FinVector({0: 1, 1: 1, 2: -1})
    assert size(FIB) == 2
    # cross-check with the brute-force oracle
    got = oracles.brute_annihilator(FIB.entry)
    assert got is not None and len(got) == 3


def test_minimal_annihilator_constant():
    v = minimal_annihilator(CONST1)
    assert v == FinVector({0: 1, 1: -1})
    assert size(CONST1) == 1
    assert size(FiniteSupport({})) == 0
    assert minimal_annihilator(FiniteSupport({})) == FinVector({0: 1})


def test_minimal_annihilator_respects_wrappers():
    assert minimal_annihilator(Shifted(FIB, 7)) == FinVector({0: 1, 1: 1, 2: -1})
    assert minimal_annihilator(Scaled(FIB, F(3, 5))) == FinVector({0: 1, 1: 1, 2: -1})


def test_redundant_defining_annihilator_is_reduced():
    # defined by a width-2 recurrence but actually constant
    s = Recurrence(FinVector({0: 1, 1: -2, 2: 1}), [4, 4])
    assert all(s.entry(i) == 4 for i in range(-6, 7))
    assert minimal_annihilator(s) == FinVector({0: 1, 1: -1})
    assert size(s) == 1


ONE_SOLVE = [
    (FIB, FinVector({0: 1, 1: 1, 2: -1})),
    (Weighted(FIB), FinVector({0: 1, 1: 2, 2: -1, 3: -2, 4: 1})),
    (Shifted(Recurrence(FinVector({0: 1, 1: -2, 2: 1}), [4, 4]), 3),
     FinVector({0: 1, 1: -1})),
    (Recurrence(FinVector({0: 1, 1: -2, 2: 1}), [0, 0]), FinVector({0: 1})),
    (FiniteSupport({}), FinVector({0: 1})),
]


@pytest.mark.parametrize("s, want", ONE_SOLVE, ids=range(len(ONE_SOLVE)))
def test_minimal_annihilator_is_one_nullspace_call(monkeypatch, s, want):
    """One Hankel solve, over the columns 0..omega(T) of the witness T."""
    widths = []
    nullspace = linalg.nullspace

    def counted(rows, ncols):
        widths.append(ncols - 1)
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", counted)
    assert minimal_annihilator(s) == want
    assert widths == [is_generic(s).witness.width()]


def test_generic_input_raises():
    with pytest.raises(GenericInput):
        minimal_annihilator(Geometric(2))
    with pytest.raises(GenericInput):
        size(FiniteSupport({0: 1}))


def test_minimal_annihilator_translates_in_a_window():
    v = minimal_annihilator(FIB)
    basis = [v.translate(i) for i in range(-3, 3 - v.width() + 1)]
    assert len(basis) == 5  # translates fitting a width-2 vector in [-3, 3]
    for v in basis:
        assert v.l() >= -3 and v.r() <= 3
        for n in range(-8, 9):
            assert pairing(v, Shifted(FIB, n)) == 0


def test_reconstruct_round_trip():
    v = minimal_annihilator(FIB)
    s = reconstruct(v, [0, 1])
    for i in range(-10, 11):
        assert s.entry(i) == FIB.entry(i)
    with pytest.raises(DegenerateAnnihilator):
        reconstruct(FinVector({0: 1}), [5])


def test_annihilator_random_recurrences_match_oracle():
    rng = random.Random(20260814)
    for _ in range(25):
        width = rng.randint(1, 3)
        coeffs = {width: F(1)}
        for k in range(width):
            coeffs[k] = F(rng.randint(-3, 3))
        if not coeffs[0]:
            coeffs[0] = F(1)
        initial = [F(rng.randint(-4, 4)) for _ in range(width)]
        s = Recurrence(FinVector(coeffs), initial)
        if not any(initial):
            continue
        v = minimal_annihilator(s)
        # every translate of the found vector annihilates the sequence
        for n in range(-9, 10):
            assert pairing(v.translate(n), s) == 0
        # and it is minimal: the oracle finds the same width
        got = oracles.brute_annihilator(s.entry)
        assert got is not None and got[-1][0] - got[0][0] == v.width()


# ---------------------------------------------------------------------------
# genericity of single sequences
# ---------------------------------------------------------------------------


def test_genericity_verdicts():
    assert is_generic(FiniteSupport({0: 1, 2: -3})).kind == "generic"
    assert is_generic(Geometric(2)).kind == "generic"
    assert is_generic(Weighted(Geometric(2))).kind == "generic"
    assert is_generic(Shifted(Geometric(3), 5)).kind == "generic"
    assert is_generic(Scaled(FiniteSupport({1: 1}), F(2, 7))).kind == "generic"

    z = is_generic(FiniteSupport({}))
    assert z.kind == "not_generic" and z.witness == FinVector({0: 1})

    v = is_generic(FIB)
    assert v.kind == "not_generic"
    assert v.witness == FinVector({0: -1, 1: -1, 2: 1})
    # the witness annihilates every translate
    for n in range(-8, 9):
        assert pairing(v.witness, Shifted(FIB, n)) == 0

    # (S^2 - S - 1)^2 kills i * F_i
    v = is_generic(Weighted(FIB))
    assert v.kind == "not_generic"
    assert v.witness == FinVector({0: 1, 1: 2, 2: -1, 3: -2, 4: 1})
    for n in range(-8, 9):
        assert pairing(v.witness, Shifted(Weighted(FIB), n)) == 0


def test_finite_support_generic_property():
    """Nonzero finite support admits no annihilating vector (window check)."""
    rng = random.Random(99)
    for _ in range(30):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            entries[rng.randint(-5, 5)] = F(rng.randint(-9, 9), rng.randint(1, 4))
        fin = FiniteSupport({i: c for i, c in entries.items() if c})
        if fin.is_zero():
            continue
        assert is_generic(fin).kind == "generic"
        # brute force: <v, fin^(n)> = 0 for all n forces v = 0 in any width
        for width in range(1, 5):
            rows = []
            for n in range(-12, 13):
                rows.append([fin.entry(k + n) for k in range(width)])
            assert oracles.sympy_dense_rank(rows) == width


def test_weighted_geometric_annihilator_free():
    """No short vector kills all translates of i * 2^i (window evidence)."""
    w = weighted(Geometric(2))
    for width in range(1, 6):
        rows = []
        for n in range(-10, 11):
            rows.append([w.entry(k + n) for k in range(width)])
        assert oracles.sympy_dense_rank(rows) == width


# ---------------------------------------------------------------------------
# strong genericity: members
# ---------------------------------------------------------------------------


def test_member_strong_genericity_finite_cases():
    # weighted delta_0 vanishes identically
    v = member_strong_genericity(FiniteSupport({0: 1}))
    assert v.kind == "not_strongly_generic" and "zero" in v.reason
    # weighted delta_1 is delta_1 itself, a translate multiple
    v = member_strong_genericity(FiniteSupport({1: 1}))
    assert v.kind == "not_strongly_generic"
    # delta_0 + delta_1 weights to delta_1, not a multiple of (1 + x)
    v = member_strong_genericity(FiniteSupport({0: 1, 1: 1}))
    assert v.kind == "strongly_generic"
    # delta_0 - delta_1 weights to -delta_1, again not a multiple
    v = member_strong_genericity(FiniteSupport({0: 1, 1: -1}))
    assert v.kind == "strongly_generic"


def test_member_strong_genericity_divisibility_witness():
    # A finite member with polynomial F fails iff F divides x * F', the
    # polynomial of its weighted sequence; with F = x^a * G and G(0) != 0
    # that holds iff G' = 0, i.e. iff the support is one point
    # (member_strong_genericity).  s = delta_1 + delta_2 has two points:
    # F = x + x^2 does not divide x * F' = x + 2x^2.
    assert member_strong_genericity(FiniteSupport({1: 1, 2: 1})).kind == (
        "strongly_generic"
    )
    # one point a = 3: F = (2/5) x^3 and x * F' = 3 * F, so the reason
    # names the translate combination 3 * s^(0)
    v = member_strong_genericity(FiniteSupport({3: F(2, 5)}))
    assert v.kind == "not_strongly_generic"
    assert "translate combination" in v.reason


def test_member_strong_genericity_other_cases():
    assert member_strong_genericity(Geometric(2)).kind == "strongly_generic"
    assert (
        member_strong_genericity(Scaled(Geometric(2), -1)).kind == "strongly_generic"
    )
    assert member_strong_genericity(CONST1).kind == "not_strongly_generic"
    assert member_strong_genericity(Weighted(Geometric(2))).kind == "strongly_generic"


# ---------------------------------------------------------------------------
# strong genericity: sets, and the cutoff identity
# ---------------------------------------------------------------------------


def test_cutoff_identity_numeric():
    """j * a^(-1) - a^(0) = -j * delta_1 for one-sided geometrics."""
    for j in (F(2), F(3), F(5, 2)):
        a = Geometric(j)
        for i in range(-10, 11):
            lhs = j * a.entry(i - 1) - a.entry(i)
            assert lhs == (-j if i == 1 else 0), (j, i)


def test_two_geometrics_dependent_combination():
    """3*(2*a^(-1) - a^(0)) - 2*(3*b^(-1) - b^(0)) vanishes identically."""
    a, b = Geometric(2), Geometric(3)
    for i in range(-20, 21):
        s = 3 * (2 * a.entry(i - 1) - a.entry(i)) - 2 * (
            3 * b.entry(i - 1) - b.entry(i)
        )
        assert s == 0, i


def test_finite_pair_dependent_combination():
    """Convolving each polynomial with the other sequence agrees."""
    f = FiniteSupport({0: 1, 1: 1})
    g = FiniteSupport({0: 1, 1: -1, 3: 2})
    for i in range(-8, 9):
        fg = sum(c * g.entry(i - k) for k, c in f.items())
        gf = sum(c * f.entry(i - k) for k, c in g.items())
        assert fg == gf, i


def test_delta_in_geometric_translate_span():
    """delta_k = -(1/j) * (j * a^(-k) - a^(1-k))."""
    j = F(3)
    a = Geometric(j)
    for k in range(-3, 4):
        for i in range(-9, 10):
            combo = -(1 / j) * (j * a.entry(i - k) - a.entry(i + 1 - k))
            assert combo == (1 if i == k else 0), (k, i)


class NoTails(seqspace.BiSequence):
    """A sequence class with no tail normal form."""

    def entry(self, i):
        return F(i * i)


def test_set_verdicts():
    assert is_strongly_generic_set([]).is_strongly_generic
    assert is_strongly_generic_set([Geometric(2)]).is_strongly_generic

    v = is_strongly_generic_set([Geometric(2), Geometric(3)])
    assert v.kind == "not_strongly_generic"
    assert "cutoff identity" in v.reason

    v = is_strongly_generic_set([Geometric(2), Shifted(Geometric(2), 4)])
    assert v.kind == "not_strongly_generic"
    assert "proportional" in v.reason

    v = is_strongly_generic_set([Geometric(2), FiniteSupport({0: 1, 1: 1})])
    assert v.kind == "not_strongly_generic"
    assert "translate span" in v.reason

    v = is_strongly_generic_set(
        [FiniteSupport({0: 1, 1: 1}), FiniteSupport({0: 1, 1: -1})]
    )
    assert v.kind == "not_strongly_generic"
    assert "finite supports" in v.reason

    # a failing member short-circuits with its index
    v = is_strongly_generic_set([Geometric(2), CONST1])
    assert v.kind == "not_strongly_generic" and v.reason.startswith("member 1")

    # an undecidable member keeps the set undecided when nothing fails
    v = is_strongly_generic_set([Shifted(NoTails(), 1)])
    assert (v.kind, v.reason) == ("unknown", "member 0: no decision procedure for Shifted")


# the full reason strings that check-seq prints and writes to its report
PINNED_SET_REASONS = [
    (
        [FiniteSupport({0: 1, 1: 1}), FiniteSupport({0: 1, 1: -1})],
        "members 0 and 1: finite supports: applying each member's polynomial "
        "to the other's translates gives the same product sequence, a "
        "vanishing cross combination",
    ),
    (
        [Geometric(2), FiniteSupport({0: 1, 1: 1})],
        "members 0 and 1: every delta_k equals the translate combination "
        "-(1/2)*(2*a^(-k) - a^(1-k)) of the geometric member, so the "
        "finite-support member lies in its translate span",
    ),
    (
        [FiniteSupport({-1: 3, 2: F(1, 2)}), Scaled(Geometric(3), -2)],
        "members 0 and 1: every delta_k equals the translate combination "
        "-(1/3)*(3*a^(-k) - a^(1-k)) of the geometric member, so the "
        "finite-support member lies in its translate span",
    ),
    (
        [Geometric(3), Scaled(Shifted(Geometric(3), 4), F(-1, 3))],
        "members 0 and 1: proportional translates: both are scaled shifts of "
        "the geometric sequence with ratio 3",
    ),
    (
        [Geometric(2), Shifted(Geometric(F(7, 3)), -1)],
        "members 0 and 1: cutoff identity j*a^(-1) - a^(0) = -j*delta_1 for "
        "ratios 2 and 7/3: the delta_1 residues cancel across the pair, a "
        "vanishing combination of four translates",
    ),
    (
        [Geometric(F(5, 2)), FiniteSupport({0: 1, 1: 1})],
        "members 0 and 1: every delta_k equals the translate combination "
        "-(1/(5/2))*((5/2)*a^(-k) - a^(1-k)) of the geometric member, so the "
        "finite-support member lies in its translate span",
    ),
]


@pytest.mark.parametrize("seqs, reason", PINNED_SET_REASONS, ids=range(6))
def test_pinned_pair_reasons(seqs, reason):
    v = is_strongly_generic_set(seqs)
    assert (v.kind, v.reason) == ("not_strongly_generic", reason)


PINNED_MEMBER_REASONS = [
    (FiniteSupport({}), "the zero sequence is dependent", "zero sequence",
     FinVector({0: 1})),
    (FIB, "not generic (defining annihilator)", "defining annihilator",
     FinVector({0: -1, 1: -1, 2: 1})),
    (Recurrence(FinVector({0: 2}), []), "the zero sequence is dependent",
     "defining annihilator", FinVector({0: 2})),
]


@pytest.mark.parametrize(
    "s, member, generic, witness", PINNED_MEMBER_REASONS, ids=range(3)
)
def test_pinned_member_reasons(s, member, generic, witness):
    v = member_strong_genericity(s)
    assert (v.kind, v.reason) == ("not_strongly_generic", member)
    g = is_generic(s)
    assert (g.kind, g.reason, g.witness) == ("not_generic", generic, witness)


# a finite member's reason is read off its support (member_strong_genericity)
PINNED_FINITE_REASONS = [
    (FiniteSupport({0: 1}), "not_strongly_generic",
     "weighted sequence (i*s_i) is zero (support {0})"),
    (FiniteSupport({3: F(2, 5)}), "not_strongly_generic",
     "weighted sequence (i*s_i) is the translate combination "
     "FiniteSupport({0: Fraction(3, 1)}) applied to the member"),
    (Weighted(FiniteSupport({-1: 1, 0: 5})), "not_strongly_generic",
     "weighted sequence (i*s_i) is the translate combination "
     "FiniteSupport({0: Fraction(-1, 1)}) applied to the member"),
    (Scaled(Shifted(FiniteSupport({0: 7}), -2), F(1, 3)), "not_strongly_generic",
     "weighted sequence (i*s_i) is the translate combination "
     "FiniteSupport({0: Fraction(2, 1)}) applied to the member"),
    (FiniteSupport({-2: 1, 5: F(-3, 4)}), "strongly_generic",
     "finite support; weighted sequence is not a Laurent multiple"),
]


@pytest.mark.parametrize("s, kind, reason", PINNED_FINITE_REASONS, ids=range(5))
def test_pinned_finite_member_reasons(s, kind, reason):
    v = member_strong_genericity(s)
    assert (v.kind, v.reason) == (kind, reason)


def test_finite_members_against_sympy_divisibility():
    # random finite members, bare or wrapped, with their entries tracked
    # by hand: strongly generic iff sympy finds F does not divide x * F'
    rng = random.Random(22)
    seen = set()
    for _ in range(150):
        entries = {
            i: F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
            for i in rng.sample(range(-4, 5), rng.randint(1, 3))
        }
        s = FiniteSupport(entries)
        for _ in range(rng.randint(0, 2)):
            wrap = rng.randrange(3)
            if wrap == 0:
                o = rng.randint(-3, 3)
                s, entries = Shifted(s, o), {i - o: c for i, c in entries.items()}
            elif wrap == 1:
                k = rng.choice([2, -1, F(1, 3)])
                s, entries = Scaled(s, k), {i: k * c for i, c in entries.items()}
            else:
                s, entries = Weighted(s), {i: i * c for i, c in entries.items() if i}
        kind = member_strong_genericity(s).kind
        if not entries:
            assert kind == "not_strongly_generic", s
            seen.add("zero")
            continue
        assert (kind == "strongly_generic") == (not oracles.weighting_divides(entries)), s
        seen.add(min(len(entries), 2) if set(entries) != {0} else 0)
    assert seen == {"zero", 0, 1, 2}


def test_sequence_wrappers_are_frozen_values():
    g = Geometric(2)
    for obj, field in ((g, "j"), (Shifted(g, 1), "offset"), (Scaled(g, 3), "factor"),
                       (Weighted(g), "base"), (Shifted(g, 1), "base")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 5)
    for a, b in ((Geometric(2), Geometric("2")),
                 (Shifted(g, 1), Shifted(Geometric(2), 1)),
                 (Scaled(g, F(1, 2)), Scaled(Geometric(2), "1/2")),
                 (Weighted(Shifted(g, 1)), Weighted(Shifted(Geometric(2), 1)))):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Shifted(g, 1) != Scaled(g, 1) and Scaled(g, 1) != Shifted(g, 1)
    assert Shifted(g, 1) != Shifted(g, 2) and Scaled(g, 2) != Scaled(Geometric(3), 2)
    for build, args in ((Geometric, (1,)), (Scaled, (FIB, 0)), (Shifted, (FIB, 1.5))):
        with pytest.raises(ValueError):
            build(*args)


# ---------------------------------------------------------------------------
# the tail normal form: every nesting of wrappers is decided
# ---------------------------------------------------------------------------

G2 = Geometric(2)
R = Recurrence(FinVector({0: 1, 2: 1}), [1, 0])  # 1 + S^2 kills it


def apply_poly(p, s, i):
    """(p(S)s)_i = sum_k p_k s_{i+k}, straight from the entries."""
    return sum((c * s.entry(i + k) for k, c in p.items()), F(0))


def kills_translates(v, s, lo=-30, hi=30):
    return all(pairing(v, Shifted(s, n)) == 0 for n in range(lo, hi + 1))


def test_shifted_and_scaled_weighted_geometric_are_generic():
    for s in (Shifted(Weighted(G2), 1), Scaled(Weighted(G2), 2), Weighted(G2)):
        assert is_generic(s).kind == "generic", s


def test_weighted_recurrence_is_not_generic_with_squared_witness():
    v = is_generic(Weighted(R))
    assert v.kind == "not_generic"
    assert v.witness == FinVector({0: 1, 2: 2, 4: 1})  # (1 + S^2)^2
    assert kills_translates(v.witness, Weighted(R))
    # i * R_i is not killed by 1 + S^2 itself
    assert not kills_translates(R.v, Weighted(R))


@pytest.mark.parametrize(
    "s",
    [Weighted(G2), Shifted(Weighted(G2), 1), Scaled(Weighted(G2), -3),
     Weighted(Weighted(G2))],
    ids=range(4),
)
def test_weighted_members_are_strongly_generic(s):
    assert member_strong_genericity(s).kind == "strongly_generic"
    assert window_rank_check([s], 3, 12).full_rank


def test_weighted_members_that_are_not_strongly_generic():
    v = member_strong_genericity(Weighted(FIB))
    assert v.kind == "not_strongly_generic" and v.reason.startswith("not generic")
    v = member_strong_genericity(Weighted(Shifted(FiniteSupport({1: 1}), 1)))
    assert v.reason == "the zero sequence is dependent"


def residue_poly(s):
    """(T, F) with T from is_generic and T(S)s = F(S)delta_0, i.e. F_k is
    entry -k of T(S)s, read off a window wider than the tails."""
    lo, hi, t = seqspace._tails(s)
    f = {-i: apply_poly(t, s, i) for i in range(lo - 40, hi + 40)}
    return t, FinVector({k: c for k, c in f.items() if c})


def laurent_mul(p, q):
    out = {}
    for i, a in p.items():
        for k, b in q.items():
            linalg.add_term(out, i + k, a * b)
    return FinVector(out)


@pytest.mark.parametrize(
    "a, b",
    [(Weighted(G2), G2), (Shifted(Weighted(G2), 1), FiniteSupport({0: 1, 2: -1})),
     (Scaled(Weighted(Geometric(3)), 2), Weighted(FiniteSupport({1: 1, 2: 1})))],
    ids=range(3),
)
def test_general_pair_combination_vanishes(a, b):
    v = is_strongly_generic_set([a, b])
    assert v.kind == "not_strongly_generic"
    assert v.reason.startswith("members 0 and 1: tail annihilators")
    t_a, f_a = residue_poly(a)
    t_b, f_b = residue_poly(b)
    assert not f_a.is_zero() and not f_b.is_zero()
    q_a, q_b = laurent_mul(f_b, t_a), laurent_mul(f_a, t_b)
    for i in range(-30, 31):
        assert apply_poly(q_a, a, i) == apply_poly(q_b, b, i), i


def test_weighted_fibonacci_minimal_annihilator_has_width_four():
    w = Weighted(FIB)
    v = minimal_annihilator(w)
    assert v.width() == 4 and size(w) == 4
    assert kills_translates(v, w)
    got = oracles.brute_annihilator(w.entry)
    assert got is not None and got[-1][0] - got[0][0] == 4


def test_width_zero_unit_recurrence_is_the_zero_sequence():
    s = Recurrence(FinVector({0: 1}), [])
    v = is_generic(s)
    assert (v.kind, v.reason, v.witness) == ("not_generic", "zero sequence", FinVector({0: 1}))
    assert v.witness is s.v


def test_translate_of_a_recurrence_is_shifted():
    t = Shifted(FIB, 3)
    assert seqspace._tails(t) == (-3, -3, FIB.v)
    assert is_generic(t).witness is FIB.v


def random_tower(rng, depth):
    """A random Shifted/Scaled/Weighted tower over the three classes."""
    kind = rng.randrange(3)
    if kind == 0:
        s = FiniteSupport({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))})
    elif kind == 1:
        s = Geometric(rng.choice([2, 3, F(5, 2)]))
    else:
        width = rng.randint(1, 2)
        v = {k: rng.randint(-2, 2) for k in range(width)}
        v[0] = v[0] or 1
        v[width] = rng.choice([1, -1, 2])
        s = Recurrence(FinVector(v), [rng.randint(-2, 2) for _ in range(width)])
    for _ in range(rng.randint(0, depth)):
        wrap = rng.randrange(3)
        if wrap == 0:
            s = Shifted(s, rng.randint(-3, 3))
        elif wrap == 1:
            s = Scaled(s, rng.choice([2, -1, F(1, 3)]))
        else:
            s = Weighted(s)
    return s


def test_random_towers_against_the_oracles():
    rng = random.Random(20261019)
    for _ in range(60):
        s = random_tower(rng, 3)
        lo, hi, p = seqspace._tails(s)
        # the tail polynomial holds on both sides of [-40, 40]
        assert all(apply_poly(p, s, i) == 0 for i in range(-40, lo - p.width() + 1))
        assert all(apply_poly(p, s, i) == 0 for i in range(hi, 41 - p.width()))
        fin = seqspace.member_record(s).core
        if fin is not None:
            assert all(fin.entry(i) == s.entry(i) for i in range(-40, 41))
        v = is_generic(s)
        if v.kind == "not_generic":
            assert kills_translates(v.witness, s)
            assert kills_translates(minimal_annihilator(s), s)
        else:
            assert v.kind == "generic"
            for width in range(1, 5):
                rows = [[s.entry(n + k) for k in range(width)] for n in range(-12, 13)]
                assert oracles.sympy_dense_rank(rows) == width, s
        if member_strong_genericity(s).kind == "strongly_generic":
            assert window_rank_check([s], 3, 12).full_rank, s


def test_member_record_reads_one_window_per_member(monkeypatch):
    # z, the verdict and the finite core come from one integer window of
    # the member; a member with no tail form reads none
    rng = random.Random(34)
    towers = [random_tower(rng, 3) for _ in range(40)]
    for s in WRAPPED + towers + [NoTails(), TwoRatio(), Weighted(NoTails())]:
        cls, reads = type(s), []
        window = cls.int_window

        def counted(self, lo, hi, window=window, s=s, reads=reads):
            if self is s:
                reads.append((lo, hi))
            return window(self, lo, hi)

        with monkeypatch.context() as m:
            m.setattr(cls, "int_window", counted)
            rec = seqspace.member_record(s)
        if rec.tails is None:
            assert reads == [] and rec.verdict.kind == "unknown", s
        else:
            lo, hi, p = rec.tails
            assert reads == [(lo - p.width() + 1, hi + p.width() - 1)], s


# recurrences with |c_0| > 1 and |c_omega| > 1, one with fractional data
WIDE_ENDS = [
    Recurrence(FinVector({0: 2, 1: -3, 2: 3}), [1, -2]),
    Recurrence(FinVector({0: -3, 1: 1, 2: 2}), [F(1, 2), 3]),
    Recurrence(FinVector({0: F(1, 2), 1: 1, 2: F(-2, 3)}), [F(-1, 3), F(5, 7)]),
    Recurrence(FinVector({0: 5, 3: -4}), [1, 0, -1]),
]
INT_WINDOW_CASES = WIDE_ENDS + [
    FIB,
    CONST1,
    Recurrence(FinVector({0: 3}), []),
    FiniteSupport({}),
    FiniteSupport({-2: F(3, 4), 1: -5, 4: F(1, 6)}),
    Geometric(3),
    Geometric(F(5, 2)),
    Scaled(WIDE_ENDS[1], F(-4, 9)),
    Scaled(Geometric(F(7, 3)), -2),
    Weighted(WIDE_ENDS[0]),
    Weighted(Recurrence(FinVector({0: 1, 1: -2, 2: 1}), [F(1, 3), 2])),
    Shifted(WIDE_ENDS[2], 4),
    Shifted(Weighted(Scaled(WIDE_ENDS[3], F(-3, 2))), -5),
    Weighted(Shifted(Geometric(F(5, 2)), -3)),
    Scaled(Weighted(Shifted(FiniteSupport({0: F(2, 3), 2: -1}), 1)), -1),
]
# left of, straddling and right of [0, omega - 1], one entry, and empty
INT_WINDOWS = [(-9, -3), (-6, 7), (0, 1), (2, 11), (5, 5), (-1, -1), (3, 2), (0, -1)]


@pytest.mark.parametrize("s", INT_WINDOW_CASES, ids=range(len(INT_WINDOW_CASES)))
def test_int_window_is_the_fraction_window_over_one_positive_denominator(s):
    for lo, hi in INT_WINDOWS:
        d, nums = s.int_window(lo, hi)
        want = oracles.fraction_window(s, lo, hi)
        assert type(d) is int and d > 0, (s, lo, hi)
        assert all(type(n) is int for n in nums), (s, lo, hi)
        assert [F(n, d) for n in nums] == want, (s, lo, hi)
        assert [s.entry(i) for i in range(lo, hi + 1)] == want


def test_int_window_of_random_towers():
    rng = random.Random(28)
    for _ in range(80):
        s = random_tower(rng, 3)
        lo = rng.randint(-12, 8)
        hi = lo + rng.randint(-1, 14)
        d, nums = s.int_window(lo, hi)
        assert d > 0 and [F(n, d) for n in nums] == oracles.fraction_window(s, lo, hi), s


def test_int_window_default_reads_entries():
    # a class that defines only entry gets int_window from it
    d, nums = NoTails().int_window(-2, 2)
    assert d == 1 and nums == [4, 1, 0, 1, 4]
    d, nums = TwoRatio().int_window(-2, 1)
    assert d == 4 and nums == [1, 2, 4, 12]
    assert NoTails().int_window(1, 0) == (1, [])


def test_entry_is_the_one_entry_int_window_of_random_towers():
    rng = random.Random(32)
    for _ in range(40):
        s = random_tower(rng, 3)
        d, nums = s.int_window(-40, 40)
        for i in range(-40, 41):
            got = s.entry(i)
            assert type(got) is F and got == F(nums[i + 40], d), (s, i)


def test_a_class_with_entry_only_reads_alike_through_both_accessors():
    for s in (NoTails(), TwoRatio(), Shifted(TwoRatio(), 2), Weighted(NoTails())):
        d, nums = s.int_window(-9, 9)
        assert [s.entry(i) for i in range(-9, 10)] == [F(n, d) for n in nums], s


class Neither(seqspace.BiSequence):
    """A sequence class that defines neither accessor."""


@pytest.mark.parametrize(
    "read",
    [lambda s: s.entry(0), lambda s: s.int_window(-2, 2), lambda s: Shifted(s, 1).entry(3)],
    ids=["entry", "int_window", "shifted"],
)
def test_a_class_with_neither_accessor_raises_not_implemented(read):
    with pytest.raises(NotImplementedError, match="Neither defines neither entry nor int_window"):
        read(Neither())


# every package class, bare and under nested wrappers
ENTRY_CASES = [
    FiniteSupport({1: 1}),
    Geometric(2),
    FIB,
    Shifted(FiniteSupport({1: 1}), 1),
    Shifted(Geometric(2), -1),
    Weighted(Geometric(F(5, 2))),
    Scaled(FIB, 3),
    Shifted(Weighted(Shifted(FIB, 2)), -3),
    Scaled(Shifted(Geometric(3), 1), F(-1, 2)),
    Weighted(Scaled(Shifted(FiniteSupport({0: 2}), 1), 2)),
    Shifted(Shifted(Recurrence(FinVector({0: 1, 1: 1}), [2]), 4), -4),
]


@pytest.mark.parametrize("s", ENTRY_CASES, ids=range(len(ENTRY_CASES)))
@pytest.mark.parametrize("i", [True, 2.0, "1"], ids=["bool", "float", "str"])
def test_entry_refuses_a_non_int_index_and_names_it(s, i):
    # a wrapper does no index arithmetic before the one integer check
    with pytest.raises(ValueError, match=f"index must be an int, got {re.escape(repr(i))}$"):
        s.entry(i)


# every class's int_window, the default that reads entry included
WINDOW_CASES = [
    FiniteSupport({1: 1}),
    Geometric(2),
    FIB,
    Shifted(Geometric(2), -1),
    Weighted(FIB),
    Scaled(FIB, 3),
    NoTails(),
]


@pytest.mark.parametrize("s", WINDOW_CASES, ids=[type(s).__name__ for s in WINDOW_CASES])
@pytest.mark.parametrize("bound", [True, 2.0, 0.0], ids=["bool", "float", "zero-float"])
def test_int_window_refuses_a_non_int_bound_and_names_it(s, bound):
    # a bool is not taken for 1, nor a float passed on to range
    for lo, hi, which in ((bound, 2, "lo"), (0, bound, "hi")):
        want = f"window bound {which} must be an int, got {re.escape(repr(bound))}$"
        with pytest.raises(ValueError, match=want):
            s.int_window(lo, hi)


# ---------------------------------------------------------------------------
# window rank evidence
# ---------------------------------------------------------------------------


def test_window_rank_single_geometric():
    info = window_rank_check([Geometric(2)], 2, 10, True)
    assert (info.full_rank, info.rank, info.count) == (True, 6, 6)
    assert info.ncols == 21


def test_window_rank_geometric_family_deficient():
    seqs = [Geometric(2), Geometric(3), Geometric(F(5, 2))]
    info = window_rank_check(seqs, 6, 20, True)
    assert (info.full_rank, info.rank, info.count, info.ncols) == (
        False,
        18,
        42,
        41,
    )


def test_window_rank_matches_sympy(monkeypatch):
    seqs = [Geometric(2), FiniteSupport({0: 1, 2: -1}), FIB]
    seen = record_rank_rows(monkeypatch)
    info = window_rank_check(seqs, 3, 8, True)
    rows = window_rows_ascending(seqs, 3, 8)
    # Geometric(2) (T = S - 2, z = 2*delta_0) passes x^(0), then z^(u) =
    # 2*delta_{-u} for u = -3..2, then its weighted row; the finite member
    # (T = 1, z = x) its seven translates as z-rows, then its weighted
    # row; FIB (z = 0) its first two translates, then its weighted row
    assert seen == [reduced_rows(seqs, 3, 8)] and len(seen[0]) == 19
    # each row is passed as its primitive integer multiple
    assert seen[0][1:7] == [{-u: 1} for u in range(-3, 3)]
    assert info.rank == oracles.sympy_dense_rank(rows)
    assert info.count == len(rows) == 24


def window_rows_ascending(seqs, S, W, with_weighted=True):
    """Each member's translates s = -S..S, then its weighted row when
    ``with_weighted``."""
    rows = []
    for s in seqs:
        for off in range(-S, S + 1):
            rows.append([s.entry(i + off) for i in range(-W, W + 1)])
        if with_weighted:
            w = weighted(s)
            rows.append([w.entry(i) for i in range(-W, W + 1)])
    return rows


def sparse(dense_rows):
    return [{j: v for j, v in enumerate(row) if v} for row in dense_rows]


def tail_witness(s):
    """T of :func:`is_generic`: the polynomial P of the tail form."""
    return seqspace._tails(s)[2]


def primitive(row):
    """A nonzero rational row times the positive rational that makes its
    entries integers with gcd 1; an empty row as it is."""
    if not row:
        return row
    den = math.lcm(*(F(v).denominator for v in row.values()))
    ints = {i: int(F(v) * den) for i, v in row.items()}
    g = math.gcd(*ints.values())
    return {i: v // g for i, v in ints.items()}


def reduced_rows(seqs, S, W0, with_weighted=True):
    """The rows window_rank_check passes, from entries alone, each in its
    primitive integer form.  Per member with witness T, omega = omega(T):
    its first min(omega, 2S + 1) translates centre-out, then each z^(u),
    -S <= u <= S - omega, of z = T(S)x that is nonzero on [-W0, W0], then
    its weighted row; a member with no tail form passes all 2S + 1
    translates."""
    shifts = [0] + [o for n in range(1, S + 1) for o in (n, -n)]
    window = range(-W0, W0 + 1)
    rows = []
    for s in seqs:
        t = None if seqspace._tails(s) is None else tail_witness(s)
        omega = len(shifts) if t is None else t.width()
        for off in shifts[:omega]:
            rows.append({i: s.entry(i + off) for i in window if s.entry(i + off)})
        for u in range(-S, S - omega + 1):
            z = {i: sum(c * s.entry(i + u + k) for k, c in t.items()) for i in window}
            if any(z.values()):
                rows.append({i: v for i, v in z.items() if v})
        if with_weighted:
            rows.append({i: i * s.entry(i) for i in window if i * s.entry(i)})
    return [primitive(row) for row in rows]


def record_rank_rows(monkeypatch):
    """Patch linalg.rank; the list gets the rows of each call."""
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: seen.append(rows) or rank(rows))
    return seen


def window_of(rows):
    """W0 read from the rows: the largest column key in absolute value."""
    return max((abs(c) for row in rows for c in row), default=None)


def random_window_member(rng):
    """A recurrence, possibly wrapped, FIB, the zero sequence, a geometric
    or a nonzero finite sequence."""
    kind = rng.randrange(6)
    if kind < 2:
        width = rng.randint(1, 3)
        v = {k: rng.randint(-2, 2) for k in range(1, width)}
        v[0], v[width] = rng.choice([1, -1, 2]), rng.choice([1, -1, 3])
        s = Recurrence(FinVector(v), [rng.randint(-2, 2) for _ in range(width)])
        if kind == 1:
            s = rng.choice([Shifted(s, rng.randint(-3, 3)), Scaled(s, F(-2, 3)), Weighted(s)])
        return s
    if kind == 2:
        return FIB
    if kind == 3:
        return FiniteSupport({})
    if kind == 4:
        return Geometric(rng.choice([2, 3, F(5, 2)]))
    return FiniteSupport({rng.randint(-4, 4): rng.randint(1, 3) for _ in range(rng.randint(1, 3))})


def test_window_rank_drops_the_translates_an_annihilator_spans(monkeypatch):
    # a non-generic member with witness T passes its first min(omega(T),
    # 2S + 1) translates centre-out and no z-row, a generic one those
    # translates and the z-rows, and each member its weighted row; the
    # rank is that of all the rows
    rng = random.Random(24)
    seen = record_rank_rows(monkeypatch)
    reduced = clipped = 0
    for trial in range(48):
        seqs = [random_window_member(rng) for _ in range(rng.randint(1, 4))]
        S = rng.randint(0, 4)
        W = rng.randint(S, 30)
        flag = trial % 2 == 0
        info = window_rank_check(seqs, S, W, flag)
        rows = seen.pop()
        full = sparse(window_rows_ascending(seqs, S, W, flag))
        assert info.rank == linalg.rank(full) and info.count == len(full), (seqs, S, W, flag)
        seen.clear()
        if trial < 4:
            assert info.rank == oracles.sympy_dense_rank(window_rows_ascending(seqs, S, W, flag))
        W0 = window_of(rows)
        assert W0 is None or W0 <= W
        assert rows == reduced_rows(seqs, S, W0 or 0, flag), (seqs, S, W, flag)
        for s in seqs:
            verdict = is_generic(s)
            if verdict.kind == "not_generic":
                reduced += verdict.witness.width() < 2 * S + 1
                clipped += verdict.witness.width() >= 2 * S + 1
    assert reduced >= 20 and clipped >= 3


def test_window_rank_of_the_reduced_rows_is_the_full_rank():
    # families of wrapped members and a member with no tail form: the rows
    # passed have the rank of all the rows, by linalg.rank and by sympy
    rng = random.Random(27)
    wrappers = (
        lambda s: Shifted(s, rng.randint(-3, 3)),
        lambda s: Scaled(s, rng.choice([2, F(-1, 3)])),
        Weighted,
    )
    by_sympy = 0
    for trial in range(96):
        seqs = []
        for _ in range(rng.randint(1, 4)):
            s = NoTails() if rng.random() < 0.15 else random_window_member(rng)
            for _ in range(rng.randint(0, 2)):
                s = rng.choice(wrappers)(s)
            seqs.append(s)
        S = rng.randint(0, 4)
        W = rng.randint(S, 24)
        flag = trial % 2 == 0
        info = window_rank_check(seqs, S, W, flag)
        full = window_rows_ascending(seqs, S, W, flag)
        assert info.rank == linalg.rank(sparse(full)), (seqs, S, W, flag)
        assert info.count == len(full) and info.ncols == 2 * W + 1
        if trial % 10 == 0:
            assert info.rank == oracles.sympy_dense_rank(full), (seqs, S, W, flag)
            by_sympy += 1
    assert by_sympy >= 8


class TwoRatio(seqspace.BiSequence):
    """2^i for i <= 0 and 3^i for i > 0."""

    def entry(self, i):
        return F(2) ** i if i <= 0 else F(3) ** i


def test_window_rows_use_both_tail_polynomials(monkeypatch):
    # no class of the package has tails with two different ratios; give
    # TwoRatio the one polynomial T = (S - 2)(S - 3), which holds on both:
    # S - 2 kills (-inf, 0] and S - 3 kills [1, inf), so z = T(S)x is
    # finite, on (-2, 1)
    x = TwoRatio()
    assert all(x.entry(i + 1) == 2 * x.entry(i) for i in range(-20, 0))
    assert all(x.entry(i + 1) == 3 * x.entry(i) for i in range(1, 20))
    form = (0, 1, FinVector({0: 6, 1: -5, 2: 1}))
    tails = seqspace._tails
    monkeypatch.setattr(
        seqspace, "_tails", lambda s: form if isinstance(s, TwoRatio) else tails(s)
    )
    assert is_generic(x).kind == "generic"
    seen = record_rank_rows(monkeypatch)
    for seqs, S, W in (([x], 3, 12), ([x, Geometric(2)], 2, 15), ([FIB, x], 4, 20)):
        for flag in (True, False):
            info = window_rank_check(seqs, S, W, flag)
            rows = seen.pop()
            assert rows == reduced_rows(seqs, S, window_of(rows), flag)
            assert info.rank == oracles.sympy_dense_rank(window_rows_ascending(seqs, S, W, flag))
            # x passes x^(0), x^(1) and S - 1 + S + 1 = 2S - 1 z-rows
            assert sum(len(row) <= 2 for row in rows) >= 2 * S - 1


def count_prime_draws(monkeypatch):
    """Patch linalg._primes; entry k of the list counts the primes drawn
    by the k-th elimination from then on."""
    draws = []
    primes = linalg._primes

    def counted():
        k = len(draws)
        draws.append(0)
        for p in primes():
            draws[k] += 1
            yield p

    monkeypatch.setattr(linalg, "_primes", counted)
    return draws


# the seed-0 seq-window family int+int+geo+rec#0 of the benchmark
ONE_PRIME_FAMILY = [
    Geometric(17),
    Geometric(19),
    Geometric(F(7, 3)),
    Recurrence(FinVector({0: 1, 2: 1}), [2, F(-3, 2)]),
]


def test_centre_out_window_rank_certifies_with_one_prime(monkeypatch):
    # the benchmark family's window rank is certified on 2^127 - 1 alone
    draws = count_prime_draws(monkeypatch)
    info = window_rank_check(ONE_PRIME_FAMILY, 8, 32, True)
    assert (info.rank, info.count) == (25, 72)
    assert draws == [1]


@pytest.mark.parametrize(
    "seqs, S, W",
    [
        ([Geometric(2), FiniteSupport({0: 1, 2: -1}), FIB], 3, 8),
        (ONE_PRIME_FAMILY, 3, 10),
    ],
)
def test_window_rank_does_not_depend_on_row_order(seqs, S, W):
    rows = window_rows_ascending(seqs, S, W)
    rng = random.Random(S * 1000 + W)
    for _ in range(4):
        rng.shuffle(rows)
        assert linalg.rank(sparse(rows)) == oracles.sympy_dense_rank(rows)


def test_window_bound_gives_the_full_window_rank(monkeypatch):
    # W0 < W eliminates fewer columns and must not change the rank
    rng = random.Random(20261019)
    seen = record_rank_rows(monkeypatch)
    shrunk = 0
    for _ in range(40):
        seqs = [random_tower(rng, 2) for _ in range(rng.randint(1, 3))]
        for lo, hi, p in map(seqspace._tails, seqs):
            assert lo <= hi  # the bound's proof uses it
        S = rng.randint(0, 5)
        W = rng.randint(S, 45)
        flag = rng.random() < 0.5
        info = window_rank_check(seqs, S, W, flag)
        W0 = window_of(seen.pop())
        full = window_rows_ascending(seqs, S, W, flag)
        assert info.rank == linalg.rank(sparse(full)), (seqs, S, W, flag)
        assert info.count == len(full) and info.ncols == 2 * W + 1
        assert W0 is None or W0 <= W
        shrunk += W0 is not None and W0 < W
        seen.clear()
    assert shrunk >= 20


@pytest.mark.parametrize("offset, W0", [(30, 33), (-30, 34)])
def test_window_bound_follows_shifted_tails(monkeypatch, offset, W0):
    # lo = -30 (offset 30) and hi = 31 (offset -30) set the bound
    seqs = [Shifted(Geometric(2), offset), FiniteSupport({0: 1, 2: -1})]
    seen = record_rank_rows(monkeypatch)
    info = window_rank_check(seqs, 2, 45, True)
    assert [window_of(rows) for rows in seen] == [W0]
    assert seen == [reduced_rows(seqs, 2, W0)]
    full = sparse(window_rows_ascending(seqs, 2, 45))
    assert info.rank == linalg.rank(full) == info.count == 12


def test_window_bound_is_tight(monkeypatch):
    # FiniteSupport({5: 1}) has tails (4, 6, 1, 1): W0 = 5, and on [-4, 4]
    # the member is zero, so a bound one smaller would read rank 0
    seqs = [FiniteSupport({5: 1})]
    seen = record_rank_rows(monkeypatch)
    assert window_rank_check(seqs, 0, 20, False).rank == 1
    assert seen == [[{5: F(1)}]] and window_of(seen[0]) == 5
    assert linalg.rank(sparse(window_rows_ascending(seqs, 0, 4, False))) == 0


def test_window_rank_empty_and_validation():
    info = window_rank_check([], 2, 5, True)
    assert info.full_rank and info.rank == 0 and info.count == 0
    with pytest.raises(ValueError):
        window_rank_check([Geometric(2)], 5, 3, True)


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------


def test_literal_round_trips():
    cases = [
        ({"kind": "finite", "entries": {"-1": "1/2", "4": "-3"}},
         FiniteSupport({-1: F(1, 2), 4: -3})),
        ({"kind": "geometric", "j": "7/3"}, Geometric(F(7, 3))),
        ({"kind": "recurrence", "v": {"0": "-1", "1": "-1", "2": "1"},
          "initial": ["0", "1"]},
         Recurrence(FinVector({0: -1, 1: -1, 2: 1}), [0, 1])),
        ({"kind": "geometric", "j": "2", "scale": "-2/9"},
         Scaled(Geometric(2), F(-2, 9))),
        ({"kind": "finite", "entries": {"0": "5"}, "scale": "3"},
         Scaled(FiniteSupport({0: 5}), F(3))),
    ]
    for lit, s in cases:
        back = sequence_from_literal(lit)
        assert back == s, lit
        for i in range(-6, 7):
            assert back.entry(i) == s.entry(i)


def test_literal_errors():
    with pytest.raises(ValueError):
        sequence_from_literal({"kind": "mystery"})
    with pytest.raises(ValueError):
        sequence_from_literal({"kind": "geometric"})
    with pytest.raises(ValueError):
        sequence_from_literal({"kind": "finite", "entries": {}, "bogus": 1})
    with pytest.raises(ValueError):
        sequence_from_literal({"kind": "recurrence", "v": {"0": "1"}})
    with pytest.raises(ValueError, match="digit separator"):
        sequence_from_literal({"kind": "finite", "entries": {"1_0": "1"}})
