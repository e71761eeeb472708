"""Bi-infinite sequence space: exact classes, genericity, window evidence."""

import random
from fractions import Fraction

import pytest

import oracles
from affwhit import (
    DegenerateAnnihilator,
    FinVector,
    FiniteSupport,
    Geometric,
    GenericInput,
    Recurrence,
    Scaled,
    Shifted,
    Weighted,
    annihilator_basis_window,
    is_generic,
    is_strongly_generic_set,
    linalg,
    member_strong_genericity,
    minimal_annihilator,
    pairing,
    reconstruct,
    sequence_from_literal,
    sequence_to_literal,
    size,
    translate,
    weighted,
    window_rank_check,
)
from affwhit import seqspace

F = Fraction

FIB = Recurrence(FinVector({0: -1, 1: -1, 2: 1}), [0, 1])
CONST1 = Recurrence(FinVector({0: -1, 1: 1}), [1])


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
    s = translate(a, 2)
    assert s.entry(1) == a.entry(3) == 27
    assert translate(s, -2) is a
    w = weighted(a)
    assert w.entry(4) == 4 * 81
    assert w.entry(-1) == 0
    sc = Scaled(a, F(-1, 2))
    assert sc.entry(2) == F(-9, 2)
    fin = FiniteSupport({0: 1, 3: -2})
    t = translate(fin, 1)
    assert t.entry(-1) == 1 and t.entry(2) == -2
    assert weighted(fin).entry(3) == -6


def test_translate_moves_vectors_and_sequences_oppositely():
    # a vector's support moves by +n, a sequence's by -n
    assert translate(FinVector({0: 1}), 2) == FinVector({2: 1})
    assert translate(FiniteSupport({0: 1}), 2) == FiniteSupport({-2: 1})
    v, a = FinVector({0: 1, 1: -3}), FIB
    for n in range(-3, 4):
        assert pairing(translate(v, n), a) == pairing(v, translate(a, n))
        assert translate(a, n).entry(0) == a.entry(n)


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
    fin = seqspace._finite_core(s)
    assert type(fin) is FiniteSupport
    assert all(fin.entry(i) == s.entry(i) for i in range(-12, 13))
    assert all(-12 <= i <= 12 for i in fin.support)


def test_geometric_and_recurrence_cores_see_through_shifts_and_scales():
    geo = Scaled(Shifted(Scaled(Geometric(3), 2), -4), F(1, 5))
    assert seqspace._geometric_core(geo) == Geometric(3)
    assert seqspace._geometric_core(Weighted(Geometric(3))) is None
    rec = Shifted(Scaled(Shifted(FIB, 2), -1), 3)
    assert seqspace._recurrence_core(rec) is FIB
    assert seqspace._recurrence_core(geo) is None
    assert seqspace._unwrap(rec) == (FIB, 5, F(-1))
    assert all(geo.entry(i) == F(2, 5) * Geometric(3).entry(i - 4) for i in range(-2, 9))
    assert minimal_annihilator(rec) == FinVector({0: 1, 1: 1, 2: -1})


def test_weighting_can_clear_a_shifted_finite_sequence():
    # the shift puts the only entry at index 0, where the weight is 0
    s = Weighted(Shifted(FiniteSupport({1: 1}), 1))
    assert all(s.entry(i) == 0 for i in range(-5, 6))
    assert seqspace.is_zero_sequence(s) is True
    assert size(s) == 0 and minimal_annihilator(s) == FinVector({0: 1})
    assert member_strong_genericity(s).kind == "not_strongly_generic"
    assert seqspace.is_zero_sequence(Weighted(Shifted(FiniteSupport({1: 1}), 2))) is False
    assert seqspace.is_zero_sequence(Weighted(Weighted(Geometric(2)))) is False
    assert seqspace.is_zero_sequence(Weighted(Scaled(FIB, 2))) is False
    assert seqspace.is_zero_sequence(Weighted(FiniteSupport({}))) is True


def test_pairing_conventions():
    v = FinVector({0: 1, 1: -1})
    fin = FiniteSupport({0: 2, 1: 3})
    assert pairing(v, fin) == -1
    assert pairing(fin, v) == -1
    assert pairing(v, Geometric(2)) == -2
    # <v, s^(n)> runs over the vector's support against shifted entries
    assert pairing(v, translate(Geometric(2), 3)) == 8 - 16


def test_finvector_normal_forms():
    v = FinVector({2: F(1, 2), 5: -1})
    assert v.l() == 2 and v.r() == 5 and v.width() == 3
    assert v.translate(4)[6] == F(1, 2)
    assert v.proportional(v * F(-7, 3))
    assert not v.proportional(FinVector({2: 1, 5: 1}))
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
    assert minimal_annihilator(translate(FIB, 7)) == FinVector({0: 1, 1: 1, 2: -1})
    assert minimal_annihilator(Scaled(FIB, F(3, 5))) == FinVector({0: 1, 1: 1, 2: -1})


def test_redundant_defining_annihilator_is_reduced():
    # defined by a width-2 recurrence but actually constant
    s = Recurrence(FinVector({0: 1, 1: -2, 2: 1}), [4, 4])
    assert all(s.entry(i) == 4 for i in range(-6, 7))
    assert minimal_annihilator(s) == FinVector({0: 1, 1: -1})
    assert size(s) == 1


def test_generic_input_raises():
    with pytest.raises(GenericInput):
        minimal_annihilator(Geometric(2))
    with pytest.raises(GenericInput):
        size(FiniteSupport({0: 1}))


def test_annihilator_basis_window():
    basis = annihilator_basis_window(FIB, (-3, 3))
    assert len(basis) == 5  # translates fitting a width-2 vector in [-3, 3]
    for v in basis:
        assert v.l() >= -3 and v.r() <= 3
        for n in range(-8, 9):
            assert pairing(v, translate(FIB, n)) == 0


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
        if s.is_zero():
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
        assert pairing(v.witness, translate(FIB, n)) == 0

    assert is_generic(Weighted(FIB)).kind == "unknown"


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
    # s with polynomial F = (1 + x)^2 has weighted polynomial
    # W = x d/dx F = 2x(1 + x), and F | W fails; but F = x(1+x) gives
    # W = x(1 + 2x) + x^2 ... compute honestly: s = delta_1 + delta_2,
    # weighted = delta_1 + 2 delta_2, and (x + x^2) | (x + 2x^2) fails.
    assert member_strong_genericity(FiniteSupport({1: 1, 2: 1})).kind == (
        "strongly_generic"
    )
    # genuinely divisible case: the quotient must be reported
    # F = x - x^2 (delta_1 - delta_2), W = x - 2x^2; W/F is not polynomial.
    # Divisible example: any monomial c*x^k, W = k*c*x^k = k * F.
    v = member_strong_genericity(FiniteSupport({3: F(2, 5)}))
    assert v.kind == "not_strongly_generic"
    assert "translate combination" in v.reason


def test_member_strong_genericity_other_cases():
    assert member_strong_genericity(Geometric(2)).kind == "strongly_generic"
    assert (
        member_strong_genericity(Scaled(Geometric(2), -1)).kind == "strongly_generic"
    )
    assert member_strong_genericity(CONST1).kind == "not_strongly_generic"
    assert member_strong_genericity(Weighted(Geometric(2))).kind == "unknown"


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
    v = is_strongly_generic_set([Weighted(Geometric(2))])
    assert v.kind == "unknown"


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
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: seen.append(rows) or rank(rows))
    info = window_rank_check(seqs, 3, 8, True)
    rows = []
    for s in seqs:
        for off in (0, 1, -1, 2, -2, 3, -3):  # translates centre-out
            rows.append([s.entry(i + off) for i in range(-8, 9)])
        w = weighted(s)
        rows.append([w.entry(i) for i in range(-8, 9)])
    assert seen == [rows]
    assert info.rank == oracles.sympy_dense_rank(rows)
    assert info.count == len(rows)


def window_rows_ascending(seqs, S, W):
    """Each member's translates s = -S..S, then its weighted row."""
    rows = []
    for s in seqs:
        for off in range(-S, S + 1):
            rows.append([s.entry(i + off) for i in range(-W, W + 1)])
        w = weighted(s)
        rows.append([w.entry(i) for i in range(-W, W + 1)])
    return rows


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
    # In ascending order the transposed reduced form writes dependent
    # translates in terms of pivots at s = -S, 2S steps away; its entries
    # outgrow what 2^127 - 1 alone reconstructs and a second prime is
    # drawn.  Centre-out keeps them within S steps of a pivot.
    draws = count_prime_draws(monkeypatch)
    assert linalg.rank(window_rows_ascending(ONE_PRIME_FAMILY, 8, 32)) == 25
    assert draws == [2]
    draws.clear()
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
        assert linalg.rank(rows) == oracles.sympy_dense_rank(rows)


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
        FiniteSupport({-1: F(1, 2), 4: -3}),
        Geometric(F(7, 3)),
        Recurrence(FinVector({0: -1, 1: -1, 2: 1}), [0, 1]),
        Scaled(Geometric(2), F(-2, 9)),
        Scaled(FiniteSupport({0: 5}), F(3)),
    ]
    for s in cases:
        lit = sequence_to_literal(s)
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
    with pytest.raises(ValueError):
        sequence_to_literal(Weighted(Geometric(2)))
