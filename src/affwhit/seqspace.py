"""Bi-infinite rational sequences and exact genericity tests.

A sequence here is a function Z -> Q.  The dual objects are finitely
supported vectors (class :class:`FinVector`); the pairing between a
sequence a and a vector v is the finite sum  <a, v> = sum_i v_i * a_i.

A sequence a is *generic* when the translates a^(n), defined by
a^(n)_i = a_{i+n}, are linearly independent over Q; equivalently, no
nonzero finitely supported v satisfies <a, v^(n)> = 0 for every n.
A family Q of sequences is *strongly generic* when the multiset of all
translates of all members together with the weighted sequences
(i * a_i) for a in Q is linearly independent.

Three closed classes of sequences are supported exactly:

* :class:`FiniteSupport` -- finitely many nonzero entries (always
  generic unless zero);
* :class:`Geometric` -- one-sided geometric j^i for i > 0, zero
  otherwise, with rational ratio j > 1 (generic, and strongly generic
  alone; no two geometric sequences form a strongly generic family);
* :class:`Recurrence` -- two-sided linear recurrence sequences, pinned
  down by a defining annihilator vector and an initial window (never
  generic; the defining vector is a witness).

``FinVector`` and ``FiniteSupport`` are both sparse {index: value} maps
on :class:`linalg.LinearCombination`, so both have ``+``, ``-``, scalar
``*``, ``==``, ``hash``, ``support`` and sorted ``items()``; they never
compare equal to each other.

Lazy wrappers (:class:`Shifted`, :class:`Weighted`, :class:`Scaled`)
keep the classes closed under translation, weighting and scalar
multiples without widening the exact representations.  The decision
procedures see through Shifted and Scaled by one fold (``_unwrap``) to
the base, its total offset and its total factor.

All arithmetic is exact over Q via :class:`fractions.Fraction`; no
floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg
from .linalg import ScalarLike, as_scalar


class BothInfiniteSupport(ValueError):
    """Raised when a pairing is requested between two infinite-support sequences."""


class GenericInput(ValueError):
    """Raised when an operation defined only for non-generic sequences gets a generic one."""


class DegenerateAnnihilator(ValueError):
    """Raised when an initial window is supplied for a width-0 annihilator."""


# ---------------------------------------------------------------------------
# finitely supported vectors
# ---------------------------------------------------------------------------


class FinVector(linalg.LinearCombination):
    """Finitely supported vector sum_i c_i v_i with rational coefficients.

    The support bounds are l(v) = min support and r(v) = max support;
    the width is omega(v) = r(v) - l(v).  Annihilator vectors are kept
    normalized with l(v) = 0 by the callers that need it.  Indices are
    stored as ``int`` and coefficients coerced by :func:`as_scalar`.
    """

    __slots__ = ()

    _key = int

    def l(self) -> int:
        if not self.coeffs:
            raise ValueError("zero vector has no support bounds")
        return min(self.coeffs)

    def r(self) -> int:
        if not self.coeffs:
            raise ValueError("zero vector has no support bounds")
        return max(self.coeffs)

    def width(self) -> int:
        return self.r() - self.l()

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs.get(i, Fraction(0))

    def translate(self, n: int) -> "FinVector":
        if n == 0:
            return self
        return FinVector({i + n: c for i, c in self.coeffs.items()})

    def proportional(self, other: "FinVector") -> bool:
        """True when the two vectors span the same line."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.coeffs) != set(other.coeffs):
            return False
        i0 = self.l()
        ratio = other.coeffs[i0] / self.coeffs[i0]
        return all(other.coeffs[i] == c * ratio for i, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "FinVector(0)"
        parts = []
        for i, c in self.items():
            if c == 1:
                parts.append(f"v_{i}")
            elif c == -1:
                parts.append(f"-v_{i}")
            else:
                parts.append(f"{c}*v_{i}")
        return "FinVector(" + " + ".join(parts).replace("+ -", "- ") + ")"


# ---------------------------------------------------------------------------
# sequence classes
# ---------------------------------------------------------------------------


class BiSequence:
    """Abstract bi-infinite sequence Z -> Q."""

    def entry(self, i: int) -> Fraction:
        raise NotImplementedError

    def window(self, lo: int, hi: int) -> list:
        """Entries on [lo, hi] inclusive."""
        return [self.entry(i) for i in range(lo, hi + 1)]


class FiniteSupport(linalg.LinearCombination, BiSequence):
    """Sequence with finitely many nonzero entries.

    Entry i is ``coeffs[i]``, or 0 off the support; sums, differences
    and scalar multiples come from the shared sparse base.
    """

    __slots__ = ()

    _key = int

    def entry(self, i: int) -> Fraction:
        return self.coeffs.get(i, Fraction(0))

    def __repr__(self):
        return f"FiniteSupport({dict(self.items())})"


class Geometric(BiSequence):
    """One-sided geometric sequence: entry i is j^i for i > 0, else 0.

    The ratio j is a rational number > 1.
    """

    __slots__ = ("j",)

    def __init__(self, j: ScalarLike):
        j = as_scalar(j)
        if j <= 1:
            raise ValueError(f"geometric ratio must exceed 1, got {j}")
        self.j = j

    def entry(self, i: int) -> Fraction:
        if i <= 0:
            return Fraction(0)
        return self.j ** i

    def __eq__(self, other):
        return isinstance(other, Geometric) and self.j == other.j

    def __hash__(self):
        return hash(("Geometric", self.j))

    def __repr__(self):
        return f"Geometric({self.j})"


class Recurrence(BiSequence):
    """Two-sided linear recurrence sequence.

    Defined by an annihilator vector v = sum_k c_k v_k with l(v) = 0,
    c_0 != 0 and c_omega != 0, together with the initial window
    (a_0, ..., a_{omega-1}).  Every translate of v pairs to zero with
    the sequence, which determines all entries by two-sided unrolling:

        sum_k c_k a_{k+i} = 0   for every i in Z.

    Entries are memoized; recomputation is idempotent, so concurrent
    readers at worst repeat work.
    """

    __slots__ = ("v", "initial", "_memo", "_lo", "_hi")

    def __init__(self, v: FinVector, initial: Sequence[ScalarLike]):
        if v.is_zero():
            raise ValueError("defining vector must be nonzero")
        if v.l() != 0:
            raise ValueError("defining vector must be normalized with l(v) = 0")
        omega = v.width()
        initial = tuple(as_scalar(x) for x in initial)
        if omega == 0:
            if initial:
                raise DegenerateAnnihilator(
                    "width-0 annihilator admits only the zero sequence; "
                    "no initial window may be supplied"
                )
        elif len(initial) != omega:
            raise ValueError(
                f"initial window must have length omega(v) = {omega}, got {len(initial)}"
            )
        self.v = v
        self.initial = initial
        self._memo = {i: x for i, x in enumerate(initial)}
        self._lo = 0
        self._hi = len(initial) - 1  # -1 when the window is empty

    @property
    def omega(self) -> int:
        return self.v.width()

    def entry(self, i: int) -> Fraction:
        memo = self._memo
        x = memo.get(i)
        if x is not None:
            return x
        om = self.omega
        if om == 0:
            return Fraction(0)
        v = self.v
        c = [v[k] for k in range(om + 1)]
        c0 = c[0]
        cw = c[om]
        # forward: a_{i} from the om entries below it
        while self._hi < i:
            n = self._hi + 1
            s = Fraction(0)
            for k in range(om):
                s += c[k] * memo[n - om + k]
            memo[n] = -s / cw
            self._hi = n
        # backward: a_{i} from the om entries above it
        while self._lo > i:
            n = self._lo - 1
            s = Fraction(0)
            for k in range(1, om + 1):
                s += c[k] * memo[n + k]
            memo[n] = -s / c0
            self._lo = n
        return memo[i]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.initial)

    def __eq__(self, other):
        return (
            isinstance(other, Recurrence)
            and self.v == other.v
            and self.initial == other.initial
        )

    def __hash__(self):
        return hash(("Recurrence", self.v, self.initial))

    def __repr__(self):
        return f"Recurrence({self.v!r}, {list(self.initial)})"


class Shifted(BiSequence):
    """Lazy translate of a base sequence: entry i is base(i + offset)."""

    __slots__ = ("base", "offset")

    def __init__(self, base: BiSequence, offset: int):
        self.base = base
        self.offset = int(offset)

    def entry(self, i: int) -> Fraction:
        return self.base.entry(i + self.offset)

    def __eq__(self, other):
        return (
            isinstance(other, Shifted)
            and self.base == other.base
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash(("Shifted", self.base, self.offset))

    def __repr__(self):
        return f"Shifted({self.base!r}, {self.offset})"


class Weighted(BiSequence):
    """Lazy index weighting: entry i is i * base(i)."""

    __slots__ = ("base",)

    def __init__(self, base: BiSequence):
        self.base = base

    def entry(self, i: int) -> Fraction:
        return i * self.base.entry(i)

    def __eq__(self, other):
        return isinstance(other, Weighted) and self.base == other.base

    def __hash__(self):
        return hash(("Weighted", self.base))

    def __repr__(self):
        return f"Weighted({self.base!r})"


class Scaled(BiSequence):
    """Lazy nonzero scalar multiple of a base sequence."""

    __slots__ = ("base", "factor")

    def __init__(self, base: BiSequence, factor: ScalarLike):
        factor = as_scalar(factor)
        if factor == 0:
            raise ValueError("scale factor must be nonzero")
        self.base = base
        self.factor = factor

    def entry(self, i: int) -> Fraction:
        return self.factor * self.base.entry(i)

    def __eq__(self, other):
        return (
            isinstance(other, Scaled)
            and self.base == other.base
            and self.factor == other.factor
        )

    def __hash__(self):
        return hash(("Scaled", self.base, self.factor))

    def __repr__(self):
        return f"Scaled({self.base!r}, {self.factor})"


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def entry(s, i: int) -> Fraction:
    """Entry of a sequence or coefficient of a vector at index i."""
    if isinstance(s, FinVector):
        return s[i]
    return s.entry(i)


def translate(x, n: int):
    """Translate by n.  Exact classes stay exact.

    A sequence moves left, result(i) = x(i + n); a vector moves its
    support right, v_i to v_{i+n}, so ``translate(FinVector({0: 1}), 2)``
    is v_2.  The two are adjoint: <translate(v, n), a> =
    <v, translate(a, n)>.
    """
    n = int(n)
    if n == 0:
        return x
    if isinstance(x, FinVector):
        return x.translate(n)
    if isinstance(x, FiniteSupport):
        return FiniteSupport({i - n: c for i, c in x.coeffs.items()})
    if isinstance(x, Recurrence):
        if x.omega == 0:
            return x
        window = [x.entry(n + k) for k in range(x.omega)]
        return Recurrence(x.v, window)
    if isinstance(x, Shifted):
        if x.offset + n == 0:
            return x.base
        return Shifted(x.base, x.offset + n)
    if isinstance(x, BiSequence):
        return Shifted(x, n)
    raise TypeError(f"cannot translate {x!r}")


def weighted(s: BiSequence) -> BiSequence:
    """The sequence i |-> i * s(i)."""
    if isinstance(s, FiniteSupport):
        return FiniteSupport({i: i * c for i, c in s.coeffs.items()})
    return Weighted(s)


def pairing(x, y) -> Fraction:
    """<x, y> = sum_i x_i y_i; at least one side must have finite support."""
    finite = (FinVector, FiniteSupport)
    if not isinstance(x, finite):
        if not isinstance(y, finite):
            raise BothInfiniteSupport(
                "pairing needs at least one finitely supported argument"
            )
        x, y = y, x
    total = Fraction(0)
    for i, c in x.items():
        total += c * entry(y, i)
    return total


# ---------------------------------------------------------------------------
# genericity verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqVerdict:
    """Verdict of a single-sequence genericity test.

    kind is one of 'generic', 'not_generic', 'unknown'; for
    'not_generic' the witness is an annihilator vector all of whose
    translates pair to zero with the sequence.
    """

    kind: str
    witness: Optional[FinVector] = None
    reason: str = ""

    @property
    def is_generic(self):
        return self.kind == "generic"


@dataclass(frozen=True)
class SetVerdict:
    """Verdict of a strong-genericity test on a family of sequences."""

    kind: str  # 'strongly_generic' | 'not_strongly_generic' | 'unknown'
    reason: str = ""

    @property
    def is_strongly_generic(self):
        return self.kind == "strongly_generic"


GENERIC = SeqVerdict("generic")


def is_zero_sequence(s: BiSequence):
    """True/False when decidable for the exact classes, None otherwise."""
    fin = _finite_core(s)
    if fin is not None:
        return fin.is_zero()
    base = _unwrap(s)[0]
    if isinstance(base, Geometric):
        return False
    if isinstance(base, Recurrence):
        return base.is_zero()
    if isinstance(base, Weighted):
        # base.base has no finite core, so when nonzero its support is
        # infinite, and the weighting only clears index 0
        return is_zero_sequence(base.base)
    return None


def _unwrap(s: BiSequence):
    """(base, offset, factor) with s(i) = factor * base(i + offset).

    Peels every Shifted and Scaled wrapper; base is the first sequence
    that is neither.
    """
    offset, factor = 0, Fraction(1)
    while isinstance(s, (Shifted, Scaled)):
        if isinstance(s, Shifted):
            offset += s.offset
        else:
            factor *= s.factor
        s = s.base
    return s, offset, factor


def _finite_core(s: BiSequence) -> Optional[FiniteSupport]:
    """Evaluate s to a plain FiniteSupport when its support is finite.

    Shifted/Scaled/Weighted wrappers over a finite base are folded into
    explicit entries; anything with infinite support returns None.
    """
    base, offset, factor = _unwrap(s)
    if isinstance(base, Weighted):
        base = _finite_core(base.base)
        if base is None:
            return None
        base = weighted(base)
    if not isinstance(base, FiniteSupport):
        return None
    return translate(base, offset) * factor


def _geometric_core(s: BiSequence) -> Optional[Geometric]:
    """The Geometric under s's Shifted/Scaled wrappers, or None."""
    base = _unwrap(s)[0]
    return base if isinstance(base, Geometric) else None


def is_generic(s: BiSequence) -> SeqVerdict:
    """Decide genericity for the exact classes; wrappers inherit from the base.

    Translation and nonzero scaling preserve both genericity and
    annihilator witnesses (the witness annihilates every translate, so
    the same vector works for a shifted or scaled sequence).
    """
    fin = _finite_core(s)
    if fin is not None:
        if fin.is_zero():
            return SeqVerdict("not_generic", FinVector({0: 1}), "zero sequence")
        return GENERIC
    if _geometric_core(s) is not None:
        return GENERIC
    rec = _recurrence_core(s)
    if rec is not None:
        return SeqVerdict("not_generic", rec.v, "defining annihilator")
    if isinstance(s, Weighted):
        core = _geometric_core(s.base)
        if core is not None:
            # i * j^i is annihilated by no finite recurrence-with-cutoff
            # combination of its own translates: (shift - j)^2 kills the
            # two-sided part but leaves cutoff residues at two positions,
            # and higher powers only widen them.  Its translates are
            # independent by the same leading-support argument as for
            # the geometric base.
            return GENERIC
    return SeqVerdict("unknown", None, f"no decision procedure for {type(s).__name__}")


def _laurent_quotient(f: FiniteSupport, w: FiniteSupport):
    """Quotient q with w = q * f as Laurent polynomials, else None.

    Finite translate-combinations of a finite-support sequence f are
    exactly the Laurent-polynomial multiples of f (coefficients of the
    combination = coefficients of the multiplier), so divisibility
    decides membership of w in the translate span of f.
    """
    if f.is_zero():
        return None
    if w.is_zero():
        return FiniteSupport({})
    flo, fhi = f.support[0], f.support[-1]
    wlo, whi = w.support[0], w.support[-1]
    fd = [f.entry(flo + k) for k in range(fhi - flo + 1)]
    wd = [w.entry(wlo + k) for k in range(whi - wlo + 1)]
    if len(wd) < len(fd):
        return None
    quot = [Fraction(0)] * (len(wd) - len(fd) + 1)
    rem = list(wd)
    lead = fd[-1]
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + len(fd) - 1] / lead
        quot[k] = q
        if q:
            for t, c in enumerate(fd):
                rem[k + t] -= q * c
    if any(rem):
        return None
    off = wlo - flo
    return FiniteSupport({off + k: c for k, c in enumerate(quot) if c})


def member_strong_genericity(s: BiSequence) -> SetVerdict:
    """Strong genericity of the one-element family {s}.

    For a geometric core this holds: finite combinations of translates
    are scalar-plus-finite corrections of the base, and the weighted
    sequence (i * s_i) differs from every such combination in
    infinitely many entries.  For a finite-support core it reduces to
    Laurent divisibility: the weighted sequence is again finitely
    supported and lies in the translate span of s exactly when the
    polynomial of s divides the polynomial of the weighted sequence.
    """
    if is_zero_sequence(s):
        return SetVerdict("not_strongly_generic", "the zero sequence is dependent")
    verdict = is_generic(s)
    if verdict.kind == "not_generic":
        return SetVerdict(
            "not_strongly_generic", f"not generic ({verdict.reason})"
        )
    if verdict.kind == "unknown":
        return SetVerdict("unknown", verdict.reason)
    fin = _finite_core(s)
    if fin is not None:
        w = _finite_core(weighted(fin))
        if w.is_zero():
            return SetVerdict(
                "not_strongly_generic",
                "weighted sequence (i*s_i) is zero (support {0})",
            )
        q = _laurent_quotient(fin, w)
        if q is not None:
            return SetVerdict(
                "not_strongly_generic",
                "weighted sequence (i*s_i) is the translate combination "
                f"{q!r} applied to the member",
            )
        return SetVerdict(
            "strongly_generic",
            "finite support; weighted sequence is not a Laurent multiple",
        )
    if _geometric_core(s) is not None:
        return SetVerdict(
            "strongly_generic",
            "single geometric sequence: translate span only meets the "
            "weighted sequence in 0",
        )
    return SetVerdict("unknown", f"no decision procedure for {type(s).__name__}")


def _dependence_of_pair(sa: BiSequence, sb: BiSequence):
    """Reason string when translates of sa and sb are provably dependent.

    Within the exact classes this always succeeds for a known pair:

    * two finite supports f, g: the translate combinations G-applied-to-f
      and F-applied-to-g are both the product polynomial f*g;
    * two geometric cores with ratios j, j': the cutoff identity
      j * a^{(-1)} - a^{(0)} = -j * delta_1 holds for every ratio, so the
      delta residues cancel across the pair;
    * geometric + finite support: every delta_k is the translate
      combination -(1/j) * (j * a^{(-k)} - a^{(1-k)}) of the geometric
      member, so any finite-support member lies in its translate span.
    """
    ga, gb = _geometric_core(sa), _geometric_core(sb)
    fa, fb = _finite_core(sa), _finite_core(sb)
    if ga is not None and gb is not None:
        ja, jb = ga.j, gb.j
        if ja == jb:
            return (
                f"proportional translates: both are scaled shifts of the "
                f"geometric sequence with ratio {ja}"
            )
        return (
            f"cutoff identity j*a^(-1) - a^(0) = -j*delta_1 for ratios "
            f"{ja} and {jb}: the delta_1 residues cancel across the pair, "
            "a vanishing combination of four translates"
        )
    if fa is not None and fb is not None:
        return (
            "finite supports: applying each member's polynomial to the "
            "other's translates gives the same product sequence, a "
            "vanishing cross combination"
        )
    if (ga is not None and fb is not None) or (gb is not None and fa is not None):
        j = (ga or gb).j
        return (
            "every delta_k equals the translate combination "
            f"-(1/{j})*({j}*a^(-k) - a^(1-k)) of the geometric member, so "
            "the finite-support member lies in its translate span"
        )
    return None


def is_strongly_generic_set(seqs: Iterable[BiSequence]) -> SetVerdict:
    """Decide strong genericity of a family of sequences from the exact classes.

    Singleton families reduce to :func:`member_strong_genericity`.  Any
    family with two members of known core (finite-support or geometric,
    possibly shifted/scaled) is *never* strongly generic: the translate
    spans of any two such sequences intersect nontrivially, with an
    explicit vanishing combination recorded in the verdict reason.
    Families containing an undecidable member stay 'unknown' unless a
    decidable failure is found first.
    """
    seqs = list(seqs)
    if not seqs:
        return SetVerdict("strongly_generic", "empty family")
    unknown = None
    for idx, s in enumerate(seqs):
        v = member_strong_genericity(s)
        if v.kind == "not_strongly_generic":
            return SetVerdict(
                "not_strongly_generic", f"member {idx}: {v.reason}"
            )
        if v.kind == "unknown":
            unknown = f"member {idx}: {v.reason}"
    known = [
        i
        for i, s in enumerate(seqs)
        if _geometric_core(s) is not None or _finite_core(s) is not None
    ]
    for pos in range(1, len(known)):
        a, b = known[0], known[pos]
        reason = _dependence_of_pair(seqs[a], seqs[b])
        if reason is not None:
            return SetVerdict(
                "not_strongly_generic", f"members {a} and {b}: {reason}"
            )
    if unknown is not None:
        return SetVerdict("unknown", unknown)
    return SetVerdict(
        "strongly_generic",
        "single decidable member"
        if len(seqs) == 1
        else "no dependence found among decidable members",
    )


# ---------------------------------------------------------------------------
# window rank evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowRank:
    """Exact rank evidence for a finite subfamily of translates."""

    full_rank: bool
    rank: int
    count: int
    ncols: int


def window_rank_check(
    seqs: Iterable[BiSequence], S: int, W: int, include_weighted: bool = True
) -> WindowRank:
    """Exact rank of the translate family on a coordinate window.

    Rows are the entries over coordinates [-W, W] of every translate
    x^(s), s in [-S, S], of every member (plus the weighted rows when
    flagged).  Each member's entries on [-W-S, W+S] are computed once
    and the translate rows are slices of them.  Rank is computed exactly
    over Q by :func:`linalg.rank`.  full_rank (rank == row count)
    certifies linear independence of the tested finite subfamily; a
    deficient rank on a window proves nothing either way.

    Each member's translates are passed centre-out, s = 0, 1, -1, ...,
    S, -S, then its weighted row.  Row order never changes the rank, but
    it sets the height of the transposed reduced form that
    :func:`linalg.rank` lifts, and so how many primes it draws: that
    form writes each dependent translate in terms of the first
    independent ones, and centre-out keeps every translate within S
    steps of those, where ascending order would reach 2S steps.
    """
    S = int(S)
    W = int(W)
    if S < 0 or W < S:
        raise ValueError(f"window bounds must satisfy W >= S >= 0, got S={S}, W={W}")
    width = 2 * W + 1
    # the row of translate s starts at entry s - W, index s + S of vals
    starts = [S]
    for o in range(1, S + 1):
        starts += (S + o, S - o)
    rows = []
    for x in seqs:
        vals = x.window(-W - S, W + S)
        rows.extend(vals[k : k + width] for k in starts)
        if include_weighted:
            w = weighted(x)
            rows.append([w.entry(i) for i in range(-W, W + 1)])
    rank = linalg.rank(rows)
    return WindowRank(rank == len(rows), rank, len(rows), 2 * W + 1)


# ---------------------------------------------------------------------------
# size, annihilators, reconstruction
# ---------------------------------------------------------------------------


def _recurrence_core(s: BiSequence) -> Optional[Recurrence]:
    """The Recurrence under s's Shifted/Scaled wrappers, or None."""
    base = _unwrap(s)[0]
    return base if isinstance(base, Recurrence) else None


def minimal_annihilator(s: BiSequence) -> FinVector:
    """Minimal-width annihilator of a non-generic sequence.

    Normalized with l(v) = 0, integer entries with gcd 1, and positive
    coefficient at index 0.  For the zero sequence this is v_0.

    The search runs over the Hankel matrices of a window of
    2*omega + 1 consecutive entries, where omega is the width of the
    defining annihilator: a candidate of width m <= omega whose defect
    sum_k c_k a_{k+i} vanishes for i in [-omega, omega - m] vanishes
    identically, because the defect itself satisfies the defining
    recurrence and has more than omega consecutive zeros.
    """
    verdict = is_generic(s)
    if verdict.kind == "generic":
        raise GenericInput("generic sequences have no annihilator")
    if verdict.kind == "unknown":
        raise ValueError("genericity undecided; no annihilator search available")
    if is_zero_sequence(s):
        return FinVector({0: 1})
    rec = _recurrence_core(s)
    if rec is None:
        raise ValueError(f"no annihilator search for {type(s).__name__}")
    om = rec.omega
    window = {i: s.entry(i) for i in range(-om, om + 1)}
    for m in range(0, om + 1):
        rows = []
        for i in range(-om, om - m + 1):
            rows.append({k: window[i + k] for k in range(m + 1) if window[i + k]})
        kernel = linalg.nullspace(rows, m + 1)
        if not kernel:
            continue
        assert len(kernel) == 1, "minimal width must pin the annihilator line"
        vec = kernel[0]
        assert vec.get(0) and vec.get(m), "minimal annihilator has nonzero endpoints"
        den_lcm = math.lcm(*(c.denominator for c in vec.values()))
        ints = {k: int(c * den_lcm) for k, c in sorted(vec.items())}
        g = math.gcd(*ints.values())
        sign = 1 if ints[0] > 0 else -1
        return FinVector({k: sign * c // g for k, c in ints.items()})
    raise AssertionError("defining annihilator bounds the search; unreachable")


def size(s: BiSequence) -> int:
    """Width of the minimal annihilator of a non-generic sequence.

    Zero sequences have size 0; constants have size 1.  Generic input
    raises GenericInput.
    """
    if is_zero_sequence(s):
        return 0
    return minimal_annihilator(s).width()


def annihilator_basis_window(s: BiSequence, window) -> list:
    """Translates of the minimal annihilator supported inside [lo, hi]."""
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError(f"empty window {window}")
    v = minimal_annihilator(s)
    m = v.width()
    return [v.translate(i) for i in range(lo, hi - m + 1)]


def reconstruct(v: FinVector, initial: Sequence[ScalarLike]) -> Recurrence:
    """Sequence annihilated by all translates of v with the given window.

    v must be nonzero with l(v) = 0; initial supplies
    (a_0, ..., a_{omega-1}).  A width-0 vector forces the zero sequence
    and rejects any initial data (DegenerateAnnihilator).
    """
    return Recurrence(v, initial)


# ---------------------------------------------------------------------------
# JSON literal syntax
# ---------------------------------------------------------------------------


def _literal_field(obj: dict, key: str, kind: type):
    value = obj.get(key, kind())
    if not isinstance(value, kind):
        raise ValueError(
            f"sequence literal field {key!r} must be a JSON "
            f"{'object' if kind is dict else 'array'}: {value!r}"
        )
    return value


def _literal_scalar(x) -> Fraction:
    try:
        return as_scalar(x)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def sequence_from_literal(obj) -> BiSequence:
    """Parse {'kind': 'finite'|'geometric'|'recurrence', ...} into a sequence.

    An optional 'scale' key wraps the result in a nonzero scalar
    multiple.  All rationals are decimal-free strings or integers.
    Malformed literals, wrong JSON types included, raise ValueError.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"sequence literal must be an object with 'kind': {obj!r}")
    kind = obj["kind"]
    known = {"finite", "geometric", "recurrence"}
    if not isinstance(kind, str) or kind not in known:
        raise ValueError(f"unknown sequence kind {kind!r}; expected one of {sorted(known)}")
    extra = set(obj) - {"kind", "scale", "entries", "j", "v", "initial"}
    if extra:
        raise ValueError(f"unexpected keys in sequence literal: {sorted(extra)}")
    if kind == "finite":
        entries = _literal_field(obj, "entries", dict)
        seq: BiSequence = FiniteSupport(
            {int(i): _literal_scalar(c) for i, c in entries.items()}
        )
    elif kind == "geometric":
        if "j" not in obj:
            raise ValueError("geometric literal needs a ratio 'j'")
        seq = Geometric(_literal_scalar(obj["j"]))
    else:
        if "v" not in obj or "initial" not in obj:
            raise ValueError("recurrence literal needs 'v' and 'initial'")
        v = _literal_field(obj, "v", dict)
        initial = _literal_field(obj, "initial", list)
        seq = Recurrence(
            FinVector({int(i): _literal_scalar(c) for i, c in v.items()}),
            [_literal_scalar(x) for x in initial],
        )
    if "scale" in obj:
        factor = _literal_scalar(obj["scale"])
        if factor != 1:
            seq = Scaled(seq, factor)
    return seq


def sequence_to_literal(s: BiSequence) -> dict:
    """Inverse of sequence_from_literal on the input-expressible classes."""
    scale = None
    if isinstance(s, Scaled):
        scale = s.factor
        s = s.base
    if isinstance(s, FiniteSupport):
        out = {"kind": "finite", "entries": {str(i): str(c) for i, c in s.items()}}
    elif isinstance(s, Geometric):
        out = {"kind": "geometric", "j": str(s.j)}
    elif isinstance(s, Recurrence):
        out = {
            "kind": "recurrence",
            "v": {str(i): str(c) for i, c in s.v.items()},
            "initial": [str(x) for x in s.initial],
        }
    else:
        raise ValueError(f"{type(s).__name__} has no literal form")
    if scale is not None:
        out["scale"] = str(scale)
    return out


def sequence_str(s: BiSequence) -> str:
    """Short human-readable label for reports."""
    if isinstance(s, FiniteSupport):
        if s.is_zero():
            return "finite{}"
        return "finite{" + ", ".join(f"{i}: {c}" for i, c in s.items()) + "}"
    if isinstance(s, Geometric):
        return f"geometric(j={s.j})"
    if isinstance(s, Recurrence):
        return f"recurrence(omega={s.omega})"
    if isinstance(s, Shifted):
        return f"shift({sequence_str(s.base)}, {s.offset})"
    if isinstance(s, Scaled):
        return f"{s.factor}*{sequence_str(s.base)}"
    if isinstance(s, Weighted):
        return f"weighted({sequence_str(s.base)})"
    return type(s).__name__
