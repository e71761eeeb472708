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
multiples without widening the exact representations.

Every verdict, for any nesting of the wrappers over the three classes,
reads one normal form.  A polynomial P = sum_k P_k S^k in the shift S is
stored as a FinVector with l(P) = 0; P *holds on* an interval I when
sum_k P_k s_{i+k} = 0 whenever both i and i + omega(P) lie in I.  Each
supported sequence is C-finite on each side (Kauers & Paule, *The
Concrete Tetrahedron*, 2011): ``_tails(s)`` gives (lo, hi, P), one tail
polynomial P that holds on (-inf, lo] and on [hi, inf).

* FiniteSupport with support [a, b]: (a - 1, b + 1, 1), and (0, 1, 1)
  when it is zero;
* Geometric(j): (0, 1, S - j);
* Recurrence(v, ...): (0, 0, v);
* Shifted(base, o): the base's bounds minus o, the base's polynomial;
* Scaled(base, c): the base's form;
* Weighted(base): the base's bounds and P^2.

Since P_0 and P_omega are nonzero, each tail unrolls from any omega(P)
consecutive entries, and where P holds, s_i = sum_r p_r(i) r^i over the
roots r != 0 of P with deg p_r < mult_r(P).  Weighting raises each
degree by one, and P^2 still kills that, which is why squaring is
enough.  ``_tails`` is the only decision code that asks a sequence its
class; a sequence built on any other class has no form, and its
verdicts are 'unknown'.

All arithmetic is exact over Q, and no floating point is used
anywhere.  Entries are read in bulk as integer windows: ``int_window(lo,
hi)`` gives (D, N) with D > 0 and entry i = N[i - lo] / D on [lo, hi];
``BiSequence.entry`` is the one-entry window, the only ``entry`` of the
package's classes.  No rank or kernel changes when a row is scaled by a
positive number, so the decisions, the Hankel rows and the window rows
work on these integers (each window row passed to :func:`linalg.rank` is
its primitive integer multiple); an entry becomes a
:class:`fractions.Fraction` only where one is returned (``entry``, a
finite core).  :func:`member_record` decides a member with a tail form
from one window, [lo - omega(P) + 1, hi + omega(P) - 1]: P(S)s, the
verdict and the finite core all come from that one read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import linalg
from .linalg import ScalarLike, as_scalar, require_int


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
    normalized with l(v) = 0 by the callers that need it.  Indices must
    be ``int`` (:func:`require_int`); coefficients are coerced by
    :func:`as_scalar`.
    """

    __slots__ = ()

    _key = staticmethod(require_int)

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
        return self.coeffs.get(require_int(i), Fraction(0))

    def translate(self, n: int) -> "FinVector":
        """v_i moved to v_{i+n}, adjoint to the sequence translate:
        <v.translate(n), a> = <v, Shifted(a, n)>."""
        if require_int(n, "translation") == 0:
            return self
        return FinVector({i + n: c for i, c in self.coeffs.items()})

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


IntWindow = Tuple[int, List[int]]  # (D, N): entry lo + k is N[k] / D, D > 0


def _bounds(lo: int, hi: int) -> None:
    """ValueError unless both window bounds are ``int``: every
    ``int_window`` checks them before any index arithmetic."""
    require_int(lo, "window bound lo")
    require_int(hi, "window bound hi")


class BiSequence:
    """Abstract bi-infinite sequence Z -> Q.

    A subclass defines :meth:`int_window` or :meth:`entry`.  The package
    classes define ``int_window`` only, and ``entry`` reads it; the
    default ``int_window`` reads ``entry``, for a subclass that defines
    only that.  A subclass that defines neither raises
    NotImplementedError.
    """

    def entry(self, i: int) -> Fraction:
        """Entry i, the one-entry :meth:`int_window`."""
        d, (n,) = self.int_window(require_int(i), i)
        return Fraction(n, d)

    def int_window(self, lo: int, hi: int) -> IntWindow:
        """(D, N) with D > 0 and entry i = N[i - lo] / D for lo <= i <= hi;
        (1, []) when hi < lo."""
        _bounds(lo, hi)
        if type(self).entry is BiSequence.entry:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither entry nor int_window"
            )
        vals = [as_scalar(self.entry(i)) for i in range(lo, hi + 1)]
        d = math.lcm(*(x.denominator for x in vals))
        return d, [x.numerator * (d // x.denominator) for x in vals]


class FiniteSupport(linalg.LinearCombination, BiSequence):
    """Sequence with finitely many nonzero entries.

    Entry i is ``coeffs[i]``, or 0 off the support; sums, differences
    and scalar multiples come from the shared sparse base.
    """

    __slots__ = ()

    _key = staticmethod(require_int)

    def int_window(self, lo: int, hi: int) -> IntWindow:
        _bounds(lo, hi)
        get = self.coeffs.get
        vals = [get(i) for i in range(lo, hi + 1)]
        d = math.lcm(*(x.denominator for x in vals if x is not None))
        return d, [0 if x is None else x.numerator * (d // x.denominator) for x in vals]

    def __repr__(self):
        return f"FiniteSupport({dict(self.items())})"


@dataclass(frozen=True)
class Geometric(BiSequence):
    """One-sided geometric sequence with rational ratio j > 1: entry i
    is j^i for i > 0, else 0."""

    j: Fraction

    def __post_init__(self):
        j = as_scalar(self.j)
        if j <= 1:
            raise ValueError(f"geometric ratio must exceed 1, got {j}")
        object.__setattr__(self, "j", j)

    def int_window(self, lo: int, hi: int) -> IntWindow:
        """With j = p/q: D = q^hi and N_i = p^i * q^(hi - i) for 0 < i <= hi."""
        _bounds(lo, hi)
        if hi <= 0:
            return 1, [0] * max(0, hi - lo + 1)
        p, q = self.j.numerator, self.j.denominator
        return q**hi, [p**i * q ** (hi - i) if i > 0 else 0 for i in range(lo, hi + 1)]

    def __repr__(self):
        return f"Geometric({self.j})"


class Recurrence(BiSequence):
    """Two-sided linear recurrence sequence.

    Defined by an annihilator vector v = sum_k c_k v_k with l(v) = 0,
    c_0 != 0 and c_omega != 0, together with the initial window
    (a_0, ..., a_{omega-1}).  Every translate of v pairs to zero with
    the sequence, which determines all entries by two-sided unrolling:

        sum_k c_k a_{k+i} = 0   for every i in Z.

    Nothing is memoized: :meth:`int_window` unrolls each window it is
    asked for in integers, so an object is never mutated after
    construction.
    """

    __slots__ = ("v", "initial", "_c", "_init", "_den")

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
        c = [v[k] for k in range(omega + 1)]  # c_0, ..., c_omega
        m = math.lcm(*(x.denominator for x in c))
        self._c = [x.numerator * (m // x.denominator) for x in c]  # m * c, integers
        self._den = math.lcm(*(x.denominator for x in initial))  # L
        self._init = [x.numerator * (self._den // x.denominator) for x in initial]

    @property
    def omega(self) -> int:
        return len(self._c) - 1

    def int_window(self, lo: int, hi: int) -> IntWindow:
        """(D, N) on [lo, hi], D = L * |c_omega|^f * |c_0|^b.

        c here is v scaled to integers, L the lcm of the initial
        denominators, f = max(0, hi - omega + 1) the forward steps past
        a_{omega-1} and b = max(0, -lo) the backward steps below a_0.
        Each entry is unrolled at the final scale, N_n = D * a_n: from
        L * a_0, ..., L * a_{omega-1} times D / L, forward by N_n =
        -(sum_{k<omega} c_k N_{n-omega+k}) / c_omega and backward by N_n =
        -(sum_{k>=1} c_k N_{n+k}) / c_0.  Both divisions are exact.  Proof:
        by induction, L * |c_omega|^t * a_n is an integer for the t-th
        forward entry, as c_omega * a_n is an integer combination of
        entries with t - 1 steps, and likewise L * |c_0|^t * a_n for the
        t-th backward entry; so every N_n is an integer, and it is the
        quotient computed.  A remainder would be an arithmetic fault,
        and raises.
        """
        _bounds(lo, hi)
        if hi < lo:
            return 1, []
        c = self._c
        om = len(c) - 1
        if om == 0:
            return 1, [0] * (hi - lo + 1)
        c0, cw = c[0], c[om]
        f, b = max(0, hi - om + 1), max(0, -lo)
        scale = abs(cw) ** f * abs(c0) ** b
        up = [x * scale for x in self._init]  # a_0, a_1, ... ascending
        head = c[:om]
        for _ in range(f):
            q, r = divmod(-sum(map(mul, head, up[-om:])), cw)
            if r:
                raise ArithmeticError("inexact forward step in a recurrence unroll")
            up.append(q)
        down = up[om - 1 :: -1]  # a_{omega-1}, ..., a_0, then a_{-1}, ... descending
        tail = c[om:0:-1]  # c_omega, ..., c_1 against a_{n+omega}, ..., a_{n+1}
        for _ in range(b):
            q, r = divmod(-sum(map(mul, tail, down[-om:])), c0)
            if r:
                raise ArithmeticError("inexact backward step in a recurrence unroll")
            down.append(q)
        vals = down[: om - 1 : -1] + up  # a_{-b}, ..., a_{omega-1+f}
        return self._den * scale, vals[lo + b : hi + b + 1]

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


@dataclass(frozen=True)
class Shifted(BiSequence):
    """Lazy translate of a base sequence: entry i is base(i + offset)."""

    base: BiSequence
    offset: int

    def __post_init__(self):
        require_int(self.offset, "shift offset")

    def int_window(self, lo: int, hi: int) -> IntWindow:
        _bounds(lo, hi)
        return self.base.int_window(lo + self.offset, hi + self.offset)

    def __repr__(self):
        return f"Shifted({self.base!r}, {self.offset})"


@dataclass(frozen=True)
class Weighted(BiSequence):
    """Lazy index weighting: entry i is i * base(i)."""

    base: BiSequence

    def int_window(self, lo: int, hi: int) -> IntWindow:
        _bounds(lo, hi)
        d, nums = self.base.int_window(lo, hi)
        return d, [i * n for i, n in enumerate(nums, lo)]

    def __repr__(self):
        return f"Weighted({self.base!r})"


@dataclass(frozen=True)
class Scaled(BiSequence):
    """Lazy nonzero scalar multiple of a base sequence."""

    base: BiSequence
    factor: Fraction

    def __post_init__(self):
        factor = as_scalar(self.factor)
        if factor == 0:
            raise ValueError("scale factor must be nonzero")
        object.__setattr__(self, "factor", factor)

    def int_window(self, lo: int, hi: int) -> IntWindow:
        _bounds(lo, hi)
        d, nums = self.base.int_window(lo, hi)
        p = self.factor.numerator
        return d * self.factor.denominator, [p * n for n in nums]

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

_ONE = FinVector({0: 1})  # the polynomial 1 in the shift


def _polymul(p: FinVector, q: FinVector) -> FinVector:
    """Product of two polynomials in the shift."""
    return sum((q.translate(i) * c for i, c in p.items()), FinVector({}))


def _tails(s: BiSequence):
    """The tail normal form (lo, hi, P) of s, or None.

    P holds on (-inf, lo] and on [hi, inf), in the sense of the module
    docstring; None means s is built on a class with no normal form.
    This is the only decision code that asks a sequence its class.
    """
    if isinstance(s, FiniteSupport):
        if s.is_zero():
            return 0, 1, _ONE
        support = s.support
        return support[0] - 1, support[-1] + 1, _ONE
    if isinstance(s, Geometric):
        return 0, 1, FinVector({0: -s.j, 1: 1})
    if isinstance(s, Recurrence):
        return 0, 0, s.v
    if not isinstance(s, (Shifted, Scaled, Weighted)):
        return None
    tails = _tails(s.base)
    if tails is None or isinstance(s, Scaled):
        return tails
    lo, hi, p = tails
    if isinstance(s, Shifted):
        return lo - s.offset, hi - s.offset, p
    return lo, hi, _polymul(p, p)


@dataclass(frozen=True, eq=False)
class MemberRecord:
    """Everything the verdicts and the window rows read of one sequence.

    ``tails`` is ``_tails(seq)`` = (lo, hi, P) (None without a tail
    form), whose P is the witness T of :func:`is_generic`; ``z`` is a
    positive multiple of P(S)seq ({} without a tail form); ``core`` is
    seq as a FiniteSupport when its support is finite, else None.
    :func:`member_record` takes z, the verdict and the core from one
    integer window of seq.
    """

    seq: BiSequence
    tails: Optional[tuple]
    z: dict
    verdict: SeqVerdict
    core: Optional[FiniteSupport]

    @cached_property
    def annihilator(self) -> Optional[FinVector]:
        """The :func:`minimal_annihilator` of a member that is not generic,
        else None; one Hankel solve, on the first read."""
        if self.verdict.kind != "not_generic":
            return None
        return _annihilator(self.seq, self.tails[2])


def member_record(s: BiSequence) -> MemberRecord:
    """Decide s once: its tail form, z, verdict and finite core, and,
    when it is not generic and first asked, its minimal annihilator.
    Every verdict below reads these records, and the functions taking a
    family accept records in place of sequences, so a caller that builds
    them decides each member once.

    A member with no tail form is 'unknown', and no entry is read.  With
    tails (lo, hi, P) and w = omega(P), one integer window of s, on [lo -
    w + 1, hi + w - 1], gives the other three fields:

    * z = P(S)s, with P scaled to integers by the lcm of its
      denominators.  z_i = sum_k P_k s_{i+k} is 0 when i <= lo - w or i
      >= hi, as P holds on (-inf, lo] and on [hi, inf), so only lo - w <
      i < hi are computed, and they read exactly that window.
    * the verdict: generic when z != 0, else not generic with witness P
      (:func:`is_generic` has the proof).
    * the finite core: s has finite support iff its w entries that end at
      lo and its w entries that start at hi are 0; the core is then its
      entries on (lo, hi).  Proof: a tail on which P holds and which has
      w consecutive zeros is zero, since P_0 != 0 and P_w != 0 unroll it
      both ways from them.  A finite support gives such zeros far out on
      each tail, hence on the whole tail, those next to lo and hi
      included; conversely zeros there clear both tails, which leaves only
      the entries on (lo, hi).
    """
    tails = _tails(s)
    if tails is None:
        reason = f"no decision procedure for {type(s).__name__}"
        return MemberRecord(s, None, {}, SeqVerdict("unknown", None, reason), None)
    lo, hi, p = tails
    w = p.width()
    m = math.lcm(*(c.denominator for c in p.coeffs.values()))
    terms = [(k, c.numerator * (m // c.denominator)) for k, c in p.items()]
    d, vals = s.int_window(lo - w + 1, hi + w - 1)
    residue = (sum(c * vals[n + k] for k, c in terms) for n in range(hi - lo + w - 1))
    z = {i: x for i, x in enumerate(residue, lo - w + 1) if x}
    verdict = GENERIC
    if not z:
        reason = "zero sequence" if p == _ONE else "defining annihilator"
        verdict = SeqVerdict("not_generic", p, reason)
    end = len(vals) - w  # vals[end:] starts at hi
    core = None
    if not any(vals[:w]) and not any(vals[end:]):
        core = FiniteSupport({i: Fraction(n, d) for i, n in enumerate(vals[w:end], lo + 1) if n})
    return MemberRecord(s, tails, z, verdict, core)


def _record(x: Union[BiSequence, MemberRecord]) -> MemberRecord:
    """x when it is a record already, else its :func:`member_record`."""
    return x if isinstance(x, MemberRecord) else member_record(x)


def is_generic(s: BiSequence) -> SeqVerdict:
    """Decide genericity of every sequence with a tail normal form.

    With tails (lo, hi, P), let T = P.  T holds on both tails, so T(S)s
    vanishes outside (lo - omega(T), hi).  If it vanishes there too, s
    is not generic with witness T; otherwise s is generic.

    Proof: s is not generic iff some nonzero Q annihilates it, Q(S)s = 0
    (a witness annihilates every translate, so its offset is free and
    Q can be taken with l(Q) = 0).  Then Q annihilates both tails, so Q
    = h * M for the lcm M of the two minimal tail annihilators, and M
    divides T as well (T holds on both tails), T = g * M.  M(S)s has
    finite support, and a nonzero h applied to a nonzero finite sequence
    is nonzero, so h(S) M(S)s = 0 forces M(S)s = 0 and hence T(S)s =
    g(S) M(S)s = 0.  No lcm is ever computed.  A recurrence's witness is
    its own defining vector v (its P is v), and a zero finite sequence's
    is v_0.
    """
    return member_record(s).verdict


def member_strong_genericity(s: BiSequence) -> SetVerdict:
    """Strong genericity of the one-element family {s}.

    A generic s with infinite support is strongly generic.  Proof: its
    translates are independent, so a dependence would put the weighted
    sequence in their span, i * s_i = C(S)s for a Laurent polynomial C.
    Some tail of s is not eventually 0; there s_i = sum_r p_r(i) r^i with
    some p_r != 0 (module docstring).  C(S)s has the coefficients
    sum_n C_n r^n p_r(i + n), of degree at most deg p_r, but i * s_i has
    i * p_r(i), of degree deg p_r + 1, and such a representation is
    unique.  A finite s, with polynomial F = sum_i s_i x^i, fails iff F
    divides the polynomial x * F' of its weighted sequence, since its
    translate combinations are the Laurent multiples of F.  Write F =
    x^a * G with G(0) != 0.  Then x * F' = x^a * (a * G + x * G'), so F
    divides x * F' iff G divides G' (x is a unit and prime to G).  As
    deg G' < deg G, that holds iff G' = 0, which over Q means that the
    support is the single point a; then x * F' = a * F.
    """
    return _member_verdict(member_record(s))


def _member_verdict(rec: MemberRecord) -> SetVerdict:
    """:func:`member_strong_genericity` of a member, given its record."""
    fin = rec.core
    if fin is not None and fin.is_zero():
        return SetVerdict("not_strongly_generic", "the zero sequence is dependent")
    verdict = rec.verdict
    if verdict.kind == "not_generic":
        return SetVerdict("not_strongly_generic", f"not generic ({verdict.reason})")
    if verdict.kind == "unknown":
        return SetVerdict("unknown", verdict.reason)
    if fin is None:
        return SetVerdict(
            "strongly_generic",
            "generic with infinite support: weighting raises the degree of "
            "a tail's polynomial coefficients, no translate combination does",
        )
    support = fin.support
    if len(support) > 1:
        return SetVerdict(
            "strongly_generic",
            "finite support; weighted sequence is not a Laurent multiple",
        )
    if support == [0]:
        return SetVerdict(
            "not_strongly_generic",
            "weighted sequence (i*s_i) is zero (support {0})",
        )
    return SetVerdict(
        "not_strongly_generic",
        "weighted sequence (i*s_i) is the translate combination "
        f"{FiniteSupport({0: support[0]})!r} applied to the member",
    )


def _geometric_ratio(tails) -> Optional[Fraction]:
    """j when the tail polynomial is S - j, else None."""
    p = tails[2]
    return -p[0] / p[1] if p.width() == 1 else None


def _dependence_of_pair(ra: MemberRecord, rb: MemberRecord) -> str:
    """Reason string why the translates of two generic members, with
    records ``ra`` and ``rb``, are dependent.

    Any two are.  With T from :func:`is_generic`, T_a(S)a is a nonzero
    finite sequence, which reads as F_a(S)delta_0 for a Laurent
    polynomial F_a; likewise T_b(S)b = F_b(S)delta_0.  Then (F_b T_a)(S)a
    and (F_a T_b)(S)b are both (F_a F_b)(S)delta_0, a vanishing
    combination of nonzero translate combinations of a and b.

    The reason names the familiar cases.  A member is geometric with
    ratio j when its tail polynomial is S - j (a width-1
    recurrence is never generic, so it never gets here), and finite when
    it has a finite core:

    * two geometric members with ratios j, j': the cutoff identity
      j * a^{(-1)} - a^{(0)} = -j * delta_1 holds for every ratio, so the
      delta residues cancel across the pair;
    * two finite supports f, g: the translate combinations G-applied-to-f
      and F-applied-to-g are both the product polynomial f*g;
    * geometric + finite support: every delta_k is the translate
      combination -(1/j) * (j * a^{(-k)} - a^{(1-k)}) of the geometric
      member, so any finite-support member lies in its translate span
      (a ratio that is not an integer is printed in brackets).
    """
    ja, jb = _geometric_ratio(ra.tails), _geometric_ratio(rb.tails)
    fa, fb = ra.core is not None, rb.core is not None
    if ja is not None and jb is not None:
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
    if fa and fb:
        return (
            "finite supports: applying each member's polynomial to the "
            "other's translates gives the same product sequence, a "
            "vanishing cross combination"
        )
    for j, other_finite in ((ja, fb), (jb, fa)):
        if j is not None and other_finite:
            j = j if j.denominator == 1 else f"({j})"
            return (
                "every delta_k equals the translate combination "
                f"-(1/{j})*({j}*a^(-k) - a^(1-k)) of the geometric member, so "
                "the finite-support member lies in its translate span"
            )
    return (
        "tail annihilators T and finite residues T(S)s = F(S)delta_0 give "
        "(F_b*T_a)(S)a = (F_a*T_b)(S)b, a vanishing cross combination"
    )


def is_strongly_generic_set(seqs: Iterable[Union[BiSequence, MemberRecord]]) -> SetVerdict:
    """Decide strong genericity of a family of sequences.

    Singleton families reduce to :func:`member_strong_genericity`.  A
    family with two decided members that pass it is *never* strongly
    generic: the translate spans of any two generic sequences intersect
    nontrivially (:func:`_dependence_of_pair`), with the vanishing
    combination named in the verdict reason.  Families containing an
    undecidable member stay 'unknown' unless a decidable failure is
    found first.  Members may be given as :func:`member_record` records.
    """
    seqs = list(seqs)
    if not seqs:
        return SetVerdict("strongly_generic", "empty family")
    unknown = None
    known = []
    for idx, s in enumerate(seqs):
        rec = _record(s)
        v = _member_verdict(rec)
        if v.kind == "not_strongly_generic":
            return SetVerdict("not_strongly_generic", f"member {idx}: {v.reason}")
        if v.kind == "unknown":
            unknown = f"member {idx}: {v.reason}"
        else:
            known.append((idx, rec))
    if len(known) > 1:
        (a, ra), (b, rb) = known[:2]
        return SetVerdict(
            "not_strongly_generic",
            f"members {a} and {b}: {_dependence_of_pair(ra, rb)}",
        )
    if unknown is not None:
        return SetVerdict("unknown", unknown)
    return SetVerdict("strongly_generic", "single decidable member")


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
    seqs: Iterable[Union[BiSequence, MemberRecord]],
    S: int,
    W: int,
    include_weighted: bool = True,
) -> WindowRank:
    """Exact rank of the translate family on a coordinate window.

    Rows are the entries over coordinates [-W, W] of every translate
    x^(s), s in [-S, S], of every member (plus the weighted rows when
    flagged).  Rank is computed exactly over Q by :func:`linalg.rank`.
    full_rank (rank == row count) certifies linear independence of the
    tested finite subfamily.  When W >= B below, the rank is that of the
    bi-infinite rows, so a deficient rank proves a dependence; when W <
    B it proves nothing either way.

    Only the coordinates [-W0, W0], W0 = min(W, B), are eliminated.  Let
    k = 2 with the weighted rows and 1 without, and over the members'
    tail forms (lo, hi, P) let H = max hi, Lo = min lo and N = sum k *
    omega(P); then B = max(S, H + S + N - 1, S - Lo + N - 1).  Proof:
    take a row combination y.  P^k holds on every row of its member over
    (-inf, lo - S] and over [hi + S, inf) (P on a translate x^(s) over
    (-inf, lo - s] and [hi - s, inf), P^2 on the weighted row by the
    tail form of Weighted), so the product Q of the members' P^k, of
    width N, holds on y over (-inf, Lo - S] and over [H + S, inf).  Each
    tail form has lo <= hi, so Lo <= H, the last two terms of B give 2B
    + 1 >= 2N - 1, and [-B, B] holds N consecutive coordinates of each
    of the two ranges (none are needed when N = 0).  If y vanishes on
    [-B, B], then Q_0, Q_N != 0 unroll those zeros over both ranges, and
    B makes the three ranges cover Z: y = 0.  So every window W >= B has
    the left kernel of the bi-infinite rows, hence their rank.  Any
    member without a tail form keeps the full W.

    Each member x with a tail form passes rows spanning what its 2S + 1
    translates span.  With T and z = T(S)x from :func:`is_generic` (z is
    finite, on (lo - omega, hi), omega = omega(T)) these are its first
    min(omega, 2S + 1) translates centre-out, s = 0, 1, -1, ..., the
    consecutive shifts a..a + omega - 1; the z^(u), -S <= u <= S - omega,
    nonzero on the window; and its weighted row.  Proof: z^(u) = sum_k
    T_k x^(u+k), entrywise on any window.  For t < a, T_0 != 0 recovers
    x^(t) from z^(t) and the translates above it; for t > a + omega - 1,
    T_omega != 0 recovers it from z^(t - omega) and those below it.  The
    change of basis is triangular, so on every window the passed rows
    have the rank of all rows, and the W0 argument holds for them.  A
    member that is not generic has z = 0, and the zero sequence (T = 1)
    passes no translate; a member with no tail form passes all 2S + 1.
    ``count`` and ``full_rank`` still refer to all len(seqs) * (2S + 1 +
    weighted) rows.

    T (the P of its tails) and z come from the member's
    :func:`member_record` (members may be given as records), and its
    entries from one integer window over the span its kept rows need.
    Rows are sparse {coordinate: value} maps, each the primitive integer
    multiple (:func:`_primitive`) of the row it stands for; a positive
    multiple changes no rank, so :func:`linalg.rank` gets integers, and
    it kills the coordinates of one-entry z-rows before it eliminates.
    ``ncols`` reports the requested 2W + 1.
    """
    S = require_int(S, "shift bound S")
    W = require_int(W, "window W")
    if S < 0 or W < S:
        raise ValueError(f"window bounds must satisfy W >= S >= 0, got S={S}, W={W}")
    records = [_record(x) for x in seqs]
    forms = [rec.tails for rec in records]
    W0 = W
    if forms and None not in forms:
        lo, hi, polys = zip(*forms)
        n = (2 if include_weighted else 1) * sum(p.width() for p in polys)
        W0 = min(W, max(S, max(hi) + S + n - 1, S - min(lo) + n - 1))
    width = 2 * W0 + 1
    shifts = [0] + [o for n in range(1, S + 1) for o in (n, -n)]
    rows = []
    for rec in records:
        z = rec.z
        kept = shifts[: rec.tails[2].width()] if rec.tails else shifts
        # the row of translate s starts at entry s - W0, index s - first of vals
        first, last = min(kept, default=0), max(kept, default=0)
        _, vals = rec.seq.int_window(first - W0, last + W0)
        for s in kept:
            row = enumerate(vals[s - first : s - first + width], -W0)
            rows.append(_primitive({i: v for i, v in row if v}))
        # z^(u) for u = -S..S - omega, none once omega >= 2S + 1
        for u in range(-S, S + 1 - len(kept)):
            row = {i - u: v for i, v in z.items() if -W0 <= i - u <= W0}
            if row:
                rows.append(_primitive(row))
        if include_weighted:
            row = enumerate(vals[-first : width - first], -W0)
            rows.append(_primitive({i: i * v for i, v in row if i and v}))
    rank = linalg.rank(rows)
    count = len(records) * (2 * S + 1 + bool(include_weighted))
    return WindowRank(rank == count, rank, count, 2 * W + 1)


def _primitive(row: dict) -> dict:
    """The integer row over the gcd of its entries: its multiple by a
    positive rational with content 1 (an empty row as it is)."""
    g = math.gcd(*row.values())
    return {i: v // g for i, v in row.items()} if g > 1 else row


# ---------------------------------------------------------------------------
# size, annihilators, reconstruction
# ---------------------------------------------------------------------------


def minimal_annihilator(s: BiSequence) -> FinVector:
    """Minimal-width annihilator M of a non-generic sequence.

    Normalized with l(M) = 0, integer entries with gcd 1, and positive
    coefficient at index 0.  For the zero sequence this is v_0.

    One Hankel solve finds it.  Let omega be the width of the witness T
    of :func:`is_generic`, so T(S)s = 0 and T_0, T_omega != 0, and take
    the rows i = -omega..-1 and the columns k = 0..omega of the matrix
    with entries s_{i+k}.  A kernel vector c is a candidate of width <=
    omega whose defect d = c(S)s vanishes on those omega rows.  T
    annihilates d, since T(S)c(S)s = c(S)T(S)s = 0, and T_0, T_omega !=
    0 unroll d both ways from omega consecutive zeros, so d = 0.  Hence
    the kernel holds the annihilating polynomials of degree <= omega,
    which are the multiples h * M (they form an ideal of Q[S], and M_0
    != 0 since S is invertible on bi-infinite sequences).  Column j is a
    combination of the columns before it exactly when a kernel vector
    ends at j, that is when j >= w = omega(M).  So columns 0..w-1 are
    the pivots, and the first kernel vector (free column w, x_w = 1) is
    M / M_w.  The Hankel entries are one integer window, D * s_{i+k}:
    scaling every row by D > 0 leaves the kernel as it is.
    """
    rec = member_record(s)
    if rec.verdict.kind == "generic":
        raise GenericInput("generic sequences have no annihilator")
    if rec.verdict.kind == "unknown":
        raise ValueError("genericity undecided; no annihilator search available")
    return rec.annihilator


def _annihilator(s: BiSequence, t: FinVector) -> FinVector:
    """:func:`minimal_annihilator` of s, which is not generic with witness T."""
    om = t.width()
    _, vals = s.int_window(-om, om - 1)
    rows = [{k: vals[i + k] for k in range(om + 1) if vals[i + k]} for i in range(om)]
    vec = linalg.nullspace(rows, om + 1)[0]
    den_lcm = math.lcm(*(c.denominator for c in vec.values()))
    ints = {k: int(c * den_lcm) for k, c in sorted(vec.items())}
    g = math.gcd(*ints.values())
    sign = 1 if ints[0] > 0 else -1
    return FinVector({k: sign * c // g for k, c in ints.items()})


def size(s: BiSequence) -> int:
    """Width of the minimal annihilator of a non-generic sequence.

    Zero sequences have size 0 (their annihilator is v_0); constants have
    size 1.  Generic input raises GenericInput.
    """
    return minimal_annihilator(s).width()


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

# largest index span of a finite literal (the goldens and presets use at most 3)
MAX_SPAN = 1000


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
    Malformed literals (wrong JSON types, two keys such as "1" and "01"
    for one index) raise ValueError, and so does a finite literal whose
    support spans more than ``MAX_SPAN`` indices, which the verdicts walk.
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

    def indexed(entries: dict) -> dict:
        out, keys = {}, {}
        for key, c in entries.items():
            if "_" in str(key):
                raise ValueError(f"sequence literal key {key!r} has a digit separator '_'")
            i = int(key)
            if i in keys:
                raise ValueError(
                    f"sequence literal keys {keys[i]!r} and {key!r} name one index {i}"
                )
            keys[i], out[i] = key, _literal_scalar(c)
        return out

    if kind == "finite":
        seq: BiSequence = FiniteSupport(indexed(_literal_field(obj, "entries", dict)))
        if seq.coeffs and max(seq.coeffs) - min(seq.coeffs) > MAX_SPAN:
            raise ValueError(
                f"finite literal spans indices {min(seq.coeffs)}..{max(seq.coeffs)}, "
                f"more than {MAX_SPAN} apart"
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
        seq = Recurrence(FinVector(indexed(v)), [_literal_scalar(x) for x in initial])
    if "scale" in obj:
        factor = _literal_scalar(obj["scale"])
        if factor != 1:
            seq = Scaled(seq, factor)
    return seq


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
