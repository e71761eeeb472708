"""Exact linear algebra over Q.

Sparse linear combinations {key: nonzero coefficient} share one base,
:class:`LinearCombination`: coefficients coerced by :func:`as_scalar`
(``int``, ``Fraction`` or a decimal-free string; a float is refused),
sum, difference, negation, scalar multiples, equality, hash, and the
sorted ``support`` and ``items``.  Four classes subclass it:
``seqspace.FinVector`` and ``seqspace.FiniteSupport`` (keys checked by
:func:`require_int`), ``rootdata.ChevalleyElement`` and
``affine.AffineElement``; each keeps its own key check, term order and
``repr``.  :func:`add_term` is the base's accumulation step, and
:func:`signed_sum` the sign rendering that ``AffineElement``,
``ChevalleyElement`` and ``engine.element_str`` print with.

Two entry points cover everything the linear systems need:

* :func:`rank` -- the rank of sparse {column: value} rows: the
  singleton pass below, then the number of dead columns plus the
  number of pivots of the core's certified reduced echelon form.

* :func:`nullspace` -- kernel of a sparse system of {column: value}
  rows, in two stages.  First a singleton pass (:class:`SingletonPruner`,
  the singleton stage of structured Gaussian elimination): a row with
  one live column forces that column to zero in every kernel vector, so
  the column is dead; each dead column lowers the live count of the
  kept rows that contain it, and a row left with one live column kills
  that column in turn.  Then the reduced row echelon form over Q
  (:func:`rref_pivots`) of the live core only -- the kept rows with
  their dead columns removed -- followed by free-column back
  substitution in one pass over the pivot rows' entries.

The pruning is exact.  By induction on the order of deaths every unit
vector e_d of a dead column d lies in the row space, so the row space
is spanned by those unit vectors together with the core, and the core
touches no dead column.  The reduced echelon form of the full system is
therefore the core's reduced form plus one unit pivot row per dead
column.  A dead column is never free and is zero in every kernel
vector; the returned basis (x_f = 1 on each free column f) depends only
on the kernel, hence not on the pruning nor on the row order.

:class:`SingletonPruner` also runs as a stream: a caller that builds a
large system can feed rows as they are made, keep only the live core,
and ask the pruner itself for the kernel (:meth:`SingletonPruner.nullspace`),
which skips a second singleton pass.  The pruner holds the reduced form
it certified last, so a caller that feeds more rows and asks again
eliminates that form and the new rows, not the whole core (see
"Extending a certified form" below).

Certified multimodular elimination
----------------------------------
:func:`rref_pivots` returns the reduced echelon form R over Q but does
its elimination in ``int`` arithmetic modulo primes.  Each row is first
multiplied by the lcm of its denominators, which changes neither the
row space nor R, and leaves an integer matrix A.  For each prime p of
the sequence below, the same fully reduced Gauss-Jordan runs on A mod p
and gives an image with pivot set P_p.  Images are combined by the
Chinese remainder theorem, keeping only those with the best pivot set
seen so far (higher rank, then the lexicographically smaller sorted
pivot list); a better set restarts the combination.  Each off-pivot
entry is lifted from its residue modulo the product m of the combined
primes by Wang's rational reconstruction (numerator and denominator at
most isqrt(m // 2)).  The lift is accepted only if every row of A
reduces to zero against it, checked in integers; otherwise the next
prime is taken.  The check (:func:`_certify`) numbers the free columns
once and takes each row's products with the free columns' kernel
vectors, scaled to integers, in one dense list of ``int`` accumulators.

Why an accepted lift is exact.  Let C be the columns in A's support,
P = P_p the candidate's pivots and k = |C - P|.

* rank_p(A) <= rank_Q(A) for every p, since a minor that is nonzero
  mod p is a nonzero integer.
* For each f in C - P the check proves A v_f = 0 for
  v_f = e_f - sum_pc R[pc][f] e_pc.  The v_f are independent (v_f is 1
  at f and 0 at the other columns of C - P), so
  nullity_Q >= k = |C| - rank_p >= |C| - rank_Q = nullity_Q, and all
  of these are equal.
* A candidate row pc only has entries at columns >= pc, so A v_f = 0
  writes column f as a combination of earlier pivot columns: f is not
  a pivot over Q.  Hence C - P is contained in the free set over Q,
  and both have k elements, so they are equal.
* The kernel vector that is 1 at one free column and 0 at the others
  is unique, so v_f is it and R is the unique reduced echelon form
  over Q.
* The loop ends.  A prime is good when P_p equals the pivot set over
  Q; then some r x r minor on those pivot columns is nonzero mod p, so
  R has no denominator divisible by p and the image is R mod p.  Only
  the finitely many primes dividing that minor are bad, and no prime
  gives a better pivot set than Q's, so after the first good prime
  only good images are combined, m grows with each, and
  reconstruction succeeds once 2 H^2 < m for the height H of R.

Correctness never rests on a probability, only on the primes being
prime.  The sequence starts with the Mersenne prime 2^127 - 1, which
alone reconstructs entries of height below 2^63, and continues lazily
with the primes below 2^61 in descending order, each proven by
Miller-Rabin with the first 12 primes as bases, which is deterministic
below 3.18 * 10^23.  A pass at 127 bits costs little more than one at
61: on the 1,080-row core of the seed-0 multiplicity benchmark,
:func:`_rref_mod` took 24.9 against 23.3 ms (medians of 31 interleaved
runs on a 2-vCPU host; 45.1 against 43.9 ms with every entry reduced
after each update).
Nothing is computed at import time.

Extending a certified form
--------------------------
A :class:`SingletonPruner` holds the pivot rows R it returned last and
the number of rows it had kept then.  Every call eliminates with
:func:`rref_pivots`: the first one the whole core, a later one R
restricted to the columns live now, then the rows kept since.  Let pi
drop the columns that died since the last call.

* Every old core row y reduced to zero against R, so
  y = sum_pc y[pc] R_pc, and pi(y) = sum_pc y[pc] pi(R_pc).
* Each current core row is pi of an old core row, or a row kept since.
  An old core row consumed since has all its columns dead, so its pi
  is zero.
* Each R_pc is a combination of old core rows, so pi(R_pc) is a
  combination of current core rows.
* So pi(R) and the rows kept since span exactly the current core's row
  space, and have the same reduced echelon form.

:func:`rref_pivots` certifies its lift against every row it gets, so by
induction on the calls each result is the exact reduced echelon form of
the core over Q, as a fresh elimination of the whole core would give.
The rows of R need no special care: :func:`_integer_row` clears their
denominators like any other row's, and any further primes come from
the usual loop.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
import math
from itertools import chain
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union
)


SparseRow = Dict[int, Fraction]

ScalarLike = Union[Fraction, int, str]


def as_scalar(x: ScalarLike) -> Fraction:
    """Coerce ints, Fractions and decimal-free strings like '-2/3' to Fraction.

    ValueError for a string that is not such a literal, a zero
    denominator or a digit separator '_' included; TypeError for anything
    else, a float or a bool included."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "." in s or "e" in s.lower():
            raise ValueError(f"rational literal must be decimal-free: {x!r}")
        if "_" in s:
            raise ValueError(f"rational literal must have no digit separator '_': {x!r}")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"rational literal has a zero denominator: {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def require_int(x, what: str = "index") -> int:
    """x when it is an ``int``; ValueError for anything else, a bool, a
    float or a string included, where ``int()`` would coerce or truncate.
    The package's one integer check."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an int, got {x!r}")
    return x


def add_term(acc: dict, key, x) -> None:
    """acc[key] += x, dropping the entry when the sum is zero.

    The sparse accumulation step shared by the package's dict-based
    linear combinations; a missing key costs one lookup and no addition.
    """
    s = acc.get(key)
    s = x if s is None else s + x
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class LinearCombination:
    """Sparse linear combination sum_k c_k k with nonzero coefficients.

    ``_scalar`` coerces a coefficient or raises (:func:`as_scalar`),
    ``_key`` passes a valid key or raises (any key, unless a subclass
    sets it),
    ``_order`` is the sort key of a key for ``support`` and ``items``
    (None sorts the keys themselves), and ``_new`` builds a result of
    the same class.  Every key is checked, and coefficients that are
    zero after coercion are not stored.  ``==`` holds only within one
    class; the hash depends on the coefficients alone.
    """

    __slots__ = ("coeffs",)

    _scalar = staticmethod(as_scalar)
    _order = None

    @staticmethod
    def _key(k):
        return k

    def __init__(self, coeffs: Mapping = ()):
        data = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for k, c in items:
            c = self._scalar(c)
            k = self._key(k)
            if c:
                data[k] = c
        self.coeffs = data

    def _new(self, coeffs: dict):
        return type(self)(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> list:
        return sorted(self.coeffs, key=self._order)

    def items(self) -> list:
        """(key, coefficient) pairs in the order of ``support``."""
        coeffs = self.coeffs
        return [(k, coeffs[k]) for k in self.support]

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            add_term(out, k, c)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, s):
        s = self._scalar(s)
        return self._new({k: c * s for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))


def signed_sum(terms: Iterable[Tuple[str, object]], sep: str) -> str:
    """'a - 2/3*b + c' from (label, coefficient) pairs, or '0' for none.

    A coefficient of 1 or -1 is not printed, ``sep`` goes between each
    sign and its term (" " gives "a + b", "" gives "a +b"), and the sign
    of a positive first term is dropped.
    """
    parts = []
    for label, c in terms:
        if c == 1:
            parts.append(f"+{sep}{label}")
        elif c == -1:
            parts.append(f"-{sep}{label}")
        elif c > 0:
            parts.append(f"+{sep}{c}*{label}")
        else:
            parts.append(f"-{sep}{-c}*{label}")
    if not parts:
        return "0"
    s = " ".join(parts)
    return s[1 + len(sep):] if s[0] == "+" else s


IntRow = Dict[int, int]
IntPivots = Dict[int, IntRow]  # pivot column -> reduced row (residues mod p or m)

# 2^127 - 1 is a Mersenne prime; the primes after it are 61-bit, found
# downwards from 2^61 - 1 and proven by deterministic Miller-Rabin
_FIRST_PRIME = (1 << 127) - 1
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.18 * 10^23.

    The first 12 primes as bases decide primality below
    318665857834031151167461 (Sorenson and Webster 2015).
    """
    if n >= 318665857834031151167461:
        raise ValueError("Miller-Rabin bases are not proven this far")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """2^127 - 1, then the primes below 2^61 in descending order (lazily)."""
    yield _FIRST_PRIME
    n = (1 << 61) - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _integer_row(row: SparseRow) -> IntRow:
    """The nonzero entries of row times the lcm of their denominators.

    Each denominator is read once; a row of integers (lcm 1) is copied."""
    dens = [v.denominator for v in row.values()]
    lcm = math.lcm(*dens)
    if lcm == 1:
        return {c: v.numerator for c, v in row.items() if v}
    return {c: v.numerator * (lcm // d) for (c, v), d in zip(row.items(), dens) if v}


def _rref_mod(rows: Iterable[IntRow], p: int) -> IntPivots:
    """Fully reduced echelon rows of the integer rows mod p, leading value 1.

    Invariant: a pivot row holds no pivot column but its own, and only
    columns >= its pivot.  So one pass over the pivot columns in an
    incoming row's support reduces it fully (reduction only brings in
    non-pivot columns), and its least remaining column is a new pivot.
    In that pass the row's entries are lazy: unreduced ``int``s (input
    entry plus products of residues), read as ``r.pop(pc) % p`` at a
    pivot and reduced once after the pass.  Pivot rows are stored
    reduced and without their unit entry, added back on return.  A new
    lead can only lie in pivot rows whose pivot is left of it, so
    back-reduction is skipped when it lies left of every pivot so far
    (``least``).
    """
    pivots: IntPivots = {}
    least = math.inf
    for row in rows:
        r = dict(row)
        for pc in row:
            pr = pivots.get(pc)
            if pr is not None:
                x = r.pop(pc) % p
                if x:
                    for c, v in pr.items():
                        r[c] = r.get(c, 0) - x * v
        r = {c: w for c, v in r.items() if (w := v % p)}
        if not r:
            continue
        lead = min(r)
        inv = pow(r.pop(lead), -1, p)
        r = {c: v * inv % p for c, v in r.items()}
        if lead > least:
            for pr in pivots.values():
                x = pr.pop(lead, None)
                if x is not None:
                    _axpy_mod(pr, p - x, r, p)
        least = min(least, lead)
        pivots[lead] = r
    for pc, pr in pivots.items():
        pr[pc] = 1
    return pivots


def _axpy_mod(dst: IntRow, coeff: int, src: IntRow, p: int) -> None:
    """dst += coeff * src mod p, dropping zeros (coeff and src entries nonzero).

    add_term inlined: this loop is back-reduction's inner loop.
    """
    for c, v in src.items():
        s = dst.get(c)
        if s is None:
            dst[c] = coeff * v % p
        else:
            s = (s + coeff * v) % p
            if s:
                dst[c] = s
            else:
                del dst[c]


def _crt(acc: IntPivots, m: int, image: IntPivots, p: int) -> None:
    """acc (mod m) becomes the residues mod m*p that are acc mod m, image mod p.

    Both have the same pivot rows; an entry missing from one side is 0.
    """
    m_inv = pow(m, -1, p)
    for pc, row in image.items():
        arow = acc[pc]
        for c in set(arow).union(row):
            a = arow.get(c, 0)
            x = a + m * ((row.get(c, 0) - a) * m_inv % p)
            if x:
                arow[c] = x
            else:
                arow.pop(c, None)


def _reconstruct(u: int, m: int, bound: int) -> Optional[Tuple[int, int]]:
    """(a, b) with a = b*u mod m, |a| <= bound, 0 < b <= bound, or None.

    Wang's rational reconstruction by the extended Euclidean algorithm;
    with 2 * bound^2 < m a fraction a/b in these bounds that is u mod m
    is unique, and this returns it when it exists.  A pair that is not
    in lowest terms is returned as found: the certificate decides.
    """
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound:
        return None
    return r1, s1


def _lift(acc: IntPivots, m: int) -> Optional[Dict[int, Dict[int, Tuple[int, int]]]]:
    """Off-pivot entries of acc as (a, b), one reconstruction per residue, or None."""
    bound = math.isqrt(m // 2)
    seen: Dict[int, Tuple[int, int]] = {}
    out = {}
    for pc, row in acc.items():
        lifted = {}
        for c, u in row.items():
            if c != pc:
                ab = seen.get(u)
                if ab is None:
                    ab = seen[u] = _reconstruct(u, m, bound)
                    if ab is None:
                        return None
                lifted[c] = ab
        out[pc] = lifted
    return out


def _certify(rows: List[IntRow], cand: Dict[int, Dict[int, Tuple[int, int]]]) -> bool:
    """True iff every integer row reduces to zero against the candidate.

    cand[pc][f] = (a, b) means R[pc][f] = a/b off the pivot.  Row x
    reduces to zero iff x . v_f = 0 for every free column f, where
    v_f = e_f - sum_pc R[pc][f] e_pc; each v_f is scaled by the lcm d_f
    of its denominators, so all arithmetic is in integers.  The free
    columns -- every column of the rows or the candidate that is no
    pivot -- are numbered once, each candidate row becomes a list of
    (free index, scaled entry) pairs, and each row x is checked in one
    dense accumulator of the k values x . d_f v_f.
    """
    den: Dict[int, int] = {}
    for row in cand.values():
        for f, (_, b) in row.items():
            den[f] = math.lcm(den.get(f, 1), b)
    free = {f: (i, d) for i, (f, d) in enumerate(den.items())}
    for c in set().union(*rows).difference(cand, free):
        free[c] = (len(free), 1)
    scaled = {
        pc: [(free[f][0], a * (den[f] // b)) for f, (a, b) in row.items()]
        for pc, row in cand.items()
    }
    k = len(free)
    for x in rows:
        acc = [0] * k
        for c, xc in x.items():
            w = scaled.get(c)
            if w is None:
                i, d = free[c]
                acc[i] -= xc * d
            else:
                for i, y in w:
                    acc[i] += xc * y
        if any(acc):
            return False
    return True


def rref_pivots(rows: Iterable[SparseRow]) -> Dict[int, SparseRow]:
    """Fully reduced echelon rows over Q keyed by pivot column.

    Every entry is a ``Fraction`` and each row's value at its pivot is
    1.  Entries may be ``int`` or ``Fraction``; zeros are ignored.  The
    rows are eliminated by :func:`_certified_rref`, and its certified
    candidate is turned into ``Fraction`` rows by :func:`_fractions`.
    """
    return _fractions(_certified_rref(rows))


def _certified_rref(rows: Iterable[SparseRow]) -> Dict[int, Dict[int, Tuple[int, int]]]:
    """The reduced echelon form over Q of the rows, as a certified
    candidate: pivot column -> {column: (a, b)}, entry a/b off the pivot.

    The package's one elimination.  The rows are cleared of
    denominators, eliminated modulo the primes of :func:`_primes`
    (images with the best pivot set combined by CRT), lifted by rational
    reconstruction and returned only once every input row reduces to
    zero against the lift, which proves the lift is the reduced echelon
    form over Q (see the module docstring).  The rows are eliminated in
    descending order of their leading column, so a new pivot mostly lies
    left of every pivot before it and :func:`_rref_mod` skips
    back-reduction for it; the reduced echelon form does not depend on
    row order.
    """
    int_rows = [r for r in map(_integer_row, rows) if r]
    if not int_rows:
        return {}
    int_rows.sort(key=min, reverse=True)
    best = acc = None
    m = 1
    for p in _primes():
        image = _rref_mod(int_rows, p)
        key = (-len(image), sorted(image))
        if best is None or key < best:
            best, acc, m = key, image, p
        elif key == best:
            _crt(acc, m, image, p)
            m *= p
        else:
            continue
        cand = _lift(acc, m)
        if cand is not None and _certify(int_rows, cand):
            return cand


def _fractions(cand: Dict[int, Dict[int, Tuple[int, int]]]) -> Dict[int, SparseRow]:
    """A certified candidate as ``Fraction`` pivot rows, one per distinct (a, b)."""
    distinct = {ab for row in cand.values() for ab in row.values()}
    made = {ab: Fraction(*ab) for ab in distinct}
    one = Fraction(1)
    return {
        pc: {pc: one, **{f: made[ab] for f, ab in row.items()}}
        for pc, row in cand.items()
    }


def rank(rows: Iterable[SparseRow]) -> int:
    """Exact rank over Q of sparse {column: value} rows.

    Entries may be ``int`` or ``Fraction``, as for :func:`rref_pivots`.
    The rows go through a :class:`SingletonPruner`; the rank is the
    number of dead columns plus the pivot count of the core's certified
    reduced echelon form, since the row space is the span of the dead
    columns' unit vectors plus the core's, which touches no dead column
    (module docstring).  Only the pivots are counted, so the certified
    candidate of :func:`_certified_rref` is never made ``Fraction`` rows.
    """
    pruner = SingletonPruner()
    pruner.extend(rows)
    return len(pruner.dead) + len(_certified_rref(pruner.core()))


class SingletonPruner:
    """Streaming singleton propagation over sparse rows.

    Rows are fed in batches with :meth:`extend`.  A row with one live
    column kills it; a row with two or more is kept and indexed by its
    live columns.  When a column
    dies, each kept row containing it loses one live column, and a row
    left with a single live column is consumed and kills that column.
    Zero entries are ignored; empty rows and rows whose columns are all
    dead say nothing and are dropped.  The dead set does not depend on
    the order of the rows.
    """

    __slots__ = ("dead", "_kept", "_by_col", "_held", "_held_kept")

    def __init__(self):
        self.dead: Set[int] = set()
        # [live count, row, its nonzero columns live on arrival]; count 0 = consumed
        self._kept: List[list] = []
        self._by_col: Dict[int, List[list]] = {}
        # the certified pivot rows of the last _pivots call, and len(_kept) then
        self._held: Dict[int, SparseRow] = {}
        self._held_kept = 0

    def extend(self, rows: Iterable[SparseRow]) -> None:
        """Feed the rows in turn."""
        dead = self.dead
        kept = self._kept
        by_col = self._by_col
        kill = self._kill
        for row in rows:
            if len(row) == 1:
                for c, v in row.items():
                    if v and c not in dead:
                        kill(c)
                continue
            live = [c for c, v in row.items() if v and c not in dead]
            if len(live) > 1:
                entry = [len(live), row, live]
                kept.append(entry)
                for c in live:
                    bucket = by_col.get(c)
                    if bucket is None:
                        by_col[c] = [entry]
                    else:
                        bucket.append(entry)
            elif live:
                kill(live[0])

    def _kill(self, col: int) -> None:
        dead = self.dead
        by_col = self._by_col
        stack = [col]
        while stack:
            c = stack.pop()
            if c in dead:
                continue
            dead.add(c)
            for entry in by_col.pop(c, ()):
                count = entry[0]
                if count > 2:
                    entry[0] = count - 1
                elif count == 2:
                    entry[0] = 0
                    for c2 in entry[2]:
                        if c2 not in dead:
                            stack.append(c2)
                            break
                    entry[1] = entry[2] = None

    def core(self, start: int = 0) -> Iterator[SparseRow]:
        """Kept rows from ``start`` on (all by default) restricted to their
        live columns, in arrival order."""
        dead = self.dead
        for count, row, live in self._kept[start:]:
            if count:
                yield {c: row[c] for c in live if c not in dead}

    def _pivots(self, ncols: int) -> Dict[int, SparseRow]:
        """The core's pivot rows, after range-checking every column seen.

        Every nonzero column fed is dead or live in a kept row, and the
        live ones are exactly the keys of ``_by_col``.  One
        :func:`rref_pivots` call gets the pivot rows held from the last
        call restricted to the live columns, then the rows kept since,
        streamed so no list of the core is kept; the first call gets the
        whole core.  The result is held for the next call (see "Extending
        a certified form" in the module docstring).
        """
        dead = self.dead
        if any(c < 0 or c >= ncols for c in chain(dead, self._by_col)):
            raise ValueError("row has a column outside range(ncols)")
        held = ({c: v for c, v in row.items() if c not in dead} for row in self._held.values())
        pivots = rref_pivots(chain(held, self.core(self._held_kept)))
        self._held, self._held_kept = pivots, len(self._kept)
        return pivots

    def nullspace(self, ncols: int) -> List[SparseRow]:
        """:func:`nullspace` of the rows fed so far, without a second pass;
        each vector's first key is its free column."""
        pivots = self._pivots(ncols)
        one = Fraction(1)
        by_free: Dict[int, SparseRow] = {}
        for pc, pr in pivots.items():
            for f, x in pr.items():
                if f != pc:
                    vec = by_free.get(f)
                    if vec is None:
                        by_free[f] = vec = {f: one}
                    vec[pc] = -x
        dead = self.dead
        return [
            by_free.get(f) or {f: one}
            for f in range(ncols)
            if f not in pivots and f not in dead
        ]


def nullspace(rows: Iterable[SparseRow], ncols: int) -> List[SparseRow]:
    """Basis of {x : Ax = 0} for sparse rows over columns 0..ncols-1.

    One basis vector per free column f, normalized with x_f = 1, f its
    first key; the list is ordered by free column.  Vectors are sparse
    dicts of ``Fraction``.  Rows go through the singleton pass first;
    only the live core reaches :func:`rref_pivots`.
    """
    pruner = SingletonPruner()
    pruner.extend(rows)
    return pruner.nullspace(ncols)
