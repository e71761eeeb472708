"""Exact linear algebra over Q.

Two entry points cover everything the package needs:

* :func:`rank` -- fraction-free (Bareiss) elimination on an integer
  matrix obtained by clearing denominators row by row; row scaling by
  nonzero rationals preserves rank, and the Bareiss pivot formula
  divides exactly, so all intermediate values stay integers.

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
which skips a second singleton pass.

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
prime is taken.

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
alone reconstructs entries of height below 2^63 (one pass at 127 bits
costs about as much as one at 61 bits), and continues lazily with the
primes below 2^61 in descending order, each proven by Miller-Rabin with
the first 12 primes as bases, which is deterministic below 3.18 * 10^23.
Nothing is computed at import time.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
import math
from itertools import chain
from math import gcd
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm * d // gcd(lcm, d)
        out.append([int(x * lcm) for x in row])
    return out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a dense rational matrix via Bareiss elimination."""
    m = _integer_rows(rows)
    nr = len(m)
    if nr == 0:
        return 0
    nc = len(m[0])
    if any(len(r) != nc for r in m):
        raise ValueError("ragged matrix")
    r = 0
    prev = 1
    for col in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        # the update must run even when m[i][col] == 0: every entry below
        # the pivot carries the accumulated minor factor, and skipping the
        # scaling breaks the exactness of the later divisions by prev
        for i in range(r + 1, nr):
            mic = m[i][col]
            row_i = m[i]
            row_r = m[r]
            for j in range(col + 1, nc):
                row_i[j] = (row_i[j] * p - mic * row_r[j]) // prev
            row_i[col] = 0
        prev = p
        r += 1
        if r == nr:
            break
    return r


SparseRow = Dict[int, Fraction]


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
    """The nonzero entries of row times the lcm of their denominators."""
    lcm = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (lcm // v.denominator) for c, v in row.items() if v}


def _rref_mod(rows: List[IntRow], p: int) -> IntPivots:
    """Fully reduced echelon rows of the integer rows mod p, leading value 1.

    Invariant: every stored pivot row contains no pivot column other
    than its own.  An incoming row is therefore fully reduced by one
    pass over the pivot columns in its support (reduction only ever
    introduces non-pivot columns), after which its minimum remaining
    column is a fresh pivot.  Each pivot row's columns are >= its pivot.
    """
    pivots: IntPivots = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            v %= p
            if v:
                r[c] = v
        for pc in list(r):
            pr = pivots.get(pc)
            if pr is not None and pc in r:
                _axpy_mod(r, p - r[pc], pr, p)
        if not r:
            continue
        lead = min(r)
        inv = pow(r[lead], -1, p)
        r = {c: v * inv % p for c, v in r.items()}
        for pr in pivots.values():
            x = pr.get(lead)
            if x is not None:
                _axpy_mod(pr, p - x, r, p)
        pivots[lead] = r
    return pivots


def _axpy_mod(dst: IntRow, coeff: int, src: IntRow, p: int) -> None:
    """dst += coeff * src mod p, dropping zeros (coeff and src entries nonzero).

    add_term inlined: this loop is the elimination's inner loop.
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
    """Every off-pivot entry of acc reconstructed as (a, b), or None."""
    bound = math.isqrt(m // 2)
    out = {}
    for pc, row in acc.items():
        lifted = {}
        for c, u in row.items():
            if c != pc:
                ab = _reconstruct(u, m, bound)
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
    of its denominators, so all arithmetic is in integers.
    """
    den: Dict[int, int] = {}
    for row in cand.values():
        for f, (_, b) in row.items():
            if b != 1:
                den[f] = math.lcm(den.get(f, 1), b)
    scaled = {
        pc: {f: a * (den.get(f, 1) // b) for f, (a, b) in row.items()}
        for pc, row in cand.items()
    }
    for x in rows:
        acc: IntRow = {}
        for c, xc in x.items():
            w = scaled.get(c)
            if w is None:
                acc[c] = acc.get(c, 0) - xc * den.get(c, 1)
            else:
                for f, y in w.items():
                    acc[f] = acc.get(f, 0) + xc * y
        if any(acc.values()):
            return False
    return True


def rref_pivots(rows: Iterable[SparseRow]) -> Dict[int, SparseRow]:
    """Fully reduced echelon rows over Q keyed by pivot column.

    Every entry is a ``Fraction`` and each row's value at its pivot is
    1.  Entries may be ``int`` or ``Fraction``; zeros are ignored.  The
    rows are cleared of denominators, eliminated modulo the primes of
    :func:`_primes` (images with the best pivot set combined by CRT),
    lifted by rational reconstruction and returned only once every
    input row reduces to zero against the lift, which proves the lift
    is the reduced echelon form over Q (see the module docstring).
    """
    int_rows = [r for r in map(_integer_row, rows) if r]
    if not int_rows:
        return {}
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
            one = Fraction(1)
            return {
                pc: {pc: one, **{f: Fraction(a, b) for f, (a, b) in row.items()}}
                for pc, row in cand.items()
            }


class SingletonPruner:
    """Streaming singleton propagation over sparse rows.

    Rows are fed one at a time with :meth:`add`.  A row with one live
    column kills it; a row with two or more is kept and indexed by its
    live columns.  When a column dies, each kept row containing it loses
    one live column, and a row left with a single live column is
    consumed and kills that column.  Zero entries are ignored; empty
    rows and rows whose columns are all dead say nothing and are
    dropped.  The dead set does not depend on the order of the rows.
    """

    __slots__ = ("dead", "_kept", "_by_col")

    def __init__(self):
        self.dead: Set[int] = set()
        # [live count, row, its nonzero columns live on arrival]; count 0 = consumed
        self._kept: List[list] = []
        self._by_col: Dict[int, List[list]] = {}

    def add(self, row: SparseRow) -> None:
        dead = self.dead
        if len(row) == 1:
            for c, v in row.items():
                if v and c not in dead:
                    self._kill(c)
            return
        live = [c for c, v in row.items() if v and c not in dead]
        if len(live) > 1:
            entry = [len(live), row, live]
            self._kept.append(entry)
            by_col = self._by_col
            for c in live:
                bucket = by_col.get(c)
                if bucket is None:
                    by_col[c] = [entry]
                else:
                    bucket.append(entry)
        elif live:
            self._kill(live[0])

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

    def core(self) -> List[SparseRow]:
        """Kept rows restricted to their live columns, in arrival order."""
        return list(self._core())

    def _core(self) -> Iterator[SparseRow]:
        dead = self.dead
        for count, row, live in self._kept:
            if count:
                yield {c: row[c] for c in live if c not in dead}

    def system(self) -> List[SparseRow]:
        """An equivalent system: one unit row per dead column, then the core."""
        one = Fraction(1)
        return [{d: one} for d in sorted(self.dead)] + self.core()

    def _pivots(self, ncols: int) -> Dict[int, SparseRow]:
        """The core's pivot rows, after range-checking every column seen.

        Every nonzero column fed is dead or live in a kept row, and the
        live ones are exactly the keys of ``_by_col``.  The core streams
        into :func:`rref_pivots`, so no list of it is kept.
        """
        if any(c < 0 or c >= ncols for c in chain(self.dead, self._by_col)):
            raise ValueError("row has a column outside range(ncols)")
        return rref_pivots(self._core())

    def nullspace(self, ncols: int) -> List[SparseRow]:
        """:func:`nullspace` of the rows fed so far, without a second pass."""
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


def _pruned(rows: Iterable[SparseRow]) -> SingletonPruner:
    pruner = SingletonPruner()
    for row in rows:
        pruner.add(row)
    return pruner


def nullspace(rows: Iterable[SparseRow], ncols: int) -> List[SparseRow]:
    """Basis of {x : Ax = 0} for sparse rows over columns 0..ncols-1.

    One basis vector per free column f, normalized with x_f = 1; the
    list is ordered by free column.  Vectors are sparse dicts of
    ``Fraction``.  Rows go through the singleton pass first; only the
    live core reaches :func:`rref_pivots`.
    """
    return _pruned(rows).nullspace(ncols)


def nullity(rows: Iterable[SparseRow], ncols: int) -> int:
    pruner = _pruned(rows)
    return ncols - len(pruner.dead) - len(pruner._pivots(ncols))
