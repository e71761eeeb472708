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
  that column in turn.  Then reduced row echelon form over Fraction
  (:func:`rref_pivots`) on the live core only -- the kept rows with
  their dead columns removed -- followed by free-column back
  substitution.

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
and hand :func:`nullspace` the core plus one unit row {d: 1} per dead
column (without those unit rows the dead columns would come back as
free columns).

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Sequence, Set, Tuple


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


def _axpy(dst: SparseRow, coeff: Fraction, src: SparseRow) -> None:
    """dst += coeff * src, dropping zeros (coeff and src entries nonzero).

    add_term inlined: this loop is the elimination's inner loop.
    """
    for c, v in src.items():
        x = coeff * v
        s = dst.get(c)
        if s is None:
            dst[c] = x
        else:
            s += x
            if s:
                dst[c] = s
            else:
                del dst[c]


def rref_pivots(rows: Iterable[SparseRow]) -> Dict[int, SparseRow]:
    """Fully reduced echelon rows keyed by pivot column (leading value 1).

    Invariant: every stored pivot row contains no pivot column other
    than its own.  An incoming row is therefore fully reduced by one
    pass over the pivot columns in its support (reduction only ever
    introduces non-pivot columns), after which its minimum remaining
    column is a fresh pivot.  Zero entries of an incoming row are
    dropped, so a leading value is never zero.
    """
    pivots: Dict[int, SparseRow] = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        for pc in list(r):
            if pc in pivots and pc in r:
                _axpy(r, -r[pc], pivots[pc])
        if not r:
            continue
        lead = min(r)
        inv = Fraction(1) / r[lead]
        r = {c: v * inv for c, v in r.items()}
        for pr in pivots.values():
            if lead in pr:
                _axpy(pr, -pr[lead], r)
        pivots[lead] = r
    return pivots


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
        dead = self.dead
        return [
            {c: row[c] for c in live if c not in dead}
            for count, row, live in self._kept
            if count
        ]

    def system(self) -> List[SparseRow]:
        """An equivalent system: one unit row per dead column, then the core."""
        one = Fraction(1)
        return [{d: one} for d in sorted(self.dead)] + self.core()


def _reduce(rows: Iterable[SparseRow], ncols: int) -> Tuple[Set[int], Dict[int, SparseRow]]:
    """Dead columns and the core's pivot rows, every column range-checked."""
    pruner = SingletonPruner()
    for row in rows:
        pruner.add(row)
    core = pruner.core()
    dead = pruner.dead
    if any(c < 0 or c >= ncols for c in dead) or any(
        c < 0 or c >= ncols for row in core for c in row
    ):
        raise ValueError("row has a column outside range(ncols)")
    return dead, rref_pivots(core)


def nullspace(rows: Iterable[SparseRow], ncols: int) -> List[SparseRow]:
    """Basis of {x : Ax = 0} for sparse rows over columns 0..ncols-1.

    One basis vector per free column f, normalized with x_f = 1; the
    list is ordered by free column.  Vectors are sparse dicts.  Rows go
    through the singleton pass first; only the live core reaches
    :func:`rref_pivots`.
    """
    dead, pivots = _reduce(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots or f in dead:
            continue
        vec: SparseRow = {f: Fraction(1)}
        for pc, pr in pivots.items():
            if f in pr:
                vec[pc] = -pr[f]
        basis.append(vec)
    return basis


def nullity(rows: Iterable[SparseRow], ncols: int) -> int:
    dead, pivots = _reduce(rows, ncols)
    return ncols - len(dead) - len(pivots)
