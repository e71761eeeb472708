"""Induced Whittaker modules and exact Whittaker-vector solvers.

The module M(Lam, theta) is induced from a one-dimensional module of
the loop nilradical L(n): the cyclic vector 1 satisfies

    (X_alpha (x) t^j) . 1 = Lam(alpha)_j . 1     alpha in Phi^0_n,
    (X_alpha (x) t^j) . 1 = 0                    alpha in Phi^1_n,
    c . 1 = theta . 1,

where each Lam(alpha) is a bi-infinite rational sequence.  A PBW basis
is given by standard monomials u_1 u_2 ... u_m . 1 in the generators
outside L(n) (loop generators with weight not in Phi_n, the Cartan
loops H_i (x) t^j, and d), written with factors ascending in a fixed
total generator order:

* weights first, under the root order (strata of -Phi_n below the
  Levi-and-zero block);
* then the t-exponent;
* Cartan index last, with d strictly above every weight-zero loop
  generator.

The cyclic vector spans a one-dimensional module of L(n) + Cc with
character lambda: lambda(X_alpha (x) t^j) = Lam(alpha)_j (0 on
Phi^1_n) and lambda(c) = theta; set lambda = 0 on module generators.
A Whittaker vector is a common kernel vector of the shifted operators
g - lambda(g), g in L(n), and those are what the engine straightens.
Since lambda(g) is a scalar, it commutes with u_1, and

    (g - lambda(g)) . (u_1 ... u_m . 1)
        = u_1 . ((g - lambda(g)) . (u_2 ... u_m . 1))
          + sum_h [g, u_1]_h (lambda(h) + (h - lambda(h))) . (u_2 ... u_m . 1)

with [g, u_1] = sum_h [g, u_1]_h h over generators h.  The recursion
stops where g prepends in order (g <= u_1, g not in L(n)), and at the
cyclic vector, where g - lambda(g) gives 0 for g in L(n); c - theta is
0 on the whole module.  Results are memoized per module, as far as a
later step can read them (below).  The public ``lmul`` adds lambda(g)
back on the monomial it was given, so it returns g . m.

Monomials and generators are hash-consed, keyed by their constructor
arguments.  Each module numbers the generators (gid; c is 0) and the
monomials (mid; the cyclic vector is 0) it has seen, and keeps for
every mid its split: the head gid, its multiplicity and the mid of the
monomial with one head factor removed, which is what the recursion
above reads.  A monomial is interned by its split: ``_prep[g]`` maps the
mid of rest to the mid of g prepended to it ((g, rest) fixes the
multiplicity), so no monomial tuple is built or hashed there.  A tuple
from outside is checked to be standard on every call, before any part
of it is interned, then walked in by prepends.  The basis is interned
as it is enumerated, each monomial by one prepend onto the id of its
rest, and is not walked in again.  Straightening, its memo, the
bracket memo and both row builders work on these small ``int`` ids.  All three tables
are lists indexed by gid that grow with the generator table:
``_memo[gid]`` maps a mid to the image {mid: coeff} of (g - lambda(g))
on it, ``_brackets[gid]`` a head gid to [g, head] as the sum of its
coefficients times lambda and its (gid, coeff) pairs bar c.  Tuples
appear only at the boundary: ``mono(mid)`` builds one from the splits
and caches it, for the public ``lmul``.

One kernel straightens: the generator :func:`_straighten`, on a
module's ``_tables``, which it binds once per call.  The module's row
builder calls it once per condition over its basis ids and reads the
images one column at a time; ``lmul``, ``act_gen`` and the recursion ask
it for single images.  A prepend takes no memo entry.  ``_prep[h][m]`` is only
written where h prepends in standard order (the kernel's prepend
branch, a first-time prepend of the head in its head loop, and the walk
of a standard tuple), so an entry means that h is a module generator
with h <= head(m).  Then lambda(h) = 0, and (h - lambda(h)) . m = h . m
is that monomial with coefficient 1, which the kernel reads from
``_prep``, with no memo probe and no call, for g on rest, the head on
each term of g . rest and each bracket term h on rest.

The memo keeps only images a later step can read.  An image of m reads
images of rest (degree deg m - 1), of the terms of (g - lambda(g)) .
rest, of degree at most deg m since one more factor raises the PBW
degree by at most one, and of rest under the bracket terms; so the
images it reads, and by induction all below them, are of monomials of
degree at most deg m.  For g in L(n) the terms of (g - lambda(g)) .
rest have degree at most deg rest (shown below, where a shifted image
is seen to have no term on its monomial), so the image of a basis
column of the top degree D reads lower degrees only.  So within a
solve the one read of a top-degree image is the row builder's own,
once per condition and column, and the kernel never stores the images
of the columns a builder passes as top (one already stored, by
``lmul``, it reads and drops).  The basis ascends in degree, so a
builder finds its top-degree columns by bisection on the degrees of
the ids it is given.  The images of lower degree, which later columns
and conditions read, stay.  Anything that asks for a dropped image
again -- the public ``lmul`` and ``act_gen``, or a system rebuilt at
another (D, E) -- straightens it again and gets the same image; in a J
scan on a held system every new condition has a generator of its own,
so none does.

This is exact.  The ids are a bijection on the monomials seen, and
every row entry is the coefficient of its output monomial in
(X - Lam_j) . m, as straightening g and subtracting Lam_j on the
diagonal would give, with zero entries absent.  So every condition
yields the same rows with the same coefficients under renamed keys;
only the order in which columns and rows first appear can differ.  The
pruner's dead set does not depend on row order, and the reduced echelon
form and the normalized kernel basis are unique; so the vectors,
``row_count`` and every report are unchanged.

whittaker_solve assembles, for a finite truncation (D = max monomial
degree, E = max |t-exponent| per factor, J = condition window), the
exact linear system expressing that v in the truncated span satisfies
every Whittaker condition for j in [-J, J] *in the full module*:
coefficients landing on monomials outside the span must vanish, so the
computed nullspace over Q is exactly the space of truncated Whittaker
vectors.  Dimension 1 certifies uniqueness inside the span; a larger
dimension at small J is not a refutation, since enlarging J never
increases the dimension.

Both solvers share one assembler, :meth:`WhittakerModule.solve`, which
the tensor module binds as its own ``solve``; they differ only in the
roots, the empty system and the row builder that ``solve`` reads from
them: for one condition (root, j) and the pruner's dead set, the
builder ``condition_rows`` returns that condition's rows ``{out: {col:
coeff}}`` over the live columns, keyed by output mid (a pair of mids
for the tensor builder), and the row count of the full condition.  The module
builder's rows are the memoized shifted images (X - Lam_j) . m of the
basis columns, as they are.  The tensor builder is the Kronecker sum
R_a (x) I + I (x) R_b of the factors' own ``condition_rows`` R_a and
R_b, as X - (Lam + Lam')_j acts on a pair as (X - Lam_j).ma (x) mb +
ma (x) (X - Lam'_j).mb: row m of R_a lands on the rows (m, mb), row m'
of R_b on (ma, m').  It reads R_a and R_b as columns and visits only
the live pair columns, writing column ma of R_a and column mb of R_b
into pair column (ma, mb).  It builds no tensor element and reads no
table of its factors.

The two parts of a row never share a column: in column (ma, mb) that
would need (m, mb) = (ma, m'), and a shifted image (X - Lam_j) . m,
X = X_alpha (x) t^j with alpha in Phi_n, never has a term on m.  Let m
= u_1 ... u_k . 1 have PBW degree k and weight wt(m), the sum of the
root-lattice weights of its factors (X_beta (x) t^i has weight beta,
the Cartan loops and d have weight 0).  Moving X to the right leaves
lambda(X) m, which the shift cancels, and the terms u_1 ... [X, u_i] ...
u_k . 1.  Straightening those into standard monomials only lowers the
degree: reordering two factors leaves their bracket, one factor or c,
in place of two, and a factor in L(n) + Cc acts on what stands to its
right by a shorter product or a scalar.  So a term of full degree k
comes from a module generator in [X, u_i] and has weight wt(m) +
alpha, since brackets add weights and reordering keeps them; alpha !=
0, so it is not m.  Every other term has degree below k, so it is not
m either.

Rows are never kept as a full list, and the rows of dead columns are
counted, not built.  Each condition's rows stream through the singleton
pass of :class:`linalg.SingletonPruner` as soon as they are built: a
row with one live column forces that column to zero in every solution,
and those deaths propagate through the kept rows.  What survives is a
small core of rows with two or more live columns, which goes straight
to elimination (``SingletonPruner.nullspace``).  This is exact: each
dead column's unit vector lies in the row space of the full system, so
the core plus one unit row per dead column has the same row space, the
same kernel and the same normalized kernel basis.

A column dead when its condition starts is still straightened, since
the row count needs the support of every image, but the builder writes
none of its entries; a row left with none is not built.  It keeps the
dead columns' images of the condition and counts the union of their
supports and the keys of the rows it built, in one call at the end.
Nothing changes:
``extend`` reads each row's live columns as it arrives and drops the
rest, and the dead set only grows, so it takes the same live entries
from these rows as from the full ones and reaches the same dead set.
The core is the same set of rows, at most in another order, and its
reduced echelon form, hence the primes that certify it, does not depend
on row order.  ``row_count`` is the full system's.

The system at J is the system at a smaller J plus the conditions with
larger |j|, on the same basis, since the basis depends only on (D, E).
So each module keeps the :class:`ConditionSystem` of its last
successful solve: (D, E, J), the basis with its interned ids, the
pruner and the condition and row counts, but no reference to its
module, so a dropped module is freed by reference counting.  A solve
with the same (D, E) and a J' >= J only builds and feeds the conditions
with J < |j| <= J'; any other request rebuilds the system.  The pruner
gets the same live entries of the same rows as a fresh solve's, and
its dead set does not depend on row order.  It also holds the reduced
echelon form it certified last, and the next solve eliminates that
form, restricted to the columns still live, with the new core rows:
the two span the core's row space (argument in the ``linalg``
docstring), and the certified reduced echelon form and normalized
kernel basis are unique, so the answer is a fresh solve's.
``row_count`` and ``condition_count`` are sums over the conditions fed.

Elimination of the core is multimodular and certified
(``linalg.rref_pivots``): the lift is returned only once every core row
reduces to zero against it in exact integer arithmetic, so the kernel
vectors are the exact ones, not probable ones.

Coefficients are exact: an ``int`` when the value is integral, else a
``Fraction``.  Values enter straightening in that form -- the unit
coefficient of a prepend, the shifts lambda(g) and the brackets -- and
a product or sum of two ``int`` values stays an ``int``, with no gcd and
no ``Fraction`` object.  One involving a ``Fraction`` is a ``Fraction``
even when integral, so each new memo entry is normalized once, after
its loops.  A product whose memoized or bracket factor is 1 is not
formed: the other factor has its value and, with memo entries
normalized, its type.  ``int`` and integral ``Fraction`` values compare,
hash and print alike, and the kernel vectors are ``Fraction``
throughout, so no answer or report changes.

``solve`` pauses the cyclic garbage collector while it runs and
restores the caller's setting afterwards.  Straightening and
elimination allocate millions of dicts, tuples and ``Fraction`` objects;
the collector would only rescan the growing memo again and again.

Tensor products act diagonally (Leibniz); on a pair of modules c acts
by theta + theta' and the Whittaker eigenvalues add entrywise.
"""

from __future__ import annotations

import gc
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

from . import linalg
from .affine import AffineAlgebra, Gen, Scalar, _exact, gen_str
from .rootdata import RootDatum, root_str
from .seqspace import (
    BiSequence,
    SetVerdict,
    is_generic,  # not called here; perfbench/tracing.py wraps engine.is_generic
    is_strongly_generic_set,
    member_record,
)

Monomial = Tuple[Tuple[Gen, int], ...]  # ((gen, multiplicity), ...) ascending
ModuleElement = Dict[Monomial, Scalar]
IdElement = Dict[int, Scalar]  # a ModuleElement keyed by monomial id

VACUUM: Monomial = ()

MODES = ("affine", "loop_only")


@dataclass(frozen=True)
class Truncation:
    """Finite window (D, E, J) for the exact solvers."""

    D: int
    E: int
    J: int

    def __post_init__(self):
        for name in "DEJ":
            if linalg.require_int(getattr(self, name), f"truncation bound {name}") < 0:
                raise ValueError(f"truncation bounds must be nonnegative: {self}")


class WhittakerSpec:
    """Input data of one induced module: datum, Lam, theta, mode, cocycle.

    Lam maps each root of Phi^0_n to a sequence.  In affine mode the
    multiset of sequences is expected to be strongly generic; in
    loop-only mode plain genericity of each member suffices.  A
    failing or undecided check only warns: the solvers stay exact
    either way, the uniqueness theory just stops promising dimension 1.
    """

    def __init__(
        self,
        datum: RootDatum,
        lam: Mapping[tuple, BiSequence],
        theta=0,
        mode: str = "affine",
        cocycle: str = "standard",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        lam = {tuple(r): s for r, s in lam.items()}
        if set(lam) != set(datum.phi_n0):
            missing = sorted(map(root_str, set(datum.phi_n0) - set(lam)))
            extra = sorted(map(root_str, set(lam) - set(datum.phi_n0)))
            raise ValueError(
                f"Lam must be defined exactly on Phi^0_n; missing {missing}, "
                f"unexpected {extra}"
            )
        self.datum = datum
        self.lam = lam
        self.theta = linalg.as_scalar(theta)
        self.mode = mode
        self.cocycle = cocycle
        self.genericity = self._check_genericity()

    def _check_genericity(self) -> SetVerdict:
        roots = sorted(self.lam)
        # one decision per member, kept for a tensor product's union verdict
        self.member_records = members = [member_record(self.lam[r]) for r in roots]
        if self.mode == "loop_only":
            bad = [r for r, rec in zip(roots, members) if not rec.verdict.is_generic]
            if bad:
                verdict = SetVerdict(
                    "not_strongly_generic",
                    f"non-generic Lam at {[root_str(r) for r in bad]}",
                )
                warnings.warn(
                    f"Lam is not generic ({verdict.reason}); "
                    "uniqueness of Whittaker vectors is not guaranteed",
                    stacklevel=3,
                )
                return verdict
            return SetVerdict("strongly_generic", "each member generic (loop mode)")
        verdict = is_strongly_generic_set(members)
        if not verdict.is_strongly_generic:
            warnings.warn(
                f"Lam multiset is not certified strongly generic "
                f"({verdict.kind}: {verdict.reason}); uniqueness of Whittaker "
                "vectors is not guaranteed",
                stacklevel=3,
            )
        return verdict

    @property
    def loop_only(self) -> bool:
        return self.mode == "loop_only"

    def vacuum_scalar(self, root: tuple, j: int) -> Fraction:
        """Scalar by which X_root (x) t^j acts on the cyclic vector."""
        seq = self.lam.get(root)
        if seq is not None:
            return seq.entry(j)
        if root in self.datum.phi_n1:
            return Fraction(0)
        raise ValueError(f"{root_str(root)} is not a nilradical root")

    def __repr__(self):
        return (
            f"WhittakerSpec(n={self.datum.n}, levi={sorted(self.datum.levi)}, "
            f"theta={self.theta}, mode={self.mode})"
        )


def generator_key(datum: RootDatum, g: Gen, loop_only: bool = False) -> tuple:
    """Total order key on module generators.

    Weights come first under the root order, then the t-exponent, then
    the Cartan index; d sits strictly above every weight-zero loop
    generator and strictly below the positive Levi-root generators.
    Raises ValueError for c and for members of L(n).
    """
    if g == "d":
        if loop_only:
            raise ValueError("d does not exist in loop-only mode")
        return (datum.order_key(datum.zero), 1, 0, 0)
    if g == "c":
        raise ValueError("c is not a module generator")
    if g[0] == "X":
        if g[1] in datum.phi_n:
            raise ValueError(f"{gen_str(g)} is not a module generator")
        return (datum.order_key(g[1]), 0, g[2], 0)
    return (datum.order_key(datum.zero), 0, g[2], g[1])


def ordered_generators(datum: RootDatum, E: int, loop_only: bool = False) -> list:
    """Module generators with |t-exponent| <= E, ascending in the order."""
    gens = []
    for root in sorted(datum.phi - datum.phi_n):
        for j in range(-E, E + 1):
            gens.append(("X", root, j))
    for i in range(1, datum.rank + 1):
        for j in range(-E, E + 1):
            gens.append(("H", i, j))
    if not loop_only:
        gens.append("d")
    gens.sort(key=lambda g: generator_key(datum, g, loop_only))
    return gens


@dataclass
class SolveResult:
    """Exact nullspace of the truncated Whittaker conditions."""

    dimension: int
    vectors: List[ModuleElement]
    basis: List[Monomial]
    truncation: Truncation
    condition_count: int
    row_count: int

    @property
    def basis_size(self) -> int:
        return len(self.basis)


class ConditionSystem:
    """The Whittaker conditions with |j| <= J on span(basis), as fed so far.

    ``basis`` is the basis of the truncation (D, E) and ``ids`` its
    interned monomial ids, one list per tensor factor (a 1-tuple for a
    module).  ``J`` is -1 while no condition has been fed.  The counts
    cover every condition and row fed, so they are those of the full
    system at ``J``.
    """

    __slots__ = (
        "D", "E", "J", "basis", "ids", "pruner", "condition_count", "row_count"
    )

    def __init__(self, trunc: Truncation, basis: list, ids: tuple):
        self.D, self.E, self.J = trunc.D, trunc.E, -1
        self.basis = basis
        self.ids = ids
        self.pruner = linalg.SingletonPruner()
        self.condition_count = self.row_count = 0

    def extends_to(self, trunc: Truncation) -> bool:
        """Whether the system at ``trunc`` is this one plus larger |j|."""
        return self.D == trunc.D and self.E == trunc.E and self.J <= trunc.J


def _gen_id(t: tuple, g: Gen) -> int:
    """Id of a generator of the algebra, interning it on first sight.

    Nothing is validated here, though an equality lookup alone would take
    ``True`` for ``1``: :meth:`WhittakerModule.act_gen` and
    :meth:`WhittakerModule._mid` validate what comes from outside first."""
    gid = t[7].get(g)
    if gid is not None:
        return gid
    memos, preps, _, gen_info, shift, brackets, gens, gen_ids, alg, spec = t
    in_ln = alg.in_Ln(g)
    key = None if in_ln else generator_key(spec.datum, g, spec.loop_only)
    gen_info.append((in_ln, key))
    shift.append(_exact(spec.vacuum_scalar(g[1], g[2])) if in_ln else 0)
    gid = gen_ids[g] = len(gens)
    gens.append(g)
    memos.append({})
    brackets.append({})
    preps.append({})
    return gid


def _prepend(t: tuple, g: int, rest: int) -> int:
    """Id of the module generator g prepended to the monomial ``rest``, g <=
    its head: the split (g, mult, rest), kept in ``_prep[g][rest]``."""
    prep, split = t[1][g], t[2]
    mid = prep.get(rest)
    if mid is None:
        mult = split[rest][1] + 1 if rest and split[rest][0] == g else 1
        mid = prep[rest] = len(split)
        split.append((g, mult, rest))
    return mid


def _bracket(t: tuple, g: int, head: int) -> tuple:
    """``_brackets[g][head]``, computed and stored: [g, head] = sum ch.h as
    (sum of ch.lambda(h), [(h, ch) for h != c]), c - theta being zero.

    One pass over the terms of ``bracket_gens``: a term whose shift
    lambda(h) is 0 adds nothing to the sum, and the sum, an ``int`` unless
    a ``Fraction`` entered it, is normalized only when it is a ``Fraction``."""
    shift, gen_ids = t[4], t[7]
    lam, terms = 0, []
    for h, c in t[8].bracket_gens(t[6][g], t[6][head]).items():
        k = gen_ids.get(h)
        if k is None:
            k = _gen_id(t, h)
        if shift[k]:
            lam += c * shift[k]
        if k:
            terms.append((k, c))
    if type(lam) is Fraction:
        lam = _exact(lam)
    out = t[5][g][head] = (lam, terms)
    return out


def _straighten(t: tuple, g: int, mids, top: int = 1):
    """The images (g - lambda(g)) . m on ids, m in ``mids`` in order, each
    computed as it is asked for (module docstring); ``t`` is a module's
    ``_tables``.  An image is read from ``_memo[g]``, else computed and
    stored there, but those of ``mids[top:]`` are never stored and leave
    the memo when found there.  Images are shared through the memo and
    must not be mutated.  A prepend is a fresh one-term image, recorded in
    ``_prep`` only; a zero image (c on any monomial, g in L(n) on the
    cyclic vector) a fresh empty dict, which the recursion does not ask
    for.  A product with a factor 1 (every prepend, most structure
    constants) is not formed: ``c * 1`` equals ``c`` and, with memo
    entries normalized to ``int``, has its type; an image formed without
    a sum or product is normalized already."""
    memos, preps, split, gen_info = t[0], t[1], t[2], t[3]
    memo, g_prep, g_brackets = memos[g], preps[g], t[5][g]
    in_ln, gk = gen_info[g]
    for i, m in enumerate(mids):
        acc = memo.get(m) if i < top else memo.pop(m, None)
        if acc is not None:
            yield acc
            continue
        if in_ln:
            if not m:  # g - lambda(g) is zero on the cyclic vector
                yield {}
                continue
        elif not g:  # c - theta is zero on the whole module
            yield {}
            continue
        elif not m or gk <= gen_info[split[m][0]][1]:
            yield {_prepend(t, g, m): 1}  # merging with the head when equal
            continue
        head, _, rest = split[m]
        head_memo, head_prep = memos[head], preps[head]
        acc, mixed = {}, False  # mixed: a sum or product formed
        # linalg.add_term inlined in the hot loops below
        m2 = g_prep.get(rest) if g_prep else None  # g_prep is empty for g in L(n)
        if m2 is not None:  # g . rest is the monomial m2, coefficient 1
            img = {m2: 1}
        else:
            img = memo.get(rest)
            if img is None:  # not stored: g in L(n) on the cyclic vector is zero
                img = {}
                if rest or not in_ln:
                    (img,) = _straighten(t, g, (rest,))
        for m2, c2 in img.items():
            k = head_prep.get(m2)
            if k is None:
                img = head_memo.get(m2)
                if img is None:
                    h = split[m2][0] if m2 else 0  # a first-time prepend?
                    if h == head or not m2 or gen_info[head][1] < gen_info[h][1]:
                        k = head_prep[m2] = len(split)
                        split.append((head, split[m2][1] + 1 if h == head else 1, m2))
                    else:
                        (img,) = _straighten(t, head, (m2,))
            if k is not None:  # head . m2 is the monomial k, coefficient 1
                s = acc.get(k)
                if s is None:
                    acc[k] = c2
                    continue
                s += c2
                mixed = True
                if s:
                    acc[k] = s
                else:
                    del acc[k]
                continue
            mixed = True
            for k, c in img.items():
                x = c2 if c == 1 else c2 * c
                s = acc.get(k)
                if s is None:
                    acc[k] = x
                else:
                    s += x
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
        lam, bracket = g_brackets.get(head) or _bracket(t, g, head)
        if lam:  # h = (h - lambda(h)) + lambda(h), summed over the bracket
            linalg.add_term(acc, rest, lam)
            mixed = True
        for h, ch in bracket:
            k = preps[h].get(rest)
            if k is not None:  # h . rest is the monomial k, coefficient 1
                s = acc.get(k)
                if s is None:
                    acc[k] = ch
                    continue
                s += ch
                mixed = True
                if s:
                    acc[k] = s
                else:
                    del acc[k]
                continue
            img = memos[h].get(rest)
            if img is None:
                if not rest and gen_info[h][0]:  # not stored: zero
                    continue
                (img,) = _straighten(t, h, (rest,))
            if ch != 1:
                mixed = True
            for k, c in img.items():
                x = c if ch == 1 else ch * c
                s = acc.get(k)
                if s is None:
                    acc[k] = x
                else:
                    s += x
                    mixed = True
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
        if mixed:  # sums and products of Fractions can be integral: store those as int
            for k, c in acc.items():
                if type(c) is Fraction and c.denominator == 1:
                    acc[k] = c.numerator
        if i < top:
            memo[m] = acc
        yield acc


class WhittakerModule:
    """Straightening engine for one induced module.

    Monomials and generators are hash-consed (see the module docstring):
    the straightener, its memo and the row builders work on small ``int``
    ids, and the public methods translate at the boundary."""

    def __init__(self, spec: WhittakerSpec):
        self.spec = spec
        self.alg = AffineAlgebra(
            spec.datum, cocycle=spec.cocycle, loop_only=spec.loop_only
        )
        # generator tables, by gid; c is gid 0
        self._gens: List[Gen] = ["c"]
        self._gen_ids: Dict[Gen, int] = {"c": 0}
        # gid -> (g in L(n), gen_key(g) or None); read on every memo miss
        self._gen_info: List[Tuple[bool, Optional[tuple]]] = [(False, None)]
        # gid -> lambda(g): Lam(alpha)_j on L(n), theta on c, else 0
        self._shift: List[Scalar] = [_exact(spec.theta)]
        # monomial tables, by mid; the cyclic vector is mid 0
        # mid -> (head gid, its multiplicity, mid of mono with one head removed)
        self._split: List[Optional[Tuple[int, int, int]]] = [None]
        self._monos: Dict[int, Monomial] = {0: VACUUM}  # tuples built by mono()
        # per-generator tables, by gid, grown in _gen_id: mid -> image of
        # (gid, mid) while a later step can read it (module docstring),
        # head gid -> [gid, head] as (sum of ch.lambda(h), [(h, ch), h != c]),
        # and rest mid -> mid of gid prepended to rest
        self._memo: List[Dict[int, IdElement]] = [{}]
        self._brackets: List[Dict[int, Tuple[Scalar, List[Tuple[int, Scalar]]]]] = [{}]
        self._prep: List[Dict[int, int]] = [{}]
        self._held: Optional[ConditionSystem] = None  # system of the last solve
        self._basis_ids: List[int] = []  # ids of the last basis(), in its order
        # what _gen_id, _prepend, _bracket and _straighten read, by position;
        # no reference back to the module
        self._tables = (
            self._memo, self._prep, self._split, self._gen_info, self._shift,
            self._brackets, self._gens, self._gen_ids, self.alg, spec,
        )

    # -- generator order ------------------------------------------------------

    def gen_key(self, g: Gen) -> tuple:
        """Total order key on module generators (never for L(n) or c)."""
        return generator_key(self.spec.datum, g, self.spec.loop_only)

    # -- hash-consing ------------------------------------------------------------

    def _gid(self, g: Gen) -> int:
        """Id of a generator of the algebra, interning it on first sight
        (:func:`_gen_id`)."""
        return _gen_id(self._tables, g)

    def _mid(self, mono: Monomial) -> int:
        """Id of a monomial given as a tuple from outside, interning it and
        its tails on first sight.

        Every call checks the tuple whole before any part of it is
        interned: ValueError unless it is a tuple of (module generator,
        positive ``int`` multiplicity) pairs, strictly ascending in the
        generator order.  No table is keyed by monomial tuples, so no
        lookup can pass an equal but invalid twin (``True`` for ``1``)."""
        if type(mono) is not tuple:
            raise ValueError(f"monomial must be a tuple, got {mono!r}")
        prev = None
        for factor in mono:
            if type(factor) is not tuple or len(factor) != 2:
                raise ValueError(f"not a (generator, multiplicity) pair: {factor!r}")
            g, mult = factor
            self.alg.validate_gen(g)
            key = self.gen_key(g)  # ValueError unless a module generator
            if linalg.require_int(mult, "multiplicity") < 1:
                raise ValueError(f"{gen_str(g)} has multiplicity {mult!r}, not >= 1")
            if prev is not None and not prev < key:
                raise ValueError(f"factors not strictly ascending: {mono_str(mono)}")
            prev = key
        return self._intern(mono)

    def _intern(self, mono: Monomial) -> int:
        """Id of a standard monomial tuple, not checked again: its factors
        are prepended one by one from the right by :func:`_prepend`."""
        mid, t = 0, self._tables
        for g, mult in reversed(mono):
            gid = _gen_id(t, g)
            for _ in range(mult):
                mid = _prepend(t, gid, mid)
        return mid

    def _degree(self, mid: int) -> int:
        """PBW degree of ``mid``: each split removes one factor."""
        split, deg = self._split, 0
        while mid:
            mid = split[mid][2]
            deg += 1
        return deg

    def _top_start(self, basis: List[int]) -> int:
        """Index of the first id in ``basis`` of the degree of its last, so
        the start of its top-degree columns when ``basis`` ascends in
        degree, as :meth:`basis` enumerates it."""
        return bisect_left(basis, self._degree(basis[-1]), key=self._degree)

    def mono(self, mid: int) -> Monomial:
        """The monomial tuple of ``mid``, built from its split and cached."""
        out = self._monos.get(mid)
        if out is None:
            g, mult, rest = self._split[mid]
            tail = self.mono(rest)[1 if mult > 1 else 0:]
            out = self._monos[mid] = ((self._gens[g], mult),) + tail
        return out

    # -- straightening ----------------------------------------------------------

    def lmul(self, g: Gen, mono: Monomial) -> ModuleElement:
        """g . (mono . 1) in standard form, as a fresh dict that the caller
        may mutate: the memoized (g - lambda(g)) . mono with lambda(g)
        added back on ``mono`` itself, translated to tuples by
        :meth:`mono`.  ValueError when ``g`` is no generator of the
        algebra or ``mono`` no standard monomial (see :meth:`_mid`), both
        checked on every call."""
        return self.act_gen(g, {mono: 1})

    def act_gen(self, g: Gen, elt: ModuleElement) -> ModuleElement:
        """g . elt, as :meth:`lmul` on each monomial, straightened in one
        :func:`_straighten` call."""
        images, out = self._images(g, elt), {}
        for m0, coeff in elt.items():
            for m, c in images[m0].items():
                linalg.add_term(out, m, coeff * c)
        return out

    def _images(self, g: Gen, monos: Mapping) -> Dict[Monomial, ModuleElement]:
        """{m: g . (m . 1)} for each key m of ``monos``, checked as by
        :meth:`lmul` and straightened in one :func:`_straighten` call."""
        self.alg.validate_gen(g)
        gid, mids = self._gid(g), [self._mid(m) for m in monos]
        mono, shift, out = self.mono, self._shift[gid], {}
        images = _straighten(self._tables, gid, mids, len(mids))
        for m0, img in zip(monos, images):
            out[m0] = image = {mono(m): c for m, c in img.items()}
            linalg.add_term(image, m0, shift)
        return out

    # -- monomial order, basis ---------------------------------------------------

    def generators(self, E: int) -> List[Gen]:
        """Module generators with |exponent| <= E, ascending in gen order."""
        return ordered_generators(self.spec.datum, E, self.spec.loop_only)

    def basis(self, trunc: Truncation) -> List[Monomial]:
        """Standard monomials of degree <= D with factor exponents <= E,
        enumerated deterministically (degree, then generator order), and
        interned on the way: their ids, in the same order, are left in
        ``_basis_ids`` for :meth:`condition_system`.

        A monomial of degree d >= 1 is g_i . rest, g_i its least factor and
        rest of degree d - 1 with no factor below g_i.  Degree d lists the
        monomials with head g_0, then g_1, ...: the run of g_i prepends it
        to the monomials of degree d - 1 from the first with head at least
        g_i on, in their order, which keeps the lexicographic order of
        ``combinations_with_replacement`` over the generators.  Those with
        head g_i come first; their head's multiplicity goes up by one.
        Each monomial costs one :func:`_prepend` onto the id of its rest
        and one tuple concatenation."""
        t = self._tables
        gens = self.generators(trunc.E)
        gids = [_gen_id(t, g) for g in gens]
        monos, ids = [VACUUM], [0]
        # the last degree's monomials and ids, and where each head's run
        # starts in them (the cyclic vector: no run, every head prepends)
        prev, prev_ids, starts = [VACUUM], [0], [0] * (len(gens) + 1)
        for _ in range(trunc.D):
            level, level_ids, heads = [], [], []
            for i, (g, gid) in enumerate(zip(gens, gids)):
                heads.append(len(level))
                s, e = starts[i], starts[i + 1]
                for rest, mid in zip(prev[s:e], prev_ids[s:e]):
                    level.append(((g, rest[0][1] + 1),) + rest[1:])
                    level_ids.append(_prepend(t, gid, mid))
                factor = ((g, 1),)
                for rest, mid in zip(prev[e:], prev_ids[e:]):
                    level.append(factor + rest)
                    level_ids.append(_prepend(t, gid, mid))
            heads.append(len(level))
            monos += level
            ids += level_ids
            prev, prev_ids, starts = level, level_ids, heads
        self._basis_ids = ids
        return monos

    # -- conditions and solver ------------------------------------------------------

    def condition_roots(self) -> List[tuple]:
        datum = self.spec.datum
        return sorted(datum.phi_n0) + sorted(datum.phi_n1)

    def condition_rows(
        self, basis: List[int], root: tuple, j: int, dead: AbstractSet[int]
    ) -> Tuple[Dict[int, Dict[int, Scalar]], int]:
        """(rows, count) of X_root (x) t^j . v = Lam(root)_j v over the span
        of the monomials with ids ``basis``.

        The rows are keyed by output monomial id, columns in order of first
        appearance: column ``col`` holds the shifted image (X_root (x) t^j
        - Lam(root)_j) . basis[col], whose zero entries, the diagonal
        included, are absent.  A column in ``dead`` is still straightened,
        but its entries are left out and a row left with none is not
        built; ``count`` is the number of rows over every column, the rows
        of the full condition: the size of the union of the built rows'
        keys and the supports of the dead columns' images, which are kept
        until the condition's last column and joined in one call.  The
        singleton pass drops every entry of a dead column and every row
        with no live one, so it gets the same live entries from these rows
        as from the full ones.

        One :func:`_straighten` call yields the images, column by column;
        those of the top degree of ``basis`` (from :meth:`_top_start` on)
        are not kept in ``_memo``: no later step reads them (module
        docstring).
        """
        g = self._gid(("X", root, j))
        images = _straighten(self._tables, g, basis, self._top_start(basis))
        dead_images: List[IdElement] = []
        by_out: Dict[int, Dict[int, Scalar]] = {}
        for col, img in enumerate(images):
            if col in dead:
                dead_images.append(img)
                continue
            for m, c in img.items():
                row = by_out.get(m)
                if row is None:
                    by_out[m] = {col: c}
                else:
                    row[col] = c
        return by_out, len(set(by_out).union(*dead_images))

    def condition_system(self, trunc: Truncation) -> ConditionSystem:
        """An empty system on the basis of (trunc.D, trunc.E)."""
        basis = self.basis(trunc)
        return ConditionSystem(trunc, basis, (self._basis_ids,))

    def solve(self, trunc: Truncation) -> SolveResult:
        """Exact nullspace of the Whittaker conditions at ``trunc``; the
        tensor module shares this definition.

        One condition per root of :meth:`condition_roots` and j in [-J, J].
        When the held system :meth:`~ConditionSystem.extends_to` ``trunc``,
        only the conditions with held.J < |j| <= J are fed to it;
        otherwise :meth:`condition_system` starts an empty one.
        ``condition_rows(*system.ids, root, j, pruner.dead)`` builds one
        condition's rows over the columns not yet dead, each a fresh dict
        (the pruner keeps it), and counts the rows of the full condition.
        They stream through the singleton pass before the next condition
        is built, so the dead set does not change while a builder runs.

        The system is held for the next solve only once this one returns;
        if a row builder raises, it is dropped.  The cyclic garbage
        collector is paused for the whole solve and restored to the
        caller's setting afterwards, also when a row builder raises.
        """
        held, self._held = self._held, None
        enabled = gc.isenabled()
        gc.disable()
        try:
            if held is not None and held.extends_to(trunc):
                system = held
            else:
                system = self.condition_system(trunc)
            pruner, ids, rows_of = system.pruner, system.ids, self.condition_rows
            js = [j for j in range(-trunc.J, trunc.J + 1) if abs(j) > system.J]
            n_conditions = n_rows = 0
            for root, j in product(self.condition_roots(), js):
                rows, count = rows_of(*ids, root, j, pruner.dead)
                n_conditions += 1
                n_rows += count
                pruner.extend(rows.values())
            basis = system.basis
            kernel = pruner.nullspace(len(basis))
        finally:
            if enabled:
                gc.enable()
        system.J = trunc.J
        system.condition_count += n_conditions
        system.row_count += n_rows
        self._held = system
        vectors = [{basis[col]: c for col, c in sorted(vec.items())} for vec in kernel]
        return SolveResult(
            dimension=len(vectors),
            vectors=vectors,
            basis=basis,
            truncation=trunc,
            condition_count=system.condition_count,
            row_count=system.row_count,
        )


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

PairMonomial = Tuple[Monomial, Monomial]
TensorElement = Dict[PairMonomial, Scalar]


def _columns(rows: Mapping[int, Mapping[int, Scalar]], n: int) -> List[list]:
    """Rows {out: {col: coeff}} over columns range(n) as their columns: the
    (out, coeff) pairs of column col, for each col."""
    cols: List[list] = [[] for _ in range(n)]
    for m, row in rows.items():
        for col, c in row.items():
            cols[col].append((m, c))
    return cols


class TensorModule:
    """Diagonal action on M(Lam, theta) (x) M(Lam', theta')."""

    def __init__(self, spec_a: WhittakerSpec, spec_b: WhittakerSpec):
        da, db = spec_a.datum, spec_b.datum
        if da.n != db.n or da.levi != db.levi:
            raise ValueError(
                "tensor factors must share the algebra and parabolic: "
                f"sl({da.n}) levi {sorted(da.levi)} vs sl({db.n}) levi {sorted(db.levi)}"
            )
        if spec_a.mode != spec_b.mode or spec_a.cocycle != spec_b.cocycle:
            raise ValueError("tensor factors must share mode and cocycle")
        self.left = WhittakerModule(spec_a)
        self.right = WhittakerModule(spec_b)
        self._held: Optional[ConditionSystem] = None  # system of the last solve
        union = spec_a.member_records + spec_b.member_records
        self.union_genericity = is_strongly_generic_set(union)
        if not self.union_genericity.is_strongly_generic:
            warnings.warn(
                "the union of the two eigenvalue families is not certified "
                f"strongly generic ({self.union_genericity.kind}: "
                f"{self.union_genericity.reason}); uniqueness of tensor "
                "Whittaker vectors is not guaranteed",
                stacklevel=3,
            )

    @property
    def theta(self) -> Fraction:
        return self.left.spec.theta + self.right.spec.theta

    def act_gen(self, g: Gen, elt: TensorElement) -> TensorElement:
        """g . elt by g (a (x) b) = g a (x) b + a (x) g b: each factor
        straightens the distinct factor monomials of elt once, and their
        images are written out to the pairs."""
        left = self.left._images(g, dict.fromkeys(ma for ma, _ in elt))
        right = self.right._images(g, dict.fromkeys(mb for _, mb in elt))
        out: TensorElement = {}
        for (ma, mb), coeff in elt.items():
            for m, c in left[ma].items():
                linalg.add_term(out, (m, mb), coeff * c)
            for m, c in right[mb].items():
                linalg.add_term(out, (ma, m), coeff * c)
        return out

    def condition_roots(self) -> List[tuple]:
        return self.left.condition_roots()

    def lam_sum(self, root: tuple, j: int) -> Fraction:
        return self.left.spec.vacuum_scalar(root, j) + self.right.spec.vacuum_scalar(
            root, j
        )

    def condition_rows(
        self, basis_a: List[int], basis_b: List[int], root: tuple, j: int,
        dead: AbstractSet[int],
    ) -> Tuple[Dict[Tuple[int, int], Dict[int, Scalar]], int]:
        """(rows, count) of X_root (x) t^j . v = (Lam + Lam')(root)_j v over
        the pairs of the factor bases, given as monomial ids of the two
        factors (column ia * len(basis_b) + ib is the pair (basis_a[ia],
        basis_b[ib])), rows keyed by output pair of ids.

        The rows are the Kronecker sum R_a (x) I + I (x) R_b of the factors'
        full rows of the condition (module docstring), built over the live
        pair columns only: R_a and R_b are read once as columns, and live
        column ia * nb + ib gets column ia of R_a in the rows (m, mb), mb
        the pair's right monomial, and column ib of R_b in the rows (ma,
        m'); the two parts of a row never share a column.  As in the
        module builder, dead columns get no entry, a row with no live entry
        is never made, and neither factor's memo keeps its top-degree
        images.

        ``count``, the rows over every column, needs no set.  Let K_a, K_b be
        the row keys of R_a, R_b and B_a, B_b the basis ids, na and nb of
        them.  Pair (ma, mb) has its terms on K(ma) x {mb} and {ma} x K(mb),
        K(m) the support of the shifted image of m, which does not hold m;
        so the two are disjoint and no term cancels.  Over all pairs they
        cover K_a x B_b | B_a x K_b, whose parts meet in (K_a & B_a) x (K_b
        & B_b), so count = |K_a| nb + na |K_b| - |K_a & B_a| |K_b & B_b|.
        """
        rows_a, count_a = self.left.condition_rows(basis_a, root, j, ())
        rows_b, count_b = self.right.condition_rows(basis_b, root, j, ())
        cols_a, cols_b = _columns(rows_a, len(basis_a)), _columns(rows_b, len(basis_b))
        nb = len(basis_b)
        by_out: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for ia, ma in enumerate(basis_a):
            col_a, k = cols_a[ia], ia * nb
            for ib, mb in enumerate(basis_b):
                p = k + ib
                if p in dead:
                    continue
                for m, c in col_a:
                    row = by_out.get((m, mb))
                    if row is None:
                        by_out[m, mb] = {p: c}
                    else:
                        row[p] = c
                for m, c in cols_b[ib]:
                    row = by_out.get((ma, m))
                    if row is None:
                        by_out[ma, m] = {p: c}
                    else:
                        row[p] = c
        both = len(rows_a.keys() & basis_a) * len(rows_b.keys() & basis_b)
        return by_out, count_a * nb + len(basis_a) * count_b - both

    def condition_system(self, trunc: Truncation) -> ConditionSystem:
        """An empty system on the pairs of the factor bases at (D, E), from
        the factors' own empty systems."""
        a, b = self.left.condition_system(trunc), self.right.condition_system(trunc)
        basis: List[PairMonomial] = [(ma, mb) for ma in a.basis for mb in b.basis]
        return ConditionSystem(trunc, basis, a.ids + b.ids)

    solve = WhittakerModule.solve


# ---------------------------------------------------------------------------
# functional wrappers and rendering
# ---------------------------------------------------------------------------


def whittaker_solve(spec: WhittakerSpec, trunc: Truncation) -> SolveResult:
    return WhittakerModule(spec).solve(trunc)


def tensor_whittaker_solve(
    spec_a: WhittakerSpec, spec_b: WhittakerSpec, trunc: Truncation
) -> SolveResult:
    return TensorModule(spec_a, spec_b).solve(trunc)


def mono_str(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for g, m in mono:
        s = f"({gen_str(g)})"
        if m > 1:
            s += f"^{m}"
        parts.append(s)
    return " ".join(parts)


def pair_str(pair: PairMonomial) -> str:
    return f"{mono_str(pair[0])} (x) {mono_str(pair[1])}"


def element_str(elt: ModuleElement, render=mono_str, key=None) -> str:
    """elt as a signed sum, monomials ordered by ``key``, else (len, repr)."""
    monos = sorted(elt, key=key or (lambda m: (len(m), repr(m))))
    return linalg.signed_sum(((render(m), elt[m]) for m in monos), " ")
