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

Acting with a generator straightens by the recursion

    g . (u_1 ... u_m . 1) = u_1 . (g . (u_2 ... u_m . 1))
                            + [g, u_1] . (u_2 ... u_m . 1)

until g either prepends in order (g <= u_1, g not in L(n)) or reaches
the cyclic vector.  Results are memoized per module; straightening
only ever recurses into strictly smaller degrees, except for the
immediate prepend which does not recurse.

whittaker_solve assembles, for a finite truncation (D = max monomial
degree, E = max |t-exponent| per factor, J = condition window), the
exact linear system expressing that v in the truncated span satisfies
every Whittaker condition for j in [-J, J] *in the full module*:
coefficients landing on monomials outside the span must vanish, so the
computed nullspace over Q is exactly the space of truncated Whittaker
vectors.  Dimension 1 certifies uniqueness inside the span; a larger
dimension at small J is not a refutation, since enlarging J never
increases the dimension.

Both solvers share one assembler, :func:`solve_conditions`, which
straightens every (condition, basis column) pair -- so ``row_count``
covers the full system -- but never keeps the full row list.  Each
condition's rows stream through the singleton pass of
:class:`linalg.SingletonPruner` as soon as they are built: a row with
one live column forces that column to zero in every solution, and
those deaths propagate through the kept rows.  Most rows only say that
one column vanishes, so what survives is a small core of rows with two
or more live columns.  The pruner's dead set and core then go straight
to elimination (``SingletonPruner.nullspace``, the path
``linalg.nullspace`` also takes), with no second singleton pass.  This
is exact: each dead column's unit vector lies in the row space of the
full system, so the core plus one unit row per dead column has the
same row space, the same kernel and the same normalized kernel basis
(x_f = 1 on free columns); vectors and dimensions do not change.

Elimination of the core is multimodular (``linalg.rref_pivots``): the
fully reduced Gauss-Jordan runs in ``int`` arithmetic modulo primes,
the images are combined by CRT and lifted by rational reconstruction,
and the lift is returned only after every core row has been checked to
reduce to zero against it in exact integer arithmetic.  That check
proves the lift is the reduced echelon form over Q, so the kernel
vectors are the exact ones, not probable ones; no ``Fraction``
elimination runs.

Coefficients are exact: an ``int`` when the value is integral, else a
``Fraction``.  Values enter straightening in that form -- the unit
coefficient of a prepend, theta, the vacuum scalars and the brackets,
memoized per module -- and a product or sum of two ``int`` values stays
an ``int``.  A product or sum involving a ``Fraction`` is a ``Fraction``
even when integral, so each new memo entry is normalized once, after
its loops.  Most products are integral (unit prepends, integer
structure constants), and an ``int`` product costs no gcd and no
``Fraction`` object.  ``int`` and integral ``Fraction`` values compare,
hash and print alike, and the kernel vectors from the elimination
are ``Fraction`` throughout, so no answer or report changes.

:func:`solve_conditions` pauses the cyclic garbage collector while it
runs and restores the caller's setting afterwards.  Straightening and
elimination allocate millions of dicts, tuples and ``Fraction`` objects
but no reference cycles, so reference counting frees all of it; the
collector would only rescan the growing memo again and again.

Tensor products act diagonally (Leibniz); on a pair of modules c acts
by theta + theta' and the Whittaker eigenvalues add entrywise.
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import linalg
from .affine import AffineAlgebra, AffineElement, Gen, gen_str
from .rootdata import RootDatum, root_str
from .seqspace import (
    BiSequence,
    SetVerdict,
    is_generic,
    is_strongly_generic_set,
)

Monomial = Tuple[Tuple[Gen, int], ...]  # ((gen, multiplicity), ...) ascending
Scalar = Union[int, Fraction]  # int when integral, else Fraction
ModuleElement = Dict[Monomial, Scalar]

VACUUM: Monomial = ()

MODES = ("affine", "loop_only")


def _exact(x: Scalar) -> Scalar:
    """x as an ``int`` when it is integral, else x itself (a ``Fraction``)."""
    return x.numerator if x.denominator == 1 else x


class ZeroElement(ValueError):
    """Raised when a leading term of the zero element is requested."""


@dataclass(frozen=True)
class Truncation:
    """Finite window (D, E, J) for the exact solvers."""

    D: int
    E: int
    J: int

    def __post_init__(self):
        if self.D < 0 or self.E < 0 or self.J < 0:
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
        self.theta = Fraction(theta)
        self.mode = mode
        self.cocycle = cocycle
        self.genericity = self._check_genericity()

    def _check_genericity(self) -> SetVerdict:
        values = [self.lam[r] for r in sorted(self.lam)]
        if self.mode == "loop_only":
            bad = [r for r in sorted(self.lam) if not is_generic(self.lam[r]).is_generic]
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
        verdict = is_strongly_generic_set(values)
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


# sentinel larger than every generator key; makes a proper prefix compare
# greater, so the cyclic vector is the maximum in the monomial order
_TOP = ((1 << 62,), 0, 0, 0)


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

    @property
    def unique(self) -> bool:
        return self.dimension == 1


def solve_conditions(action, basis, roots, eigenvalue, trunc) -> SolveResult:
    """Exact nullspace of the Whittaker conditions on span(basis).

    One condition per root and j in [-J, J]: g . v = eigenvalue(root, j) v
    for g = X_root (x) t^j.

    ``action(g, b)`` is the image of basis element b under g as a sparse
    dict; it may be a shared memo entry and is never mutated.  Each
    condition gives one row per output monomial over the basis columns,
    in order of first appearance.  A condition's rows stream through a
    singleton pass as soon as they are built, so only the rows with two
    or more live columns outlive their condition; the kernel is then
    taken from the pruner's dead set and core, and equals the full
    system's.  ``row_count`` still counts every row of the full system.

    The cyclic garbage collector is paused for the whole solve (see the
    module docstring) and restored to the caller's setting afterwards,
    also when ``action`` raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        pruner = linalg.SingletonPruner()
        n_conditions = n_rows = 0
        for root, j in product(roots, range(-trunc.J, trunc.J + 1)):
            n_conditions += 1
            g = ("X", root, j)
            target = _exact(eigenvalue(root, j))
            by_out: Dict[object, Dict[int, Scalar]] = {}
            for col, item in enumerate(basis):
                img = action(g, item)
                for m, c in img.items():
                    row = by_out.get(m)
                    if row is None:
                        by_out[m] = {col: c}
                    else:
                        row[col] = c
                if target:
                    s = img.get(item)
                    s = -target if s is None else s - target
                    row = by_out.get(item)
                    if s:
                        if row is None:
                            by_out[item] = {col: s}
                        else:
                            row[col] = s
                    else:
                        del row[col]
                        if not row:
                            del by_out[item]
            n_rows += len(by_out)
            for row in by_out.values():
                pruner.add(row)
        kernel = pruner.nullspace(len(basis))
    finally:
        if enabled:
            gc.enable()
    vectors = [{basis[col]: c for col, c in sorted(vec.items())} for vec in kernel]
    return SolveResult(
        dimension=len(vectors),
        vectors=vectors,
        basis=basis,
        truncation=trunc,
        condition_count=n_conditions,
        row_count=n_rows,
    )


class WhittakerModule:
    """Straightening engine for one induced module."""

    def __init__(self, spec: WhittakerSpec):
        self.spec = spec
        self.alg = AffineAlgebra(
            spec.datum, cocycle=spec.cocycle, loop_only=spec.loop_only
        )
        self._theta = _exact(spec.theta)
        self._cache: Dict[Tuple[Gen, Monomial], ModuleElement] = {}
        self._brackets: Dict[Tuple[Gen, Gen], Dict[Gen, Scalar]] = {}
        self._key_cache: Dict[Gen, tuple] = {}
        # g -> (g in L(n), gen_key(g) or None); read on every memo miss of lmul
        self._gen_info: Dict[Gen, Tuple[bool, Optional[tuple]]] = {}

    # -- generator order ------------------------------------------------------

    def gen_key(self, g: Gen) -> tuple:
        """Total order key on module generators (never for L(n) or c)."""
        key = self._key_cache.get(g)
        if key is None:
            key = generator_key(self.spec.datum, g, self.spec.loop_only)
            self._key_cache[g] = key
        return key

    def gen_order(self, g1: Gen, g2: Gen) -> int:
        k1, k2 = self.gen_key(g1), self.gen_key(g2)
        return -1 if k1 < k2 else (1 if k1 > k2 else 0)

    def _new_gen_info(self, g: Gen) -> Tuple[bool, Optional[tuple]]:
        """Cache (g in L(n), its order key); ValueError for d in loop-only mode."""
        in_ln = self.alg.in_Ln(g)
        info = self._gen_info[g] = (in_ln, None if in_ln else self.gen_key(g))
        return info

    def is_module_gen(self, g: Gen) -> bool:
        if g == "c":
            return False
        if g == "d":
            return not self.spec.loop_only
        return not self.alg.in_Ln(g)

    # -- straightening ----------------------------------------------------------

    def lmul(self, g: Gen, mono: Monomial) -> ModuleElement:
        """g . (mono . 1) in standard form.  The result dict is shared
        through the memo cache and must not be mutated by callers.

        Coefficients are ``int`` when integral, else ``Fraction``: the unit
        coefficient of a prepend is ``1``, theta, the vacuum scalars and
        the brackets (memoized per module) enter already in that form, and
        an integral ``Fraction`` in a new memo entry is stored as ``int``."""
        cached = self._cache.get((g, mono))
        if cached is not None:
            return cached
        theta = self._theta
        if g == "c":
            if self.spec.loop_only:
                raise ValueError("c does not exist in loop-only mode")
            out = {mono: theta} if theta else {}
            self._cache[(g, mono)] = out
            return out
        infos = self._gen_info
        in_ln, gk = infos.get(g) or self._new_gen_info(g)
        if not mono:
            if in_ln:
                s = _exact(self.spec.vacuum_scalar(g[1], g[2]))
                out = {VACUUM: s} if s else {}
            else:
                out = {((g, 1),): 1}
            self._cache[(g, mono)] = out
            return out
        head, mult = mono[0]
        if not in_ln:
            hk = (infos.get(head) or self._new_gen_info(head))[1]
            if gk < hk:
                out = {((g, 1),) + mono: 1}
                self._cache[(g, mono)] = out
                return out
            if gk == hk:
                out = {((head, mult + 1),) + mono[1:]: 1}
                self._cache[(g, mono)] = out
                return out
        rest: Monomial = ((head, mult - 1),) + mono[1:] if mult > 1 else mono[1:]
        acc: ModuleElement = {}
        # linalg.add_term inlined in the two hot loops below
        for m2, c2 in self.lmul(g, rest).items():
            for m3, c3 in self.lmul(head, m2).items():
                x = c2 * c3
                s = acc.get(m3)
                if s is None:
                    acc[m3] = x
                else:
                    s += x
                    if s:
                        acc[m3] = s
                    else:
                        del acc[m3]
        bracket = self._brackets.get((g, head))
        if bracket is None:
            bracket = {
                h: _exact(c) for h, c in self.alg.bracket_gens(g, head).items()
            }
            self._brackets[(g, head)] = bracket
        for h, ch in bracket.items():
            if h == "c":
                if theta:
                    linalg.add_term(acc, rest, ch * theta)
                continue
            for m4, c4 in self.lmul(h, rest).items():
                x = ch * c4
                s = acc.get(m4)
                if s is None:
                    acc[m4] = x
                else:
                    s += x
                    if s:
                        acc[m4] = s
                    else:
                        del acc[m4]
        # sums and products of Fractions can be integral; store those as int
        for m, c in acc.items():
            if type(c) is Fraction and c.denominator == 1:
                acc[m] = c.numerator
        self._cache[(g, mono)] = acc
        return acc

    def act_gen(self, g: Gen, elt: ModuleElement) -> ModuleElement:
        out: ModuleElement = {}
        for mono, coeff in elt.items():
            for m, c in self.lmul(g, mono).items():
                linalg.add_term(out, m, coeff * c)
        return out

    def act(self, x: AffineElement, elt: ModuleElement) -> ModuleElement:
        """Action of a general affine element (c acts by theta)."""
        out: ModuleElement = {}
        for g, cg in x.coeffs.items():
            for m, c in self.act_gen(g, elt).items():
                linalg.add_term(out, m, cg * c)
        return out

    # -- monomial order, basis ---------------------------------------------------

    def lt_key(self, mono: Monomial) -> tuple:
        """Key whose minimum realizes the leading term: lexicographic on
        factor lists, a proper prefix comparing greater (vacuum maximal)."""
        flat = []
        for g, m in mono:
            flat.extend([self.gen_key(g)] * m)
        flat.append(_TOP)
        return tuple(flat)

    def leading_term(self, elt: ModuleElement) -> Monomial:
        support = [m for m, c in elt.items() if c]
        if not support:
            raise ZeroElement("the zero element has no leading term")
        return min(support, key=self.lt_key)

    def generators(self, E: int) -> List[Gen]:
        """Module generators with |exponent| <= E, ascending in gen order."""
        return ordered_generators(self.spec.datum, E, self.spec.loop_only)

    def basis(self, trunc: Truncation) -> List[Monomial]:
        """Standard monomials of degree <= D with factor exponents <= E,
        enumerated deterministically (degree, then generator order)."""
        gens = self.generators(trunc.E)
        out: List[Monomial] = []
        for deg in range(trunc.D + 1):
            for combo in combinations_with_replacement(gens, deg):
                mono: List[Tuple[Gen, int]] = []
                for g in combo:
                    if mono and mono[-1][0] == g:
                        mono[-1] = (g, mono[-1][1] + 1)
                    else:
                        mono.append((g, 1))
                out.append(tuple(mono))
        return out

    # -- conditions and solver ------------------------------------------------------

    def condition_roots(self) -> List[tuple]:
        datum = self.spec.datum
        return sorted(datum.phi_n0) + sorted(datum.phi_n1)

    def solve(self, trunc: Truncation) -> SolveResult:
        return solve_conditions(
            self.lmul,
            self.basis(trunc),
            self.condition_roots(),
            self.spec.vacuum_scalar,
            trunc,
        )


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

PairMonomial = Tuple[Monomial, Monomial]
TensorElement = Dict[PairMonomial, Scalar]


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
        union = [spec_a.lam[r] for r in sorted(spec_a.lam)]
        union += [spec_b.lam[r] for r in sorted(spec_b.lam)]
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
        out: TensorElement = {}
        for (ma, mb), coeff in elt.items():
            # linalg.add_term inlined: this loop is the tensor solver's action
            for m, c in self.left.lmul(g, ma).items():
                key, x = (m, mb), coeff * c
                s = out.get(key)
                if s is None:
                    out[key] = x
                else:
                    s += x
                    if s:
                        out[key] = s
                    else:
                        del out[key]
            for m, c in self.right.lmul(g, mb).items():
                key, x = (ma, m), coeff * c
                s = out.get(key)
                if s is None:
                    out[key] = x
                else:
                    s += x
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return out

    def act(self, x: AffineElement, elt: TensorElement) -> TensorElement:
        out: TensorElement = {}
        for g, cg in x.coeffs.items():
            for m, c in self.act_gen(g, elt).items():
                linalg.add_term(out, m, cg * c)
        return out

    def lam_sum(self, root: tuple, j: int) -> Fraction:
        return self.left.spec.vacuum_scalar(root, j) + self.right.spec.vacuum_scalar(
            root, j
        )

    def solve(self, trunc: Truncation) -> SolveResult:
        basis_a = self.left.basis(trunc)
        basis_b = self.right.basis(trunc)
        basis: List[PairMonomial] = [(ma, mb) for ma in basis_a for mb in basis_b]
        return solve_conditions(
            lambda g, pair: self.act_gen(g, {pair: 1}),
            basis,
            self.left.condition_roots(),
            self.lam_sum,
            trunc,
        )


# ---------------------------------------------------------------------------
# functional wrappers and rendering
# ---------------------------------------------------------------------------


def gen_order(spec: WhittakerSpec, g1: Gen, g2: Gen) -> int:
    return WhittakerModule(spec).gen_order(g1, g2)


def act(spec: WhittakerSpec, x, elt: ModuleElement) -> ModuleElement:
    module = WhittakerModule(spec)
    if not isinstance(x, AffineElement):
        return module.act_gen(x, elt)
    return module.act(x, elt)


def leading_term(spec: WhittakerSpec, elt: ModuleElement) -> Monomial:
    return WhittakerModule(spec).leading_term(elt)


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


def element_str(elt: ModuleElement, render=mono_str) -> str:
    if not elt:
        return "0"
    parts = []
    for mono, c in sorted(elt.items(), key=lambda kv: (len(kv[0]), repr(kv[0]))):
        label = render(mono)
        if c == 1:
            parts.append(f"+ {label}")
        elif c == -1:
            parts.append(f"- {label}")
        elif c > 0:
            parts.append(f"+ {c}*{label}")
        else:
            parts.append(f"- {-c}*{label}")
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else s
