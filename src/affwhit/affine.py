"""Untwisted affine Lie algebras over type A root data.

Generators are loop elements x (x) t^m for x in the Chevalley basis of
sl(n), the central element c and the degree derivation d:

    [x(x)t^m, y(x)t^l] = [x, y](x)t^{m+l} + m delta_{m+l,0} kappa(x, y) c
    [d, x(x)t^m]       = m x(x)t^m
    [c, -]             = 0

The central 2-cocycle above (``standard``) carries the exponent factor
m; without it (``literal`` mode) the bilinear form m, l |-> delta_{m,-l}
kappa(x, y) is symmetric rather than antisymmetric in (x t^m, y t^l)
and the Jacobi identity fails on degree-sum-zero triples.  Literal mode
is kept selectable purely as a regression witness for that failure.

``loop_only`` mode drops c and d and brackets in the plain loop
algebra L(sl(n)).

Generators are encoded as hashable tuples: ("X", root, m),
("H", i, m), "c", "d".  The text form is ``X[1,-1]@t^3`` /
``H[2]@t^0`` / ``c`` / ``d`` with the root given by its coefficients
over the simple roots.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Tuple, Union

from .linalg import LinearCombination, add_term, signed_sum
from .rootdata import RootDatum

Gen = Union[Tuple, str]  # ("X", root, m) | ("H", i, m) | "c" | "d"

COCYCLE_MODES = ("standard", "literal")


def X(root, m: int) -> Gen:
    return ("X", tuple(root), int(m))


def H(i: int, m: int) -> Gen:
    return ("H", int(i), int(m))


C: Gen = "c"
D: Gen = "d"


def gen_str(g: Gen) -> str:
    if g == "c" or g == "d":
        return g
    tag = g[0]
    if tag == "X":
        return f"X[{','.join(str(c) for c in g[1])}]@t^{g[2]}"
    return f"H[{g[1]}]@t^{g[2]}"


_GEN_RE = re.compile(r"^([XH])\[([0-9,\s-]+)\]@t\^(-?\d+)$")


def parse_gen(text: str, datum: RootDatum) -> Gen:
    """Parse the text form of a generator, validating against the datum."""
    s = text.strip()
    if s == "c":
        return "c"
    if s == "d":
        return "d"
    m = _GEN_RE.match(s)
    if not m:
        raise ValueError(
            f"cannot parse generator {text!r}; expected X[coeffs]@t^m, "
            "H[i]@t^m, c or d"
        )
    tag, inner, exp = m.group(1), m.group(2), int(m.group(3))
    nums = [int(x) for x in inner.replace(" ", "").split(",") if x]
    if tag == "H":
        if len(nums) != 1 or not 1 <= nums[0] <= datum.rank:
            raise ValueError(f"Cartan index out of range in {text!r}")
        return ("H", nums[0], exp)
    root = tuple(nums)
    if len(root) != datum.rank or root not in datum.phi:
        raise ValueError(f"not a root of the configured algebra: {text!r}")
    return ("X", root, exp)


def gen_sort_key(g: Gen):
    """Structural sort key (deterministic, not the module generator order)."""
    if g == "c":
        return (0, (), 0, 0)
    if g == "d":
        return (1, (), 0, 0)
    if g[0] == "H":
        return (2, (), g[2], g[1])
    return (3, g[1], g[2], 0)


class AffineElement(LinearCombination):
    """Sparse linear combination of affine generators."""

    __slots__ = ()

    _order = staticmethod(gen_sort_key)

    def __repr__(self):
        return signed_sum(((gen_str(g), c) for g, c in self.items()), " ")


class AffineAlgebra:
    """Bracket calculator for one affinization of a root datum."""

    def __init__(
        self,
        datum: RootDatum,
        cocycle: str = "standard",
        loop_only: bool = False,
    ):
        if cocycle not in COCYCLE_MODES:
            raise ValueError(f"cocycle must be one of {COCYCLE_MODES}, got {cocycle!r}")
        self.datum = datum
        self.cocycle = cocycle
        self.loop_only = bool(loop_only)

    # -- constructors --------------------------------------------------------

    def element(self, *terms) -> AffineElement:
        """element((gen, coeff), ...) convenience wrapper."""
        return AffineElement({g: c for g, c in terms})

    def validate_gen(self, g: Gen) -> None:
        if g == "c" or g == "d":
            if self.loop_only:
                raise ValueError(f"generator {g} does not exist in loop-only mode")
            return
        if not isinstance(g, tuple) or len(g) != 3:
            raise ValueError(f"malformed generator {g!r}")
        # exact type checks: a bool is an int subclass but no index or exponent
        if type(g[2]) is not int:
            raise ValueError(f"t-exponent of {g!r} is not an int")
        if g[0] == "X":
            root = g[1]
            if (
                type(root) is not tuple
                or any(type(x) is not int for x in root)
                or root not in self.datum.phi
            ):
                raise ValueError(f"not a root: {root}")
        elif g[0] == "H":
            if type(g[1]) is not int or not 1 <= g[1] <= self.datum.rank:
                raise ValueError(f"Cartan index out of range: {g[1]!r}")
        else:
            raise ValueError(f"malformed generator {g!r}")

    def in_Ln(self, g: Gen) -> bool:
        """Membership in the loop nilradical L(n)."""
        return isinstance(g, tuple) and g[0] == "X" and g[1] in self.datum.phi_n

    # -- bracket --------------------------------------------------------------

    def bracket_gens(self, a: Gen, b: Gen) -> Dict[Gen, Fraction]:
        """[a, b] on generators, as a sparse dict."""
        if a == "c" or b == "c":
            return {}
        if a == "d" and b == "d":
            return {}
        if a == "d":
            m = b[2]
            return {b: Fraction(m)} if m else {}
        if b == "d":
            m = a[2]
            return {a: Fraction(-m)} if m else {}
        ka = (a[0], a[1])
        kb = (b[0], b[1])
        m, l = a[2], b[2]
        out: Dict[Gen, Fraction] = {}
        for key, coeff in self.datum.bracket_basis(ka, kb).items():
            out[key + (m + l,)] = coeff
        if not self.loop_only and m + l == 0:
            kap = self.datum.killing_basis(ka, kb)
            if kap:
                factor = Fraction(m) if self.cocycle == "standard" else Fraction(1)
                if factor:
                    out["c"] = factor * kap
        return out

    def bracket(self, x: AffineElement, y: AffineElement) -> AffineElement:
        out: Dict[Gen, Fraction] = {}
        for ga, ca in x.coeffs.items():
            for gb, cb in y.coeffs.items():
                for g, c in self.bracket_gens(ga, gb).items():
                    add_term(out, g, ca * cb * c)
        return AffineElement(out)


def bracket(
    datum: RootDatum,
    x: AffineElement,
    y: AffineElement,
    cocycle: str = "standard",
    loop_only: bool = False,
) -> AffineElement:
    """One-shot bracket without keeping an algebra object around."""
    return AffineAlgebra(datum, cocycle, loop_only).bracket(x, y)


__all__ = [
    "AffineAlgebra",
    "AffineElement",
    "C",
    "D",
    "H",
    "X",
    "bracket",
    "gen_str",
    "gen_sort_key",
    "parse_gen",
]
