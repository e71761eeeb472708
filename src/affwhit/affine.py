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

from .linalg import LinearCombination, add_term, require_int, signed_sum
from .rootdata import RootDatum

Gen = Union[Tuple, str]  # ("X", root, m) | ("H", i, m) | "c" | "d"

Scalar = Union[int, Fraction]  # int when integral, else Fraction

COCYCLE_MODES = ("standard", "literal")


def _exact(x: Scalar) -> Scalar:
    """x as an ``int`` when it is integral, else x itself (a ``Fraction``)."""
    return x.numerator if x.denominator == 1 else x


def X(root, m: int) -> Gen:
    if type(root) is not tuple:
        raise ValueError(f"root must be a tuple, got {root!r}")
    root = tuple(require_int(c, "root coordinate") for c in root)
    return ("X", root, require_int(m, "t-exponent"))


def H(i: int, m: int) -> Gen:
    return ("H", require_int(i, "Cartan index"), require_int(m, "t-exponent"))


C: Gen = "c"
D: Gen = "d"


def gen_str(g: Gen) -> str:
    if g == "c" or g == "d":
        return g
    tag = g[0]
    if tag == "X":
        return f"X[{','.join(str(c) for c in g[1])}]@t^{g[2]}"
    return f"H[{g[1]}]@t^{g[2]}"


_GEN_RE = re.compile(r"^([XH])\[\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\]@t\^(-?\d+)$")


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
    nums = tuple(int(x) for x in inner.split(","))
    if tag == "H" and len(nums) != 1:
        raise ValueError(f"H takes one Cartan index: {text!r}")
    key = ("H", nums[0]) if tag == "H" else ("X", nums)
    try:
        datum._basis_key(key)
    except ValueError as exc:
        raise ValueError(f"{exc} in {text!r}") from None
    return key + (exp,)


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
    """Sparse linear combination of affine generators.

    A key is c, d or a generator tuple, whose integers :func:`X` and
    :func:`H` check as they rebuild it; roots are not checked against
    any datum (:meth:`AffineAlgebra.validate_gen` does that).
    """

    __slots__ = ()

    _order = staticmethod(gen_sort_key)

    @staticmethod
    def _key(g):
        if g == "c" or g == "d":
            return g
        if type(g) is tuple and len(g) == 3:
            if g[0] == "X" and type(g[1]) is tuple:
                return X(g[1], g[2])
            if g[0] == "H":
                return H(g[1], g[2])
        raise ValueError(f"malformed generator {g!r}")

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
        # (basis key, basis key) -> ([(key, int constant)], int Killing value)
        self._structure: Dict[tuple, tuple] = {}

    # -- constructors --------------------------------------------------------

    def element(self, *terms) -> AffineElement:
        """element((gen, coeff), ...) convenience wrapper."""
        return AffineElement({g: c for g, c in terms})

    def validate_gen(self, g: Gen) -> None:
        """ValueError unless g is c or d (not in loop-only mode) or a loop
        generator of the datum: :func:`X` and :func:`H` check its integers,
        and :meth:`RootDatum._basis_key` its root or Cartan index."""
        if g == "c" or g == "d":
            if self.loop_only:
                raise ValueError(f"generator {g} does not exist in loop-only mode")
            return
        if not isinstance(g, tuple) or len(g) != 3 or g[0] not in ("X", "H"):
            raise ValueError(f"malformed generator {g!r}")
        g = (X if g[0] == "X" else H)(g[1], g[2])
        self.datum._basis_key(g[:2])

    def in_Ln(self, g: Gen) -> bool:
        """Membership in the loop nilradical L(n)."""
        return isinstance(g, tuple) and g[0] == "X" and g[1] in self.datum.phi_n

    # -- bracket --------------------------------------------------------------

    def bracket_gens(self, a: Gen, b: Gen) -> Dict[Gen, Scalar]:
        """[a, b] on generators, as a fresh sparse dict.

        Coefficients are ``int``: every structure constant of the
        Chevalley basis and every Killing value is an integer.  The
        ``rootdata`` constants of a pair of basis keys are read once and
        kept on the algebra; each call builds its own dict from them."""
        if a == "c" or b == "c":
            return {}
        if a == "d" and b == "d":
            return {}
        if a == "d":
            m = b[2]
            return {b: m} if m else {}
        if b == "d":
            m = a[2]
            return {a: -m} if m else {}
        ka = (a[0], a[1])
        kb = (b[0], b[1])
        terms, kap = self._structure.get((ka, kb)) or self._constants(ka, kb)
        m, l = a[2], b[2]
        n = m + l
        out: Dict[Gen, Scalar] = {key + (n,): coeff for key, coeff in terms}
        if kap and not n and not self.loop_only:
            factor = m if self.cocycle == "standard" else 1
            if factor:
                out["c"] = factor * kap
        return out

    def _constants(self, ka: tuple, kb: tuple) -> tuple:
        """``_structure[ka, kb]``, read from the datum and stored."""
        datum = self.datum
        terms = [(key, _exact(c)) for key, c in datum.bracket_basis(ka, kb).items()]
        out = self._structure[ka, kb] = (terms, _exact(datum.killing_basis(ka, kb)))
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
