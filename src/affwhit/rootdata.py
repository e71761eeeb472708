"""Type A root data, parabolic decompositions and Chevalley brackets.

The simple algebra is sl(n), realized on matrix units: the root
e_p - e_q (p != q, 1-based) corresponds to the elementary matrix
E_pq, and the Cartan basis is H_i = E_ii - E_{i+1,i+1}.  Roots are
stored as integer coefficient tuples over the simple roots
alpha_1..alpha_{n-1}.

A parabolic is fixed by the subset `levi` of simple-root indices kept
in the Levi factor l; the nilradical n is spanned by the X_gamma with
gamma positive and supported outside the Levi.  The descending central
series n = n_0 >= [n, n_0] >= ... stratifies the nilradical roots into
layers X_0, X_1, ..., X_k with X_0 the roots of n not in [n, n], and
every gamma in X_i (i >= 1) splitting as delta + alpha with delta in
X_{i-1} and alpha in X_0.

Brackets are computed from the matrix-unit structure constants

    [E_pq, E_rs] = delta_qr E_ps - delta_sp E_rq

written out as case rules (never by multiplying matrices; the matrix
commutator is kept as an independent cross-check in the test suite).
The invariant form is the Killing form of sl(n), kappa(x, y) =
2n * trace(xy).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from .linalg import LinearCombination, add_term, signed_sum

Root = Tuple[int, ...]
BasisKey = Tuple[str, Union[Root, int]]  # ("X", root) or ("H", i)


class ImproperParabolic(ValueError):
    """Raised when the requested Levi subset gives an empty nilradical."""


class OutOfDomain(ValueError):
    """Raised when a root order comparison leaves (Phi u {0}) minus Phi_n."""


def root_height(root: Root) -> int:
    return sum(root)


def root_add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def root_neg(a: Root) -> Root:
    return tuple(-x for x in a)


def root_str(root: Root) -> str:
    """Readable label like 'a1+a2' or '-a2'."""
    if all(c == 0 for c in root):
        return "0"
    parts = []
    for i, c in enumerate(root, start=1):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"+a{i}")
        elif c == -1:
            parts.append(f"-a{i}")
        else:
            parts.append(f"{c:+d}*a{i}")
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


class RootDatum:
    """Root system of sl(n) with a parabolic decomposition.

    Attributes of note:

    * ``phi`` / ``phi_pos`` -- all roots / positive roots;
    * ``phi_n`` -- roots of the nilradical, ``phi_n1`` the roots of
      [n, n], ``phi_n0 = phi_n - phi_n1`` (never empty for a proper
      parabolic);
    * ``strata`` -- the tuple (X_0, ..., X_k);
    * ``levi_roots`` -- roots supported inside the Levi subset, both
      signs.
    """

    def __init__(self, n: int, levi: Iterable[int] = ()):
        n = int(n)
        if n < 2:
            raise ValueError(f"sl(n) needs n >= 2, got n={n}")
        levi = frozenset(int(i) for i in levi)
        if not levi <= set(range(1, n)):
            raise ValueError(
                f"levi indices must lie in 1..{n - 1}, got {sorted(levi)}"
            )
        if levi == set(range(1, n)):
            raise ImproperParabolic(
                "levi contains every simple root; the nilradical is empty"
            )
        self.n = n
        self.rank = n - 1
        self.levi = levi

        self.zero: Root = (0,) * self.rank
        self.simple = [
            tuple(1 if k == i else 0 for k in range(self.rank))
            for i in range(self.rank)
        ]

        # root <-> matrix unit position (1-based pair (p, q), p != q)
        self._pos_of_root: Dict[Root, Tuple[int, int]] = {}
        self._root_of_pos: Dict[Tuple[int, int], Root] = {}
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if p == q:
                    continue
                coeffs = [0] * self.rank
                lo, hi, sgn = (p, q, 1) if p < q else (q, p, -1)
                for k in range(lo, hi):
                    coeffs[k - 1] = sgn
                root = tuple(coeffs)
                self._pos_of_root[root] = (p, q)
                self._root_of_pos[(p, q)] = root

        self.phi = frozenset(self._pos_of_root)
        self.phi_pos = frozenset(r for r in self.phi if root_height(r) > 0)

        def in_levi(root: Root) -> bool:
            return all(c == 0 or (k + 1) in levi for k, c in enumerate(root))

        self.levi_roots = frozenset(r for r in self.phi if in_levi(r))
        self.phi_n = frozenset(r for r in self.phi_pos if not in_levi(r))

        # descending central series strata of the nilradical
        layers = []
        current = self.phi_n
        while current:
            nxt = frozenset(
                root_add(a, b)
                for a in self.phi_n
                for b in current
                if root_add(a, b) in self.phi
            )
            layers.append(current - nxt)
            current = nxt
        self.strata = tuple(layers)
        self.k = len(self.strata) - 1
        self.phi_n1 = frozenset().union(*self.strata[1:]) if self.k >= 1 else frozenset()
        self.phi_n0 = self.phi_n - self.phi_n1
        assert self.strata[0] == self.phi_n0

        self._stratum_of: Dict[Root, int] = {}
        for i, layer in enumerate(self.strata):
            for r in layer:
                self._stratum_of[r] = i

    # -- basic queries -----------------------------------------------------

    def pos_of_root(self, root: Root) -> Tuple[int, int]:
        return self._pos_of_root[root]

    def root_of_pos(self, p: int, q: int) -> Root:
        return self._root_of_pos[(p, q)]

    def pairing(self, root: Root, i: int) -> int:
        """root(H_i) for the Cartan basis element H_i."""
        p, q = self._pos_of_root[root]
        return (
            (1 if p == i else 0)
            - (1 if p == i + 1 else 0)
            - (1 if q == i else 0)
            + (1 if q == i + 1 else 0)
        )

    # -- element constructors ----------------------------------------------

    def X(self, root: Root, coeff=1) -> "ChevalleyElement":
        root = tuple(root)
        if root not in self.phi:
            raise ValueError(f"not a root: {root}")
        return ChevalleyElement(self, {("X", root): coeff})

    def H(self, i: int, coeff=1) -> "ChevalleyElement":
        if not 1 <= i <= self.rank:
            raise ValueError(f"Cartan index must lie in 1..{self.rank}, got {i}")
        return ChevalleyElement(self, {("H", i): coeff})

    def zero_element(self) -> "ChevalleyElement":
        return ChevalleyElement(self, {})

    # -- structure constants -----------------------------------------------

    def bracket_basis(self, a: BasisKey, b: BasisKey) -> Dict[BasisKey, Fraction]:
        """[a, b] for basis keys, as a sparse coefficient dict."""
        ka, kb = a[0], b[0]
        if ka == "H" and kb == "H":
            return {}
        if ka == "H" and kb == "X":
            c = self.pairing(b[1], a[1])
            return {b: Fraction(c)} if c else {}
        if ka == "X" and kb == "H":
            c = -self.pairing(a[1], b[1])
            return {a: Fraction(c)} if c else {}
        p, q = self._pos_of_root[a[1]]
        r, s = self._pos_of_root[b[1]]
        out: Dict[BasisKey, Fraction] = {}
        if q == r and s == p:
            # [E_pq, E_qp] = E_pp - E_qq = sum of H_m over the span
            lo, hi, sgn = (p, q, 1) if p < q else (q, p, -1)
            for m in range(lo, hi):
                out[("H", m)] = Fraction(sgn)
            return out
        if q == r:
            return {("X", self._root_of_pos[(p, s)]): Fraction(1)}
        if s == p:
            return {("X", self._root_of_pos[(r, q)]): Fraction(-1)}
        return {}

    def killing_basis(self, a: BasisKey, b: BasisKey) -> Fraction:
        """kappa on basis keys: 2n * trace of the matrix-unit product."""
        two_n = 2 * self.n
        ka, kb = a[0], b[0]
        if ka == "X" and kb == "X":
            return Fraction(two_n) if a[1] == root_neg(b[1]) else Fraction(0)
        if ka == "H" and kb == "H":
            i, j = a[1], b[1]
            if i == j:
                return Fraction(2 * two_n)
            if abs(i - j) == 1:
                return Fraction(-two_n)
            return Fraction(0)
        return Fraction(0)

    # -- root order ----------------------------------------------------------

    def order_key(self, root: Root):
        """Sort key realizing the total order on (Phi u {0}) - Phi_n.

        Groups come first: -X_k < -X_{k-1} < ... < -X_0 < (Levi roots
        and 0).  Inside a group, height then lexicographic coefficient
        comparison; this linearly extends the partial order where
        gamma > beta whenever gamma - beta is a nonzero nonnegative
        combination of positive Levi roots (such a difference has
        positive height).
        """
        root = tuple(root)
        if root in self.phi_n:
            raise OutOfDomain(f"{root_str(root)} lies in the nilradical")
        if root == self.zero or root in self.levi_roots:
            group = self.k + 1
        else:
            neg = root_neg(root)
            i = self._stratum_of.get(neg)
            if i is None:
                raise OutOfDomain(f"{root_str(root)} is not in (Phi u {{0}}) - Phi_n")
            group = self.k - i
        return (group, root_height(root), root)

    def __repr__(self):
        return f"RootDatum(n={self.n}, levi={sorted(self.levi)})"


def build_datum(n: int, levi: Iterable[int] = ()) -> RootDatum:
    """Root datum of sl(n) with nilradical fixed by the retained Levi set."""
    return RootDatum(n, levi)


def _basis_sort_key(key: BasisKey):
    if key[0] == "H":
        return (0, (key[1],))
    return (1, key[1])


def _common_datum(x: ChevalleyElement, y: ChevalleyElement) -> RootDatum:
    if x.datum is not y.datum:
        raise ValueError("elements live over different root data")
    return x.datum


class ChevalleyElement(LinearCombination):
    """Sparse element of sl(n) over the Chevalley basis {X_root} u {H_i}.

    Sums and differences, like brackets, need both elements over the
    same root datum.
    """

    __slots__ = ("datum",)

    _order = staticmethod(_basis_sort_key)

    def __init__(self, datum: RootDatum, coeffs: Mapping[BasisKey, object] = ()):
        self.datum = datum
        super().__init__(coeffs)

    def _new(self, coeffs):
        return ChevalleyElement(self.datum, coeffs)

    def __add__(self, other):
        _common_datum(self, other)
        return super().__add__(other)

    def __eq__(self, other):
        return super().__eq__(other) and self.datum is other.datum

    __hash__ = LinearCombination.__hash__

    def __repr__(self):
        terms = (
            (f"X[{root_str(k[1])}]" if k[0] == "X" else f"H{k[1]}", c)
            for k, c in self.items()
        )
        return signed_sum(terms, "")


def bracket_fin(x: ChevalleyElement, y: ChevalleyElement) -> ChevalleyElement:
    """Lie bracket in sl(n), bilinear over the basis rules."""
    datum = _common_datum(x, y)
    out: Dict[BasisKey, Fraction] = {}
    for ka, ca in x.coeffs.items():
        for kb, cb in y.coeffs.items():
            for k, c in datum.bracket_basis(ka, kb).items():
                add_term(out, k, ca * cb * c)
    return ChevalleyElement(datum, out)


def killing(x: ChevalleyElement, y: ChevalleyElement) -> Fraction:
    """Killing form of sl(n): kappa(x, y) = 2n * trace(xy)."""
    datum = _common_datum(x, y)
    total = Fraction(0)
    for ka, ca in x.coeffs.items():
        for kb, cb in y.coeffs.items():
            total += ca * cb * datum.killing_basis(ka, kb)
    return total
