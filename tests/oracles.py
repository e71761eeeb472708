"""Independent oracles used to validate the exact kernels.

Everything here recomputes results through a *different* route than the
package: matrix units and literal commutators for the finite algebra,
sympy and Fraction Gauss-Jordan for linear algebra, a tuple-keyed PBW
straightener built on the (separately checked) generator brackets, and
brute-force window searches for sequence annihilators.  Tests freeze
oracle outputs or compare against them directly; the package code under
test is never used to produce its own expected values.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, groupby

import sympy

from affwhit.engine import generator_key, ordered_generators


# ---------------------------------------------------------------------------
# matrix-unit model of sl(n)
# ---------------------------------------------------------------------------


def root_position(root) -> tuple:
    """The matrix unit (p, q), 1-based, of a root of A_{n-1}, read from its
    coefficients alone: e_p - e_q with p < q is the run of +1 on the simple
    roots p..q-1, and its negative e_q - e_p the run of -1."""
    support = [k for k, c in enumerate(root, start=1) if c]
    lo, hi = support[0], support[-1]
    sign = root[lo - 1]
    assert sign in (1, -1) and support == list(range(lo, hi + 1)), root
    assert all(root[k - 1] == sign for k in support), root
    return (lo, hi + 1) if sign == 1 else (hi + 1, lo)


def basis_matrix(datum, key) -> sympy.Matrix:
    """Realize a Chevalley basis key as an n-by-n trace-zero matrix."""
    n = datum.n
    M = sympy.zeros(n, n)
    if key[0] == "X":
        p, q = root_position(key[1])
        M[p - 1, q - 1] = 1
    else:
        i = key[1]
        M[i - 1, i - 1] = 1
        M[i, i] = -1
    return M


def element_matrix(elt) -> sympy.Matrix:
    """Realize a ChevalleyElement as a matrix."""
    datum = elt.datum
    M = sympy.zeros(datum.n, datum.n)
    for key, c in elt.items():
        M += sympy.Rational(c.numerator, c.denominator) * basis_matrix(datum, key)
    return M


def matrix_bracket(A: sympy.Matrix, B: sympy.Matrix) -> sympy.Matrix:
    return A * B - B * A


def matrix_killing(datum, A: sympy.Matrix, B: sympy.Matrix) -> Fraction:
    """2n * trace(AB), the normalization the package uses."""
    val = sympy.Rational(2 * datum.n) * (A * B).trace()
    return Fraction(val.p, val.q)


# ---------------------------------------------------------------------------
# sympy linear algebra
# ---------------------------------------------------------------------------


def sympy_matrix(rows, ncols) -> sympy.Matrix:
    """Dense sympy matrix from sparse Fraction rows."""
    data = [[0] * ncols for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            data[i][j] = sympy.Rational(v.numerator, v.denominator)
    return sympy.Matrix(data) if rows else sympy.zeros(0, ncols)


def sympy_rank(rows, ncols) -> int:
    return sympy_matrix(rows, ncols).rank()


def sympy_nullity(rows, ncols) -> int:
    return ncols - sympy_rank(rows, ncols)


def sympy_nullspace(rows, ncols) -> list:
    """sympy's kernel basis as sparse Fraction dicts.

    sympy sets one free variable to 1 and the others to 0 per basis
    vector, ordered by free column: the normalization of the package.
    """
    out = []
    for v in sympy_matrix(rows, ncols).nullspace():
        out.append({j: Fraction(x.p, x.q) for j, x in enumerate(v) if x})
    return out


def _axpy(dst, coeff, src):
    """dst += coeff * src, dropping zeros (coeff and src entries nonzero)."""
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


def fraction_rref(rows) -> dict:
    """Fully reduced echelon rows keyed by pivot column, by Fraction Gauss-Jordan.

    The package's former elimination, kept as a reference for
    ``linalg.rref_pivots``, which now eliminates modulo primes.
    Invariant: every stored pivot row contains no pivot column other
    than its own.  An incoming row is therefore fully reduced by one
    pass over the pivot columns in its support (reduction only ever
    introduces non-pivot columns), after which its minimum remaining
    column is a fresh pivot.  Zero entries of an incoming row are
    dropped, so a leading value is never zero.
    """
    pivots = {}
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


def mod_rref(rows, p) -> dict:
    """Reduced row echelon form of integer rows modulo a prime p, as
    {pivot column: {column: residue}}, residues in [1, p) and 1 at each
    pivot.

    Textbook dense Gauss-Jordan, column by column, every entry reduced
    as soon as it is formed.  A reference for ``linalg._rref_mod``, which
    eliminates sparse rows one at a time on unreduced entries; it shares
    no code with the package.
    """
    cols = sorted({c for row in rows for c in row})
    mat = [[row.get(c, 0) % p for c in cols] for row in rows]
    top = 0
    for j in range(len(cols)):
        k = next((i for i in range(top, len(mat)) if mat[i][j]), None)
        if k is None:
            continue
        mat[top], mat[k] = mat[k], mat[top]
        inv = pow(mat[top][j], -1, p)
        mat[top] = [v * inv % p for v in mat[top]]
        for i, row in enumerate(mat):
            x = row[j]
            if i != top and x:
                mat[i] = [(v - x * w) % p for v, w in zip(row, mat[top])]
        top += 1
    out = {}
    for row in mat[:top]:
        entries = {cols[j]: v for j, v in enumerate(row) if v}
        out[min(entries)] = entries
    return out


def sympy_dense_rank(dense_rows) -> int:
    if not dense_rows:
        return 0
    data = [
        [sympy.Rational(v.numerator, v.denominator) for v in row]
        for row in dense_rows
    ]
    return sympy.Matrix(data).rank()


def in_rowspace_kernel(rows, vec, ncols) -> bool:
    """Check A @ vec == 0 directly, entry by entry."""
    for row in rows:
        s = Fraction(0)
        for j, v in row.items():
            s += v * vec.get(j, Fraction(0))
        if s:
            return False
    return True


# ---------------------------------------------------------------------------
# PBW basis
# ---------------------------------------------------------------------------


def basis_monomials(datum, D, E, loop_only=False) -> list:
    """The standard monomials of degree <= D over the module generators
    with |t-exponent| <= E: each multiset of ``ordered_generators``, as
    ``combinations_with_replacement`` lists them degree by degree, folded
    into its (generator, multiplicity) runs."""
    gens = ordered_generators(datum, E, loop_only)
    return [
        tuple((g, len(list(run))) for g, run in groupby(combo))
        for deg in range(D + 1)
        for combo in combinations_with_replacement(gens, deg)
    ]


# ---------------------------------------------------------------------------
# tuple-keyed straightening
# ---------------------------------------------------------------------------


def tuple_lmul(alg, spec, g, mono, memo) -> dict:
    """g . (mono . 1) in standard form, on monomials as nested tuples.

    The PBW recursion g u_1 ... u_m . 1 = u_1 (g u_2 ... u_m . 1)
    + [g, u_1] u_2 ... u_m . 1, stopping where g prepends in order or
    meets the cyclic vector, with ``Fraction`` coefficients and one memo
    keyed by (generator, monomial tuple).  A reference for the engine's
    hash-consed straightener: of the package it reads only
    ``alg.bracket_gens``, ``generator_key``, ``spec.vacuum_scalar`` and
    the spec's data (root sets, theta, mode).
    """
    key = (g, mono)
    if key in memo:
        return memo[key]
    datum = spec.datum
    in_ln = g != "c" and g != "d" and g[0] == "X" and g[1] in datum.phi_n
    if g == "c":
        out = {mono: spec.theta} if spec.theta else {}
    elif not mono:
        if in_ln:
            s = spec.vacuum_scalar(g[1], g[2])
            out = {(): s} if s else {}
        else:
            out = {((g, 1),): Fraction(1)}
    else:
        (head, mult), tail = mono[0], mono[1:]
        order = None
        if not in_ln:
            gk = generator_key(datum, g, spec.loop_only)
            hk = generator_key(datum, head, spec.loop_only)
            order = (gk > hk) - (gk < hk)
        if order == -1:
            out = {((g, 1),) + mono: Fraction(1)}
        elif order == 0:
            out = {((head, mult + 1),) + tail: Fraction(1)}
        else:
            rest = ((head, mult - 1),) + tail if mult > 1 else tail
            out = {}
            for m2, c2 in tuple_lmul(alg, spec, g, rest, memo).items():
                _axpy(out, c2, tuple_lmul(alg, spec, head, m2, memo))
            for h, ch in alg.bracket_gens(g, head).items():
                _axpy(out, ch, tuple_lmul(alg, spec, h, rest, memo))
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# the loop rotation x (x) t^j -> s^j x (x) t^j
# ---------------------------------------------------------------------------


def t_degree(mono) -> int:
    """Sum of the t-exponents of a monomial tuple's factors (d counts 0)."""
    return sum(g[2] * k for g, k in mono if g != "d")


def pair_degree(pair) -> int:
    """t-degree of a pair of monomials: the sum of both."""
    return t_degree(pair[0]) + t_degree(pair[1])


def rotation_factor(*specs) -> int:
    """lcm of the denominators of every member's entry at index 1."""
    return math.lcm(*(seq.entry(1).denominator for spec in specs for seq in spec.lam.values()))


def rotated_rows(rows, basis, j, s, degree=None):
    """Rows {out: {col: c}} of the condition at exponent j in M(Lam) as the
    rows of M(Lam^s), Lam^s_i = s^i Lam_i: the entry of column col on out
    times s^(j + deg basis[col] - deg out), ``degree`` the t-degree of a
    basis element (``t_degree`` unless given)."""
    degree = degree or t_degree
    return {
        out: {col: c * Fraction(s) ** (j + degree(basis[col]) - degree(out))
              for col, c in row.items()}
        for out, row in rows.items()
    }


# ---------------------------------------------------------------------------
# brute-force sequence tools
# ---------------------------------------------------------------------------


def brute_annihilator(entries, max_size=6):
    """Smallest dict {offset: coeff} with sum_k c_k s_{i+k} = 0 on a window.

    ``entries`` must be a callable i -> Fraction covering a window wide
    enough to pin the recurrence (the caller controls the window).
    Returns a normalized tuple of (offset, coeff) pairs or None.
    """
    for width in range(1, max_size + 1):
        cols = list(range(width))
        rows = []
        for i in range(-12, 13 - width):
            rows.append([entries(i + k) for k in cols])
        M = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                          for r in rows])
        null = M.nullspace()
        if null:
            v = null[0]
            coeffs = [Fraction(sympy.nsimplify(x).p, sympy.nsimplify(x).q)
                      for x in v]
            lead = next(c for c in coeffs if c)
            coeffs = [c / lead for c in coeffs]
            return tuple((k, c) for k, c in zip(cols, coeffs) if c)
    return None


def weighting_divides(entries: dict) -> bool:
    """Whether the Laurent polynomial F = sum_i s_i x^i of a nonzero
    finite sequence divides x * F', the polynomial of its weighted
    sequence (i * s_i): sympy cancels x * F' / F, and the quotient is a
    Laurent polynomial iff the denominator left is a monomial."""
    x = sympy.symbols("x")
    F = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in entries.items())
    _, den = sympy.fraction(sympy.cancel(x * sympy.diff(F, x) / F))
    return sympy.Poly(den, x).is_monomial


def fraction_window(s, lo, hi) -> list:
    """Entries lo..hi of a sequence built from the package's classes, read
    off its definition in ``Fraction`` arithmetic: a recurrence is
    unrolled one entry at a time from its initial window, dividing by
    c_omega forward and by c_0 backward; the wrappers map their base's
    entries.  Independent of the package's integer windows."""
    name = type(s).__name__
    idx = range(lo, hi + 1)
    if name == "FiniteSupport":
        return [Fraction(s.coeffs.get(i, 0)) for i in idx]
    if name == "Geometric":
        return [Fraction(s.j) ** i if i > 0 else Fraction(0) for i in idx]
    if name == "Shifted":
        return fraction_window(s.base, lo + s.offset, hi + s.offset)
    if name == "Scaled":
        return [Fraction(s.factor) * x for x in fraction_window(s.base, lo, hi)]
    if name == "Weighted":
        return [i * x for i, x in zip(idx, fraction_window(s.base, lo, hi))]
    assert name == "Recurrence", name
    c = {k: Fraction(x) for k, x in s.v.items()}
    om = max(c)
    if om == 0:
        return [Fraction(0) for _ in idx]
    a = {i: Fraction(x) for i, x in enumerate(s.initial)}
    for n in range(om, hi + 1):
        a[n] = -sum(c.get(k, 0) * a[n - om + k] for k in range(om)) / c[om]
    for n in range(-1, lo - 1, -1):
        a[n] = -sum(c.get(k, 0) * a[n + k] for k in range(1, om + 1)) / c[0]
    return [a[i] for i in idx]
