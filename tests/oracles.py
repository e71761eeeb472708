"""Independent oracles used to validate the exact kernels.

Everything here recomputes results through a *different* route than the
package: matrix units and literal commutators for the finite algebra,
sympy and Fraction Gauss-Jordan for linear algebra, and brute-force
window searches for sequence annihilators.  Tests freeze oracle outputs
or compare against them directly; the package code under test is never
used to produce its own expected values.
"""

from fractions import Fraction

import sympy


# ---------------------------------------------------------------------------
# matrix-unit model of sl(n)
# ---------------------------------------------------------------------------


def basis_matrix(datum, key) -> sympy.Matrix:
    """Realize a Chevalley basis key as an n-by-n trace-zero matrix."""
    n = datum.n
    M = sympy.zeros(n, n)
    if key[0] == "X":
        p, q = datum.pos_of_root(key[1])
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
