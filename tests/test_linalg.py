"""Exact rational linear algebra: rank, RREF, nullspace."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from affwhit import linalg

F = Fraction


def random_sparse_rows(rng, nr, nc, density=0.5):
    rows = []
    for _ in range(nr):
        row = {}
        for j in range(nc):
            if rng.random() < density:
                v = F(rng.randint(-6, 6), rng.randint(1, 4))
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def pruned_system(pruner):
    """An equivalent system: one unit row per dead column, then the core."""
    return [{d: F(1)} for d in sorted(pruner.dead)] + list(pruner.core())


def dense(rows, nc):
    return [[row.get(j, F(0)) for j in range(nc)] for row in rows]


def test_as_scalar_takes_exact_values_only():
    for x, want in ((3, F(3)), (F(-2, 7), F(-2, 7)), (" -2/3 ", F(-2, 3))):
        assert linalg.as_scalar(x) == want and type(linalg.as_scalar(x)) is F
    for x in (True, False, 0.5, 2.0, None, [1]):
        with pytest.raises(TypeError):
            linalg.as_scalar(x)
    for x in ("0.5", "1e3", "1/0", " -3/0 ", "1_0", "1/2_0"):
        with pytest.raises(ValueError):
            linalg.as_scalar(x)


def sparse(dense_rows):
    return [{j: v for j, v in enumerate(row) if v} for row in dense_rows]


def test_rank_small_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([{}]) == 0
    assert linalg.rank([{}, {}]) == 0
    assert linalg.rank([{0: F(0), 1: F(0)}]) == 0
    assert linalg.rank([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]) == 1
    assert linalg.rank([{0: F(1, 2)}, {1: F(7, 3)}]) == 2
    assert linalg.rank([{0: 1, 1: 2}, {0: 3, 1: F(9, 2)}]) == 2
    # columns are any int keys, negative ones included
    assert linalg.rank([{-5: 1, 7: 2}, {-5: 2, 7: 4}, {0: F(1, 3)}]) == 2


def test_rank_counts_unit_rows_as_dead_columns():
    # each unit row kills its column; a repeated one adds nothing, and a
    # row on dead columns only is dropped
    rows = [{3: F(2)}, {-1: F(-1)}, {3: F(5)}, {3: F(1), -1: F(4)}]
    assert linalg.rank(rows) == 2
    assert linalg.rank(rows + [{0: F(1), 3: F(1)}]) == 3


def test_rank_follows_a_singleton_cascade():
    # {0} kills 0, which leaves {0, 1} with one live column and kills 1,
    # and so on down the chain; the last two rows then lie in the span of
    # the unit vectors, so the core is empty
    n = 6
    chain_rows = [{k: F(k + 1), k + 1: F(-1)} for k in range(n - 1)]
    rows = chain_rows + [{0: F(3)}, {2: F(1), 4: F(1)}, {1: F(1), 5: F(2)}]
    assert linalg.rank(rows) == n == oracles.sympy_dense_rank(dense(rows, n))
    # without the unit row the chain alone has rank n - 1, all in the core
    assert linalg.rank(chain_rows) == n - 1


def test_rank_ignores_empty_and_zero_rows():
    rows = [{}, {0: F(1), 1: F(1)}, {2: F(0)}, {}, {0: F(2), 1: F(2)}, {1: F(0), 2: F(0)}]
    assert linalg.rank(rows) == 1
    assert linalg.rank([{}] * 5) == 0


def test_rank_zero_pivot_column_regression():
    """Rows with a zero in the first pivot column keep their full rank."""
    rows = [
        [F(2), F(3), F(5), F(7)],
        [F(0), F(3), F(1), F(4)],
        [F(0), F(5), F(2), F(1)],
        [F(0), F(7), F(3), F(9)],
    ]
    assert linalg.rank(sparse(rows)) == oracles.sympy_dense_rank(rows) == 4


def test_rank_matches_sympy_random(monkeypatch):
    rng = random.Random(777)
    for _ in range(150):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_sparse_rows(rng, nr, nc)
        assert linalg.rank(rows) == oracles.sympy_dense_rank(dense(rows, nc))
    # tall and wide shapes; about half get one row a combination of two others
    for _ in range(40):
        nr, nc = rng.randint(1, 12), rng.randint(1, 20)
        if rng.random() < 0.5:
            nr, nc = nc, nr
        rows = dense(random_sparse_rows(rng, nr, nc), nc)
        if nr > 2 and rng.random() < 0.5:
            a, b, c = rng.sample(range(nr), 3)
            rows[c] = [x + F(3, 2) * y for x, y in zip(rows[a], rows[b])]
        assert linalg.rank(sparse(rows)) == oracles.sympy_dense_rank(rows)
        assert linalg.rank(sparse(rows)) == linalg.rank(sparse(zip(*rows)))
    # entries with denominator 1 or 2^127 - 1 and 100-bit numerators, and
    # a row relation with 100-bit coefficients: the reduced form of the
    # transpose holds that relation, and its lift needs more primes
    log = PrimeLog(monkeypatch)
    for _ in range(10):
        nr, nc = rng.randint(3, 6), rng.randint(2, 6)
        rows = [
            [F(rng.getrandbits(100) - 2**99, rng.choice((1, M127))) for _ in range(nc)]
            for _ in range(nr - 1)
        ]
        a, b = (F(rng.getrandbits(100) | 1, rng.getrandbits(100) | 1) for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
        want = oracles.sympy_dense_rank(rows)
        assert linalg.rank(sparse(rows)) == want
        log.primes.clear()
        assert linalg.rank(sparse(zip(*rows))) == want
        assert len(log.primes) > 1


def test_rref_pivot_rows_are_fully_reduced():
    """No pivot row may contain another pivot column in its support."""
    rng = random.Random(31337)
    for _ in range(120):
        nc = rng.randint(1, 8)
        rows = random_sparse_rows(rng, rng.randint(1, 8), nc)
        pivots = linalg.rref_pivots(rows)
        for pc, pr in pivots.items():
            assert pr[pc] == 1
            for c in pr:
                assert c == pc or c not in pivots, (pc, pr, pivots)


def test_nullspace_vectors_lie_in_kernel():
    rng = random.Random(2024)
    for _ in range(200):
        nc = rng.randint(1, 9)
        rows = random_sparse_rows(rng, rng.randint(0, 9), nc)
        basis = linalg.nullspace(rows, nc)
        assert len(basis) == oracles.sympy_nullity(rows, nc)
        for vec in basis:
            assert oracles.in_rowspace_kernel(rows, vec, nc)
        # one vector per free column, normalized to 1 there
        frees = sorted(set(range(nc)) - set(linalg.rref_pivots(rows)))
        assert [min(k for k, v in b.items() if v == 1 and k in frees) for b in basis] == frees


def test_nullspace_regression_partial_reduction():
    """Rows reduced only at their lead produced vectors outside the kernel."""
    rows = [
        {0: F(1), 1: F(1), 2: F(1)},
        {1: F(1), 2: F(2), 3: F(1)},
        {0: F(1), 2: F(-1), 3: F(2)},
    ]
    basis = linalg.nullspace(rows, 4)
    assert len(basis) == 1
    for vec in basis:
        assert oracles.in_rowspace_kernel(rows, vec, 4)


def test_nullspace_column_range_validation():
    with pytest.raises(ValueError):
        linalg.nullspace([{5: F(1)}], 3)


def test_nullity():
    assert len(linalg.nullspace([], 4)) == 4
    assert len(linalg.nullspace([{0: F(1)}, {0: F(2)}], 2)) == 1


# ---------------------------------------------------------------------------
# singleton pruning inside nullspace
# ---------------------------------------------------------------------------


def nonzero(rng):
    return F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))


def pruning_system(rng, nc):
    """Random sparse rows plus singleton chains, empty and repeated rows."""
    rows = random_sparse_rows(rng, rng.randint(0, 4), nc, density=0.3)
    for _ in range(rng.randint(1, 2)):
        chain = rng.sample(range(nc), rng.randint(1, nc))
        rows.append({chain[0]: nonzero(rng)})
        for a, b in zip(chain, chain[1:]):
            row = {a: nonzero(rng), b: nonzero(rng)}
            if rng.random() < 0.3:  # a column that dies earlier in the chain
                row[chain[0]] = nonzero(rng)
            rows.append(row)
    rows += [{} for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 3)):
        if rows:
            base = rng.choice(rows)
            scale = nonzero(rng) if rng.random() < 0.5 else F(1)
            rows.append({c: v * scale for c, v in base.items()})
    rng.shuffle(rows)
    return rows


def test_pruned_nullspace_matches_sympy():
    rng = random.Random(4242)
    for _ in range(250):
        nc = rng.randint(1, 9)
        rows = pruning_system(rng, nc)
        basis = linalg.nullspace(rows, nc)
        assert len(basis) == oracles.sympy_nullity(rows, nc)
        for vec in basis:
            assert oracles.in_rowspace_kernel(rows, vec, nc)
        # same RREF normalization (x_f = 1 on free columns) as sympy
        assert basis == oracles.sympy_nullspace(rows, nc)


def test_singleton_chain_kills_every_column():
    # 0 dies first; each two-column row then kills the next column
    rows = [{3: F(1), 4: F(2)}, {2: F(5), 3: F(-1)}, {1: F(1), 2: F(1)}, {0: F(7)},
            {0: F(1), 1: F(3)}]
    pruner = linalg.SingletonPruner()
    for row in rows:
        pruner.extend((row,))
    assert pruner.dead == {0, 1, 2, 3, 4}
    assert list(pruner.core()) == []
    assert linalg.nullspace(rows, 5) == []
    assert linalg.nullspace(rows, 6) == [{5: F(1)}]


def test_pruner_dead_set_and_core_ignore_row_order():
    rng = random.Random(99)
    for _ in range(100):
        nc = rng.randint(1, 9)
        rows = pruning_system(rng, nc)
        results = []
        for _ in range(3):
            rng.shuffle(rows)
            pruner = linalg.SingletonPruner()
            for row in rows:
                pruner.extend((row,))
            core = sorted(sorted(r.items()) for r in pruner.core())
            results.append((pruner.dead, core))
            for row in pruner.core():
                assert len(row) >= 2 and not set(row) & pruner.dead
            # the pruned system has the same kernel basis as the full one
            want = linalg.nullspace(rows, nc)
            assert linalg.nullspace(pruned_system(pruner), nc) == want
        assert results[0] == results[1] == results[2]


def test_pruner_ignores_zero_entries():
    pruner = linalg.SingletonPruner()
    pruner.extend(({0: F(0), 1: F(3)},))
    assert pruner.dead == {1}
    assert linalg.nullspace([{0: F(0), 1: F(3)}], 2) == [{0: F(1)}]


def test_rref_pivots_skips_explicit_zero_entries():
    """A zero at a row's minimum column must not become its leading value."""
    rows = [{0: F(0), 1: F(1)}, {0: F(0)}, {1: F(2), 2: F(0), 3: F(4)}]
    assert linalg.rref_pivots(rows) == {1: {1: F(1)}, 3: {3: F(1)}}
    clean = [{c: v for c, v in row.items() if v} for row in rows]
    assert linalg.rref_pivots(clean) == linalg.rref_pivots(rows)
    assert linalg.nullspace(rows, 4) == linalg.nullspace(clean, 4) == [
        {0: F(1)},
        {2: F(1)},
    ]


def test_nullspace_of_int_rows_returns_fractions():
    """Rows may mix int and Fraction entries; kernel vectors are Fraction."""
    rows = [{0: 1, 1: -2, 2: F(1, 3)}, {1: 3, 2: 6}]
    basis = linalg.nullspace(rows, 3)
    assert basis == linalg.nullspace(
        [{c: F(v) for c, v in row.items()} for row in rows], 3
    )
    assert basis and all(type(v) is Fraction for vec in basis for v in vec.values())


def test_nullspace_generator_and_list_agree():
    rng = random.Random(7)
    for _ in range(100):
        nc = rng.randint(1, 8)
        rows = pruning_system(rng, nc)
        from_list = linalg.nullspace(rows, nc)
        from_gen = linalg.nullspace((dict(r) for r in rows), nc)
        assert from_gen == from_list
        assert len(linalg.nullspace(iter(rows), nc)) == len(from_list)


def test_nullspace_range_check_covers_pruned_columns():
    # a column outside range(ncols) seen only in a singleton row
    with pytest.raises(ValueError):
        linalg.nullspace([{0: F(1), 1: F(1)}, {7: F(2)}], 3)
    with pytest.raises(ValueError):
        linalg.nullspace([{-1: F(1)}], 3)
    # ... or killed through a chain
    with pytest.raises(ValueError):
        linalg.nullspace([{0: F(1)}, {0: F(1), 9: F(3)}], 3)
    # ... or left in the core
    with pytest.raises(ValueError):
        linalg.nullspace([{0: F(1), 4: F(1)}], 3)
    with pytest.raises(ValueError):
        len(linalg.nullspace([{5: F(1)}], 3))


# ---------------------------------------------------------------------------
# modular elimination: rref_pivots against the Fraction reference
# ---------------------------------------------------------------------------

M127 = 2**127 - 1


class PrimeLog:
    """Records the primes rref_pivots draws."""

    def __init__(self, monkeypatch):
        self.primes = []
        primes = linalg._primes

        def logged_primes():
            for p in primes():
                self.primes.append(p)
                yield p

        monkeypatch.setattr(linalg, "_primes", logged_primes)


def first_image_pivots(rows):
    """Pivot columns of the image modulo the first prime, 2^127 - 1."""
    return sorted(linalg._rref_mod([linalg._integer_row(r) for r in rows], M127))


def big_rows(rng, nr, nc, bits=100):
    rows = []
    for _ in range(nr):
        row = {}
        for j in rng.sample(range(nc), rng.randint(1, nc)):
            num = rng.randint(-(2**bits), 2**bits)
            if num:
                row[j] = F(num, rng.randint(2**bits, 2 ** (bits + 8)))
        rows.append(row)
    return rows


def test_rref_matches_fraction_reference_on_random_families():
    rng = random.Random(5150)
    for _ in range(200):
        nc = rng.randint(1, 9)
        for rows in (
            random_sparse_rows(rng, rng.randint(0, 9), nc),
            pruning_system(rng, nc),
        ):
            got = linalg.rref_pivots(rows)
            assert got == oracles.fraction_rref(rows)
            assert all(type(v) is Fraction for r in got.values() for v in r.values())


def test_rref_with_100_bit_entries_needs_several_primes_and_a_restart(monkeypatch):
    rng = random.Random(2718)
    log = PrimeLog(monkeypatch)
    tall = 0
    for _ in range(12):
        nc = rng.randint(2, 6)
        rows = big_rows(rng, rng.randint(1, 5), nc)
        log.primes.clear()
        want = oracles.fraction_rref(rows)
        assert linalg.rref_pivots(rows) == want
        height = max(
            max(abs(v.numerator), v.denominator)
            for r in want.values()
            for v in r.values()
        )
        if height > 2**100:  # one 127-bit prime reconstructs heights below 2^63
            assert len(log.primes) > 2
            tall += 1
    assert tall > 5
    # a multiple of the first prime at a leading position hides column 0
    # from the first image, so the next prime's better pivot set restarts
    rows = [
        {0: F(M127 * 3, 7), 1: F(2**101 + 1, 3**70)},
        {1: F(2**103 - 3, 11**30), 2: F(-(5**50), 2**100 + 7), 3: F(3**66, 13)},
    ]
    log.primes.clear()
    got = linalg.rref_pivots(rows)
    assert got == oracles.fraction_rref(rows)
    assert first_image_pivots(rows) == [1, 2] and sorted(got) == [0, 1]
    assert len(log.primes) > 3


def test_unlucky_first_prime_still_gives_the_exact_form(monkeypatch):
    log = PrimeLog(monkeypatch)
    rows = [{0: M127, 1: 1}]
    # modulo 2^127 - 1 the row is {1: 1}: rank 1 but pivot column 1, not 0
    assert linalg._rref_mod([{0: M127, 1: 1}], M127) == {1: {1: 1}}
    assert linalg.rref_pivots(rows) == {0: {0: F(1), 1: F(1, M127)}}
    assert linalg.rref_pivots(rows) == oracles.fraction_rref(rows)
    assert log.primes[0] == M127 and len(log.primes) > 2


def test_denominator_divisible_by_a_prime():
    rows = [{0: F(1, M127), 1: F(1)}, {1: F(3, M127), 2: F(M127, 5)}]
    assert linalg.rref_pivots(rows) == oracles.fraction_rref(rows)
    rows = [{0: F(1, M127), 1: F(1)}]
    assert linalg.rref_pivots(rows) == {0: {0: F(1), 1: F(M127)}}


def mixed_rows(rng, nr, nc):
    """Random rows with integral entries as ``int`` and explicit zeros, ``0``
    or ``F(0)``, at some empty columns."""
    rows = []
    for row in random_sparse_rows(rng, nr, nc):
        out = {}
        for c in range(nc):
            v = row.get(c)
            if v is not None:
                out[c] = v.numerator if v.denominator == 1 else v
            elif rng.random() < 0.3:
                out[c] = rng.choice((0, F(0)))
        rows.append(out)
    return rows


def test_certificate_rejects_a_perturbed_candidate():
    rng = random.Random(8128)
    checked = 0
    for make in (random_sparse_rows, mixed_rows):
        for _ in range(150):
            nc = rng.randint(2, 8)
            rows = make(rng, rng.randint(1, 8), nc)
            int_rows = [r for r in map(linalg._integer_row, rows) if r]
            # each integer row is its row, zeros dropped, times one positive scale
            for r, x in zip(int_rows, (x for x in rows if any(x.values()))):
                nonzero = {c: v for c, v in x.items() if v}
                assert all(type(v) is int for v in r.values()) and r.keys() == nonzero.keys()
                scale = F(r[min(r)]) / nonzero[min(r)]
                assert scale > 0 and all(r[c] == scale * v for c, v in nonzero.items())
            cand = {
                pc: {f: (v.numerator, v.denominator) for f, v in row.items() if f != pc}
                for pc, row in oracles.fraction_rref(rows).items()
            }
            assert linalg._certify(int_rows, cand)
            entries = [(pc, f) for pc, row in cand.items() for f in row]
            if not entries:
                continue
            pc, f = rng.choice(entries)
            a, b = cand[pc][f]
            for wrong in ((a + 1, b), (a, b + 1), None):
                bad = {k: dict(row) for k, row in cand.items()}
                if wrong is None:
                    del bad[pc][f]
                else:
                    bad[pc][f] = wrong
                assert not linalg._certify(int_rows, bad)
            # free column f in no candidate row: v_f = e_f, but column f is
            # not zero in the rows
            bad = {k: {g: ab for g, ab in row.items() if g != f} for k, row in cand.items()}
            assert not linalg._certify(int_rows, bad)
            checked += 1
    assert checked > 100


def residue_rows(rng, p, nr, nc):
    """Nonempty integer rows with entries >= p, negative entries and
    multiples of p, and integer combinations of earlier rows, which
    reduce to zero."""
    rows = []
    while len(rows) < nr:
        if rows and rng.random() < 0.3:
            row = {}
            for base in rng.sample(rows, min(len(rows), 2)):
                k = rng.randint(-3, 3) + rng.choice((0, p, -2 * p))
                for c, v in base.items():
                    row[c] = row.get(c, 0) + k * v
        else:
            row = {
                c: rng.choice((
                    rng.randint(-3 * p, 3 * p),
                    p * rng.randint(-3, 3),
                    rng.randint(1, p - 1),
                ))
                for c in rng.sample(range(nc), rng.randint(1, nc))
            }
        row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(row)
    return rows


@pytest.mark.parametrize("p", [7, 101, M127], ids=["7", "101", "2^127-1"])
def test_rref_mod_matches_an_eager_gauss_jordan(p):
    rng = random.Random(p)
    seen = dict.fromkeys(("zero row", "left of every pivot", "right of a pivot", "cleared"), 0)
    for _ in range(150):
        rows = residue_rows(rng, p, rng.randint(1, 9), rng.randint(1, 8))
        if rng.random() < 0.5:
            rows.sort(key=min, reverse=True)  # the order rref_pivots uses
        copies = [dict(row) for row in rows]
        assert linalg._rref_mod(rows, p) == oracles.mod_rref(rows, p)
        assert rows == copies
        # what each row does to the form of the rows before it
        before = {}
        for i in range(len(rows)):
            after = oracles.mod_rref(rows[: i + 1], p)
            new = set(after) - set(before)
            if not new:
                seen["zero row"] += 1
            elif before:
                (lead,) = new
                if lead < min(before):
                    seen["left of every pivot"] += 1
                else:
                    seen["right of a pivot"] += 1
                    seen["cleared"] += any(lead in row for row in before.values())
            before = after
    assert min(seen.values()) > 40, seen


def test_lift_reconstructs_each_distinct_residue_once(monkeypatch):
    m = M127
    bound = math.isqrt(m // 2)

    def residue(a, b):
        return a * pow(b, -1, m) % m

    u, v, w = residue(-3, 7), residue(5, 2**40 + 1), residue(1, 3)
    acc = {0: {0: 1, 2: u, 3: v}, 1: {1: 1, 2: u, 3: w, 4: v}, 5: {5: 1, 6: u}}
    calls = []
    reconstruct = linalg._reconstruct

    def counted(x, mod, bnd):
        calls.append(x)
        return reconstruct(x, mod, bnd)

    monkeypatch.setattr(linalg, "_reconstruct", counted)
    got = linalg._lift(acc, m)
    assert got == {
        pc: {c: reconstruct(x, m, bound) for c, x in row.items() if c != pc}
        for pc, row in acc.items()
    }
    assert got[0][2] == (-3, 7) and got[1][3] == (1, 3)
    assert sorted(calls) == sorted({u, v, w})
    # a residue with no fraction in the bounds fails, also where it repeats
    rng = random.Random(127)
    bad = next(x for x in iter(lambda: rng.randrange(m), None) if reconstruct(x, m, bound) is None)
    assert linalg._lift({0: {0: 1, 2: u, 3: bad}, 1: {1: 1, 2: u}}, m) is None
    assert linalg._lift({0: {0: 1, 2: u}, 1: {1: 1, 2: u, 3: bad, 4: bad}}, m) is None
    # one Fraction per distinct (a, b), equal to Fraction(a, b)
    rows = linalg._fractions(got)
    assert rows[0][2] is rows[1][2] is rows[5][6] == F(-3, 7)
    assert rows == {
        pc: {pc: F(1), **{c: F(a, b) for c, (a, b) in row.items()}}
        for pc, row in got.items()
    }


def test_generated_primes_are_prime():
    sympy = pytest.importorskip("sympy")
    primes = list(itertools.islice(linalg._primes(), 20))
    assert primes[0] == M127
    assert all(p < 2**61 for p in primes[1:])
    assert primes[1:] == sorted(set(primes[1:]), reverse=True)
    assert all(sympy.isprime(p) for p in primes)


def test_miller_rabin_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1009)
    samples = list(range(3000)) + [rng.randrange(2**61) for _ in range(300)]
    # strong pseudoprimes to many small bases, and Carmichael numbers
    samples += [3215031751, 2152302898747, 3474749660383, 341550071728321,
                3825123056546413051, 561, 41041, 825265]
    for n in samples:
        assert linalg._is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError):
        linalg._is_prime(318665857834031151167461)


def test_one_entry_rows_in_the_pruner():
    pruner = linalg.SingletonPruner()
    pruner.extend(({0: F(1), 1: F(2), 2: F(3)},))
    pruner.extend(({3: F(0)},))  # a zero entry says nothing
    assert pruner.dead == set()
    pruner.extend(({1: F(5)},))
    pruner.extend(({1: 2},))  # already dead
    pruner.extend(({2: F(-1)},))  # kills 2, then the first row kills 0
    assert pruner.dead == {0, 1, 2}
    assert list(pruner.core()) == []
    assert pruner.nullspace(4) == [{3: F(1)}]


def test_pruner_nullspace_equals_nullspace_of_its_system():
    rng = random.Random(606)
    for _ in range(150):
        nc = rng.randint(1, 9)
        rows = pruning_system(rng, nc)
        pruner = linalg.SingletonPruner()
        for row in rows:
            pruner.extend((row,))
        basis = pruner.nullspace(nc)
        assert basis == linalg.nullspace(pruned_system(pruner), nc)
        assert basis == oracles.sympy_nullspace(rows, nc)
    pruner = linalg.SingletonPruner()
    pruner.extend(({0: F(1), 5: F(1)},))  # column 5 stays live in the core
    with pytest.raises(ValueError):
        pruner.nullspace(3)


def test_pruner_extend_equals_an_add_loop():
    rng = random.Random(707)
    for _ in range(150):
        nc = rng.randint(1, 9)
        rows = pruning_system(rng, nc)
        one_by_one = linalg.SingletonPruner()
        for row in rows:
            one_by_one.extend((row,))
        batched = linalg.SingletonPruner()
        batched.extend(rows)
        cut = rng.randint(0, len(rows))
        split = linalg.SingletonPruner()
        split.extend(iter(rows[:cut]))  # any iterable, read once
        split.extend(row for row in rows[cut:])
        want = oracles.sympy_nullspace(rows, nc)
        for pruner in (batched, split):
            assert pruner.dead == one_by_one.dead
            assert list(pruner.core()) == list(one_by_one.core())
            assert pruner.nullspace(nc) == one_by_one.nullspace(nc) == want


def test_pruner_extend_edge_cases():
    pruner = linalg.SingletonPruner()
    pruner.extend([{0: F(1), 1: F(2), 2: F(3)}, {0: F(0), 3: F(3)}, {4: 0}])
    assert pruner.dead == {3}  # the zero entries at 0 and 4 say nothing
    assert list(pruner.core()) == [{0: F(1), 1: F(2), 2: F(3)}]
    for empty in ([], (), iter(())):
        pruner.extend(empty)
        assert pruner.dead == {3}
        assert list(pruner.core()) == [{0: F(1), 1: F(2), 2: F(3)}]
    # a singleton chain whose start arrives in a later call still resolves
    chain = linalg.SingletonPruner()
    chain.extend([{3: F(1), 4: F(2)}, {2: F(5), 3: F(-1)}, {1: F(1), 2: F(1)}])
    assert chain.dead == set() and len(list(chain.core())) == 3
    chain.extend([{0: F(1), 1: F(3)}, {0: F(7)}])
    assert chain.dead == {0, 1, 2, 3, 4}
    assert list(chain.core()) == []
    assert chain.nullspace(6) == [{5: F(1)}]


# ---------------------------------------------------------------------------
# solver cross-check: modular vs Fraction elimination of the same core
# ---------------------------------------------------------------------------


def _module(preset):
    from affwhit import cli, presets
    from affwhit.engine import TensorModule, WhittakerModule

    cfg = presets.get_preset(preset)
    if "left" in cfg:
        return TensorModule(cli.build_spec(cfg["left"]), cli.build_spec(cfg["right"]))
    return WhittakerModule(cli.build_spec(cfg))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "preset, D, E, Jmax",
    [("sl2", 3, 2, 4), ("sl3-abelian", 2, 1, 3), ("tensor-sl2", 1, 1, 4)],
)
def test_solver_matches_fraction_elimination_of_its_core(
    monkeypatch, preset, D, E, Jmax
):
    from affwhit.engine import Truncation

    modular = linalg.rref_pivots
    cores = []

    def fraction_elimination(rows):
        rows = list(rows)
        cores.append(rows)
        return oracles.fraction_rref(rows)

    for J in range(1, Jmax + 1):
        trunc = Truncation(D, E, J)
        got = _module(preset).solve(trunc)
        with monkeypatch.context() as m:
            m.setattr(linalg, "rref_pivots", fraction_elimination)
            want = _module(preset).solve(trunc)
        assert got.vectors == want.vectors
        assert got.dimension == want.dimension and got.row_count == want.row_count
        assert modular(cores[-1]) == oracles.fraction_rref(cores[-1])
    assert any(len(core) > 20 for core in cores)
