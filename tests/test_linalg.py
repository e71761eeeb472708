"""Exact rational linear algebra: rank, RREF, nullspace."""

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


def dense(rows, nc):
    return [[row.get(j, F(0)) for j in range(nc)] for row in rows]


def test_rank_small_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(0), F(0)]]) == 0
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank([[F(1, 2), F(0)], [F(0), F(7, 3)]]) == 2
    with pytest.raises(ValueError):
        linalg.rank([[F(1)], [F(1), F(2)]])


def test_rank_zero_pivot_column_regression():
    """Rows with a zero in the first pivot column must still be rescaled.

    Without the rescaling the later exact divisions floor-truncate and
    the computed rank drops below the true one.
    """
    rows = [
        [F(2), F(3), F(5), F(7)],
        [F(0), F(3), F(1), F(4)],
        [F(0), F(5), F(2), F(1)],
        [F(0), F(7), F(3), F(9)],
    ]
    assert linalg.rank(rows) == oracles.sympy_dense_rank(rows) == 4


def test_rank_matches_sympy_random():
    rng = random.Random(777)
    for _ in range(150):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = dense(random_sparse_rows(rng, nr, nc), nc)
        assert linalg.rank(rows) == oracles.sympy_dense_rank(rows)


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
    assert linalg.nullity([], 4) == 4
    assert linalg.nullity([{0: F(1)}, {0: F(2)}], 2) == 1


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
        pruner.add(row)
    assert pruner.dead == {0, 1, 2, 3, 4}
    assert pruner.core() == []
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
                pruner.add(row)
            core = sorted(sorted(r.items()) for r in pruner.core())
            results.append((pruner.dead, core))
            for row in pruner.core():
                assert len(row) >= 2 and not set(row) & pruner.dead
            # the pruned system has the same kernel basis as the full one
            assert linalg.nullspace(pruner.system(), nc) == linalg.nullspace(rows, nc)
        assert results[0] == results[1] == results[2]


def test_pruner_ignores_zero_entries():
    pruner = linalg.SingletonPruner()
    pruner.add({0: F(0), 1: F(3)})
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
        assert linalg.nullity(iter(rows), nc) == linalg.nullity(rows, nc)


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
        linalg.nullity([{5: F(1)}], 3)


def test_nullity_agrees_with_nullspace():
    rng = random.Random(1234)
    for _ in range(150):
        nc = rng.randint(1, 9)
        rows = pruning_system(rng, nc) if rng.random() < 0.5 else random_sparse_rows(
            rng, rng.randint(0, 9), nc
        )
        assert linalg.nullity(rows, nc) == len(linalg.nullspace(rows, nc))
