"""Finite root data of sl(n): brackets, bilinear form, order, strata."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from affwhit import (
    ChevalleyElement,
    ImproperParabolic,
    OutOfDomain,
    bracket_fin,
    build_datum,
    killing,
)

F = Fraction


def all_basis_keys(datum):
    keys = [("X", r) for r in sorted(datum.phi)]
    keys += [("H", i) for i in range(1, datum.rank + 1)]
    return keys


def random_element(datum, rng, max_terms=3):
    elt = ChevalleyElement(datum, {})
    keys = all_basis_keys(datum)
    for _ in range(rng.randint(1, max_terms)):
        key = rng.choice(keys)
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        if key[0] == "X":
            elt = elt + datum.X(key[1], c)
        else:
            elt = elt + datum.H(key[1], c)
    return elt


# ---------------------------------------------------------------------------
# root sets and strata
# ---------------------------------------------------------------------------


def test_root_counts():
    for n in (2, 3, 4, 5):
        datum = build_datum(n)
        assert len(datum.phi) == n * (n - 1)
        assert len(datum.phi_pos) == n * (n - 1) // 2
        assert datum.phi_n == datum.phi_pos  # Borel case


def test_parabolic_partitions():
    datum = build_datum(3, {2})
    a1, a2 = (1, 0), (0, 1)
    assert datum.phi_n == {a1, (1, 1)}
    assert datum.phi_n0 == {a1, (1, 1)}
    assert datum.phi_n1 == frozenset()
    assert a2 in datum.levi_roots and (0, -1) in datum.levi_roots

    datum = build_datum(3)
    assert datum.phi_n0 == {a1, a2}
    assert datum.phi_n1 == {(1, 1)}
    assert datum.strata == ({a1, a2}, {(1, 1)})


def test_strata_are_the_descending_central_series():
    rng = random.Random(5)
    for n, levi in [(3, set()), (4, {2}), (4, {1, 3}), (5, {2, 3})]:
        datum = build_datum(n, levi)
        # strata partition phi_n
        union = set()
        for layer in datum.strata:
            assert not (union & layer)
            union |= layer
        assert union == datum.phi_n
        # every root in stratum i >= 1 is a sum delta + alpha with
        # delta in phi_n and alpha in stratum i-1
        for i in range(1, len(datum.strata)):
            for gamma in datum.strata[i]:
                assert any(
                    tuple(g - d for g, d in zip(gamma, delta)) in datum.strata[i - 1]
                    for delta in datum.phi_n
                ), (gamma, i)


def test_improper_parabolic_rejected():
    with pytest.raises(ImproperParabolic):
        build_datum(3, {1, 2})
    with pytest.raises(ValueError):
        build_datum(3, {7})
    with pytest.raises(ValueError):
        build_datum(1)


# ---------------------------------------------------------------------------
# structure constants against the matrix-unit oracle
# ---------------------------------------------------------------------------


def test_bracket_matches_matrix_commutator():
    rng = random.Random(123)
    for n in (2, 3, 4):
        datum = build_datum(n)
        for _ in range(70):
            x = random_element(datum, rng)
            y = random_element(datum, rng)
            got = oracles.element_matrix(bracket_fin(x, y))
            want = oracles.matrix_bracket(
                oracles.element_matrix(x), oracles.element_matrix(y)
            )
            assert got == want


def test_commutator_oracle_catches_a_relabelled_root_table():
    # sl(3) with +-(a1+a2) sent to each other's matrix units in both tables:
    # the datum stays self-consistent, but the oracle reads matrix units
    # from the roots themselves, so the commutators disagree
    datum = build_datum(3)
    for root, pos in (((1, 1), (3, 1)), ((-1, -1), (1, 3))):
        datum._pos_of_root[root] = pos
        datum._root_of_pos[pos] = root
    elements = [ChevalleyElement(datum, {k: 1}) for k in all_basis_keys(datum)]
    assert any(
        oracles.element_matrix(bracket_fin(x, y))
        != oracles.matrix_bracket(oracles.element_matrix(x), oracles.element_matrix(y))
        for x in elements for y in elements
    )


def test_root_position_oracle():
    assert oracles.root_position((1, 1, 0)) == (1, 3)
    assert oracles.root_position((0, -1, -1)) == (4, 2)
    assert oracles.root_position((0, 1)) == (2, 3)
    for bad in ((1, 0, 1), (1, -1), (2,), (0, 0)):
        with pytest.raises((AssertionError, IndexError)):
            oracles.root_position(bad)


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(321)
    datum = build_datum(3, {1})
    zero = ChevalleyElement(datum, {})
    for _ in range(40):
        x, y, z = (random_element(datum, rng) for _ in range(3))
        assert bracket_fin(x, y) + bracket_fin(y, x) == zero
        jac = (
            bracket_fin(x, bracket_fin(y, z))
            + bracket_fin(y, bracket_fin(z, x))
            + bracket_fin(z, bracket_fin(x, y))
        )
        assert jac == zero


def test_killing_matches_trace_oracle():
    rng = random.Random(99)
    for n in (2, 3, 4):
        datum = build_datum(n)
        for _ in range(50):
            x = random_element(datum, rng)
            y = random_element(datum, rng)
            got = killing(x, y)
            want = oracles.matrix_killing(
                datum, oracles.element_matrix(x), oracles.element_matrix(y)
            )
            assert got == want


def test_killing_pinned_values():
    datum = build_datum(2)
    a = (1,)
    e, f, h = datum.X(a), datum.X((-1,)), datum.H(1)
    assert killing(e, f) == 4
    assert killing(h, h) == 8
    assert killing(e, h) == 0
    assert killing(e, e) == 0


def test_killing_invariance():
    """kappa([x, y], z) == kappa(x, [y, z])."""
    rng = random.Random(7)
    datum = build_datum(4, {2})
    for _ in range(40):
        x, y, z = (random_element(datum, rng) for _ in range(3))
        assert killing(bracket_fin(x, y), z) == killing(x, bracket_fin(y, z))


# ---------------------------------------------------------------------------
# the root order
# ---------------------------------------------------------------------------


def test_order_key_domain():
    datum = build_datum(3, {2})
    with pytest.raises(OutOfDomain):
        datum.order_key((1, 0))  # nilradical root
    with pytest.raises(OutOfDomain):
        datum.order_key((9, 9))  # not a root at all
    datum.order_key((0, 0))
    datum.order_key((0, 1))
    datum.order_key((-1, -1))


def test_order_is_total_and_groups_are_ordered():
    for n, levi in [(2, set()), (3, set()), (3, {2}), (4, {1, 3})]:
        datum = build_datum(n, levi)
        domain = sorted(
            (datum.phi | {datum.zero}) - datum.phi_n, key=datum.order_key
        )
        # totality: distinct elements always compare strictly
        for a, b in combinations(domain, 2):
            ka, kb = datum.order_key(a), datum.order_key(b)
            assert ka != kb and (ka < kb) != (kb < ka)
            assert ka < kb  # domain is sorted by the key
        assert all(datum.order_key(a) == datum.order_key(tuple(a)) for a in domain)
        # group ordering: -X_k first, then ... -X_0, then Levi roots and 0
        k = len(datum.strata) - 1
        seen_groups = [datum.order_key(r)[0] for r in domain]
        assert seen_groups == sorted(seen_groups)
        for i, layer in enumerate(datum.strata):
            for gamma in layer:
                neg = tuple(-c for c in gamma)
                assert datum.order_key(neg)[0] == k - i
        assert datum.order_key(datum.zero)[0] == k + 1


def test_order_extends_levi_dominance():
    """gamma > beta whenever gamma - beta is a positive-Levi combination."""
    datum = build_datum(4, {1, 3})
    for beta in (datum.phi | {datum.zero}) - datum.phi_n:
        for alpha in datum.levi_roots:
            if sum(alpha[k] for k in range(datum.rank)) <= 0:
                continue
            gamma = tuple(b + a for b, a in zip(beta, alpha))
            if gamma in datum.phi_n or (
                gamma != datum.zero and gamma not in datum.phi
            ):
                continue
            assert datum.order_key(gamma) > datum.order_key(beta), (gamma, beta)


def test_pairing_is_cartan_action():
    datum = build_datum(4, {2})
    for root in datum.phi:
        for i in range(1, datum.rank + 1):
            got = bracket_fin(datum.H(i), datum.X(root))
            want = datum.X(root, datum.pairing(root, i))
            assert got == want
