"""The loop rotation and the torus scaling: two automorphisms the solver
must be blind to.

The loop rotation x (x) t^j -> s^j x (x) t^j maps M(Lam, theta) onto
M(Lam^s, theta), Lam^s(alpha)_j = s^j Lam(alpha)_j, and a torus element
scaling X_beta by chi(beta) maps it onto M(chi Lam, theta).  Both act
diagonally on the PBW basis, so the rotated and scaled modules have the
same dimension, condition count and row count as the original, and their
kernel vectors map coefficient by coefficient: v'(m) is proportional to
s^(-tdeg m) v(m), and to chi(wt m)^(-1) v(m) under the torus.  The
rotated families are built here, on an entry-only ``BiSequence``; the
scaled ones through the config's ``scale`` literal.

The engine itself straightens in M(Lam^s) for the integer s that clears
the denominators of the members' entries at index 1; its public
``lmul``/``act_gen`` and its kernel vectors stay on M(Lam), which the
tuple straightener of ``oracles`` checks on the unrotated spec.
"""

import copy
import math
import random
from fractions import Fraction

import pytest

import oracles
from affwhit import (
    BiSequence,
    FiniteSupport,
    Geometric,
    TensorModule,
    Truncation,
    WhittakerModule,
    WhittakerSpec,
    X,
    build_datum,
    cli,
    presets,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

F = Fraction

ROTATIONS = (F(2), F(1, 3), F(-3, 2))


class Rotated(BiSequence):
    """The loop-rotated eigenvalues: entry i is s^i base(i).  Defines only
    ``entry``, so it reads through the package default ``int_window``."""

    def __init__(self, base, s):
        self.base, self.s = base, F(s)

    def entry(self, i):
        return self.s**i * self.base.entry(i)


def rotated_spec(spec, s):
    lam = {root: Rotated(seq, s) for root, seq in spec.lam.items()}
    return WhittakerSpec(spec.datum, lam, spec.theta, spec.mode, spec.cocycle)


def weight(mono):
    """Root-lattice weight of a monomial tuple: its X factors' roots."""
    wt = None
    for g, k in mono:
        if g != "d" and g[0] == "X":
            root = [k * c for c in g[1]]
            wt = root if wt is None else [a + b for a, b in zip(wt, root)]
    return wt or []


def character(chi, wt):
    """chi(wt) for chi given on the simple roots."""
    out = F(1)
    for c, w in zip(chi, wt):
        out *= c**w
    return out


def torus_config(cfg, chi):
    """The module config with each member scaled by chi(alpha) through its
    ``scale`` literal."""
    cfg = copy.deepcopy(cfg)
    rank = cfg["algebra"]["rank"]
    for label, literal in cfg["lam"].items():
        factor = character(chi, cli.parse_root_label(label, rank))
        literal["scale"] = str(F(literal.get("scale", "1")) * factor)
    return cfg


def solve(make, trunc):
    return make().solve(trunc)


def assert_same_counts(got, want):
    assert got.basis == want.basis
    assert (got.dimension, got.condition_count, got.row_count) == (
        want.dimension, want.condition_count, want.row_count
    )


def assert_vectors_map(got, want, factor):
    """Each vector of ``got`` is ``factor(m) v(m)`` for the matching v of
    ``want``, up to one nonzero scalar per vector."""
    for v_got, v in zip(got.vectors, want.vectors):
        assert v_got.keys() == v.keys()
        mapped = {m: factor(m) * c for m, c in v.items()}
        m0 = next(iter(v))
        ratio = v_got[m0] / mapped[m0]
        assert ratio and all(v_got[m] == ratio * c for m, c in mapped.items())


def rotation_factor(s, tensor):
    degree = oracles.pair_degree if tensor else oracles.t_degree
    return lambda m: s ** -degree(m)


def torus_factor(chi, tensor):
    if tensor:
        return lambda p: 1 / (character(chi, weight(p[0])) * character(chi, weight(p[1])))
    return lambda m: 1 / character(chi, weight(m))


# ---------------------------------------------------------------------------
# every module and tensor preset at its ladder settings
# ---------------------------------------------------------------------------

LADDER = {
    None: {},
    "J5": {"J": 5},
    "D2E2J3": {"D": 2, "E": 2, "J": 3},
    "literal": {"cocycle": "literal"},
}

PRESET_CASES = [
    (name, setting)
    for name in presets.MODULE_PRESETS + presets.TENSOR_PRESETS
    for setting in LADDER
]


def preset_setup(name, setting):
    """(module configs, truncation, cocycle) of a preset at a ladder setting."""
    cfg = presets.get_preset(name)
    over = LADDER[setting]
    bounds = dict(cfg["truncation"], **{k: v for k, v in over.items() if k in "DEJ"})
    parts = [cfg["left"], cfg["right"]] if "left" in cfg else [cfg]
    return parts, Truncation(**bounds), over.get("cocycle")


def maker(specs):
    if len(specs) == 2:
        return lambda: TensorModule(*specs)
    return lambda: WhittakerModule(specs[0])


def build(parts, cocycle):
    return [cli.build_spec(part, cocycle_override=cocycle) for part in parts]


@pytest.mark.parametrize(
    "name, setting", PRESET_CASES, ids=[f"{n}@{s or 'preset'}" for n, s in PRESET_CASES]
)
def test_presets_are_blind_to_loop_rotation_and_torus_scaling(name, setting):
    parts, trunc, cocycle = preset_setup(name, setting)
    specs = build(parts, cocycle)
    tensor = len(specs) == 2
    want = solve(maker(specs), trunc)
    for s in ROTATIONS:
        got = solve(maker([rotated_spec(spec, s) for spec in specs]), trunc)
        assert_same_counts(got, want)
        assert_vectors_map(got, want, rotation_factor(s, tensor))
    rank = parts[0]["algebra"]["rank"]
    chi = [F(-2, 3), F(5, 2)][:rank]
    scaled = build([torus_config(part, chi) for part in parts], cocycle)
    got = solve(maker(scaled), trunc)
    assert_same_counts(got, want)
    assert_vectors_map(got, want, torus_factor(chi, tensor))


# ---------------------------------------------------------------------------
# random geometric, recurrence and finite families
# ---------------------------------------------------------------------------

RATIOS = ("2", "3", "5/2", "7/3", "9/4", "4/3", "11/5")
VALUES = ("1", "-2", "1/2", "3/4", "-5/3")
# annihilators {offset: coefficient} of two-sided recurrences
RECURRENCES = ({"0": "-1", "1": "1"}, {"0": "1", "1": "0", "2": "1"}, {"0": "2", "1": "-3", "2": "1"})
# shape -> (algebra, member labels, truncation)
SHAPES = {
    "sl2": ({"type": "A", "rank": 1, "levi": []}, ["a1"], Truncation(2, 1, 2)),
    "sl3-borel": ({"type": "A", "rank": 2, "levi": []}, ["a1", "a2"], Truncation(2, 1, 1)),
    "sl3-abelian": (
        {"type": "A", "rank": 2, "levi": [2]}, ["a1", "a1+a2"], Truncation(1, 1, 2)
    ),
}


def random_family(rng):
    """A module config: geometric, recurrence or finite members, a random
    level and mode, and its truncation."""
    algebra, labels, trunc = SHAPES[rng.choice(sorted(SHAPES))]
    lam = {}
    for label in labels:
        kind = rng.random()
        if kind < 0.5:
            lam[label] = {"kind": "geometric", "j": rng.choice(RATIOS)}
        elif kind < 0.7:
            v = rng.choice(RECURRENCES)
            initial = [rng.choice(VALUES) for _ in range(len(v) - 1)]
            lam[label] = {"kind": "recurrence", "v": dict(v), "initial": initial}
        else:
            support = rng.sample(range(-2, 3), rng.randint(1, 2))
            lam[label] = {
                "kind": "finite",
                "entries": {str(i): rng.choice(VALUES) for i in support},
            }
    cfg = {
        "algebra": algebra,
        "lam": lam,
        "theta": rng.choice(["0", "1", "2/3", "-3/2"]),
        "mode": rng.choice(["affine", "affine", "loop_only"]),
    }
    return cfg, trunc


@pytest.mark.parametrize("seed", range(50))
def test_random_families_are_blind_to_loop_rotation_and_torus_scaling(seed):
    rng = random.Random(seed)
    cfg, trunc = random_family(rng)
    spec = cli.build_spec(cfg)
    want = solve(lambda: WhittakerModule(spec), trunc)
    for s in ROTATIONS:
        got = solve(lambda: WhittakerModule(rotated_spec(spec, s)), trunc)
        assert_same_counts(got, want)
        assert_vectors_map(got, want, rotation_factor(s, False))
    rank = cfg["algebra"]["rank"]
    chi = [F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])) for _ in range(rank)]
    got = solve(lambda: WhittakerModule(cli.build_spec(torus_config(cfg, chi))), trunc)
    assert_same_counts(got, want)
    assert_vectors_map(got, want, torus_factor(chi, False))


# ---------------------------------------------------------------------------
# the public action stays on M(Lam)
# ---------------------------------------------------------------------------


def sl3_borel_spec(theta=1):
    lam = {(1, 0): Geometric(F(7, 3)), (0, 1): Geometric(F(9, 4))}
    return WhittakerSpec(build_datum(3), lam, theta=theta)


def sl2_spec(j=F(5, 2), theta=F(5, 3)):
    return WhittakerSpec(build_datum(2), {(1,): Geometric(j)}, theta=theta)


def tuple_action(modules, g, elt, memos):
    """g . elt on a module or a pair of modules, from the tuple straightener
    on each unrotated spec."""
    out = {}
    for key, c in elt.items():
        if len(modules) == 1:
            images = [(m, k) for m, k in oracles.tuple_lmul(
                modules[0].alg, modules[0].spec, g, key, memos[0]).items()]
        else:
            (a, b), (ma, mb) = modules, key
            images = [((m, mb), k) for m, k in oracles.tuple_lmul(
                a.alg, a.spec, g, ma, memos[0]).items()]
            images += [((ma, m), k) for m, k in oracles.tuple_lmul(
                b.alg, b.spec, g, mb, memos[1]).items()]
        for m, k in images:
            out[m] = out.get(m, 0) + c * k
    return {m: c for m, c in out.items() if c}


ACTION_CASES = {
    # name: (module factory, truncation, rotation factor s)
    "sl3-borel": (lambda: WhittakerModule(sl3_borel_spec()), Truncation(2, 1, 2), 12),
    "tensor-sl2": (
        lambda: TensorModule(sl2_spec(), sl2_spec(F(7, 3), 2)), Truncation(1, 1, 2), 6
    ),
}


@pytest.mark.parametrize("name", sorted(ACTION_CASES))
def test_public_action_and_vectors_stay_on_the_unrotated_module(name):
    make, trunc, s = ACTION_CASES[name]
    module = make()
    tensor = isinstance(module, TensorModule)
    factors = [module.left, module.right] if tensor else [module]
    assert module.rotation == s and all(f.rotation == s for f in factors)
    memos = [{} for _ in factors]
    bases = [f.basis(trunc) for f in factors]
    basis = [(a, b) for a in bases[0] for b in bases[1]] if tensor else bases[0]
    probes = basis[:: max(1, len(basis) // 25)]
    roots = module.condition_roots()
    gens = [X(r, j) for r in roots for j in (-trunc.J - 1, 0, 1, trunc.J + 2)]
    gens += [("H", 1, 1), ("H", 1, -2), "d", "c", X(tuple(-c for c in roots[0]), 1)]

    def check_action():
        for g in gens:
            for m in probes:
                want = tuple_action(factors, g, {m: 1}, memos)
                assert module.act_gen(g, {m: 1}) == want, (g, m)
                if not tensor:
                    assert module.lmul(g, m) == want, (g, m)

    check_action()
    res = module.solve(trunc)
    check_action()
    assert res.dimension > 1
    for v in res.vectors:
        assert all(type(c) is Fraction for c in v.values())
        # past the window a truncated kernel vector need not be a Whittaker
        # vector, but the action on it is still M(Lam)'s
        for root in roots:
            for j in range(-trunc.J - 2, trunc.J + 3):
                g = X(root, j)
                got = module.act_gen(g, v)
                assert got == tuple_action(factors, g, v, memos), (root, j)
                if abs(j) <= trunc.J:
                    lam = module.lam_sum(root, j) if tensor else module.spec.vacuum_scalar(root, j)
                    assert got == ({m: lam * c for m, c in v.items()} if lam else {}), (root, j)


def sl3_abelian_spec():
    lam = {(1, 0): Geometric(F(5, 2)), (1, 1): Geometric(F(7, 3))}
    return WhittakerSpec(build_datum(3, {2}), lam, theta=F(1, 2))


def test_a_j_scan_on_a_rotated_module_equals_fresh_solves():
    module = WhittakerModule(sl3_abelian_spec())
    assert module.rotation == 6
    for J in range(1, 5):
        got, want = module.solve(Truncation(2, 1, J)), WhittakerModule(sl3_abelian_spec()).solve(
            Truncation(2, 1, J)
        )
        assert got.vectors == want.vectors and got.basis == want.basis, J
        assert (got.row_count, got.condition_count) == (want.row_count, want.condition_count)


# ---------------------------------------------------------------------------
# the fast path stays fast
# ---------------------------------------------------------------------------

FAST = {
    "sl2": (lambda: sl2_spec(theta=1), Truncation(4, 2, 4), [F(5, 2)]),
    "sl3-borel": (sl3_borel_spec, Truncation(3, 1, 3), [F(7, 3), F(9, 4)]),
}


@pytest.mark.parametrize("name", sorted(FAST))
def test_integral_level_and_rotated_ratios_straighten_in_int(name):
    make, trunc, ratios = FAST[name]
    module = WhittakerModule(make())
    assert module.rotation == math.lcm(*(j.denominator for j in ratios)) > 1
    res = module.solve(trunc)
    assert res.vectors
    assert all(type(c) is int for c in module._shift)
    coeffs = [c for memo in module._memo for img in memo.values() for c in img.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    # the unrotated module would hold Fractions: the rotation is what clears them
    plain = WhittakerModule(make(), rotation=1)
    assert plain.solve(trunc).vectors == res.vectors
    assert any(type(c) is Fraction for c in plain._shift)


def test_a_tensor_product_rotates_both_factors_by_one_s():
    # the lcm over both factors' members, here 2 and 7, not each factor's own
    finite = WhittakerSpec(build_datum(2), {(1,): FiniteSupport({1: F(3, 7), -1: 2})}, theta=1)
    t = TensorModule(sl2_spec(), finite)
    assert t.rotation == t.left.rotation == t.right.rotation == 14
    assert WhittakerModule(finite).rotation == 7
