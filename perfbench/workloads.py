"""Seeded workload generation for the affwhit benchmark.

A workload is a list of operations.  The seed draws the inputs (geometric
ratios, levels, finite-support and recurrence entries from fixed pools)
and the order of the operations within a pass; the package only ever sees
the generated configs.  Each operation carries the answer it must give,
taken from the rung tables below.  The dimensions and ranks in those
tables are structural: ``python3 perfbench/record.py`` confirms that they
hold for every draw over a range of seeds, and cross-checks the window
ranks against sympy.

Operation kinds:

* ``whittaker`` / ``tensor`` -- ``affwhit.cli.main`` with ``--config`` on a
  fresh module; ``expect`` is the Whittaker dimension;
* ``solve`` -- ``solve`` for one J on the module of its spec, built through
  ``cli.build_spec`` by the spec's first op; a spec's ops run in ascending
  J order on that one module;
* ``check-seq`` -- ``affwhit.cli.main check-seq --config``; ``expect`` holds
  the window rank, the row count and the verdict kinds.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Geometric ratios: distinct rationals > 1, integers and non-integers.  The
# solvers only see entries up to j = J, so the draw barely moves their cost.
GEO_POOL = ("2", "3", "5/2", "7/3", "7/2", "8/3", "9/4", "11/4")
# Window-rank rows hold ratio^(W+S), and clearing their denominators sets
# the Bareiss cost: a ratio p/3 costs about twice p/2 and five times an
# integer.  So each family slot fixes which pool it draws from, and the
# non-integer pool has a single denominator.
SEQ_FRAC_POOL = ("4/3", "5/3", "7/3", "8/3", "10/3")
SEQ_INT_POOL = ("13", "16", "17", "19")
THETA_POOL = ("1", "2", "1/2", "3/2", "5/3", "7/2")
DELTA_POOL = ("1", "2", "-1", "3/2", "-2/3", "5/4")
# Irreducible cyclotomic quadratics: any nonzero initial window has the
# whole polynomial as minimal annihilator, the roots are disjoint from each
# other and from the geometric ratios, and the entries stay bounded, so the
# window-rank cost does not depend on the draw.
REC_POOL = (
    {"0": "1", "1": "0", "2": "1"},  # x^2 + 1
    {"0": "1", "1": "1", "2": "1"},  # x^2 + x + 1
    {"0": "1", "1": "-1", "2": "1"},  # x^2 - x + 1
)
FIN_VALUES = ("1", "2", "-1", "3", "1/2", "-3/2", "4/3")
# Translates of a finite-support sequence meet the cutoff deltas of the
# geometric members at positions that depend on its support, so each
# finite-support slot of a family has a fixed support; the seed draws
# its values, never proportional to another member's.
FIN_SUPPORTS = ((1, 3), (-2, 0))

WORKLOADS = ("certify", "multiplicity", "jscan", "seq-window")

# (preset-like shape, D, E, J, Whittaker dimension)
CERTIFY_RUNGS = (
    ("sl2", 4, 2, 4, 1),
    ("sl2-loop", 4, 2, 4, 1),
    ("sl3-borel", 3, 1, 3, 1),
    ("sl4-borel", 2, 1, 3, 1),
)
MULTIPLICITY_RUNGS = (
    ("sl3-abelian", 3, 1, 4, 20),
    ("tensor-sl2", 2, 1, 3, 14),
)
# shape, D, E, {J: dimension}
JSCAN_RUNGS = (
    ("sl2", 3, 2, {1: 32, 2: 10, 3: 4, 4: 1, 5: 1, 6: 1}),
    ("sl3-abelian", 2, 1, {2: 34, 3: 19, 4: 12, 5: 11}),
    ("tensor-sl2", 1, 1, {2: 7, 3: 5, 4: 4, 5: 3, 6: 3}),
    ("tensor-sl2", 2, 1, {2: 26, 3: 14, 4: 9}),
)
# family member kinds, S, W, window rank ("geo" draws a non-integer ratio,
# "int" an integer one).  Every member contributes 2S+1 translate rows and
# one weighted row; recurrences are the only non-generic members.
SEQ_TEMPLATES = (
    (("geo", "int", "rec", "fin"), 10, 40, 30),
    (("geo", "rec", "rec", "fin"), 12, 48, 35),
    (("int", "int", "geo", "rec"), 8, 32, 25),
    (("rec", "fin", "fin", "geo"), 14, 56, 39),
    (("geo", "rec", "fin"), 16, 64, 40),
)
# independent draws of every template per pass, so that one costly draw
# moves the pass time less
SEQ_DRAWS = 2


def _algebra(rank, levi=()):
    return {"type": "A", "rank": rank, "levi": list(levi)}


def _geo(j):
    return {"kind": "geometric", "j": j}


def module_config(shape, rng):
    """One module config of the given shape with seeded eigenvalues."""
    if shape == "sl2-loop":
        return {
            "algebra": _algebra(1),
            "lam": {"a1": {"kind": "finite", "entries": {"1": rng.choice(DELTA_POOL)}}},
            "theta": "0",
            "mode": "loop_only",
        }
    labels, algebra = {
        "sl2": (["a1"], _algebra(1)),
        "sl3-borel": (["a1", "a2"], _algebra(2)),
        "sl3-abelian": (["a1", "a1+a2"], _algebra(2, [2])),
        "sl4-borel": (["a1", "a2", "a3"], _algebra(3)),
    }[shape]
    ratios = rng.sample(GEO_POOL, len(labels))
    return {
        "algebra": algebra,
        "lam": {label: _geo(j) for label, j in zip(labels, ratios)},
        "theta": rng.choice(THETA_POOL),
        "mode": "affine",
    }


def tensor_config(rng):
    ja, jb = rng.sample(GEO_POOL, 2)
    ta, tb = rng.choice(THETA_POOL), rng.choice(THETA_POOL)
    return {
        "left": {"algebra": _algebra(1), "lam": {"a1": _geo(ja)}, "theta": ta},
        "right": {"algebra": _algebra(1), "lam": {"a1": _geo(jb)}, "theta": tb},
    }


def config_for(shape, rng):
    return tensor_config(rng) if shape == "tensor-sl2" else module_config(shape, rng)


def _with_truncation(cfg, D, E, J):
    return dict(cfg, truncation={"D": D, "E": E, "J": J})


def _solver_ops(rungs, rng):
    ops = []
    for shape, D, E, J, dim in rungs:
        kind = "tensor" if shape == "tensor-sl2" else "whittaker"
        ops.append({
            "id": f"{kind}:{shape}({D},{E},{J})",
            "kind": kind,
            "config": _with_truncation(config_for(shape, rng), D, E, J),
            "expect": dim,
        })
    return ops


def _scan_ops(rng):
    """One op per J; the ops of a spec share one module and stay in ascending
    J order, the specs are shuffled."""
    groups = []
    for shape, D, E, dims in JSCAN_RUNGS:
        cfg = config_for(shape, rng)
        Js = sorted(dims)
        name = f"scan:{shape}({D},{E},J={Js[0]}..{Js[-1]})"
        groups.append([
            {
                "id": f"{name}@J={J}",
                "kind": "solve",
                "module": name,
                "first": J == Js[0],
                "last": J == Js[-1],
                "tensor": shape == "tensor-sl2",
                "config": cfg,
                "D": D,
                "E": E,
                "J": J,
                "expect": dims[J],
            }
            for J in Js
        ])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _sequence(kind, rng, used):
    """One family member; ``used`` keeps the draws of earlier members."""
    if kind in ("geo", "int"):
        pool = SEQ_FRAC_POOL if kind == "geo" else SEQ_INT_POOL
        j = rng.choice([r for r in pool if r not in used["geo"]])
        used["geo"].add(j)
        return _geo(j)
    if kind == "rec":
        i = rng.choice([k for k in range(len(REC_POOL)) if k not in used["rec"]])
        used["rec"].add(i)
        initial = rng.sample(FIN_VALUES, 2)
        return {"kind": "recurrence", "v": dict(REC_POOL[i]), "initial": initial}
    lo, hi = FIN_SUPPORTS[len(used["fin"])]
    while True:
        a, b = rng.sample(FIN_VALUES, 2)
        shape = Fraction(a) / Fraction(b)
        if shape not in used["fin"]:
            break
    used["fin"].append(shape)
    return {"kind": "finite", "entries": {str(lo): a, str(hi): b}}


def _seq_ops(rng):
    ops = []
    for draw in range(SEQ_DRAWS):
        for members, S, W, rank in SEQ_TEMPLATES:
            used = {"geo": set(), "rec": set(), "fin": []}
            seqs = [_sequence(kind, rng, used) for kind in members]
            kinds = ["not_generic" if k == "rec" else "generic" for k in members]
            ops.append({
                "id": f"check-seq:{'+'.join(members)}(S={S},W={W})#{draw}",
                "kind": "check-seq",
                "config": {"sequences": seqs, "S": S, "W": W, "weighted": True},
                "expect": {
                    "rank": rank,
                    "rows": len(members) * (2 * S + 2),
                    "kinds": kinds,
                    "set": "not_strongly_generic",
                },
            })
    return ops


def generate(workload, seed):
    """The seeded operation list of one pass, in its seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        ops = _solver_ops(CERTIFY_RUNGS, rng)
    elif workload == "multiplicity":
        ops = _solver_ops(MULTIPLICITY_RUNGS, rng)
    elif workload == "jscan":
        return _scan_ops(rng)
    elif workload == "seq-window":
        ops = _seq_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops
