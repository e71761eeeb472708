"""Acceptance gate: ten criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  Three criteria fail by design of this implementation:
the solver is exact, and the exact answers at the stated truncations
disagree with the expected values (the eigenvalue families involved are
not strongly generic, so the uniqueness theory's hypothesis is not met;
see the diagnostics each failing test prints).  Nothing is special-cased
to force agreement.
"""

import json
import random
import time
import warnings
from fractions import Fraction

import pytest

from affwhit import (
    AffineAlgebra,
    AffineElement,
    C,
    ChevalleyElement,
    D,
    FinVector,
    FiniteSupport,
    Geometric,
    H,
    Recurrence,
    Scaled,
    TensorModule,
    Truncation,
    VACUUM,
    WhittakerModule,
    WhittakerSpec,
    X,
    bracket_fin,
    build_datum,
    cli,
    is_generic,
    is_strongly_generic_set,
    killing,
    member_strong_genericity,
    minimal_annihilator,
    pairing,
    reconstruct,
    size,
    window_rank_check,
)

import oracles

F = Fraction


def act(module, x, v):
    """x . v for an affine element x, one act_gen per generator of x (c
    acts by theta, as act_gen has it)."""
    out = {}
    for g, cg in x.coeffs.items():
        for m, c in module.act_gen(g, v).items():
            out[m] = out.get(m, 0) + cg * c
    return {m: c for m, c in out.items() if c}


A1 = (1,)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(num, ok, detail, t0=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{time.monotonic() - t0:.1f}s]" if t0 is not None else ""
    print(f"\nCRITERION {num:2d}: {status} — {detail}{suffix}")
    return ok


def quiet_spec(*args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return WhittakerSpec(*args, **kw)


def sl2_module():
    return WhittakerModule(quiet_spec(build_datum(2), {A1: Geometric(2)}, theta=1))


def sl3_borel_module():
    lam = {(1, 0): Geometric(2), (0, 1): Geometric(3)}
    return WhittakerModule(quiet_spec(build_datum(3), lam, theta=1))


def sl3_abelian_module():
    lam = {(1, 0): Geometric(2), (1, 1): Geometric(3)}
    return WhittakerModule(quiet_spec(build_datum(3, {2}), lam, theta=1))


def random_gen(rng, datum, with_cd=True):
    roots = sorted(datum.phi)
    r = rng.random()
    if r < 0.6:
        return X(rng.choice(roots), rng.randint(-4, 4))
    if r < 0.85 or not with_cd:
        return H(rng.randint(1, datum.rank), rng.randint(-4, 4))
    return C if r < 0.92 else D


# ---------------------------------------------------------------------------


def test_criterion_01_bracket_soundness():
    t0 = time.monotonic()
    rng = random.Random(101)
    zero = AffineElement({})
    checked = 0
    for datum in (build_datum(2), build_datum(3)):
        alg = AffineAlgebra(datum)
        for _ in range(500):
            x, y, z = (
                AffineElement({random_gen(rng, datum): F(1)}) for _ in range(3)
            )
            assert alg.bracket(x, y) + alg.bracket(y, x) == zero
            jac = (
                alg.bracket(x, alg.bracket(y, z))
                + alg.bracket(y, alg.bracket(z, x))
                + alg.bracket(z, alg.bracket(x, y))
            )
            assert jac == zero
            checked += 1

    # constant-factor cocycle: hunt a degree-sum-zero Jacobi violation
    datum = build_datum(2)
    lit = AffineAlgebra(datum, cocycle="literal")
    violation = None
    for _ in range(400):
        gens = []
        m1, m2 = rng.randint(-3, 3), rng.randint(-3, 3)
        exps = [m1, m2, -(m1 + m2)]
        for m in exps:
            g = random_gen(rng, datum, with_cd=False)
            gens.append(g[:2] + (m,))
        x, y, z = (AffineElement({g: F(1)}) for g in gens)
        jac = (
            lit.bracket(x, lit.bracket(y, z))
            + lit.bracket(y, lit.bracket(z, x))
            + lit.bracket(z, lit.bracket(x, y))
        )
        if not jac == zero:
            violation = (gens, jac)
            break
    elapsed = time.monotonic() - t0
    ok = checked == 1000 and violation is not None and elapsed < 10
    report(
        1,
        ok,
        f"{checked} random triples antisymmetric+Jacobi; literal-cocycle "
        f"violation witness {violation[0] if violation else None}",
        t0,
    )
    assert ok


def test_criterion_02_structure_constant_oracle():
    t0 = time.monotonic()
    rng = random.Random(202)
    pairs = 0
    for n in (2, 3, 4):
        datum = build_datum(n)
        keys = [("X", r) for r in sorted(datum.phi)] + [
            ("H", i) for i in range(1, datum.rank + 1)
        ]

        def rand_elt():
            elt = ChevalleyElement(datum, {})
            for _ in range(rng.randint(1, 3)):
                k = rng.choice(keys)
                c = F(rng.randint(-5, 5), rng.randint(1, 3))
                elt = elt + (
                    datum.X(k[1], c) if k[0] == "X" else datum.H(k[1], c)
                )
            return elt

        for _ in range(200):
            x, y = rand_elt(), rand_elt()
            mx, my = oracles.element_matrix(x), oracles.element_matrix(y)
            assert oracles.element_matrix(bracket_fin(x, y)) == (
                oracles.matrix_bracket(mx, my)
            )
            assert killing(x, y) == oracles.matrix_killing(datum, mx, my)
            pairs += 1
    elapsed = time.monotonic() - t0
    ok = pairs == 600 and elapsed < 5
    report(2, ok, f"{pairs} pairs match matrix-commutator and 2n-trace oracles", t0)
    assert ok


def test_criterion_03_action_compatibility():
    t0 = time.monotonic()
    rng = random.Random(303)
    total = 0
    for make in (sl2_module, sl3_borel_module, sl3_abelian_module):
        module = make()
        datum = module.spec.datum
        gens = module.generators(2)
        alg = module.alg

        def rand_aff():
            terms = {}
            for _ in range(rng.randint(1, 2)):
                c = F(rng.randint(-3, 3), rng.randint(1, 2))
                if c:
                    terms[random_gen(rng, datum)] = c
            return AffineElement(terms)

        for _ in range(500):
            x, y = rand_aff(), rand_aff()
            factors = sorted(
                (rng.choice(gens) for _ in range(rng.randint(0, 2))),
                key=module.gen_key,
            )
            m = []
            for g in factors:
                if m and m[-1][0] == g:
                    m[-1] = (g, m[-1][1] + 1)
                else:
                    m.append((g, 1))
            v = {tuple(m): F(1)}
            lhs = act(module, x, act(module, y, v))
            for mm, c in act(module, y, act(module, x, v)).items():
                s = lhs.get(mm, F(0)) - c
                if s:
                    lhs[mm] = s
                else:
                    lhs.pop(mm, None)
            assert lhs == act(module, alg.bracket(x, y), v)
            total += 1
    elapsed = time.monotonic() - t0
    ok = total == 1500 and elapsed < 60
    report(3, ok, f"{total} commutator-compatibility instances exact", t0)
    assert ok


def test_criterion_04_simplicity_certificates():
    t0 = time.monotonic()
    results = {}
    sl2 = sl2_module()
    results["sl2 (2,2,3)"] = sl2.solve(Truncation(2, 2, 3)).dimension
    results["sl2 (3,2,3)"] = sl2.solve(Truncation(3, 2, 3)).dimension
    borel = sl3_borel_module()
    results["sl3-borel (2,1,2)"] = borel.solve(Truncation(2, 1, 2)).dimension
    abelian = sl3_abelian_module()
    results["sl3-abelian (2,1,2)"] = abelian.solve(Truncation(2, 1, 2)).dimension

    ok = all(d == 1 for d in results.values())
    report(4, ok, f"expected dimension 1 everywhere; got {results}", t0)
    if not ok:
        print(
            "  diagnosis: the eigenvalue families are not strongly generic\n"
            "  (any two distinct-ratio one-sided geometric sequences have\n"
            "  dependent translates via j*a^(-1) - a^(0) = -j*delta_1, and a\n"
            "  single geometric is strongly generic but the sl2 kernel at\n"
            "  J=3 is an imposed-window artifact), so the uniqueness\n"
            "  hypothesis fails where more than one sequence is involved."
        )
        print("  enlarging the condition window J, same (D,E):")
        scans = {
            "sl2 (2,2,J)": (sl2, 2, 2, [3, 4, 5]),
            "sl3-borel (2,1,J)": (borel, 2, 1, [2, 3, 4]),
            "sl3-abelian (2,1,J)": (abelian, 2, 1, [2, 3, 4, 5, 6]),
        }
        for label, (module, D_, E_, js) in scans.items():
            dims = [module.solve(Truncation(D_, E_, j)).dimension for j in js]
            print(f"    {label}: J={js} -> dimensions {dims}")
        print(
            "  sl2 and sl3-borel certify (dimension 1) one window later;\n"
            "  sl3-abelian plateaus at 11: its kernel consists of genuine\n"
            "  Whittaker vectors verified through the action far beyond any\n"
            "  window, so no truncation reaches dimension 1 there."
        )
    assert ok, f"exact dimensions {results} differ from the expected value 1"


def test_criterion_05_loop_only_certificate():
    t0 = time.monotonic()
    spec = quiet_spec(
        build_datum(2), {A1: FiniteSupport({1: 1})}, theta=0, mode="loop_only"
    )
    module = WhittakerModule(spec)
    res = module.solve(Truncation(2, 2, 3))
    elapsed = time.monotonic() - t0
    ok = res.dimension == 1 and res.vectors[0] == {VACUUM: F(1)} and elapsed < 60
    report(
        5,
        ok,
        f"loop-only, generic finite-support eigenvalues: dimension "
        f"{res.dimension} at (2,2,3)",
        t0,
    )
    assert ok


def test_criterion_06_tensor_certificate():
    t0 = time.monotonic()
    d = build_datum(2)
    sa = quiet_spec(d, {A1: Geometric(2)}, theta=1)
    sb = quiet_spec(d, {A1: Geometric(3)}, theta=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tensor = TensorModule(sa, sb)

    vac = ((VACUUM, VACUUM),)
    additivity_ok = True
    for j in range(-5, 6):
        got = tensor.act_gen(X(A1, j), {vac[0]: F(1)})
        target = Geometric(2).entry(j) + Geometric(3).entry(j)
        additivity_ok &= got == ({vac[0]: target} if target else {})
    c_ok = tensor.act_gen(C, {vac[0]: F(1)}) == {vac[0]: F(3)}

    res = tensor.solve(Truncation(1, 1, 2))
    ok = additivity_ok and c_ok and res.dimension == 1
    report(
        6,
        ok,
        f"eigenvalue additivity on [-5,5] {'holds' if additivity_ok else 'FAILS'}, "
        f"c acts by 3 {'holds' if c_ok else 'FAILS'}; dimension {res.dimension} "
        f"at (1,1,2), expected 1",
        t0,
    )
    if not ok:
        dims = [tensor.solve(Truncation(1, 1, j)).dimension for j in (2, 3, 4, 5)]
        print(f"  window scan (1,1,J), J=2..5 -> dimensions {dims}")
        print(
            "  the union multiset {a(2), a(3)} is not strongly generic (the\n"
            "  cutoff identity makes their translates dependent), so tensor\n"
            "  uniqueness is not guaranteed; the J=5 kernel of dimension 3\n"
            "  consists of genuine Whittaker vectors (vacuum plus one\n"
            "  shift-built vector per admissible exponent)."
        )
    assert ok, f"tensor dimension {res.dimension} at (1,1,2), expected 1"


def test_criterion_07_nonsimplicity_exploration():
    t0 = time.monotonic()
    d = build_datum(2)
    sa = quiet_spec(d, {A1: Geometric(2)}, theta=1)
    sb = quiet_spec(d, {A1: Scaled(Geometric(2), -1)}, theta=-1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tensor = TensorModule(sa, sb)
    union_failed = not tensor.union_genericity.is_strongly_generic
    warned = any("strongly generic" in str(w.message) for w in caught)

    dims = {}
    for J in (2, 3, 4):
        dims[J] = tensor.solve(Truncation(1, 1, J)).dimension
    found_multiplicity = any(v >= 2 for v in dims.values())
    elapsed = time.monotonic() - t0
    ok = union_failed and warned and found_multiplicity and elapsed < 600
    report(
        7,
        ok,
        f"union strong-genericity fails as expected (reason: "
        f"{tensor.union_genericity.reason.split(':')[0]}), warning emitted; "
        f"dimensions {dims} record multiplicity >= 2",
        t0,
    )
    assert ok


def test_criterion_08_sequence_suite():
    t0 = time.monotonic()
    # Example verdicts
    const = Recurrence(FinVector({0: -1, 1: 1}), [1])
    const_v = is_generic(const)
    delta = FiniteSupport({1: 1})
    delta_generic = is_generic(delta).kind == "generic"
    delta_not_sg = (
        member_strong_genericity(delta).kind == "not_strongly_generic"
    )
    examples_ok = (
        const_v.kind == "not_generic"
        and const_v.witness is not None
        and delta_generic
        and delta_not_sg
    )

    # every nonzero finite-support sequence must be generic
    rng = random.Random(808)
    generic_count = 0
    for _ in range(500):
        entries = {}
        for _ in range(rng.randint(1, 6)):
            entries[rng.randint(-8, 8)] = F(rng.randint(-9, 9), rng.randint(1, 5))
        fin = FiniteSupport({i: c for i, c in entries.items() if c})
        if fin.is_zero():
            continue
        assert is_generic(fin).kind == "generic"
        generic_count += 1

    # window evidence for the three-geometric family
    info = window_rank_check(
        [Geometric(2), Geometric(3), Geometric(F(5, 2))], 6, 20, True
    )
    window_ok = info.full_rank
    ok = examples_ok and generic_count > 450 and window_ok
    report(
        8,
        ok,
        f"example verdicts {'exact' if examples_ok else 'WRONG'}; "
        f"{generic_count} nonzero finite supports generic; window rank "
        f"{info.rank}/{info.count} over {info.ncols} coordinates "
        f"(full rank expected)",
        t0,
    )
    if not window_ok:
        print(
            "  diagnosis: the translate family is exactly dependent.  For\n"
            "  each ordered pair of distinct ratios (j, j') the combination\n"
            "  j'*(j*a^(-s-1) - a^(-s)) - j*(j'*b^(-s-1) - b^(-s)) vanishes\n"
            "  identically (cutoff identity; the delta residues cancel),\n"
            "  giving 12 relations per independent pair inside |s| <= 6,\n"
            "  and 24 independent relations among the 42 rows: exact rank\n"
            f"  {info.rank} = 42 - 24.  A full-rank certificate is\n"
            "  impossible at any window size."
        )
    assert ok, f"window rank {info.rank}/{info.count}: the family is dependent"


def test_criterion_09_annihilator_suite():
    t0 = time.monotonic()
    v = FinVector({0: -1, 1: -1, 2: 1})  # v_2 - v_1 - v_0
    fib = reconstruct(v, [0, 1])
    expected = {}
    a, b = 0, 1
    for i in range(11):
        expected[i] = a
        a, b = b, a + b
    a, b = 0, 1
    for i in range(0, -11, -1):
        expected[i] = a
        a, b = b - a, a
    match = all(fib.entry(i) == expected[i] for i in range(-10, 11))

    sizes_ok = (
        size(fib) == 2
        and size(Recurrence(FinVector({0: -1, 1: 1}), [7])) == 1
        and size(FiniteSupport({})) == 0
    )
    pairings_ok = all(
        pairing(minimal_annihilator(fib).translate(n), fib) == 0
        for n in range(-10, 9)
    )
    elapsed = time.monotonic() - t0
    ok = match and sizes_ok and pairings_ok and elapsed < 5
    report(
        9,
        ok,
        "reconstructed recurrence matches two-sided Fibonacci on [-10,10]; "
        "sizes 2/1/0; all annihilation pairings exactly 0",
        t0,
    )
    assert ok


def test_criterion_10_cli_contract(tmp_path, capsys):
    t0 = time.monotonic()
    module_presets = {
        "sl2": 2,  # dimension 3 at the preset truncation
        "sl3-borel": 2,  # dimension 3
        "sl3-abelian": 2,  # dimension 34
        "sl2-loop": 0,  # dimension 1
        "sl2-const": 2,  # dimension 2
    }
    tensor_presets = {"tensor-sl2": 2, "tensor-sl2-neg": 2}
    ok = True
    notes = []
    for name, want in module_presets.items():
        outs = []
        for k in range(2):
            path = tmp_path / f"{name}-{k}.json"
            code = cli.main(["whittaker", "--preset", name, "--out", str(path)])
            outs.append(capsys.readouterr().out)
            if code != want:
                ok = False
                notes.append(f"{name}: exit {code} != {want}")
        if outs[0] != outs[1]:
            ok = False
            notes.append(f"{name}: stdout not deterministic")
        r1 = json.loads((tmp_path / f"{name}-0.json").read_text())
        r2 = json.loads((tmp_path / f"{name}-1.json").read_text())
        r1.pop("timing"), r2.pop("timing")
        if r1 != r2:
            ok = False
            notes.append(f"{name}: JSON not deterministic modulo timing")
        if (r1["dimension"] == 1) != (want == 0):
            ok = False
            notes.append(f"{name}: exit code does not match dimension")
    for name, want in tensor_presets.items():
        code = cli.main(["tensor", "--preset", name])
        capsys.readouterr()
        if code != want:
            ok = False
            notes.append(f"{name}: exit {code} != {want}")
    for args in (
        ["describe", "--preset", "geo-family"],  # no algebra in config
        ["whittaker", "--preset", "no-such-preset"],
        ["bracket", "zzz", "d", "--preset", "sl2"],
    ):
        code = cli.main(args)
        capsys.readouterr()
        if code != 1:
            ok = False
            notes.append(f"{args}: expected exit 1, got {code}")
    code = cli.main(["check-seq", "--preset", "geo-family"])
    capsys.readouterr()
    if code != 0:
        ok = False
        notes.append("check-seq should exit 0")
    with capsys.disabled():
        report(
            10,
            ok,
            "exit codes track dimensions over every preset; reports "
            "byte-deterministic modulo the JSON timing field"
            + (f"; issues: {notes}" if notes else ""),
            t0,
        )
    assert ok, notes
