"""Command-line experiment runner.

Subcommands
-----------
describe    print the root combinatorics and generator order of an algebra
check-seq   genericity verdicts and window-rank evidence for sequences
whittaker   solve the truncated Whittaker-vector system of one module
tensor      solve the system on a tensor product of two modules
bracket     one-shot bracket calculator for two affine generators

Configuration comes from ``--preset NAME`` or ``--config FILE`` (UTF-8
JSON, same schema as the presets); ``-D/-E/-J``, ``--mode`` and
``--cocycle`` override individual fields.  ``--out FILE`` writes the
machine-readable JSON report; stdout carries the human-readable one.
Reports are byte-identical across runs for a fixed config, except for
the ``timing`` field of the JSON report.

Exit codes: 0 = success (for the solvers: unique Whittaker vector),
2 = solver found multiplicity (dimension > 1), 1 = any error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Optional

from . import presets as presets_mod
from .affine import AffineAlgebra, AffineElement, gen_str, parse_gen
from .engine import (
    TensorModule,
    Truncation,
    WhittakerModule,
    WhittakerSpec,
    element_str,
    mono_str,
    ordered_generators,
    pair_str,
)
from .rootdata import build_datum, root_str
from .seqspace import (
    as_scalar,
    is_generic,
    is_strongly_generic_set,
    minimal_annihilator,
    sequence_from_literal,
    sequence_str,
    size,
    window_rank_check,
)

_LABEL_RE = re.compile(r"^a(\d+)$")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def parse_root_label(label: str, rank: int) -> tuple:
    """'a1+a2' -> (1, 1, 0, ...) over the simple-root coordinates."""
    coeffs = [0] * rank
    for token in str(label).replace(" ", "").split("+"):
        m = _LABEL_RE.match(token)
        if not m:
            raise ConfigError(
                f"cannot parse root label {label!r} (expected e.g. 'a1' or 'a1+a2')"
            )
        idx = int(m.group(1))
        if not 1 <= idx <= rank:
            raise ConfigError(f"simple root index {idx} out of range 1..{rank}")
        coeffs[idx - 1] += 1
    return tuple(coeffs)


def require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def config_int(value, what: str) -> int:
    """An integer field: a JSON integer or a string of one, never a bool or
    a float (``int`` would truncate 2.5 to 2 and read true as 1)."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            return require_object(json.load(fh), "config")
    if getattr(args, "preset", None):
        return presets_mod.get_preset(args.preset)
    raise ConfigError("one of --preset or --config is required")


def resolve_mode(value: Optional[str]) -> Optional[str]:
    if value is None:
        return None
    return {"affine": "affine", "loop-only": "loop_only", "loop_only": "loop_only"}[
        value
    ]


def build_algebra(alg_cfg: dict):
    require_object(alg_cfg, "algebra")
    if alg_cfg.get("type") != "A":
        raise ConfigError(f"unsupported algebra type {alg_cfg.get('type')!r}")
    rank = config_int(alg_cfg.get("rank", 0), "rank")
    if rank < 1:
        raise ConfigError("rank must be a positive integer")
    levi_cfg = require_list(alg_cfg.get("levi", []), "levi")
    levi = {config_int(i, "levi entry") for i in levi_cfg}
    return build_datum(rank + 1, levi)


def build_spec(cfg: dict, mode_override=None, cocycle_override=None) -> WhittakerSpec:
    require_object(cfg, "module config")
    datum = build_algebra(cfg.get("algebra", {}))
    lam = {}
    for label, literal in require_object(cfg.get("lam", {}), "lam").items():
        root = parse_root_label(label, datum.rank)
        lam[root] = sequence_from_literal(literal)
    try:
        theta = as_scalar(cfg.get("theta", "0"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"theta: {exc}") from None
    mode = resolve_mode(mode_override) or cfg.get("mode", "affine")
    cocycle = cocycle_override or cfg.get("cocycle", "standard")
    return WhittakerSpec(datum, lam, theta=theta, mode=mode, cocycle=cocycle)


def truncation_field(cfg: dict, args, name: str) -> int:
    """-D/-E/-J from the command line, else the config's truncation entry."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    t = require_object(cfg.get("truncation", {}), "truncation")
    return config_int(t.get(name, 1), f"truncation {name}")


def resolve_truncation(cfg: dict, args) -> Truncation:
    return Truncation(*(truncation_field(cfg, args, name) for name in "DEJ"))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def emit(report: dict, lines, out_path: Optional[str]) -> None:
    for line in lines:
        print(line)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def vector_json(vec, render) -> list:
    return [[str(c), render(m)] for m, c in vec.items()]


def verdict_json(v) -> dict:
    out = {"kind": v.kind, "reason": getattr(v, "reason", "")}
    witness = getattr(v, "witness", None)
    if witness is not None:
        out["witness"] = repr(witness)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_describe(args) -> int:
    cfg = load_config(args)
    if "algebra" not in cfg and "left" in cfg:
        cfg = require_object(cfg["left"], "left")
    datum = build_algebra(cfg.get("algebra", {}))
    mode = resolve_mode(args.mode) or cfg.get("mode", "affine")
    E = truncation_field(cfg, args, "E")
    if E < 0:
        raise ConfigError(f"E must be nonnegative, got {E}")
    gens = ordered_generators(datum, E, loop_only=(mode == "loop_only"))

    def by_height(roots):
        def key(r):
            support = [i for i, c in enumerate(r) if c]
            return (sum(r), support[0] if support else -1, r)

        return sorted(roots, key=key)

    strata = [[root_str(r) for r in by_height(layer)] for layer in datum.strata]
    report = {
        "command": "describe",
        "algebra": {"type": "A", "rank": datum.rank, "levi": sorted(datum.levi)},
        "phi": [root_str(r) for r in by_height(datum.phi)],
        "phi_n": [root_str(r) for r in by_height(datum.phi_n)],
        "phi_n0": [root_str(r) for r in by_height(datum.phi_n0)],
        "phi_n1": [root_str(r) for r in by_height(datum.phi_n1)],
        "strata": strata,
        "generator_order": [gen_str(g) for g in gens],
        "mode": mode,
    }
    lines = [
        f"algebra: sl({datum.n}) affine, levi = {sorted(datum.levi)}, mode = {mode}",
        f"Phi_n   : {', '.join(report['phi_n'])}",
        f"Phi^0_n : {', '.join(report['phi_n0'])}",
        f"Phi^1_n : {', '.join(report['phi_n1'])}",
    ]
    for k, layer in enumerate(strata):
        lines.append(f"stratum X_{k}: {', '.join(layer)}")
    lines.append(f"module generators (|exponent| <= {E}), ascending:")
    for g in gens:
        lines.append(f"  {gen_str(g)}")
    emit(report, lines, args.out)
    return 0


def cmd_check_seq(args) -> int:
    cfg = load_config(args)
    literals = require_list(cfg.get("sequences", []), "sequences")
    seqs = [sequence_from_literal(lit) for lit in literals]
    S = config_int(cfg.get("S", 6), "S")
    W = config_int(cfg.get("W", 20), "W")
    include_weighted = cfg.get("weighted", True)
    if not isinstance(include_weighted, bool):
        raise ConfigError(f"weighted must be true or false, got {include_weighted!r}")
    per_seq = []
    lines = [f"sequences: {len(seqs)}   shift bound S={S}, window W={W}, "
             f"weighted rows {'on' if include_weighted else 'off'}"]
    for i, s in enumerate(seqs):
        v = is_generic(s)
        entry = {"sequence": sequence_str(s), "genericity": verdict_json(v)}
        line = f"  [{i}] {sequence_str(s)}: {v.kind}"
        if v.kind == "not_generic":
            ann = minimal_annihilator(s)
            sz = size(s)
            entry["size"] = sz
            entry["minimal_annihilator"] = repr(ann)
            line += f" (witness {ann!r}, size {sz})"
        per_seq.append(entry)
        lines.append(line)
    set_verdict = is_strongly_generic_set(seqs)
    lines.append(f"set verdict: {set_verdict.kind}" +
                 (f" ({set_verdict.reason})" if set_verdict.reason else ""))
    rank_info = window_rank_check(seqs, S, W, include_weighted)
    lines.append(
        f"window rank: {rank_info.rank} of {rank_info.count} rows "
        f"({2 * W + 1} coordinates): "
        f"{'full rank' if rank_info.full_rank else 'rank-deficient'}"
    )
    report = {
        "command": "check-seq",
        "config": cfg,
        "per_sequence": per_seq,
        "set_verdict": verdict_json(set_verdict),
        "window_rank": {
            "full_rank": rank_info.full_rank,
            "rank": rank_info.rank,
            "count": rank_info.count,
            "ncols": rank_info.ncols,
        },
    }
    emit(report, lines, args.out)
    return 0


def _solve_report(command, cfg, trunc, result, genericity, render, extra=None):
    report = {
        "command": command,
        "config": cfg,
        "truncation": {"D": trunc.D, "E": trunc.E, "J": trunc.J},
        "genericity": verdict_json(genericity),
        "basis_size": result.basis_size,
        "condition_count": result.condition_count,
        "row_count": result.row_count,
        "dimension": result.dimension,
        "vectors": [vector_json(v, render) for v in result.vectors],
    }
    if extra:
        report.update(extra)
    lines = [
        f"truncation: D={trunc.D} E={trunc.E} J={trunc.J}",
        f"basis size {result.basis_size}, {result.condition_count} conditions, "
        f"{result.row_count} rows",
        f"eigenvalue family: {genericity.kind}"
        + (f" ({genericity.reason})" if genericity.reason else ""),
        f"dimension: {result.dimension}",
    ]
    for v in result.vectors:
        lines.append(f"  {element_str(v, render=render)}")
    return report, lines


def cmd_whittaker(args) -> int:
    cfg = load_config(args)
    spec = build_spec(cfg, args.mode, args.cocycle)
    trunc = resolve_truncation(cfg, args)
    module = WhittakerModule(spec)
    t0 = time.monotonic()
    result = module.solve(trunc)
    dt = time.monotonic() - t0
    report, lines = _solve_report(
        "whittaker", cfg, trunc, result, spec.genericity, mono_str
    )
    report["timing"] = dt
    emit(report, lines, args.out)
    return 0 if result.dimension == 1 else 2


def cmd_tensor(args) -> int:
    cfg = load_config(args)
    if "left" not in cfg or "right" not in cfg:
        raise ConfigError("tensor config needs 'left' and 'right' module configs")
    spec_a = build_spec(cfg["left"], args.mode, args.cocycle)
    spec_b = build_spec(cfg["right"], args.mode, args.cocycle)
    trunc = resolve_truncation(cfg, args)
    module = TensorModule(spec_a, spec_b)
    t0 = time.monotonic()
    result = module.solve(trunc)
    dt = time.monotonic() - t0
    additivity = []
    vac = {((), ()): Fraction(1)}
    ok = True
    for root in module.left.condition_roots():
        in_phi0 = root in spec_a.datum.phi_n0
        for j in range(-5, 6):
            target = module.lam_sum(root, j) if in_phi0 else Fraction(0)
            img = module.act_gen(("X", root, j), vac)
            good = img == ({((), ()): target} if target else {})
            ok = ok and good
            additivity.append(
                {"root": root_str(root), "j": j, "target": str(target), "ok": good}
            )
    extra = {
        "union_genericity": verdict_json(module.union_genericity),
        "eigenvalue_additivity_ok": ok,
        "theta_sum": str(module.theta),
    }
    report, lines = _solve_report(
        "tensor", cfg, trunc, result, module.union_genericity, pair_str, extra
    )
    report["eigenvalue_additivity"] = additivity
    report["timing"] = dt
    lines.insert(
        3,
        f"eigenvalue additivity on j in [-5,5]: {'ok' if ok else 'FAILED'}; "
        f"c acts as {module.theta}",
    )
    emit(report, lines, args.out)
    return 0 if result.dimension == 1 else 2


def cmd_bracket(args) -> int:
    cfg = load_config(args)
    if "algebra" not in cfg and "left" in cfg:
        cfg = require_object(cfg["left"], "left")
    datum = build_algebra(cfg.get("algebra", {}))
    mode = resolve_mode(args.mode) or cfg.get("mode", "affine")
    cocycle = args.cocycle or cfg.get("cocycle", "standard")
    alg = AffineAlgebra(datum, cocycle=cocycle, loop_only=(mode == "loop_only"))
    g1 = parse_gen(args.gen1, datum)
    g2 = parse_gen(args.gen2, datum)
    alg.validate_gen(g1)
    alg.validate_gen(g2)
    elt = AffineElement(alg.bracket_gens(g1, g2))
    text = repr(elt)
    report = {
        "command": "bracket",
        "gen1": gen_str(g1),
        "gen2": gen_str(g2),
        "cocycle": cocycle,
        "mode": mode,
        "bracket": text,
    }
    emit(report, [f"[{gen_str(g1)}, {gen_str(g2)}] = {text}"], args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, truncation=True):
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument(
        "--preset",
        help=f"named built-in config ({', '.join(presets_mod.preset_names())})",
    )
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--mode", choices=["affine", "loop-only"], default=None)
    p.add_argument("--cocycle", choices=["standard", "literal"], default=None)
    if truncation:
        p.add_argument("-D", type=int, default=None, help="max monomial degree")
        p.add_argument("-E", type=int, default=None, help="max |t-exponent|")
        p.add_argument("-J", type=int, default=None, help="condition window [-J, J]")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affwhit",
        description="Exact Whittaker-module computations for affine type-A algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="root combinatorics and generator order")
    _add_common(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("check-seq", help="genericity verdicts and window ranks")
    _add_common(p, truncation=False)
    p.set_defaults(func=cmd_check_seq)

    p = sub.add_parser("whittaker", help="solve the truncated Whittaker system")
    _add_common(p)
    p.set_defaults(func=cmd_whittaker)

    p = sub.add_parser("tensor", help="solve the system on a tensor product")
    _add_common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("bracket", help="bracket of two affine generators")
    p.add_argument("gen1", help="generator literal, e.g. 'X[1]@t^2' or 'H[1]@t^0'")
    p.add_argument("gen2", help="generator literal, e.g. 'X[-1]@t^-2' or 'd'")
    _add_common(p, truncation=False)
    p.set_defaults(func=cmd_bracket)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
