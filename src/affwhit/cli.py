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

A warning the library raises (a genericity check that fails or cannot
decide) is printed on stderr as one ``warning: <message>`` line, with
no source path, so stderr does not depend on where the package lives.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
import warnings
from fractions import Fraction
from typing import Optional

from . import presets as presets_mod
from .affine import COCYCLE_MODES, AffineAlgebra, AffineElement, gen_str, parse_gen
from .engine import (
    MODES,
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
    is_generic,  # not called here; perfbench/tracing.py wraps cli.is_generic
    is_strongly_generic_set,
    member_record,
    minimal_annihilator,  # not called here; perfbench/tracing.py wraps it
    sequence_from_literal,
    sequence_str,
    size,  # not called here; perfbench/tracing.py wraps cli.size
    window_rank_check,
)

_LABEL_RE = re.compile(r"^a(\d+)$")

# size bounds, checked before the work they bound starts; each admits every
# preset, golden and benchmark rung (largest: rank 3, the 6,084 pairs of the
# tensor goldens at D = E = 2, J = 6, 6 sequences, S = 16 and W = 64)
MAX_RANK = 16
MAX_BASIS = 10000
MAX_J = 100
MAX_EXPONENT = 100
MAX_SEQUENCES = 32
MAX_SHIFT = 32
MAX_WINDOW = 128


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
    """An integer field: a JSON integer or a string of one, never a bool, a
    float or a string with a digit separator (``int`` would truncate 2.5
    to 2, read true as 1 and "1_0" as 10)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str) and "_" not in value:
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except RecursionError:
                raise ConfigError(f"config {args.config} nests too deeply") from None
        return require_object(cfg, "config")
    if getattr(args, "preset", None):
        return presets_mod.get_preset(args.preset)
    raise ConfigError("one of --preset or --config is required")


def build_algebra(alg_cfg: dict):
    require_object(alg_cfg, "algebra")
    if alg_cfg.get("type") != "A":
        raise ConfigError(f"unsupported algebra type {alg_cfg.get('type')!r}")
    rank = config_int(alg_cfg.get("rank", 0), "rank")
    if rank < 1:
        raise ConfigError("rank must be a positive integer")
    if rank > MAX_RANK:
        raise ConfigError(f"rank {rank} exceeds the bound {MAX_RANK}")
    levi_cfg = require_list(alg_cfg.get("levi", []), "levi")
    levi = {config_int(i, "levi entry") for i in levi_cfg}
    return build_datum(rank + 1, levi)


def module_datum(cfg: dict):
    """The root datum of a module config's ``algebra`` field."""
    require_object(cfg, "module config")
    if "algebra" not in cfg:
        hint = ""
        if "left" in cfg and "right" in cfg:
            hint = "; this is a tensor config, run it with 'affwhit tensor'"
        raise ConfigError(f"module config needs 'algebra'{hint}")
    return build_algebra(cfg["algebra"])


def mode_and_cocycle(cfg: dict, mode_override=None, cocycle_override=None):
    """(mode, cocycle) of a module config, a command-line override first.

    ``--mode loop-only`` reads as the config value ``loop_only``.  Each is
    checked here with the message :class:`WhittakerSpec` and
    :class:`AffineAlgebra` would give."""
    mode = cfg.get("mode", "affine")
    if mode_override:
        mode = mode_override.replace("-", "_")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    cocycle = cocycle_override or cfg.get("cocycle", "standard")
    if cocycle not in COCYCLE_MODES:
        raise ConfigError(f"cocycle must be one of {COCYCLE_MODES}, got {cocycle!r}")
    return mode, cocycle


def algebra_config(cfg: dict, mode_override=None, cocycle_override=None):
    """(module config, root datum, mode, cocycle) for ``describe`` and
    ``bracket``; a tensor config stands for its left factor."""
    if "algebra" not in cfg and "left" in cfg:
        cfg = require_object(cfg["left"], "left")
    datum = module_datum(cfg)
    return (cfg, datum) + mode_and_cocycle(cfg, mode_override, cocycle_override)


def build_spec(cfg: dict, mode_override=None, cocycle_override=None) -> WhittakerSpec:
    datum = module_datum(cfg)
    lam, labels = {}, {}
    for label, literal in require_object(cfg.get("lam", {}), "lam").items():
        root = parse_root_label(label, datum.rank)
        if root in labels:
            raise ConfigError(
                f"lam keys {labels[root]!r} and {label!r} name one root {root_str(root)}"
            )
        labels[root] = label
        lam[root] = sequence_from_literal(literal)
    try:
        theta = as_scalar(cfg.get("theta", "0"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"theta: {exc}") from None
    mode, cocycle = mode_and_cocycle(cfg, mode_override, cocycle_override)
    return WhittakerSpec(datum, lam, theta=theta, mode=mode, cocycle=cocycle)


def truncation_field(cfg: dict, args, name: str) -> int:
    """-D/-E/-J from the command line, else the config's truncation entry."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    t = require_object(cfg.get("truncation", {}), "truncation")
    return config_int(t.get(name, 1), f"truncation {name}")


def resolve_truncation(cfg: dict, args) -> Truncation:
    trunc = Truncation(*(truncation_field(cfg, args, name) for name in "DEJ"))
    if trunc.J > MAX_J:
        raise ConfigError(f"condition window J={trunc.J} exceeds the bound {MAX_J}")
    return trunc


def check_basis_size(specs, trunc: Truncation) -> None:
    """ConfigError, before any basis is built, when the basis at ``trunc``
    has more than ``MAX_BASIS`` monomials.

    A module with G generators of |exponent| <= E has C(G + D, D)
    standard monomials of degree <= D; a tensor basis is the product of
    its factors' sizes.  The binomial is built up one degree at a time
    and stops once past the bound, so a huge D or E costs nothing."""
    size = 1
    for spec in specs:
        datum = spec.datum
        gens = len(datum.phi) - len(datum.phi_n) + datum.rank
        gens = gens * (2 * trunc.E + 1) + (not spec.loop_only)
        count = 1  # C(gens + k, k)
        for k in range(1, trunc.D + 1):
            count = count * (gens + k) // k
            if size * count > MAX_BASIS:
                break
        size *= count
        if size > MAX_BASIS:
            raise ConfigError(
                f"basis at D={trunc.D}, E={trunc.E} has more than {MAX_BASIS} monomials"
            )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def emit(report: dict, lines, out_path: Optional[str]) -> None:
    for line in lines:
        print(line)
    if out_path:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    cfg, datum, mode, _ = algebra_config(load_config(args), args.mode, args.cocycle)
    E = truncation_field(cfg, args, "E")
    if E < 0:
        raise ConfigError(f"E must be nonnegative, got {E}")
    if E > MAX_EXPONENT:
        raise ConfigError(f"exponent bound E={E} exceeds the bound {MAX_EXPONENT}")
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
    if "sequences" not in cfg:
        raise ConfigError("check-seq config needs 'sequences'")
    literals = require_list(cfg["sequences"], "sequences")
    if len(literals) > MAX_SEQUENCES:
        raise ConfigError(f"{len(literals)} sequences exceed the bound {MAX_SEQUENCES}")
    seqs = [sequence_from_literal(lit) for lit in literals]
    S = config_int(cfg.get("S", 6), "S")
    W = config_int(cfg.get("W", 20), "W")
    if S > MAX_SHIFT or W > MAX_WINDOW:
        raise ConfigError(
            f"window S={S}, W={W} exceeds the bounds "
            f"S <= {MAX_SHIFT}, W <= {MAX_WINDOW}"
        )
    include_weighted = cfg.get("weighted", True)
    if not isinstance(include_weighted, bool):
        raise ConfigError(f"weighted must be true or false, got {include_weighted!r}")
    per_seq = []
    lines = [f"sequences: {len(seqs)}   shift bound S={S}, window W={W}, "
             f"weighted rows {'on' if include_weighted else 'off'}"]
    # each member is decided once; the lines and both checks read its record
    members = [member_record(s) for s in seqs]
    for i, rec in enumerate(members):
        v = rec.verdict
        entry = {"sequence": sequence_str(rec.seq), "genericity": verdict_json(v)}
        line = f"  [{i}] {sequence_str(rec.seq)}: {v.kind}"
        if v.kind == "not_generic":
            ann = rec.annihilator
            sz = ann.width()
            entry["size"] = sz
            entry["minimal_annihilator"] = repr(ann)
            line += f" (witness {ann!r}, size {sz})"
        per_seq.append(entry)
        lines.append(line)
    set_verdict = is_strongly_generic_set(members)
    lines.append(f"set verdict: {set_verdict.kind}" +
                 (f" ({set_verdict.reason})" if set_verdict.reason else ""))
    rank_info = window_rank_check(members, S, W, include_weighted)
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


def cmd_solve(args) -> int:
    """``whittaker`` and ``tensor``, keyed on ``args.command``: one module
    or the tensor product of the ``left`` and ``right`` modules, solved at
    the truncation; a tensor run also checks that each X_root (x) t^j acts
    on the cyclic vector by the sum of the factors' eigenvalues."""
    cfg = load_config(args)
    tensor = args.command == "tensor"
    if tensor and ("left" not in cfg or "right" not in cfg):
        raise ConfigError("tensor config needs 'left' and 'right' module configs")
    parts = (cfg["left"], cfg["right"]) if tensor else (cfg,)
    specs = [build_spec(part, args.mode, args.cocycle) for part in parts]
    trunc = resolve_truncation(cfg, args)
    check_basis_size(specs, trunc)
    if tensor:
        module = TensorModule(*specs)
        genericity, render = module.union_genericity, pair_str
    else:
        module = WhittakerModule(specs[0])
        genericity, render = specs[0].genericity, mono_str
    t0 = time.monotonic()
    result = module.solve(trunc)
    dt = time.monotonic() - t0
    # each monomial of the vectors rendered, and its sort key built, once
    monos = {m for v in result.vectors for m in v}
    text = {m: render(m) for m in monos}.__getitem__
    key = {m: (len(m), repr(m)) for m in monos}.__getitem__
    report = {
        "command": args.command,
        "config": cfg,
        "truncation": {"D": trunc.D, "E": trunc.E, "J": trunc.J},
        "genericity": verdict_json(genericity),
        "basis_size": result.basis_size,
        "condition_count": result.condition_count,
        "row_count": result.row_count,
        "dimension": result.dimension,
        "vectors": [vector_json(v, text) for v in result.vectors],
    }
    lines = [
        f"truncation: D={trunc.D} E={trunc.E} J={trunc.J}",
        f"basis size {result.basis_size}, {result.condition_count} conditions, "
        f"{result.row_count} rows",
        f"eigenvalue family: {genericity.kind}"
        + (f" ({genericity.reason})" if genericity.reason else ""),
        f"dimension: {result.dimension}",
    ]
    if tensor:
        additivity, vac = [], {((), ()): Fraction(1)}
        for root in module.condition_roots():
            for j in range(-5, 6):
                target = module.lam_sum(root, j)
                img = module.act_gen(("X", root, j), vac)
                good = img == ({((), ()): target} if target else {})
                additivity.append(
                    {"root": root_str(root), "j": j, "target": str(target), "ok": good}
                )
        ok = all(a["ok"] for a in additivity)
        report.update(
            union_genericity=verdict_json(genericity),
            eigenvalue_additivity_ok=ok,
            theta_sum=str(module.theta),
            eigenvalue_additivity=additivity,
        )
        lines.insert(
            3,
            f"eigenvalue additivity on j in [-5,5]: {'ok' if ok else 'FAILED'}; "
            f"c acts as {module.theta}",
        )
    lines += [f"  {element_str(v, render=text, key=key)}" for v in result.vectors]
    report["timing"] = dt
    emit(report, lines, args.out)
    return 0 if result.dimension == 1 else 2


def cmd_bracket(args) -> int:
    cfg, datum, mode, cocycle = algebra_config(
        load_config(args), args.mode, args.cocycle
    )
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


def flag_int(text: str) -> int:
    """A -D, -E or -J flag value, read by the rule of :func:`config_int` (so
    "1_0" is refused); argparse turns the error into a usage error."""
    try:
        return config_int(text, "flag")
    except ConfigError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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
        p.add_argument("-D", type=flag_int, default=None, help="max monomial degree")
        p.add_argument("-E", type=flag_int, default=None, help="max |t-exponent|")
        p.add_argument("-J", type=flag_int, default=None, help="condition window [-J, J]")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, and each command looks up the module's names when run."""
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
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tensor", help="solve the system on a tensor product")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bracket", help="bracket of two affine generators")
    p.add_argument("gen1", help="generator literal, e.g. 'X[1]@t^2' or 'H[1]@t^0'")
    p.add_argument("gen2", help="generator literal, e.g. 'X[-1]@t^-2' or 'd'")
    _add_common(p, truncation=False)
    p.set_defaults(func=cmd_bracket)

    return parser


def _plain_warning(message, category, filename, lineno, file=None, line=None):
    """``warnings.showwarning`` for the CLI: one line, no source path."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # the caller's showwarning comes back on exit
        warnings.showwarning = _plain_warning
        try:
            return args.func(args)
        except (ConfigError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            # str() of a KeyError is the repr of its argument; print the message
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
