"""Correctness gate: every attempted operation is checked, outside the timed region.

An operation fails when it raises, exits 1 or with the wrong solver exit
code, reports a dimension other than the recorded one, returns a kernel
vector that fails exact re-verification or a set of vectors that is not
linearly independent, prints other vectors than its JSON report holds,
reports a window rank or verdict other than the
recorded one, or (on seed 0) prints stdout whose SHA-256 differs from the
one recorded at the commit that defined the benchmark.

Re-verification is exact and uses a fresh module, so it shares no memo
with the run that produced the vectors: for every condition (root, j) of
the window, ``act_gen(X_root (x) t^j, v)`` must equal ``lambda_j * v``.
The first pass of a run is checked in full; later passes of the same
operation must reproduce the first pass's output digest exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from fractions import Fraction

from affwhit.affine import parse_gen
from affwhit.engine import element_str, mono_str, pair_str
from ops import build_module

_FACTOR = re.compile(r"\(([^()]+)\)(?:\^(\d+))?")
_RANK = re.compile(r"^window rank: (\d+) of (\d+) rows")
_MEMBER = re.compile(r"^  \[(\d+)\] .*: (\w+)(?: \(witness .*)?$")
_SET = re.compile(r"^set verdict: (\w+)")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_mono(text, datum):
    """Inverse of ``engine.mono_str``; raises ValueError on anything else."""
    if text == "1":
        return ()
    mono = tuple(
        (parse_gen(m.group(1), datum), int(m.group(2) or 1))
        for m in _FACTOR.finditer(text)
    )
    if mono_str(mono) != text:
        raise ValueError(f"unparsable monomial {text!r}")
    return mono


def parse_vector(entries, datum, tensor):
    vec = {}
    for coeff, label in entries:
        if tensor:
            left, right = label.split(" (x) ")
            key = (parse_mono(left, datum), parse_mono(right, datum))
        else:
            key = parse_mono(label, datum)
        vec[key] = Fraction(coeff)
    return vec


def independent(vectors) -> bool:
    """Exact linear independence of sparse vectors, by Gaussian elimination."""
    pivots = []  # (key, row) with row[key] == 1, reduced against earlier pivots
    for vec in vectors:
        row = dict(vec)
        for key, prow in pivots:
            c = row.get(key)
            if c:
                for k, v in prow.items():
                    s = row.get(k, 0) - c * v
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
        if not row:
            return False
        key = next(iter(row))
        inv = 1 / Fraction(row[key])
        pivots.append((key, {k: v * inv for k, v in row.items()}))
    return True


def fresh_module(cfg, tensor):
    """``ops.build_module`` with the genericity warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_module(cfg, tensor)


def whittaker_violation(module, tensor, J, vectors):
    """First (root, j) condition some vector violates, or None."""
    base = module.left if tensor else module
    for root in base.condition_roots():
        for j in range(-J, J + 1):
            target = module.lam_sum(root, j) if tensor else base.spec.vacuum_scalar(root, j)
            g = ("X", root, j)
            for vec in vectors:
                want = {m: target * c for m, c in vec.items()} if target else {}
                if module.act_gen(g, vec) != want:
                    return root, j
    return None


def check_vectors(module, tensor, J, dim, vectors):
    """Failure reason for a solver answer, or None."""
    if len(vectors) != dim:
        return f"{len(vectors)} vectors for dimension {dim}"
    if not independent(vectors):
        return "kernel vectors are linearly dependent"
    bad = whittaker_violation(module, tensor, J, vectors)
    if bad is not None:
        return f"a kernel vector fails the condition (root {bad[0]}, j={bad[1]})"
    return None


def solver_answer(op, raw, verify):
    """(digest text, stdout, failure reason) of a whittaker/tensor op."""
    if raw.error:
        return "", "", raw.error
    try:
        with open(raw.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(raw.report_path)
    except (OSError, ValueError) as exc:
        return raw.stdout, raw.stdout, f"no JSON report: {exc}"
    report.pop("timing", None)
    text = raw.stdout + json.dumps(report, sort_keys=True)
    if not verify:
        return text, raw.stdout, None
    tensor = op["kind"] == "tensor"
    dim = op["expect"]
    want_rc = 0 if dim == 1 else 2
    if raw.rc != want_rc:
        return text, raw.stdout, f"exit {raw.rc}, expected {want_rc}"
    if report.get("dimension") != dim:
        return text, raw.stdout, f"dimension {report.get('dimension')}, expected {dim}"
    if f"dimension: {dim}\n" not in raw.stdout:
        return text, raw.stdout, f"stdout lacks the line 'dimension: {dim}'"
    cfg = op["config"]
    module = fresh_module(cfg, tensor)
    datum = (module.left if tensor else module).spec.datum
    try:
        vectors = [parse_vector(v, datum, tensor) for v in report["vectors"]]
    except (KeyError, ValueError) as exc:
        return text, raw.stdout, f"unreadable kernel vector: {exc}"
    lines = raw.stdout.splitlines()
    start = lines.index(f"dimension: {dim}") + 1
    render = pair_str if tensor else mono_str
    if lines[start:start + dim] != [f"  {element_str(v, render=render)}" for v in vectors]:
        return text, raw.stdout, "stdout and JSON report give different vectors"
    J = cfg["truncation"]["J"]
    return text, raw.stdout, check_vectors(module, tensor, J, dim, vectors)


def solve_answer(op, raw, verify):
    """(digest text, failure reason) of a solve op of a J-scan."""
    res = raw.result
    if raw.error or res is None:
        return "", raw.error or "no result"
    render = pair_str if op["tensor"] else mono_str
    text = f"dimension: {res.dimension}\n" + "".join(
        element_str(v, render=render) + "\n" for v in res.vectors
    )
    if not verify:
        return text, None
    if res.dimension != op["expect"]:
        return text, f"dimension {res.dimension}, expected {op['expect']}"
    module = fresh_module(op["config"], op["tensor"])
    return text, check_vectors(module, op["tensor"], op["J"], op["expect"], res.vectors)


def check_seq_answer(op, raw):
    if raw.error:
        return raw.error
    if raw.rc != 0:
        return f"exit {raw.rc}"
    exp = op["expect"]
    kinds, set_kind, rank = [], None, None
    for line in raw.stdout.splitlines():
        if _MEMBER.match(line):
            kinds.append(_MEMBER.match(line).group(2))
        elif _SET.match(line):
            set_kind = _SET.match(line).group(1)
        elif _RANK.match(line):
            rank = tuple(int(x) for x in _RANK.match(line).groups())
    if rank != (exp["rank"], exp["rows"]):
        return f"window rank {rank}, expected {(exp['rank'], exp['rows'])}"
    if kinds != exp["kinds"] or set_kind != exp["set"]:
        return f"verdicts {kinds}/{set_kind}, expected {exp['kinds']}/{exp['set']}"
    return None


class Gate:
    """Counts attempted and failed operations over a run."""

    def __init__(self, recorded=None):
        self.recorded = recorded  # op key -> stdout SHA-256 on seed 0, else None
        self.first = {}  # op key -> (digest, ok) from the first checked pass
        self.attempted = 0
        self.failed = 0
        self.warnings = 0  # genericity UserWarnings captured inside ops
        self.reasons = []

    def _count(self, key, text, stdout, reason, full):
        digest = sha256(text)
        if full:
            if reason is None and self.recorded is not None:
                if self.recorded.get(key) != sha256(stdout):
                    reason = "stdout differs from the recorded seed-0 digest"
            self.first[key] = (digest, reason is None)
        elif reason is None:
            first_digest, first_ok = self.first[key]
            if digest != first_digest:
                reason = "output differs from the first pass"
            elif not first_ok:
                reason = "same wrong output as the first pass"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{key}: {reason}")

    def check(self, op, raw):
        """Count the op's answers; a first pass is checked in full."""
        self.warnings += raw.warnings
        full = op["id"] not in self.first
        if op["kind"] == "solve":  # an API call: the rendered result stands for stdout
            text, reason = solve_answer(op, raw, verify=full)
            self._count(op["id"], text, text, reason, full)
        elif op["kind"] == "check-seq":
            reason = check_seq_answer(op, raw) if full else raw.error
            self._count(op["id"], raw.stdout, raw.stdout, reason, full)
        else:
            text, stdout, reason = solver_answer(op, raw, verify=full)
            self._count(op["id"], text, stdout, reason, full)
