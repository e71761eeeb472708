"""Dispatch lint: seqspace decides every verdict from one normal form.

The decision functions of ``seqspace`` read a sequence only through its
tail normal form ``_tails(s)`` and its entries; ``_tails`` is the one
place that asks a sequence its class.  The module is parsed with
``ast``, and each decision function is searched for an ``isinstance``
call on a sequence class.
"""

import ast
import pathlib

import affwhit

SEQUENCE_CLASSES = {
    "BiSequence", "FiniteSupport", "Geometric", "Recurrence", "Shifted",
    "Scaled", "Weighted",
}
DECISIONS = (
    "is_zero_sequence", "_finite_core", "is_generic", "member_strong_genericity",
    "_dependence_of_pair", "is_strongly_generic_set", "minimal_annihilator",
    # the private helpers those read
    "_genericity", "_member_verdict", "_geometric_ratio", "_kills",
)


def dispatches(source: str, names) -> list:
    """(function, line) for every isinstance call on a sequence class in
    the module-level functions called ``names``."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in names:
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                spec = node.args[1]
                classes = spec.elts if isinstance(spec, ast.Tuple) else [spec]
                if any(isinstance(c, ast.Name) and c.id in SEQUENCE_CLASSES
                       for c in classes):
                    found.append((fn.name, node.lineno))
    return found


def seqspace_source() -> str:
    return pathlib.Path(affwhit.__file__).with_name("seqspace.py").read_text(
        encoding="utf-8"
    )


def test_decision_functions_exist():
    defined = {
        fn.name for fn in ast.parse(seqspace_source()).body
        if isinstance(fn, ast.FunctionDef)
    }
    assert set(DECISIONS) <= defined and "_tails" in defined


def test_no_decision_function_dispatches_on_a_sequence_class():
    assert dispatches(seqspace_source(), DECISIONS) == []


def test_lint_catches_a_class_dispatch():
    source = (
        "def is_generic(s):\n"
        "    if isinstance(s, Weighted):\n"
        "        return 1\n"
        "    return isinstance(s, (int, Geometric))\n"
        "def _tails(s):\n"
        "    return isinstance(s, FiniteSupport)\n"
    )
    assert dispatches(source, DECISIONS) == [("is_generic", 2), ("is_generic", 4)]
    assert dispatches("def is_generic(s):\n    return isinstance(s, int)\n", DECISIONS) == []
