"""Dispatch lints: one code path per concept, checked on the parsed source.

The decision functions of ``seqspace`` read a sequence only through its
tail normal form ``_tails(s)`` and its entries; ``_tails`` is the one
place that asks a sequence its class.  The module is parsed with
``ast``, and each decision function is searched for an ``isinstance``
call on a sequence class.

``linalg`` has one elimination entry point: only ``rref_pivots`` calls
the modular elimination, the lift and the certificate.
"""

import ast
import pathlib

import affwhit

SEQUENCE_CLASSES = {
    "BiSequence", "FiniteSupport", "Geometric", "Recurrence", "Shifted",
    "Scaled", "Weighted",
}
DECISIONS = (
    "_finite_core", "is_generic", "member_strong_genericity",
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


def module_source(name: str) -> str:
    return pathlib.Path(affwhit.__file__).with_name(f"{name}.py").read_text(
        encoding="utf-8"
    )


def seqspace_source() -> str:
    return module_source("seqspace")


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


ELIMINATION = ("_rref_mod", "_lift", "_certify")


def callers(source: str, names) -> dict:
    """name -> sorted qualified names of the functions and methods that call
    it, for each of ``names`` called anywhere in the module."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in names
            ):
                found.setdefault(child.func.id, set()).add(prefix.rstrip("."))
                visit(child, prefix)
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return {name: sorted(where) for name, where in found.items()}


def test_only_rref_pivots_eliminates():
    assert callers(module_source("linalg"), ELIMINATION) == {
        name: ["rref_pivots"] for name in ELIMINATION
    }


def test_lint_catches_a_second_elimination_path():
    source = (
        "def rref_pivots(rows):\n"
        "    return _certify(rows, _lift(_rref_mod(rows, 2), 2))\n"
        "class SingletonPruner:\n"
        "    def _extend_held(self):\n"
        "        cand = _lift({}, 3)\n"
        "        return cand and _certify([], cand)\n"
    )
    assert callers(source, ELIMINATION) == {
        "_rref_mod": ["rref_pivots"],
        "_lift": ["SingletonPruner._extend_held", "rref_pivots"],
        "_certify": ["SingletonPruner._extend_held", "rref_pivots"],
    }
