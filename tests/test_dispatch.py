"""Dispatch lints: one code path per concept, checked on the parsed source.

The decision functions of ``seqspace`` read a sequence only through its
tail normal form ``_tails(s)`` and its entries (as integer windows);
``_tails`` is the one place that asks a sequence its class.  The module is parsed with
``ast``, and each decision function is searched for an ``isinstance``
call on a sequence class.  A sequence has one accessor: every sequence
class defines ``int_window``, and only ``BiSequence`` defines ``entry``,
as the one-entry window.

``linalg`` has one elimination: only ``_certified_rref`` calls the
modular elimination, the lift and the certificate (``rref_pivots`` and
``rank`` both read its certified candidate).

``engine`` has one condition-row builder: only its module-level
functions and the methods of ``WhittakerModule`` name the straightening
and interning internals, so the tensor builder reads its factors'
``condition_rows``.

The package has one integer check, ``linalg.require_int``: no other code
tests ``type(x) is int`` or coerces an argument with ``int``, bar the
parsers of text.
"""

import ast
import pathlib

import affwhit

SEQUENCE_CLASSES = {
    "BiSequence", "FiniteSupport", "Geometric", "Recurrence", "Shifted",
    "Scaled", "Weighted",
}
DECISIONS = (
    "is_generic", "member_strong_genericity", "_dependence_of_pair",
    "is_strongly_generic_set", "minimal_annihilator", "window_rank_check",
    "member_record",
    # the private helpers those read, the integer-window ones included
    "_member_verdict", "_geometric_ratio", "_record", "_annihilator",
    "_primitive",
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


def accessors(source: str) -> dict:
    """Sequence class -> the accessors ``entry`` and ``int_window`` it
    defines, for each class of ``SEQUENCE_CLASSES`` in the source."""
    return {
        cls.name: sorted(
            fn.name for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name in ("entry", "int_window")
        )
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef) and cls.name in SEQUENCE_CLASSES
    }


def test_only_bisequence_defines_entry():
    assert accessors(seqspace_source()) == {
        name: ["entry", "int_window"] if name == "BiSequence" else ["int_window"]
        for name in SEQUENCE_CLASSES
    }


def test_accessor_lint_catches_a_second_entry():
    source = (
        "class BiSequence:\n"
        "    def entry(self, i):\n"
        "        return self.int_window(i, i)\n"
        "    def int_window(self, lo, hi):\n"
        "        return [self.entry(i) for i in range(lo, hi + 1)]\n"
        "class Shifted(BiSequence):\n"
        "    def entry(self, i):\n"
        "        return self.base.entry(i + self.offset)\n"
        "    def int_window(self, lo, hi):\n"
        "        return self.base.int_window(lo + self.offset, hi + self.offset)\n"
        "class Weighted(BiSequence):\n"
        "    def entry(self, i):\n"
        "        return i * self.base.entry(i)\n"
        "class TwoRatio(BiSequence):\n"
        "    def entry(self, i):\n"
        "        return i\n"
    )
    assert accessors(source) == {
        "BiSequence": ["entry", "int_window"],
        "Shifted": ["entry", "int_window"],
        "Weighted": ["entry"],
    }


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
        name: ["_certified_rref"] for name in ELIMINATION
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


# a module's straightening and interning internals
INTERNALS = ("_straighten", "_tables", "_gid", "_top_start", "_intern", "_basis_ids")


def internal_uses(source: str, names=INTERNALS) -> list:
    """Sorted (scope, name, line) for every use or definition of one of
    ``names`` outside the module-level functions and the methods of
    ``WhittakerModule``; scope is the qualified name of the enclosing
    definition, '' at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef) and scope in ("", "WhittakerModule"):
                    continue
                if child.name in names:
                    found.append((scope, child.name, child.lineno))
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name in names:
                found.append((scope, name, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_only_the_module_straightens_and_interns():
    assert internal_uses(module_source("engine")) == []


def test_lint_catches_a_tensor_method_reading_factor_internals():
    source = (
        "def _straighten(t, g, mids):\n"
        "    return t._tables\n"
        "class WhittakerModule:\n"
        "    def condition_rows(self, basis):\n"
        "        return _straighten(self._tables, self._gid(1), basis[self._top_start(basis):])\n"
        "class TensorModule:\n"
        "    def condition_rows(self, a, b):\n"
        "        return self.left.condition_rows(a), self.right._top_start(b)\n"
        "    def condition_system(self, trunc):\n"
        "        return [self.left._intern(m) for m in trunc], self.right._basis_ids\n"
        "    def act_gen(self, g, elt):\n"
        "        return _straighten(self.left._tables, g, elt)\n"
        "    def _gid(self, g):\n"
        "        return g\n"
        "STRAIGHTEN = _straighten\n"
    )
    assert internal_uses(source) == [
        ("", "_straighten", 15),
        ("TensorModule", "_gid", 13),
        ("TensorModule.act_gen", "_straighten", 12),
        ("TensorModule.act_gen", "_tables", 12),
        ("TensorModule.condition_rows", "_top_start", 8),
        ("TensorModule.condition_system", "_basis_ids", 10),
        ("TensorModule.condition_system", "_intern", 10),
    ]
    assert internal_uses(source.split("class TensorModule")[0]) == []


# the functions that read integers out of text (JSON fields, labels, literals)
INT_PARSERS = {"config_int", "parse_root_label", "parse_gen", "sequence_from_literal"}


def integer_checks(source: str, allowed=INT_PARSERS) -> list:
    """(scope, line) for every integer decision outside the functions
    ``allowed``: a ``type(...) is int`` or ``is not int`` test, ``int``
    bound as a ``_key``, or ``int`` called on a parameter of the enclosing
    function or on a loop or comprehension variable."""
    found = []

    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    def visit(node, scope, bound):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name
            if scope in allowed:
                return
        if isinstance(node, ast.FunctionDef):
            args = node.args
            bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for sub in ast.walk(node):
                if isinstance(sub, (ast.comprehension, ast.For)):
                    bound |= {n.id for n in ast.walk(sub.target) if isinstance(n, ast.Name)}
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(is_int(c) for c in node.comparators)
        ) or (
            isinstance(node, ast.Assign)
            and is_int(node.value)
            and any(isinstance(t, ast.Name) and t.id == "_key" for t in node.targets)
        ) or (
            isinstance(node, ast.Call)
            and is_int(node.func)
            and any(isinstance(a, ast.Name) and a.id in bound for a in node.args)
        ):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, bound)

    visit(ast.parse(source), "", set())
    return found


def test_require_int_is_the_one_integer_check():
    package = pathlib.Path(affwhit.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        allowed = INT_PARSERS | ({"require_int"} if path.stem == "linalg" else set())
        checks = integer_checks(path.read_text(encoding="utf-8"), allowed)
        if checks:
            found[path.stem] = checks
    assert found == {}


def test_integer_lint_catches_each_inline_check():
    source = (
        "def require_int(x):\n"
        "    if type(x) is not int:\n"
        "        raise ValueError(x)\n"
        "class FinVector:\n"
        "    _key = int\n"
        "def X(root, m):\n"
        "    return tuple(root), int(m)\n"
        "class RootDatum:\n"
        "    def __init__(self, n, levi):\n"
        "        self.levi = frozenset(int(i) for i in levi)\n"
        "        self.ok = int(len(levi)) + int(n * 2)\n"
        "        self.bad = any(type(x) is int for x in levi)\n"
        "def config_int(value):\n"
        "    return int(value)\n"
    )
    assert integer_checks(source) == [
        ("require_int", 2), ("FinVector", 5), ("X", 7), ("__init__", 10),
        ("__init__", 12),
    ]
    assert integer_checks(source, INT_PARSERS | {"require_int"})[0] == ("FinVector", 5)
