"""The package's export list, a caller for every public name and a
reader for every attribute.

A public function or method counts as called only through its owner: a
module-level function through its bare name, in its own module or where
an import binds it, or as ``module.name``; a method through attribute
access or an ``(owner, "name")`` pair.  So a method of one name is no
caller of a function of that name.  Words in the code of ``README.md``
count bare."""

import ast
import re
from pathlib import Path

import affwhit

REPO = Path(__file__).parent.parent
PACKAGE = Path(affwhit.__file__).parent


def test_all_names_are_exported_once():
    names = affwhit.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(affwhit, n)]
    assert not missing, missing
    ns = {}
    exec("from affwhit import *", ns)
    ns.pop("__builtins__")
    assert set(ns) == set(names)


def markdown_code(text: str) -> str:
    """The code of a Markdown text: the text between matching backtick
    runs, so its code spans and fenced blocks, not its prose, with the
    ``#`` comments of the fenced blocks left out."""
    return "\n".join(
        re.sub(r"#.*", "", code) if len(fence) >= 3 else code
        for fence, code in re.findall(r"(`+)(.+?)\1", text, re.S)
    )


def readme_code() -> str:
    return markdown_code((REPO / "README.md").read_text(encoding="utf-8"))


def code_names(code: str) -> set:
    """The words of ``code``, a hyphenated word (a CLI name such as
    ``seq-window``) taken whole, so it names none of its parts."""
    return set(re.findall(r"\w+(?:-\w+)*", code))


def caller_files() -> list:
    """The Python files that may call: ``src/affwhit`` (bar the export
    list in ``__init__``), ``demos/`` and ``perfbench/``; a test is no
    caller."""
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    files += sorted((REPO / "demos").glob("*.py"))
    return files + sorted((REPO / "perfbench").glob("*.py"))


def owned_uses(source: str, module: str = "") -> set:
    """(owner, name) for every name a Python source uses, with ``module``
    the package module it is ('' outside the package).

    A loaded bare name is owned by the module an import binds it from
    (the package itself as ``affwhit``), else by ``module``.  ``x.name``
    and a pair ``(x, "name")`` are owned by '.' plus the last word of x,
    read through an import's ``as`` ('.' alone when x has none, as for
    a call).  A string constant that is one identifier (``perfbench``
    binds its wrappers by name) is owned by ''.  A use inside the
    definition of the name itself does not count, so neither a recursive
    call nor a definition line does, and neither does an alias ``name =
    owner.name``."""
    tree = ast.parse(source)
    imported, original = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    original[alias.asname] = alias.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.ImportFrom):
            path = ("affwhit." if node.level else "") + (node.module or "")
            for alias in node.names:
                bound = alias.asname or alias.name
                original[bound] = alias.name
                imported[bound] = path.rstrip(".").removeprefix("affwhit.")

    def word(node):
        if isinstance(node, ast.Name):
            return original.get(node.id, node.id)
        return node.attr if isinstance(node, ast.Attribute) else ""

    def identifier(node):
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        )

    uses = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Assign):
            inside = inside | {t.id for t in node.targets if isinstance(t, ast.Name)}
        use = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            use = imported.get(node.id, module), node.id
        elif isinstance(node, ast.Attribute):
            use = "." + word(node.value), node.attr
        elif identifier(node):
            use = "", node.value
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2 and identifier(node.elts[1]):
            use = "." + word(node.elts[0]), node.elts[1].value
        if use is not None and use[1] not in inside:
            uses.add(use)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return uses


def python_uses(source: str) -> set:
    """The names a Python source uses, whatever their owner."""
    return {name for _, name in owned_uses(source)}


def called(qualified: str, uses: set, words: set) -> bool:
    """Whether the public function ``module.name`` or method
    ``module.Class.name`` has a caller among ``uses`` (:func:`owned_uses`
    pairs) or the README ``words``."""
    module, *cls, name = qualified.split(".")
    if name in words:
        return True
    if cls:
        return any(owner.startswith(".") and n == name for owner, n in uses)
    owners = {module, "affwhit", "." + module, ".affwhit"}
    return any((owner, name) in uses for owner in owners)


def public_definitions() -> dict:
    """Qualified name -> name of every public module-level function and
    public method of a module-level class in ``src/affwhit``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        found[f"{path.stem}.{node.name}.{fn.name}"] = fn.name
    return {q: n for q, n in found.items() if not n.startswith("_")}


def test_every_export_has_a_caller():
    # every name in __all__ is used, and every public function and method
    # has a caller through its owner
    uses = set()
    for path in caller_files():
        module = path.stem if path.parent == PACKAGE else ""
        uses |= owned_uses(path.read_text(encoding="utf-8"), module)
    words = code_names(readme_code())
    used = {name for _, name in uses} | words
    unused = sorted(n for n in affwhit.__all__ if n not in used)
    unused += sorted(q for q in public_definitions() if not called(q, uses, words))
    assert not unused, unused


def test_use_lint_skips_the_definition_itself():
    source = (
        "def helper(n):\n"
        "    return helper(n - 1) if n else 0\n"
        "class Box:\n"
        "    kind = 'Box'\n"
        "def main():\n"
        "    return mod.size, [run]\n"
        "BIND = ('cli', 'wrapped name', 'traced')\n"
        "class Pair:\n"
        "    apply = Owner.apply\n"
        "    other = Owner.shift\n"
    )
    used = python_uses(source)
    assert {"size", "run", "mod", "cli", "traced", "Owner", "shift"} <= used
    assert not {"helper", "Box", "main", "BIND", "wrapped name", "apply"} & used


def test_a_method_use_is_no_caller_of_a_function_of_that_name():
    source = (
        "from math import gcd\n"
        "from . import presets as presets_mod\n"
        "from .linalg import rank\n"
        "def translate(x, n):\n"
        "    return translate(x, n - 1)\n"
        "class FinVector:\n"
        "    def translate(self, n):\n"
        "        return self\n"
        "    def shift(self):\n"
        "        return self\n"
        "def polymul(p, q):\n"
        "    return q.translate(1), rank([]), gcd(2, 4), entry(p), (q, 'shift')\n"
        "def main():\n"
        "    return presets_mod.get_preset('sl2'), cli.size(1), (engine, 'solve')\n"
    )
    uses = owned_uses(source, "seqspace")
    assert called("seqspace.FinVector.translate", uses, set())
    assert not called("seqspace.translate", uses, set())
    # a README word counts bare
    assert called("seqspace.translate", uses, {"translate"})
    # a bare name: in its own module, or bound by an import from its module
    assert called("seqspace.entry", uses, set()) and called("linalg.rank", uses, set())
    assert not called("engine.entry", uses, set()) and not called("seqspace.rank", uses, set())
    assert not called("seqspace.gcd", uses, set())
    # module.name, read through an import's alias, and an (owner, "name") pair
    assert called("presets.get_preset", uses, set()) and called("cli.size", uses, set())
    assert called("engine.solve", uses, set()) and called("seqspace.FinVector.shift", uses, set())
    assert not called("seqspace.size", uses, set()) and not called("seqspace.main", uses, set())
    assert not called("seqspace.FinVector.polymul", uses, set())


def test_readme_callers_are_read_from_code_only():
    code = readme_code()
    assert "window_rank_check" in code and "--preset" in code
    assert "Module config schema" not in code and "Tests" not in code_names(code)
    # neither a comment word nor a part of a hyphenated CLI word is a caller
    names = code_names(code)
    assert "seq-window" in names and "check-seq" in names
    assert not {"window", "seq", "ranks", "unique"} & names
    text = (
        "Run `seq-window` or `f(x)  # kept in a span`:\n"
        "```sh\n"
        "affwhit check-seq --max-basis 9   # exact window ranks\n"
        "```\n"
    )
    assert code_names(markdown_code(text)) == {
        "seq-window", "f", "x", "kept", "in", "a", "span", "affwhit", "check-seq",
        "max-basis", "9", "sh",
    }


def assigned_attributes(source: str) -> dict:
    """Class.attribute -> attribute for every ``self.<name>`` that a
    module-level class assigns, plainly, annotated or augmented."""
    found = {}
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    found[f"{cls.name}.{node.attr}"] = node.attr
    return found


def attribute_reads(source: str) -> set:
    """Attribute names a Python source reads: ``x.name`` in a load."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_attribute_is_read():
    # every self.<name> assigned in src/affwhit is read as .name in
    # src/affwhit, demos/ or perfbench/, or named as .name in a code span
    # of README.md;
    # a test is no reader
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((REPO / "demos").glob("*.py"))
    files += sorted((REPO / "perfbench").glob("*.py"))
    read = set(re.findall(r"\.(\w+)", readme_code()))
    for path in files:
        read |= attribute_reads(path.read_text(encoding="utf-8"))
    unread = sorted(
        f"{path.stem}.{q}"
        for path in sorted(PACKAGE.glob("*.py"))
        for q, name in assigned_attributes(path.read_text(encoding="utf-8")).items()
        if name not in read
    )
    assert not unread, unread


def test_attribute_lint_counts_only_reads():
    source = (
        "class Box:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "        self.dead = [n]\n"
        "        self.count: int = 0\n"
        "        self.lo, self.hi = n, n\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "        return self.n + self.lo\n"
    )
    assert assigned_attributes(source) == {
        "Box.n": "n", "Box.dead": "dead", "Box.count": "count",
        "Box.lo": "lo", "Box.hi": "hi",
    }
    assert attribute_reads(source) == {"n", "lo"}
