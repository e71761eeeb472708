"""The package's export list, a caller for every public name and a
reader for every attribute."""

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


def python_uses(source: str) -> set:
    """Names a Python source uses: loaded names, attributes and string
    constants that are one identifier (``perfbench`` binds its wrappers
    by name).  A use inside the definition of the name itself does not
    count, so neither a recursive call nor a definition line does, and
    neither does an alias ``name = owner.name``."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Assign):
            inside = inside | {t.id for t in node.targets if isinstance(t, ast.Name)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if node.value.isidentifier() else None
        else:
            name = None
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return used


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


def callers_of_exports() -> set:
    """Every name used in ``src/affwhit`` (bar the export list in
    ``__init__``), ``demos/``, ``perfbench/`` or named in a code span of
    ``README.md``; a test is no caller."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((REPO / "demos").glob("*.py"))
    files += sorted((REPO / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        used |= python_uses(path.read_text(encoding="utf-8"))
    used |= code_names(readme_code())
    return used


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
    # every name in __all__ and every public function and method
    used = callers_of_exports()
    names = dict(public_definitions(), **{n: n for n in affwhit.__all__})
    unused = sorted(q for q, n in names.items() if n not in used)
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
