"""Exactness lint: the computational modules use only int and Fraction.

Each module is parsed with ``ast`` and searched for the constructs that
bring floating point in: float (or complex) literals, the name
``float``, the float-valued ``math`` functions, and ``**`` with a
literal exponent that is not an integer.  Integer square roots go
through ``math.isqrt``.  The wall-clock ``timing`` that ``cli`` reports
is a difference of ``time.monotonic`` readings and uses none of these.
"""

import ast
import pathlib

import pytest

import affwhit

MODULES = ("linalg", "engine", "seqspace", "affine", "rootdata", "cli", "presets")
FLOAT_MATH = {"sqrt", "log", "log2", "log10", "log1p", "exp", "pow", "fsum", "hypot"}


def violations(source: str) -> list:
    """(line, what) for every inexact construct in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((line, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((line, "float"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append((line, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name in FLOAT_MATH]
            found += [(line, f"math.{name}") for name in names]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exp = node.right
            if isinstance(exp, ast.UnaryOp):  # a signed literal such as -0.5
                exp = exp.operand
            if isinstance(exp, ast.Constant) and type(exp.value) is not int:
                found.append((line, f"** {exp.value!r}"))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_floating_point(name):
    path = pathlib.Path(affwhit.__file__).with_name(f"{name}.py")
    assert violations(path.read_text(encoding="utf-8")) == []


def test_lint_catches_each_construct():
    cases = {
        "x = 0.5": "literal 0.5",
        "x = 2j": "literal 2j",
        "x = float(y)": "float",
        "import math\nx = math.sqrt(y)": "math.sqrt",
        "import math\nx = math.log(y, 2)": "math.log",
        "from math import sqrt": "math.sqrt",
        "x = y ** 0.5": "** 0.5",
        "x = y ** -0.5": "** 0.5",
    }
    for source, what in cases.items():
        assert what in [w for _, w in violations(source)], source
    exact = "import math\nx = math.isqrt(y) + y ** 2 + y ** -1 + y ** k + (1 << 127)"
    assert violations(exact) == []
