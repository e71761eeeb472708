"""Byte-identity of the CLI reports and demo output against golden files.

``tests/golden/<name>.stdout`` holds what one ``affwhit`` call prints,
and ``tests/golden/<name>.json`` its ``--out`` JSON report without the
``timing`` field, written with the CLI's own JSON settings.  The solver
goldens are named after their preset (``sl2``, ``tensor-sl2``, ...) at
the preset's own truncation, and ``<preset>@J5``, ``<preset>@D2E2J3``
and ``<preset>@literal`` after the ladder every module and tensor preset
is also run at: ``-J 5``, ``-D 2 -E 2 -J 3`` and ``--cocycle literal``.
Every solver call's exit code is checked too: 0 when the kernel has
dimension 1, else 2.  The other goldens are named after their command (``describe-sl2``, ``check-seq-geo-family``,
``bracket-sl3-borel``).  ``check-seq-mixed-family`` runs the config
``tests/golden/check-seq-mixed.json``, whose members cover finite,
scaled finite, scaled geometric, recurrence, scaled recurrence and
empty finite sequences.  ``<name>-solve`` runs the config
``tests/golden/<name>.json`` for each of ``FRACTIONAL``: sl(2) with ratio
5/2 at level 5/3, sl(3) Borel with ratios 7/3 and 9/4, and the tensor
product of ratios 5/2 and 7/3.  Every preset has integer ratios, so these
are the goldens whose eigenvalues have denominators.
``tests/golden/demo-<script>.stdout`` holds
what ``demos/<script>.py`` prints.  A change to any of these files is a
change to the program's output and has to be deliberate.
"""

import json
import runpy
from pathlib import Path

import pytest

from affwhit import cli, presets

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

CASES = [("whittaker", name) for name in presets.MODULE_PRESETS] + [
    ("tensor", name) for name in presets.TENSOR_PRESETS
]

COMMAND_CASES = [
    (f"describe-{name}", ["describe", "--preset", name])
    for name in presets.MODULE_PRESETS
] + [
    ("check-seq-geo-family", ["check-seq", "--preset", "geo-family"]),
    (
        "check-seq-mixed-family",
        ["check-seq", "--config", str(GOLDEN / "check-seq-mixed.json")],
    ),
    (
        "bracket-sl3-borel",
        ["bracket", "X[1,1]@t^2", "X[-1,-1]@t^-2", "--preset", "sl3-borel"],
    ),
]

LADDER = {
    "J5": ["-J", "5"],
    "D2E2J3": ["-D", "2", "-E", "2", "-J", "3"],
    "literal": ["--cocycle", "literal"],
}

LADDER_CASES = [
    (command, preset, setting) for command, preset in CASES for setting in LADDER
]

# the solver calls whose kernel has dimension 1; every other one exits 2
UNIQUE = {
    ("sl2-loop", None),
    ("sl2-loop", "J5"),
    ("sl2-loop", "D2E2J3"),
    ("sl2-loop", "literal"),
    ("sl2", "J5"),
    ("sl3-borel", "J5"),
    ("sl2-const", "J5"),
}

# configs with fractional geometric ratios: (name, command); each exits 2
FRACTIONAL = [
    ("frac-sl2", "whittaker"),
    ("frac-sl3-borel", "whittaker"),
    ("frac-tensor-sl2", "tensor"),
]

DEMO_SCRIPTS = [
    "affine_brackets",
    "sequence_genericity",
    "tensor_products",
    "whittaker_certificates",
]


def check_against_golden(tmp_path, capsys, argv, name):
    out_path = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out_path)])
    stdout = capsys.readouterr().out
    report = json.loads(out_path.read_text(encoding="utf-8"))
    if argv[0] in ("whittaker", "tensor"):
        del report["timing"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert stdout.encode("utf-8") == (GOLDEN / f"{name}.stdout").read_bytes()
    assert text.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()
    return code


@pytest.mark.parametrize("command, preset", CASES)
def test_preset_reports_match_golden(tmp_path, capsys, command, preset):
    argv = [command, "--preset", preset]
    code = check_against_golden(tmp_path, capsys, argv, preset)
    assert code == (0 if (preset, None) in UNIQUE else 2)


@pytest.mark.parametrize(
    "command, preset, setting",
    LADDER_CASES,
    ids=[f"{preset}@{setting}" for _, preset, setting in LADDER_CASES],
)
def test_ladder_reports_match_golden(tmp_path, capsys, command, preset, setting):
    argv = [command, "--preset", preset] + LADDER[setting]
    code = check_against_golden(tmp_path, capsys, argv, f"{preset}@{setting}")
    assert code == (0 if (preset, setting) in UNIQUE else 2)


@pytest.mark.parametrize(
    "name, argv", COMMAND_CASES, ids=[name for name, _ in COMMAND_CASES]
)
def test_command_reports_match_golden(tmp_path, capsys, name, argv):
    check_against_golden(tmp_path, capsys, argv, name)


@pytest.mark.parametrize("name, command", FRACTIONAL, ids=[n for n, _ in FRACTIONAL])
def test_fractional_ratio_reports_match_golden(tmp_path, capsys, name, command):
    argv = [command, "--config", str(GOLDEN / f"{name}.json")]
    assert check_against_golden(tmp_path, capsys, argv, f"{name}-solve") == 2


@pytest.mark.parametrize("script", DEMO_SCRIPTS)
def test_demo_stdout_matches_golden(capsys, script):
    runpy.run_path(str(DEMOS / f"{script}.py"), run_name="__main__")
    stdout = capsys.readouterr().out
    assert stdout.encode("utf-8") == (GOLDEN / f"demo-{script}.stdout").read_bytes()
