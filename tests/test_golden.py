"""Byte-identity of every preset's reports against recorded golden files.

``tests/golden/<preset>.stdout`` holds what ``affwhit <command> --preset
<preset>`` prints, and ``tests/golden/<preset>.json`` its ``--out`` JSON
report without the ``timing`` field, written with the CLI's own JSON
settings.  A change to either file is a change to the program's output
and has to be deliberate.
"""

import json
from pathlib import Path

import pytest

from affwhit import cli, presets

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

GOLDEN = Path(__file__).parent / "golden"

CASES = [("whittaker", name) for name in presets.MODULE_PRESETS] + [
    ("tensor", name) for name in presets.TENSOR_PRESETS
]


@pytest.mark.parametrize("command, preset", CASES)
def test_preset_reports_match_golden(tmp_path, capsys, command, preset):
    out_path = tmp_path / "report.json"
    cli.main([command, "--preset", preset, "--out", str(out_path)])
    stdout = capsys.readouterr().out
    report = json.loads(out_path.read_text(encoding="utf-8"))
    del report["timing"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert stdout.encode("utf-8") == (GOLDEN / f"{preset}.stdout").read_bytes()
    assert text.encode("utf-8") == (GOLDEN / f"{preset}.json").read_bytes()
