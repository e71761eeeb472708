"""Command-line interface: subcommands, exit codes, reports."""

import argparse
import json
import warnings
from pathlib import Path

import pytest

from affwhit import cli, linalg, presets, seqspace

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# whittaker
# ---------------------------------------------------------------------------


def test_whittaker_multiplicity_exit_code(capsys):
    code, out, _ = run(capsys, "whittaker", "--preset", "sl2")
    assert code == 2
    assert "dimension: 3" in out
    assert "truncation: D=2 E=2 J=3" in out


def test_whittaker_unique_exit_code(capsys):
    code, out, _ = run(capsys, "whittaker", "--preset", "sl2", "-J", "4")
    assert code == 0
    assert "dimension: 1" in out


def test_whittaker_const_preset(capsys):
    code, out, _ = run(capsys, "whittaker", "--preset", "sl2-const")
    assert code == 2
    assert "dimension: 2" in out
    assert "not_strongly_generic" in out


def test_whittaker_loop_preset(capsys):
    code, out, _ = run(capsys, "whittaker", "--preset", "sl2-loop")
    assert code == 0
    assert "dimension: 1" in out


def test_whittaker_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "whittaker", "--preset", "sl2", "--out", str(out_path)
    )
    assert code == 2
    report = json.loads(out_path.read_text())
    assert report["dimension"] == 3
    assert report["basis_size"] == 78
    assert report["condition_count"] == 7
    assert report["row_count"] == 476
    assert "timing" in report
    # vectors are (coefficient, monomial) string pairs
    flat = [pair for vec in report["vectors"] for pair in vec]
    assert ["1", "1"] in flat  # the cyclic vector itself


def test_json_deterministic_modulo_timing(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "whittaker", "--preset", "sl2", "--out", str(p1))
    run(capsys, "whittaker", "--preset", "sl2", "--out", str(p2))
    r1, r2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    r1.pop("timing"), r2.pop("timing")
    assert r1 == r2


def test_stdout_deterministic(capsys):
    _, out1, _ = run(capsys, "whittaker", "--preset", "sl3-borel")
    _, out2, _ = run(capsys, "whittaker", "--preset", "sl3-borel")
    assert out1 == out2


def test_config_file_equivalent_to_preset(tmp_path, capsys):
    cfg = presets.get_preset("sl2")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _, out_preset, _ = run(capsys, "whittaker", "--preset", "sl2")
    _, out_config, _ = run(capsys, "whittaker", "--config", str(path))
    assert out_preset == out_config


def test_truncation_overrides(capsys):
    code, out, _ = run(
        capsys, "whittaker", "--preset", "sl2", "-D", "1", "-E", "1", "-J", "4"
    )
    assert "truncation: D=1 E=1 J=4" in out
    assert code == 0


def test_mode_override_loop_only(capsys):
    code, out, _ = run(
        capsys, "whittaker", "--preset", "sl2-loop", "--mode", "loop-only"
    )
    assert code == 0


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------


def test_describe_borel(capsys):
    code, out, _ = run(capsys, "describe", "--preset", "sl3-borel")
    assert code == 0
    assert "Phi_n   : a1, a2, a1+a2" in out
    assert "Phi^0_n : a1, a2" in out
    assert "Phi^1_n : a1+a2" in out
    assert "stratum X_0: a1, a2" in out
    assert "stratum X_1: a1+a2" in out
    assert "d" in out.splitlines()[-8:][0] or "  d" in out


def test_describe_levi(capsys):
    code, out, _ = run(capsys, "describe", "--preset", "sl3-abelian")
    assert code == 0
    assert "levi = [2]" in out
    assert "Phi^1_n : \n" in out or "Phi^1_n :" in out
    # d lies above the H loops and below the positive Levi-root gens
    lines = [l.strip() for l in out.splitlines() if l.startswith("  ")]
    assert lines.index("d") > lines.index("H[2]@t^1")
    assert lines.index("d") < lines.index("X[0,1]@t^-1")


def test_describe_improper_parabolic(tmp_path, capsys):
    cfg = {"algebra": {"type": "A", "rank": 2, "levi": [1, 2]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "describe", "--config", str(path))
    assert code == 1
    assert "error:" in err
    assert "nilradical is empty" in err


# ---------------------------------------------------------------------------
# check-seq
# ---------------------------------------------------------------------------


def test_check_seq_geo_family(capsys):
    code, out, _ = run(capsys, "check-seq", "--preset", "geo-family")
    assert code == 0
    assert "[0] geometric(j=2): generic" in out
    assert "[2] geometric(j=5/2): generic" in out
    assert "set verdict: not_strongly_generic" in out
    assert "cutoff identity" in out
    assert "window rank: 18 of 42 rows" in out
    assert "rank-deficient" in out


def test_check_seq_single_geometric(tmp_path, capsys):
    cfg = {
        "sequences": [{"kind": "geometric", "j": "2"}],
        "S": 2,
        "W": 10,
        "weighted": True,
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "check-seq", "--config", str(path))
    assert code == 0
    assert "set verdict: strongly_generic" in out
    assert "window rank: 6 of 6 rows" in out
    assert "full rank" in out


def test_check_seq_empty_family(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"sequences": []}))
    code, out, _ = run(capsys, "check-seq", "--config", str(path))
    assert code == 0
    assert "set verdict: strongly_generic (empty family)" in out
    assert "window rank: 0 of 0 rows" in out


@pytest.mark.parametrize("config", [{"preset": "sl2"}, {"S": 2, "W": 10}])
def test_check_seq_config_without_sequences_is_an_error(tmp_path, capsys, config):
    if "preset" in config:
        code, out, err = run(capsys, "check-seq", "--preset", config["preset"])
    else:
        code, out, err = run_config(tmp_path, capsys, "check-seq", config)
    assert_one_line_error(code, err)
    assert err.strip() == "error: check-seq config needs 'sequences'"
    assert out == ""


def test_check_seq_reports_annihilator(tmp_path, capsys):
    cfg = {
        "sequences": [
            {"kind": "recurrence", "v": {"0": "-1", "1": "1"}, "initial": ["1"]}
        ],
        "S": 1,
        "W": 4,
    }
    path = tmp_path / "const.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "check-seq", "--config", str(path))
    assert code == 0
    assert "not_generic" in out
    assert "size 1" in out
    assert "v_0 - v_1" in out


MIXED = str(Path(__file__).parent / "golden" / "check-seq-mixed.json")


def test_check_seq_searches_each_annihilator_once(monkeypatch, capsys):
    # one Hankel search per non-generic member: its size is the width of
    # the annihilator found.  The search is the run's only linalg.nullspace
    # call (the window rank goes through linalg.rank)
    searches = []
    nullspace = linalg.nullspace

    def counted(rows, ncols):
        searches.append(ncols)
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", counted)
    code, out, _ = run(capsys, "check-seq", "--config", MIXED)
    assert code == 0
    assert len(searches) == out.count(": not_generic") == 3


def test_check_seq_decides_each_member_once(monkeypatch, capsys):
    # the per-member lines, the set verdict and the window rank all read
    # one record per member
    decided = []

    class Counted(seqspace.MemberRecord):
        def __init__(self, seq, *fields):
            decided.append(seq)
            super().__init__(seq, *fields)

    monkeypatch.setattr(seqspace, "MemberRecord", Counted)
    code, out, _ = run(capsys, "check-seq", "--config", MIXED)
    assert code == 0
    members = [
        seqspace.sequence_from_literal(lit)
        for lit in json.loads(Path(MIXED).read_text())["sequences"]
    ]
    assert decided == members and out.startswith("sequences: 6 ")


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_preset(capsys):
    code, out, _ = run(capsys, "tensor", "--preset", "tensor-sl2")
    assert code == 2
    assert "dimension: 7" in out
    assert "eigenvalue additivity on j in [-5,5]: ok; c acts as 3" in out
    assert "not_strongly_generic" in out


def test_tensor_decides_each_member_once(monkeypatch, capsys):
    # the union verdict reads the records each factor's spec decided
    decided = []

    class Counted(seqspace.MemberRecord):
        def __init__(self, seq, *fields):
            decided.append(seq)
            super().__init__(seq, *fields)

    monkeypatch.setattr(seqspace, "MemberRecord", Counted)
    code, out, _ = run(capsys, "tensor", "--preset", "tensor-sl2")
    assert code == 2 and "not_strongly_generic" in out
    assert len(decided) == 2


@pytest.mark.parametrize(
    "argv, subject",
    [
        (("whittaker", "--preset", "sl3-abelian"), "Lam multiset"),
        (("tensor", "--preset", "tensor-sl2"), "the union of the two eigenvalue families"),
    ],
)
def test_a_genericity_warning_is_one_plain_stderr_line(capsys, argv, subject):
    # the library warns; the CLI prints the message alone, with no path or code line
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        shown = warnings.showwarning
        code, _, err = run(capsys, *argv)
        assert warnings.showwarning is shown  # main restores the caller's hook
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith(f"warning: {subject} is not certified strongly generic (")
    assert line.endswith("is not guaranteed")
    for part in ("cli.py", "UserWarning", "/", "return "):
        assert part not in line


def test_tensor_neg_preset(capsys):
    code, out, _ = run(capsys, "tensor", "--preset", "tensor-sl2-neg")
    assert code == 2
    assert "c acts as 0" in out
    assert "proportional" in out


def test_tensor_json_additivity_table(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "tensor", "--preset", "tensor-sl2", "--out", str(out_path)
    )
    report = json.loads(out_path.read_text())
    assert report["eigenvalue_additivity_ok"] is True
    assert report["theta_sum"] == "3"
    rows = report["eigenvalue_additivity"]
    assert len(rows) == 11
    assert all(r["ok"] for r in rows)
    by_j = {r["j"]: r["target"] for r in rows}
    assert by_j[1] == "5" and by_j[2] == "13" and by_j[-1] == "0"


def test_tensor_mismatched_algebras(tmp_path, capsys):
    cfg = {
        "left": {
            "algebra": {"type": "A", "rank": 1, "levi": []},
            "lam": {"a1": {"kind": "geometric", "j": "2"}},
            "theta": "1",
        },
        "right": {
            "algebra": {"type": "A", "rank": 2, "levi": []},
            "lam": {
                "a1": {"kind": "geometric", "j": "2"},
                "a2": {"kind": "geometric", "j": "3"},
            },
            "theta": "1",
        },
        "truncation": {"D": 1, "E": 1, "J": 1},
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "tensor", "--config", str(path))
    assert code == 1
    assert "share the algebra" in err


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_calculator(capsys):
    code, out, _ = run(
        capsys, "bracket", "X[1]@t^2", "X[-1]@t^-2", "--preset", "sl2"
    )
    assert code == 0
    assert "[X[1]@t^2, X[-1]@t^-2] = 8*c + H[1]@t^0" in out


def test_bracket_literal_cocycle(capsys):
    code, out, _ = run(
        capsys,
        "bracket",
        "X[1]@t^0",
        "X[-1]@t^0",
        "--preset",
        "sl2",
        "--cocycle",
        "literal",
    )
    assert code == 0
    assert "4*c" in out


def test_bracket_parse_error(capsys):
    code, _, err = run(capsys, "bracket", "nonsense", "d", "--preset", "sl2")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("gen", ["X[1-1]@t^0", "X[-]@t^0", "X[1,,2]@t^0"])
def test_bracket_malformed_coefficients(capsys, gen):
    code, out, err = run(capsys, "bracket", gen, "d", "--preset", "sl2")
    assert code == 1 and not out
    assert err == (
        f"error: cannot parse generator {gen!r}; expected X[coeffs]@t^m, H[i]@t^m, c or d\n"
    )


def test_bracket_cartan_index_out_of_range(capsys):
    code, out, err = run(capsys, "bracket", "H[5]@t^0", "d", "--preset", "sl2")
    assert code == 1 and not out
    assert err == "error: Cartan index must lie in 1..1, got 5 in 'H[5]@t^0'\n"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_missing_config_is_an_error(capsys):
    code, _, err = run(capsys, "whittaker")
    assert code == 1
    assert "error:" in err


def test_unknown_preset(capsys):
    code, _, err = run(capsys, "whittaker", "--preset", "nope")
    assert code == 1
    assert "available" in err


def test_unknown_preset_message_is_plain(capsys):
    code, _, err = run(capsys, "whittaker", "--preset", "nope")
    assert_one_line_error(code, err)
    assert err.startswith("error: unknown preset 'nope'; available: ")


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.make_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "check-seq", "--preset", "geo-family")[0] == 0
    assert built.count("affwhit") == 1
    first = len(built)
    assert run(capsys, "describe", "--preset", "sl2")[0] == 0
    assert len(built) == first


def test_failed_runs_leave_the_parser_as_built(tmp_path, capsys):
    golden = (Path(__file__).parent / "golden" / "check-seq-geo-family.stdout").read_text()
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-seq", "--no-such-option"])
    assert exc.value.code == 2
    assert run(capsys, "check-seq", "--config", str(tmp_path / "missing.json"))[0] == 1
    assert run(capsys, "check-seq", "--preset", "geo-family")[:2] == (0, golden)


def test_module_config_without_algebra(tmp_path, capsys):
    code, _, err = run(capsys, "whittaker", "--preset", "tensor-sl2")
    assert_one_line_error(code, err)
    assert "module config needs 'algebra'" in err
    assert "tensor config" in err and "affwhit tensor" in err
    cfg = presets.get_preset("sl2")
    del cfg["algebra"]
    code, _, err = run_config(tmp_path, capsys, "whittaker", cfg)
    assert_one_line_error(code, err)
    assert "module config needs 'algebra'" in err
    assert "tensor" not in err


@pytest.mark.parametrize(
    "argv", [["whittaker"], ["describe"], ["bracket", "X[-1]@t^1", "H[1]@t^0"]]
)
def test_config_without_algebra_names_the_field(tmp_path, capsys, argv):
    path = tmp_path / "lam.json"
    path.write_text(json.dumps({"lam": {}}))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert_one_line_error(code, err)
    assert err.strip() == "error: module config needs 'algebra'"
    assert out == ""


def test_bad_root_label(tmp_path, capsys):
    cfg = presets.get_preset("sl2")
    cfg["lam"] = {"b1": cfg["lam"].pop("a1")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "whittaker", "--config", str(path))
    assert code == 1
    assert "root label" in err


def test_compound_root_label(tmp_path, capsys):
    cfg = presets.get_preset("sl3-abelian")
    assert "a1+a2" in cfg["lam"]
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "whittaker", "--config", str(path))
    assert code == 2  # dimension 34 at the preset truncation
    assert "dimension: 34" in out


def test_preset_names_cover_module_and_tensor():
    names = presets.preset_names()
    for name in ("sl2", "sl3-borel", "sl3-abelian", "sl2-loop", "sl2-const"):
        assert name in names
    for name in ("tensor-sl2", "tensor-sl2-neg", "geo-family"):
        assert name in names


def _preset_commands(name):
    if name in presets.MODULE_PRESETS:
        return ["whittaker", "describe"]
    if name in presets.TENSOR_PRESETS:
        return ["tensor"]
    return ["check-seq"]


@pytest.mark.parametrize("name", presets.preset_names())
def test_every_preset_is_accepted(capsys, name):
    # generator validation must not reject what the presets build
    for command in _preset_commands(name):
        code, out, err = run(capsys, command, "--preset", name)
        assert code in (0, 2), (command, err)
        assert out and "error:" not in err


# ---------------------------------------------------------------------------
# malformed input: exit 1 with a one-line error, never a traceback
# ---------------------------------------------------------------------------


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_non_object_config_is_an_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    # an array nested past the JSON reader's recursion limit is refused too
    deep = "[" * 100000 + "]" * 100000
    for text, message in (("[1, 2]", "JSON object"), (deep, "nests too deeply")):
        path.write_text(text)
        for command in ("whittaker", "tensor", "describe", "check-seq"):
            code, _, err = run(capsys, command, "--config", str(path))
            assert_one_line_error(code, err)
            assert message in err


def test_non_object_module_config_is_an_error(tmp_path, capsys):
    cfg = presets.get_preset("tensor-sl2")
    cfg["left"] = [1, 2]
    path = tmp_path / "left.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "tensor", "--config", str(path))
    assert_one_line_error(code, err)
    assert "JSON object" in err


def test_decimal_theta_is_rejected(tmp_path, capsys):
    for theta in ("0.5", 0.5, True):
        cfg = presets.get_preset("sl2")
        cfg["theta"] = theta
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "whittaker", "--config", str(path))
        assert_one_line_error(code, err)
        assert err.startswith("error: theta:")


# (command, preset, path to one rational field of its config)
ZERO_DENOMINATOR_FIELDS = [
    ("whittaker", "sl2", ("theta",)),
    ("whittaker", "sl2", ("lam", "a1", "j")),
    ("whittaker", "sl2", ("lam", "a1", "scale")),
    ("whittaker", "sl2-loop", ("lam", "a1", "entries", "1")),
    ("whittaker", "sl2-const", ("lam", "a1", "v", "0")),
    ("whittaker", "sl2-const", ("lam", "a1", "initial", 0)),
    ("tensor", "tensor-sl2", ("right", "theta")),
    ("tensor", "tensor-sl2", ("left", "lam", "a1", "j")),
    ("check-seq", "geo-family", ("sequences", 2, "j")),
    ("check-seq", "geo-family", ("sequences", 0, "scale")),
]


@pytest.mark.parametrize(
    "command, preset, field",
    ZERO_DENOMINATOR_FIELDS,
    ids=["-".join(map(str, (p,) + f)) for _, p, f in ZERO_DENOMINATOR_FIELDS],
)
def test_zero_denominator_is_a_one_line_error(tmp_path, capsys, command, preset, field):
    cfg = presets.get_preset(preset)
    node = cfg
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = "1/0"
    code, out, err = run_config(tmp_path, capsys, command, cfg)
    assert_one_line_error(code, err)
    assert "zero denominator" in err
    assert out == ""


def test_fractional_theta_string_is_accepted(tmp_path, capsys):
    cfg = presets.get_preset("sl2")
    cfg["theta"] = "1/2"
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "whittaker", "--config", str(path), "-D", "1", "-E", "1")
    assert code in (0, 2)
    assert "dimension:" in out


def test_bracket_loop_only_rejects_c_and_d(capsys):
    for pair in (("c", "d"), ("X[1]@t^1", "d"), ("c", "X[1]@t^1")):
        code, out, err = run(
            capsys, "bracket", *pair, "--preset", "sl2", "--mode", "loop-only"
        )
        assert_one_line_error(code, err)
        assert "loop-only" in err
        assert out == ""


def test_describe_negative_E_is_an_error(capsys):
    code, out, err = run(capsys, "describe", "--preset", "sl2", "-E", "-1")
    assert_one_line_error(code, err)
    assert "E must be nonnegative" in err
    assert out == ""


def run_config(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run(capsys, command, "--config", str(path))


def test_non_list_levi_is_an_error(tmp_path, capsys):
    cfg = presets.get_preset("sl2")
    cfg["algebra"]["levi"] = 3
    for command in ("whittaker", "describe"):
        code, out, err = run_config(tmp_path, capsys, command, cfg)
        assert_one_line_error(code, err)
        assert "levi must be a JSON array" in err
        assert out == ""


def test_non_object_truncation_is_an_error(tmp_path, capsys):
    cfg = presets.get_preset("sl2")
    cfg["truncation"] = [1]
    for command in ("whittaker", "describe"):
        code, out, err = run_config(tmp_path, capsys, command, cfg)
        assert_one_line_error(code, err)
        assert "truncation must be a JSON object" in err
        assert out == ""


def test_non_list_sequences_is_an_error(tmp_path, capsys):
    cfg = presets.get_preset("geo-family")
    cfg["sequences"] = 5
    code, out, err = run_config(tmp_path, capsys, "check-seq", cfg)
    assert_one_line_error(code, err)
    assert "sequences must be a JSON array" in err
    assert out == ""


@pytest.mark.parametrize(
    "path, value",
    [
        (("algebra", "rank"), [1]),
        (("algebra", "levi"), [[1]]),
        (("truncation", "D"), None),
        (("truncation", "D"), 1.7),
        (("algebra", "rank"), True),
        (("lam", "a1"), {"kind": "geometric", "j": [2]}),
        (("lam", "a1"), {"kind": "finite", "entries": [1]}),
        (("lam", "a1"), {"kind": "recurrence", "v": [1], "initial": ["1"]}),
        (("lam", "a1"), {"kind": "recurrence", "v": {"0": "1"}, "initial": 5}),
        (("lam", "a1"), {"kind": ["geometric"], "j": "2"}),
        (("lam", "a1"), {"kind": "geometric", "j": "2", "scale": [1]}),
        (("lam", "a1"), {"kind": "finite", "entries": {"0": True}}),
        # digit separators, which int() and Fraction() would read as digits
        (("truncation", "J"), "0_1"),
        (("lam", "a1"), {"kind": "finite", "entries": {"0_1": "1"}}),
        (("lam", "a1"), {"kind": "geometric", "j": "5_0"}),
        (("lam", "a1"), {"kind": "geometric", "j": "30/1_0"}),
    ],
)
def test_wrong_nested_types_are_errors(tmp_path, capsys, path, value):
    cfg = presets.get_preset("sl2")
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, out, err = run_config(tmp_path, capsys, "whittaker", cfg)
    assert_one_line_error(code, err)
    assert out == ""


# two config keys that name one root or one index: (preset, field, value, message)
COLLIDING_KEYS = {
    "lam-roots": ("sl3-abelian", ("lam", "a2+a1"), {"kind": "geometric", "j": "5"},
                  "lam keys 'a1+a2' and 'a2+a1' name one root a1+a2"),
    "finite-entries": ("sl2-loop", ("lam", "a1", "entries"), {"1": "1", "01": "5"},
                       "sequence literal keys '1' and '01' name one index 1"),
    "recurrence-v": ("sl2-const", ("lam", "a1", "v"), {"0": "-1", "1": "1", "01": "3"},
                     "sequence literal keys '1' and '01' name one index 1"),
}


@pytest.mark.parametrize("name", sorted(COLLIDING_KEYS))
def test_colliding_keys_are_refused(tmp_path, capsys, name):
    preset, path, value, message = COLLIDING_KEYS[name]
    cfg = _set(presets.get_preset(preset), path, value)
    code, out, err = run_config(tmp_path, capsys, "whittaker", cfg)
    assert_one_line_error(code, err)
    assert message in err
    assert out == ""


def test_wrong_window_types_are_errors(tmp_path, capsys):
    for key, value, message in (
        ("S", [5], "S must be an integer"),
        ("W", None, "W must be an integer"),
        ("W", 20.5, "W must be an integer"),
        ("S", "0_1", "S must be an integer"),
        ("W", "1_0", "W must be an integer"),
        ("weighted", "no", "weighted must be true or false"),
    ):
        cfg = presets.get_preset("geo-family")
        cfg[key] = value
        code, out, err = run_config(tmp_path, capsys, "check-seq", cfg)
        assert_one_line_error(code, err)
        assert message in err
        assert out == ""


@pytest.mark.parametrize("flag", ["-D", "-E", "-J"])
@pytest.mark.parametrize(
    "command, preset",
    [("whittaker", "sl2"), ("tensor", "tensor-sl2"), ("describe", "sl2")],
)
def test_truncation_flags_refuse_digit_separators(capsys, command, preset, flag):
    # "0_1" would read as 1; refused like "abc", as an argparse usage error
    for value in ("abc", "0_1"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--preset", preset, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: invalid int value: {value!r}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [("describe",), ("bracket", "X[1]@t^1", "X[-1]@t^-1"), ("whittaker",)],
    ids=["describe", "bracket", "whittaker"],
)
def test_unknown_mode_in_config_is_an_error(tmp_path, capsys, argv):
    cfg = presets.get_preset("sl2")
    cfg["mode"] = "bogus"
    path = tmp_path / "mode.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert_one_line_error(code, err)
    assert "mode must be one of ('affine', 'loop_only'), got 'bogus'" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [("describe",), ("bracket", "X[1]@t^1", "X[-1]@t^-1"), ("whittaker",)],
    ids=["describe", "bracket", "whittaker"],
)
def test_unknown_cocycle_in_config_is_an_error(tmp_path, capsys, argv):
    cfg = presets.get_preset("sl2")
    cfg["cocycle"] = "bogus"
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert_one_line_error(code, err)
    assert "cocycle must be one of ('standard', 'literal'), got 'bogus'" in err
    assert out == ""


# ---------------------------------------------------------------------------
# size bounds: an oversized request is refused before any work starts
# ---------------------------------------------------------------------------


def _set(cfg, path, value):
    """cfg with the field at ``path`` (a tuple of keys) set to ``value``."""
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


OVERSIZED = {
    "sl3-abelian-D7": ("whittaker", "sl3-abelian", ("truncation", "D"), 7,
                       "basis at D=7"),
    "sl2-D40": ("whittaker", "sl2", ("truncation",), {"D": 40, "E": 40, "J": 1},
                "basis at D=40, E=40"),
    "tensor-D7": ("tensor", "tensor-sl2", ("truncation", "D"), 7, "basis at D=7"),
    "rank-3000-describe": ("describe", "sl2", ("algebra", "rank"), 3000,
                           "rank 3000 exceeds the bound 16"),
    "rank-3000-whittaker": ("whittaker", "sl2", ("algebra", "rank"), 3000,
                            "rank 3000 exceeds the bound 16"),
    "S-33": ("check-seq", "geo-family", ("S",), 33, "window S=33, W=20"),
    "W-129": ("check-seq", "geo-family", ("W",), 129, "window S=6, W=129"),
    "finite-span": ("check-seq", "geo-family", ("sequences", 0),
                    {"kind": "finite", "entries": {"0": "1", "100000": "1"}},
                    "finite literal spans indices 0..100000"),
    "finite-span-lam": ("whittaker", "sl2-loop", ("lam", "a1"),
                        {"kind": "finite", "entries": {"-600": "1", "600": "1"}},
                        "finite literal spans indices -600..600"),
    "J-20000-whittaker": ("whittaker", "sl2", ("truncation", "J"), 20000,
                          "condition window J=20000 exceeds the bound 100"),
    "J-101-tensor": ("tensor", "tensor-sl2", ("truncation", "J"), 101,
                     "condition window J=101 exceeds the bound 100"),
    "E-101-describe": ("describe", "sl3-borel", ("truncation", "E"), 101,
                       "exponent bound E=101 exceeds the bound 100"),
    "sequences-33": ("check-seq", "geo-family", ("sequences",),
                     [{"kind": "geometric", "j": "2"}] * 33,
                     "33 sequences exceed the bound 32"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_request_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, name
):
    command, preset, path, value, message = OVERSIZED[name]
    cfg = _set(presets.get_preset(preset), path, value)

    def refuse(*args, **kwargs):
        raise AssertionError("work started on an oversized request")

    guarded = [(cli.WhittakerModule, "basis"), (cli, "is_generic"),
               (cli, "window_rank_check"), (cli, "ordered_generators")]
    if path == ("algebra", "rank"):
        guarded.append((cli, "build_datum"))
    if path == ("sequences",):
        guarded.append((cli, "sequence_from_literal"))
    for owner, attr in guarded:
        monkeypatch.setattr(owner, attr, refuse)
    code, out, err = run_config(tmp_path, capsys, command, cfg)
    assert_one_line_error(code, err)
    assert message in err
    assert out == ""


@pytest.mark.parametrize("preset, D, E", [
    ("sl2", 2, 2), ("sl2-loop", 4, 2), ("sl3-abelian", 3, 1), ("sl3-borel", 2, 1),
    ("tensor-sl2", 2, 1), ("tensor-sl2", 2, 2),
])
def test_basis_bound_is_the_basis_size(monkeypatch, preset, D, E):
    # MAX_BASIS admits a basis of exactly its size and refuses one more
    cfg = presets.get_preset(preset)
    if "left" in cfg:
        specs = [cli.build_spec(cfg["left"]), cli.build_spec(cfg["right"])]
        size = 1
        for spec in specs:
            size *= len(cli.WhittakerModule(spec).basis(cli.Truncation(D, E, 0)))
    else:
        specs = [cli.build_spec(cfg)]
        size = len(cli.WhittakerModule(specs[0]).basis(cli.Truncation(D, E, 0)))
    trunc = cli.Truncation(D, E, 0)
    monkeypatch.setattr(cli, "MAX_BASIS", size)
    cli.check_basis_size(specs, trunc)
    monkeypatch.setattr(cli, "MAX_BASIS", size - 1)
    with pytest.raises(cli.ConfigError, match=f"more than {size - 1} monomials"):
        cli.check_basis_size(specs, trunc)


@pytest.mark.parametrize("preset, D, E, J", [
    ("sl2", 2, 2, 3), ("sl3-abelian", 2, 1, 2), ("sl3-borel", 2, 1, 2), ("tensor-sl2", 2, 1, 3),
])
def test_work_bound_is_conditions_times_basis_size(monkeypatch, preset, D, E, J):
    # MAX_WORK admits exactly the conditions times the basis size
    cfg = presets.get_preset(preset)
    parts = (cfg["left"], cfg["right"]) if "left" in cfg else (cfg,)
    specs = [cli.build_spec(part) for part in parts]
    trunc, size = cli.Truncation(D, E, J), 1
    for spec in specs:
        size *= len(cli.WhittakerModule(spec).basis(trunc))
    work = len(cli.WhittakerModule(specs[0]).condition_roots()) * (2 * J + 1) * size
    monkeypatch.setattr(cli, "MAX_WORK", work)
    cli.check_basis_size(specs, trunc)
    monkeypatch.setattr(cli, "MAX_WORK", work - 1)
    with pytest.raises(cli.ConfigError, match=f"= {work} exceed the work bound {work - 1}$"):
        cli.check_basis_size(specs, trunc)


def rank16_borel(J):
    """sl(17) Borel, a_i geometric with ratio i + 1, theta 1, D = 1, E = 10:
    3,194 basis monomials and 136 roots, within every other bound."""
    lam = {f"a{i}": {"kind": "geometric", "j": str(i + 1)} for i in range(1, 17)}
    return {"algebra": {"type": "A", "rank": 16, "levi": []}, "lam": lam,
            "theta": "1", "truncation": {"D": 1, "E": 10, "J": J}}


def test_work_bound_refuses_before_any_basis(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a basis was enumerated")

    monkeypatch.setattr(cli.WhittakerModule, "basis", refuse)
    code, out, err = run_config(tmp_path, capsys, "whittaker", rank16_borel(100))
    assert code == 1 and out == ""
    # the one line besides the genericity warning
    assert [line for line in err.splitlines() if not line.startswith("warning:")] == [
        "error: 27336 conditions x 3194 basis monomials = 87311184 exceed the work "
        "bound 1000000"
    ]
    # 1,303,152 at J = 1 is refused too; sl3-borel at D = 1, E = J = 100,
    # 603 x 1,007 = 607,221, is admitted
    with pytest.raises(cli.ConfigError, match="= 1303152 exceed"):
        cli.check_basis_size([cli.build_spec(rank16_borel(1))], cli.Truncation(1, 10, 1))
    borel = cli.build_spec(presets.get_preset("sl3-borel"))
    cli.check_basis_size([borel], cli.Truncation(1, 100, 100))


def test_max_basis_option(monkeypatch, capsys):
    # the sl2 preset's basis has 78 monomials
    monkeypatch.setattr(cli, "MAX_BASIS", 78)
    code, out, _ = run(capsys, "whittaker", "--preset", "sl2")
    assert code == 2 and "basis size 78" in out
    monkeypatch.setattr(cli, "MAX_BASIS", 77)
    code, out, err = run(capsys, "whittaker", "--preset", "sl2")
    assert_one_line_error(code, err)
    assert "more than 77 monomials" in err and out == ""
    # the bound is a constant, no longer a flag
    with pytest.raises(SystemExit):
        run(capsys, "whittaker", "--preset", "sl2", "--max-basis", "78")
    assert "unrecognized arguments: --max-basis" in capsys.readouterr().err


def test_largest_benchmark_window_is_admitted(tmp_path, capsys):
    cfg = {"sequences": [{"kind": "geometric", "j": "2"},
                         {"kind": "finite", "entries": {"-2": "1", "0": "3"}}],
           "S": 16, "W": 64}
    code, out, err = run_config(tmp_path, capsys, "check-seq", cfg)
    assert code == 0 and err == ""
    assert "shift bound S=16, window W=64" in out


def test_finite_span_bound_is_inclusive():
    lit = {"kind": "finite", "entries": {"0": "1", str(seqspace.MAX_SPAN): "1"}}
    assert seqspace.sequence_from_literal(lit).entry(seqspace.MAX_SPAN) == 1
    lit["entries"] = {"-1": "1", str(seqspace.MAX_SPAN): "1"}
    with pytest.raises(ValueError, match="spans indices"):
        seqspace.sequence_from_literal(lit)


# ---------------------------------------------------------------------------
# mutation run: every field of one config per command, deleted or replaced
# ---------------------------------------------------------------------------

DELETE = object()
MUTANTS = [DELETE, None, True, 1.5, "x", [], {}, -1, 7, "1/0", "0", 0, "-1", "1.5"]
BRACKET_GENS = ("X[1]@t^1", "X[-1]@t^-1")

# (command, preset, small-size overrides); the module runs are at (1, 1, 1)
MUTATION_RUNS = [
    ("describe", "sl3-abelian", {"truncation": {"D": 1, "E": 1, "J": 1}}),
    ("check-seq", "geo-family", {"S": 2, "W": 4}),
    ("whittaker", "sl2-const", {"truncation": {"D": 1, "E": 1, "J": 1}}),
    ("tensor", "tensor-sl2-neg", {"truncation": {"D": 1, "E": 1, "J": 1}}),
    ("bracket", "sl2", {}),
]


def field_paths(node, prefix=()):
    """The path of every field of a JSON value: dict keys and list slots."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def mutated(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


@pytest.mark.parametrize(
    "command, preset, overrides", MUTATION_RUNS, ids=[r[0] for r in MUTATION_RUNS]
)
def test_mutated_configs_exit_cleanly(tmp_path, capsys, command, preset, overrides):
    """Every mutant exits 0, 1 or 2, and an exit 1 prints exactly one
    stderr line, starting with ``error:``; nothing escapes ``main``."""
    base = dict(presets.get_preset(preset), **overrides)
    path = tmp_path / "cfg.json"
    argv = [command, *(BRACKET_GENS if command == "bracket" else ()),
            "--config", str(path)]
    fields = list(field_paths(base))
    assert len(fields) >= 10
    escapes = []
    for field in fields:
        for value in MUTANTS:
            path.write_text(json.dumps(mutated(base, field, value)))
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escape is what this test looks for
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or (
                code == 1
                and not (err.startswith("error:") and len(err.splitlines()) == 1)
            ):
                mutant = "deleted" if value is DELETE else json.dumps(value)
                escapes.append(f"{'.'.join(map(str, field))} = {mutant}: {code} {err!r}")
    assert not escapes, "\n".join(escapes)
