"""The scenario runner: parsing, execution, determinism, exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from afnd.cli import ScenarioError, main, parse_scenario, render_report, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
scenario t
degree 6
field p-adic 5
algebra A
  var x 1
end
check norms norm-table A
  element 5 + x
end
"""


def test_parse_minimal():
    sc = parse_scenario(MINIMAL)
    assert sc.name == "t"
    assert sc.degree == 6
    assert "A" in sc.algebras
    assert sc.checks[0].kind == "norm-table"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("scenario t\nfield p-adic 5\nbogus directive\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(ScenarioError):
        parse_scenario("scenario t\nalgebra A\n  var x 1\nend\n")  # no field
    with pytest.raises(ScenarioError) as exc2:
        parse_scenario(MINIMAL.replace("norm-table A", "norm-table Z"))
    assert "undeclared" in str(exc2.value)


def test_run_scenario_report(tmp_path):
    path = tmp_path / "t.afnd"
    path.write_text(MINIMAL)
    report = run_scenario(str(path))
    assert report["all_passed"]
    assert report["checks"][0]["table"][0]["gauss_norm"] == "1"


def test_degree_override(tmp_path):
    path = tmp_path / "t.afnd"
    path.write_text(MINIMAL)
    assert run_scenario(str(path), degree=9)["degree"] == 9


def test_bundled_unit_disk_all_pass():
    report = run_scenario(str(SCENARIOS / "unit_disk.afnd"))
    assert report["all_passed"]
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts["cover-acyclic"] == "exact"
    assert verdicts["cover-points"] == "covered"


def test_bundled_gap_cover_fails_with_witness():
    report = run_scenario(str(SCENARIOS / "gap_cover.afnd"))
    assert not report["all_passed"]
    check = report["checks"][0]
    assert check["verdict"] == "uncovered"
    assert check["witnesses"] == ["gauss(0±5^-1/2)"]


def test_reports_are_byte_identical():
    for name in ("unit_disk.afnd", "norm_table.afnd", "gap_cover.afnd"):
        a = render_report(run_scenario(str(SCENARIOS / name)))
        b = render_report(run_scenario(str(SCENARIOS / name)))
        assert a == b


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.afnd"
    good.write_text(MINIMAL)
    assert main([str(good)]) == 0
    out = capsys.readouterr().out
    json.loads(out)  # the report is valid JSON
    bad = tmp_path / "bad.afnd"
    bad.write_text(MINIMAL + "\ncheck broken hoepi A Z\n")
    assert main([str(bad)]) == 2
    assert main([str(tmp_path / "missing.afnd")]) == 2


def test_main_json_flag(tmp_path):
    good = tmp_path / "good.afnd"
    good.write_text(MINIMAL)
    out = tmp_path / "out.json"
    assert main([str(good), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "afnd.cli", str(SCENARIOS / "norm_table.afnd")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scenario"] == "norm-table"


THREE_PIECE_POINTS = """
scenario three-piece-points
degree 16
field p-adic 5
algebra A
  var x 1
end
localize V1 of A
  bound x 5^-2
end
localize V2 of A
  bound x 5^-1
  invert x 5^2
end
localize V3 of A
  invert x 5
end
check points cover A V1 V2 V3
"""


LOCALIZED_BASE = """
scenario localized-base
degree 8
field p-adic 5
algebra A
  var x 1
end
localize V of A
  bound x 5^-1
end
localize W1 of V
  bound x 5^-2
end
localize W2 of V
  invert x {r}
end
check c cover V W1 W2
"""


@pytest.mark.parametrize(
    "text, verdict, points, witnesses",
    [
        # V2 is |x| <= 5^-1 followed by |x| >= 5^-2; its second inequality
        # lives in the intermediate ambient (x, T) and must be read on (x).
        (THREE_PIECE_POINTS, "covered", 9, []),
        # The base V is |x| <= 5^-1 on the disc |x| <= 1: only the six
        # sample points of the disc that lie in V are checked.
        (LOCALIZED_BASE.format(r="5^2"), "covered", 6, []),
        (LOCALIZED_BASE.format(r="5"), "uncovered", 6, ["gauss(0±5^-3/2)"]),
    ],
    ids=["three-piece", "localized-base", "localized-base-gap"],
)
def test_cover_with_chained_localization(
    tmp_path, text, verdict, points, witnesses
):
    path = tmp_path / "cover.afnd"
    path.write_text(text)
    check = run_scenario(str(path))["checks"][0]
    assert check["verdict"] == verdict
    assert check["points_checked"] == points
    assert check["witnesses"] == witnesses


HEADER = "scenario h\ndegree 3\nfield p-adic 5\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (HEADER + "algebra A\n  var x 0\nend\n", 4, "radii must be positive"),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "check t norm-table A\n  element x^5\nend\n",
            7,
            "truncation degree 3",
        ),
        (
            "scenario h\nfield trivial\nalgebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 1\nend\ncheck c cover A V\n",
            9,
            "p-adic",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck c cover A A\n",
            7,
            "no localization data",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\nalgebra B\n  var y 1\nend\n"
            "localize W of B\n  bound y 5^-1\nend\ncheck c cover A W\n",
            13,
            "does not localize the polydisc",
        ),
    ],
    ids=["zero-radius", "norm-table-above-truncation", "cover-trivial-field",
         "cover-of-non-localization", "cover-piece-on-another-polydisc"],
)
def test_library_errors_exit_2_with_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.afnd"
    path.write_text(text)
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert message in err
