"""The scenario runner: parsing, execution, determinism, exit codes."""

import json
import logging
import pathlib
import subprocess
import sys

import pytest

import afnd.cli
from afnd.cli import ScenarioError, main, parse_scenario, render_report, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

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


def test_large_field_prime_runs_like_a_small_one(tmp_path):
    """Primality of the field prime is decided once, by Miller-Rabin, so
    the unit disk over Q_p with p = 2^61 - 1, where trial division of every
    norm value's key would not finish, gives the verdicts it gives over
    Q_5."""
    text = (SCENARIOS / "unit_disk.afnd").read_text(encoding="utf-8")
    path = tmp_path / "big_prime.afnd"
    path.write_text(text.replace("p-adic 5", f"p-adic {2**61 - 1}"))
    verdicts = [
        {c["name"]: c["verdict"] for c in run_scenario(str(f), 4)["checks"]}
        for f in (SCENARIOS / "unit_disk.afnd", path)
    ]
    assert verdicts[1] == verdicts[0]
    assert set(verdicts[0].values()) == {"holds", "exact", "covered", "ok"}


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


@pytest.mark.parametrize(
    "name, degree",
    [(path.stem, None) for path in sorted(SCENARIOS.glob("*.afnd"))]
    + [("unit_disk", 20), ("unit_disk", 32)],
)
def test_reports_match_golden(name, degree):
    # Reports of every bundled scenario, byte for byte; a scenario without
    # a golden fails.  A change to the elimination or assembly code must
    # leave every one of them intact.
    suffix = f".d{degree}" if degree is not None else ""
    expected = (GOLDEN / f"{name}{suffix}.json").read_text(encoding="utf-8")
    report = run_scenario(str(SCENARIOS / f"{name}.afnd"), degree)
    assert render_report(report) == expected


def _count_hoepi_calls(monkeypatch) -> list:
    """Count the homotopy-epi proofs that the CLI starts, for `hoepi`
    checks and `cech` pieces alike."""
    calls = []
    real = afnd.cli.is_homotopy_epi

    def counting(base, target, degree):
        calls.append((base, target, degree))
        return real(base, target, degree)

    monkeypatch.setattr(afnd.cli, "is_homotopy_epi", counting)
    return calls


def _cech_first(text: str) -> str:
    lines = text.splitlines()
    cech = next(ln for ln in lines if " cech " in ln)
    lines.remove(cech)
    lines.insert(next(i for i, ln in enumerate(lines)
                      if ln.startswith("check ")), cech)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("order", ["declared", "cech-first"])
def test_each_piece_is_proved_once_per_run(tmp_path, monkeypatch, order):
    text = (SCENARIOS / "unit_disk.afnd").read_text(encoding="utf-8")
    if order == "cech-first":
        text = _cech_first(text)
        assert text.index(" cech ") < text.index(" hoepi ")
    path = tmp_path / "unit_disk.afnd"
    path.write_text(text)
    expected = json.loads(
        (GOLDEN / "unit_disk.json").read_text(encoding="utf-8")
    )
    calls = _count_hoepi_calls(monkeypatch)
    report = run_scenario(str(path))
    # Two hoepi checks and a two-piece cech check share the two verdicts.
    assert len(calls) == 2
    assert len(set(calls)) == 2
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name == {c["name"]: c for c in expected["checks"]}


def test_malformed_check_is_found_before_any_check_runs(
    tmp_path, monkeypatch, capsys
):
    """An unknown check kind after two `hoepi` checks stops the run before
    either is proved."""
    text = (SCENARIOS / "unit_disk.afnd").read_text(encoding="utf-8")
    path = tmp_path / "unknown_kind.afnd"
    path.write_text(text + "check z frobnicate A\n")
    calls = _count_hoepi_calls(monkeypatch)
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    line = text.count("\n") + 1
    assert captured.err.splitlines()[-1] == (
        f"error: line {line}: unknown check kind 'frobnicate'"
    )


BAD_ELEMENT = """
scenario bad-element
degree 3
field p-adic 5
algebra A
  var x 1
end
localize V of A
  bound x 5^-1
end
check h hoepi A V
check n norm-table A
  element 3@
end
"""


@pytest.mark.parametrize(
    "text, argv, message",
    [
        # At --degree 3 the element on line 30 lies above the truncation.
        (
            None, ["--degree", "3"],
            "line 30: truncation degree 3 below the degree of the element",
        ),
        (BAD_ELEMENT, [], "line 13: bad element '3@': bad character at '@'"),
    ],
    ids=["generic-table-above-truncation", "bad-element-after-hoepi"],
)
def test_bad_norm_table_element_stops_the_run_before_any_check(
    tmp_path, monkeypatch, capsys, caplog, text, argv, message
):
    """A norm-table element is parsed and held to the truncation before the
    first check runs, so the run proves nothing and logs no failed check."""
    path = SCENARIOS / "generic_table.afnd"
    if text is not None:
        path = tmp_path / "bad_element.afnd"
        path.write_text(text)
    calls = _count_hoepi_calls(monkeypatch)
    assert main([str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert calls == []
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_fail_fast_stops_at_the_first_failing_check(capsys):
    # m-hoepi, the second check, fails: B -> B/(3x^2 - 10y) has Tor_1 != 0.
    assert main([str(SCENARIOS / "generic_table.afnd"), "--fail-fast"]) == 1
    report = json.loads(capsys.readouterr().out)
    expected = json.loads(
        (GOLDEN / "generic_table.json").read_text(encoding="utf-8")
    )
    assert report["all_passed"] is False
    assert report["checks"] == expected["checks"][:2]
    assert [c["verdict"] for c in report["checks"]] == ["holds", "fails"]


REFUSED = """
scenario refused
degree 6
field p-adic 5
algebra A
  var x 1
end
localize V1 of A
  bound x 5^-1
end
module M of A
  relation x
end
check pieces-acyclic cech A 2 V1 M
"""


def test_cech_with_a_failing_piece_is_refused(tmp_path, capsys):
    path = tmp_path / "refused.afnd"
    path.write_text(REFUSED)
    assert main([str(path)]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["verdict"] == "refused"
    assert check["detail"] == (
        "pieces not verified as homotopy epimorphisms: piece 1: fails "
        "(self-tensor has nonvanishing homology in negative degrees)"
    )
    assert check["positions"] == []


EMPTY_COVER = """
scenario empty-cover
degree 6
field p-adic 5
algebra A
  var x 1
end
localize E of A
  bound x 5^-1
  invert x 1
end
check c cech A 1 E
"""


def test_cech_of_an_empty_cover_fails(tmp_path, capsys):
    # E is empty, so d^0 : A -> E has no rows and all of A is its kernel.
    path = tmp_path / "empty.afnd"
    path.write_text(EMPTY_COVER)
    assert main([str(path)]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["verdict"] == "fails"
    assert check["detail"] == (
        "augmented cover complex not exact at this truncation"
    )


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


def test_internal_error_exits_2_with_one_line(
    tmp_path, capsys, monkeypatch, caplog
):
    """A crash inside a check is not a failed check: exit 2, one line on
    stderr, and the traceback only in the DEBUG log."""
    good = tmp_path / "good.afnd"
    good.write_text(MINIMAL)

    def crash(*args, **kwargs):
        raise RuntimeError("no such branch")

    monkeypatch.setattr(afnd.cli, "_run_check", crash)
    monkeypatch.delenv("AFND_LOG", raising=False)
    assert main([str(good)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: no such branch\n"
    assert not [r for r in caplog.records if r.exc_info]
    with caplog.at_level(logging.DEBUG, logger="afnd"):
        assert main([str(good)]) == 2
    [record] = [r for r in caplog.records if r.exc_info]
    assert record.levelno == logging.DEBUG
    assert record.exc_info[0] is RuntimeError


def test_main_json_flag(tmp_path):
    good = tmp_path / "good.afnd"
    good.write_text(MINIMAL)
    out = tmp_path / "out.json"
    assert main([str(good), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"]


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_json_exits_2_with_one_line(tmp_path, capsys, target):
    """A missing directory or a directory path is an input error (exit 2),
    not a traceback with the exit code of a failed check."""
    good = tmp_path / "good.afnd"
    good.write_text(MINIMAL)
    out = str(tmp_path / target)
    assert main([str(good), "--json", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report: ")
    assert err.count("\n") == 1
    assert repr(out) in err


def test_non_utf8_scenario_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "latin1.afnd"
    path.write_bytes(MINIMAL.encode("utf-8") + "# café\n".encode("latin-1"))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    line = MINIMAL.count("\n") + 1
    assert err == (
        f"error: line {line}: {path} is not UTF-8 text "
        "(invalid continuation byte)\n"
    )


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "afnd.cli", str(SCENARIOS / "norm_table.afnd")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scenario"] == "norm-table"


def test_library_runs_write_nothing_to_stderr():
    """A failing check is logged on the "afnd" logger.  Run as a library,
    with no logging configured, the run prints nothing; the CLI configures
    logging and still prints the warning.  A subprocess is used because
    pytest installs its own log handler."""
    src = str(pathlib.Path(afnd.cli.__file__).resolve().parent.parent)
    path = str(SCENARIOS / "generic_table.afnd")
    library = subprocess.run(
        [sys.executable, "-c",
         "import sys; from afnd.cli import run_scenario; "
         "assert not run_scenario(sys.argv[1])['all_passed']", path],
        capture_output=True, text=True, env={"PYTHONPATH": src},
    )
    assert (library.returncode, library.stderr) == (0, "")
    cli = subprocess.run(
        [sys.executable, "-m", "afnd.cli", path],
        capture_output=True, text=True, env={"PYTHONPATH": src},
    )
    assert cli.returncode == 1
    assert cli.stderr == "WARNING:afnd:check m-hoepi: fails\n"


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


QUOTIENT_BASE = """
scenario quotient-base
degree 4
field p-adic 5
algebra A
  var x 1
end
module M of A
  relation {relation}
end
localize V of M
  invert x 5
end
check c cech M 1 V
check d cover M V
"""


@pytest.mark.parametrize(
    "relation, status, verdict, witnesses",
    [
        # Sp(M) is the one point x = 1, which lies in |x| >= 5^-1.
        ("x - 1", 0, "covered", []),
        # Sp(M) is x = 0, which does not.
        ("x", 1, "uncovered", ["rigid(0)"]),
    ],
    ids=["point-in-piece", "point-outside-piece"],
)
def test_cover_of_a_quotient_base_samples_its_points(
    tmp_path, capsys, relation, status, verdict, witnesses
):
    """A cover check samples only the points of the base's root where each
    of its relations vanishes; Gauss points never do."""
    path = tmp_path / "quotient_base.afnd"
    path.write_text(QUOTIENT_BASE.format(relation=relation))
    assert main([str(path)]) == status
    check = json.loads(capsys.readouterr().out)["checks"][1]
    assert check["verdict"] == verdict
    assert check["points_checked"] == 1
    assert check["witnesses"] == witnesses


def test_a_zero_relation_is_not_a_koszul_relator(tmp_path, capsys):
    """M = A/(0) is A: the derived tensors behind hoepi and transversal
    leave the zero relation out of their Koszul complexes, as the
    presentation's own normal forms do, so K(0), whose H^-1 is A, is never
    built."""
    path = tmp_path / "zero_relation.afnd"
    path.write_text(
        "scenario z\ndegree 4\nfield p-adic 5\n"
        "algebra A\n  var x 1\nend\n"
        "module M of A\n  relation 0\nend\n"
        "check e epi A M\ncheck h hoepi A M\ncheck t transversal A M M\n"
    )
    assert main([str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["verdict"] for c in report["checks"]] == ["holds"] * 3


def test_cech_depth_above_pieces_plus_one_stops_the_run(
    tmp_path, monkeypatch, capsys
):
    """Levels past the number of pieces are empty, so a DEPTH above it plus
    one is malformed and is reported before any check runs."""
    text = (
        HEADER + "algebra A\n  var x 1\nend\n"
        "localize V of A\n  bound x 5^-1\nend\n"
        "check h hoepi A V\ncheck c cech A 3 V\n"
    )
    path = tmp_path / "deep.afnd"
    path.write_text(text)
    calls = _count_hoepi_calls(monkeypatch)
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 11: cech DEPTH 3 above the number of pieces plus one (2)\n"
    )
    assert calls == []
    path.write_text(text.replace("cech A 3 V", "cech A 2 V"))
    assert main([str(path)]) == 0
    assert len(calls) == 1


def test_cech_depth_below_the_number_of_pieces_stops_the_run(
    tmp_path, monkeypatch, capsys
):
    """A complex cut below its last nonempty level has a top whose
    cokernel is no obstruction: on the genuine cover |x| <= 5^-1,
    |x| >= 5^-1 of the unit disc, DEPTH 0 and 1 would read `fails`.  Such
    a DEPTH is malformed and is reported before any check runs."""
    text = (
        HEADER + "algebra A\n  var x 1\nend\n"
        "localize V1 of A\n  bound x 5^-1\nend\n"
        "localize V2 of A\n  invert x 5\nend\n"
        "check h hoepi A V1\ncheck c cech A 1 V1 V2\n"
    )
    path = tmp_path / "shallow.afnd"
    calls = _count_hoepi_calls(monkeypatch)
    for depth in ("0", "1"):
        path.write_text(text.replace("cech A 1", f"cech A {depth}"))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 14: cech DEPTH {depth} below the number of "
            "pieces (2)\n"
        )
    assert calls == []
    path.write_text(text.replace("cech A 1", "cech A 2"))
    assert main([str(path)]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "text, line, message",
    [
        # An algebra error is reported at its `var` line.
        (HEADER + "algebra A\n  var x 0\nend\n", 5, "radii must be positive"),
        (
            HEADER + "algebra A\n  var y 1\n  var x 0\nend\n",
            6,
            "radii must be positive",
        ),
        (
            HEADER + "algebra A\n  var x 1\n  var y 1\n  var x 1\nend\n",
            7,
            "variable 'x' is already declared on line 5",
        ),
        # A zero denominator in a norm value is a bad norm value.
        (
            HEADER + "algebra A\n  var x 1\n  var y 5^1/0\nend\n",
            6,
            "bad norm value '5^1/0': zero denominator",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^1/0\nend\n",
            8,
            "bad norm value '5^1/0': zero denominator",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  invert x 5^1/0\nend\n",
            8,
            "bad norm value '5^1/0': zero denominator",
        ),
        # A norm value that does not parse says what a norm value is.
        (
            HEADER + "algebra A\n  var x 1/5\nend\n",
            5,
            "bad norm value '1/5': expected 0, 1, or factors P or P^E "
            "joined by '*', with P a prime and E a rational literal\n",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^(1)\nend\n",
            8,
            "bad norm value '5^(1)': expected 0, 1, or factors P or P^E "
            "joined by '*', with P a prime and E a rational literal\n",
        ),
        # A bad norm-table element is reported at its own line, not at the
        # line of its check.
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "check t norm-table A\n  element x^5\nend\n",
            8,
            "truncation degree 3",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "check t norm-table A\n  element x\n  # comment\n"
            "  element x^5\nend\n",
            10,
            "truncation degree 3",
        ),
        (
            "scenario h\nfield trivial\nalgebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 1\nend\ncheck c cover A V\n",
            9,
            "cover checks sample points and need a p-adic field",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck c cover A A\n",
            7,
            "cover piece 'A' carries no localization data",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "module M of A\n  relation x\nend\ncheck c cover A M\n",
            10,
            "cover piece 'M' carries no localization data",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\nalgebra B\n  var y 1\nend\n"
            "localize W of B\n  bound y 5^-1\nend\ncheck c cover A W\n",
            13,
            "does not localize the polydisc",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\nalgebra C\n  var y 1\nend\n"
            "check c cech A 1 C\n",
            10,
            "every piece must be presented over the base",
        ),
        # Only the cech DEPTH may be numeric; any other number is an
        # algebra name that was never declared.
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck h hoepi A 2\n",
            7,
            "references undeclared algebra '2'",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck c cech A 1 2\n",
            7,
            "references undeclared algebra '2'",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck p cover A 3\n",
            7,
            "references undeclared algebra '3'",
        ),
        # A zero denominator in an element literal is a bad element.
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "check n norm-table A\n  element 3/0\nend\n",
            8,
            "bad element '3/0': zero denominator",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "module M of A\n  relation 1/0\nend\n",
            8,
            "bad element '1/0': zero denominator",
        ),
        # A digit that `int` rejects (a superscript) is not a number.
        (HEADER + "degree \u00b2\n", 4, "usage: degree D"),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^-1\nend\n"
            "check c cech A \u00b2 V\n",
            10,
            "references undeclared algebra '\u00b2'",
        ),
        # A check takes the arguments of its kind, no more and no fewer,
        # and its kind must be known.
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^-1\nend\n"
            "check e epi A V A\n",
            10,
            "usage: check NAME epi BASE TARGET",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^-1\nend\n"
            "check n norm-table A V\n  element x\nend\n",
            10,
            "usage: check NAME norm-table ALGEBRA",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^-1\nend\n"
            "check t transversal A V\n",
            10,
            "usage: check NAME transversal BASE MODULE TARGET",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck c cech A 1\n",
            7,
            "usage: check NAME cech BASE DEPTH PIECE...",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck c cover A\n",
            7,
            "usage: check NAME cover BASE PIECE...",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\ncheck z frobnicate A\n",
            7,
            "unknown check kind 'frobnicate'",
        ),
        # A prime above the Miller-Rabin bound cannot be certified.
        (
            "scenario h\nfield p-adic 1000000000000000000000007\n",
            2,
            "too large to certify as prime",
        ),
        (
            "scenario h\nfield p-adic 3215031751\n",
            2,
            "p-adic mode needs a prime",
        ),
        # A second declaration of a name is an error, not a replacement.
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^-1\nend\n"
            "algebra A\n  var x 1\nend\ncheck h hoepi A V\n",
            10,
            "'A' is already declared on line 4",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "module A of A\n  relation x\nend\n",
            7,
            "'A' is already declared on line 4",
        ),
        (
            HEADER + "algebra A\n  var x 1\nend\n"
            "localize V of A\n  bound x 5^-1\nend\n"
            "localize V of A\n  invert x 5\nend\n",
            10,
            "'V' is already declared on line 7",
        ),
    ],
    ids=["zero-radius", "zero-radius-second-var", "duplicate-var",
         "var-zero-denominator", "bound-zero-denominator",
         "invert-zero-denominator", "var-not-a-norm-value",
         "bound-not-a-norm-value", "norm-table-above-truncation",
         "norm-table-element-after-comment", "cover-trivial-field",
         "cover-of-non-localization", "cover-piece-is-a-module",
         "cover-piece-on-another-polydisc",
         "cech-piece-not-over-base", "hoepi-numeric-target",
         "cech-numeric-piece", "cover-numeric-piece",
         "norm-table-zero-denominator", "relation-zero-denominator",
         "superscript-degree", "superscript-cech-depth",
         "epi-extra-argument", "norm-table-extra-argument",
         "transversal-missing-argument", "cech-missing-piece",
         "cover-missing-piece", "unknown-check-kind",
         "prime-above-bound", "strong-pseudoprime", "algebra-redeclared",
         "module-redeclares-algebra", "localize-redeclared"],
)
def test_library_errors_exit_2_with_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.afnd"
    path.write_text(text)
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert message in err
    assert err.count("\n") == 1  # one line, no traceback
