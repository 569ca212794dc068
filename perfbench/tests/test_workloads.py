"""Seeded inputs, expected reports and the outcome of an op."""

import pytest

import workloads
from workloads import FAILED, KNOWN, OK


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    a = workloads.build("mixed-generic", 7, tmp_path / "a")
    b = workloads.build("mixed-generic", 7, tmp_path / "b")
    assert a.ops[0].path.read_bytes() == b.ops[0].path.read_bytes()
    assert a.ops[0].expected == b.ops[0].expected


def test_seeds_change_coefficients_only():
    texts = {workloads.mixed_generic_inputs(s)[0] for s in range(20)}
    assert len(texts) > 1
    shapes = {
        tuple(line.split()[0] for line in t.splitlines() if line.strip())
        for t in texts
    }
    assert len(shapes) == 1


def test_fixed_workloads_ignore_the_seed(tmp_path):
    for name in ("disk-deep", "three-piece"):
        assert workloads.build(name, 1, tmp_path) == workloads.build(
            name, 2, tmp_path
        )


@pytest.mark.parametrize("seed", [0, 5])
def test_predicted_report_matches_the_program(tmp_path, seed):
    from afnd.cli import render_report, run_scenario

    op = workloads.build("mixed-generic", seed, tmp_path).ops[0]
    text = render_report(run_scenario(str(op.path), op.degree))
    assert op.judge(text, None) == OK


def test_judge_classifies_outcomes(tmp_path):
    report, points = workloads.build("three-piece", 0, tmp_path).ops
    assert report.judge(report.expected, None) == OK
    assert report.judge(report.expected + " ", None) == FAILED
    assert report.judge(None, RuntimeError("boom")) == FAILED
    crash = ValueError("one coordinate per variable required")
    assert points.judge(None, crash) == KNOWN
    assert report.judge(None, crash) == FAILED
    covered = '{"checks": [{"kind": "cover", "verdict": "covered", "witnesses": []}]}'
    assert points.judge(covered, None) == OK
    uncovered = covered.replace('"covered"', '"uncovered"')
    assert points.judge(uncovered, None) == FAILED
