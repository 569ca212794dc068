"""Metric and workload names agree with BENCHMARK.json and its limits."""

import json
import re
from pathlib import Path

import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_emitted_names_are_well_formed_and_few():
    end_to_end = [name for name, _ in run.END_TO_END]
    per_layer = [name for name, _ in spans.PER_LAYER]
    assert len(end_to_end) <= 16
    assert len(per_layer) <= 128
    names = end_to_end + per_layer + list(workloads.NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit in (*run.END_TO_END, *spans.PER_LAYER):
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        name for name, _ in run.END_TO_END
    ]
    assert [m["unit"] for m in SPEC["end_to_end"]] == [
        unit for _, unit in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        spans.PER_LAYER
    )
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
        assert len(w["why"]) <= 200
