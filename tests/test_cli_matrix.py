"""The CLI run matrix: every bundled scenario at several degrees, pinned.

The runs are every `scenarios/*.afnd`, both `perfbench/scenarios/three_piece*`
files and the `mixed-generic` benchmark scenario for seeds 0-9, each at its
own degree and at `--degree` 3, 6, 12 and 20: 95 runs through
`afnd.cli.main`.  Each run is pinned by the sha256 of its stdout, its exit
code and its `error:` line, if any, in `golden/cli_matrix.json`.  A run is
keyed by its path relative to the repository and its degree, since two
files are named `three_piece.afnd`.

After a change that is meant to alter a report, regenerate the digests
with `PYTHONPATH=src python tests/test_cli_matrix.py` and review the diff.
"""

import hashlib
import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from afnd.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The benchmark directory is not installed; it is read from the checkout.
sys.path.insert(0, str(ROOT))
from perfbench.workloads import mixed_generic_inputs  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "cli_matrix.json"
DEGREES = (None, 3, 6, 12, 20)  # None: the scenario's own degree
SEEDS = range(10)
FILES = sorted(
    p.relative_to(ROOT).as_posix()
    for p in [
        *(ROOT / "scenarios").glob("*.afnd"),
        *(ROOT / "perfbench" / "scenarios").glob("three_piece*.afnd"),
    ]
)


def _key(label: str, degree) -> str:
    return f"{label} @ {'D' if degree is None else degree}"


def _run(path: pathlib.Path, degree) -> dict:
    """One CLI run: its stdout digest, exit code and `error:` line."""
    argv = [str(path)] + ([] if degree is None else ["--degree", str(degree)])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "error": errors[-1] if errors else None,
    }


def _rows(label: str, path: pathlib.Path) -> dict:
    return {_key(label, d): _run(path, d) for d in DEGREES}


def _seed_file(workdir: pathlib.Path, seed: int) -> pathlib.Path:
    text, _ = mixed_generic_inputs(seed)
    path = workdir / f"mixed_generic.seed{seed}.afnd"
    path.write_text(text, encoding="utf-8")
    return path


def _seed_label(seed: int) -> str:
    return f"perfbench/scenarios/mixed_generic.afnd.tmpl seed {seed}"


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_matrix_has_95_runs():
    golden = _golden()
    assert len(FILES) == 9
    assert len(golden) == (len(FILES) + len(SEEDS)) * len(DEGREES) == 95
    assert set(golden) == {
        _key(label, d)
        for label in [*FILES, *map(_seed_label, SEEDS)]
        for d in DEGREES
    }


@pytest.mark.parametrize("rel", FILES)
def test_bundled_scenario_runs_match_the_matrix(rel):
    expected = _golden()
    rows = _rows(rel, ROOT / rel)
    assert rows == {k: expected[k] for k in rows}


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_generic_runs_match_the_matrix(tmp_path, seed):
    expected = _golden()
    rows = _rows(_seed_label(seed), _seed_file(tmp_path, seed))
    assert rows == {k: expected[k] for k in rows}


if __name__ == "__main__":
    import tempfile

    matrix = {}
    for rel in FILES:
        matrix.update(_rows(rel, ROOT / rel))
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            path = _seed_file(pathlib.Path(tmp), seed)
            matrix.update(_rows(_seed_label(seed), path))
    GOLDEN.write_text(json.dumps(matrix, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(matrix)} runs to {GOLDEN}", file=sys.stderr)
