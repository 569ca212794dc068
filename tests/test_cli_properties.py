"""A mutated scenario fails cleanly; skipped without hypothesis.

Each example takes a bundled scenario and deletes, duplicates or swaps a
line, or replaces one token with a token from the same file, then runs the
CLI on it at --degree 3.  Whatever the mutation breaks, the run ends with
exit 0 or 1 and a report, or exit 2 and exactly one `error:` line, never a
traceback or an internal error.
"""

import contextlib
import io
import pathlib
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.cli import main  # noqa: E402

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
TEXTS = [p.read_text(encoding="utf-8") for p in sorted(SCENARIOS.glob("*.afnd"))]


@st.composite
def mutated_scenarios(draw):
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    # Comments and blank lines are left alone: mutating them tests nothing.
    live = [
        k for k, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    i = draw(st.sampled_from(live))
    op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = draw(st.sampled_from(live))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = sorted({t for k in live for t in lines[k].split()})
        words = lines[i].split()
        k = draw(st.integers(0, len(words) - 1))
        words[k] = draw(st.sampled_from(tokens))
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = indent + " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenarios_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.afnd"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path), "--degree", "3"])
    stderr = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    assert "internal error" not in stderr, stderr
    if code == 2:
        errors = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1, stderr
        assert out.getvalue() == ""
