"""The afnd benchmark: time to a checked scenario report, end to end and per layer.

    python3 perfbench/run.py --workload disk-deep --seed 0 --seconds 35 --trace 0

One process, no threads, closed loop: a pass runs the workload's ops one
after another (parse + run + render through `afnd.cli`), and the next pass
starts when the previous one has finished.  Every report is checked against
the expected one.  `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a separately traced run.  The last line of output
is one JSON object; the lines before it list the same metrics for reading.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 60
SETUP_REPEATS = 11
REFERENCE_TERMS = 5000
# A traced run spends a third of --seconds on untraced passes, then makes
# this many traced passes; their counts must agree.
TRACED_PASSES = 3

END_TO_END = (
    ("scenario_s", "s"),
    ("scenario_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_afnd():
    """Import afnd from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import afnd.cli
    except ImportError as exc:
        raise BenchError(f"cannot import afnd from {src}: {exc}") from exc
    if src not in Path(afnd.cli.__file__).resolve().parents:
        raise BenchError(f"afnd was imported from {afnd.cli.__file__}")
    return afnd.cli


def run_child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes over one workload and counts the outcome of every op."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.outcomes: Counter = Counter()  # outcome -> ops
        self.failed_ops: Counter = Counter()  # op name -> failed runs

    def record(self, op, outcome: str) -> None:
        self.outcomes[outcome] += 1
        if outcome == workloads.FAILED:
            self.failed_ops[op.name] += 1

    def one_pass(self) -> float:
        """Run every op once; returns the summed wall time of the ops."""
        total = 0.0
        for op in self.workload.ops:
            outcome, seconds = op.run(self.cli)
            total += seconds
            self.record(op, outcome)
        return total

    def passes(self, seconds: float, between=None) -> list[float]:
        """Passes until the next one would end after `seconds`; at least one.

        `between(elapsed_share)` runs after each pass, outside its timing.
        """
        times: list[float] = []
        start = time.perf_counter()
        deadline = start + seconds
        while not times or time.perf_counter() + times[-1] <= deadline:
            times.append(self.one_pass())
            if between is not None:
                between((time.perf_counter() - start) / seconds)
        return times


def tail_note(times: list[float]) -> str:
    """The highest percentile with 10 passes beyond it, when there is one."""
    n = len(times)
    if n < 20:
        return "too few passes for a tail percentile with 10 beyond it"
    return (
        f"p{100 * (n - 10) // n} = {sorted(times)[n - 11]!r} s "
        f"(10 passes beyond it)"
    )


def reference_s() -> float:
    """Wall time of a fixed Fraction loop that does not touch afnd.

    The host's speed changes by up to 1.6x for seconds to minutes at a time.
    The loop, timed next to each pass, slows down and speeds up with it.
    """
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        x += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def end_to_end(runner: Runner, seed: int, seconds: float) -> tuple[dict, list]:
    wl = runner.workload
    files = [str(op.path) for op in wl.ops]
    run_child("setup", *files)  # warm-up: writes bytecode caches
    setups: list[float] = []
    refs_before = [reference_s()]
    refs_after: list[float] = []

    def between(share: float) -> None:
        refs_after.append(reference_s())
        # Spread the set-ups over the run, so that they see the same
        # changes in the host's speed as the passes do.
        while len(setups) < min(SETUP_REPEATS, share * SETUP_REPEATS):
            setups.append(run_child("setup", *files)["setup_s"])
        refs_before.append(reference_s())

    times = runner.passes(seconds, between)
    between(1.0)
    ratios = [
        t / ((before + after) / 2)
        for t, before, after in zip(times, refs_before, refs_after)
    ]
    child = run_child("pass", wl.name, str(seed))
    for op, outcome in zip(wl.ops, child["outcomes"]):
        runner.record(op, outcome)
    attempted = sum(runner.outcomes.values())
    ok = runner.outcomes[workloads.OK]
    metrics = {
        "scenario_s": statistics.median(times),
        "scenario_ref": statistics.median(ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["rss_kb"] / 1024,
        "ok_share": ok / attempted,
    }
    notes = [
        f"scenario_s: median of {len(times)} passes (min {min(times):.4f} s, "
        f"max {max(times):.4f} s); {tail_note(times)}",
        f"scenario_ref: median of {len(ratios)} pass / reference-loop ratios; "
        f"reference loop median {statistics.median(refs_after)!r} s",
        f"setup_s: median of {SETUP_REPEATS} fresh interpreters",
        f"failed_share: {(attempted - ok) / attempted!r} "
        f"({attempted - ok} of {attempted} ops)",
    ]
    return metrics, notes


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list, bool]:
    untraced = runner.passes(seconds / 3)
    tracer = spans.Tracer(time.perf_counter)
    uninstall = spans.install(tracer)
    traced: list[float] = []
    per_pass: list[tuple[range, Counter]] = []
    try:
        for pass_id in range(TRACED_PASSES):
            tracer.begin_pass(pass_id)
            first = len(tracer.name_of)
            traced.append(runner.one_pass())
            per_pass.append((range(first, len(tracer.name_of)), tracer.counts))
    finally:
        uninstall()
    t_post = time.perf_counter()
    rows = [spans.layer_metrics(tracer, list(r), c) for r, c in per_pass]
    tracer.write(OUT / f"spans-{runner.workload.name}.tsv.gz")
    traced_s = statistics.median(traced)
    untraced_s = statistics.median(untraced)
    metrics, notes, steady = {}, [], True
    for name, unit in spans.PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = traced_s - untraced_s
            continue
        values = [row[name] for row in rows]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                steady = False
                notes.append(f"{name} differs between traced passes: {values}")
    notes.append(
        f"traced passes: {len(traced)}, median {traced_s!r} s; untraced "
        f"passes: {len(untraced)}, median {untraced_s!r} s; spans: "
        f"{len(tracer.name_of)}, derived and written in "
        f"{time.perf_counter() - t_post:.2f} s"
    )
    return metrics, notes, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_afnd()
        wl = workloads.build(args.workload, args.seed, workloads.INPUTS)
        runner = Runner(cli, wl)
        if args.trace:
            metrics, notes, steady = per_layer(runner, args.seconds)
            units = dict(spans.PER_LAYER)
        else:
            metrics, notes = end_to_end(runner, args.seed, args.seconds)
            steady, units = True, dict(END_TO_END)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = runner.outcomes[workloads.FAILED]
    correct = failed == 0 and steady
    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    for note in notes:
        print(f"  {note}")
    if runner.outcomes[workloads.KNOWN]:
        print(f"  known failures (counted against ok_share): "
              f"{runner.outcomes[workloads.KNOWN]}")
    for name, n in runner.failed_ops.items():
        print(f"  FAILED: op {name} in {n} runs")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(runner.outcomes.values()),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
