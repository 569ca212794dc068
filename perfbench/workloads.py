"""Workloads of the afnd benchmark: seeded scenario inputs and expected reports.

A workload is a list of ops.  One op is one scenario file run through
`afnd.cli.run_scenario` at a fixed truncation degree and rendered with
`afnd.cli.render_report`.  Every op carries its expected outcome, so each
pass is checked byte for byte.

Only `mixed-generic` depends on the seed: the seed picks 5-adic units for
the coefficients of its relations and norm-table elements.  The generator
writes the scenario file and the program reads only that file.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from string import Template
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUNDLED = ROOT / "scenarios"
SCENARIOS = HERE / "scenarios"
EXPECTED = HERE / "expected"
INPUTS = HERE / "out" / "inputs"  # generated scenario files

DEFAULT_SEED = 0
# Integers prime to 5: multiplying a coefficient by one keeps its 5-adic norm.
UNITS = (1, 2, 3, 4, 6, 7, 8, 9)

# The known crash of `check points cover A V1 V2 V3` on the chained piece V2:
# `spectrum.domain_of` keeps only the last localization step, whose `g` lives
# in the extended ambient, and `TateElement.evaluate` rejects the point.
KNOWN_CRASH = (ValueError, "one coordinate per variable required")

OK, KNOWN, FAILED = "ok", "known-failure", "failed"


@dataclass(frozen=True)
class Op:
    name: str
    path: Path
    degree: Optional[int]
    expected: Optional[str]  # exact report text; None means a cover check
    # that either hits KNOWN_CRASH or reports the family covered.

    def run(self, cli) -> tuple[str, float]:
        """Run the op through `cli`; returns its outcome and its wall time."""
        text = exc = None
        t0 = time.perf_counter()
        try:
            # Looked up on the module at call time, so tracing sees them.
            text = cli.render_report(
                cli.run_scenario(str(self.path), self.degree)
            )
        except Exception as e:  # every failure of an op is counted
            exc = e
        seconds = time.perf_counter() - t0
        return self.judge(text, exc), seconds

    def judge(self, text: Optional[str], exc: Optional[BaseException]) -> str:
        """Classify one run of the op as OK, KNOWN or FAILED."""
        if exc is not None:
            known_type, known_msg = KNOWN_CRASH
            if (
                self.expected is None
                and type(exc) is known_type
                and str(exc) == known_msg
            ):
                return KNOWN
            return FAILED
        if self.expected is not None:
            return OK if text == self.expected else FAILED
        checks = json.loads(text)["checks"]
        covered = all(
            c["kind"] == "cover" and c["verdict"] == "covered"
            and not c["witnesses"]
            for c in checks
        )
        return OK if checks and covered else FAILED


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


WHY = {
    "disk-deep": (
        "one prime, substitution/Laurent normal forms at D=32: time goes to "
        "linalg elimination and duplicate Cech piece proofs"
    ),
    "three-piece": (
        "three-piece cover with a chained localization at D=16: wide "
        "complexes, so tate matrix assembly dominates"
    ),
    "mixed-generic": (
        "radius 2 over Q_5 at D=8: generic normal forms, norm-aware "
        "pivoting and mixed-prime NormValue compares"
    ),
}
NAMES = tuple(WHY)


def _term(c: Fraction | int, monomial: str) -> str:
    """A positive term as `TateElement.__str__` prints it."""
    return monomial if c == 1 else f"{c}*{monomial}"


def mixed_generic_inputs(seed: int) -> tuple[str, dict[str, str]]:
    """Scenario text for `seed` and the predicted norm-table strings.

    With relation a*x^2 - 5b*y the normal form replaces x^2 by (5b/a)*y, so
    5e + f*x^3*y reduces to 5e + (5fb/a)*x*y^2 and g*x^4 + h*y^5 to
    (25gb^2/a^2)*y^2 + h*y^5.  Gauss norms, ranks and verdicts do not
    depend on the units.
    """
    rng = random.Random(seed)
    a, b, c, d, e, f, g, h = (rng.choice(UNITS) for _ in range(8))
    fields = {
        "rel_m": f"{_term(a, 'x^2')} - {5 * b}*y",
        "rel_n": f"{_term(c, 'x*y')} - {5 * d}",
        "element1": f"{5 * e} + {_term(f, 'x^3*y')}",
        "element2": f"{_term(g, 'x^4')} + {_term(h, 'y^5')}",
    }
    predicted = {
        "element1": fields["element1"],
        "reduced1": f"{5 * e} + {_term(Fraction(5 * f * b, a), 'x*y^2')}",
        "element2": fields["element2"],
        "reduced2": (
            f"{_term(Fraction(25 * g * b * b, a * a), 'y^2')} + "
            f"{_term(h, 'y^5')}"
        ),
    }
    text = Template(
        (SCENARIOS / "mixed_generic.afnd.tmpl").read_text(encoding="utf-8")
    ).substitute(fields)
    return text, predicted


def _expected(*parts: str) -> str:
    return EXPECTED.joinpath(*parts).read_text(encoding="utf-8")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload `name` for `seed`; generated files go under `workdir`."""
    if name == "disk-deep":
        ops = (
            Op("unit_disk@32", BUNDLED / "unit_disk.afnd", 32,
               _expected("disk-deep", "unit_disk.d32.json")),
            Op("gap_cover", BUNDLED / "gap_cover.afnd", None,
               _expected("disk-deep", "gap_cover.json")),
            Op("norm_table", BUNDLED / "norm_table.afnd", None,
               _expected("disk-deep", "norm_table.json")),
        )
    elif name == "three-piece":
        ops = (
            Op("three_piece", SCENARIOS / "three_piece.afnd", 16,
               _expected("three-piece", "three_piece.json")),
            Op("three_piece_points", SCENARIOS / "three_piece_points.afnd",
               16, None),
        )
    elif name == "mixed-generic":
        text, predicted = mixed_generic_inputs(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"mixed_generic.seed{seed}.afnd"
        path.write_text(text, encoding="utf-8")
        quoted = {k: json.dumps(v)[1:-1] for k, v in predicted.items()}
        report = Template(
            _expected("mixed-generic", "mixed_generic.json.tmpl")
        ).substitute(quoted)
        ops = (Op("mixed_generic", path, 8, report),)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return Workload(name, WHY[name], ops)
