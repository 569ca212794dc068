"""Scenario runner: declarative verification files and deterministic reports.

A scenario file is line oriented.  Blank lines and `#` comments are ignored.
Multi-line constructs open with a header and close with `end`:

    scenario unit-disk
    degree 12
    field p-adic 5

    algebra A
      var x 1
    end

    localize V1 of A
      bound x 5^-1          # |x| <= 5^-1
    end

    localize V2 of A
      invert x 5            # |x| >= 5^-1 (inverting variable has radius 5)
    end

    module M of A
      relation x
    end

    check disk-hoepi hoepi A V1
    check acyclic cech A 2 V1 V2
    check points cover A V1 V2
    check fiber transversal A M V2
    check norms norm-table A
      element 5 + x^2
    end

Checks run in declaration order and the JSON report lists them in that
order.  Reports contain no timestamps or timings, so two runs on the same
input produce byte-identical output.  The exit status is 0 exactly when
every check verdict is holds / exact / covered / ok, and 2 with a
`line N:` message when the file is malformed, is not UTF-8 text, or the
library rejects what a line asks for (a zero radius, a norm-table element
above the truncation, a field prime above the Miller-Rabin bound).  A check
of an unknown kind, or with the wrong number of arguments for its kind, is
malformed and is reported before any check runs, as is a norm-table element
that does not parse or lies above the truncation.  So is a `cech` DEPTH
above the number of pieces plus one, since the levels past the number of
pieces are empty, or below the number of pieces, since the complex cut
there has a top level whose cokernel is no obstruction.  A `cover` check
samples only points of the spectrum of the algebra at the root of the
base's localization chain, where every relation of that algebra vanishes.
Each `algebra`, `localize` and `module` declares a new name; declaring one
twice is malformed.  A `--json` file that cannot be written exits 2 with
one `error:` line naming it.  An unexpected exception also exits 2, with
one `error: internal error:` line, so that a crash never reads as a failed
check (exit 1).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from afnd.affinoid import (
    AffinoidPresentation,
    free_affinoid,
    laurent_localization,
    localization_path,
    quotient,
    weierstrass_localization,
)
from afnd.cech import CoverData, acyclicity_check
from afnd.complexes import CycleWitness
from afnd.homotopy import (
    MorphismVerdict,
    check_transversal,
    is_epimorphism,
    is_homotopy_epi,
)
from afnd.scalar import FieldSpec, NormValue
from afnd.spectrum import (
    cover_check,
    default_sample,
    domain_of,
    member,
    seminorm,
)
from afnd.tate import ElementSyntaxError, Polyradius, TateElement, parse_element

log = logging.getLogger("afnd")

PASSING = {"holds", "exact", "covered", "ok"}

# Each check kind: its arguments, and the fewest and most it takes (None:
# no most).
CHECK_ARGS = {
    "epi": ("BASE TARGET", 2, 2),
    "hoepi": ("BASE TARGET", 2, 2),
    "transversal": ("BASE MODULE TARGET", 3, 3),
    "norm-table": ("ALGEBRA", 1, 1),
    "cech": ("BASE DEPTH PIECE...", 3, None),
    "cover": ("BASE PIECE...", 2, None),
}


class ScenarioError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


@dataclass
class CheckSpec:
    name: str
    kind: str
    args: list[str]
    elements: list[tuple[int, str]] = field(default_factory=list)
    line: int = 0


@dataclass
class Scenario:
    name: str
    field_spec: FieldSpec
    degree: int
    algebras: dict[str, AffinoidPresentation]
    checks: list[CheckSpec]


# -- parsing ---------------------------------------------------------------


def _tokens(raw: str) -> list[str]:
    return raw.split("#", 1)[0].split()


def _parse_radius(text: str, lineno: int) -> NormValue:
    try:
        return NormValue.parse(text)
    except ZeroDivisionError:
        raise ScenarioError(f"bad norm value {text!r}: zero denominator", lineno)
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"bad norm value {text!r}: {exc}", lineno)


@contextmanager
def _at_line(lineno: int) -> Iterator[None]:
    """Report a ValueError (PresentationError included) raised by the
    library as a ScenarioError at `lineno`."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), lineno) from None


def _parse_expr(
    text: str, ambient: Polyradius, lineno: int
) -> TateElement:
    try:
        return parse_element(text, ambient)
    except ElementSyntaxError as exc:
        raise ScenarioError(f"bad element {text!r}: {exc}", lineno)


def parse_scenario(text: str) -> Scenario:
    lines = text.splitlines()
    name = "scenario"
    field_spec: Optional[FieldSpec] = None
    degree: Optional[int] = None
    algebras: dict[str, AffinoidPresentation] = {}
    checks: list[CheckSpec] = []
    i = 0
    n = len(lines)

    def collect_block(start: int) -> tuple[list[tuple[int, list[str]]], int]:
        body = []
        j = start
        while j < n:
            toks = _tokens(lines[j])
            if toks == ["end"]:
                return body, j + 1
            if toks:
                body.append((j + 1, toks))
            j += 1
        raise ScenarioError("unterminated block", start)

    declared: dict[str, int] = {}  # algebra name -> its declaring line

    def declare(ref: str, lineno: int) -> None:
        if ref in declared:
            raise ScenarioError(
                f"{ref!r} is already declared on line {declared[ref]}", lineno
            )
        declared[ref] = lineno

    def need_algebra(ref: str, lineno: int) -> AffinoidPresentation:
        if ref not in algebras:
            raise ScenarioError(f"undeclared algebra {ref!r}", lineno)
        return algebras[ref]

    while i < n:
        lineno = i + 1
        toks = _tokens(lines[i])
        if not toks:
            i += 1
            continue
        head = toks[0]
        if head == "scenario":
            if len(toks) != 2:
                raise ScenarioError("usage: scenario NAME", lineno)
            name = toks[1]
            i += 1
        elif head == "degree":
            if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 1:
                raise ScenarioError("usage: degree D with D >= 1", lineno)
            degree = int(toks[1])
            i += 1
        elif head == "field":
            if toks[1:] == ["trivial"]:
                field_spec = FieldSpec.trivial()
            elif len(toks) == 3 and toks[1] == "p-adic":
                try:
                    field_spec = FieldSpec.padic(int(toks[2]))
                except ValueError as exc:
                    raise ScenarioError(str(exc), lineno)
            else:
                raise ScenarioError(
                    "usage: field trivial | field p-adic P", lineno
                )
            i += 1
        elif head == "algebra":
            if field_spec is None:
                raise ScenarioError("declare the field first", lineno)
            if len(toks) != 2:
                raise ScenarioError("usage: algebra NAME", lineno)
            declare(toks[1], lineno)
            body, i = collect_block(i + 1)
            var_lines: dict[str, int] = {}  # variable -> its declaring line
            radii: list[NormValue] = []
            relation_lines: list[tuple[int, str]] = []
            for ln, btoks in body:
                if btoks[0] == "var" and len(btoks) == 3:
                    if btoks[1] in var_lines:
                        raise ScenarioError(
                            f"variable {btoks[1]!r} is already declared on "
                            f"line {var_lines[btoks[1]]}", ln
                        )
                    radius = _parse_radius(btoks[2], ln)
                    if radius.is_zero:
                        raise ScenarioError("radii must be positive", ln)
                    var_lines[btoks[1]] = ln
                    radii.append(radius)
                elif btoks[0] == "relation":
                    relation_lines.append((ln, " ".join(btoks[1:])))
                else:
                    raise ScenarioError(
                        "algebra blocks hold `var NAME RADIUS` and "
                        "`relation EXPR` lines", ln
                    )
            with _at_line(lineno):
                ambient = Polyradius(
                    field_spec, tuple(var_lines), tuple(radii)
                )
                alg = free_affinoid(ambient)
                rels = [
                    _parse_expr(expr, ambient, ln)
                    for ln, expr in relation_lines
                ]
                algebras[toks[1]] = quotient(alg, rels) if rels else alg
        elif head in ("localize", "module"):
            if len(toks) != 4 or toks[2] != "of":
                raise ScenarioError(f"usage: {head} NAME of BASE", lineno)
            base = need_algebra(toks[3], lineno)
            declare(toks[1], lineno)
            body, i = collect_block(i + 1)
            if head == "module":
                rels = []
                for ln, btoks in body:
                    if btoks[0] != "relation":
                        raise ScenarioError(
                            "module blocks hold `relation EXPR` lines", ln
                        )
                    rels.append(
                        _parse_expr(" ".join(btoks[1:]), base.ambient, ln)
                    )
                with _at_line(lineno):
                    algebras[toks[1]] = quotient(base, rels)
            else:
                current = base
                for ln, btoks in body:
                    if len(btoks) != 3 or btoks[0] not in ("bound", "invert"):
                        raise ScenarioError(
                            "localize blocks hold `bound EXPR R` and "
                            "`invert EXPR R` lines", ln
                        )
                    f = _parse_expr(btoks[1], current.ambient, ln)
                    r = _parse_radius(btoks[2], ln)
                    with _at_line(ln):
                        if btoks[0] == "bound":
                            current = weierstrass_localization(
                                current, [f], [r]
                            )
                        else:
                            current = laurent_localization(
                                current, g=[f], g_radii=[r]
                            )
                if current is base:
                    raise ScenarioError("empty localize block", lineno)
                algebras[toks[1]] = current
        elif head == "check":
            if len(toks) < 3:
                raise ScenarioError("usage: check NAME KIND ARGS...", lineno)
            spec = CheckSpec(toks[1], toks[2], toks[3:], line=lineno)
            if spec.kind == "norm-table":
                body, i = collect_block(i + 1)
                for ln, btoks in body:
                    if btoks[0] != "element":
                        raise ScenarioError(
                            "norm-table blocks hold `element EXPR` lines", ln
                        )
                    spec.elements.append((ln, " ".join(btoks[1:])))
            else:
                i += 1
            checks.append(spec)
        else:
            raise ScenarioError(f"unknown directive {head!r}", lineno)

    if field_spec is None:
        raise ScenarioError("scenario declares no field")
    if degree is None:
        degree = 10
    # Validate checks up front, before any runs, so errors point at the
    # right line.  Every argument names an algebra, except a numeric cech
    # DEPTH.
    for spec in checks:
        if spec.kind not in CHECK_ARGS:
            raise ScenarioError(
                f"unknown check kind {spec.kind!r}", spec.line
            )
        for pos, ref in enumerate(spec.args):
            if spec.kind == "cech" and pos == 1 and ref.isdecimal():
                continue
            if ref not in algebras:
                raise ScenarioError(
                    f"check {spec.name!r} references undeclared "
                    f"algebra {ref!r}", spec.line
                )
        usage, fewest, most = CHECK_ARGS[spec.kind]
        count = len(spec.args)
        if count < fewest or (most is not None and count > most) or (
            spec.kind == "cech" and not spec.args[1].isdecimal()
        ):
            raise ScenarioError(
                f"usage: check NAME {spec.kind} {usage}", spec.line
            )
        # Levels past the number of pieces are empty and test nothing more,
        # so at most one of them is built; a complex cut below the last
        # nonempty level reads its top as a cokernel that is not there.
        if spec.kind == "cech":
            depth, pieces = int(spec.args[1]), count - 2
            if depth > pieces + 1:
                raise ScenarioError(
                    f"cech DEPTH {spec.args[1]} above the number of pieces "
                    f"plus one ({pieces + 1})", spec.line,
                )
            if depth < pieces:
                raise ScenarioError(
                    f"cech DEPTH {spec.args[1]} below the number of pieces "
                    f"({pieces})", spec.line,
                )
    return Scenario(name, field_spec, degree, algebras, checks)


# -- execution -------------------------------------------------------------


def _witness_json(w: Optional[CycleWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "degree": w.degree,
        "norm": str(w.norm),
        "parts": {str(k): str(v) for k, v in sorted(w.parts.items())},
    }


def _homotopy_epi(
    proved: dict,
    base: AffinoidPresentation,
    target: AffinoidPresentation,
    degree: int,
) -> MorphismVerdict:
    """The verdict on base -> target, proved at most once per run.

    `proved` maps (base, target, degree) to the verdicts the run has
    proved.  Presentations hash by identity and do not change after
    construction, so a verdict stays valid while the scenario holds them.
    """
    key = (base, target, degree)
    if key not in proved:
        proved[key] = is_homotopy_epi(base, target, degree)
    return proved[key]


def _table_elements(
    spec: CheckSpec, sc: Scenario, degree: int
) -> list[TateElement]:
    """A norm-table check's elements, parsed on its algebra, each within the
    truncation; an error names the element's own line."""
    ambient = sc.algebras[spec.args[0]].ambient
    elements = []
    for ln, expr in spec.elements:
        el = _parse_expr(expr, ambient, ln)
        if degree < el.total_degree():
            raise ScenarioError(
                f"truncation degree {degree} below the degree of the "
                "element", ln,
            )
        elements.append(el)
    return elements


def _run_check(
    spec: CheckSpec,
    sc: Scenario,
    degree: int,
    proved: dict,
    elements: list[TateElement],
) -> dict:
    """One check's report record; `parse_scenario` has validated its kind
    and arguments, and `elements` are a norm-table check's parsed elements
    (empty for any other kind)."""
    record: dict = {"name": spec.name, "kind": spec.kind}
    algebras = sc.algebras
    args = spec.args
    if spec.kind in ("epi", "hoepi", "transversal"):
        base = algebras[args[0]]
        if spec.kind == "epi":
            verdict = is_epimorphism(base, algebras[args[1]], degree)
        elif spec.kind == "hoepi":
            verdict = _homotopy_epi(proved, base, algebras[args[1]], degree)
        else:
            verdict = check_transversal(
                algebras[args[1]], base, algebras[args[2]], degree
            )
        record.update(
            verdict=verdict.status,
            degree=verdict.truncation,
            detail=verdict.detail,
            homology_ranks={
                str(k): v for k, v in sorted(verdict.homology_ranks.items())
            },
            witness=_witness_json(verdict.witness),
        )
    elif spec.kind == "cech":
        base = algebras[args[0]]
        depth = int(args[1])
        with _at_line(spec.line):
            cover = CoverData(base, tuple(algebras[a] for a in args[2:]))
        report = acyclicity_check(
            cover, depth, degree,
            precondition=[
                _homotopy_epi(proved, base, piece, degree)
                for piece in cover.pieces
            ],
        )
        record.update(
            verdict=report.status,
            degree=report.truncation,
            detail=report.detail,
            constant=str(report.constant) if report.constant else None,
            positions=[
                {
                    "degree": v.degree,
                    "exact": v.exact,
                    "homology_rank": v.homology_rank,
                    "constant": str(v.constant),
                }
                for v in report.positions
            ],
        )
    elif spec.kind == "cover":
        base = algebras[args[0]]
        if sc.field_spec.mode != "p-adic":
            raise ScenarioError(
                "cover checks sample points and need a p-adic field",
                spec.line,
            )
        # Points and domains both live on the polydisc at the root of the
        # base's localization chain.  Only points of the root's spectrum,
        # where each of its relations vanishes, are sampled, and a localized
        # base keeps only its own.
        root = localization_path(base)[-1]
        points = [
            pt for pt in default_sample(root.ambient)
            if all(seminorm(pt, f).is_zero for f in root.relations)
        ]
        if base.localization is not None:
            with _at_line(spec.line):
                region = domain_of(base)
            points = [pt for pt in points if member(pt, region)]
        domains = []
        for ref in args[1:]:
            piece = algebras[ref]
            if piece.localization is None:
                raise ScenarioError(
                    f"cover piece {ref!r} carries no localization data",
                    spec.line,
                )
            if localization_path(piece)[-1].ambient != root.ambient:
                raise ScenarioError(
                    f"cover piece {ref!r} does not localize the polydisc "
                    f"of {args[0]!r}", spec.line,
                )
            with _at_line(spec.line):
                domains.append(domain_of(piece))
        report = cover_check(domains, points)
        record.update(
            verdict="covered" if report.covered else "uncovered",
            points_checked=report.points_checked,
            witnesses=[str(w) for w in report.witnesses],
        )
    else:  # norm-table
        alg = algebras[args[0]]
        table = []
        for (ln, expr), el in zip(spec.elements, elements):
            with _at_line(ln):
                reduced = alg.normal_form(el, degree)
            table.append(
                {
                    "element": expr,
                    "reduced": str(reduced),
                    "gauss_norm": str(reduced.gauss_norm()),
                }
            )
        record.update(verdict="ok", degree=degree, table=table)
    return record


def run_scenario(
    path: str, degree: Optional[int] = None, fail_fast: bool = False
) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"{path} is not UTF-8 text ({exc.reason})",
            data.count(b"\n", 0, exc.start) + 1,
        ) from None
    sc = parse_scenario(text)
    d = degree if degree is not None else sc.degree
    field_str = (
        f"p-adic {sc.field_spec.p}"
        if sc.field_spec.mode == "p-adic"
        else "trivial"
    )
    records = []
    all_passed = True
    proved: dict = {}  # shared by `hoepi` checks and `cech` pieces
    # A bad norm-table element stops the run before the first check.
    tables = [
        _table_elements(spec, sc, d) if spec.kind == "norm-table" else []
        for spec in sc.checks
    ]
    for spec, elements in zip(sc.checks, tables):
        log.info("running check %s (%s)", spec.name, spec.kind)
        record = _run_check(spec, sc, d, proved, elements)
        records.append(record)
        if record["verdict"] not in PASSING:
            all_passed = False
            log.warning(
                "check %s: %s", spec.name, record["verdict"]
            )
            if fail_fast:
                break
    return {
        "scenario": sc.name,
        "field": field_str,
        "degree": d,
        "checks": records,
        "all_passed": all_passed,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="afnd",
        description="Run a verification scenario and print a JSON report.",
    )
    parser.add_argument("scenario", help="path to the scenario file")
    parser.add_argument(
        "--degree", type=int, default=None,
        help="override the scenario's truncation degree",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing check",
    )
    args = parser.parse_args(argv)
    level = os.environ.get("AFND_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    if args.degree is not None and args.degree < 1:
        parser.error("--degree must be >= 1")
    try:
        report = run_scenario(args.scenario, args.degree, args.fail_fast)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A crash is not a failed check (exit 1): one line, exit 2, and the
        # traceback only at AFND_LOG=DEBUG.
        log.debug("internal error", exc_info=True)
        print(
            f"error: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2
    text = render_report(report)
    sys.stdout.write(text)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
