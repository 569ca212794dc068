"""Span tracing of the afnd modules, installed from outside the library.

`install` wraps the public functions and methods of each measured afnd
module, plus constructors and arithmetic operators, and patches every
module that imported a wrapped function by name.  Each call records a span
(name, start, end, parent, pass id) in flat arrays; hooks that count matrix
cells or cache hits run in spans of their own (`trace.hook`), so their cost
is kept out of every afnd layer.  `layer_metrics` turns the spans of one
pass into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional

LAYERS = (
    "scalar", "tate", "linalg", "affinoid", "complexes",
    "homotopy", "cech", "spectrum", "cli",
)
# Constructors and operators are wrapped although their names are private.
DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
           "__truediv__", "__pow__")
# The per-check boundary: the only private function that is wrapped.
PRIVATE = {"cli": ("_run_check",)}
HOOK = "trace.hook"
CHECK_KINDS = ("hoepi", "epi", "transversal", "cech", "cover", "norm-table")

PER_LAYER = (
    ("scalar.compare_calls", "count"),
    ("scalar.compare_mixed_calls", "count"),
    ("scalar.normvalue_built", "count"),
    ("scalar.self_s", "s"),
    ("tate.elements_built", "count"),
    ("tate.mul_calls", "count"),
    ("tate.substitute_calls", "count"),
    ("tate.in_ambient_calls", "count"),
    ("tate.monomial_weight_calls", "count"),
    ("tate.self_s", "s"),
    ("linalg.sparse_rref_calls", "count"),
    ("linalg.sparse_rref_s", "s"),
    ("linalg.to_sparse_s", "s"),
    ("linalg.kernel_basis_s", "s"),
    ("linalg.norm_elim_calls", "count"),
    ("linalg.norm_elim_s", "s"),
    ("linalg.dense_cells", "count"),
    ("linalg.nnz_in", "count"),
    ("linalg.nnz_out", "count"),
    ("linalg.self_s", "s"),
    ("affinoid.presentations_built", "count"),
    ("affinoid.construct_s", "s"),
    ("affinoid.normal_form_calls", "count"),
    ("affinoid.normal_form_s", "s"),
    ("affinoid.tensor_over_calls", "count"),
    ("affinoid.basis_hit_ratio", "ratio"),
    ("affinoid.self_s", "s"),
    ("complexes.matrix_calls", "count"),
    ("complexes.matrix_repeat_ratio", "ratio"),
    ("complexes.matrix_cells", "count"),
    ("complexes.matrix_nnz", "count"),
    ("complexes.matrix_s", "s"),
    ("complexes.homology_s", "s"),
    ("complexes.strict_exactness_s", "s"),
    ("complexes.self_s", "s"),
    ("homotopy.hoepi_calls", "count"),
    ("homotopy.hoepi_repeat_ratio", "ratio"),
    ("homotopy.epi_calls", "count"),
    ("homotopy.transversal_calls", "count"),
    ("homotopy.self_s", "s"),
    ("cech.verify_pieces_s", "s"),
    ("cech.build_complex_s", "s"),
    ("cech.acyclicity_s", "s"),
    ("cech.self_s", "s"),
    ("spectrum.cover_check_calls", "count"),
    ("spectrum.points_checked", "count"),
    ("spectrum.member_calls", "count"),
    ("spectrum.errors", "count"),
    ("spectrum.self_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.render_s", "s"),
) + tuple((f"cli.check_s.{kind}", "s") for kind in CHECK_KINDS) + (
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Span names whose calls are counted, and outermost spans whose durations
# are summed, per metric.
CALLS = {
    "scalar.compare_calls": ("scalar.NormValue.compare",),
    "scalar.normvalue_built": ("scalar.NormValue.__init__",),
    "tate.elements_built": ("tate.TateElement.__init__",),
    "tate.mul_calls": ("tate.TateElement.__mul__",),
    "tate.substitute_calls": ("tate.TateElement.substitute",),
    "tate.in_ambient_calls": ("tate.TateElement.in_ambient",),
    "tate.monomial_weight_calls": ("tate.Polyradius.monomial_weight",),
    "linalg.sparse_rref_calls": ("linalg.sparse_rref",),
    "linalg.norm_elim_calls": ("linalg.NormAwareElimination.__init__",),
    "affinoid.presentations_built": ("affinoid.AffinoidPresentation.__init__",),
    "affinoid.normal_form_calls": ("affinoid.AffinoidPresentation.normal_form",),
    "affinoid.tensor_over_calls": ("affinoid.tensor_over",),
    "complexes.matrix_calls": ("complexes.ChainComplex.matrix",),
    "homotopy.hoepi_calls": ("homotopy.is_homotopy_epi",),
    "homotopy.epi_calls": ("homotopy.is_epimorphism",),
    "homotopy.transversal_calls": ("homotopy.check_transversal",),
    "spectrum.cover_check_calls": ("spectrum.cover_check",),
    "spectrum.member_calls": ("spectrum.member",),
}
DURATIONS = {
    "linalg.sparse_rref_s": ("linalg.sparse_rref",),
    "linalg.to_sparse_s": ("linalg.to_sparse",),
    "linalg.kernel_basis_s": ("linalg.kernel_basis",),
    "linalg.norm_elim_s": ("linalg.NormAwareElimination.__init__",),
    "affinoid.construct_s": (
        "affinoid.AffinoidPresentation.__init__", "affinoid.free_affinoid",
        "affinoid.quotient", "affinoid.weierstrass_localization",
        "affinoid.laurent_localization", "affinoid.rational_localization",
        "affinoid.tensor_over",
    ),
    "affinoid.normal_form_s": ("affinoid.AffinoidPresentation.normal_form",),
    "complexes.matrix_s": ("complexes.ChainComplex.matrix",),
    "complexes.homology_s": ("complexes.homology",),
    "complexes.strict_exactness_s": ("complexes.strict_exactness",),
    "cech.verify_pieces_s": ("cech.CoverData.verify_pieces",),
    "cech.build_complex_s": ("cech.build_complex",),
    "cech.acyclicity_s": ("cech.acyclicity_check",),
    "cli.parse_s": ("cli.parse_scenario",),
    "cli.render_s": ("cli.render_report",),
}
# Dense matrices entering linalg from another layer.
DENSE_ENTRY = {
    "linalg.to_sparse": 0, "linalg.rref": 0, "linalg.rank": 0,
    "linalg.kernel_basis": 0, "linalg.NormAwareElimination.__init__": 2,
}


class Tracer:
    """Spans of the traced passes, kept in flat arrays until written out."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.pass_of = array("l")
        self.raised = array("b")
        self.stack = [-1]
        self.pass_id = -1
        self.counts: Counter = Counter()
        self.keep: list = []  # objects whose ids the hooks compare
        self.seen: set = set()
        self.check_kind: dict[int, str] = {}  # cli._run_check span -> kind

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts = Counter()
        self.keep = []
        self.seen = set()

    def open(self, nid: int) -> int:
        i = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.pass_of.append(self.pass_id)
        self.end.append(0.0)
        self.raised.append(0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int, raised: bool = False) -> None:
        self.end[i] = self.clock()
        self.raised[i] = raised
        self.stack.pop()

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span that is not a hook."""
        for i in reversed(self.stack):
            if i < 0:
                return None
            name = self.names[self.name_of[i]]
            if name != HOOK:
                return name
        return None

    def write(self, path: Path) -> None:
        """All spans, gzipped, one tab-separated line each.

        Columns: id, name, start and end in ns from the first span, parent
        id (-1 for none), pass id, and 1 if the call raised.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tpass\traised\n")
            for i in range(len(self.name_of)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t"
                    f"{round((self.start[i] - base) * 1e9)}\t"
                    f"{round((self.end[i] - base) * 1e9)}\t"
                    f"{self.parent[i]}\t{self.pass_of[i]}\t{self.raised[i]}\n"
                )


# -- hooks -------------------------------------------------------------------
# A pre hook sees (tracer, args, kwargs); a post hook also sees the result.


def _mixed_compare(t: Tracer, args, kwargs) -> None:
    other = args[1] if len(args) > 1 else kwargs.get("other")
    a, b = getattr(args[0], "_exps", None), getattr(other, "_exps", None)
    if a is None or b is None or a == b:
        return
    mine, theirs = dict(a), dict(b)
    signs = set()
    for p in set(mine) | set(theirs):
        d = mine.get(p, Fraction(0)) - theirs.get(p, Fraction(0))
        if d:
            signs.add(d > 0)
    if len(signs) == 2:
        t.counts["scalar.compare_mixed_calls"] += 1


def _nnz(rows) -> int:
    return sum(len(r) for r in rows)


def _dense_entry(name: str, pos: int):
    def hook(t: Tracer, args, kwargs) -> None:
        parent = t.parent_name()
        if parent is not None and parent.startswith("linalg."):
            return
        matrix = args[pos] if len(args) > pos else kwargs["matrix"]
        if matrix:
            t.counts["linalg.dense_cells"] += len(matrix) * len(matrix[0])
        if name == "linalg.NormAwareElimination.__init__":
            t.counts["linalg.nnz_in"] += sum(
                1 for row in matrix for x in row if x
            )
    return hook


def _rref_in(t: Tracer, args, kwargs) -> None:
    t.counts["linalg.nnz_in"] += _nnz(args[0])


def _rref_out(t: Tracer, args, kwargs, result) -> None:
    t.counts["linalg.nnz_out"] += _nnz(result[0])


def _elim_out(t: Tracer, args, kwargs, result) -> None:
    t.counts["linalg.nnz_out"] += _nnz(args[0].srows)


def _basis_out(t: Tracer, args, kwargs, result) -> None:
    key = ("basis", id(result))
    if key in t.seen:
        t.counts["affinoid.basis_hits"] += 1
    else:
        t.seen.add(key)
        t.keep.append(result)


def _matrix_pre(t: Tracer, args, kwargs) -> None:
    cx, n, degree = args[0], args[1], args[2]
    key = ("matrix", id(cx), n, degree)
    if key in t.seen:
        t.counts["complexes.matrix_repeats"] += 1
    else:
        t.seen.add(key)
        t.keep.append(cx)


def _matrix_out(t: Tracer, args, kwargs, result) -> None:
    t.counts["complexes.matrix_cells"] += result.target.dim * result.source.dim
    t.counts["complexes.matrix_nnz"] += sum(
        1 for row in result.entries for x in row if x
    )


def _hoepi_out(t: Tracer, args, kwargs, result) -> None:
    base = args[0]
    target = args[1] if len(args) > 1 else kwargs["target"]
    degree = args[2] if len(args) > 2 else kwargs["degree"]
    key = ("hoepi", id(base), id(target), degree)
    if key in t.seen:
        t.counts["homotopy.hoepi_repeats"] += 1
    else:
        t.seen.add(key)
        t.keep.extend((base, target))


def _cover_out(t: Tracer, args, kwargs, result) -> None:
    t.counts["spectrum.points_checked"] += result.points_checked


PRE_HOOKS = {
    "scalar.NormValue.compare": _mixed_compare,
    "linalg.sparse_rref": _rref_in,
    "complexes.ChainComplex.matrix": _matrix_pre,
    **{name: _dense_entry(name, pos) for name, pos in DENSE_ENTRY.items()},
}
POST_HOOKS = {
    "linalg.sparse_rref": _rref_out,
    "linalg.NormAwareElimination.__init__": _elim_out,
    "affinoid.AffinoidPresentation.monomial_basis": _basis_out,
    "complexes.ChainComplex.matrix": _matrix_out,
    "homotopy.is_homotopy_epi": _hoepi_out,
    "spectrum.cover_check": _cover_out,
}


# -- installing the wrappers -------------------------------------------------


def _wrap(fn: Callable, name: str, t: Tracer) -> Callable:
    nid = t.name_id(name)
    hook_id = t.name_id(HOOK)
    pre = PRE_HOOKS.get(name)
    post = POST_HOOKS.get(name)
    is_check = name == "cli._run_check"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if pre is not None:
            h = t.open(hook_id)
            pre(t, args, kwargs)
            t.close(h)
        i = t.open(nid)
        if is_check:
            t.check_kind[i] = args[0].kind
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t.close(i, raised=True)
            raise
        t.close(i)
        if post is not None:
            h = t.open(hook_id)
            post(t, args, kwargs, result)
            t.close(h)
        return result

    return traced


def _targets(module) -> Iterable[tuple[str, object, str]]:
    """(span name, owner, attribute) of everything to wrap in `module`."""
    layer = module.__name__.rsplit(".", 1)[1]
    private = PRIVATE.get(layer, ())
    for attr, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and (
            not attr.startswith("_") or attr in private
        ):
            yield f"{layer}.{attr}", module, attr
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for meth, raw in sorted(vars(obj).items()):
                if meth.startswith("_") and meth not in DUNDERS:
                    continue
                if meth == "__init__" and dataclasses.is_dataclass(obj):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or (
                    inspect.isfunction(raw)
                ):
                    yield f"{layer}.{obj.__name__}.{meth}", obj, meth


def install(t: Tracer) -> Callable[[], None]:
    """Wrap every target of LAYERS; returns the function that undoes it."""
    modules = [importlib.import_module(f"afnd.{name}") for name in LAYERS]
    importers = [
        importlib.import_module("afnd"),
        importlib.import_module("afnd.normed"),
        *modules,
    ]
    undo: list[tuple[object, str, object]] = []
    for module in modules:
        for name, owner, attr in list(_targets(module)):
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, name, t))
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = _wrap(raw, name, t)
            for imp in importers if owner is module else (owner,):
                if vars(imp).get(attr) is raw:
                    undo.append((imp, attr, raw))
                    setattr(imp, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


# -- deriving the metrics ----------------------------------------------------


def self_times(
    start: "array | list[float]",
    end: "array | list[float]",
    parent: "array | list[int]",
    indices: Iterable[int],
) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    indices = list(indices)
    children: dict[int, list[int]] = defaultdict(list)
    for i in indices:
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = {}
    for i in indices:
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(
            (max(start[c], lo), min(end[c], hi)) for c in children.get(i, ())
        ):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (hi - lo) - covered
    return out


def _outermost(t: Tracer, spans: list[int], names: set[int]) -> list[int]:
    """Spans named in `names` with no ancestor named in `names`."""
    out = []
    for i in spans:
        if t.name_of[i] not in names:
            continue
        p = t.parent[i]
        while p >= 0 and t.name_of[p] not in names:
            p = t.parent[p]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(t: Tracer, spans: list[int], counts: Counter) -> dict:
    """Per-layer metrics of one pass from its span indices and hook counts."""
    by_name: Counter = Counter(t.names[t.name_of[i]] for i in spans)
    ids = {name: i for i, name in enumerate(t.names)}
    m: dict[str, float] = {}
    for metric, names in CALLS.items():
        m[metric] = sum(by_name[n] for n in names)
    for metric, names in DURATIONS.items():
        wanted = {ids[n] for n in names if n in ids}
        m[metric] = sum(
            t.end[i] - t.start[i] for i in _outermost(t, spans, wanted)
        )
    for key in ("linalg.dense_cells", "linalg.nnz_in", "linalg.nnz_out",
                "complexes.matrix_cells", "complexes.matrix_nnz",
                "spectrum.points_checked", "scalar.compare_mixed_calls"):
        m[key] = counts[key]
    basis_calls = by_name["affinoid.AffinoidPresentation.monomial_basis"]
    m["affinoid.basis_hit_ratio"] = (
        counts["affinoid.basis_hits"] / basis_calls if basis_calls else 0.0
    )
    matrix_calls = m["complexes.matrix_calls"]
    m["complexes.matrix_repeat_ratio"] = (
        counts["complexes.matrix_repeats"] / matrix_calls
        if matrix_calls else 0.0
    )
    hoepi = m["homotopy.hoepi_calls"]
    m["homotopy.hoepi_repeat_ratio"] = (
        counts["homotopy.hoepi_repeats"] / hoepi if hoepi else 0.0
    )
    spectrum_ids = {
        ids[n] for n in t.names if n.startswith("spectrum.")
    }
    m["spectrum.errors"] = sum(
        1 for i in _outermost(t, spans, spectrum_ids) if t.raised[i]
    )
    selfs = self_times(t.start, t.end, t.parent, spans)
    layer_self: Counter = Counter()
    for i, s in selfs.items():
        layer_self[t.names[t.name_of[i]].split(".", 1)[0]] += s
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = layer_self[layer]
    check_id = ids.get("cli._run_check")
    for kind in CHECK_KINDS:
        m[f"cli.check_s.{kind}"] = 0.0
    for i in spans:
        if t.name_of[i] == check_id:
            kind = t.check_kind.get(i)
            if kind in CHECK_KINDS:
                m[f"cli.check_s.{kind}"] += t.end[i] - t.start[i]
    m["trace.spans"] = len(spans)
    return m
