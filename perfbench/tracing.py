"""In-memory tracing of gradedrings from outside the library.

A Tracer wraps the public entry points of every gradedrings module while it
is installed and restores them when it is removed; nothing under src/ knows
about it.  Two kinds of wrapper exist:

* spans, one record per call (name, task id, parent span, start, end, self
  time), for entry points such as find_two_to_one_injection or mat_mul;
* aggregated operations, a count plus time per enclosing span, for calls too
  frequent to record one by one: group mul/inv and the presented-ring
  products.  Scalar-ring mul/add and tr_entry take about a tenth of a
  microsecond, less than reading the clock twice, so they are only counted
  and their time stays in the caller's self time.

Self time is a frame's duration minus the time of the spans and operations
called inside it, so the self times of one pass add up to its traced wall
time.  Every binding of a wrapped function is patched: modules import names
from each other (translation and graded bind mat_mul at import), and methods
live on each concrete Group and Ring subclass.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    task: int
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    start: float
    end: float
    self_s: float = 0.0
    ops: dict = field(default_factory=dict)   # op name -> [count, self time]


# Entry points recorded as spans: (module, attribute, span name).  An
# attribute "Class.method" wraps the method on that class.
_TRANSFORMS = ("extend_certificate", "opposite_certificate",
               "block_up_certificate", "block_down_certificate",
               "product_certificate", "hom_certificate", "truncate_certificate")
SPANS = [
    ("groups", "Group.ball", "groups.ball"),
    ("groups", "set_product", "groups.set_product"),
    ("amenability", "find_two_to_one_injection",
     "amenability.find_two_to_one_injection"),
    ("amenability", "folner_search", "amenability.folner_search"),
    ("amenability", "verify_injection_witness",
     "amenability.verify_injection_witness"),
    ("amenability", "verify_hall_violation", "amenability.verify_hall_violation"),
    ("amenability", "bs_example_check", "amenability.bs_example_check"),
    ("amenability", "rosenblatt_find", "amenability.rosenblatt_find"),
    ("rings", "mat_mul", "rings.mat_mul"),
    ("rings", "verify_certificate", "rings.verify_certificate"),
    *[("rings", name, "rings.transform") for name in _TRANSFORMS],
    ("special_algebras", "leavitt_matrix_units",
     "special_algebras.leavitt_matrix_units"),
    ("special_algebras", "weyl_coordinates", "special_algebras.weyl_coordinates"),
    ("special_algebras", "leavitt_rank_certificate",
     "special_algebras.leavitt_rank_certificate"),
    ("monoids", "mnkl_leq", "monoids.mnkl_leq"),
    ("monoids", "mnkl_closure", "monoids.mnkl_closure"),
    ("monoids", "cnk_reach_oracle", "monoids.cnk_reach_oracle"),
    ("monoids", "cnk_generating_number", "monoids.cnk_generating_number"),
    ("translation", "compress_certificate", "translation.compress_certificate"),
    ("translation", "collapse_matrices", "translation.collapse_matrices"),
    ("translation", "finite_group_iso", "translation.finite_group_iso"),
    ("graded", "endo_graded_construction", "graded.endo_graded_construction"),
    ("graded", "strong_grading_check", "graded.strong_grading_check"),
    ("graded", "psi_embedding_check", "graded.psi_embedding_check"),
    ("graded", "verify_crossed_system", "graded.verify_crossed_system"),
    *[("serialize", name, "serialize.dump") for name in (
        "certificate_to_json", "injection_witness_to_json",
        "folner_witness_to_json", "translation_certificate_to_json")],
    *[("serialize", name, "serialize.load") for name in (
        "certificate_from_json", "injection_witness_from_json",
        "translation_certificate_from_json")],
    ("cli", "main", "cli.main"),
]

# Aggregated operations: (module, class or None, attribute, op name, timed).
# Group mul and inv are found on every Group subclass at install time.
OPS = [
    *[("rings", cls, attr, f"rings.scalar_{attr}", False)
      for cls in ("IntegerRing", "RationalRing", "IntegerModRing")
      for attr in ("mul", "add")],
    ("special_algebras", "LeavittRing", "mul", "special_algebras.leavitt_mul",
     True),
    ("special_algebras", "LeavittRing", "normalize",
     "special_algebras.leavitt_normalize", True),
    ("special_algebras", "WeylRing", "mul", "special_algebras.weyl_mul", True),
    ("translation", "TranslationRing", "mul", "translation.translation_mul",
     True),
    ("translation", "RightTranslationRing", "mul", "translation.translation_mul",
     True),
    ("graded", "CrossedProductRing", "mul", "graded.crossed_mul", True),
    ("translation", None, "tr_entry", "translation.tr_entry", False),
]


def _is_zero_entry(x) -> bool:
    """Structural zero test for a matrix entry, made without ring calls so
    that it does not show up in the counts: the integer 0, an empty term
    dict, or a tuple or matrix of such."""
    if isinstance(x, dict):
        return not x
    if isinstance(x, tuple):
        return all(_is_zero_entry(c) for c in x)
    entries = getattr(x, "entries", None)
    if entries is not None:
        return all(_is_zero_entry(c) for c in entries)
    return x == 0


def _note_mat_mul(tr, args, result):
    A, B = args[0], args[1]
    tr.counts["rings.mat_mul.entry_products"] += A.rows * A.cols * B.cols
    nonzero = sum(1 for a in A.entries if not _is_zero_entry(a))
    tr.counts["rings.mat_mul.nonzero_left_products"] += nonzero * B.cols


def _note_folner(tr, args, result):
    if type(result).__name__ == "FolnerWitness":
        tr.counts["amenability.folner_search.witnesses"] += 1


def _note_closure(tr, args, result):
    tr.counts["monoids.mnkl_closure.nodes"] += len(result)


def _note_leq(tr, args, result):
    if result.verdict == "unknown":
        tr.counts["monoids.mnkl_leq.unknowns"] += 1


_NOTES = {
    "rings.mat_mul": _note_mat_mul,
    "amenability.folner_search": _note_folner,
    "monoids.mnkl_closure": _note_closure,
    "monoids.mnkl_leq": _note_leq,
}


class Tracer:
    """Records spans and aggregated operations for one pass of a workload."""

    def __init__(self, lib):
        self.lib = lib
        self.task = -1
        self.spans: list[Span] = []
        self.counts: dict = _ZeroDict()
        self.root_ops: dict = {}        # ops called outside any span
        self._open: list[int] = []      # indices of the open spans
        self._child: list[float] = [0.0]  # child-time accumulator per frame
        self._cur_ops = self.root_ops   # op table of the innermost span
        self._undo: list = []

    # wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tr, note = self, _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.spans)
            span = Span(tr.task, name, tr._open[-1] if tr._open else -1, 0.0, 0.0)
            tr.spans.append(span)
            tr._open.append(idx)
            saved_ops, tr._cur_ops = tr._cur_ops, span.ops
            tr._child.append(0.0)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                dur = span.end - span.start
                span.self_s = dur - tr._child.pop()
                tr._child[-1] += dur
                tr._cur_ops = saved_ops
                tr._open.pop()
            if note is not None:
                note(tr, args, result)
            return result
        return wrapper

    def _op_wrapper(self, name, fn):
        tr = self
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                own = dt - child.pop()
                child[-1] += dt
                agg = tr._cur_ops.get(name)
                if agg is None:
                    tr._cur_ops[name] = [1, own]
                else:
                    agg[0] += 1
                    agg[1] += own
        return wrapper

    def _count_wrapper(self, name, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args):
            agg = tr._cur_ops.get(name)
            if agg is None:
                tr._cur_ops[name] = [1, 0.0]
            else:
                agg[0] += 1
            return fn(*args)
        return wrapper

    def task_span(self, task_id: int, name: str, fn):
        """Run fn() as the top-level span of one benchmark task."""
        self.task = task_id
        return self._span_wrapper(name, fn)()

    # installation ---------------------------------------------------------

    def _modules(self):
        return [m for m in vars(self.lib).values() if hasattr(m, "__name__")]

    def _patch_function(self, original, wrapper):
        """Replace every module-level binding of original."""
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        lib = self.lib
        for modname, attr, name in SPANS:
            mod = getattr(lib, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch_method(cls, meth,
                                   self._span_wrapper(name, cls.__dict__[meth]))
            else:
                fn = getattr(mod, attr)
                self._patch_function(fn, self._span_wrapper(name, fn))
        for modname, cls_name, attr, name, timed in OPS:
            mod = getattr(lib, modname)
            wrap = self._op_wrapper if timed else self._count_wrapper
            if cls_name is None:
                fn = getattr(mod, attr)
                self._patch_function(fn, wrap(name, fn))
            else:
                cls = getattr(mod, cls_name)
                self._patch_method(cls, attr, wrap(name, cls.__dict__[attr]))
        for cls in _subclasses(lib.groups.Group):
            for attr, name in (("mul", "groups.mul"), ("inv", "groups.inv")):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr,
                                       self._op_wrapper(name, cls.__dict__[attr]))
        checks = lib.checks
        self._undo.append((checks, "ALL_CHECKS", checks.ALL_CHECKS))
        checks.ALL_CHECKS = [
            (check, self._span_wrapper(f"checks.{check}", fn))
            for check, fn in checks.ALL_CHECKS]

    def uninstall(self):
        while self._undo:
            obj, key, val = self._undo.pop()
            setattr(obj, key, val)

    # results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: {name: {"calls", "self_s", "wall_s"}} over spans
        and aggregated operations, plus the derived counters."""
        out = {}

        def add(name, calls, self_s, wall_s):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
            row["wall_s"] += wall_s

        for ops in [self.root_ops] + [s.ops for s in self.spans]:
            for name, (calls, own) in ops.items():
                add(name, calls, own, 0.0)
        for s in self.spans:
            add(s.name, 1, s.self_s, s.end - s.start)
        candidates = sum(
            1 for s in self.spans if s.name == "groups.set_product"
            and s.parent >= 0
            and self.spans[s.parent].name == "amenability.folner_search")
        counts = dict(self.counts)
        counts["amenability.folner_search.candidates"] = candidates
        return {"layers": out, "counts": counts}


class _ZeroDict(dict):
    def __missing__(self, key):
        return 0


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics: name, unit, better, workloads on which it must be non-zero


def _stat(layer, stat):
    return lambda s: s["layers"].get(layer, {}).get(stat, 0)


def _ratio(num, den):
    def get(s):
        d = den(s)
        return num(s) / d if d else 0.0
    return get


def _count(name):
    return lambda s: s["counts"].get(name, 0)


def _metric(name, unit, better, nonzero_on, get=None):
    if get is None:
        layer, stat = name.rsplit(".", 1)
        get = _stat(layer, stat)
    return (name, unit, better, tuple(nonzero_on), get)


CHECK_NAMES = ["leavitt-rank", "matrix-units", "compression", "collapse",
               "folner", "matching", "finite-iso", "monoid-gn", "separators",
               "bs-witnesses", "weyl", "cert-algebra", "endo-graded"]

LAYER_METRICS = [
    _metric("groups.mul.calls", "count", "lower", ["search"]),
    _metric("groups.mul.self_s", "s", "lower", ["search"]),
    _metric("groups.inv.calls", "count", "lower", ["search"]),
    _metric("groups.ball.calls", "count", "lower", ["search"]),
    _metric("groups.ball.self_s", "s", "lower", ["search"]),
    _metric("groups.set_product.self_s", "s", "lower", ["search"]),
    _metric("amenability.find_two_to_one_injection.calls", "count", "lower",
            ["search"]),
    _metric("amenability.find_two_to_one_injection.self_s", "s", "lower",
            ["search"]),
    _metric("amenability.folner_search.calls", "count", "lower", ["search"]),
    _metric("amenability.folner_search.self_s", "s", "lower", ["search"]),
    _metric("amenability.folner_search.candidates", "count", "lower", ["search"],
            _count("amenability.folner_search.candidates")),
    _metric("amenability.folner_search.hit_frac", "ratio", "higher", ["search"],
            _ratio(_count("amenability.folner_search.witnesses"),
                   _count("amenability.folner_search.candidates"))),
    _metric("amenability.verify_injection_witness.self_s", "s", "lower",
            ["search"]),
    _metric("amenability.verify_hall_violation.self_s", "s", "lower", ["search"]),
    _metric("rings.mat_mul.calls", "count", "lower", ["certify", "repro"]),
    _metric("rings.mat_mul.self_s", "s", "lower", ["certify", "repro"]),
    _metric("rings.mat_mul.entry_products", "count", "lower", ["certify"],
            _count("rings.mat_mul.entry_products")),
    _metric("rings.mat_mul.nonzero_left_frac", "ratio", "higher", ["certify"],
            _ratio(_count("rings.mat_mul.nonzero_left_products"),
                   _count("rings.mat_mul.entry_products"))),
    _metric("rings.verify_certificate.calls", "count", "lower", ["certify"]),
    _metric("rings.verify_certificate.self_s", "s", "lower", ["certify"]),
    _metric("rings.scalar_mul.calls", "count", "lower", ["certify"]),
    _metric("rings.scalar_add.calls", "count", "lower", ["certify"]),
    _metric("rings.transform.self_s", "s", "lower", ["rewrite"]),
    _metric("special_algebras.leavitt_mul.calls", "count", "lower",
            ["rewrite", "certify"]),
    _metric("special_algebras.leavitt_mul.self_s", "s", "lower",
            ["rewrite", "certify"]),
    _metric("special_algebras.leavitt_normalize.calls", "count", "lower",
            ["rewrite"]),
    _metric("special_algebras.leavitt_normalize.self_s", "s", "lower",
            ["rewrite"]),
    _metric("special_algebras.weyl_mul.calls", "count", "lower", ["rewrite"]),
    _metric("special_algebras.weyl_mul.self_s", "s", "lower", ["rewrite"]),
    _metric("special_algebras.leavitt_matrix_units.self_s", "s", "lower",
            ["rewrite"]),
    _metric("special_algebras.weyl_coordinates.self_s", "s", "lower",
            ["rewrite"]),
    _metric("monoids.mnkl_closure.calls", "count", "lower", ["rewrite"]),
    _metric("monoids.mnkl_closure.self_s", "s", "lower", ["rewrite"]),
    _metric("monoids.mnkl_closure.nodes", "count", "lower", ["rewrite"],
            _count("monoids.mnkl_closure.nodes")),
    _metric("monoids.mnkl_leq.unknown_frac", "ratio", "lower", ["rewrite"],
            _ratio(_count("monoids.mnkl_leq.unknowns"),
                   _stat("monoids.mnkl_leq", "calls"))),
    _metric("monoids.cnk_reach_oracle.self_s", "s", "lower", ["repro"]),
    _metric("translation.compress_certificate.self_s", "s", "lower",
            ["certify"]),
    _metric("translation.tr_entry.calls", "count", "lower", ["certify"]),
    _metric("translation.translation_mul.calls", "count", "lower", ["certify"]),
    _metric("translation.translation_mul.self_s", "s", "lower", ["certify"]),
    _metric("translation.collapse_matrices.self_s", "s", "lower", ["certify"]),
    _metric("translation.finite_group_iso.self_s", "s", "lower",
            ["certify", "repro"]),
    _metric("graded.endo_graded_construction.self_s", "s", "lower", ["certify"]),
    _metric("graded.strong_grading_check.self_s", "s", "lower", ["certify"]),
    _metric("graded.crossed_mul.calls", "count", "lower", ["rewrite"]),
    _metric("graded.crossed_mul.self_s", "s", "lower", ["rewrite"]),
    _metric("graded.psi_embedding_check.self_s", "s", "lower", ["rewrite"]),
    _metric("serialize.dump.self_s", "s", "lower", ["search", "certify"]),
    _metric("serialize.load.self_s", "s", "lower", ["search", "certify"]),
    _metric("serialize.bytes", "bytes", "lower", ["search", "certify"],
            _count("serialize.bytes")),
    *[_metric(f"checks.{name}.wall_s", "s", "lower", ["repro"])
      for name in CHECK_NAMES],
    _metric("cli.main.self_s", "s", "lower", ["repro"]),
]

OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")


def layer_values(summaries: list) -> dict:
    """Metric values over traced passes: counts and ratios from the first
    pass (the self-test checks that they repeat), times as the median."""
    out = {}
    for name, unit, _, _, get in LAYER_METRICS:
        if unit == "s":
            out[name] = statistics.median(get(s) for s in summaries)
        else:
            out[name] = get(summaries[0])
    return out


def repeat_mismatches(summaries: list) -> list:
    """Names of non-time metrics that differ between traced passes."""
    bad = []
    for name, unit, _, _, get in LAYER_METRICS:
        if unit != "s" and len({get(s) for s in summaries}) > 1:
            bad.append(name)
    return bad
