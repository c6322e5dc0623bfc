"""Spans around aciring's layers, installed from outside the package.

``Tracer.install()`` wraps the public functions of each layer module, plus
the listed methods, and rebinds every wrapper at every place the package
holds the original: the defining module, the ``from .x import y`` copies in
other modules, the re-exports in ``aciring/__init__.py`` and the class
attributes.  ``unbound_originals()`` lists any binding the install missed.

Each call records one span: name, start, end and parent span.  Spans stay
in memory (flat lists, one entry per span) and are written out once, by
``dump()``, when the pass ends.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap.

``poly`` and ``fields`` get no spans: their functions run millions of times
per pass, so wrapping them would distort the trace.  Their cost lands in the
self time of the callers, mainly ``groebner.normal_form`` and ``linalg``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = (
    "linalg",
    "groebner",
    "quotient",
    "resolution",
    "formulas",
    "gorenstein",
    "verify",
    "cli",
    "cache",
)

# (module, class, method, span name); the span name defaults to module.Class.method
METHODS = (
    ("linalg", "Echelon", "insert", None),
    ("groebner", "MonomialIdeal", "standard_monomials", "groebner.standard_monomials"),
    ("groebner", "GroebnerBasis", "standard_monomials", "groebner.standard_monomials"),
    ("quotient", "QuotientRing", "__init__", "quotient.build"),
    ("quotient", "QuotientRing", "annihilator_of_element", "quotient.annihilator_of_element"),
    ("quotient", "QuotientRing", "multiplication_map", "quotient.multiplication_map"),
    ("quotient", "QuotientRing", "variable_map", "quotient.variable_map"),
    ("quotient", "GradedModuleSpan", "_span", None),
    ("quotient", "GradedModuleSpan", "variable_map", None),
    ("quotient", "GradedModuleSpan", "basis_vectors", None),
)

# Functions too small and too frequent to be worth a span of their own.
SKIP = {"formulas.binom", "linalg.zeros", "cache.cache_dir", "cache.cache_key"}


def _nnz(row_entries) -> int:
    return sum(len(cs) for cs in row_entries.values())


class Tracer:
    """Span recorder for one pass (one process)."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.originals: list = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def parent_name(self, idx: int) -> str | None:
        parent = self.span_parent[idx]
        return None if parent < 0 else self.names[self.span_name[parent]]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its operations."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = before(args, kwargs) if before else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                after(tracer, idx, note, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, original) for everything to wrap."""
        out = []
        for mod_name in LAYER_MODULES:
            mod = importlib.import_module(f"aciring.{mod_name}")
            for attr, obj in vars(mod).items():
                name = f"{mod_name}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                out.append((name, mod, attr, obj))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"aciring.{mod_name}"], cls_name)
            out.append((name or f"{mod_name}.{cls_name}.{attr}", cls, attr, cls.__dict__[attr]))
        return out

    def install(self) -> None:
        targets = self.targets()
        modules = _package_namespaces()
        for name, owner, attr, original in targets:
            wrapper = self.wrap(name, original)
            self.originals.append(original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                continue
            for ns in modules:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    # -- results -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (s) and call count per span name."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def dump(self, path) -> None:
        """Write every span: names table plus one column per field."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "pass_id": self.pass_id,
                    "names": self.names,
                    "name": self.span_name,
                    "start": self.span_start,
                    "end": self.span_end,
                    "parent": self.span_parent,
                },
                fh,
                separators=(",", ":"),
            )


def _package_namespaces():
    return [m for k, m in sys.modules.items() if (k == "aciring" or k.startswith("aciring.")) and m is not None]


def unbound_originals(tracer: Tracer) -> list[str]:
    """Bindings inside the package that still hold an unwrapped original."""
    originals = {id(o) for o in tracer.originals}
    missed = []
    for ns in _package_namespaces():
        for key, value in vars(ns).items():
            if id(value) in originals:
                missed.append(f"{ns.__name__}.{key}")
            if inspect.isclass(value) and value.__module__.startswith("aciring"):
                for attr, member in vars(value).items():
                    if id(member) in originals:
                        missed.append(f"{value.__module__}.{value.__name__}.{attr}")
    return sorted(set(missed))


# -- counters taken at the call boundaries -----------------------------------
# A before-hook sees the arguments (sparse_rank consumes its input, gf_rank
# destroys its matrix); an after-hook gets the before-hook's note and the result.


def _after_dense_rank(kind: str):
    def after(tracer: Tracer, idx: int, cells: int, rank: int) -> None:
        tracer.counters[f"linalg.{kind}.cells"] += cells
        if tracer.parent_name(idx) == "linalg.sparse_rank":
            tracer.counters["linalg.sparse_rank.core_rank"] += rank

    return after


def _after_sparse_rank(tracer, idx, nnz, rank):
    tracer.counters["linalg.sparse_rank.nnz_in"] += nnz
    tracer.counters["linalg.sparse_rank.rank"] += rank


def _after_gf_matmul(tracer, idx, flops, result):
    tracer.counters["linalg.gf_matmul.flops"] += flops


def _after_ci_differential(tracer, idx, note, result):
    tracer.counters["resolution.ci_differential.nnz"] += _nnz(result[0])


def _after_lookup(tracer, idx, note, result):
    tracer.counters["cache.misses" if result is None else "cache.hits"] += 1


def _after_run_suite(tracer, idx, note, report):
    if tracer.parent_name(idx) != "verify.run_suite":  # "all" runs each suite through run_suite again
        tracer.counters["verify.checks"] += len(report.records)


def _qq_cells(args, kwargs):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _gf_matmul_flops(args, kwargs):
    A, B = args[0], args[1]
    return 2 * int(A.shape[0]) * int(A.shape[1]) * int(B.shape[1])


_BEFORE = {
    "linalg.gf_rank": lambda args, kwargs: int(args[0].size),
    "linalg.qq_rank": _qq_cells,
    "linalg.sparse_rank": lambda args, kwargs: _nnz(args[0]),
    "linalg.gf_matmul": _gf_matmul_flops,
}

_AFTER = {
    "linalg.gf_rank": _after_dense_rank("gf_rank"),
    "linalg.qq_rank": _after_dense_rank("qq_rank"),
    "linalg.sparse_rank": _after_sparse_rank,
    "linalg.gf_matmul": _after_gf_matmul,
    "resolution.ci_differential": _after_ci_differential,
    "cache.lookup": _after_lookup,
    "verify.run_suite": _after_run_suite,
}


# -- per-layer metrics --------------------------------------------------------

_SUM_SELF = {  # metric -> span-name prefix whose self times it sums
    "quotient.GradedModuleSpan.s": "quotient.GradedModuleSpan.",
    "formulas.s": "formulas.",
}
_COUNTS = (
    "linalg.gf_rank.cells",
    "linalg.gf_matmul.flops",
    "linalg.sparse_rank.nnz_in",
    "linalg.qq_rank.cells",
    "resolution.ci_differential.nnz",
    "verify.checks",
    "cache.hits",
    "cache.misses",
)
# Every per-layer metric, in report order.  ``.s`` is self time in seconds,
# ``.calls`` a call count; the counters are taken at the call boundaries.
PER_LAYER = (
    "linalg.gf_rank.s",
    "linalg.gf_rank.cells",
    "linalg.gf_matmul.s",
    "linalg.gf_matmul.flops",
    "linalg.sparse_rank.s",
    "linalg.sparse_rank.calls",
    "linalg.sparse_rank.nnz_in",
    "linalg.sparse_rank.prepass_rank_share",
    "linalg.qq_rank.s",
    "linalg.qq_rank.cells",
    "linalg.kernel_basis.s",
    "linalg.rref.s",
    "linalg.rank.s",
    "linalg.Echelon.insert.s",
    "linalg.Echelon.insert.calls",
    "groebner.normal_form.s",
    "groebner.normal_form.calls",
    "groebner.buchberger.s",
    "groebner.buchberger.calls",
    "groebner.standard_monomials.s",
    "groebner.ideal_equal.s",
    "quotient.build.s",
    "quotient.annihilator_of_element.s",
    "quotient.multiplication_map.s",
    "quotient.variable_map.calls",
    "quotient.GradedModuleSpan.s",
    "resolution.ci_differential.s",
    "resolution.ci_differential.calls",
    "resolution.ci_differential.nnz",
    "gorenstein.slp_check_A.s",
    "gorenstein.ann_of_form.s",
    "gorenstein.G_from_orbit.s",
    "gorenstein.hessian.s",
    "formulas.s",
    "verify.run_suite.s",
    "verify.checks",
    "cli.main.s",
    "cache.lookup.s",
    "cache.store.s",
    "cache.hits",
    "cache.misses",
    *(f"layer.{m}.s" for m in LAYER_MODULES),
    "trace.spans",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.overhead_share",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_share"):
        return "1"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (as ``worker.py`` reports it).

    The ``trace.*`` entries need the untraced pass and are filled in by run.py.
    """
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric in _SUM_SELF:
            prefix = _SUM_SELF[metric]
            out[metric] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        elif metric.startswith("layer."):
            prefix = metric[len("layer."):-len(".s")] + "."
            out[metric] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        elif metric in _COUNTS:
            out[metric] = counters.get(metric, 0)
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".s") and not metric.startswith("trace."):
            out[metric] = self_s.get(metric[: -len(".s")], 0.0)
    rank = counters.get("linalg.sparse_rank.rank", 0)
    core = counters.get("linalg.sparse_rank.core_rank", 0)
    out["linalg.sparse_rank.prepass_rank_share"] = (rank - core) / rank if rank else 0.0
    out["trace.spans"] = trace["spans"]
    return out
