"""Spans around the public calls into each guesswork layer.

`Tracer.install` rebinds the names each calling module resolves (for
example `guesswork.oracle.enumerate_types`, `ScgfModel.slope`,
`TypeVector.__post_init__`) to wrappers that record one span per call:
name, start, end, parent span and request id. Spans stay in compact
in-memory arrays until `save`; `uninstall` puts the originals back.
Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("guesswork", "guesswork.cli", "guesswork.asymptotics", "guesswork.tilting",
           "guesswork.entropy", "guesswork.oracle")

# (module, function, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("asymptotics", "scgf_model", "asymptotics.scgf_model"),
    ("asymptotics", "legendre_transform", "asymptotics.legendre_transform"),
    ("asymptotics", "growth_exponents", "asymptotics.growth_exponents"),
    ("asymptotics", "binary_closed_forms", "asymptotics.binary_closed_forms"),
    ("tilting", "boundary_types", "tilting.boundary_types"),
    ("tilting", "clamped_optimum", "tilting.clamped_optimum"),
    ("tilting", "tilted_type", "tilting.tilted_type"),
    ("tilting", "solve_cross_entropy", "tilting.solve_cross_entropy"),
    ("entropy", "type_count", "entropy.type_count"),
    ("entropy", "is_typical_type", "entropy.is_typical_type"),
    ("entropy", "cross_entropy", "entropy.cross_entropy"),
    ("oracle", "build_guess_table", "oracle.build_guess_table"),
    ("oracle", "exact_moment_log", "oracle.exact_moment_log"),
    ("oracle", "exact_mean_log_guesswork", "oracle.exact_mean_log_guesswork"),
    ("oracle", "typical_set_census", "oracle.typical_set_census"),
    ("oracle", "naive_enumeration_crosscheck", "oracle.naive_enumeration_crosscheck"),
    ("oracle", "convergence_series", "oracle.convergence_series"),
    ("oracle", "finite_k_exponents", "oracle.finite_k_exponents"),
)

# (module, class, method, span name)
METHODS = (
    ("asymptotics", "ScgfModel", "slope", "asymptotics.slope"),
    ("asymptotics", "ScgfModel", "__call__", "asymptotics.scgf"),
    ("entropy", "TypeVector", "__post_init__", "entropy.typevector"),
)

# log_rank_power_sum routes, by the thresholds its docstring and module state:
# alpha in {0, 1, 2} exact integers; <= 65,536 terms direct; start >= 30,000
# Euler-Maclaurin; otherwise a direct head up to 30,000 plus an EM tail.
RANK_SUM_ROUTES = ("exact_int", "direct", "em", "split")
DIRECT_MAX = 65536
EM_MIN = 30000


def rank_sum_route(a: int, b: int, alpha: float) -> tuple[str, int]:
    """Route of one log_rank_power_sum call and the terms it sums one by one."""
    if float(alpha) in (0.0, 1.0, 2.0):
        return "exact_int", 0
    n = int(b) - int(a) + 1
    if n <= DIRECT_MAX:
        return "direct", n
    if a >= EM_MIN:
        return "em", 0
    return "split", EM_MIN - int(a)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self.tables: set = set()  # (request, source, k) of every table built
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap_generator_factory(self, fn, name: str):
        """Span the call and each next(): the work happens as items are drawn."""
        nid = self.intern(name)

        def items(gen):
            while True:
                i = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.counts["entropy.enumerate_types.types"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                gen = fn(*args, **kwargs)
            finally:
                self.close(i)
            return items(gen)

        return traced

    def wrap_rank_sum(self, fn):
        ids = {r: self.intern(f"oracle.rank_sum.{r}") for r in RANK_SUM_ROUTES}

        @functools.wraps(fn)
        def traced(a, b, alpha):
            route, terms = rank_sum_route(a, b, alpha)
            self.counts["oracle.rank_sum.direct_terms"] += terms
            i = self.open(ids[route])
            try:
                return fn(a, b, alpha)
            finally:
                self.close(i)

        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, original, wrapped) -> None:
        attr = original.__name__
        for mod in map(importlib.import_module, MODULES):
            if getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        pkg = "guesswork."
        for module, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(pkg + module), attr)
            self._rebind(original, self.wrap(original, span, self._after(span)))
        enum = importlib.import_module(pkg + "entropy").enumerate_types
        self._rebind(enum, self.wrap_generator_factory(enum, "entropy.enumerate_types"))
        rank_sum = importlib.import_module(pkg + "oracle").log_rank_power_sum
        self._rebind(rank_sum, self.wrap_rank_sum(rank_sum))
        for module, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(pkg + module), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _after(self, span: str):
        if span == "oracle.build_guess_table":
            def after(table, args, kwargs):
                self.counts["oracle.blocks_kept"] += len(table.blocks)
                self.tables.add((self.request_id, table.source, table.k))
            return after
        if span == "oracle.typical_set_census":
            def after(census, args, kwargs):
                self.counts["oracle.blocks_kept"] += len(census.types)
            return after
        if span == "oracle.naive_enumeration_crosscheck":
            def after(ok, args, kwargs):
                source, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
                self.counts["oracle.naive_enumeration_crosscheck.words"] += source.p.m**k
            return after
        return None

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Read-only numpy views of the span arrays (no copy)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, factors: list[float]) -> dict[str, float]:
        """Per-layer counts, self times and ratios over every recorded span.

        factors[i] scales the times of request i to reference speed.
        """
        a = self.arrays()
        dur = (a["end"] - a["start"]) * np.asarray(factors)[a["request"]]
        parent = a["parent"]
        child = parent >= 0
        cover = np.zeros(dur.size)
        np.add.at(cover, parent[child], dur[child])
        self_t = dur - cover
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=self_t, minlength=n)

        def c(name: str) -> float:
            return float(calls[self._ids[name]]) if name in self._ids else 0.0

        def s(name: str) -> float:
            return float(self_s[self._ids[name]]) if name in self._ids else 0.0

        out = {
            "cli.calls": c("cli.main"),
            "cli.self_s": s("cli.main"),
        }
        for span in ("asymptotics.legendre_transform", "asymptotics.scgf_model",
                     "tilting.clamped_optimum", "tilting.solve_cross_entropy",
                     "oracle.build_guess_table", "oracle.typical_set_census"):
            out[span + ".calls"] = c(span)
            out[span + ".self_s"] = s(span)
        out["asymptotics.slope.calls"] = c("asymptotics.slope")
        out["tilting.tilted_type.calls"] = c("tilting.tilted_type")
        out["entropy.typevector.builds"] = c("entropy.typevector")
        out["entropy.typevector.self_s"] = s("entropy.typevector")
        out["entropy.enumerate_types.types"] = float(self.counts["entropy.enumerate_types.types"])
        for span in ("entropy.enumerate_types", "entropy.type_count", "oracle.exact_moment_log",
                     "oracle.exact_mean_log_guesswork", "oracle.naive_enumeration_crosscheck"):
            out[span + ".self_s"] = s(span)
        out["entropy.is_typical_type.calls"] = c("entropy.is_typical_type")
        out["entropy.cross_entropy.calls"] = c("entropy.cross_entropy")

        # slope evaluations per Lambda* point that needed the bisection
        slope_points = 0.0
        if "asymptotics.slope" in self._ids and "asymptotics.legendre_transform" in self._ids:
            is_slope = (a["name"] == self._ids["asymptotics.slope"]) & child
            in_leg = a["name"][parent[is_slope]] == self._ids["asymptotics.legendre_transform"]
            points = np.unique(parent[is_slope][in_leg]).size
            slope_points = float(in_leg.sum()) / points if points else 0.0
        out["asymptotics.slope_per_point"] = slope_points

        distinct = len(self.tables)
        out["oracle.tables_per_distinct_k"] = (
            c("oracle.build_guess_table") / distinct if distinct else 0.0
        )
        enumerated = self.counts["entropy.enumerate_types.types"]
        out["oracle.blocks_kept_ratio"] = (
            self.counts["oracle.blocks_kept"] / enumerated if enumerated else 0.0
        )
        for route in RANK_SUM_ROUTES:
            out[f"oracle.rank_sum.calls.{route}"] = c(f"oracle.rank_sum.{route}")
            out[f"oracle.rank_sum.self_s.{route}"] = s(f"oracle.rank_sum.{route}")
        out["oracle.rank_sum.direct_terms"] = float(self.counts["oracle.rank_sum.direct_terms"])
        out["oracle.naive_enumeration_crosscheck.words"] = float(
            self.counts["oracle.naive_enumeration_crosscheck.words"]
        )
        return out
