"""Spans and counters recorded around the public functions of degree_lab.

A Tracer replaces each function named in SPANS, in every degree_lab.*
module that binds it, by a wrapper that times the call; a class name
stands for its constructor.  restore() puts every original back.  Spans
are aggregated in memory as they close, per span name:

    inclusive seconds, self seconds (inclusive minus child spans),
    calls, calls that returned normally

plus a count of every (span, nearest enclosing span) pair, which is how
rejection-loop attempts are counted from outside: a gnm attempt is a
bins.throw_positions call made directly under samplers.sample_gnm_counted.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

SPANS = (
    "bins.throw_positions",
    "cli.main",
    "concentration.two_point_prediction",
    "concentration.typical_max_load",
    "edgelist.read_edge_list",
    "experiments.emit_report",
    "experiments.run_experiment",
    "forests.RootedForest",
    "forests.decode_sequence",
    "forests.encode_forest",
    "forests.sample_forest",
    "graphs.LabeledGraph",
    "graphs.complex_part",
    "graphs.core_of",
    "graphs.has_complex_component",
    "graphs.split",
    "samplers.exact_census_gnm",
    "samplers.sample_complex",
    "samplers.sample_cs_counted",
    "samplers.sample_gnm_counted",
    "samplers.sample_pipeline",
    "seeding.trial_seed",
)

MARK = "_perfbench_span"


def _balls_thrown(t, args, positions):
    t.counts["bins.balls_thrown"] += positions.size


def _vertices_decoded(t, args, forest):
    t.counts["forests.vertices_decoded"] += forest.n


def _edges_canonicalized(t, args, _):
    t.counts["graphs.edges_canonicalized"] += args[0].num_edges


def _complex_order(t, args, part):
    t.complex_order = part.order


def _peeled_by_core_of(t, args, core):
    # core_of peels the complex part its child span has just returned
    t.counts["graphs.peeled_vertices"] += t.complex_order - core.order


def _peeled_by_split(t, args, d):
    t.counts["graphs.peeled_vertices"] += (
        d.large_complex.order + d.small_complex.order - d.core.order)


# Work counts read off a span's result (for a constructor, off self).
SIZES = {
    "bins.throw_positions": _balls_thrown,
    "forests.decode_sequence": _vertices_decoded,
    "graphs.LabeledGraph": _edges_canonicalized,
    "graphs.complex_part": _complex_order,
    "graphs.core_of": _peeled_by_core_of,
    "graphs.split": _peeled_by_split,
}


def lab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "degree_lab" or name.startswith("degree_lab.")]


class Tracer:
    """Installs timing wrappers on degree_lab and aggregates their spans."""

    def __init__(self, cap_error: type[BaseException]):
        self.stats: dict[str, list] = {s: [0.0, 0.0, 0, 0] for s in SPANS}
        self.parents: Counter = Counter()
        self.counts: Counter = Counter()
        self.complex_order = 0
        self._cap_error = cap_error
        self._last_cap = None
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = lab_modules()
        for span in SPANS:
            module, attr = span.split(".")
            original = getattr(sys.modules["degree_lab." + module], attr)
            if isinstance(original, type):
                self._patch(original, "__init__",
                            self._wrap(span, original.__init__))
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn):
        stat = self.stats[span]
        stack = self._stack
        parents = self.parents
        size = SIZES.get(span)
        cap_error = self._cap_error
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parents[span, stack[-1][0] if stack else None] += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except cap_error as exc:
                if exc is not self._last_cap:  # count the innermost raise only
                    self._last_cap = exc
                    self.counts["samplers.capped_calls"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat[0] += elapsed
                stat[1] += elapsed - frame[1]
                stat[2] += 1
            stat[3] += 1
            if size is not None:
                size(self, args, result)
            return result

        setattr(wrapper, MARK, span)
        return wrapper


def leftover_wrappers() -> list[str]:
    """Names still bound to a Tracer wrapper anywhere in degree_lab."""
    found = []
    for mod in lab_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and hasattr(value.__init__, MARK):
                found.append(f"{mod.__name__}.{key}.__init__")
    return found


def per_layer(t: Tracer, trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per trial (census: per sample)."""

    def ms(span):
        return t.stats[span][0] * 1e3 / trials, "ms/trial"

    def self_ms(span):
        return t.stats[span][1] * 1e3 / trials, "ms/trial"

    def calls(span):
        return t.stats[span][2] / trials, "1/trial"

    def count(value):
        return value / trials, "1/trial"

    def ratio(good, tried):
        return (good / tried if tried else 0.0), "fraction"

    gnm_attempts = t.parents["bins.throw_positions",
                             "samplers.sample_gnm_counted"]
    cs_attempts = t.parents["samplers.sample_gnm_counted",
                            "samplers.sample_cs_counted"]
    return {
        "forests.decode_sequence.ms": ms("forests.decode_sequence"),
        "forests.decode_sequence.calls": calls("forests.decode_sequence"),
        "forests.vertices_decoded": count(t.counts["forests.vertices_decoded"]),
        "forests.RootedForest.ms": ms("forests.RootedForest"),
        "forests.sample_forest.self_ms": self_ms("forests.sample_forest"),
        "graphs.core_of.ms": ms("graphs.core_of"),
        "graphs.split.ms": ms("graphs.split"),
        "graphs.peeled_vertices": count(t.counts["graphs.peeled_vertices"]),
        "graphs.LabeledGraph.ms": ms("graphs.LabeledGraph"),
        "graphs.LabeledGraph.calls": calls("graphs.LabeledGraph"),
        "graphs.edges_canonicalized":
            count(t.counts["graphs.edges_canonicalized"]),
        "graphs.has_complex_component.ms": ms("graphs.has_complex_component"),
        "graphs.has_complex_component.calls":
            calls("graphs.has_complex_component"),
        "samplers.exact_census_gnm.self_ms":
            self_ms("samplers.exact_census_gnm"),
        "samplers.sample_gnm_counted.ms": ms("samplers.sample_gnm_counted"),
        "samplers.gnm_attempts": count(gnm_attempts),
        "samplers.gnm_acceptance":
            ratio(t.stats["samplers.sample_gnm_counted"][3], gnm_attempts),
        "samplers.sample_cs_counted.ms": ms("samplers.sample_cs_counted"),
        "samplers.cs_attempts": count(cs_attempts),
        "samplers.cs_acceptance":
            ratio(t.stats["samplers.sample_cs_counted"][3], cs_attempts),
        "samplers.sample_complex.self_ms": self_ms("samplers.sample_complex"),
        "samplers.sample_pipeline.self_ms": self_ms("samplers.sample_pipeline"),
        "samplers.capped_calls": count(t.counts["samplers.capped_calls"]),
        "bins.throw_positions.ms": ms("bins.throw_positions"),
        "bins.throw_positions.calls": calls("bins.throw_positions"),
        "bins.balls_thrown": count(t.counts["bins.balls_thrown"]),
        "experiments.run_experiment.self_ms":
            self_ms("experiments.run_experiment"),
        "experiments.emit_report.ms": ms("experiments.emit_report"),
        "concentration.typical_max_load.ms":
            ms("concentration.typical_max_load"),
        "concentration.typical_max_load.calls":
            calls("concentration.typical_max_load"),
        "concentration.two_point_prediction.ms":
            ms("concentration.two_point_prediction"),
        "seeding.trial_seed.ms": ms("seeding.trial_seed"),
        "seeding.trial_seed.calls": calls("seeding.trial_seed"),
        "edgelist.read_edge_list.ms": ms("edgelist.read_edge_list"),
        "cli.main.self_ms": self_ms("cli.main"),
    }
