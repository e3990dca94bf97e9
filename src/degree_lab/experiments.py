"""Seeded Monte Carlo experiments with machine-readable reports.

Each experiment kind runs `trials` independent trials, one derived seed
per trial.  Each trial builds a load or degree vector; the harness
records its maximum, compares it against the matching prediction window
capped at the largest value a trial can reach, and reduces everything to
a ConcentrationReport.  Reports serialize to JSON or CSV; reruns with
the same master seed are byte-identical apart from the wall-clock entry,
which can be excluded.

Trials after the first run on a few threads (_run_trials), since numpy
releases the interpreter lock in most of a trial's array work.  Each
trial derives its own seed as it starts and hands back only its maximum,
and the harness records the trials in index order, so a report does not
depend on how many threads ran it.

KIND_SPECS holds every kind: its command-line flags and its window,
which predicts the maximum and hands back the trial that draws the
vector.  run_experiment and the degree-lab command read nothing else.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from sys import float_info
from typing import Callable, NamedTuple

import numpy as np

from .bins import throw_balls
from .concentration import (DEFAULT_EPSILON, predicted_interval,
                            two_point_prediction, typical_max_load)
from .edgelist import _read_simple_graph
from .forests import sample_forest_degrees
from .graphs import LabeledGraph, _whole, core_of, split
from .samplers import (PipelineSpec, SamplingCapExceeded, exact_census_gnm,
                       sample_complex, sample_cs_counted, sample_gnm_counted,
                       sample_pipeline)
from .seeding import trial_seed

DEFAULT_TRIALS = 100
DEFAULT_THRESHOLD = 0.9
DEFAULT_CENSUS_THRESHOLD = 0.05

# each thread holds one trial's working set, so peak memory grows with
# the thread count
_MAX_WORKERS = 4
# trials submitted ahead of the one being recorded, per thread
_IN_FLIGHT_PER_WORKER = 2


@dataclass
class ExperimentConfig:
    """Parameters of one experiment; unused fields stay None."""

    kind: str
    n: int | None = None
    m: int | None = None
    k: int | None = None
    t: int | None = None
    q: int | None = None
    core: LabeledGraph | None = None
    large_order: int | None = None
    small_order: int | None = None
    epsilon: float = DEFAULT_EPSILON
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    threshold: float | None = None
    shuffle_labels: bool = False


@dataclass
class ConcentrationReport:
    """Outcome of one experiment run."""

    kind: str
    params: dict
    verdict: str
    master_seed: int
    interval: tuple[int, int] | None = None
    anchor: int | None = None
    histogram: dict[int, int] = field(default_factory=dict)
    hit_fraction: float | None = None
    trial_seeds: list[int] = field(default_factory=list)
    elapsed_ms: float = 0.0
    extras: dict = field(default_factory=dict)
    trial_stats: list[int | None] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class Flag:
    """A command-line flag and the ExperimentConfig field it fills.

    `type` parses the flag (bool makes it a switch); `load` turns the
    parsed value into the field value.  A numeric field must be finite
    and at least `low`, an int one an integer (a float is refused, never
    truncated); a required one must be set.
    """

    name: str
    field: str
    type: Callable = int
    help: str | None = None
    required: bool = True
    low: int | None = None
    load: Callable | None = None
    metavar: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class Window(NamedTuple):
    """A kind's trial and what it predicts before its trials run."""

    trial: Callable[[int], tuple]  # seed -> values, checks, draws
    params: dict  # the kind's own report params, ahead of the shared ones
    interval: tuple[int, int]  # before the cap at top
    anchor: int  # before the cap at top
    top: float  # the largest value a trial can reach; inf for loads
    extras: dict = {}  # report extras known before the trials


@dataclass(frozen=True)
class KindSpec:
    """One experiment kind.

    A sampling kind gives `window`, which builds once what its trials
    share and returns a Window whose trial(seed) returns its load or
    degree vector, the named checks it passed or failed, and the number
    of draws it made (1 unless it rejects).  counts_attempts reports
    completed trials over draws as acceptanceFraction.  A kind without trials
    gives `report`, which builds the whole report.  Samplers are called
    through this module's globals at call time, never stored.
    """

    help: str
    flags: tuple[Flag, ...]
    window: Callable[[ExperimentConfig], Window] | None = None
    report: Callable[[ExperimentConfig, float],
                     ConcentrationReport] | None = None
    threshold: float = DEFAULT_THRESHOLD
    counts_attempts: bool = False


def _int_if_whole(x: float) -> float | int:
    return int(x) if float(x).is_integer() else x


def _window(n: float, k: float | None, eps: float, shift: int = 0):
    """Load window of k balls in n bins and its anchor, moved up by shift."""
    lo, hi = predicted_interval(n, k, eps)
    anchor = math.floor(typical_max_load(n, k) - 1.0 / 3.0)
    return (lo + shift, hi + shift), anchor + shift


def _nu_report(cfg: ExperimentConfig, threshold: float) -> ConcentrationReport:
    k = cfg.k if cfg.k is not None else cfg.n
    interval, anchor = _window(cfg.n, k, cfg.epsilon)
    return ConcentrationReport(
        kind=cfg.kind, params={"n": cfg.n, "k": k, "eps": cfg.epsilon},
        verdict="pass", master_seed=cfg.master_seed, interval=interval,
        anchor=anchor, extras={"typicalLoad": typical_max_load(cfg.n, k)})


def _census_report(cfg: ExperimentConfig,
                   threshold: float) -> ConcentrationReport:
    seed = trial_seed(cfg.master_seed, 0)
    result = exact_census_gnm(cfg.n, cfg.m, cfg.trials, seed)
    passed = (result.tv_distance <= threshold
              and not result.insufficient_samples)
    return ConcentrationReport(
        kind=cfg.kind,
        params={"n": cfg.n, "m": cfg.m, "trials": cfg.trials,
                "threshold": threshold},
        verdict="pass" if passed else "fail", master_seed=cfg.master_seed,
        histogram={i: c for i, c in enumerate(result.counts) if c},
        trial_seeds=[seed],
        extras={"graphCount": result.graph_count,
                "tvDistance": result.tv_distance,
                "chiSquare": result.chi_square,
                "insufficientSamples": result.insufficient_samples})


def _bins_window(cfg):
    def trial(seed):
        return throw_balls(cfg.n, cfg.k, seed), {}, 1
    return Window(trial, {"n": cfg.n, "k": cfg.k},
                  *_window(cfg.n, cfg.k, cfg.epsilon), math.inf)


def _forest_window(cfg):
    def trial(seed):
        deg = sample_forest_degrees(cfg.n, cfg.t, seed)
        return deg, {"rootGap": (deg[cfg.t:] > deg[:cfg.t].max()).any()}, 1
    return Window(trial, {"n": cfg.n, "t": cfg.t},
                  *_window(cfg.n, None, cfg.epsilon, shift=1), cfg.n - 1)


def _counted_window(cfg, sampler, k):
    def trial(seed):
        g, attempts = sampler(cfg.n, cfg.m, seed)
        return g.degree_sequence(), {}, attempts
    return Window(trial, {"n": cfg.n, "m": cfg.m},
                  *_window(cfg.n, k, cfg.epsilon), cfg.n - 1)


def _complex_window(cfg):
    core_degrees = cfg.core.degree_sequence()

    def trial(seed):
        g, forest = sample_complex(cfg.core, cfg.q, seed, return_forest=True)
        degrees = g.degree_sequence()
        expected = forest.degree_sequence()
        expected[:cfg.core.n] += core_degrees
        return degrees, {
            "coreRecovery": bool(np.array_equal(core_of(g).edges,
                                                cfg.core.edges)),
            "degreeIdentity": bool(np.array_equal(degrees, expected)),
        }, 1
    return Window(trial, {"coreOrder": cfg.core.n,
                          "coreSize": cfg.core.num_edges, "q": cfg.q},
                  *_window(cfg.q, None, cfg.epsilon, shift=1), cfg.q - 1)


def _pipeline_window(cfg):
    prediction = two_point_prediction(cfg.n, cfg.m)
    params = {"n": cfg.n, "m": cfg.m, "l": cfg.large_order,
              "r": cfg.small_order, "coreOrder": cfg.core.n,
              "coreSize": cfg.core.num_edges,
              "shuffleLabels": cfg.shuffle_labels}
    spec = PipelineSpec(cfg.core, cfg.large_order, cfg.small_order,
                        cfg.n, cfg.m)

    def trial(seed):
        g = sample_pipeline(spec, seed, shuffle_labels=cfg.shuffle_labels)
        parts = split(g)
        checks = {
            "conservation": g.n == spec.n and g.num_edges == spec.m,
            "partOrders": (parts.large_complex.order == spec.large_order
                           and parts.small_complex.order == spec.small_order
                           and parts.non_complex.order == spec.spare_order),
        }
        if spec.small_order > 0 and spec.spare_order > 0:
            checks["smallPartBelowSpare"] = (parts.small_complex.max_degree()
                                             < parts.non_complex.max_degree())
        return g.degree_sequence(), checks, 1
    return Window(trial, params, prediction.as_tuple(), prediction.lower,
                  cfg.n - 1, {"regime": prediction.regime})


_N = Flag("--n", "n", low=1)
_TRIALS = (Flag("--trials", "trials",
                help=f"number of trials (default {DEFAULT_TRIALS})",
                required=False, low=1),
           Flag("--seed", "master_seed", help="master seed (default 0)",
                required=False))
_EPS = Flag("--eps", "epsilon", float,
            help=f"interval half-width (default {DEFAULT_EPSILON})",
            required=False)
_CORE = Flag("--core", "core", str, help="edge-list file holding the core",
             load=_read_simple_graph, metavar="FILE")

KIND_SPECS: dict[str, KindSpec] = {
    "nu": KindSpec(
        "typical maximum load and its window",
        (Flag("--n", "n", float, load=_int_if_whole, low=1),
         Flag("--k", "k", float, help="ball count (defaults to n)",
              required=False, low=1),
         _EPS),
        report=_nu_report),
    "bins": KindSpec(
        "maximum load of k balls in n bins",
        (*_TRIALS, _EPS, _N, Flag("--k", "k", low=1)),
        _bins_window),
    "forest": KindSpec(
        "maximum degree of a uniform rooted forest",
        (*_TRIALS, _EPS, _N, Flag("--t", "t", low=1)),
        _forest_window),
    "gnm": KindSpec(
        "maximum degree of a uniform graph with m edges",
        (*_TRIALS, _EPS, _N, Flag("--m", "m", low=1)),
        lambda cfg: _counted_window(cfg, sample_gnm_counted, 2 * cfg.m),
        counts_attempts=True),
    "cs": KindSpec(
        "maximum degree of a uniform complex-free graph",
        (*_TRIALS, _EPS, _N, Flag("--m", "m", low=0)),
        lambda cfg: _counted_window(cfg, sample_cs_counted, None),
        counts_attempts=True),
    "complex": KindSpec(
        "maximum degree of a complex graph with a prescribed core",
        (*_TRIALS, _EPS, _CORE,
         Flag("--q", "q", help="order of the sampled graph", low=1)),
        _complex_window),
    "pipeline": KindSpec(
        "assembled three-part graph experiment",
        (*_TRIALS, _CORE,
         Flag("--l", "large_order", help="order of the large complex part",
              low=0),
         Flag("--r", "small_order", help="order of the small complex part",
              low=0),
         _N, Flag("--m", "m", low=0),
         Flag("--shuffle-labels", "shuffle_labels", bool,
              help="apply a uniform label permutation to each draw",
              required=False)),
        _pipeline_window),
    "census": KindSpec(
        "uniformity check of the gnm sampler",
        (*_TRIALS, _N, Flag("--m", "m", low=0)),
        report=_census_report, threshold=DEFAULT_CENSUS_THRESHOLD),
}

KINDS = tuple(KIND_SPECS)


def _checked_spec(cfg: ExperimentConfig) -> KindSpec:
    """The table entry for cfg.kind, after checking cfg against its flags."""
    spec = KIND_SPECS.get(cfg.kind)
    if spec is None:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    for flag in spec.flags:
        value = getattr(cfg, flag.field)
        if value is None:
            if flag.required:
                raise ValueError(f"kind={cfg.kind!r} needs {flag.field}")
            continue
        if flag.type is int:
            _whole(flag.field, value)
        if flag.type in (int, float) and not abs(value) <= float_info.max:
            raise ValueError(f"kind={cfg.kind!r} needs a finite "
                             f"{flag.field}, got {value}")
        if flag.low is not None and value < flag.low:
            raise ValueError(f"kind={cfg.kind!r} needs {flag.field} >= "
                             f"{flag.low}, got {value}")
    if cfg.threshold is not None and not 0.0 <= cfg.threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {cfg.threshold}")
    return spec


def _worker_count(trials: int) -> int:
    """Threads for trials 1..trials - 1: the CPUs this process may use,
    at most _MAX_WORKERS and at most one a trial."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS, trials - 1)


def _run_trials(run: Callable[[int], tuple], trials: int):
    """Yield run(0), ..., run(trials - 1), in index order.

    run(0) runs on the calling thread, so bad input fails there before
    any other trial starts.  The rest run on _worker_count(trials)
    threads, or on the calling thread when that is below two (a pool of
    one only adds its overhead).  At most _IN_FLIGHT_PER_WORKER trials a
    thread are submitted ahead of the one being yielded, so a huge trial
    count queues nothing it has not started.  A trial's exception is
    raised when its turn comes, so the lowest failing index wins; the
    trials not yet started are then cancelled, those running are waited
    for and their results dropped, and every thread has ended before
    this generator finishes or raises.
    """
    yield run(0)
    workers = _worker_count(trials)
    if workers < 2:
        for i in range(1, trials):
            yield run(i)
        return
    pool = ThreadPoolExecutor(workers)
    pending: deque = deque()
    try:
        for i in range(1, trials):
            pending.append(pool.submit(run, i))
            if len(pending) == workers * _IN_FLIGHT_PER_WORKER:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _trial_report(cfg: ExperimentConfig, spec: KindSpec,
                  threshold: float) -> ConcentrationReport:
    window = spec.window(cfg)
    params = {**window.params, "trials": cfg.trials}
    if _EPS in spec.flags:
        params["eps"] = cfg.epsilon
    params["threshold"] = threshold

    def run(i):
        """Trial i's seed, derived as it starts, its maximum (None when
        capped), its draws and its checks; its vector dies here."""
        seed = trial_seed(cfg.master_seed, i)
        try:
            values, passed, tries = window.trial(seed)
        except SamplingCapExceeded as exc:
            return seed, None, exc.attempts, {}
        return seed, int(values.max(initial=0)), tries, passed

    seeds: list[int] = []
    stats: list[int | None] = []
    checks: dict[str, int] = {}
    attempts = 0
    for seed, stat, tries, passed in _run_trials(run, cfg.trials):
        seeds.append(seed)
        stats.append(stat)
        attempts += tries
        for name, ok in passed.items():
            checks[name] = checks.get(name, 0) + (1 if ok else 0)

    observed = [s for s in stats if s is not None]
    lo, hi = (min(x, window.top) for x in window.interval)
    hit_fraction = sum(1 for s in observed if lo <= s <= hi) / cfg.trials
    extras = dict(window.extras)
    for name, good in checks.items():
        extras[name + "Fraction"] = good / cfg.trials
    if spec.counts_attempts:
        extras["acceptanceFraction"] = len(observed) / attempts
    if len(observed) < cfg.trials:
        extras["failedTrials"] = cfg.trials - len(observed)

    return ConcentrationReport(
        kind=cfg.kind, params=params,
        verdict="pass" if hit_fraction >= threshold else "fail",
        master_seed=cfg.master_seed, interval=(int(lo), int(hi)),
        anchor=int(min(window.anchor, window.top)),
        histogram=dict(sorted(Counter(observed).items())),
        hit_fraction=hit_fraction, trial_seeds=seeds, extras=extras,
        trial_stats=stats)


def run_experiment(cfg: ExperimentConfig) -> ConcentrationReport:
    start = time.perf_counter()
    spec = _checked_spec(cfg)
    threshold = (spec.threshold if cfg.threshold is None
                 else float(cfg.threshold))
    if spec.report is not None:
        report = spec.report(cfg, threshold)
    else:
        report = _trial_report(cfg, spec, threshold)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _json_bytes(doc: dict) -> bytes:
    """A report document as written: indented strict JSON and a newline."""
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()


def emit_report(report: ConcentrationReport, fmt: str = "json", *,
                include_elapsed: bool = True) -> bytes:
    """Serialize a report.  JSON carries the full report; CSV carries
    one row per trial and exists only for kinds with per-trial rows."""
    if fmt == "json":
        doc: dict = {"kind": report.kind, "params": report.params}
        if report.interval is not None:
            doc["prediction"] = {"interval": list(report.interval),
                                 "h": report.anchor}
        else:
            doc["prediction"] = None
        doc["histogram"] = [[value, count]
                            for value, count in sorted(report.histogram.items())]
        doc["hitFraction"] = report.hit_fraction
        doc["verdict"] = report.verdict
        doc["masterSeed"] = report.master_seed
        doc["trialSeeds"] = report.trial_seeds
        if include_elapsed:
            doc["elapsedMs"] = round(report.elapsed_ms, 3)
        if report.extras:
            doc["extras"] = report.extras
        return _json_bytes(doc)
    if fmt == "csv":
        if not report.trial_stats:
            raise ValueError(f"kind={report.kind!r} has no per-trial rows; "
                             "use the json format")
        lo, hi = report.interval
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trialIndex", "seed", "statistic", "inInterval"])
        for i, (seed, stat) in enumerate(zip(report.trial_seeds,
                                             report.trial_stats)):
            if stat is None:
                writer.writerow([i, seed, "", "false"])
            else:
                writer.writerow([i, seed, stat,
                                 "true" if lo <= stat <= hi else "false"])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


__all__ = ["KINDS", "ExperimentConfig", "ConcentrationReport",
           "run_experiment", "emit_report"]
