"""Run one degree-lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grown-core --seed 1 --seconds 25 --trace 0

Imports degree_lab from the src/ directory next to this one, builds the
workload's inputs from --seed, then issues verdicts (run_experiment or
cli.main calls) one after another for --seconds seconds, in this one
process.  Every verdict's report is checked (see workloads.py).

--trace 0 prints the end-to-end metrics; their timings are scaled to a
reference host speed by calibration passes timed between verdicts (see
calibrate.py).  --trace 1 spends half of
--seconds untraced, replays the same verdicts with spans installed on
degree_lab (see spans.py), checks that both give the same reports and
that every wrapper is gone afterwards, and prints the per-layer metrics.

Lines starting with '#' give provenance, the first verdict's report
digest and each metric in words; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  A run whose outputs
fail a check prints correct: false with no metrics and exits 1; a run
that cannot import degree_lab prints no result and exits 2.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

DEFAULT_SEED = 1
HOLDOUT_SEED = 20201029  # for claims that must hold on a seed not used in development
SETUP_PROBES = 4  # fresh-interpreter set-ups per run, besides this process's own


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_lab():
    package = SRC / "degree_lab"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no degree_lab sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import degree_lab
    import degree_lab.cli  # noqa: F401  (pipeline-cli calls it; traces wrap it)
    if Path(degree_lab.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported degree_lab from {degree_lab.__file__}, "
                         f"not from {package}")
    return degree_lab


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under WORK; both are gone afterwards."""
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as path:
            yield Path(path)
    finally:
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()


def set_up(name: str, workdir: Path):
    """Import degree_lab and build the workload's inputs; time both."""
    start = time.perf_counter()
    lab = load_lab()
    workload = workloads.WORKLOADS[name](lab, workdir)
    return lab, workload, time.perf_counter() - start


def probe_set_up(name: str) -> float:
    """Set-up seconds in a fresh interpreter, scaled like a verdict."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-probe"], capture_output=True, text=True, timeout=120,
        check=True)
    return float(out.stdout.split()[-1])


def loop(workload, seed: int, seconds: float) -> tuple[list, list[float]]:
    """Closed loop: verdict after verdict until `seconds` have passed.

    Returns the verdicts and the calibration passes timed before the
    first verdict and after each one (see calibrate.py), untimed by the
    verdicts themselves.  Garbage left by one verdict is collected before
    the next one starts, so that no verdict pays for its predecessor.
    """
    verdicts, passes = [], [calibrate.measure(workload.calibration)]
    start = time.perf_counter()
    while not verdicts or time.perf_counter() - start < seconds:
        gc.collect()
        verdicts.append(workload.verdict(
            workloads.master_seed(seed, len(verdicts))))
        passes.append(calibrate.measure(workload.calibration))
    return verdicts, passes


def host_factor(workload, *passes: float) -> float:
    """The workload's reference pass time over the mean of `passes`."""
    return calibrate.reference(workload.calibration) / statistics.fmean(passes)


def end_to_end(workload, verdicts: list, passes: list[float],
               setup_samples: list[float]) -> dict:
    """Timings scaled to the reference host speed, medians over verdicts."""
    attempted = sum(v.trials for v in verdicts)
    completed = attempted - sum(v.failed for v in verdicts)
    # each verdict is scaled by the passes just before and after it
    factors = [host_factor(workload, before, after)
               for before, after in zip(passes, passes[1:])]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "trials_per_s": (statistics.median(
            (v.trials - v.failed) / (v.seconds * f)
            for v, f in zip(verdicts, factors)), "1/s"),
        "experiment_s_p50": (statistics.median(
            v.seconds * f for v, f in zip(verdicts, factors)), "s"),
        "completed_trial_frac": (completed / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def traced(workload, seed: int, seconds: float, tracer: spans.Tracer):
    """Untraced verdicts, then the same verdicts traced; per-layer metrics."""
    plain, _ = loop(workload, seed, seconds / 2)
    tracer.install()
    try:
        replay = []
        for i in range(len(plain)):
            gc.collect()
            replay.append(workload.verdict(workloads.master_seed(seed, i)))
    finally:
        tracer.restore()
    problems = [f"verdict {i}: traced report differs from untraced"
                for i, (a, b) in enumerate(zip(plain, replay))
                if a.digest != b.digest]
    problems += [f"wrapper left on {name}"
                 for name in spans.leftover_wrappers()]
    encode_ms, problem = workload.round_trip(plain[0])
    problems.append(problem)
    metrics = spans.per_layer(tracer, sum(v.trials for v in replay))
    metrics["forests.encode_forest.ms"] = (encode_ms, "ms/call")
    metrics["trace.overhead_frac"] = (
        sum(v.seconds for v in replay) / sum(v.seconds for v in plain) - 1,
        "fraction")
    return plain + replay, metrics, problems


def provenance(name: str, seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "degree_lab").glob("*.py")):
        sources.update(path.read_bytes())
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": name, "seed": seed, "default_seed": DEFAULT_SEED,
            "holdout_seed": HOLDOUT_SEED, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "git_dirty": dirty,
            "src_sha256": sources.hexdigest()}


def run(name: str, seed: int, seconds: float,
        trace: bool) -> tuple[list[str], dict]:
    """One benchmark run: '#' info lines and the result object."""
    with scratch_dir() as workdir:
        lab, workload, setup_s = set_up(name, workdir)
        info = [f"provenance {json.dumps(provenance(name, seed))}"]
        if trace:
            tracer = spans.Tracer(lab.SamplingCapExceeded)
            verdicts, metrics, problems = traced(workload, seed, seconds,
                                                 tracer)
        else:
            verdicts, passes = loop(workload, seed, seconds)
            problems = []
        problems.append(workload.final_check(verdicts[0]))
        problems += [f"verdict {i}: {v.problem}"
                     for i, v in enumerate(verdicts) if v.problem]
    if not trace:
        # this process's own set-up is scaled by the pass that follows it
        setup_samples = [setup_s * host_factor(workload, passes[0])]
        setup_samples += [probe_set_up(name) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(workload, verdicts, passes, setup_samples)
    attempted = sum(v.trials for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    walls = [v.seconds for v in verdicts]
    info.append(f"digest {name} seed={seed} verdict0 sha256={verdicts[0].digest}")
    info.append(f"verdicts {len(verdicts)} of {workload.trials} trials each; "
                f"wall s min {min(walls):.4f} p50 {statistics.median(walls):.4f}"
                f" max {max(walls):.4f}")
    if not trace:
        rates = [(v.trials - v.failed) / v.seconds for v in verdicts]
        info.append(f"unscaled medians: trials_per_s "
                    f"{statistics.median(rates)} 1/s, experiment_s "
                    f"{statistics.median(walls)} s; calibration pass s p50 "
                    f"{statistics.median(passes)} (reference "
                    f"{calibrate.reference(workload.calibration)})")
    info.append(f"metric failed_trial_frac {failed / attempted} fraction "
                f"({failed} of {attempted} trials)")
    info += [f"metric {key} {value} {unit}"
             for key, (value, unit) in metrics.items()]
    problems = [p for p in problems if p]
    info += [f"problem {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {} if problems else {
                  key: {"value": value, "unit": unit}
                  for key, (value, unit) in metrics.items()}}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            with scratch_dir() as workdir:
                _, workload, setup_s = set_up(args.workload, workdir)
                print(setup_s * host_factor(
                    workload, calibrate.measure(workload.calibration)))
            return 0
        info, result = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in info:
        print("#", line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
