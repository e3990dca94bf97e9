"""The four benchmark workloads: inputs, one timed verdict, output checks.

Each workload reuses an acceptance-suite configuration and issues
verdicts in a closed loop with one caller: the next run_experiment (or
cli.main) call starts only after the previous one returned.  Verdict i
of a run gets master seed master_seed(seed, i), so one workload seed
always yields the same inputs.  README.md says why each was chosen.
"""
from __future__ import annotations

import hashlib
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
CENSUS_TV_BUDGET = 0.03  # criterion 07


def master_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def strict_json(payload: bytes) -> dict:
    def reject(token):
        raise ValueError(f"report holds the non-JSON constant {token}")
    return json.loads(payload, parse_constant=reject)


@dataclass
class Verdict:
    """One timed run_experiment or cli.main call and what its output showed."""

    seconds: float
    trials: int
    failed: int
    digest: str | None = None
    doc: dict | None = None
    problem: str | None = None  # a broken correctness gate


def _checked(verdict: Verdict, payload: bytes, gate) -> Verdict:
    """Digest a report serialized without its elapsed time, then gate it."""
    verdict.digest = hashlib.sha256(payload).hexdigest()
    try:
        verdict.doc = strict_json(payload)
    except ValueError as exc:
        verdict.problem = str(exc)
        return verdict
    verdict.problem = gate(verdict.doc) or _histogram_problem(verdict)
    return verdict


def _histogram_problem(verdict: Verdict) -> str | None:
    if verdict.doc["kind"] == "census":
        return None
    observed = sum(count for _, count in verdict.doc["histogram"])
    if observed != verdict.trials - verdict.failed:
        return (f"histogram holds {observed} trials, expected "
                f"{verdict.trials - verdict.failed}")
    return None


def _crashed(start: float, trials: int) -> Verdict:
    traceback.print_exc()
    return Verdict(time.perf_counter() - start, trials, trials)


class Workload:
    """Builds its inputs from degree_lab at construction; verdict() is timed."""

    name = ""
    trials = 0
    # calibrate.py kernels that do this workload's kind of work
    calibration = ("interpreter", "small_calls", "arrays")

    def __init__(self, lab, workdir):
        self.lab = lab

    def verdict(self, master: int) -> Verdict:
        cfg = self.config(master)
        start = time.perf_counter()
        try:
            report = self.lab.run_experiment(cfg)
        except Exception:  # a crashed verdict fails every trial it held
            return _crashed(start, cfg.trials)
        verdict = Verdict(time.perf_counter() - start, cfg.trials,
                          report.extras.get("failedTrials", 0))
        payload = self.lab.emit_report(report, include_elapsed=False)
        return _checked(verdict, payload, self.gate)

    def config(self, master: int):
        raise NotImplementedError

    def gate(self, doc: dict) -> str | None:
        return None

    def final_check(self, first: Verdict) -> str | None:
        """Check run once per benchmark run, untimed, on the first verdict."""
        return None

    def round_trip(self, first: Verdict) -> tuple[float, str | None]:
        """Milliseconds of one encode_forest call, and any problem."""
        return 0.0, None


class GrownCore(Workload):
    """Criterion 11: K4 core grown to q = 100 000 vertices."""

    name = "grown-core"
    trials = 2
    q = 100_000

    def __init__(self, lab, workdir):
        super().__init__(lab, workdir)
        self.core = lab.LabeledGraph(4, K4)

    def config(self, master):
        return self.lab.ExperimentConfig(kind="complex", core=self.core,
                                         q=self.q, trials=self.trials,
                                         master_seed=master)

    def gate(self, doc):
        extras = doc["extras"]
        for key in ("coreRecoveryFraction", "degreeIdentityFraction"):
            if extras.get(key) != 1.0:
                return f"{key} is {extras.get(key)}, not 1.0"
        return None

    def round_trip(self, first):
        if first.doc is None:
            return 0.0, None
        lab = self.lab
        forest = lab.sample_forest(self.q, self.core.n,
                                   first.doc["trialSeeds"][0])
        start = time.perf_counter()
        seq = lab.encode_forest(forest)
        ms = (time.perf_counter() - start) * 1e3
        if lab.decode_sequence(self.q, self.core.n, seq) != forest:
            return ms, "encode_forest/decode_sequence round trip differs"
        return ms, None


class Census(Workload):
    """Criterion 07b: uniformity census of G(4, 3), 20 graphs."""

    name = "census"
    trials = 20_000  # samples per verdict; expected TV ~0.012 vs budget 0.03
    calibration = ("small_calls",)

    def config(self, master):
        return self.lab.ExperimentConfig(kind="census", n=4, m=3,
                                         trials=self.trials,
                                         master_seed=master)

    def gate(self, doc):
        extras = doc["extras"]
        if extras["insufficientSamples"]:
            return "census flags insufficient samples"
        if not extras["tvDistance"] < CENSUS_TV_BUDGET:
            return (f"census TV distance {extras['tvDistance']} is over "
                    f"the {CENSUS_TV_BUDGET} budget")
        return None


class SparseCs(Workload):
    """Criterion 09: complex-free graphs at n = 100 000, m = 50 000."""

    name = "sparse-cs"
    trials = 25
    calibration = ("arrays",)
    n = 100_000
    m = 50_000

    def config(self, master):
        return self.lab.ExperimentConfig(kind="cs", n=self.n, m=self.m,
                                         trials=self.trials,
                                         master_seed=master)

    def final_check(self, first):
        """Replay the first verdict's trials and check each draw from outside."""
        if first.doc is None:
            return None
        degrees = Counter()
        for seed in first.doc["trialSeeds"]:
            g = self.lab.sample_cs(self.n, self.m, seed)
            if g.n != self.n or g.num_edges != self.m:
                return f"sample_cs gave n={g.n}, m={g.num_edges}"
            if not complex_free(g.n, g.edges):
                return "sample_cs returned a graph with a complex component"
            degrees[g.max_degree()] += 1
        if sorted(degrees.items()) != [tuple(p) for p in first.doc["histogram"]]:
            return "replayed max degrees differ from the report histogram"
        return None


def complex_free(n: int, edges) -> bool:
    """True when no component has more edges than vertices."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    u, v = edges[:, 0] - 1, edges[:, 1] - 1
    adj = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    ncomp, labels = connected_components(adj, directed=False)
    vertices = np.bincount(labels, minlength=ncomp)
    edge_count = np.bincount(labels[u], minlength=ncomp)
    return bool((edge_count <= vertices).all())


class PipelineCli(Workload):
    """Criterion 12b through cli.main: cubic(500) + theta core, l = 38 400."""

    name = "pipeline-cli"
    trials = 4
    n = 100_000
    large = 38_400
    small = 598

    def __init__(self, lab, workdir):
        super().__init__(lab, workdir)
        half = 500
        size = 2 * half
        edges = [(i, i % size + 1) for i in range(1, size + 1)]
        edges += [(i, i + half) for i in range(1, half + 1)]
        a, b = size + 1, size + 2
        edges += [(a, size + 3), (size + 3, b), (a, size + 4),
                  (size + 4, size + 5), (size + 5, b), (a, size + 6),
                  (size + 6, size + 7), (size + 7, b)]
        core = lab.LabeledGraph(size + 7, edges)
        spare = self.n - self.large - self.small
        self.m = (spare // 2 + core.num_edges - core.n
                  + self.large + self.small)
        self.core_path = workdir / "core.txt"
        self.out_path = workdir / "report.json"
        lab.write_edge_list(core, self.core_path)

    def argv(self, master: int) -> list[str]:
        return ["pipeline", "--core", str(self.core_path),
                "--l", str(self.large), "--r", str(self.small),
                "--n", str(self.n), "--m", str(self.m),
                "--trials", str(self.trials), "--seed", str(master),
                "--out", str(self.out_path)]

    def verdict(self, master):
        argv = self.argv(master)
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.lab.cli.main(argv)
        except Exception:  # a crashed verdict fails every trial it held
            return _crashed(start, self.trials)
        seconds = time.perf_counter() - start
        if code == 2:
            return Verdict(seconds, self.trials, self.trials)
        try:
            doc = strict_json(self.out_path.read_bytes())
        except ValueError as exc:
            return Verdict(seconds, self.trials, 0, problem=str(exc))
        doc.pop("elapsedMs", None)
        payload = (json.dumps(doc, indent=2) + "\n").encode()
        verdict = Verdict(seconds, self.trials,
                          doc["extras"].get("failedTrials", 0))
        verdict = _checked(verdict, payload, self.gate)
        expected = 0 if doc["verdict"] == "pass" else 1
        if verdict.problem is None and code != expected:
            verdict.problem = f"exit code {code} for verdict {doc['verdict']}"
        return verdict

    def gate(self, doc):
        extras = doc["extras"]
        if extras["regime"] != "III":
            return f"regime {extras['regime']}, expected III"
        for key in ("conservationFraction", "partOrdersFraction"):
            if extras.get(key) != 1.0:
                return f"{key} is {extras.get(key)}, not 1.0"
        return None


WORKLOADS = {w.name: w for w in (GrownCore, Census, SparseCs, PipelineCli)}
