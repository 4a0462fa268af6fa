"""The benchmark's four workloads, driven through the public API only.

Each workload has a ``setup`` (imports, zoo loads, lowering, inputs) and
a ``run_pass`` that makes one pass over its inputs, checks every answer
against the committed references in ``reference.json`` and returns a
:class:`PassResult` with the violations it found.

Every workload's inputs are fixed; see README.md for why the seed is
recorded but changes no input.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

#: The workload names, in the order BENCHMARK.json lists them.
NAMES = ("alg1-mlp", "alg1-cnn", "eps-queries", "acc-invariant")

#: Soundness slack on ε̄ ≥ ε_exact (HiGHS optimality tolerance scale).
EPS_TOL = 1e-7


@dataclass
class PassResult:
    """Outcome of one pass over a workload's inputs.

    Attributes:
        wall_s: Wall-clock seconds of the pass.
        answers: Every answer as exact bytes/values (bit-identity key).
        attempted: Certification queries made.
        failed: Errors plus degraded plus undecided answers.
        decided: Queries answered with a decided result.
        bounds: ``(certified, reference)`` pairs behind ``eps_ratio``.
        violations: Correctness-gate failures of this pass.
        info: Workload-specific data read by the per-layer metrics.
    """

    wall_s: float
    answers: tuple
    attempted: int
    failed: int
    decided: int
    bounds: list[tuple[float, float]]
    violations: list[str]
    info: dict = field(default_factory=dict)

    @property
    def eps_ratio(self) -> float:
        """Geometric mean of certified bound over reference bound.

        A pass with no certified bound has a violation on record, so
        its ratio (1.0) is never reported as a correct result.
        """
        if not self.bounds:
            return 1.0
        logs = [math.log(c / r) for c, r in self.bounds]
        return math.exp(sum(logs) / len(logs))


def _import_modules(names: tuple[str, ...]) -> float:
    import importlib

    t0 = time.perf_counter()
    for name in names:
        importlib.import_module(name)
    return time.perf_counter() - t0


class Alg1:
    """Algorithm 1 (``GlobalRobustnessCertifier``) over Table I nets."""

    modules = ("numpy", "repro.zoo", "repro.bounds", "repro.certify")

    def __init__(self, name: str, ref: dict) -> None:
        self.name = name
        self.ref = ref[name]

    def setup(self) -> dict[str, float]:
        timings = {"import_s": _import_modules(self.modules)}
        from repro.bounds import Box
        from repro.certify import CertifierConfig, GlobalRobustnessCertifier
        from repro.zoo import get_network

        t0 = time.perf_counter()
        if self.name == "alg1-mlp":
            entries = [(f"dnn{i}", get_network(i)) for i in (1, 2, 3)]
        else:
            entries = [("dnn6", get_network(6, image_size=10))]
        timings["load_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.jobs = []
        for tag, entry in entries:
            refine = max(2, entry.hidden_neurons // 2) if self.name == "alg1-mlp" else 0
            certifier = GlobalRobustnessCertifier(
                entry.network, CertifierConfig(window=2, refine_count=refine)
            )
            box = Box.uniform(entry.network.input_dim, 0.0, 1.0)
            self.jobs.append((tag, certifier, box, entry.delta))
        timings["lower_s"] = time.perf_counter() - t0
        return timings

    def run_pass(self) -> PassResult:
        import numpy as np

        certs = []
        t0 = time.perf_counter()
        for tag, certifier, box, delta in self.jobs:
            certs.append((tag, certifier.certify(box, delta)))
        wall = time.perf_counter() - t0

        violations, bounds, answers = [], [], []
        t_our = {}
        for tag, cert in certs:
            eps = np.asarray(cert.epsilons, dtype=float)
            answers.append((tag, eps.tobytes(), cert.lp_count, cert.milp_count))
            t_our[tag] = cert.solve_time
            refs = self.ref[tag]
            if not np.all(np.isfinite(eps)):
                violations.append(f"{tag}: non-finite ε̄ {eps.tolist()}")
                continue
            for j, (e, r) in enumerate(zip(eps.tolist(), refs)):
                if e < r - EPS_TOL:
                    violations.append(f"{tag} output {j}: ε̄={e!r} < reference {r!r}")
                bounds.append((e, r))
        decided = sum(bool(np.all(np.isfinite(c.epsilons))) for _, c in certs)
        if not bounds:
            violations.append("no certified bound to compare")
        return PassResult(
            wall, tuple(answers), len(certs), len(certs) - decided, decided,
            bounds, violations, {"t_our": t_our},
        )


class EpsQueries:
    """Local ε-queries through the batch engine on Auto MPG DNN-5."""

    modules = ("numpy", "repro.zoo", "repro.bounds", "repro.data", "repro.runtime")
    #: Seed of the one fixed draw of centers and ε targets.
    DRAW_SEED = 0
    COUNT = 100
    DELTA = 0.05

    def __init__(self, name: str, ref: dict) -> None:
        self.name = name
        self.ref = ref[name]

    @classmethod
    def draw(cls):
        """The fixed centers and log-uniform ε targets."""
        import numpy as np

        from repro.data import load_auto_mpg

        x, _ = load_auto_mpg(400, seed=0)
        rng = np.random.default_rng(cls.DRAW_SEED)
        centers = x[rng.choice(len(x), cls.COUNT, replace=False)]
        targets = np.exp(rng.uniform(np.log(0.02), np.log(0.1), cls.COUNT))
        return centers, targets

    def setup(self) -> dict[str, float]:
        import os

        timings = {"import_s": _import_modules(self.modules)}
        from repro.bounds import Box
        from repro.nn.network import as_affine_chain
        from repro.zoo import get_network

        t0 = time.perf_counter()
        network = get_network(5).network
        timings["load_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.layers = as_affine_chain(network)
        self.domain = Box.uniform(network.input_dim, 0.0, 1.0)
        self.centers, self.targets = self.draw()
        self.workers = min(2, os.cpu_count() or 1)
        self.queries()  # rebuilt untimed before each pass; timed here once
        timings["lower_s"] = time.perf_counter() - t0
        return timings

    def queries(self):
        """A fresh query list (the engine mutates the queries it runs)."""
        from repro.runtime import local_queries

        queries = local_queries(
            self.layers, self.centers, self.DELTA, method="exact",
            domain=self.domain, epsilon=float(self.targets[0]), split=True,
            time_limit=20.0,
        )
        for query, target in zip(queries, self.targets):
            query.epsilon = float(target)
        return queries

    def run_pass(self) -> PassResult:
        from repro.runtime import BatchCertifier

        queries = self.queries()
        engine = BatchCertifier(max_workers=self.workers)
        done_at: dict[int, float] = {}

        def progress(done, total, result):
            done_at[result.index] = time.perf_counter()

        t0 = time.perf_counter()
        results = engine.run(queries, progress=progress)
        wall = time.perf_counter() - t0

        violations, bounds, answers = [], [], []
        failed = decided = 0
        for result, target, exact in zip(results, self.targets, self.ref["exact"]):
            if not result.ok or result.degraded:
                failed += 1
                continue
            cert = result.certificate
            verdict = cert.verdict
            answers.append((result.index, verdict, cert.epsilons.tobytes()))
            if verdict not in ("certified", "refuted"):
                failed += 1
                continue
            decided += 1
            expected = "certified" if exact <= target else "refuted"
            if verdict != expected:
                violations.append(
                    f"query {result.index}: {verdict}, exact ε={exact!r} vs target {target!r}"
                )
            elif verdict == "certified":
                if cert.epsilon < exact - EPS_TOL:
                    violations.append(f"query {result.index}: bound {cert.epsilon!r} < exact {exact!r}")
                bounds.append((cert.epsilon, exact))
            elif cert.epsilon > exact + EPS_TOL:
                violations.append(f"query {result.index}: witness {cert.epsilon!r} > exact {exact!r}")
        if not bounds:
            violations.append("no certified query to compare")
        info = {
            "results": results,
            "submitted": t0,
            "done_at": done_at,
            "presolve_stats": dict(engine.presolve_stats),
            "fault_stats": dict(engine.fault_stats),
            "workers": self.workers,
        }
        return PassResult(
            wall, tuple(answers), len(results), failed, decided,
            bounds, violations, info,
        )


class AccInvariant:
    """The §III-B control side: the largest safe estimation error ē."""

    modules = ("numpy", "repro.control")

    def __init__(self, name: str, ref: dict) -> None:
        self.name = name
        self.ref = ref[name]

    def setup(self) -> dict[str, float]:
        timings = {"import_s": _import_modules(self.modules), "load_s": 0.0}
        from repro.control import AccDynamics, FeedbackController

        t0 = time.perf_counter()
        self.dynamics = AccDynamics()
        self.controller = FeedbackController()
        timings["lower_s"] = time.perf_counter() - t0
        return timings

    def run_pass(self) -> PassResult:
        from repro.control import max_safe_estimation_error

        t0 = time.perf_counter()
        e_bar = max_safe_estimation_error(self.dynamics, self.controller)
        wall = time.perf_counter() - t0
        expected = self.ref["e_bar"]
        violations = [] if e_bar == expected else [f"ē={e_bar!r}, expected {expected!r}"]
        decided = int(e_bar > 0.0)
        # ē is a lower bound on the safe error, so the reference leads.
        bounds = [(expected, e_bar)] if decided else []
        return PassResult(wall, (e_bar,), 1, 1 - decided, decided, bounds, violations)


def make(name: str, ref: dict):
    """The workload object for ``name``."""
    if name in ("alg1-mlp", "alg1-cnn"):
        return Alg1(name, ref)
    if name == "eps-queries":
        return EpsQueries(name, ref)
    if name == "acc-invariant":
        return AccInvariant(name, ref)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
