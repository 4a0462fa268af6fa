"""The batch certification engine: queries, results, process fan-out.

Everything submitted to a worker must be picklable; queries therefore
carry the *normal-form* network (a list of
:class:`~repro.nn.affine.AffineLayer`, plain arrays) and primitive
parameters instead of live solver objects.  Certification functions are
imported lazily inside the worker so forked processes pay the import
cost once and the package has no circular imports.
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro import _faults
from repro.bounds.interval import Box
from repro.nn.affine import AffineLayer
from repro.runtime.executor import STAT_KEYS, SupervisedMap, available_cpus, pool_size
from repro.runtime.retry import RetryPolicy

#: Query kinds understood by :func:`_execute_query`.
QUERY_KINDS = ("local-exact", "local-nd", "local-lpr", "global", "global-exact")

#: Default per-MILP time limit (seconds) for global queries — matches
#: ``CertifierConfig.milp_time_limit`` and the CLI.  A timed-out solve
#: still contributes its sound dual bound, so the safeguard never costs
#: soundness, only tightness.
DEFAULT_GLOBAL_TIME_LIMIT = 30.0

#: Progress callback signature: ``(completed_count, total, result)``.
ProgressFn = Callable[[int, int, "BatchResult"], None]


@dataclass
class CertificationQuery:
    """One independent certification problem, described declaratively.

    Attributes:
        kind: One of :data:`QUERY_KINDS`.  ``local-*`` kinds certify
            robustness around ``center``; ``global`` runs Algorithm 1
            over ``domain``; ``global-exact`` the exact twin MILP.
        layers: Normal-form network (picklable plain arrays).
        delta: L∞ perturbation bound δ.
        center: The sample for local kinds (ignored for global kinds).
        domain: Input domain; required for global kinds, optional clip
            for local kinds.
        window: ND window ``W`` (``local-nd`` / ``global``).
        refine_count: Neurons refined per sub-network (``global`` only).
        backend: MILP/LP backend name.
        time_limit: Per-MILP time limit in seconds.  For global kinds
            ``None`` means "use the engine default"
            (:data:`DEFAULT_GLOBAL_TIME_LIMIT`, 30 s) — it does NOT
            disable the safeguard.  Pass ``math.inf`` for an explicitly
            unlimited solve; non-positive values are rejected.  Split
            queries differ: there it is the *shared whole-run* deadline
            and ``None`` stays unlimited, matching the monolithic exact
            certifiers whose verdicts the split tier must reproduce.
            Local kinds follow the split convention too: ``None`` stays
            unlimited (exact-verdict parity), a set limit caps each
            objective solve.
        epsilon: Optional target variation bound.  When set,
            :class:`BatchCertifier` screens the query with the presolve
            tier in the submitting process first: if symbolic bounds
            prove (or the attack gap refutes) ``ε ≤ epsilon``, the query
            is answered with a ``method="presolve"`` certificate and no
            MILP is built.  Undecided queries go to a worker for the
            usual solver tier, whose certificates are bit-identical to
            a run without presolve.
        bounds: Bound propagator seeding the MILP tier's big-M ranges.
            ``None`` (default) resolves per tier — ``"ibp"`` for the
            monolithic MILP (keeps historic results bit-identical),
            ``"symbolic"`` for the split tier's per-subdomain bounds;
            an explicit name is honored everywhere.
        presolve: Disable the presolve tier (``False``) even when an
            ``epsilon`` target is present.
        split: Replace the monolithic MILP tier with the input-splitting
            branch-and-bound tier (:mod:`repro.certify.splitting`) for
            queries the presolve tier leaves undecided.  Requires an
            ``epsilon`` target and kind ``local-exact`` or
            ``global-exact``.  For split queries ``time_limit`` is the
            *shared* deadline of the whole query (bounding + leaf MILPs)
            rather than a per-MILP limit, and ``None`` stays unlimited.
        max_domains: Split tier: budget on evaluated subdomains
            (``None`` = the :class:`~repro.certify.splitting.SplitConfig`
            default).
        split_depth: Split tier: bisection depth at which subdomains
            drop to MILP leaves (``None`` = config default).
        split_workers: Split tier: process count for solving leaf MILPs
            concurrently.  Leave ``None``: the engine grants its own
            worker budget when the split query runs inline (a batch of
            one), and keeps leaves serial when many queries already fan
            out across the pool.
        warm_start: Split tier: solve all MILP leaves through one shared
            warm :class:`~repro.milp.session.SolverSession` over the
            root encoding (serial; overrides ``split_workers``).  Same
            verdicts, fewer simplex pivots per leaf.
        tag: Caller label echoed on the result (e.g. a sample id).
    """

    kind: str
    layers: list[AffineLayer]
    delta: float
    center: np.ndarray | None = None
    domain: Box | None = None
    window: int = 2
    refine_count: int = 0
    backend: str = "scipy"
    time_limit: float | None = None
    epsilon: float | None = None
    bounds: str | None = None
    presolve: bool = True
    split: bool = False
    max_domains: int | None = None
    split_depth: int | None = None
    split_workers: int | None = None
    warm_start: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        if self.time_limit is not None and not self.time_limit > 0:
            # `not > 0` (rather than `<= 0`) also rejects NaN, which
            # would otherwise reach the solver and silently disable the
            # MILP safeguard.
            raise ValueError(
                "time_limit must be positive seconds (None = engine default, "
                "math.inf = unlimited)"
            )
        if self.epsilon is not None and not self.epsilon > 0:
            # Same NaN-proof comparison as time_limit.
            raise ValueError("epsilon must be a positive variation target")
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float).reshape(-1)
        if self.kind.startswith("local") and self.center is None:
            raise ValueError(f"{self.kind!r} query needs a center sample")
        if self.kind.startswith("global") and self.domain is None:
            raise ValueError(f"{self.kind!r} query needs an input domain")
        if self.split:
            if self.epsilon is None:
                raise ValueError(
                    "split queries need an epsilon target to decide"
                )
            if self.kind not in ("local-exact", "global-exact"):
                raise ValueError(
                    "split tier replaces the exact MILP tier only "
                    f"(kind 'local-exact' or 'global-exact', got {self.kind!r})"
                )

    def presolve_input_box(self) -> Box:
        """The input box the presolve tier propagates bounds over."""
        if self.kind.startswith("local"):
            from repro.certify.presolve import perturbation_ball

            return perturbation_ball(self.center, self.delta, self.domain)
        return self.domain

    def wants_presolve(self) -> bool:
        """Whether the presolve tier applies to this query."""
        return self.epsilon is not None and self.presolve

    def effective_bounds(self) -> str:
        """The bound propagator actually used by this query's solver tier.

        An explicit choice always wins; the ``None`` default resolves
        to ``"ibp"`` for the monolithic MILP tier and ``"symbolic"``
        for the split tier (whose whole point is tight per-subdomain
        bounds).
        """
        if self.bounds is not None:
            return self.bounds
        return "symbolic" if self.split else "ibp"

    def effective_time_limit(self) -> float | None:
        """The per-MILP limit actually applied to a global query.

        ``None`` on the query resolves to the 30 s engine default (the
        MILP safeguard must not silently disappear just because the
        caller didn't pick a number); ``math.inf`` resolves to ``None``
        for the solver, i.e. genuinely unlimited.
        """
        if self.time_limit is None:
            return DEFAULT_GLOBAL_TIME_LIMIT
        if math.isinf(self.time_limit):
            return None
        return float(self.time_limit)


@dataclass
class BatchResult:
    """Outcome of one query: a certificate or a captured failure.

    Attributes:
        index: Position of the query in the submitted sequence (results
            are returned sorted by this, regardless of completion order).
        tag: The query's caller label.
        certificate: The certificate object on success, else ``None``.
        error: Formatted traceback on failure, else ``None``.
        detail: Structured extras.  On a *permanent* failure: the record
            of what the worker's broad exception handler swallowed —
            ``error_type`` (qualified exception class), ``error_message``
            (``str(exc)``) and ``traceback`` (the formatted stack).  The
            retrying execution paths add ``attempts`` (total attempts
            made); a degraded answer adds ``degraded=True`` and the
            ``reason`` the compute was abandoned.  ``None`` for results
            answered by the presolve screen, which runs before any
            dispatch.
        elapsed: Wall-clock seconds spent inside the worker; a
            presolve answer carries its share of the group call.
    """

    index: int
    tag: str = ""
    certificate: object | None = None
    error: str | None = None
    detail: "dict[str, object] | None" = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the query produced a certificate."""
        return self.error is None

    @property
    def degraded(self) -> bool:
        """True for a sound bounds-only fallback answer (see ``detail``).

        Degraded results are *successes* (``ok`` is true): the
        certificate carries finite sound bounds and
        ``verdict="undecided"`` — never an error, never an unsound
        verdict — but the solver tier never finished for this query.
        """
        return bool(self.detail and self.detail.get("degraded"))


def _presolve_group(group: list[CertificationQuery]) -> list:
    """One batched presolve call over queries sharing family, network
    and domain; entry ``q`` is a certificate, or ``None`` if undecided."""
    from repro.certify.presolve import presolve_many

    first = group[0]
    deltas = np.array([q.delta for q in group], dtype=float)
    epsilons = np.array([q.epsilon for q in group], dtype=float)
    if first.kind.startswith("local"):
        return presolve_many(
            first.layers, "local",
            centers=np.stack([q.center for q in group]),
            domain=first.domain, deltas=deltas, epsilons=epsilons,
        )
    return presolve_many(
        first.layers, "global",
        domain=first.domain, deltas=deltas, epsilons=epsilons,
    )


def _screen(
    queries: list[CertificationQuery], members: list[int]
) -> list[tuple[int, object, float]]:
    """``(index, certificate or None, seconds)`` per screened member.

    If the group's call raises, each member is screened again on its
    own; a member whose own call raises too is left out, so it reaches
    a worker unpresolved and the worker's error capture reports its
    real fault.
    """
    t0 = time.perf_counter()
    try:
        certs = _presolve_group([queries[i] for i in members])
    # repro-lint: ignore[RPR005] — a failing presolve call must not sink the submission: the group is split into one-query calls, and a query that still fails is dispatched unpresolved so its worker's error capture surfaces the fault verbatim
    except Exception:
        if len(members) == 1:
            return []
        return [hit for i in members for hit in _screen(queries, [i])]
    share = (time.perf_counter() - t0) / len(members)
    return [(i, cert, share) for i, cert in zip(members, certs)]


def _run_split(query: CertificationQuery):
    """Run the input-splitting tier for an undecided ε-query."""
    from repro.certify import SplitConfig, certify_global_split, certify_local_split

    # `time_limit=None` stays unlimited — parity with the monolithic
    # `certify_local_exact`/`certify_exact_global` verdicts this tier
    # must reproduce; a set limit is the shared whole-run deadline.
    time_limit = query.time_limit
    if time_limit is not None and math.isinf(time_limit):
        time_limit = None
    config = SplitConfig(
        backend=query.backend,
        bounds=query.effective_bounds(),
        time_limit=time_limit,
        leaf_workers=query.split_workers,
        warm_start=query.warm_start,
    )
    if query.max_domains is not None:
        config.max_domains = query.max_domains
    if query.split_depth is not None:
        config.max_depth = query.split_depth
    if query.kind == "local-exact":
        return certify_local_split(
            query.layers, query.center, query.delta, query.epsilon,
            domain=query.domain, config=config,
        )
    return certify_global_split(
        query.layers, query.domain, query.delta, query.epsilon, config=config
    )


def _execute_query(query: CertificationQuery):
    """Run one query's solver tier (presolve already ran in the parent)."""
    from repro.certify import (
        CertifierConfig,
        GlobalRobustnessCertifier,
        certify_exact_global,
        certify_local_exact,
        certify_local_lpr,
        certify_local_nd,
    )

    if query.split:
        return _run_split(query)

    # Local kinds share the split tier's convention: `time_limit=None`
    # stays genuinely unlimited (exact-verdict parity), a set limit caps
    # each objective solve, `inf` is spelled-out unlimited.
    local_limit = query.time_limit
    if local_limit is not None and math.isinf(local_limit):
        local_limit = None
    if query.kind == "local-exact":
        return certify_local_exact(
            query.layers, query.center, query.delta,
            domain=query.domain, backend=query.backend, bounds=query.effective_bounds(),
            time_limit=local_limit,
        )
    if query.kind == "local-nd":
        return certify_local_nd(
            query.layers, query.center, query.delta,
            window=query.window, domain=query.domain, backend=query.backend,
            bounds=query.effective_bounds(), time_limit=local_limit,
        )
    if query.kind == "local-lpr":
        return certify_local_lpr(
            query.layers, query.center, query.delta,
            domain=query.domain, backend=query.backend, bounds=query.effective_bounds(),
            time_limit=local_limit,
        )
    if query.kind == "global":
        # The CLI's algorithm-1 knobs (window, refine, backend, limit)
        # plumb through 1:1; time_limit=None keeps the 30 s safeguard.
        config = CertifierConfig(
            window=query.window,
            refine_count=query.refine_count,
            backend=query.backend,
            bounds=query.effective_bounds(),
            milp_time_limit=query.effective_time_limit(),
        )
        return GlobalRobustnessCertifier(query.layers, config).certify(
            query.domain, query.delta
        )
    # "global-exact" — validated in CertificationQuery.__post_init__.
    return certify_exact_global(
        query.layers, query.domain, query.delta,
        backend=query.backend, time_limit=query.effective_time_limit(),
        bounds=query.effective_bounds(),
    )


def _run_one(payload: tuple[int, CertificationQuery]) -> BatchResult:
    """Worker entry point: never raises, captures failures per query."""
    index, query = payload
    t0 = time.perf_counter()
    try:
        if _faults.ENABLED:
            _faults.fault_point("batch.worker")
        cert = _execute_query(query)
        return BatchResult(
            index=index, tag=query.tag, certificate=cert,
            elapsed=time.perf_counter() - t0,
        )
    # repro-lint: ignore[RPR005] — swallows *any* per-query failure (bad dims, solver errors, encoding bugs) so one bad query cannot sink the batch; everything swallowed is surfaced verbatim in BatchResult.error/.detail
    except Exception as exc:
        cls = type(exc)
        return BatchResult(
            index=index, tag=query.tag, error=traceback.format_exc(),
            detail={
                "error_type": f"{cls.__module__}.{cls.__qualname__}",
                "error_message": str(exc),
                "traceback": traceback.format_exc(),
            },
            elapsed=time.perf_counter() - t0,
        )


# -- graceful degradation -----------------------------------------------------


def _degraded_certificate(query: CertificationQuery, bounds: str):
    """A sound bounds-only certificate for a query whose solve was lost.

    One bound propagation over the query's own input box — exactly the
    presolve tier's proving side, so the bounds are finite and sound
    over-approximations whatever the solver tier would have returned.
    The verdict is always ``"undecided"``: even when the bounds would
    decide the ε target, degradation never claims a decision the
    (possibly tighter) solver tier was asked for.
    """
    from repro.bounds.propagator import get_propagator
    from repro.certify.presolve import variation_from_reference
    from repro.certify.results import GlobalCertificate, LocalCertificate
    from repro.nn.affine import affine_chain_forward

    t0 = time.perf_counter()
    local = query.kind.startswith("local")
    layer_bounds = get_propagator(bounds).propagate(
        query.layers, query.presolve_input_box(), None if local else query.delta
    )
    detail = {
        "verdict": "undecided",
        "degraded": True,
        "bounds": layer_bounds.method,
    }
    if query.epsilon is not None:
        detail["epsilon"] = float(query.epsilon)
    if local:
        out = layer_bounds.output
        base = affine_chain_forward(query.layers, query.center)
        return LocalCertificate(
            center=query.center,
            delta=float(query.delta),
            epsilons=variation_from_reference(out.lo, out.hi, base),
            output_lo=out.lo.copy(),
            output_hi=out.hi.copy(),
            method="degraded",
            exact=False,
            solve_time=time.perf_counter() - t0,
            detail=detail,
        )
    return GlobalCertificate(
        delta=float(query.delta),
        epsilons=layer_bounds.output_variation_bounds(),
        method="degraded",
        exact=False,
        solve_time=time.perf_counter() - t0,
        detail=detail,
    )


def _degraded_result(
    payload: tuple[int, CertificationQuery], reason: str, attempts: int
) -> BatchResult:
    """Resolve an abandoned ``(index, query)`` to a sound ``degraded`` answer.

    Tries the symbolic propagator first (tight), plain IBP second
    (simpler, nearly unbreakable).  Only if *both* bound engines fail —
    which means the query itself is broken, not the compute — does the
    query surface as an ordinary error result.
    """
    index, query = payload
    t0 = time.perf_counter()
    error = None
    for bounds in ("symbolic", "ibp"):
        try:
            cert = _degraded_certificate(query, bounds)
        # repro-lint: ignore[RPR005] — degradation is the last resort: any bound-propagation failure falls through to the looser engine, and the final failure is surfaced verbatim as a normal error result below
        except Exception as exc:
            cls = type(exc)
            error = (f"{cls.__module__}.{cls.__qualname__}", traceback.format_exc())
            continue
        return BatchResult(
            index=index, tag=query.tag, certificate=cert,
            detail={"degraded": True, "reason": reason, "attempts": attempts},
            elapsed=time.perf_counter() - t0,
        )
    error_type, stack = error
    return BatchResult(
        index=index, tag=query.tag, error=stack,
        detail={
            "error_type": error_type,
            "error_message": f"degradation failed after: {reason}",
            "traceback": stack,
            "attempts": attempts,
        },
        elapsed=time.perf_counter() - t0,
    )


class BatchCertifier:
    """Fan independent certification queries across worker processes.

    Results come back in *submission order* whatever the completion
    order, failures are captured per query (``BatchResult.error``), and
    an optional progress callback fires in the parent process as each
    query completes.

    Every query carrying an ``epsilon`` target (and ``presolve=True``)
    is screened by the presolve tier in the submitting process before
    any dispatch: queries sharing a network object, kind family (local /
    global) and domain form a *group*, decided by one
    :func:`~repro.certify.presolve.presolve_many` call — one batched
    bound propagation plus one corner-vectorized attack, per-query
    bit-identical to :func:`~repro.certify.presolve.presolve_local` /
    :func:`~repro.certify.presolve.presolve_global`.  A group of one is
    a one-query call.  Only the queries presolve leaves undecided reach
    the workers, which run the solver tier alone.  Submitted queries
    are never modified by the screen, so re-running a list gives the
    same results.

    Example::

        engine = BatchCertifier(max_workers=4)
        queries = local_queries(net, samples, delta=0.01, method="exact")
        results = engine.run(queries, progress=lambda k, n, r:
                             print(f"{k}/{n} {r.tag}"))
        eps = [r.certificate.epsilon for r in results if r.ok]

    Args:
        max_workers: Process count, honoured as given and capped by
            the batch size; defaults to the CPUs in this process's
            affinity mask.  ``1`` executes inline — same semantics, no
            processes — which is also the automatic fallback when no
            worker pool can be built.
        retry: :class:`~repro.runtime.retry.RetryPolicy` for transient
            per-query failures (worker deaths, broken pools, injected
            chaos faults).  ``None`` uses the default policy.  A query
            that exhausts its attempts (or the batch's retry budget)
            resolves to a sound *degraded* answer — finite bounds,
            ``verdict="undecided"``, ``detail["degraded"]=True`` —
            never an error.  Permanent failures (bad inputs, real
            bugs) are never retried and surface as error results
            exactly as before.
        query_timeout: Optional *hard* per-query wall-clock limit in
            seconds, enforced by a parent-side watchdog that SIGKILLs
            the worker running an overdue query and rebuilds the pool.
            Unlike ``CertificationQuery.time_limit`` (a cooperative
            solver budget), this bounds the query even when a native
            solve wedges.  Timed-out queries degrade (or retry, with
            ``RetryPolicy(retry_timeouts=True)``).  Pool mode only:
            inline execution (``max_workers=1``) has no process to
            kill.

    Attributes:
        presolve_stats: After :meth:`run`, the presolve screen's stats:
            ``{"groups": query groups screened, "queries": queries
            screened, "answered": queries decided (certified or
            refuted) without any dispatch}``.
        fault_stats: After :meth:`run`, that batch's fault-tolerance
            counters: ``retries`` (re-dispatched attempts),
            ``degraded`` (queries resolved by graceful degradation),
            ``timeouts`` (hard-timeout expirations), ``workers_killed``
            (stuck workers SIGKILLed by the watchdog) and
            ``pool_rebuilds`` (broken pools replaced mid-batch).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        retry: RetryPolicy | None = None,
        query_timeout: float | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if query_timeout is not None and not query_timeout > 0:
            # `not > 0` also rejects NaN (same idiom as CertificationQuery).
            raise ValueError("query_timeout must be positive seconds or None")
        self.max_workers = max_workers
        self.retry = RetryPolicy() if retry is None else retry
        self.query_timeout = query_timeout
        self.presolve_stats: dict[str, int] = {
            "groups": 0, "queries": 0, "answered": 0,
        }
        self.fault_stats: dict[str, int] = dict.fromkeys(STAT_KEYS, 0)

    def _presolve(
        self, queries: list[CertificationQuery]
    ) -> dict[int, BatchResult]:
        """Screen every ε-query with one presolve call per group.

        Returns the answered queries as ``{index: BatchResult}``; each
        carries its call's per-query share of the pass time.
        """
        self.presolve_stats = {"groups": 0, "queries": 0, "answered": 0}
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(queries):
            if not query.wants_presolve():
                continue
            family = "local" if query.kind.startswith("local") else "global"
            domain = query.domain
            domain_key = (
                None if domain is None
                else (domain.lo.tobytes(), domain.hi.tobytes())
            )
            key = (family, id(query.layers), domain_key)
            groups.setdefault(key, []).append(i)

        answered: dict[int, BatchResult] = {}
        for members in groups.values():
            screened = _screen(queries, members)
            self.presolve_stats["groups"] += 1
            self.presolve_stats["queries"] += len(screened)
            for i, cert, share in screened:
                if cert is not None:
                    answered[i] = BatchResult(
                        index=i, tag=queries[i].tag, certificate=cert,
                        elapsed=share,
                    )
                    self.presolve_stats["answered"] += 1
        return answered

    def run(
        self,
        queries: Sequence[CertificationQuery],
        progress: ProgressFn | None = None,
    ) -> list[BatchResult]:
        """Execute all queries; return one :class:`BatchResult` each.

        The presolve screen runs first in this process; only the
        queries it leaves unanswered are dispatched to worker
        processes.

        Args:
            queries: Independent queries; order defines result order.
            progress: Optional ``(done, total, result)`` callback invoked
                in the submitting process after each completion.
        """
        queries = list(queries)
        total = len(queries)
        self.fault_stats = dict.fromkeys(STAT_KEYS, 0)
        results: list[BatchResult | None] = [None] * total
        done = 0
        for index, result in sorted(self._presolve(queries).items()):
            results[index] = result
            done += 1
            if progress is not None:
                progress(done, total, result)
        pending = [(i, q) for i, q in enumerate(queries) if results[i] is None]
        workers = pool_size(self.max_workers, len(pending))
        if (
            workers is None
            and len(pending) == 1
            and pending[0][1].split
            and pending[0][1].split_workers is None
        ):
            # A batch of one split query runs inline; hand the engine's
            # process budget to its leaf MILPs instead so the pool still
            # does the parallel work.  A copy carries the grant: the
            # caller's query is left as given.
            index, query = pending[0]
            budget = self.max_workers or available_cpus()
            pending = [(index, replace(query, split_workers=budget))]
        for result in self._dispatch(pending, workers, progress, total, done):
            results[result.index] = result
        return [r for r in results if r is not None]  # every slot filled

    def _dispatch(
        self,
        pending: list[tuple[int, CertificationQuery]],
        workers: int | None,
        progress: ProgressFn | None = None,
        total: int = 0,
        done: int = 0,
    ) -> list[BatchResult]:
        """Run ``(index, query)`` pairs on ``workers`` processes (``None``
        = inline), stamping ``detail["attempts"]`` before ``progress``."""
        completed = itertools.count(done + 1)

        def finish(result: BatchResult, attempts: int) -> None:
            detail = dict(result.detail or {})
            detail.setdefault("attempts", attempts)
            result.detail = detail
            if progress is not None:
                progress(next(completed), total, result)

        return SupervisedMap(
            _run_one, pending, workers, self.retry, _degraded_result,
            failure=lambda r: None if r.ok else str(r.detail.get("error_type")),
            timeout=self.query_timeout,
            stats=self.fault_stats, on_result=finish,
        ).run()


# -- query builders ----------------------------------------------------------


def _normal_form(network) -> list[AffineLayer]:
    from repro.nn.network import as_affine_chain

    return as_affine_chain(network)


def local_queries(
    network,
    centers: np.ndarray | Sequence[np.ndarray],
    delta: float,
    method: str = "exact",
    domain: Box | None = None,
    backend: str = "scipy",
    window: int = 1,
    epsilon: float | None = None,
    bounds: str | None = None,
    presolve: bool = True,
    split: bool = False,
    max_domains: int | None = None,
    split_depth: int | None = None,
    warm_start: bool = False,
    time_limit: float | None = None,
    tag_prefix: str = "sample",
) -> list[CertificationQuery]:
    """Per-sample local certification queries (one per row of ``centers``).

    Args:
        network: A :class:`~repro.nn.network.Network` or affine chain.
        centers: Samples, shape ``(k, input_dim)`` (or an iterable of
            flat samples).
        delta: Perturbation radius.
        method: ``"exact"``, ``"nd"`` or ``"lpr"``.
        domain: Optional domain box intersected with each δ-ball.
        backend: Solver backend for every query.
        window: ND window (``method="nd"`` only).
        epsilon: Optional variation target enabling the presolve tier.
        bounds: Bound propagator for the MILP tier (``"ibp"`` /
            ``"symbolic"``).
        presolve: Allow the presolve tier when ``epsilon`` is set.
        split: Use the input-splitting tier instead of the monolithic
            MILP for presolve-undecided queries (``method="exact"``
            only; needs ``epsilon``).
        max_domains / split_depth: Split-tier knobs (``None`` = config
            defaults).
        warm_start: Split tier: one shared warm solver session for all
            MILP leaves (serial) instead of per-leaf fresh models.
        time_limit: Per-query time limit; for split queries the shared
            deadline of the whole branch-and-bound run.
        tag_prefix: Result tags become ``f"{tag_prefix}[{i}]"``.
    """
    if method not in ("exact", "nd", "lpr"):
        raise ValueError(f"unknown local method {method!r}")
    if split and method != "exact":
        raise ValueError("split applies to method='exact' queries only")
    layers = _normal_form(network)
    return [
        CertificationQuery(
            kind=f"local-{method}",
            layers=layers,
            delta=float(delta),
            center=np.asarray(center, dtype=float).reshape(-1),
            domain=domain,
            window=window,
            backend=backend,
            epsilon=epsilon,
            bounds=bounds,
            presolve=presolve,
            split=split,
            max_domains=max_domains,
            split_depth=split_depth,
            warm_start=warm_start,
            time_limit=time_limit,
            tag=f"{tag_prefix}[{i}]",
        )
        for i, center in enumerate(np.atleast_2d(np.asarray(centers, dtype=float)))
    ]


def global_query(
    network,
    domain: Box,
    delta: float,
    window: int = 2,
    refine_count: int = 0,
    backend: str = "scipy",
    time_limit: float | None = None,
    exact: bool = False,
    epsilon: float | None = None,
    bounds: str | None = None,
    presolve: bool = True,
    split: bool = False,
    max_domains: int | None = None,
    split_depth: int | None = None,
    warm_start: bool = False,
    tag: str = "global",
) -> CertificationQuery:
    """One global certification query (Algorithm 1, or the exact MILP).

    ``time_limit=None`` (the default) applies the engine's 30 s per-MILP
    safeguard; pass ``math.inf`` to disable it explicitly.  An
    ``epsilon`` target enables the bounds-only presolve tier;
    ``split=True`` (requires ``exact=True`` and ``epsilon``) decides
    undecided queries with the input-splitting tier, for which
    ``time_limit`` is the shared deadline of the whole run and
    ``warm_start=True`` solves the MILP leaves through one shared warm
    solver session.
    """
    if split and not exact:
        raise ValueError("split applies to exact global queries only")
    return CertificationQuery(
        kind="global-exact" if exact else "global",
        layers=_normal_form(network),
        delta=float(delta),
        domain=domain,
        window=window,
        refine_count=refine_count,
        backend=backend,
        time_limit=time_limit,
        epsilon=epsilon,
        bounds=bounds,
        presolve=presolve,
        split=split,
        max_domains=max_domains,
        split_depth=split_depth,
        warm_start=warm_start,
        tag=tag,
    )


# -- objective-level fan-out --------------------------------------------------


def _solve_chunk(payload):
    """Worker: solve a contiguous chunk of objectives on a shared model."""
    model, objectives, backend, time_limit = payload
    if _faults.ENABLED:
        _faults.fault_point("solve.chunk")
    return model.solve_many(objectives, backend=backend, time_limit=time_limit)


def _resolve_chunk(payload, reason: str, attempts: int):
    """Fallback: re-solve a failed chunk in the calling process."""
    model, objectives, backend, time_limit = payload
    return model.solve_many(objectives, backend=backend, time_limit=time_limit)


def parallel_solve_many(
    model,
    objectives,
    backend: str = "scipy",
    time_limit: float | None = None,
    max_workers: int | None = None,
):
    """``Model.solve_many`` fanned across processes, order-preserving.

    The objective list is split into one contiguous chunk per worker;
    each worker pickles the model once and runs the backend's
    export-once ``solve_objectives`` fast path on its chunk, so the
    per-objective cost stays identical to the serial path.  This is the
    engine behind ``CertifierConfig.workers`` — Algorithm 1's three
    objectives per neuron of a layer (min/max ``y``, max ``Δy``) are
    independent and fan perfectly.
    Chunks run on the package's one
    :class:`~repro.runtime.executor.SupervisedMap`: a chunk that fails
    transiently is re-solved in the calling process.

    Args:
        model: The shared :class:`~repro.milp.model.Model`.
        objectives: Pairs ``(expression, "min"|"max")``.
        backend: Backend name.
        time_limit: Per-solve time limit in seconds.
        max_workers: Process count, honoured as given (capped by the
            objective count); ``None`` uses
            :func:`~repro.runtime.executor.available_cpus`.

    Returns:
        One :class:`~repro.milp.solution.SolveResult` per objective, in
        input order — bit-identical to the serial ``solve_many``.
    """
    objectives = list(objectives)
    workers = pool_size(max_workers, len(objectives))
    if workers is None:
        return model.solve_many(objectives, backend=backend, time_limit=time_limit)
    chunk = math.ceil(len(objectives) / workers)
    payloads = [
        (model, objectives[k : k + chunk], backend, time_limit)
        for k in range(0, len(objectives), chunk)
    ]
    parts = SupervisedMap(
        _solve_chunk, payloads, len(payloads), RetryPolicy(max_attempts=1),
        _resolve_chunk,
    ).run()
    return [result for part in parts for result in part]
