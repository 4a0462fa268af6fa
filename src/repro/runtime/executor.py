"""The one supervised executor behind every process fan-out.

Batch queries, Algorithm 1's objective chunks and the split tier's MILP
leaves all run through :class:`SupervisedMap`; callers differ only in
their worker function, :class:`~repro.runtime.retry.RetryPolicy` and
fallback.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Callable, ClassVar, Sequence

from repro import _faults
from repro.runtime.retry import TRANSIENT_ERROR_TYPES, RetryPolicy

__all__ = ["STAT_KEYS", "SupervisedMap", "available_cpus", "pool_size"]

#: Counters one :meth:`SupervisedMap.run` accumulates in ``stats``.
STAT_KEYS = ("retries", "degraded", "timeouts", "workers_killed", "pool_rebuilds")


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(requested: int | None, items: int) -> int | None:
    """Processes for ``items`` items: ``requested`` as given, by default
    :func:`available_cpus`, capped at ``items``; ``None`` = run inline.
    """
    workers = min(requested or available_cpus(), items)
    return workers if workers > 1 else None


#: Start-marker sink installed by :func:`_pool_init` in pool workers.
_START_SINK = None


def _pool_init(sink, plan) -> None:
    """Worker initializer: wire the start-marker sink and the fault plan.

    Installs a *fresh* copy of the parent's fault plan, so every worker
    replays its own deterministic fault schedule from hit 1 whatever the
    multiprocessing start method (fork would otherwise inherit the
    parent's hit counters).
    """
    global _START_SINK
    _START_SINK = sink
    if plan is not None:
        _faults.install(plan.fresh())


def _invoke(fn, item: int, args: tuple) -> Any:
    """Pool-side entry point: report ``(item, pid)``, then run ``fn``.

    The marker goes out before any work (and any fault point), so a
    crash after it is attributable to this item.
    """
    _START_SINK.put((item, os.getpid()))
    return fn(*args)


@dataclass
class SupervisedMap:
    """Run ``fn`` over ``payloads``; :meth:`run` returns one result each.

    Pool mode keeps at most one item per worker in flight, keeps
    completed results when the pool breaks, requeues items that never
    reached a worker uncharged, rebuilds the pool up to
    ``policy.max_pool_rebuilds`` times, SIGKILLs the worker of an item
    past ``timeout``, and finishes inline when no pool can be built.  A
    transient failure (:data:`~repro.runtime.retry.TRANSIENT_ERROR_TYPES`
    raised, or a transient ``failure`` name) is retried with backoff
    under the per-run budget, then resolved by ``fallback``; a permanent
    exception propagates, a permanent captured failure is returned.

    Args:
        fn: Picklable module-level worker: ``fn(payload)``, or
            ``fn(payload, seconds_left)`` under a ``deadline``.
        payloads: One picklable payload per item.
        workers: Pool size (even 1 is a pool); ``None`` runs inline.
        policy: Attempts, backoff, retry budget and pool-rebuild cap.
        fallback: ``fallback(payload, reason, attempts)`` resolves an
            item whose attempts ran out, in the calling process.
        failure: ``failure(result)``: the qualified exception name a
            worker captured in its result, or ``None`` for a success.
        timeout: Hard per-item wall-clock limit in seconds (pool mode).
        deadline: Absolute ``time.perf_counter()`` stamp.  Each item
            gets the seconds left when it is dispatched; one not
            dispatched before it resolves to ``None`` unrun.
        stats: :data:`STAT_KEYS` counters to accumulate into
            (``degraded`` counts items resolved by the fallback).
        on_result: ``on_result(result, attempts)``, called once per item
            as it resolves.
    """

    #: Event-loop tick: bounds watchdog latency and backoff sleep.
    _POLL_SECONDS: ClassVar[float] = 0.05

    fn: Callable[..., Any]
    payloads: Sequence[Any]
    workers: int | None
    policy: RetryPolicy
    fallback: Callable[[Any, str, int], Any]
    _: KW_ONLY
    failure: Callable[[Any], str | None] | None = None
    timeout: float | None = None
    deadline: float | None = None
    stats: dict[str, int] = field(default_factory=lambda: dict.fromkeys(STAT_KEYS, 0))
    on_result: Callable[[Any, int], None] | None = None

    def __post_init__(self) -> None:
        count = len(self.payloads)
        self.budget = self.policy.batch_budget(count)
        self.pool = None
        self.sink = None
        self.broken = False
        self.rebuilds = 0
        self.attempts = [0] * count
        self.waiting = dict.fromkeys(range(count), 0.0)  # item -> earliest dispatch
        self.futures: dict = {}                          # Future -> item
        self.running: dict[int, tuple[int, float]] = {}  # item -> (pid, since)
        self.finals: dict[int, Any] = {}

    def run(self) -> list[Any]:
        """Resolve every item; results in input order."""
        count = len(self.payloads)
        try:
            while self.workers is not None and len(self.finals) < count:
                if not self._step():
                    break  # no pool can be built: finish inline
            while self.waiting:
                self._run_inline(min(self.waiting))
        finally:
            self._teardown_pool()
        return [self.finals[i] for i in range(count)]

    # -- per-item resolution, shared by both modes ------------------------------

    def _begin(self, item: int) -> tuple | None:
        """Charge an attempt and return ``fn``'s arguments for ``item``.

        Past the deadline the item resolves to ``None`` instead, unrun.
        """
        del self.waiting[item]
        left = None if self.deadline is None else self.deadline - time.perf_counter()
        if left is not None and left <= 0:
            self._finalize(item, None)
            return None
        self.attempts[item] += 1
        return (self.payloads[item],) if left is None else (self.payloads[item], left)

    def _resolve(self, item: int, result: Any) -> None:
        name = None if self.failure is None else self.failure(result)
        if name is not None and self.policy.classify_name(name) == "transient":
            self._transient(item, name)
        else:
            self._finalize(item, result)

    def _transient(self, item: int, reason: str) -> None:
        """Requeue a transiently failed item with backoff, or fall back."""
        attempt = self.attempts[item]
        if attempt < self.policy.max_attempts and self.budget > 0:
            self.budget -= 1
            self.stats["retries"] += 1
            self.waiting[item] = (
                time.perf_counter() + self.policy.delay(attempt, item)
            )
            return
        self._fall_back(item, reason)

    def _fall_back(self, item: int, reason: str) -> None:
        self.stats["degraded"] += 1
        self._finalize(
            item, self.fallback(self.payloads[item], reason, self.attempts[item])
        )

    def _finalize(self, item: int, result: Any) -> None:
        self.finals[item] = result
        if self.on_result is not None:
            self.on_result(result, self.attempts[item])

    def _run_inline(self, item: int) -> None:
        pause = self.waiting[item] - time.perf_counter()
        if pause > 0:
            time.sleep(pause)  # backoff before a retry
        args = self._begin(item)
        if args is None:
            return
        try:
            result = self.fn(*args)
        except TRANSIENT_ERROR_TYPES as exc:
            self._transient(item, repr(exc))
        else:
            self._resolve(item, result)

    # -- pool mode ----------------------------------------------------------------

    def _step(self) -> bool:
        """One event-loop tick; False when no pool can be (re)built."""
        now = time.perf_counter()
        free = self.workers - len(self.futures)
        ready = sorted(i for i, stamp in self.waiting.items() if stamp <= now)
        if ready and free > 0 and not self.broken:
            if not self._ensure_pool():
                return False
            for item in ready[:free]:
                if self.broken:
                    break  # pool died at submit; rebuild next tick
                self._dispatch(item)
        self._wait_events()
        self._drain_starts()
        self._collect_done()
        self._watchdog()
        if self.broken and not self.futures:
            # Every in-flight future has resolved against the broken
            # pool (salvaged or requeued); safe to replace it now.
            self._teardown_pool()
        return True

    def _ensure_pool(self) -> bool:
        if self.pool is not None:
            return True
        if self.rebuilds > self.policy.max_pool_rebuilds:
            return False
        try:
            self.sink = multiprocessing.SimpleQueue()
            self.pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=(self.sink, _faults.active_plan()),
            )
        except TRANSIENT_ERROR_TYPES:
            return False  # sandboxes without fork support and similar
        return True

    def _dispatch(self, item: int) -> None:
        args = self._begin(item)
        if args is None:
            return
        try:
            if _faults.ENABLED:
                _faults.fault_point("batch.dispatch")
            future = self.pool.submit(_invoke, self.fn, item, args)
        except _faults.InjectedFault as exc:
            self._transient(item, repr(exc))
        except TRANSIENT_ERROR_TYPES:
            # The pool was already unusable; requeue the item uncharged.
            self.broken = True
            self.attempts[item] -= 1
            self.waiting[item] = 0.0
        else:
            self.futures[future] = item

    def _wait_events(self) -> None:
        if self.futures:
            wait(
                list(self.futures),
                timeout=self._POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
        elif self.waiting and not self.broken:
            # Nothing in flight: sleep toward the earliest backoff wake.
            pause = min(self.waiting.values()) - time.perf_counter()
            if pause > 0:
                time.sleep(min(pause, self._POLL_SECONDS))

    def _drain_starts(self) -> None:
        sink = self.sink
        if sink is None:
            return
        inflight = set(self.futures.values())
        try:
            while not sink.empty():
                item, pid = sink.get()
                if item in inflight:
                    # Stamped with parent receipt time: one clock for
                    # the watchdog, no cross-process skew.
                    self.running[item] = (pid, time.perf_counter())
        except (OSError, EOFError):
            pass  # sink pipe died with its pool; markers just go stale

    def _collect_done(self) -> None:
        for future in [f for f in self.futures if f.done()]:
            item = self.futures.pop(future)
            started = self.running.pop(item, None)
            try:
                result = future.result()
            except BrokenProcessPool:
                self.broken = True
                if started is None:
                    # Never reached a worker: an innocent victim of
                    # whatever broke the pool.  Requeue it uncharged.
                    self.attempts[item] -= 1
                    self.waiting[item] = 0.0
                else:
                    self._transient(item, "worker process died mid-item")
            except TRANSIENT_ERROR_TYPES as exc:
                self._transient(item, repr(exc))
            else:
                self._resolve(item, result)

    def _watchdog(self) -> None:
        if self.timeout is None:
            return
        now = time.perf_counter()
        for future, item in list(self.futures.items()):
            pid, since = self.running.get(item, (0, now))
            if future.done() or now - since <= self.timeout:
                continue
            # SIGKILL is deliberate: a wedged native solve ignores
            # cooperative signals.  The kill breaks the pool; the
            # normal salvage/rebuild path cleans up after it, and the
            # overdue item resolves now.
            del self.futures[future], self.running[item]
            self.stats["workers_killed"] += 1
            self.broken = True
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass  # worker already gone; the broken pool surfaces it
            self._timeout(item)

    def _timeout(self, item: int) -> None:
        """Resolve an item whose worker the watchdog had to kill."""
        self.stats["timeouts"] += 1
        if self.policy.retry_timeouts:
            self._transient(item, "hard timeout")
        else:
            self._fall_back(
                item, f"hard timeout: no result within {self.timeout:.6g}s"
            )

    def _teardown_pool(self) -> None:
        pool, self.pool = self.pool, None
        sink, self.sink = self.sink, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if sink is not None:
            sink.close()
        self.running.clear()
        if self.broken:
            self.broken = False
            self.rebuilds += 1
            self.stats["pool_rebuilds"] += 1
