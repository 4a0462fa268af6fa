"""The supervised executor: ordering, failure triage, deadlines, CPU default."""

import os
import time

import numpy as np
import pytest

from repro.bounds import Box
from repro.nn.affine import AffineLayer
from repro.runtime import BatchCertifier, faults, global_query
from repro.runtime import batch as batch_module
from repro.runtime.executor import (
    STAT_KEYS,
    SupervisedMap,
    available_cpus,
    pool_size,
)
from repro.runtime.retry import RetryPolicy


@pytest.fixture(autouse=True)
def _isolated_faults():
    """Run fault-free whatever ambient ``REPRO_FAULTS`` schedule is set."""
    saved = faults.active_plan()
    faults.clear()
    yield
    faults.install(saved)


def _square(x):
    return x * x


def _fail(kind):
    raise {"transient": OSError, "permanent": ValueError}[kind]("boom")


def _inject(point):
    raise faults.InjectedFault(point, 1)


def _budget(payload, seconds_left):
    return seconds_left


def _fallback(payload, reason, attempts):
    return ("fallback", payload, reason, attempts)


class TestAvailableCpus:
    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 3
        assert pool_size(None, 10) == 3
        assert pool_size(None, 2) == 2  # capped by the item count

    def test_cpu_count_where_no_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1

    def test_explicit_counts_honoured(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert pool_size(None, 10) is None  # one CPU: run inline
        assert pool_size(4, 10) == 4  # explicit count, not the mask
        assert pool_size(4, 3) == 3
        assert pool_size(1, 10) is None

    def test_engine_grants_split_leaves_the_affinity_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        rng = np.random.default_rng(42)
        layers = [
            AffineLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), relu=True),
            AffineLayer(rng.standard_normal((2, 4)), rng.standard_normal(2), relu=False),
        ]
        query = global_query(
            layers, Box.uniform(3, 0.0, 1.0), 0.05, exact=True, epsilon=0.05,
            split=True, presolve=False,
        )
        granted = []
        run_split = batch_module._run_split

        def spy(query):
            granted.append(query.split_workers)
            return run_split(query)

        monkeypatch.setattr(batch_module, "_run_split", spy)
        assert BatchCertifier().run([query])[0].ok
        assert granted == [1]
        assert query.split_workers is None


@pytest.mark.parametrize("workers", [None, 2])
class TestSupervisedMap:
    def test_results_in_input_order(self, workers):
        seen = []
        out = SupervisedMap(
            _square, range(7), workers, RetryPolicy(), _fallback,
            on_result=lambda r, attempts: seen.append((r, attempts)),
        ).run()
        assert out == [k * k for k in range(7)]
        assert sorted(seen) == [(k * k, 1) for k in range(7)]

    def test_transient_failure_retries_then_falls_back(self, workers):
        stats = dict.fromkeys(STAT_KEYS, 0)
        out = SupervisedMap(
            _fail, ["transient"], workers,
            RetryPolicy(max_attempts=2, base_delay=0.0), _fallback, stats=stats,
        ).run()
        tag, payload, reason, attempts = out[0]
        assert (tag, payload, attempts) == ("fallback", "transient", 2)
        assert "OSError" in reason
        assert stats["retries"] == 1 and stats["degraded"] == 1

    def test_raised_fault_fails_one_item_not_the_pool(self, workers):
        stats = dict.fromkeys(STAT_KEYS, 0)
        out = SupervisedMap(
            _inject, ["p"], workers, RetryPolicy(max_attempts=1), _fallback,
            stats=stats,
        ).run()
        tag, payload, reason, attempts = out[0]
        assert (tag, payload, attempts) == ("fallback", "p", 1)
        assert "InjectedFault" in reason
        assert stats["pool_rebuilds"] == 0 and stats["degraded"] == 1

    def test_permanent_failure_raises(self, workers):
        with pytest.raises(ValueError, match="boom"):
            SupervisedMap(
                _fail, ["permanent"], workers, RetryPolicy(), _fallback
            ).run()

    def test_deadline_measured_at_dispatch(self, workers):
        deadline = time.perf_counter() + 60.0
        out = SupervisedMap(
            _budget, range(3), workers, RetryPolicy(), _fallback, deadline=deadline
        ).run()
        assert all(0.0 < left <= 60.0 for left in out)
        expired = SupervisedMap(
            _budget, range(3), workers, RetryPolicy(), _fallback,
            deadline=time.perf_counter(),
        ).run()
        assert expired == [None, None, None]
