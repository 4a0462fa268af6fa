# Developer entry points. Everything here is also runnable directly —
# these targets just pin the invocations CI uses (see
# .github/workflows/ci.yml) so local runs match the gates.

PYTHON ?= python
BASE_REF ?= origin/main
LINT_PATHS := src benchmarks tests

.PHONY: test test-chaos lint lint-diff lint-sarif ratchet bench-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# CI chaos job: runtime + certify suites with every worker process of
# every fan-out (batch queries, split leaves, objective chunks) raising
# one injected fault, then the fault suite itself env-free.
test-chaos:
	REPRO_FAULTS="batch.worker:raise@1;split.leaf:raise@1;solve.chunk:raise@1" PYTHONPATH=src \
		$(PYTHON) -m pytest -x -q tests/runtime tests/certify
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/runtime/test_faults.py

# Full analysis gate: per-node rules + RPR101-105 flow rules (CFG /
# dataflow / call graph) with the shrink-only baseline applied.
lint:
	$(PYTHON) -m tools.analysis --flow $(LINT_PATHS)

# The blocking PR gate: findings on lines changed vs BASE_REF only.
lint-diff:
	$(PYTHON) -m tools.analysis --flow --diff $(BASE_REF) $(LINT_PATHS)

# Full run + SARIF report (what CI uploads to code scanning).
lint-sarif:
	$(PYTHON) -m tools.analysis --flow --sarif lint.sarif $(LINT_PATHS)

ratchet:
	$(PYTHON) -m tools.analysis --ratchet

bench-smoke:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_encoding --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_bounds --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_splitting --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_warmstart --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_batch_bounds --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_faults --smoke
