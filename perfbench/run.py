"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload alg1-mlp --seed 0 --seconds 25 --trace 0

Set-up (fresh process to first timed call) is measured in child
processes; the workload then makes passes over its inputs until the
next pass would end past ``--seconds`` (at least one), checks every
answer against ``reference.json`` and prints, as its last stdout line,
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` adds one traced pass and
reports the per-layer metrics instead.  A run record (machine, versions,
seed, every pass, spans) goes to ``perfbench/out/``.  The exit code is 0
for a correct run, 1 for a wrong answer and 2 when the program is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is measured this many times per run (after one warm-up).
SETUP_PROBES = 3

#: One OpenBLAS/OpenMP thread per process: the eps-queries pool runs
#: ``nproc`` workers, and the parent waits while they compute.
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ[k] for k in THREAD_CAPS},
    }


def _probe(args) -> tuple[float, dict]:
    """Set-up in a fresh process: its wall seconds and phase timings."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program not found: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    for key in THREAD_CAPS:
        os.environ[key] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    ref = json.loads((HERE / "reference.json").read_text())
    workload = workloads.make(args.workload, ref)
    if args.setup_probe:
        print(json.dumps(workload.setup()))
        return 0

    # The warm-up probe trains and caches zoo nets on first use.
    _probe(args)
    workload.setup()

    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        if time.perf_counter() - t_start + passes[-1].wall_s > args.seconds:
            break
    peak_rss = _peak_rss_mb()

    probes = [_probe(args) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(w for w, _ in probes)
    setup = {k: statistics.median(p[k] for _, p in probes) for k in probes[0][1]}

    violations = [v for p in passes for v in p.violations]
    if any(p.answers != passes[0].answers for p in passes):
        violations.append("passes disagree: answers are not deterministic")

    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    record = _run_record(args)
    if args.trace:
        from spans import Tracer, layer_metrics, span_summary, unit_of

        tracer = Tracer(run=len(passes))
        tracer.install()
        try:
            start = time.perf_counter()
            traced = workload.run_pass()
            end = time.perf_counter()
        finally:
            tracer.uninstall()
        violations += traced.violations
        if traced.answers != passes[0].answers:
            violations.append("traced answers differ from untraced answers")
        passes.append(traced)
        values = layer_metrics(tracer, traced, walls, (start, end), setup)
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        record["spans"] = tracer.spans
        record["span_summary"] = span_summary(tracer.spans)
    else:
        attempted = passes[0].attempted
        decided = sum(p.decided for p in passes) / sum(p.attempted for p in passes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "queries_per_s": (attempted / wall, "1/s"),
            "eps_ratio": (passes[0].eps_ratio, "ratio"),
            "decided_ratio": (decided, "ratio"),
            "peak_rss_mb": (peak_rss, "MB"),
        }

    out = {
        "correct": not violations,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        passes=[{"wall_s": p.wall_s, "attempted": p.attempted, "failed": p.failed,
                 "decided": p.decided, "eps_ratio": p.eps_ratio} for p in passes],
        setup_probes=probes, violations=violations, result=out,
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, default=str))

    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    print(f"# {args.workload}: {len(walls)} untraced passes, walls "
          f"{[round(w, 3) for w in walls]}, setup probes "
          f"{[round(w, 3) for w, _ in probes]}, "
          f"record in {out_dir / name}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
