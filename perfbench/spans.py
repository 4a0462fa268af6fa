"""Spans and counters recorded from outside the program.

:class:`Tracer` wraps public functions of the ``repro`` modules by
swapping their module or class attributes for timing wrappers while
installed, and restores them on uninstall.  Each call becomes a span
``(name, start, end, parent, run)``; spans stay in memory and are
written out when the benchmark ends.  Hooks read the wrapped calls'
arguments and results to record per-layer counts where the work
happens.  :func:`layer_metrics` turns the spans, the hooks' records and
the traced pass into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import statistics
import time

#: Objective order of Algorithm 1's per-neuron solves.
KINDS = ("y_min", "y_max", "dy_min", "dy_max")

#: A solve "beats" its seed interval by more than this relative slack.
TIGHTER_TOL = 1e-9


class Tracer:
    """Span recorder with per-layer hooks over the ``repro`` public API.

    Args:
        run: Identifier stamped on every span this tracer records.
    """

    def __init__(self, run: int) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.run = run
        self.certify = 0
        self.layer = 0
        self.seed_table: list[tuple] = []
        self.solves: list[dict] = []
        self.encodings: list[tuple[int, int, int]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else None, tracer.run]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, hook=None, classmethod_=False):
        original = owner.__dict__[attr]
        fn = original.__func__ if classmethod_ else original
        wrapped = self._wrap(name, fn, hook)
        setattr(owner, attr, classmethod(wrapped) if classmethod_ else wrapped)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the traced public functions."""
        import repro.certify.global_cert as global_cert
        import repro.certify.presolve as presolve
        import repro.control.invariant as invariant
        import repro.milp.session as session
        from repro.bounds.ranges import RangeTable
        from repro.milp.model import Model

        self._patch(RangeTable, "from_interval_propagation", "bounds.seed",
                    self._on_seed, classmethod_=True)
        self._patch(global_cert, "decompose", "alg1.decompose", self._on_decompose)
        self._patch(global_cert, "subnetwork_ranges", "alg1.subnetwork_ranges")
        self._patch(global_cert, "select_refinement", "alg1.select_refinement")
        self._patch(global_cert, "encode_itne", "encoding.itne", self._on_encode)
        self._patch(session, "solve_objectives", "milp.solve", self._on_solve)
        self._patch(Model, "to_standard_form", "milp.export")
        self._patch(presolve, "presolve_many", "presolve.bulk")
        self._patch(invariant, "robust_invariant_set", "control.invariant_set")
        self._patch(invariant, "is_robust_invariant", "control.closure_check")
        self._patch(invariant.Polytope2D, "vertices", "control.vertices")
        self._patch(invariant.Polytope2D, "intersect", "control.intersect")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span observed outside a wrapped call."""
        self.spans.append([name, start, end, None, self.run])

    # -- hooks ------------------------------------------------------------------

    def _on_seed(self, args, table) -> None:
        # Snapshot: Algorithm 1 tightens the table in place afterwards.
        self.certify += 1
        self.seed_table = [
            (rec.y.lo.copy(), rec.y.hi.copy(), rec.dy.lo.copy(), rec.dy.hi.copy())
            for rec in table.layers
        ]

    def _on_decompose(self, args, sub) -> None:
        self.layer = int(args[1])

    def _on_encode(self, args, enc) -> None:
        model = enc.model
        self.encodings.append((model.num_vars, model.num_constrs, model.num_binary))

    def _on_solve(self, args, results) -> None:
        if not self.layer:
            return  # not one of Algorithm 1's per-neuron solve batches
        model = args[0]
        cls = "mip" if model.num_binary > 0 else "lp"
        y_lo, y_hi, dy_lo, dy_hi = self.seed_table[self.layer - 1]
        seed = (y_lo, y_hi, dy_lo, dy_hi)
        for k, result in enumerate(results):
            j, kind = divmod(k, 4)
            bound = result.sound_bound()
            ref = float(seed[kind][j])
            slack = TIGHTER_TOL * max(1.0, abs(ref))
            tighter = bound is not None and (
                bound > ref + slack if kind % 2 == 0 else bound < ref - slack
            )
            self.solves.append({
                "cls": cls, "kind": KINDS[kind], "cert": self.certify, "layer": self.layer,
                "neuron": j, "s": result.solve_time, "nodes": result.nodes,
                "limit": not result.is_optimal, "bound": bound, "tighter": tighter,
            })


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    if name.endswith(("_ratio", ".coverage", ".utilization")):
        return "ratio"
    return "count"


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_summary(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds."""
    summary: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, _self_times(spans)):
        rec = summary.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += span[2] - span[1]
        rec["self_s"] += own
    return summary


def layer_metrics(tracer: Tracer, traced, untraced_walls, pass_window, setup) -> dict:
    """The ``per_layer`` metrics of one traced pass.

    Args:
        tracer: The tracer that recorded the pass (and nothing else).
        traced: The traced :class:`~workloads.PassResult`.
        untraced_walls: Wall seconds of the untraced passes.
        pass_window: ``(start, end)`` perf-counter stamps of the pass.
        setup: Median setup-phase seconds (``import_s``/``load_s``/``lower_s``).
    """
    spans = tracer.spans
    summary = span_summary(spans)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {f"setup.{k}": v for k, v in setup.items()}
    m["bounds.seed_s"] = total("bounds.seed")
    m["bounds.seed_calls"] = calls("bounds.seed")

    t_our = traced.info.get("t_our", {})
    for tag in ("dnn1", "dnn2", "dnn3", "dnn6"):
        m[f"alg1.t_our_s.{tag}"] = t_our.get(tag, 0.0)
    m["alg1.decompose_s"] = sum(
        total(n) for n in ("alg1.decompose", "alg1.subnetwork_ranges", "alg1.select_refinement")
    )

    m["encoding.itne_s"] = total("encoding.itne")
    m["encoding.itne_calls"] = calls("encoding.itne")
    for k, key in enumerate(("vars", "rows", "binaries")):
        m[f"encoding.{key}"] = sum(e[k] for e in tracer.encodings)

    solves = tracer.solves
    m["milp.export_s"] = total("milp.export")
    m["milp.export_calls"] = calls("milp.export")
    for cls in ("lp", "mip"):
        for kind in KINDS:
            sel = [s for s in solves if s["cls"] == cls and s["kind"] == kind]
            m[f"milp.{cls}.{kind}.count"] = len(sel)
            m[f"milp.{cls}.{kind}.s"] = sum(s["s"] for s in sel)
            if cls == "mip":
                m[f"milp.mip.{kind}.nodes"] = sum(s["nodes"] for s in sel)
    layer1 = [s for s in solves if s["cls"] == "lp" and s["layer"] == 1]
    m["milp.lp.layer1.count"] = len(layer1)
    m["milp.lp.layer1.s"] = sum(s["s"] for s in layer1)
    m["milp.mip.limit_hits"] = sum(s["limit"] for s in solves if s["cls"] == "mip")
    m["milp.solve_self_s"] = self_s("milp.solve")
    m["milp.solve_overhead_s"] = total("milp.solve") - sum(s["s"] for s in solves)
    m["milp.tightened_ratio"] = (
        sum(s["tighter"] for s in solves) / len(solves) if solves else 0.0
    )
    dy = {}
    for s in solves:
        if s["kind"] in ("dy_min", "dy_max"):
            dy.setdefault((s["cert"], s["layer"], s["neuron"]), {})[s["kind"]] = s["bound"]
    pairs = [(d["dy_max"], d["dy_min"]) for d in dy.values()
             if d.get("dy_max") is not None and d.get("dy_min") is not None]
    m["milp.dy_symmetric_ratio"] = (
        sum(abs(hi + lo) <= 1e-9 * abs(hi) for hi, lo in pairs) / len(pairs) if pairs else 0.0
    )

    stats = traced.info.get("presolve_stats", {})
    m["presolve.bulk_s"] = total("presolve.bulk")
    m["presolve.screened"] = stats.get("queries", 0)
    m["presolve.answered"] = stats.get("answered", 0)
    m["presolve.answered_ratio"] = (
        stats["answered"] / stats["queries"] if stats.get("queries") else 0.0
    )

    results = traced.info.get("results", [])
    split = [r for r in results if r.ok and r.certificate.method == "split"]
    detail = [r.certificate.detail for r in split]
    m["split.queries"] = len(split)
    m["split.worker_s"] = sum(r.elapsed for r in split)
    m["split.max_query_s"] = max((r.elapsed for r in split), default=0.0)
    for key in ("domains", "bisections", "proved_by_bounds", "milp_leaves",
                "milp_limit_hits", "undecided"):
        m[f"split.{key}"] = sum(d[key] for d in detail)
    closed = m["split.proved_by_bounds"] + m["split.milp_leaves"]
    m["split.proved_ratio"] = m["split.proved_by_bounds"] / closed if closed else 0.0

    # Results that went through a worker carry their attempt count;
    # each becomes a span from its start in the worker to its completion.
    done_at = traced.info.get("done_at", {})
    dispatched = [r for r in results if r.detail and "attempts" in r.detail]
    for r in dispatched:
        tracer.add_span("batch.query", done_at[r.index] - r.elapsed, done_at[r.index])
    m["batch.dispatched"] = len(dispatched)
    busy = sum(r.elapsed for r in dispatched)
    m["batch.busy_s"] = busy
    submitted = traced.info.get("submitted", 0.0)
    m["batch.wait_s"] = sum(done_at[r.index] - submitted - r.elapsed for r in dispatched)
    if dispatched:
        first = min(done_at[r.index] - r.elapsed for r in dispatched)
        last = max(done_at[r.index] for r in dispatched)
        span = max(last - first, 1e-9)
        m["batch.utilization"] = busy / (traced.info["workers"] * span)
    else:
        m["batch.utilization"] = 0.0
    faults = traced.info.get("fault_stats", {})
    for key in ("retries", "degraded", "timeouts", "workers_killed", "pool_rebuilds"):
        m[f"batch.{key}"] = faults.get(key, 0)

    m["control.invariant_set_calls"] = calls("control.invariant_set")
    m["control.invariant_set_s"] = total("control.invariant_set")
    m["control.invariant_set_self_s"] = self_s("control.invariant_set")
    m["control.vertices_calls"] = calls("control.vertices")
    m["control.vertices_s"] = total("control.vertices")
    m["control.intersect_calls"] = calls("control.intersect")
    m["control.intersect_self_s"] = self_s("control.intersect")
    # Two calls check the bisection's end points; the rest are steps.
    m["control.bisection_steps"] = max(0, calls("control.invariant_set") - 2)

    start, end = pass_window
    m["trace.overhead_ratio"] = traced.wall_s / statistics.median(untraced_walls) - 1.0
    top = [(max(s[1], start), min(s[2], end)) for s in spans if s[3] is None]
    m["trace.coverage"] = _union([iv for iv in top if iv[1] > iv[0]]) / (end - start)
    return m
