"""Algorithm 1: efficient global robustness over-approximation.

Combines the three ingredients of the paper:

* **ITNE** — sub-problems are encoded over twin copies with per-neuron
  distance variables (:mod:`repro.encoding.itne`);
* **ND** — the network is processed layer by layer; for each layer a
  depth-``W`` sub-network ending at that layer is encoded, with input
  ranges taken from the already-tightened table (``LpRelaxY`` /
  ``LpRelaxX`` of Algorithm 1, batched per layer so the constraint
  matrix is built once and only the objective vector changes);
* **LPR + selective refinement** — all ReLU and distance relations are
  relaxed (Eq. 4 / Eq. 6) except the ``refine_count`` worst-scored
  neurons, which keep exact big-M encodings.

The result is a sound, deterministic over-approximation ``ε̄ ≥ ε`` whose
cost grows polynomially with network size (three small LP/MILPs per
neuron; a depth-1 sub-network is answered in closed form) instead of
exponentially.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import _sanitize
from repro.bounds.interval import Box
from repro.bounds.ranges import RangeTable
from repro.bounds.twin_ibp import relu_distance_interval
from repro.certify.decomposition import decompose, subnetwork_ranges
from repro.certify.refinement import select_refinement
from repro.certify.results import GlobalCertificate
from repro.encoding.itne import ItneEncoding, encode_itne
from repro.milp.expr import as_expr
from repro.nn.affine import AffineLayer
from repro.nn.network import Network


@dataclass
class CertifierConfig:
    """Tuning knobs of Algorithm 1.

    Attributes:
        window: Sub-network depth ``W`` (clipped to the layer index).
        refine_count: Neurons refined (exactly encoded) per sub-network;
            0 gives a pure LP pipeline.
        backend: MILP/LP backend name.
        bounds: Bound propagator seeding the initial range table
            (``"ibp"`` — the paper's twin IBP — or ``"symbolic"`` for
            the backsubstitution bounds, which start the refinement from
            strictly tighter ranges).
        couple_second_copy: Apply the triangle relaxation to the implicit
            second copy as well (tightening; on by default).
        lp_time_limit: Optional per-LP time limit (seconds).
        milp_time_limit: Per-MILP time limit for refined sub-problems.
            A timed-out MILP still contributes its *dual bound*, which is
            sound for range certification, so limits never cost
            soundness — only tightness.
        workers: Worker processes for the per-neuron solve batches.
            Each layer's min/max objectives are independent, so with
            ``workers > 1`` they are fanned across processes via
            :func:`repro.runtime.batch.parallel_solve_many` (results are
            identical to the serial path; 1 = serial, the default).  The
            count is honoured as given; chunks run on the package's one
            supervised executor, and a chunk whose worker fails is
            re-solved in this process.
        verbose: Print per-layer progress.
    """

    window: int = 2
    refine_count: int = 0
    backend: str = "scipy"
    bounds: str = "ibp"
    couple_second_copy: bool = True
    lp_time_limit: float | None = None
    milp_time_limit: float | None = 30.0
    workers: int = 1
    verbose: bool = False


class GlobalRobustnessCertifier:
    """Implements Algorithm 1 of the paper.

    Example::

        certifier = GlobalRobustnessCertifier(net, CertifierConfig(window=2,
                                              refine_count=4))
        cert = certifier.certify(Box.uniform(net.input_dim, 0, 1), delta=0.001)
        print(cert.summary())
    """

    def __init__(
        self,
        network: Network | list[AffineLayer],
        config: CertifierConfig | None = None,
    ) -> None:
        self.layers = (
            network.to_affine_layers() if isinstance(network, Network) else list(network)
        )
        self.config = config or CertifierConfig()

    # -- public API -----------------------------------------------------------

    def certify(self, input_box: Box, delta: float) -> GlobalCertificate:
        """Run Algorithm 1 and return the certified ``ε̄`` per output.

        Args:
            input_box: Input domain ``X`` (flattened).
            delta: L∞ input perturbation bound δ.
        """
        cfg = self.config
        t0 = time.perf_counter()
        table = RangeTable.from_interval_propagation(
            self.layers, input_box, delta, propagator=cfg.bounds
        )
        lp_count = 0
        milp_count = 0

        for i in range(1, len(self.layers) + 1):
            layer = self.layers[i - 1]
            if min(i, cfg.window) <= 1:
                # A single affine map: no model is built or solved.
                self._closed_form_layer(table, i)
                solves = 0
            else:
                solves, used_binaries = self._tighten_layer(table, i)
                if used_binaries:
                    milp_count += solves
                else:
                    lp_count += solves
            self._finalize_layer(table, i, layer)
            if cfg.verbose:
                rec = table.layer(i)
                print(
                    f"layer {i}/{len(self.layers)}: "
                    f"|dy| <= {np.abs(rec.dy.hi).max():.4g}, "
                    f"|dx| <= {max(abs(rec.dx.lo.min()), abs(rec.dx.hi.max())):.4g} "
                    f"({solves} solves)"
                )

        return GlobalCertificate(
            delta=float(delta),
            epsilons=table.output_variation_bounds(),
            method=self._method_name(),
            exact=False,
            solve_time=time.perf_counter() - t0,
            lp_count=lp_count,
            milp_count=milp_count,
            detail={
                "window": cfg.window,
                "refine_count": cfg.refine_count,
                "range_table": table,
            },
        )

    # -- internals --------------------------------------------------------------

    def _method_name(self) -> str:
        tag = "itne-nd-lpr"
        if self.config.refine_count > 0:
            tag += f"-r{self.config.refine_count}"
        if self.config.bounds != "ibp":
            tag += f"-{self.config.bounds}"
        return tag

    def _closed_form_layer(self, table: RangeTable, i: int) -> None:
        """LpRelaxY for a depth-1 sub-network, answered without a solve."""
        src = table.layer(i - 1)
        y, dy = affine_lp_ranges(self.layers[i - 1], src.x, src.dx)
        if _sanitize.ENABLED:
            self._check_closed_form(table, i, y, dy)
        rec = table.layer(i)
        rec.y = _intersect(rec.y, y.lo, y.hi)
        rec.dy = _mirror(_intersect(rec.dy, dy.lo, dy.hi))

    def _tighten_layer(self, table: RangeTable, i: int) -> tuple[int, bool]:
        """LpRelaxY for every neuron of layer ``i`` (batched).

        Encodes one depth-``w`` sub-network whose output is the whole
        pre-activation layer ``y(i)`` and solves min/max of ``y_j`` and
        max of ``Δy_j`` for each neuron — three objectives, not four:
        the pair set is swap-symmetric, so ``min Δy_j = −max Δy_j`` and
        the lower end comes from :func:`_mirror`.  Updates the table in
        place.

        Returns:
            ``(num_solves, used_binaries)``.
        """
        cfg = self.config
        sub = decompose(self.layers, i, cfg.window, output_relu=False)
        sub_table = subnetwork_ranges(table, sub)
        masks = select_refinement(
            sub, sub_table, cfg.refine_count, include_output_layer=False
        )
        input_rec = table.layer(sub.input_layer_index)
        enc = encode_itne(
            sub.layers,
            Box(input_rec.x.lo.copy(), input_rec.x.hi.copy()),
            Box(input_rec.dx.lo.copy(), input_rec.dx.hi.copy()),
            ranges=sub_table,
            refine_mask=masks,
            couple_second_copy=cfg.couple_second_copy,
            clip_second_input=True,
        )
        used_binaries = enc.model.num_binary > 0

        m_i = self.layers[i - 1].out_dim
        objectives = []
        for j in range(m_i):
            y_expr = as_expr(enc.y[-1][j])
            objectives.extend(
                [(y_expr, "min"), (y_expr, "max"), (as_expr(enc.dy[-1][j]), "max")]
            )
        time_limit = cfg.milp_time_limit if used_binaries else cfg.lp_time_limit
        if cfg.workers > 1:
            from repro.runtime.batch import parallel_solve_many

            results = parallel_solve_many(
                enc.model,
                objectives,
                backend=cfg.backend,
                time_limit=time_limit,
                max_workers=cfg.workers,
            )
        else:
            # Serial path: one SolverSession per sub-network — the
            # export is cached once for all 3·m_i objective solves.
            from repro.milp.session import solve_objectives

            results = solve_objectives(
                enc.model, objectives, backend=cfg.backend, time_limit=time_limit
            )

        # Intersect with the (sound) table values so bounds never
        # loosen, using each solve's *dual bound* — sound even when a
        # refined MILP stopped at a gap or time limit.  A solve with no
        # usable bound (None, read as NaN) leaves the table value.
        sound = np.array([r.sound_bound() for r in results], dtype=float)
        y_lo, y_hi, dy_hi = sound.reshape(m_i, 3).T
        if _sanitize.ENABLED:
            self._check_mirror(enc, results, dy_hi, i, time_limit)
        rec = table.layer(i)
        rec.y = _intersect(rec.y, y_lo, y_hi)
        rec.dy = _mirror(_intersect(rec.dy, -math.inf, dy_hi))
        return len(objectives), used_binaries

    @staticmethod
    def _finalize_layer(table: RangeTable, i: int, layer: AffineLayer) -> None:
        """LpRelaxX: derive ``x(i)``/``Δx(i)`` ranges from fresh y/Δy.

        For a relaxed output neuron the LP optimum of ``x``/``Δx`` equals
        the closed-form image of the Eq. 4 / Eq. 6 relaxations at the
        ``y``/``Δy`` extremes (the relaxation hulls are tight at their
        corners), so this evaluates those images directly — including
        the exact-case intersection used by twin IBP — instead of
        re-solving LPs.  Each ``Δx`` box is then narrowed to
        ``[max(lo, −hi), min(hi, −lo)]`` by :func:`_mirror`; that keeps
        the next layer's relaxation swap-symmetric.
        """
        rec = table.layer(i)
        if layer.relu:
            rec.x = rec.y.relu()
            dx_box = relu_distance_interval(rec.y, rec.dy)
        else:
            rec.x = Box(rec.y.lo, rec.y.hi)
            dx_box = rec.dy
        rec.dx = _mirror(dx_box)

    # -- sanitizer contract twin-symmetry ---------------------------------------

    def _check_closed_form(self, table: RangeTable, i: int, y: Box, dy: Box) -> None:
        """One closed-form neuron of layer ``i`` equals its LP optimum."""
        from repro.milp.session import solve_objectives

        j = int(np.argmax(dy.hi - dy.lo))
        sub = decompose(self.layers, i, 1, output_relu=False, neuron=j)
        src = table.layer(i - 1)
        enc = encode_itne(
            sub.layers,
            Box(src.x.lo, src.x.hi),
            Box(src.dx.lo, src.dx.hi),
            ranges=subnetwork_ranges(table, sub, neuron=j),
            clip_second_input=True,
        )
        y_expr, dy_expr = as_expr(enc.y[0][0]), as_expr(enc.dy[0][0])
        results = solve_objectives(
            enc.model,
            [(y_expr, "min"), (y_expr, "max"), (dy_expr, "min"), (dy_expr, "max")],
            backend=self.config.backend,
        )
        _sanitize.check_twin_symmetry(
            [r.sound_bound() for r in results],
            [y.lo[j], y.hi[j], dy.lo[j], dy.hi[j]],
            f"layer {i} neuron {j}: LP optimum vs closed form",
        )

    def _check_mirror(
        self,
        enc: ItneEncoding,
        results: list,
        dy_hi: np.ndarray,
        i: int,
        time_limit: float | None,
    ) -> None:
        """The skipped ``min Δy`` of layer ``i``'s widest neuron is ``−max Δy``.

        Checked only where the relaxation itself is swap-symmetric (the
        second copy coupled) and both solves proved optimality.
        """
        if not self.config.couple_second_copy:
            return
        from repro.milp.session import solve_objectives

        j = int(np.argmax(np.nan_to_num(dy_hi, nan=-math.inf)))
        (low,) = solve_objectives(
            enc.model,
            [(as_expr(enc.dy[-1][j]), "min")],
            backend=self.config.backend,
            time_limit=time_limit,
        )
        if not (low.is_optimal and results[3 * j + 2].is_optimal):
            return
        mip = enc.model.num_binary > 0
        _sanitize.check_twin_symmetry(
            [low.sound_bound()],
            [-dy_hi[j]],
            f"layer {i} neuron {j}: min Δy vs −max Δy",
            # A MILP stops within HiGHS's relative (1e-4) and absolute
            # (1e-6) gaps, on each side.
            rtol=3e-4 if mip else 1e-6,
            atol=3e-6 if mip else 1e-9,
        )


def affine_lp_ranges(layer: AffineLayer, x_box: Box, dx_box: Box) -> tuple[Box, Box]:
    """LP optima of ``y = W x + b`` and ``Δy = W Δx`` over a clipped twin box.

    The feasible set is ``x ∈ x_box``, ``Δx ∈ dx_box`` and the clip
    ``x + Δx ∈ x_box`` (``encode_itne(..., clip_second_input=True)`` of
    the single layer, ReLU stripped).  Each constraint couples one input
    coordinate with its own distance only, so the set's projections are
    boxes and the LP optimum of every ``y_j``/``Δy_j`` objective is
    interval arithmetic over them (Gowal et al., 2018): ``x`` ranges
    over ``[max(lo, lo − Δx̅), min(hi, hi − Δx̲)]`` and ``Δx`` over
    ``[max(Δx̲, lo − hi), min(Δx̅, hi − lo)]``.

    Returns:
        ``(y_box, dy_box)``.
    """
    lo, hi = x_box.lo, x_box.hi
    d_lo, d_hi = dx_box.lo, dx_box.hi
    x_proj = Box(np.maximum(lo, lo - d_hi), np.minimum(hi, hi - d_lo))
    d_proj = Box(np.maximum(d_lo, lo - hi), np.minimum(d_hi, hi - lo))
    return x_proj.affine(layer.weight, layer.bias), d_proj.affine(layer.weight, 0.0)


def _intersect(box: Box, lo: np.ndarray | float, hi: np.ndarray | float) -> Box:
    """``box ∩ [lo, hi]``; an end crossing left by solver jitter is swapped.

    A NaN end (a solve with no usable bound) keeps the box's value.
    """
    new_lo = np.fmax(box.lo, lo)
    new_hi = np.fmin(box.hi, hi)
    return Box(np.minimum(new_lo, new_hi), np.maximum(new_lo, new_hi))


def _mirror(box: Box) -> Box:
    """``box ∩ −box`` for a ``Δy``/``Δx`` range of Algorithm 1.

    Algorithm 1 bounds distances over the pair set
    ``{(x, x̂) : x, x̂ ∈ X, ‖x̂ − x‖∞ ≤ δ}``: both inputs lie in the
    domain (``clip_second_input=True``) and the δ box is symmetric.
    Swapping ``x`` and ``x̂`` leaves that set unchanged and negates
    every distance, so each true distance range is symmetric about 0
    and any sound range may be intersected with its mirror image.  The
    result still holds 0 (the pair ``x̂ = x``).  The argument fails for
    a split leaf's pair set (``clip_second_input=False``), which never
    reaches this function.
    """
    radius = np.maximum(0.0, np.minimum(box.hi, -box.lo))
    return Box(-radius, radius)
