"""The unified bound-propagation API: one protocol, many engines.

Every MILP in the pipeline is only as tight as the interval bounds that
seed it — big-M constants, Algorithm 1's initial range tables and the
Eq. 4 / Eq. 6 relaxation gaps all start from per-layer boxes.  This
module defines the single entry point through which those boxes are
produced:

* :class:`LayerBounds` — the per-layer pre/post-activation boxes of one
  propagation, with optional twin *distance* boxes (``Δy``/``Δx``) when
  a perturbation was supplied;
* :class:`BoundPropagator` — the protocol ``propagate(layers, input_box,
  delta=None) -> LayerBounds`` every engine implements;
* a registry (:func:`register_propagator` / :func:`get_propagator`) with
  the built-in engines ``"ibp"``, ``"twin-ibp"`` and ``"symbolic"``
  (the latter registered by :mod:`repro.bounds.symbolic`).

Implementations must return *sound* enclosures: every reachable
pre/post-activation (and, for twin runs, every reachable distance) lies
inside the reported boxes.  Engines other than plain IBP additionally
guarantee containment in the IBP boxes (tightest-wins), so swapping the
propagator can only shrink downstream relaxations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, TypeAlias, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bounds.ranges import RangeTable

import numpy as np

from repro import _sanitize
from repro.bounds.batched import (
    BatchedBox,
    BatchedLayerBounds,
    DeltaSpec,
    as_batched_box,
    as_batched_delta,
    delta_row,
)
from repro.bounds.interval import Box
from repro.bounds.ibp import propagate_box_batch
from repro.bounds.twin_ibp import propagate_twin_box_batch
from repro.nn.affine import AffineLayer

#: Accepted ways of naming a stack of query boxes: a ready-made
#: ``BatchedBox``, one box (a batch of one), or a list of boxes.
BoxStack: TypeAlias = "BatchedBox | Box | list[Box]"


def _copy_box(box: Box) -> Box:
    return Box(box.lo.copy(), box.hi.copy())


@dataclass
class LayerBounds:
    """Per-layer interval records of one bound propagation.

    Layer indices follow the encoders: entry ``i`` bounds layer ``i+1``
    of the paper's 1-based chain.  Distance attributes are ``None`` for
    value-only runs (no perturbation supplied).

    Attributes:
        input_box: Box over the flattened input ``x(0)``.
        y: Pre-activation value box per layer.
        x: Post-activation value box per layer.
        delta_box: Input perturbation box ``Δx(0)`` (twin runs only).
        dy: Pre-activation distance box per layer (twin runs only).
        dx: Post-activation distance box per layer (twin runs only).
        method: Name of the propagator that produced these bounds.
    """

    input_box: Box
    y: list[Box]
    x: list[Box]
    delta_box: Box | None = None
    dy: list[Box] | None = None
    dx: list[Box] | None = None
    method: str = ""

    def __post_init__(self) -> None:
        # Copy the ingested *lists* (RPR002): a caller appending to or
        # reordering the list it passed in must not retroactively edit
        # these bounds.  The Box elements themselves are shared — every
        # producer hands over freshly built boxes and all consumers
        # treat them as read-only.
        self.y = list(self.y)
        self.x = list(self.x)
        if self.dy is not None:
            self.dy = list(self.dy)
        if self.dx is not None:
            self.dx = list(self.dx)

    @property
    def num_layers(self) -> int:
        """Number of network layers covered."""
        return len(self.y)

    @property
    def has_distance(self) -> bool:
        """Whether twin distance bounds were propagated."""
        return self.dy is not None

    @property
    def output(self) -> Box:
        """Post-activation box of the final layer (the network output)."""
        return self.x[-1]

    @property
    def output_distance(self) -> Box:
        """Distance box of the network output ``Δx(n)``."""
        if self.dx is None:
            raise ValueError(
                "no distance bounds: propagate with a delta to get Δ boxes"
            )
        return self.dx[-1]

    def intersect(self, other: "LayerBounds") -> "LayerBounds":
        """Tightest-wins element-wise intersection of two propagations.

        Both operands must be sound for the same network and input box,
        so the intersection is sound and no looser than either.  When
        only one operand carries distance bounds, its distance boxes are
        kept as-is (there is nothing to intersect them with).
        """
        if other.num_layers != self.num_layers:
            raise ValueError("layer count mismatch")
        if self.has_distance and other.has_distance:
            delta_box = self.delta_box.intersect(other.delta_box)
            dy = [a.intersect(b) for a, b in zip(self.dy, other.dy)]
            dx = [a.intersect(b) for a, b in zip(self.dx, other.dx)]
        else:
            twin = self if self.has_distance else other
            delta_box, dy, dx = twin.delta_box, twin.dy, twin.dx
        return LayerBounds(
            input_box=self.input_box.intersect(other.input_box),
            y=[a.intersect(b) for a, b in zip(self.y, other.y)],
            x=[a.intersect(b) for a, b in zip(self.x, other.x)],
            delta_box=delta_box,
            dy=dy,
            dx=dx,
            method=f"{self.method}&{other.method}",
        )

    def stable_mask(self, i: int) -> np.ndarray:
        """Boolean mask of layer ``i``'s neurons stable under these bounds.

        A neuron is *stable* when its pre-activation box does not
        straddle zero — a stable ReLU encodes without a binary variable.
        """
        y_box = self.y[i]
        return (y_box.lo >= 0.0) | (y_box.hi <= 0.0)

    def stable_split(self, layers: list[AffineLayer]) -> tuple[int, int]:
        """``(stable, total)`` ReLU-neuron counts under these bounds."""
        stable = total = 0
        for i, layer in enumerate(layers):
            if not layer.relu:
                continue
            total += self.y[i].dim
            stable += int(np.sum(self.stable_mask(i)))
        return stable, total

    def stable_fraction(self, layers: list[AffineLayer]) -> float:
        """Fraction of ReLU neurons stable under these bounds (1.0 if none)."""
        stable, total = self.stable_split(layers)
        return stable / total if total else 1.0

    def mean_pre_activation_width(self) -> float:
        """Mean width of all pre-activation intervals (the tightness metric)."""
        return float(np.mean(np.concatenate([b.width() for b in self.y])))

    def output_variation_bounds(self) -> np.ndarray:
        """Per-output ``ε̄ = max(|Δx̲(n)|, |Δx̅(n)|)`` from the distance box.

        The variation bound these intervals alone certify (mirrors
        :meth:`repro.bounds.ranges.RangeTable.output_variation_bounds`).
        """
        dist = self.output_distance
        return np.maximum(np.abs(dist.lo), np.abs(dist.hi))

    def to_range_table(self) -> "RangeTable":
        """Convert to the mutable :class:`~repro.bounds.ranges.RangeTable`.

        Requires distance bounds (the table tracks ``Δy``/``Δx``).
        """
        from repro.bounds.ranges import LayerRanges, RangeTable

        if not self.has_distance:
            raise ValueError(
                "RangeTable needs distance bounds: propagate with a delta"
            )
        table = RangeTable(self.input_box, self.delta_box)
        for i in range(self.num_layers):
            table.layers.append(
                LayerRanges(
                    y=_copy_box(self.y[i]),
                    dy=_copy_box(self.dy[i]),
                    x=_copy_box(self.x[i]),
                    dx=_copy_box(self.dx[i]),
                )
            )
        return table


@runtime_checkable
class BoundPropagator(Protocol):
    """Protocol of a bound-propagation engine.

    Engines may additionally expose a native ``propagate_many(layers,
    boxes, deltas=None) -> BatchedLayerBounds`` answering a whole query
    stack in one vectorized pass (all built-ins do).  The method is
    deliberately *not* part of the required protocol: the module-level
    :func:`propagate_many` dispatcher falls back to a loop over
    ``propagate`` plus :meth:`BatchedLayerBounds.stack`, so third-party
    propagators keep working unchanged.

    Attributes:
        name: Registry key (also recorded on produced bounds).
    """

    name: str

    def propagate(
        self,
        layers: list[AffineLayer],
        input_box: Box,
        delta: float | Box | None = None,
    ) -> LayerBounds:
        """Bound every layer of ``layers`` over ``input_box``.

        Args:
            layers: Normal-form network.
            input_box: Box over the flattened input.
            delta: When given (L∞ radius or explicit box), also propagate
                twin *distance* bounds for ITNE/BTNE seeding.

        Returns:
            Sound :class:`LayerBounds`.
        """
        ...  # pragma: no cover - protocol


class IBPPropagator:
    """Plain interval bound propagation (the existing IBP / twin-IBP).

    Value boxes come from forward interval arithmetic; with a ``delta``
    the twin variant of :mod:`repro.bounds.twin_ibp` also tracks the
    per-layer distance boxes.  Single-query :meth:`propagate` is the
    ``Q=1`` row of :meth:`propagate_many`.
    """

    name = "ibp"

    def propagate(
        self,
        layers: list[AffineLayer],
        input_box: Box,
        delta: float | Box | None = None,
    ) -> LayerBounds:
        return self.propagate_many(layers, input_box, delta).row(0)

    def propagate_many(
        self,
        layers: list[AffineLayer],
        input_boxes: BoxStack,
        deltas: DeltaSpec = None,
    ) -> BatchedLayerBounds:
        """Bound all ``Q`` stacked queries in one vectorized IBP pass.

        Row ``q`` of the result does not depend on the batch size: it is
        bit-identical to ``self.propagate(layers, input_boxes.row(q),
        <delta row q>)``.
        """
        stack = as_batched_box(input_boxes)
        delta_stack = as_batched_delta(deltas, stack.num_queries, stack.dim)
        if delta_stack is not None:
            bounds = propagate_twin_box_batch(layers, stack, delta_stack)
            bounds.method = self.name
            return bounds
        _, y_stacks = propagate_box_batch(layers, stack, collect=True)
        x_stacks = [
            y.relu() if layer.relu else y for layer, y in zip(layers, y_stacks)
        ]
        return BatchedLayerBounds(
            input_box=stack, y=y_stacks, x=x_stacks, method=self.name
        )


class TwinIBPPropagator(IBPPropagator):
    """Twin-network IBP: like ``"ibp"`` but a perturbation is mandatory."""

    name = "twin-ibp"

    def propagate_many(
        self,
        layers: list[AffineLayer],
        input_boxes: BoxStack,
        deltas: DeltaSpec = None,
    ) -> BatchedLayerBounds:
        if deltas is None:
            raise ValueError("twin-ibp requires a perturbation (delta)")
        bounds = super().propagate_many(layers, input_boxes, deltas)
        bounds.method = self.name
        return bounds


_REGISTRY: dict[str, BoundPropagator] = {}


def register_propagator(propagator: BoundPropagator) -> BoundPropagator:
    """Register an engine under ``propagator.name`` (last write wins)."""
    _REGISTRY[propagator.name] = propagator
    return propagator


def get_propagator(spec: "str | BoundPropagator") -> BoundPropagator:
    """Resolve a propagator: a registry name or an instance (passed through)."""
    if not isinstance(spec, str):
        return spec
    try:
        return _REGISTRY[spec]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown bound propagator {spec!r}; registered: {known}"
        ) from None


def available_propagators() -> tuple[str, ...]:
    """Sorted names of all registered engines."""
    return tuple(sorted(_REGISTRY))


def _check_batch_agreement(
    engine: BoundPropagator,
    layers: list[AffineLayer],
    stack: BatchedBox,
    deltas: DeltaSpec,
    result: BatchedLayerBounds,
) -> None:
    """Sanitizer: a sampled batched row must not depend on the batch size.

    Single-query ``propagate`` is the ``Q=1`` row of the same kernel, so
    re-running it for one deterministically sampled query and comparing
    every per-layer array checks that a row's bounds are independent of
    the other rows in its batch — the runtime analogue of the
    bit-identity property tests, exercised on *real* workloads whenever
    ``REPRO_SANITIZE=1``.  For a third-party native ``propagate_many`` it
    checks agreement with that engine's own ``propagate``.
    """
    queries = result.num_queries
    q = int(np.random.default_rng(queries * 1000003 + stack.dim).integers(queries))
    single = engine.propagate(layers, stack.row(q), delta_row(deltas, q, stack.dim))
    row = result.row(q)
    what = f"propagate_many[{engine.name}] query {q}/{queries}"
    if row.num_layers != single.num_layers:
        raise _sanitize.SanitizerError(
            f"sanitizer[batch-row]: {what}: batched result covers "
            f"{row.num_layers} layers, single-query propagation {single.num_layers}"
        )
    if row.has_distance != single.has_distance:
        raise _sanitize.SanitizerError(
            f"sanitizer[batch-row]: {what}: batched and single-query results "
            f"disagree on distance-bound presence"
        )
    kinds = ("y", "x", "dy", "dx") if row.has_distance else ("y", "x")
    for kind in kinds:
        pairs = zip(getattr(row, kind), getattr(single, kind))
        for t, (got, want) in enumerate(pairs):
            _sanitize.check_batch_row(got.lo, want.lo, f"{what} {kind}[{t}].lo")
            _sanitize.check_batch_row(got.hi, want.hi, f"{what} {kind}[{t}].hi")


def propagate_many(
    propagator: "str | BoundPropagator",
    layers: list[AffineLayer],
    boxes: BoxStack,
    deltas: DeltaSpec = None,
) -> BatchedLayerBounds:
    """Bound a whole stack of queries through one engine.

    The batched entry point of the bounds package: engines exposing a
    native ``propagate_many`` (all built-ins) answer the stack in one
    vectorized pass; third-party propagators implementing only the
    :class:`BoundPropagator` protocol are looped per query and stacked,
    so every registered engine works here unchanged.

    Args:
        propagator: Registry name or engine instance.
        layers: Normal-form network shared by all queries.
        boxes: The ``Q`` input boxes — a :class:`BatchedBox`, a single
            :class:`Box`, or a list of boxes.
        deltas: Optional per-query perturbations (shared radius, array of
            radii, shared box, list of boxes, or a ``(Q, n)`` stack).

    Returns:
        Sound :class:`BatchedLayerBounds`; row ``q`` equals the scalar
        ``propagate`` result of query ``q`` (bit-identical for the
        built-in engines, sanitizer-checked for native third-party
        batched implementations).
    """
    engine = get_propagator(propagator)
    stack = as_batched_box(boxes)
    native = getattr(engine, "propagate_many", None)
    if native is None or not callable(native):
        rows = [
            engine.propagate(layers, stack.row(q), delta_row(deltas, q, stack.dim))
            for q in range(stack.num_queries)
        ]
        return BatchedLayerBounds.stack(rows)
    result: BatchedLayerBounds = native(layers, stack, deltas)
    if _sanitize.ENABLED:
        _check_batch_agreement(engine, layers, stack, deltas, result)
    return result


register_propagator(IBPPropagator())
register_propagator(TwinIBPPropagator())
