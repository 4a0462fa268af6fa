"""Independent single-query reference kernels for the bound parity tests.

The bounds package has one implementation per kernel, over ``(Q, n)``
stacks; single-query ``propagate`` is its ``Q=1`` row.  Comparing the
batched kernels against themselves would prove nothing, so this module
keeps a separate single-query implementation of every kernel — IBP,
twin IBP, the ReLU-distance interval and CROWN-style backsubstitution —
written over plain 1-D :class:`Box` arrays with the 2-D matmul shapes
the batched kernels mirror.  Rows of a batched result must be
bit-identical to these functions.

Only the containers (``Box``, ``LayerBounds``) come from ``repro``;
every piece of bound arithmetic here is local.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bounds import Box, LayerBounds
from repro.nn.affine import AffineLayer

#: ``(d_lo, b_lo, d_hi, b_hi)`` with ``d_lo·y + b_lo ≤ act(y) ≤ d_hi·y + b_hi``.
Relaxation = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# -- IBP ------------------------------------------------------------------------


def propagate_box(
    layers: list[AffineLayer], input_box: Box, collect: bool = False
) -> "Box | tuple[Box, list[Box]]":
    """Propagate an input box through an affine chain.

    Returns the output box, or ``(output_box, pre_activation_boxes)``
    when ``collect`` is set; ``pre_activation_boxes[i]`` bounds ``y(i+1)``.
    """
    box = input_box
    pre_acts: list[Box] = []
    for layer in layers:
        box = box.affine(layer.weight, layer.bias)
        if collect:
            pre_acts.append(box)
        if layer.relu:
            box = box.relu()
    if collect:
        return box, pre_acts
    return box


# -- twin IBP -------------------------------------------------------------------


@dataclass
class TwinBounds:
    """Per-layer records of a twin propagation.

    ``x[0]``/``dx[0]`` are the input box and perturbation; ``y[i]`` and
    ``dy[i]`` bound the pre-activations of layer ``i+1``.
    """

    x: list[Box] = field(default_factory=list)
    dx: list[Box] = field(default_factory=list)
    y: list[Box] = field(default_factory=list)
    dy: list[Box] = field(default_factory=list)


def as_delta_box(delta: float | Box, dim: int) -> Box:
    """A radius ``d`` becomes ``[-d, d]^dim``; a box passes through."""
    if isinstance(delta, Box):
        if delta.dim != dim:
            raise ValueError("perturbation box dimension mismatch")
        return delta
    return Box.uniform(dim, -float(delta), float(delta))


def relu_distance_interval(y_box: Box, dy_box: Box) -> Box:
    """Sound interval for ``Δx = relu(y + Δy) − relu(y)``.

    Intersects ``min(0, Δy̲) ≤ Δx ≤ max(0, Δy̅)`` with the difference
    of the value enclosures ``relu(ŷ) − relu(y)``; both-active and
    both-inactive neurons are exact.
    """
    yhat_box = Box(y_box.lo + dy_box.lo, y_box.hi + dy_box.hi)

    both_active = (y_box.lo >= 0.0) & (yhat_box.lo >= 0.0)
    both_inactive = (y_box.hi <= 0.0) & (yhat_box.hi <= 0.0)

    lo1 = np.minimum(0.0, dy_box.lo)
    hi1 = np.maximum(0.0, dy_box.hi)

    relu_y = y_box.relu()
    relu_yhat = yhat_box.relu()
    lo2 = relu_yhat.lo - relu_y.hi
    hi2 = relu_yhat.hi - relu_y.lo

    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)

    lo = np.where(both_active, dy_box.lo, np.where(both_inactive, 0.0, lo))
    hi = np.where(both_active, dy_box.hi, np.where(both_inactive, 0.0, hi))
    return Box(lo, hi)


def propagate_twin_box(
    layers: list[AffineLayer], input_box: Box, delta: float | Box
) -> TwinBounds:
    """Propagate value and distance boxes through an affine chain."""
    dx_box = as_delta_box(delta, input_box.dim)
    bounds = TwinBounds(x=[input_box], dx=[dx_box])
    x_box, d_box = input_box, dx_box
    for layer in layers:
        y_box = x_box.affine(layer.weight, layer.bias)
        dy_box = d_box.affine(layer.weight, 0.0)
        bounds.y.append(y_box)
        bounds.dy.append(dy_box)
        if layer.relu:
            x_box = y_box.relu()
            d_box = relu_distance_interval(y_box, dy_box)
        else:
            x_box, d_box = y_box, dy_box
        bounds.x.append(x_box)
        bounds.dx.append(d_box)
    return bounds


def ibp_propagate(
    layers: list[AffineLayer],
    input_box: Box,
    delta: float | Box | None = None,
    method: str = "ibp",
) -> LayerBounds:
    """The ``"ibp"`` / ``"twin-ibp"`` engines' bounds for one query."""
    if delta is not None:
        twin = propagate_twin_box(layers, input_box, delta)
        return LayerBounds(
            input_box=twin.x[0],
            y=twin.y,
            x=twin.x[1:],
            delta_box=twin.dx[0],
            dy=twin.dy,
            dx=twin.dx[1:],
            method=method,
        )
    _, y_boxes = propagate_box(layers, input_box, collect=True)
    x_boxes = [y.relu() if layer.relu else y for layer, y in zip(layers, y_boxes)]
    return LayerBounds(input_box=input_box, y=y_boxes, x=x_boxes, method=method)


# -- symbolic backsubstitution --------------------------------------------------


def _identity_relaxation(dim: int) -> Relaxation:
    one = np.ones(dim)
    zero = np.zeros(dim)
    return one, zero, one.copy(), zero.copy()


def _relu_relaxation(y_box: Box) -> Relaxation:
    """CROWN relaxation of ``relu(y)``: chord above, adaptive slope below."""
    lo, hi = y_box.lo, y_box.hi
    active = lo >= 0.0
    inactive = hi <= 0.0
    denom = np.where(hi - lo > 0.0, hi - lo, 1.0)
    slope = hi / denom
    d_hi = np.where(inactive, 0.0, np.where(active, 1.0, slope))
    b_hi = np.where(inactive | active, 0.0, -slope * lo)
    d_lo = np.where(inactive, 0.0, np.where(active, 1.0,
                                            np.where(hi >= -lo, 1.0, 0.0)))
    b_lo = np.zeros_like(lo)
    return d_lo, b_lo, d_hi, b_hi


def _distance_relaxation(y_box: Box, dy_box: Box) -> Relaxation:
    """Chords of ``max(0, Δy)`` / ``min(0, Δy)``, exact when both copies agree."""
    y_lo, y_hi, lo, hi = y_box.lo, y_box.hi, dy_box.lo, dy_box.hi
    yhat_lo = y_lo + lo
    yhat_hi = y_hi + hi
    both_active = (y_lo >= 0.0) & (yhat_lo >= 0.0)
    both_inactive = (y_hi <= 0.0) & (yhat_hi <= 0.0)

    denom = np.where(hi - lo > 0.0, hi - lo, 1.0)
    up_slope = hi / denom
    lo_slope = -lo / denom
    d_hi = np.where(hi <= 0.0, 0.0, np.where(lo >= 0.0, 1.0, up_slope))
    b_hi = np.where((hi <= 0.0) | (lo >= 0.0), 0.0, -up_slope * lo)
    d_lo = np.where(hi <= 0.0, 1.0, np.where(lo >= 0.0, 0.0, lo_slope))
    b_lo = np.where((hi <= 0.0) | (lo >= 0.0), 0.0, -lo_slope * hi)

    d_lo = np.where(both_active, 1.0, np.where(both_inactive, 0.0, d_lo))
    d_hi = np.where(both_active, 1.0, np.where(both_inactive, 0.0, d_hi))
    b_lo = np.where(both_active | both_inactive, 0.0, b_lo)
    b_hi = np.where(both_active | both_inactive, 0.0, b_hi)
    return d_lo, b_lo, d_hi, b_hi


def _backsubstitute(
    layers: list[AffineLayer],
    t: int,
    box: Box,
    relaxations: list[Relaxation],
    with_bias: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Concrete ``(lo, hi)`` of layer ``t``'s pre-activation (or ``Δy(t)``)."""
    a_lo = layers[t].weight.copy()
    a_hi = layers[t].weight.copy()
    if with_bias:
        c_lo = layers[t].bias.copy()
        c_hi = layers[t].bias.copy()
    else:
        c_lo = np.zeros(layers[t].out_dim)
        c_hi = np.zeros(layers[t].out_dim)

    for k in range(t - 1, -1, -1):
        d_lo, b_lo, d_hi, b_hi = relaxations[k]
        pos, neg = np.maximum(a_lo, 0.0), np.minimum(a_lo, 0.0)
        c_lo = c_lo + pos @ b_lo + neg @ b_hi
        a_lo = pos * d_lo + neg * d_hi
        pos, neg = np.maximum(a_hi, 0.0), np.minimum(a_hi, 0.0)
        c_hi = c_hi + pos @ b_hi + neg @ b_lo
        a_hi = pos * d_hi + neg * d_lo
        if with_bias:
            c_lo = c_lo + a_lo @ layers[k].bias
            c_hi = c_hi + a_hi @ layers[k].bias
        a_lo = a_lo @ layers[k].weight
        a_hi = a_hi @ layers[k].weight

    pos, neg = np.maximum(a_lo, 0.0), np.minimum(a_lo, 0.0)
    lo = pos @ box.lo + neg @ box.hi + c_lo
    pos, neg = np.maximum(a_hi, 0.0), np.minimum(a_hi, 0.0)
    hi = pos @ box.hi + neg @ box.lo + c_hi
    return lo, hi


def symbolic_propagate(
    layers: list[AffineLayer],
    input_box: Box,
    delta: float | Box | None = None,
) -> LayerBounds:
    """The ``"symbolic"`` engine's bounds for one query.

    Backsubstitution per layer, intersected tightest-wins with twin IBP.
    """
    ibp = ibp_propagate(layers, input_box, delta)

    y_boxes: list[Box] = []
    x_boxes: list[Box] = []
    value_relax: list[Relaxation] = []
    for t, layer in enumerate(layers):
        lo, hi = _backsubstitute(layers, t, input_box, value_relax, with_bias=True)
        y_box = Box(lo, hi).intersect(ibp.y[t])
        y_boxes.append(y_box)
        if layer.relu:
            x_boxes.append(y_box.relu())
            value_relax.append(_relu_relaxation(y_box))
        else:
            x_boxes.append(Box(y_box.lo.copy(), y_box.hi.copy()))
            value_relax.append(_identity_relaxation(layer.out_dim))

    if delta is None:
        return LayerBounds(
            input_box=input_box, y=y_boxes, x=x_boxes, method="symbolic"
        )

    assert ibp.dy is not None and ibp.dx is not None
    delta_box = as_delta_box(delta, input_box.dim)
    dy_boxes: list[Box] = []
    dx_boxes: list[Box] = []
    dist_relax: list[Relaxation] = []
    for t, layer in enumerate(layers):
        lo, hi = _backsubstitute(layers, t, delta_box, dist_relax, with_bias=False)
        dy_box = Box(lo, hi).intersect(ibp.dy[t])
        dy_boxes.append(dy_box)
        if layer.relu:
            dx_box = relu_distance_interval(y_boxes[t], dy_box)
            dist_relax.append(_distance_relaxation(y_boxes[t], dy_box))
        else:
            dx_box = Box(dy_box.lo.copy(), dy_box.hi.copy())
            dist_relax.append(_identity_relaxation(layer.out_dim))
        dx_boxes.append(dx_box.intersect(ibp.dx[t]))

    return LayerBounds(
        input_box=input_box,
        y=y_boxes,
        x=x_boxes,
        delta_box=delta_box,
        dy=dy_boxes,
        dx=dx_boxes,
        method="symbolic",
    )


def reference_propagate(
    name: str,
    layers: list[AffineLayer],
    input_box: Box,
    delta: float | Box | None = None,
) -> LayerBounds:
    """Reference bounds of the built-in engine registered as ``name``."""
    if name == "symbolic":
        return symbolic_propagate(layers, input_box, delta)
    return ibp_propagate(layers, input_box, delta, method=name)
