"""Twin-network interval propagation: value and distance boxes together.

This is the interval-arithmetic analogue of the paper's ITNE: alongside
the value interval of one network copy we track the interval of the
*distance* ``Δ`` between the two copies.  Through an affine layer the
distance transforms without the bias (``Δy = W Δx``); through a ReLU the
exact distance relation of Fig. 3,

    min(0, Δy) ≤ Δx ≤ max(0, Δy),        |Δx| ≤ |Δy|,

combined with what the value intervals of both copies admit, yields a
sound ``Δx`` interval.  These intervals seed the big-M constants of the
MILP encodings and the initial range table of Algorithm 1.
"""

from __future__ import annotations

from typing import TypeVar

import numpy as np

from repro.bounds.batched import BatchedBox, BatchedLayerBounds
from repro.bounds.interval import Box
from repro.nn.affine import AffineLayer

BoxT = TypeVar("BoxT", Box, BatchedBox)


def relu_distance_interval(y_box: BoxT, dy_box: BoxT) -> BoxT:
    """Sound interval for ``Δx = relu(y + Δy) − relu(y)``.

    Intersects two valid enclosures:

    1. The sign/magnitude facts ``min(0, Δy̲) ≤ Δx ≤ max(0, Δy̅)``.
    2. The difference of the (correlated, but soundly treated as
       independent) value enclosures ``relu(ŷ) − relu(y)``.

    Degenerate cases where both copies are certainly active (identity)
    or certainly inactive (zero) are exact.  Every operation is
    element-wise, so the same body serves a :class:`Box` and the rows
    of a :class:`BatchedBox` stack, returning the operands' type.
    """
    cls = type(y_box)
    yhat_box = cls(y_box.lo + dy_box.lo, y_box.hi + dy_box.hi)

    # Certainly-active: Δx = Δy exactly.
    both_active = (y_box.lo >= 0.0) & (yhat_box.lo >= 0.0)
    # Certainly-inactive: Δx = 0 exactly.
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
    return cls(lo, hi)


def propagate_twin_box_batch(
    layers: list[AffineLayer], input_boxes: BatchedBox, deltas: BatchedBox
) -> BatchedLayerBounds:
    """Propagate value and distance stacks through an affine chain at once.

    The one twin-IBP kernel: a single query is the ``Q=1`` stack, and
    row ``q`` of every stack does not depend on the batch size.  The
    perturbation must already be a ``(Q, n)`` stack (use
    :func:`repro.bounds.batched.as_batched_delta`).
    """
    if deltas.num_queries != input_boxes.num_queries:
        raise ValueError(
            f"perturbation stack has {deltas.num_queries} rows for "
            f"{input_boxes.num_queries} queries"
        )
    if deltas.dim != input_boxes.dim:
        raise ValueError("perturbation box dimension mismatch")

    y: list[BatchedBox] = []
    x: list[BatchedBox] = []
    dy: list[BatchedBox] = []
    dx: list[BatchedBox] = []
    x_boxes, d_boxes = input_boxes, deltas
    for layer in layers:
        y_boxes = x_boxes.affine(layer.weight, layer.bias)
        dy_boxes = d_boxes.affine(layer.weight, 0.0)
        y.append(y_boxes)
        dy.append(dy_boxes)
        if layer.relu:
            x_boxes = y_boxes.relu()
            d_boxes = relu_distance_interval(y_boxes, dy_boxes)
        else:
            x_boxes, d_boxes = y_boxes, dy_boxes
        x.append(x_boxes)
        dx.append(d_boxes)
    return BatchedLayerBounds(
        input_box=input_boxes, y=y, x=x, delta_box=deltas, dy=dy, dx=dx
    )
