"""Single-network interval bound propagation (IBP)."""

from __future__ import annotations

from repro.bounds.batched import BatchedBox
from repro.nn.affine import AffineLayer


def propagate_box_batch(
    layers: list[AffineLayer], input_boxes: BatchedBox, collect: bool = False
) -> "BatchedBox | tuple[BatchedBox, list[BatchedBox]]":
    """Propagate a ``(Q, n)`` stack of input boxes through an affine chain.

    The one IBP forward kernel: a single query is the ``Q=1`` stack, and
    row ``q`` of every returned stack does not depend on the batch size
    (see the :mod:`repro.bounds.batched` bit-identity contract).

    Args:
        layers: Normal-form network (see :mod:`repro.nn.affine`).
        input_boxes: Stacked boxes over the flattened input.
        collect: When True, also return per-layer pre-activation stacks.

    Returns:
        The output stack, or ``(output_stack, pre_activation_stacks)``
        when ``collect`` is set.  ``pre_activation_stacks[i]`` bounds
        ``y(i+1)`` in the paper's indexing.
    """
    boxes = input_boxes
    pre_acts: list[BatchedBox] = []
    for layer in layers:
        boxes = boxes.affine(layer.weight, layer.bias)
        if collect:
            pre_acts.append(boxes)
        if layer.relu:
            boxes = boxes.relu()
    if collect:
        return boxes, pre_acts
    return boxes
