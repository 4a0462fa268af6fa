"""Encode one network copy as a MILP (exact or LP-relaxed per neuron).

Pre-activations are model *variables*: each layer appends free variables
``y(i)`` tied to the previous layer by one equality block
``y − W x = b``, emitted as COO triplets straight from the layer's
weight matrix; the per-neuron ReLU rows follow as one block per layer
(see :mod:`repro.encoding.assembly`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.propagator import BoundPropagator, get_propagator
from repro.encoding.assembly import RowBlockBuilder, affine_link_rows
from repro.encoding.bigm import relu_exact_rows
from repro.encoding.relaxation import relu_triangle_rows
from repro.milp import Model, Var
from repro.nn.affine import AffineLayer


@dataclass
class SingleEncoding:
    """Handles into a single-copy encoding.

    Attributes:
        model: The underlying MILP.
        input_vars: Variables for the (flattened) network input.
        y: Per-layer pre-activation variables.
        x: Per-layer post-activation variables (the pre-activation
            variable itself for layers without a ReLU).
        relu_vars: ``{(layer, neuron): (y_index, x_index, z_index|None)}``
            for every encoded ReLU neuron; ``z_index`` is the big-M
            binary indicator's column (``None`` for stable or
            triangle-relaxed neurons, which have no indicator).  This is
            the metadata a :class:`~repro.milp.session.SolverSession`
            needs for ``fix_relu_phase`` — pass it as the session's
            ``relu_info``.
        output: Post-activation handles of the final layer.
    """

    model: Model
    input_vars: list[Var]
    y: list[list[Var]] = field(default_factory=list)
    x: list[list[Var]] = field(default_factory=list)
    relu_vars: dict[tuple[int, int], tuple[int, int, int | None]] = field(
        default_factory=dict
    )

    @property
    def output(self) -> list[Var]:
        """Output-layer handles."""
        return self.x[-1]


def encode_single_network(
    layers: list[AffineLayer],
    input_box: Box,
    relax_mask: list[np.ndarray] | None = None,
    pre_act_bounds: list[Box] | None = None,
    model: Model | None = None,
    prefix: str = "n",
    bounds: str | BoundPropagator = "ibp",
) -> SingleEncoding:
    """Encode ``F(x)`` over ``input_box`` into a MILP.

    Args:
        layers: Normal-form network.
        input_box: Domain of the input variables.
        relax_mask: Optional per-layer boolean arrays; ``True`` relaxes
            that neuron's ReLU with the triangle (Eq. 4) instead of the
            exact big-M encoding.  ``None`` encodes everything exactly.
        pre_act_bounds: Sound per-layer pre-activation boxes; computed by
            the ``bounds`` propagator when omitted.
        model: Existing model to extend (used by the twin encoders).
        prefix: Variable-name prefix.
        bounds: Bound propagator seeding the big-M / relaxation ranges
            (``"ibp"`` or ``"symbolic"``); ignored when explicit
            ``pre_act_bounds`` are given.

    Returns:
        A :class:`SingleEncoding` with variable handles.
    """
    model = model or Model("single")
    if pre_act_bounds is None:
        pre_act_bounds = get_propagator(bounds).propagate(layers, input_box).y

    input_vars = model.add_vars_array(
        input_box.dim, lb=input_box.lo, ub=input_box.hi, prefix=f"{prefix}.x0"
    )
    enc = SingleEncoding(model=model, input_vars=input_vars)

    current: list[Var] = list(input_vars)
    for i, layer in enumerate(layers):
        y_bounds = pre_act_bounds[i]
        mask = None if relax_mask is None else relax_mask[i]
        y_vars = model.add_vars_array(
            layer.out_dim, lb=-math.inf, ub=math.inf, prefix=f"{prefix}.y{i}"
        )
        affine_link_rows(
            model, y_vars, layer.weight, current, layer.bias,
            name=f"{prefix}.l{i}.link",
        )
        if not layer.relu:
            x_handles: list[Var] = list(y_vars)
        else:
            rows = RowBlockBuilder()
            x_handles = []
            for j, y_var in enumerate(y_vars):
                lb, ub = y_bounds.scalar(j)
                tag = f"{prefix}.l{i}n{j}"
                relaxed = mask is not None and bool(mask[j])
                n_before = model.num_vars
                emit = relu_triangle_rows if relaxed else relu_exact_rows
                x_handles.append(emit(model, rows, y_var, lb, ub, name=tag))
                # Unstable big-M neurons create (x, z); everything else
                # creates x only — so the indicator exists iff two vars
                # were appended, and it directly follows x.
                z_index = n_before + 1 if model.num_vars - n_before == 2 else None
                enc.relu_vars[(i, j)] = (y_var.index, x_handles[-1].index, z_index)
            rows.flush(model, name=f"{prefix}.l{i}.relu")
        enc.y.append(list(y_vars))
        enc.x.append(x_handles)
        current = x_handles
    return enc
