"""Independent per-neuron reference encoders for the assembly parity tests.

The encoding package has one assembly path: every encoder builds its
constraints as array blocks (``affine_link_rows`` for the layer links,
one :class:`~repro.encoding.assembly.RowBlockBuilder` flush per layer
for the ReLU rows).  Comparing those encoders against themselves would
prove nothing, so this module keeps a separate implementation of the
same formulation built one constraint at a time through
:class:`~repro.milp.expr.LinExpr` dict arithmetic:

* the dict emitters — big-M (:func:`encode_relu_exact`), the Eq. 4
  triangle (:func:`encode_relu_triangle`), the Eq. 6 butterfly
  (:func:`encode_distance_relaxed`) and the ITNE second-copy coupling
  (:func:`_couple_triangle`) — plus :func:`row_dot` (over
  :func:`weighted_sum`) for the layer links;
* each encoder's per-neuron loop, as :func:`reference_single`,
  :func:`reference_itne` and :func:`reference_btne`.

A block-built model must match the reference bit for bit: same
variables in the same order, and identical standard forms up to row
order.  Only the model, bound containers and bound seeding come from
``repro``; every constraint here is assembled locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.propagator import get_propagator
from repro.bounds.ranges import RangeTable
from repro.encoding.relaxation import eq6_bounds
from repro.milp import Model
from repro.milp.expr import LinExpr, Var, as_expr
from repro.nn.affine import AffineLayer


# -- dict emitters ---------------------------------------------------------------


def weighted_sum(
    variables: Iterable[Var], weights: Iterable[float], constant: float = 0.0
) -> LinExpr:
    """Build ``sum w_j * v_j + constant`` in one pass.

    Avoids the quadratic blow-up of repeated ``+`` on growing
    expressions.  Exactly-zero weights are dropped.
    """
    coeffs: dict[int, float] = {}
    vars_map: dict[int, Var] = {}
    for var, weight in zip(variables, weights):
        w = float(weight)
        if w == 0.0:
            continue
        idx = var.index
        if idx in coeffs:
            coeffs[idx] += w
        else:
            coeffs[idx] = w
            vars_map[idx] = var
    return LinExpr(coeffs, float(constant), _vars=vars_map)


def row_dot(
    weights: np.ndarray, handles: list[Var | LinExpr], bias: float
) -> LinExpr:
    """Affine combination ``w · handles + bias`` over mixed handles.

    The dict-based counterpart of what ``affine_link_rows`` emits
    array-natively.
    """
    total = LinExpr.constant_expr(bias)
    direct_vars: list[Var] = []
    direct_w: list[float] = []
    for w, h in zip(weights, handles):
        # Exact-zero skip, mirroring the mask in affine_link_rows: both
        # assembly paths must drop exactly the same terms.
        if w == 0.0:
            continue
        if isinstance(h, Var):
            direct_vars.append(h)
            direct_w.append(float(w))
        else:
            total = total + h * float(w)
    if direct_vars:
        total = total + weighted_sum(direct_vars, direct_w)
    return total


def encode_relu_exact(
    model: Model,
    y: Var | LinExpr,
    lb: float,
    ub: float,
    name: str = "relu",
) -> Var:
    """Add ``x = max(y, 0)`` to ``model`` exactly (big-M).

    One binary indicator when the pre-activation range straddles zero;
    the stable cases need none.

    Returns:
        The post-activation variable ``x``.
    """
    if lb > ub:
        raise ValueError(f"invalid ReLU bounds [{lb}, {ub}]")
    y_expr = y.to_expr() if isinstance(y, Var) else y

    if ub <= 0.0:
        # Stably inactive: x is identically zero.
        x = model.add_var(lb=0.0, ub=0.0, name=f"{name}.x")
        return x
    if lb >= 0.0:
        # Stably active: x equals y.
        x = model.add_var(lb=lb, ub=ub, name=f"{name}.x")
        model.add_constr(x == y_expr)
        return x

    x = model.add_var(lb=0.0, ub=ub, name=f"{name}.x")
    z = model.add_var(vtype="binary", name=f"{name}.z")
    # z = 1 -> active phase (x = y >= 0);  z = 0 -> inactive (x = 0, y <= 0).
    model.add_constr(x >= y_expr)
    model.add_constr(x <= y_expr - lb * (1 - z))
    model.add_constr(x <= ub * z)
    return x


def encode_relu_triangle(
    model: Model,
    y: Var | LinExpr,
    lb: float,
    ub: float,
    name: str = "relu",
) -> Var:
    """Add the triangle relaxation of ``x = max(y, 0)`` (paper Eq. 4).

    Returns:
        The post-activation variable ``x``.
    """
    if lb > ub:
        raise ValueError(f"invalid ReLU bounds [{lb}, {ub}]")
    y_expr = y.to_expr() if isinstance(y, Var) else y

    if ub <= 0.0:
        return model.add_var(lb=0.0, ub=0.0, name=f"{name}.x")
    if lb >= 0.0:
        x = model.add_var(lb=lb, ub=ub, name=f"{name}.x")
        model.add_constr(x == y_expr)
        return x

    x = model.add_var(lb=0.0, ub=ub, name=f"{name}.x")
    model.add_constr(x >= y_expr)
    slope = ub / (ub - lb)
    model.add_constr(x <= slope * y_expr - slope * lb)
    return x


def encode_distance_relaxed(
    model: Model,
    dy: Var | LinExpr,
    dy_lb: float,
    dy_ub: float,
    name: str = "dist",
) -> Var:
    """Add the relaxed ReLU distance relation (paper Eq. 6 / Fig. 3 right).

    Returns:
        The distance variable ``Δx``.
    """
    if dy_lb > dy_ub:
        raise ValueError(f"invalid Δy bounds [{dy_lb}, {dy_ub}]")
    dy_expr = dy.to_expr() if isinstance(dy, Var) else dy
    l, u = eq6_bounds(dy_lb, dy_ub)

    if u - l <= 0.0:
        # Δy can only be 0 -> the two copies agree at this neuron.
        return model.add_var(lb=0.0, ub=0.0, name=f"{name}.dx")

    dx = model.add_var(lb=l, ub=u, name=f"{name}.dx")
    span = u - l
    # Lower: dx >= l*(u - dy)/span  <=>  dx - (l/span)*(u - dy) >= 0
    model.add_constr(dx >= (l * u) / span - (l / span) * dy_expr)
    # Upper: dx <= u*(dy - l)/span
    model.add_constr(dx <= (u / span) * dy_expr - (u * l) / span)
    return dx


def _couple_triangle(
    model: Model, xhat: LinExpr, yhat: LinExpr, lb: float, ub: float
) -> None:
    """Triangle constraints on the implicit second copy ``x̂ = x + Δx``."""
    if ub <= 0.0:
        model.add_constr(xhat == 0.0)
        return
    if lb >= 0.0:
        model.add_constr(xhat == yhat)
        return
    model.add_constr(xhat >= 0.0)
    model.add_constr(xhat >= yhat)
    slope = ub / (ub - lb)
    model.add_constr(xhat <= slope * yhat - slope * lb)


# -- per-neuron encoders -----------------------------------------------------------


@dataclass
class ReferenceSingle:
    """Handles into a :func:`reference_single` model."""

    model: Model
    input_vars: list[Var]
    x: list[list[Var]] = field(default_factory=list)

    @property
    def output(self) -> list[Var]:
        return self.x[-1]


@dataclass
class ReferenceTwin:
    """Handles into a :func:`reference_itne` / :func:`reference_btne` model."""

    model: Model
    output: list[Var | LinExpr]
    output_distance: list[Var | LinExpr]


def reference_single(
    layers: list[AffineLayer],
    input_box: Box,
    relax_mask: list[np.ndarray] | None = None,
    pre_act_bounds: list[Box] | None = None,
    model: Model | None = None,
    prefix: str = "n",
    bounds: str = "ibp",
) -> ReferenceSingle:
    """Per-neuron twin of ``encode_single_network`` (same arguments)."""
    model = model or Model("single")
    if pre_act_bounds is None:
        pre_act_bounds = get_propagator(bounds).propagate(layers, input_box).y

    input_vars = model.add_vars_array(
        input_box.dim, lb=input_box.lo, ub=input_box.hi, prefix=f"{prefix}.x0"
    )
    enc = ReferenceSingle(model=model, input_vars=input_vars)

    current: list[Var] = list(input_vars)
    for i, layer in enumerate(layers):
        y_bounds = pre_act_bounds[i]
        mask = None if relax_mask is None else relax_mask[i]
        y_vars = model.add_vars_array(
            layer.out_dim, lb=-math.inf, ub=math.inf, prefix=f"{prefix}.y{i}"
        )
        for j, y_var in enumerate(y_vars):
            model.add_constr(
                y_var == row_dot(layer.weight[j], current, float(layer.bias[j]))
            )

        if not layer.relu:
            x_handles: list[Var] = list(y_vars)
        else:
            x_handles = []
            for j, y_var in enumerate(y_vars):
                lb, ub = y_bounds.scalar(j)
                tag = f"{prefix}.l{i}n{j}"
                relaxed = mask is not None and bool(mask[j])
                build = encode_relu_triangle if relaxed else encode_relu_exact
                x_handles.append(build(model, y_var, lb, ub, name=tag))
        enc.x.append(x_handles)
        current = x_handles
    return enc


def reference_itne(
    layers: list[AffineLayer],
    input_box: Box,
    delta: float | Box,
    ranges: RangeTable | None = None,
    refine_mask: list[np.ndarray] | None = None,
    couple_second_copy: bool = True,
    clip_second_input: bool = True,
    model: Model | None = None,
    prefix: str = "t",
    bounds: str = "ibp",
) -> ReferenceTwin:
    """Per-neuron twin of ``encode_itne`` (same arguments)."""
    model = model or Model("itne")
    if isinstance(delta, Box):
        delta_box = delta
        if delta_box.dim != input_box.dim:
            raise ValueError("perturbation box dimension mismatch")
    else:
        delta_box = Box.uniform(input_box.dim, -float(delta), float(delta))
    if ranges is None:
        ranges = RangeTable.from_interval_propagation(
            layers, input_box, delta_box, propagator=bounds
        )

    input_vars = model.add_vars_array(
        input_box.dim, lb=input_box.lo, ub=input_box.hi, prefix=f"{prefix}.x0"
    )
    input_dist_vars = model.add_vars_array(
        delta_box.dim, lb=delta_box.lo, ub=delta_box.hi, prefix=f"{prefix}.dx0"
    )
    if clip_second_input:
        for k, (x0, d0) in enumerate(zip(input_vars, input_dist_vars)):
            second = x0 + d0
            model.add_constr(second >= float(input_box.lo[k]))
            model.add_constr(second <= float(input_box.hi[k]))

    cur_x: list[Var | LinExpr] = list(input_vars)
    cur_dx: list[Var | LinExpr] = list(input_dist_vars)

    for i, layer in enumerate(layers):
        layer_ranges = ranges.layer(i + 1)
        mask = None if refine_mask is None else refine_mask[i]
        m_i = layer.out_dim
        if layer.relu:
            y_lo, y_hi = layer_ranges.y.lo, layer_ranges.y.hi
            dy_lo, dy_hi = layer_ranges.dy.lo, layer_ranges.dy.hi
        else:
            y_lo = dy_lo = -math.inf
            y_hi = dy_hi = math.inf
        y_vars = model.add_vars_array(m_i, lb=y_lo, ub=y_hi, prefix=f"{prefix}.y{i}")
        dy_vars = model.add_vars_array(
            m_i, lb=dy_lo, ub=dy_hi, prefix=f"{prefix}.dy{i}"
        )
        for j in range(m_i):
            model.add_constr(
                y_vars[j]
                == row_dot(layer.weight[j], cur_x, float(layer.bias[j]))
            )
        for j in range(m_i):
            model.add_constr(
                dy_vars[j] == row_dot(layer.weight[j], cur_dx, 0.0)
            )

        if not layer.relu:
            x_list: list[Var | LinExpr] = list(y_vars)
            dx_list: list[Var | LinExpr] = list(dy_vars)
        else:
            x_list = []
            dx_list = []
            for j in range(m_i):
                y_var, dy_var = y_vars[j], dy_vars[j]
                y_lb, y_ub = layer_ranges.y.scalar(j)
                dy_lb, dy_ub = layer_ranges.dy.scalar(j)
                hat_lb, hat_ub = y_lb + dy_lb, y_ub + dy_ub
                if clip_second_input:
                    second = y_var + dy_var
                    model.add_constr(second >= y_lb)
                    model.add_constr(second <= y_ub)
                    hat_lb, hat_ub = max(y_lb, hat_lb), min(y_ub, hat_ub)
                tag = f"{prefix}.l{i}n{j}"
                refine = True if mask is None else bool(mask[j])
                if refine:
                    x_var = encode_relu_exact(model, y_var, y_lb, y_ub, name=tag)
                    xhat_var = encode_relu_exact(
                        model,
                        y_var + dy_var,
                        hat_lb,
                        hat_ub,
                        name=f"{tag}.hat",
                    )
                    x_list.append(x_var)
                    dx_list.append(as_expr(xhat_var) - as_expr(x_var))
                else:
                    x_var = encode_relu_triangle(
                        model, y_var, y_lb, y_ub, name=tag
                    )
                    dx_var = encode_distance_relaxed(
                        model, dy_var, dy_lb, dy_ub, name=tag
                    )
                    if couple_second_copy:
                        _couple_triangle(
                            model,
                            x_var + dx_var,
                            y_var + dy_var,
                            hat_lb,
                            hat_ub,
                        )
                    x_list.append(x_var)
                    dx_list.append(dx_var)
        cur_x, cur_dx = x_list, dx_list
    return ReferenceTwin(model, cur_x, cur_dx)


def reference_btne(
    layers: list[AffineLayer],
    input_box: Box,
    delta: float | Box,
    relax_mask: list[np.ndarray] | None = None,
    bounds: str = "ibp",
    pre_act_bounds: list[Box] | None = None,
) -> ReferenceTwin:
    """Per-neuron twin of ``encode_btne`` (same arguments)."""
    model = Model("btne")
    if pre_act_bounds is None:
        pre_act_bounds = get_propagator(bounds).propagate(layers, input_box).y
    first = reference_single(
        layers, input_box, relax_mask=relax_mask,
        pre_act_bounds=pre_act_bounds, model=model, prefix="a",
    )
    second = reference_single(
        layers, input_box, relax_mask=relax_mask,
        pre_act_bounds=pre_act_bounds, model=model, prefix="b",
    )

    if isinstance(delta, Box):
        d_lo, d_hi = delta.lo, delta.hi
    else:
        d_lo = np.full(input_box.dim, -float(delta))
        d_hi = np.full(input_box.dim, float(delta))
    for k, (xa, xb) in enumerate(zip(first.input_vars, second.input_vars)):
        diff = xb - xa
        model.add_constr(diff <= float(d_hi[k]))
        model.add_constr(diff >= float(d_lo[k]))

    output_distance: list[Var | LinExpr] = [
        as_expr(xb) - as_expr(xa)
        for xa, xb in zip(first.output, second.output)
    ]
    return ReferenceTwin(model, list(first.output), output_distance)
