"""Exact big-M MILP encoding of a single ReLU relation.

:func:`relu_exact_rows` appends the rows to a
:class:`~repro.encoding.assembly.RowBlockBuilder`; the encoders flush
one block per layer.
"""

from __future__ import annotations

from repro.encoding.assembly import RowBlockBuilder, handle_terms
from repro.milp import Model, Sense, Var
from repro.milp.expr import LinExpr


def relu_exact_rows(
    model: Model,
    rows: RowBlockBuilder,
    y: Var | LinExpr,
    lb: float,
    ub: float,
    name: str = "relu",
) -> Var:
    """Encode ``x = max(y, 0)`` exactly.

    Uses the standard big-M linearization with one binary indicator when
    the pre-activation range straddles zero; the stable-active and
    stable-inactive cases need no binary at all.  Variables are created
    in ``model`` at once; the constraint rows are appended to ``rows``
    for the caller to flush.

    Args:
        model: Target model.
        rows: Row block of the current layer.
        y: Pre-activation variable or affine expression.
        lb: Valid lower bound on ``y`` (must be sound, e.g. from IBP).
        ub: Valid upper bound on ``y``.
        name: Prefix for created variables.

    Returns:
        The post-activation variable ``x``.
    """
    if lb > ub:
        raise ValueError(f"invalid ReLU bounds [{lb}, {ub}]")
    if ub <= 0.0:
        # Stably inactive: x is identically zero.
        return model.add_var(lb=0.0, ub=0.0, name=f"{name}.x")
    y_idx, y_coef, y0 = handle_terms(y)
    neg = [-c for c in y_coef]
    if lb >= 0.0:
        # Stably active: x equals y.
        x = model.add_var(lb=lb, ub=ub, name=f"{name}.x")
        rows.add([x.index, *y_idx], [1.0, *neg], Sense.EQ, y0)
        return x
    x = model.add_var(lb=0.0, ub=ub, name=f"{name}.x")
    z = model.add_var(vtype="binary", name=f"{name}.z")
    # z = 1 -> active phase (x = y >= 0);  z = 0 -> inactive (x = 0, y <= 0).
    rows.add([x.index, *y_idx], [1.0, *neg], Sense.GE, y0)
    rows.add([x.index, *y_idx, z.index], [1.0, *neg, -lb], Sense.LE, y0 - lb)
    rows.add([x.index, z.index], [1.0, -ub], Sense.LE, 0.0)
    return x
