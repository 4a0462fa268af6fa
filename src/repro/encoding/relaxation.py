"""LP relaxations: the ReLU triangle (Eq. 4) and the distance relation (Eq. 6).

These are the two relaxations that, combined with the interleaving
encoding, remove all integer variables from the certification MILPs.
Both come with *scores* measuring their worst-case inaccuracy — the
quantities Algorithm 1 ranks to pick which neurons to refine.  The
emitters append their rows to a
:class:`~repro.encoding.assembly.RowBlockBuilder`; the encoders flush
one block per layer.
"""

from __future__ import annotations

from repro.encoding.assembly import RowBlockBuilder, handle_terms
from repro.milp import Model, Sense, Var
from repro.milp.expr import LinExpr


def relu_triangle_rows(
    model: Model,
    rows: RowBlockBuilder,
    y: Var | LinExpr,
    lb: float,
    ub: float,
    name: str = "relu",
) -> Var:
    """Encode the triangle relaxation of ``x = max(y, 0)`` (paper Eq. 4).

    For ``lb < 0 < ub`` the feasible set is the triangle

        x ≥ 0,   x ≥ y,   x ≤ ub·(y − lb)/(ub − lb).

    Stable cases degenerate to exact equalities.  The rows are appended
    to ``rows`` for the caller to flush.

    Returns:
        The post-activation variable ``x``.
    """
    if lb > ub:
        raise ValueError(f"invalid ReLU bounds [{lb}, {ub}]")
    if ub <= 0.0:
        return model.add_var(lb=0.0, ub=0.0, name=f"{name}.x")
    y_idx, y_coef, y0 = handle_terms(y)
    if lb >= 0.0:
        x = model.add_var(lb=lb, ub=ub, name=f"{name}.x")
        rows.add([x.index, *y_idx], [1.0, *(-c for c in y_coef)], Sense.EQ, y0)
        return x
    x = model.add_var(lb=0.0, ub=ub, name=f"{name}.x")
    rows.add([x.index, *y_idx], [1.0, *(-c for c in y_coef)], Sense.GE, y0)
    slope = ub / (ub - lb)
    rows.add(
        [x.index, *y_idx],
        [1.0, *(-(slope * c) for c in y_coef)],
        Sense.LE,
        slope * y0 - slope * lb,
    )
    return x


def eq6_bounds(dy_lb: float, dy_ub: float) -> tuple[float, float]:
    """Interval implied by Eq. 6 for ``Δx`` given the ``Δy`` range.

    ``l = min(0, Δy̲)``, ``u = max(0, Δy̅)``; the relaxation's extreme
    values are exactly ``[l, u]``.
    """
    return min(0.0, dy_lb), max(0.0, dy_ub)


def distance_relaxed_rows(
    model: Model,
    rows: RowBlockBuilder,
    dy: Var | LinExpr,
    dy_lb: float,
    dy_ub: float,
    name: str = "dist",
) -> Var:
    """Encode the relaxed ReLU distance relation (paper Eq. 6 / Fig. 3 right).

    Encodes the butterfly hull of ``Δx = relu(y + Δy) − relu(y)`` over
    all ``y ∈ R`` given ``Δy ∈ [Δy̲, Δy̅]``:

        l(u − Δy)/(u − l)  ≤  Δx  ≤  u(Δy − l)/(u − l),

    with ``l = min(0, Δy̲)`` and ``u = max(0, Δy̅)``.  Single-signed
    ranges degenerate to the exact hull ``0 ∧ Δy ≤ Δx ≤ 0 ∨ Δy``, and a
    zero-width range pins ``Δx = 0``.  The rows are appended to ``rows``
    for the caller to flush.

    Returns:
        The distance variable ``Δx``.
    """
    if dy_lb > dy_ub:
        raise ValueError(f"invalid Δy bounds [{dy_lb}, {dy_ub}]")
    l, u = eq6_bounds(dy_lb, dy_ub)
    if u - l <= 0.0:
        return model.add_var(lb=0.0, ub=0.0, name=f"{name}.dx")
    dx = model.add_var(lb=l, ub=u, name=f"{name}.dx")
    d_idx, d_coef, d0 = handle_terms(dy)
    span = u - l
    lo_s = l / span
    hi_s = u / span
    rows.add(
        [dx.index, *d_idx],
        [1.0, *((c * lo_s) for c in d_coef)],
        Sense.GE,
        -(d0 * lo_s) + (l * u) / span,
    )
    rows.add(
        [dx.index, *d_idx],
        [1.0, *(-(c * hi_s) for c in d_coef)],
        Sense.LE,
        d0 * hi_s - (u * l) / span,
    )
    return dx


def couple_triangle_rows(
    rows: RowBlockBuilder,
    x: Var,
    dx: Var,
    y: Var,
    dy: Var,
    lb: float,
    ub: float,
) -> None:
    """Triangle rows on the implicit second copy ``x̂ = x + Δx``.

    The interleaving encoder's second-copy coupling: constrains
    ``x + Δx`` against ``y + Δy`` with the Eq. 4 triangle over the hat
    bounds ``[lb, ub]``.
    """
    if ub <= 0.0:
        rows.add([x.index, dx.index], [1.0, 1.0], Sense.EQ, 0.0)
        return
    hat = [x.index, dx.index, y.index, dy.index]
    if lb >= 0.0:
        rows.add(hat, [1.0, 1.0, -1.0, -1.0], Sense.EQ, 0.0)
        return
    rows.add([x.index, dx.index], [1.0, 1.0], Sense.GE, 0.0)
    rows.add(hat, [1.0, 1.0, -1.0, -1.0], Sense.GE, 0.0)
    slope = ub / (ub - lb)
    rows.add(hat, [1.0, 1.0, -slope, -slope], Sense.LE, -slope * lb)


def eq4_score(lb: float, ub: float) -> float:
    """Worst-case inaccuracy of the triangle relaxation: ``−lb·ub/(ub−lb)``.

    Zero for stable neurons (no relaxation gap).
    """
    if lb >= 0.0 or ub <= 0.0:
        return 0.0
    return -lb * ub / (ub - lb)


def eq6_score(dy_lb: float, dy_ub: float) -> float:
    """Worst-case inaccuracy of the distance relaxation: ``max(|Δy̲|,|Δy̅|)``."""
    return max(abs(dy_lb), abs(dy_ub))
