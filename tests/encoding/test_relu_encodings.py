"""Exactness/soundness of big-M, triangle, distance and coupling encodings."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.encoding import (
    RowBlockBuilder,
    couple_triangle_rows,
    distance_relaxed_rows,
    eq4_score,
    eq6_bounds,
    eq6_score,
    relu_exact_rows,
    relu_triangle_rows,
)
from repro.milp import Model


def emit(emitter, model, handle, lb, ub, **kwargs):
    """Run one row emitter on ``model`` and flush its rows at once."""
    rows = RowBlockBuilder()
    out = emitter(model, rows, handle, lb, ub, **kwargs)
    rows.flush(model)
    return out


class TestBigM:
    @pytest.mark.parametrize("lb,ub", [(-2.0, 3.0), (-1.0, 0.5), (-0.1, 0.1)])
    def test_exactness_unstable(self, lb, ub):
        """max x s.t. y fixed must give exactly relu(y)."""
        for y_val in np.linspace(lb, ub, 7):
            m = Model()
            y = m.add_var(lb=lb, ub=ub)
            m.add_constr(y == float(y_val))
            x = emit(relu_exact_rows, m, y, lb, ub)
            for sense in ("max", "min"):
                m.set_objective(x, sense=sense)
                r = m.solve().require_optimal()
                assert r.objective == pytest.approx(max(y_val, 0.0), abs=1e-7)

    def test_stable_inactive(self):
        m = Model()
        y = m.add_var(lb=-3, ub=-1)
        x = emit(relu_exact_rows, m, y, -3, -1)
        assert (x.lb, x.ub) == (0.0, 0.0)
        assert m.num_binary == 0

    def test_stable_active(self):
        m = Model()
        y = m.add_var(lb=1, ub=2)
        x = emit(relu_exact_rows, m, y, 1, 2)
        m.set_objective(x - y, sense="max")
        assert m.solve().objective == pytest.approx(0.0)
        assert m.num_binary == 0

    def test_invalid_bounds(self):
        m = Model()
        y = m.add_var(lb=0, ub=1)
        with pytest.raises(ValueError):
            emit(relu_exact_rows, m, y, 2.0, 1.0)

    def test_binary_count(self):
        m = Model()
        y = m.add_var(lb=-1, ub=1)
        emit(relu_exact_rows, m, y, -1, 1)
        assert m.num_binary == 1


class TestTriangle:
    def test_contains_relu_graph(self):
        """Every (y, relu(y)) point satisfies the triangle constraints."""
        lb, ub = -2.0, 3.0
        for y_val in np.linspace(lb, ub, 9):
            m = Model()
            y = m.add_var(lb=lb, ub=ub)
            m.add_constr(y == float(y_val))
            x = emit(relu_exact_rows, m, y, lb, ub)  # exact point
            x_rel = emit(relu_triangle_rows, m, y, lb, ub, name="rel")
            m.add_constr(x_rel == max(y_val, 0.0))
            m.set_objective(x, sense="max")
            assert m.solve().is_optimal  # feasible -> graph included

    def test_overapproximates_max(self):
        lb, ub = -1.0, 2.0
        m = Model()
        y = m.add_var(lb=lb, ub=ub)
        x = emit(relu_triangle_rows, m, y, lb, ub)
        m.set_objective(x - y, sense="max")
        relaxed = m.solve().objective
        # Exact max of relu(y)-y is -lb = 1; triangle can only be >= that.
        assert relaxed >= 1.0 - 1e-9

    def test_no_binaries(self):
        m = Model()
        y = m.add_var(lb=-1, ub=1)
        emit(relu_triangle_rows, m, y, -1, 1)
        assert m.num_binary == 0

    def test_upper_chord(self):
        # At y = ub the chord meets relu exactly.
        lb, ub = -1.0, 2.0
        m = Model()
        y = m.add_var(lb=lb, ub=ub)
        m.add_constr(y == ub)
        x = emit(relu_triangle_rows, m, y, lb, ub)
        m.set_objective(x, sense="max")
        assert m.solve().objective == pytest.approx(ub)


class TestDistanceRelaxation:
    @given(st.floats(-2, 0), st.floats(0, 2), st.floats(-5, 5), st.floats(-2, 2))
    # HiGHS presolve rejected this feasible LP (Δx pinned 6e-17 above Δy).
    @example(dy_lo=0.0, dy_hi=1.0, y=1.0, dy=1e-07)
    @settings(max_examples=150, deadline=None)
    def test_contains_true_distance(self, dy_lo, dy_hi, y, dy):
        """Each feasible (Δy, Δx=relu(y+Δy)−relu(y)) satisfies Eq. 6."""
        dy = float(np.clip(dy, dy_lo, dy_hi))
        dx_true = max(y + dy, 0.0) - max(y, 0.0)
        m = Model()
        dy_var = m.add_var(lb=dy_lo, ub=dy_hi)
        m.add_constr(dy_var == dy)
        dx = emit(distance_relaxed_rows, m, dy_var, dy_lo, dy_hi)
        m.add_constr(dx == dx_true)
        m.set_objective(dx, sense="max")
        assert m.solve().is_optimal

    def test_extremes_match_eq6_bounds(self):
        dy_lo, dy_hi = -0.3, 0.2
        l, u = eq6_bounds(dy_lo, dy_hi)
        m = Model()
        dy = m.add_var(lb=dy_lo, ub=dy_hi)
        dx = emit(distance_relaxed_rows, m, dy, dy_lo, dy_hi)
        m.set_objective(dx, sense="max")
        assert m.solve().objective == pytest.approx(u, abs=1e-9)
        m.set_objective(dx, sense="min")
        assert m.solve().objective == pytest.approx(l, abs=1e-9)

    def test_single_signed_exact_hull(self):
        # Δy >= 0 everywhere: 0 <= Δx <= Δy.
        m = Model()
        dy = m.add_var(lb=0.1, ub=0.5)
        dx = emit(distance_relaxed_rows, m, dy, 0.1, 0.5)
        m.set_objective(dx - dy, sense="max")
        assert m.solve().objective == pytest.approx(0.0, abs=1e-9)
        m.set_objective(dx, sense="min")
        assert m.solve().objective == pytest.approx(0.0, abs=1e-9)

    def test_zero_width_pins_zero(self):
        m = Model()
        dy = m.add_var(lb=0.0, ub=0.0)
        dx = emit(distance_relaxed_rows, m, dy, 0.0, 0.0)
        assert (dx.lb, dx.ub) == (0.0, 0.0)

    def test_invalid_bounds(self):
        m = Model()
        dy = m.add_var()
        with pytest.raises(ValueError):
            emit(distance_relaxed_rows, m, dy, 0.5, -0.5)


class TestSecondCopyCoupling:
    @given(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-3, 3), st.floats(0, 1)
    )
    @settings(max_examples=150, deadline=None)
    def test_contains_true_second_copy(self, a, b, y, t):
        """Each true (y, Δy, x=relu(y), Δx) with y+Δy in the hat bounds
        satisfies the Eq. 4 triangle on x̂ = x + Δx."""
        lb, ub = min(a, b), max(a, b)
        dy = lb + t * (ub - lb) - y
        x_true = max(y, 0.0)
        dx_true = max(y + dy, 0.0) - x_true
        m = Model()
        y_var = m.add_var(lb=y, ub=y)
        dy_var = m.add_var(lb=dy, ub=dy)
        x_var = m.add_var(lb=x_true, ub=x_true)
        dx_var = m.add_var(lb=dx_true, ub=dx_true)
        rows = RowBlockBuilder()
        couple_triangle_rows(rows, x_var, dx_var, y_var, dy_var, lb, ub)
        rows.flush(m)
        m.set_objective(dx_var, sense="max")
        assert m.solve().is_optimal


class TestScores:
    def test_eq4_zero_for_stable(self):
        assert eq4_score(0.5, 2.0) == 0.0
        assert eq4_score(-2.0, -0.5) == 0.0

    def test_eq4_positive_unstable(self):
        assert eq4_score(-1.0, 1.0) == pytest.approx(0.5)

    def test_eq4_symmetry(self):
        assert eq4_score(-2.0, 1.0) == eq4_score(-1.0, 2.0)

    def test_eq6_magnitude(self):
        assert eq6_score(-0.3, 0.2) == pytest.approx(0.3)
        assert eq6_score(-0.1, 0.4) == pytest.approx(0.4)
