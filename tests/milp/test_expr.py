"""Unit tests for variables and linear expressions."""

import math

import pytest

from repro.milp import Model, VType
from repro.milp.model import Sense
from tests.encoding._reference import weighted_sum


@pytest.fixture()
def model():
    return Model("t")


class TestVar:
    def test_bounds_and_type(self, model):
        v = model.add_var(lb=-1.0, ub=2.0, name="a")
        assert v.lb == -1.0
        assert v.ub == 2.0
        assert v.vtype is VType.CONTINUOUS

    def test_binary_bounds_clamped(self, model):
        z = model.add_var(lb=-5, ub=5, vtype="binary")
        assert (z.lb, z.ub) == (0.0, 1.0)

    def test_invalid_bounds_rejected(self, model):
        with pytest.raises(ValueError):
            model.add_var(lb=3.0, ub=1.0)

    def test_vtype_aliases(self):
        assert VType.coerce("b") is VType.BINARY
        assert VType.coerce("int") is VType.INTEGER
        assert VType.coerce("C") is VType.CONTINUOUS
        assert VType.coerce(VType.BINARY) is VType.BINARY

    def test_unknown_vtype(self):
        with pytest.raises(ValueError):
            VType.coerce("quantum")

    def test_duplicate_names_disambiguated(self, model):
        a = model.add_var(name="x")
        b = model.add_var(name="x")
        assert a.name != b.name

    def test_auto_names_unique(self, model):
        names = {model.add_var().name for _ in range(10)}
        assert len(names) == 10


class TestLinExpr:
    def test_add_vars(self, model):
        x, y = model.add_vars(2)
        e = x + y
        assert e.coefficient(x) == 1.0
        assert e.coefficient(y) == 1.0
        assert e.constant == 0.0

    def test_scalar_ops(self, model):
        x = model.add_var(name="x")
        e = 3 * x - 1.5
        assert e.coefficient(x) == 3.0
        assert e.constant == -1.5
        e2 = (e + 2 * x) / 2
        assert e2.coefficient(x) == 2.5
        assert e2.constant == -0.75

    def test_rsub(self, model):
        x = model.add_var()
        e = 5 - x
        assert e.constant == 5.0
        assert e.coefficient(x) == -1.0

    def test_neg(self, model):
        x = model.add_var()
        e = -(x + 1)
        assert e.coefficient(x) == -1.0
        assert e.constant == -1.0

    def test_cancellation(self, model):
        x = model.add_var()
        e = (x + 3) - x
        assert e.is_constant()
        assert e.constant == 3.0

    def test_weighted_sum_matches_manual(self, model):
        xs = model.add_vars(4)
        w = [0.5, -1.0, 0.0, 2.0]
        fast = weighted_sum(xs, w, constant=1.0)
        slow = 0.5 * xs[0] - xs[1] + 2 * xs[3] + 1.0
        assert fast.coeffs == slow.coeffs
        assert fast.constant == slow.constant

    def test_weighted_sum_skips_zero(self, model):
        xs = model.add_vars(2)
        e = weighted_sum(xs, [0.0, 1.0])
        assert xs[0].index not in e.coeffs

    def test_value_evaluation(self, model):
        x, y = model.add_vars(2)
        e = 2 * x - y + 0.5
        assert e.value({x.index: 3.0, y.index: 1.0}) == pytest.approx(5.5)

    def test_mul_by_expr_rejected(self, model):
        x, y = model.add_vars(2)
        with pytest.raises(TypeError):
            _ = x.to_expr() * y.to_expr()  # type: ignore[arg-type]

    def test_div_by_zero(self, model):
        x = model.add_var()
        with pytest.raises(ZeroDivisionError):
            _ = x / 0

    def test_nan_constant_rejected(self, model):
        x = model.add_var()
        with pytest.raises(ValueError):
            _ = x + math.nan

    def test_variables_listing(self, model):
        x, y, z = model.add_vars(3)
        e = z + x
        assert [v.index for v in e.variables()] == [x.index, z.index]

    def test_repr_contains_names(self, model):
        x = model.add_var(name="speed")
        assert "speed" in repr(x + 1)


class TestConstraintBuilding:
    def test_le_normalization(self, model):
        x, y = model.add_vars(2)
        con = (2 * x + 1) <= (y + 4)
        assert con.sense is Sense.LE
        assert con.rhs == pytest.approx(3.0)
        assert con.expr.coefficient(x) == 2.0
        assert con.expr.coefficient(y) == -1.0
        assert con.expr.constant == 0.0

    def test_ge_and_eq(self, model):
        x = model.add_var()
        ge = x >= 2
        eq = x == 5
        assert ge.sense is Sense.GE and ge.rhs == 2.0
        assert eq.sense is Sense.EQ and eq.rhs == 5.0

    def test_violation(self, model):
        x = model.add_var()
        con = x <= 1
        assert con.violation({x.index: 0.5}) == 0.0
        assert con.violation({x.index: 2.0}) == pytest.approx(1.0)

    def test_var_comparison_builds_constraint(self, model):
        x, y = model.add_vars(2)
        con = x <= y
        assert con.sense is Sense.LE
        assert con.rhs == 0.0
