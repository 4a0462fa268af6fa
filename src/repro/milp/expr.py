"""Decision variables and affine expressions for the MILP modeling layer.

The expression system is deliberately small: every quantity that appears
in a model is an *affine* expression ``sum_i c_i * x_i + const``.  The
:class:`LinExpr` class stores the coefficients sparsely, keyed by
variable index, which keeps encoding of large twin-network models cheap.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Mapping, Union

from repro.tol import near_zero

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.milp.model import Constraint

Number = Union[int, float]


class VType(enum.Enum):
    """Type of a decision variable."""

    CONTINUOUS = "continuous"
    BINARY = "binary"
    INTEGER = "integer"

    @classmethod
    def coerce(cls, value: "VType | str") -> "VType":
        """Accept either a :class:`VType` or its string name/value."""
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower()
        aliases = {
            "c": cls.CONTINUOUS,
            "cont": cls.CONTINUOUS,
            "continuous": cls.CONTINUOUS,
            "b": cls.BINARY,
            "bin": cls.BINARY,
            "binary": cls.BINARY,
            "i": cls.INTEGER,
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
        }
        try:
            return aliases[key]
        except KeyError as exc:
            raise ValueError(f"unknown variable type: {value!r}") from exc


class Var:
    """A single decision variable owned by a :class:`~repro.milp.model.Model`.

    Variables support the usual arithmetic operators and comparison
    operators, which build :class:`LinExpr` and
    :class:`~repro.milp.model.Constraint` objects respectively.

    Attributes:
        index: Position of the variable in its model's column order.
        name: Human-readable identifier (unique within the model).
        lb: Lower bound (may be ``-inf``).
        ub: Upper bound (may be ``+inf``).
        vtype: Continuous / binary / integer.
    """

    __slots__ = ("index", "name", "lb", "ub", "vtype", "_model_id")

    def __init__(
        self,
        index: int,
        name: str,
        lb: float,
        ub: float,
        vtype: VType,
        model_id: int,
    ) -> None:
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} exceeds ub {ub}")
        self.index = index
        self.name = name
        self.lb = float(lb)
        self.ub = float(ub)
        self.vtype = vtype
        self._model_id = model_id

    # -- arithmetic ------------------------------------------------------

    def to_expr(self) -> "LinExpr":
        """Return this variable as a one-term affine expression."""
        return LinExpr({self.index: 1.0}, 0.0, _vars={self.index: self})

    def __add__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        return self.to_expr() + other

    def __radd__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        return self.to_expr() + other

    def __sub__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        return (-self.to_expr()) + other

    def __mul__(self, coef: Number) -> "LinExpr":
        return self.to_expr() * coef

    def __rmul__(self, coef: Number) -> "LinExpr":
        return self.to_expr() * coef

    def __truediv__(self, denom: Number) -> "LinExpr":
        return self.to_expr() / denom

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    def __pos__(self) -> "LinExpr":
        return self.to_expr()

    # -- comparisons build constraints ----------------------------------

    def __le__(self, other: "Var | LinExpr | Number") -> "Constraint":  # noqa: D105 - builds a Constraint
        return self.to_expr() <= other

    def __ge__(self, other: "Var | LinExpr | Number") -> "Constraint":  # noqa: D105
        return self.to_expr() >= other

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]  # noqa: D105 - builds a Constraint, not a bool
        return self.to_expr() == other

    def __hash__(self) -> int:
        return hash((self._model_id, self.index))

    def __repr__(self) -> str:
        return f"Var({self.name}, [{self.lb}, {self.ub}], {self.vtype.value})"


def as_expr(handle: "Var | LinExpr | Number") -> "LinExpr":
    """Coerce a handle (``Var``, ``LinExpr`` or number) to a :class:`LinExpr`.

    Encoders hand out mixed ``Var``/``LinExpr`` handles (a post-activation
    neuron is a variable, an output distance may be a two-term
    expression); every consumer that builds objectives or constraints
    from them needs this exact coercion.  A ``Var`` is wrapped via
    :meth:`Var.to_expr`, an expression passes through unchanged, and a
    number becomes a constant expression.
    """
    if isinstance(handle, Var):
        return handle.to_expr()
    return LinExpr._as_expr(handle)


class LinExpr:
    """A sparse affine expression ``sum coef[i] * var[i] + constant``.

    Instances are immutable from the caller's perspective: all operators
    return new expressions.  Internal construction reuses dictionaries
    when safe.
    """

    __slots__ = ("coeffs", "constant", "_vars")

    def __init__(
        self,
        coeffs: Mapping[int, float] | None = None,
        constant: float = 0.0,
        _vars: Mapping[int, Var] | None = None,
    ) -> None:
        self.coeffs: dict[int, float] = dict(coeffs or {})
        self.constant = float(constant)
        # Index -> Var mapping so expressions stay self-describing even
        # when combined across helper functions.
        self._vars: dict[int, Var] = dict(_vars or {})

    # -- construction helpers -------------------------------------------

    @classmethod
    def constant_expr(cls, value: Number) -> "LinExpr":
        """An expression with no variables."""
        return cls({}, float(value))

    def copy(self) -> "LinExpr":
        """Return an independent copy of this expression."""
        return LinExpr(dict(self.coeffs), self.constant, _vars=dict(self._vars))

    # -- inspection ------------------------------------------------------

    def variables(self) -> list[Var]:
        """Variables with a non-zero coefficient, in index order."""
        return [self._vars[i] for i in sorted(self.coeffs) if i in self._vars]

    def coefficient(self, var: Var) -> float:
        """Coefficient of ``var`` (0 if absent)."""
        return self.coeffs.get(var.index, 0.0)

    def is_constant(self) -> bool:
        """True when the expression has no (numerically relevant) variable terms.

        Tolerance-aware: coefficients below the repo-wide jitter budget
        (:data:`repro.tol.ATOL`) — e.g. residues of catastrophic
        cancellation in ``a - a`` chains — count as absent.
        """
        return all(near_zero(c) for c in self.coeffs.values())

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _as_expr(other: "Var | LinExpr | Number") -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Var):
            return other.to_expr()
        if isinstance(other, (int, float)):
            if math.isnan(other):
                raise ValueError("NaN is not a valid expression constant")
            return LinExpr.constant_expr(other)
        raise TypeError(f"cannot interpret {other!r} as a linear expression")

    def __add__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        rhs = self._as_expr(other)
        coeffs = dict(self.coeffs)
        vars_map = dict(self._vars)
        for idx, coef in rhs.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + coef
            if idx not in vars_map and idx in rhs._vars:
                vars_map[idx] = rhs._vars[idx]
        return LinExpr(coeffs, self.constant + rhs.constant, _vars=vars_map)

    def __radd__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        return self.__add__(self._as_expr(other) * -1.0)

    def __rsub__(self, other: "Var | LinExpr | Number") -> "LinExpr":
        return (self * -1.0).__add__(other)

    def __mul__(self, coef: Number) -> "LinExpr":
        if not isinstance(coef, (int, float)):
            raise TypeError("expressions may only be scaled by numbers")
        c = float(coef)
        return LinExpr(
            {i: v * c for i, v in self.coeffs.items()},
            self.constant * c,
            _vars=dict(self._vars),
        )

    def __rmul__(self, coef: Number) -> "LinExpr":
        return self.__mul__(coef)

    def __truediv__(self, denom: Number) -> "LinExpr":
        if denom == 0:
            raise ZeroDivisionError("division of expression by zero")
        return self.__mul__(1.0 / float(denom))

    def __neg__(self) -> "LinExpr":
        return self.__mul__(-1.0)

    def __pos__(self) -> "LinExpr":
        return self

    # -- comparison -> Constraint ---------------------------------------

    def __le__(self, other: "Var | LinExpr | Number") -> "Constraint":
        from repro.milp.model import Constraint, Sense

        return Constraint._from_sides(self, self._as_expr(other), Sense.LE)

    def __ge__(self, other: "Var | LinExpr | Number") -> "Constraint":
        from repro.milp.model import Constraint, Sense

        return Constraint._from_sides(self, self._as_expr(other), Sense.GE)

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]  # noqa: D105 - builds a Constraint, not a bool
        from repro.milp.model import Constraint, Sense

        return Constraint._from_sides(self, self._as_expr(other), Sense.EQ)

    def __hash__(self) -> int:  # expressions are not hashable by value
        return id(self)

    # -- evaluation ------------------------------------------------------

    def value(self, assignment: Mapping[int, float]) -> float:
        """Evaluate the expression under ``{var_index: value}``."""
        total = self.constant
        for idx, coef in self.coeffs.items():
            total += coef * assignment[idx]
        return total

    def __repr__(self) -> str:
        parts = []
        for idx in sorted(self.coeffs):
            coef = self.coeffs[idx]
            name = self._vars[idx].name if idx in self._vars else f"x{idx}"
            parts.append(f"{coef:+g}*{name}")
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)
