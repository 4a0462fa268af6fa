"""A dense two-phase primal simplex LP solver in pure numpy.

This exists so that the repository is self-contained: the branch-and-bound
MILP solver (:mod:`repro.milp.branch_bound`) can run entirely without
scipy's HiGHS if asked to.  It is a compact dense-tableau implementation
only intended for the small LPs that appear in tests and in sub-network
certification of tiny networks.  The default pipeline uses HiGHS.

Pivoting uses vectorized **Dantzig pricing** (most-negative reduced
cost) with a vectorized ratio test; after a streak of degenerate pivots
it falls back to **Bland's rule** (first negative column, smallest basis
index on ties) until progress resumes, which restores the anti-cycling
guarantee Dantzig alone lacks.  ``pricing="bland"`` forces the old
always-Bland behaviour — kept for the iteration-count benchmark tests.

The entry point :func:`solve_lp` accepts the same standard form exported
by :meth:`repro.milp.model.Model.to_standard_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.milp.solution import SolveStatus

_BIG = 1e15

#: Largest phase-1 residual (sum of artificials) still taken as feasible.
_FEAS_TOL = 1e-7

#: Consecutive degenerate (zero-step) Dantzig pivots tolerated before
#: switching to Bland's rule; a non-degenerate pivot switches back.
_DEGENERATE_STREAK = 12


@dataclass
class LpResult:
    """Raw LP outcome of the simplex routine (minimization sense).

    ``basis`` (when set) is the final basic column set in the solver's
    internal standard-form column space; :meth:`PreparedLp.solve` accepts
    it back as a warm-start hint for a structurally identical re-solve.
    """

    status: SolveStatus
    objective: float
    x: np.ndarray
    iterations: int = 0
    basis: list[int] | None = None


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: list[tuple[float, float]],
    max_iter: int = 20000,
    tol: float = 1e-9,
    pricing: str = "dantzig",
) -> LpResult:
    """Minimize ``c @ x`` subject to inequality/equality rows and bounds.

    The general-bound problem is reduced to standard form
    ``min c'z s.t. Az = b, z >= 0`` by shifting finite lower bounds,
    splitting free variables, and turning finite upper bounds into rows.

    ``a_ub``/``a_eq`` may be dense arrays or scipy sparse matrices (the
    representation :meth:`Model.to_standard_form(sparse=True)` exports);
    sparse input is densified on entry since the tableau is dense anyway.

    Args:
        pricing: ``"dantzig"`` (default; most-negative reduced cost with
            Bland fallback after a degenerate streak) or ``"bland"``
            (always Bland — slower, used as the pricing baseline).

    Returns:
        An :class:`LpResult`; ``x`` has the caller's variable order and
        ``iterations`` counts the simplex pivots across both phases.
    """
    if pricing not in ("dantzig", "bland"):
        raise ValueError(f"unknown pricing rule {pricing!r}")
    # Accept either matrix representation without importing scipy.
    if hasattr(a_ub, "toarray"):
        a_ub = a_ub.toarray()
    if hasattr(a_eq, "toarray"):
        a_eq = a_eq.toarray()
    n = len(bounds)
    c = np.asarray(c, dtype=float)

    # Column mapping: each original var becomes either one shifted column
    # (finite lb) or a pair of columns (free).  ``colmap[j]`` is
    # (kind, col, shift) with kind in {"shift", "split"}.
    colmap: list[tuple[str, int, float]] = []
    num_cols = 0
    extra_ub_rows: list[tuple[int, float]] = []  # (var index, ub value)
    for j, (lb, ub) in enumerate(bounds):
        lb = -math.inf if lb is None else lb
        ub = math.inf if ub is None else ub
        if lb > ub:
            return LpResult(SolveStatus.INFEASIBLE, math.nan, np.empty(0))
        if math.isfinite(lb):
            colmap.append(("shift", num_cols, lb))
            num_cols += 1
        else:
            colmap.append(("split", num_cols, 0.0))
            num_cols += 2
        if math.isfinite(ub):
            extra_ub_rows.append((j, ub))

    def expand_row(row: np.ndarray) -> tuple[np.ndarray, float]:
        """Rewrite a row over original vars into standard-form columns.

        Returns the expanded row and the constant produced by lower-bound
        shifts (to be subtracted from the RHS).
        """
        out = np.zeros(num_cols)
        shift_const = 0.0
        for j, coef in enumerate(row):
            # repro-lint: ignore[RPR001] — structural sparsity skip: exactly-zero entries have no column image; tolerating near-zeros would drop real (if tiny) coefficients
            if coef == 0.0:
                continue
            kind, col, lb = colmap[j]
            if kind == "shift":
                out[col] = coef
                shift_const += coef * lb
            else:
                out[col] = coef
                out[col + 1] = -coef
        return out, shift_const

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    row_kinds: list[str] = []  # "le" or "eq"
    for i in range(a_ub.shape[0]):
        row, shift = expand_row(a_ub[i])
        rows.append(row)
        rhs.append(b_ub[i] - shift)
        row_kinds.append("le")
    for i in range(a_eq.shape[0]):
        row, shift = expand_row(a_eq[i])
        rows.append(row)
        rhs.append(b_eq[i] - shift)
        row_kinds.append("eq")
    for j, ub in extra_ub_rows:
        unit = np.zeros(n)
        unit[j] = 1.0
        row, shift = expand_row(unit)
        rows.append(row)
        rhs.append(ub - shift)
        row_kinds.append("le")

    c_std, c_shift = expand_row(c)

    m = len(rows)
    if m == 0:
        # Bound-only problem: optimum sits at a bound determined by sign.
        x = np.zeros(n)
        for j, (lb, ub) in enumerate(bounds):
            lb = -math.inf if lb is None else lb
            ub = math.inf if ub is None else ub
            if c[j] > 0:
                if not math.isfinite(lb):
                    return LpResult(SolveStatus.UNBOUNDED, -math.inf, np.empty(0))
                x[j] = lb
            elif c[j] < 0:
                if not math.isfinite(ub):
                    return LpResult(SolveStatus.UNBOUNDED, -math.inf, np.empty(0))
                x[j] = ub
            else:
                x[j] = lb if math.isfinite(lb) else (ub if math.isfinite(ub) else 0.0)
        return LpResult(SolveStatus.OPTIMAL, float(c @ x), x)

    a = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)

    # Add slacks for "le" rows.
    num_slacks = sum(1 for k in row_kinds if k == "le")
    a_full = np.hstack([a, np.zeros((m, num_slacks))])
    slack_col = num_cols
    for i, kind in enumerate(row_kinds):
        if kind == "le":
            a_full[i, slack_col] = 1.0
            slack_col += 1

    # Normalize to b >= 0 so phase-1 artificials start feasible.
    for i in range(m):
        if b[i] < 0:
            a_full[i] *= -1.0
            b[i] *= -1.0

    total_cols = a_full.shape[1]
    status, basis, tableau, iters1 = _phase1(a_full, b, max_iter, tol, pricing)
    if status is not SolveStatus.OPTIMAL:
        return LpResult(status, math.nan, np.empty(0), iterations=iters1)

    c_full = np.zeros(total_cols)
    c_full[: len(c_std)] = c_std
    status, basis, tableau, iters2 = _phase2(
        tableau, basis, c_full, total_cols, max_iter, tol, pricing
    )
    iterations = iters1 + iters2
    if status is not SolveStatus.OPTIMAL:
        return LpResult(
            status,
            math.nan if status is not SolveStatus.UNBOUNDED else -math.inf,
            np.empty(0),
            iterations=iterations,
        )

    z = np.zeros(total_cols)
    for row_idx, col in enumerate(basis):
        if col < total_cols:
            z[col] = tableau[row_idx, -1]

    # Map standard-form columns back to original variables.
    x = np.zeros(n)
    for j in range(n):
        kind, col, lb = colmap[j]
        if kind == "shift":
            x[j] = z[col] + lb
        else:
            x[j] = z[col] - z[col + 1]
    objective = float(c @ x)
    return LpResult(SolveStatus.OPTIMAL, objective, x, iterations=iterations)


def _phase1(
    a: np.ndarray, b: np.ndarray, max_iter: int, tol: float, pricing: str
) -> tuple[SolveStatus, list[int], np.ndarray, int]:
    """Find an initial basic feasible solution with artificial variables."""
    m, cols = a.shape
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(cols, cols + m))
    # Phase-1 objective: sum of artificials -> reduced-cost row.
    obj = np.zeros(cols + m + 1)
    obj[cols : cols + m] = 1.0
    for i in range(m):
        obj -= tableau[i]
    status, iters = _iterate(tableau, basis, obj, cols + m, max_iter, tol, pricing)
    if status is not SolveStatus.OPTIMAL:
        return status, basis, tableau, iters
    if -obj[-1] > _FEAS_TOL:
        return SolveStatus.INFEASIBLE, basis, tableau, iters
    # Pivot artificials out of the basis where possible.  Pivoting out an
    # artificial at value v on entry p moves every row by (column) * v / p,
    # so a column is only taken if it leaves no row below both -_FEAS_TOL
    # and its old value.  A nonzero residual v that no column can absorb
    # that way is real infeasibility, small only in the scale of a row of
    # tiny coefficients, so it is reported as such.
    for row_idx, col in enumerate(basis):
        if col < cols:
            continue
        rhs = tableau[:, -1]
        candidates = [j for j in range(cols) if abs(tableau[row_idx, j]) > tol]
        if not candidates:
            continue
        for j in candidates:
            step = rhs[row_idx] / tableau[row_idx, j]
            moved = rhs - tableau[:, j] * step
            moved[row_idx] = step
            if np.all((moved >= -_FEAS_TOL) | (moved >= rhs)):
                _pivot(tableau, obj, basis, row_idx, j)
                break
        else:
            return SolveStatus.INFEASIBLE, basis, tableau, iters
    keep = list(range(cols)) + [tableau.shape[1] - 1]
    tableau = tableau[:, keep]
    return SolveStatus.OPTIMAL, basis, tableau, iters


def _phase2(
    tableau: np.ndarray,
    basis: list[int],
    c_full: np.ndarray,
    cols: int,
    max_iter: int,
    tol: float,
    pricing: str,
) -> tuple[SolveStatus, list[int], np.ndarray, int]:
    """Optimize the true objective from the phase-1 basis."""
    m = tableau.shape[0]
    obj = np.zeros(cols + 1)
    obj[:cols] = c_full
    for i in range(m):
        col = basis[i]
        if col < cols and abs(obj[col]) > 0:
            obj -= obj[col] * tableau[i]
    status, iters = _iterate(tableau, basis, obj, cols, max_iter, tol, pricing)
    return status, basis, tableau, iters


def _iterate(
    tableau: np.ndarray,
    basis: list[int],
    obj: np.ndarray,
    cols: int,
    max_iter: int,
    tol: float,
    pricing: str = "dantzig",
) -> tuple[SolveStatus, int]:
    """Primal simplex iterations (shared by phases); returns pivot count.

    Entering column: vectorized Dantzig pricing (most-negative reduced
    cost), falling back to Bland's first-negative rule after
    :data:`_DEGENERATE_STREAK` consecutive zero-step pivots (and back to
    Dantzig once a pivot makes progress).  Leaving row: vectorized ratio
    test, smallest basis index among the minimal ratios (Bland's
    tie-break, which the fallback needs for its anti-cycling guarantee).
    """
    m = tableau.shape[0]
    degenerate_streak = 0
    for iteration in range(max_iter):
        reduced = obj[:cols]
        use_bland = pricing == "bland" or degenerate_streak >= _DEGENERATE_STREAK
        if use_bland:
            negative = np.flatnonzero(reduced < -tol)
            if negative.size == 0:
                return SolveStatus.OPTIMAL, iteration
            entering = int(negative[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -tol:
                return SolveStatus.OPTIMAL, iteration
        column = tableau[:, entering]
        eligible = column > tol
        if not eligible.any():
            return SolveStatus.UNBOUNDED, iteration
        ratios = np.full(m, math.inf)
        # A basic value that rounding (or a column entry below ``tol``)
        # left slightly negative is a degenerate (zero) step, not a
        # backward one: a negative value over a small pivot would push
        # the entering column far out.  The leaving row is snapped to 0
        # below for the same reason.
        values = np.maximum(tableau[eligible, -1], 0.0)
        ratios[eligible] = values / column[eligible]
        min_ratio = float(ratios.min())
        # A tied row must also be a step no row can go below -tol on:
        # with a large column entry, a ratio only ``tol`` above the
        # minimum would drive the minimum's row far negative.
        max_step = float(((values + tol) / column[eligible]).min())
        ties = np.flatnonzero(
            (ratios <= min_ratio + tol) & (ratios <= max_step)
        )
        leaving_row = int(ties[np.argmin(np.asarray(basis)[ties])])
        degenerate_streak = 0 if min_ratio > tol else degenerate_streak + 1
        if tableau[leaving_row, -1] < 0.0:
            tableau[leaving_row, -1] = 0.0
        _pivot(tableau, obj, basis, leaving_row, entering)
    return SolveStatus.ITERATION_LIMIT, max_iter


def _pivot(
    tableau: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    row: int,
    col: int,
) -> None:
    """Pivot the tableau (and objective row) on (row, col)."""
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0:
            tableau[i] -= tableau[i, col] * tableau[row]
    if abs(obj[col]) > 0:
        obj -= obj[col] * tableau[row]
    basis[row] = col


def _dual_iterate(
    tableau: np.ndarray,
    basis: list[int],
    obj: np.ndarray,
    cols: int,
    max_iter: int,
    tol: float,
) -> tuple[SolveStatus, int]:
    """Dual simplex: restore primal feasibility from a dual-feasible basis.

    Precondition: the reduced-cost row ``obj`` is non-negative (dual
    feasible) while some basic values ``tableau[:, -1]`` are negative.
    Leaving row: most-negative basic value; entering column: the dual
    ratio test ``min obj_j / -a_rj`` over ``a_rj < 0`` (smallest column
    index on ties), which keeps the reduced costs non-negative.  When no
    entering column exists the row proves infeasibility.
    """
    for iteration in range(max_iter):
        rhs = tableau[:, -1]
        leaving_row = int(np.argmin(rhs))
        if rhs[leaving_row] >= -tol:
            return SolveStatus.OPTIMAL, iteration
        row = tableau[leaving_row, :cols]
        eligible = row < -tol
        if not eligible.any():
            return SolveStatus.INFEASIBLE, iteration
        ratios = np.full(cols, math.inf)
        ratios[eligible] = obj[:cols][eligible] / -row[eligible]
        ties = np.flatnonzero(ratios <= float(ratios.min()) + tol)
        _pivot(tableau, obj, basis, leaving_row, int(ties[0]))
    return SolveStatus.ITERATION_LIMIT, max_iter


class PreparedLp:
    """A standard-form LP with *fixed structure*, built once, solved many.

    :func:`solve_lp` re-derives the column mapping, slack layout and
    expanded matrix on every call; ``PreparedLp`` captures them once so
    an incremental caller (a :class:`~repro.milp.session.SolverSession`,
    or warm-started branch-and-bound nodes) pays only a right-hand-side
    refresh per solve.  On top of the cached structure it supports
    **warm starts**: :meth:`solve` accepts the ``basis`` of a previous
    solve and re-enters phase 2 directly when the basis is still primal
    feasible, or runs the dual simplex when only dual feasibility
    survives (the bound-tightening case: the matrix is unchanged, so a
    parent-optimal basis stays dual feasible for any child).

    The structure is *bound-finiteness* dependent (finite lower bounds
    shift, free variables split, finite upper bounds become rows), so a
    solve whose bound pattern differs from the prepared one returns
    ``None`` and the caller must fall back to a cold :func:`solve_lp`.
    """

    def __init__(
        self,
        a_ub: object,
        b_ub: np.ndarray,
        a_eq: object,
        b_eq: np.ndarray,
        bounds: list[tuple[float, float]],
    ) -> None:
        if hasattr(a_ub, "toarray"):
            a_ub = a_ub.toarray()
        if hasattr(a_eq, "toarray"):
            a_eq = a_eq.toarray()
        self.n = len(bounds)
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, self.n)
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, self.n)
        lo = np.array(
            [-math.inf if b[0] is None else float(b[0]) for b in bounds]
        )
        hi = np.array(
            [math.inf if b[1] is None else float(b[1]) for b in bounds]
        )
        self._lb_finite = np.isfinite(lo)
        self._ub_finite = np.isfinite(hi)
        # Column layout: one shifted column per finite-lb var, a +/- pair
        # per free var (same layout solve_lp derives per call).
        width = np.where(self._lb_finite, 1, 2)
        self._col_of = np.concatenate(([0], np.cumsum(width)[:-1])).astype(int)
        self.num_var_cols = int(width.sum())
        self._ub_row_vars = np.flatnonzero(self._ub_finite)

        unit = np.zeros((self._ub_row_vars.size, self.n))
        unit[np.arange(self._ub_row_vars.size), self._ub_row_vars] = 1.0
        # Original-variable-space rows: ub rows, eq rows, bound rows.
        self._a_orig = np.vstack([a_ub, a_eq, unit])
        self._m_ub = int(a_ub.shape[0])
        self._m_eq = int(a_eq.shape[0])
        self._b_const = np.concatenate(
            [
                np.asarray(b_ub, dtype=float),
                np.asarray(b_eq, dtype=float),
                np.zeros(self._ub_row_vars.size),  # rhs is hi[j] per solve
            ]
        )
        self._row_is_le = np.concatenate(
            [
                np.ones(self._m_ub, dtype=bool),
                np.zeros(self._m_eq, dtype=bool),
                np.ones(self._ub_row_vars.size, dtype=bool),
            ]
        )
        self._rebuild_full()

    # -- structure -------------------------------------------------------

    @property
    def m(self) -> int:
        """Total row count (ub + eq + bound rows + appended rows)."""
        return int(self._a_orig.shape[0])

    def _rebuild_full(self) -> None:
        """(Re)build the expanded matrix with slack columns."""
        a_exp = np.zeros((self.m, self.num_var_cols))
        a_exp[:, self._col_of] = self._a_orig
        split = ~self._lb_finite
        if split.any():
            a_exp[:, self._col_of[split] + 1] = -self._a_orig[:, split]
        le_rows = np.flatnonzero(self._row_is_le)
        slacks = np.zeros((self.m, le_rows.size))
        slacks[le_rows, np.arange(le_rows.size)] = 1.0
        self._a_full = np.hstack([a_exp, slacks])
        self._slack_col_of_row = np.full(self.m, -1, dtype=int)
        self._slack_col_of_row[le_rows] = self.num_var_cols + np.arange(
            le_rows.size
        )
        self.total_cols = self._a_full.shape[1]

    def append_le_rows(self, rows: np.ndarray, rhs: np.ndarray) -> list[int]:
        """Append ``rows @ x <= rhs`` (original variable space) in place.

        New rows get fresh slack columns *after* every existing column,
        so previously returned bases remain valid; extending such a
        basis with the returned slack columns (one per new row, basic in
        its own row) yields a dual-feasible warm start for the grown
        system — the cutting-plane re-entry.

        Returns:
            The new rows' slack column indices, in row order.
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, self.n)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("appended rows/rhs length mismatch")
        self._a_orig = np.vstack([self._a_orig, rows])
        self._b_const = np.concatenate([self._b_const, rhs])
        self._row_is_le = np.concatenate(
            [self._row_is_le, np.ones(rows.shape[0], dtype=bool)]
        )
        self._rebuild_full()
        return [int(self._slack_col_of_row[i]) for i in range(self.m - rows.shape[0], self.m)]

    # -- solving ---------------------------------------------------------

    def solve(
        self,
        c: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        basis: list[int] | None = None,
        max_iter: int = 20000,
        tol: float = 1e-9,
        pricing: str = "dantzig",
    ) -> LpResult | None:
        """Minimize ``c @ x`` under the prepared rows and ``[lo, hi]``.

        Returns ``None`` when the bound-finiteness pattern differs from
        the prepared structure (the caller must cold-solve) — by design
        bound *tightening* never changes the pattern.  With a ``basis``
        the solve warm-starts; without one (or when the basis is stale /
        singular) it runs the usual two phases on the cached structure.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if (
            self.m == 0
            or not np.array_equal(np.isfinite(lo), self._lb_finite)
            or not np.array_equal(np.isfinite(hi), self._ub_finite)
        ):
            return None
        if (lo > hi).any():
            return LpResult(SolveStatus.INFEASIBLE, math.nan, np.empty(0))
        lo_shift = np.where(self._lb_finite, lo, 0.0)
        b = self._b_const.copy()
        b[self._m_ub + self._m_eq : self._m_ub + self._m_eq + self._ub_row_vars.size] = hi[
            self._ub_row_vars
        ]
        b -= self._a_orig @ lo_shift
        c = np.asarray(c, dtype=float)
        c_exp = np.zeros(self.total_cols)
        c_exp[self._col_of] = c
        split = ~self._lb_finite
        if split.any():
            c_exp[self._col_of[split] + 1] = -c[split]

        if basis is not None and len(basis) == self.m and all(
            0 <= col < self.total_cols for col in basis
        ):
            result = self._warm(c_exp, b, list(basis), c, lo, max_iter, tol, pricing)
            if result is not None:
                return result
        return self._cold(c_exp, b, c, lo, max_iter, tol, pricing)

    def _warm(
        self,
        c_exp: np.ndarray,
        b: np.ndarray,
        basis: list[int],
        c: np.ndarray,
        lo: np.ndarray,
        max_iter: int,
        tol: float,
        pricing: str,
    ) -> "LpResult | None":
        """Re-enter from a previous basis; ``None`` -> fall back cold."""
        try:
            tableau = np.linalg.solve(
                self._a_full[:, basis],
                np.hstack([self._a_full, b.reshape(-1, 1)]),
            )
        except np.linalg.LinAlgError:
            return None
        obj = np.zeros(self.total_cols + 1)
        obj[: self.total_cols] = c_exp
        for i, col in enumerate(basis):
            if abs(obj[col]) > 0:
                obj -= obj[col] * tableau[i]
        dual_iters = 0
        if (tableau[:, -1] < -tol).any():
            if (obj[: self.total_cols] < -tol).any():
                return None  # neither primal nor dual feasible
            status, dual_iters = _dual_iterate(
                tableau, basis, obj, self.total_cols, max_iter, tol
            )
            if status is SolveStatus.INFEASIBLE:
                return LpResult(
                    SolveStatus.INFEASIBLE, math.nan, np.empty(0),
                    iterations=dual_iters,
                )
            if status is not SolveStatus.OPTIMAL:
                return None  # dual cycling/limit: retry from scratch
        status, iters = _iterate(
            tableau, basis, obj, self.total_cols, max_iter, tol, pricing
        )
        iterations = dual_iters + iters
        if status is not SolveStatus.OPTIMAL:
            return LpResult(
                status,
                math.nan if status is not SolveStatus.UNBOUNDED else -math.inf,
                np.empty(0),
                iterations=iterations,
            )
        return self._extract(tableau, basis, c, lo, iterations)

    def _cold(
        self,
        c_exp: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        lo: np.ndarray,
        max_iter: int,
        tol: float,
        pricing: str,
    ) -> LpResult:
        """Two-phase solve on the cached structure (no basis hint)."""
        a = self._a_full.copy()
        b = b.copy()
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0
        status, basis, tableau, iters1 = _phase1(a, b, max_iter, tol, pricing)
        if status is not SolveStatus.OPTIMAL:
            return LpResult(status, math.nan, np.empty(0), iterations=iters1)
        c_full = np.zeros(self.total_cols)
        c_full[: c_exp.shape[0]] = c_exp
        status, basis, tableau, iters2 = _phase2(
            tableau, basis, c_full, self.total_cols, max_iter, tol, pricing
        )
        iterations = iters1 + iters2
        if status is not SolveStatus.OPTIMAL:
            return LpResult(
                status,
                math.nan if status is not SolveStatus.UNBOUNDED else -math.inf,
                np.empty(0),
                iterations=iterations,
            )
        return self._extract(tableau, basis, c, lo, iterations)

    def _extract(
        self,
        tableau: np.ndarray,
        basis: list[int],
        c: np.ndarray,
        lo: np.ndarray,
        iterations: int,
    ) -> LpResult:
        """Read the optimum out of a final tableau, in caller space."""
        z = np.zeros(self.total_cols)
        for row_idx, col in enumerate(basis):
            if col < self.total_cols:
                z[col] = tableau[row_idx, -1]
        x = z[self._col_of].copy()
        split = ~self._lb_finite
        if split.any():
            x[split] -= z[self._col_of[split] + 1]
        x[self._lb_finite] += lo[self._lb_finite]
        reusable = all(col < self.total_cols for col in basis)
        return LpResult(
            SolveStatus.OPTIMAL,
            float(c @ x),
            x,
            iterations=iterations,
            basis=list(basis) if reusable else None,
        )
