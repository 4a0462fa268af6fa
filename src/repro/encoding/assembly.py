"""Array-native constraint assembly shared by the network encoders.

Pre-activations are model *variables* tied to the previous layer by one
equality block per layer (``y - W x = b``), emitted as COO triplets
straight out of the layer's weight matrix via :func:`affine_link_rows`;
the small per-neuron ReLU rows are batched through a
:class:`RowBlockBuilder` and flushed as one
:meth:`~repro.milp.model.Model.add_linear_rows` call per layer.  An
encoded network therefore flows from :class:`~repro.nn.affine.AffineLayer`
arrays to the solver's CSR matrices without materializing
per-coefficient dicts anywhere.  This is the encoders' only assembly
path; ``tests/encoding/_reference.py`` builds the same formulation one
constraint at a time as the independent parity reference.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.milp.expr import LinExpr, Var
from repro.milp.model import Model, Sense


def handle_terms(handle: Var | LinExpr) -> tuple[list[int], list[float], float]:
    """Decompose a handle into ``(indices, coefficients, constant)``.

    A ``Var`` is the unit term; a :class:`LinExpr` (e.g. the implicit
    second copy ``y + Δy``) contributes its sparse terms.
    """
    if isinstance(handle, Var):
        return [handle.index], [1.0], 0.0
    return list(handle.coeffs.keys()), list(handle.coeffs.values()), handle.constant


class RowBlockBuilder:
    """Accumulate small constraint rows, flushed as one block call.

    The per-neuron ReLU/relaxation rows have at most a handful of
    coefficients each; appending them one ``add_constr`` at a time would
    re-introduce per-row dict objects.  The builder collects plain
    scalars and emits everything in a single
    :meth:`~repro.milp.model.Model.add_linear_rows` call per layer.
    """

    __slots__ = ("_cols", "_vals", "_counts", "_senses", "_rhs")

    def __init__(self) -> None:
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._counts: list[int] = []
        self._senses: list[Sense] = []
        self._rhs: list[float] = []

    def add(
        self,
        cols: Iterable[int],
        vals: Iterable[float],
        sense: Sense,
        rhs: float,
    ) -> None:
        """Append one row ``sum vals[i]·x[cols[i]]  sense  rhs``."""
        cols = list(cols)
        self._cols.extend(cols)
        self._vals.extend(vals)
        self._counts.append(len(cols))
        self._senses.append(sense)
        self._rhs.append(rhs)

    @property
    def num_rows(self) -> int:
        """Rows accumulated since the last flush."""
        return len(self._counts)

    def flush(self, model: Model, name: str = "") -> None:
        """Emit the accumulated rows into ``model`` and reset."""
        if not self._counts:
            return
        counts = np.asarray(self._counts, dtype=np.int64)
        row = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        model.add_linear_rows(
            (np.asarray(self._vals, dtype=float), (row, np.asarray(self._cols, dtype=np.int64))),
            self._senses,
            np.asarray(self._rhs, dtype=float),
            name=name,
        )
        self._cols, self._vals = [], []
        self._counts, self._senses, self._rhs = [], [], []


def affine_link_rows(
    model: Model,
    out_vars: list[Var],
    weight: np.ndarray,
    in_handles: list[Var | LinExpr],
    bias: np.ndarray,
    name: str = "",
) -> None:
    """Append ``out_j − Σ_k W[j,k]·h_k == bias_j`` as one COO block.

    The weight block lands in the model as numpy triplets.  The input
    handles are usually plain variables (one column gather); mixed
    ``Var``/``LinExpr`` handles — e.g. the refined ITNE distance handles
    ``Δx = x̂ − x`` — are expanded through their sparse terms, exactly
    as dict-based expression arithmetic would.

    Args:
        model: Target model.
        out_vars: The ``len(bias)`` freshly created output variables.
        weight: ``(len(out_vars), len(in_handles))`` matrix; zero
            entries are skipped (as the per-neuron reference encoders
            in the test suite skip them).
        in_handles: Previous-layer handles.
        bias: Right-hand-side vector (handle constants fold into it).
        name: Optional block label.
    """
    weight = np.asarray(weight, dtype=float)
    m_out, m_in = weight.shape
    bias = np.asarray(bias, dtype=float)
    if len(in_handles) != m_in or len(out_vars) != m_out:
        raise ValueError("affine_link_rows: handle/weight shape mismatch")

    if all(isinstance(h, Var) for h in in_handles):
        hcol = np.fromiter((h.index for h in in_handles), dtype=np.int64, count=m_in)
        w_sub = weight
        vals = -weight
        rhs = bias
    else:
        owners: list[int] = []
        hcols: list[int] = []
        hcoefs: list[float] = []
        consts = np.zeros(m_in)
        for k, handle in enumerate(in_handles):
            idx, coef, const = handle_terms(handle)
            owners.extend([k] * len(idx))
            hcols.extend(idx)
            hcoefs.extend(coef)
            consts[k] = const
        hcol = np.asarray(hcols, dtype=np.int64)
        w_sub = weight[:, np.asarray(owners, dtype=np.int64)]
        vals = -w_sub * np.asarray(hcoefs)[None, :]
        rhs = bias + weight @ consts if consts.any() else bias

    # repro-lint: ignore[RPR001] — structural COO sparsity mask: exact zeros carry no information; a tolerance would silently delete small weights from the encoding
    mask = w_sub != 0.0
    rows_w, entries = np.nonzero(mask)
    out_idx = np.fromiter((v.index for v in out_vars), dtype=np.int64, count=m_out)
    data = np.concatenate([np.ones(m_out), vals[mask]])
    rows = np.concatenate([np.arange(m_out, dtype=np.int64), rows_w])
    cols = np.concatenate([out_idx, hcol[entries]])
    model.add_linear_rows((data, (rows, cols)), Sense.EQ, rhs, name=name)

