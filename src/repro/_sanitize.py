"""Runtime contract checks — the ``REPRO_SANITIZE=1`` sanitizer mode.

Analogous to compiling with ASan: hook points at soundness-critical
seams re-verify invariants the static analysis cannot prove and the test
suite can only sample.  The mode costs nothing when off — every hook
site guards with ``if _sanitize.ENABLED:`` (a module-attribute bool
check) before touching any array.

Contracts wired in today:

* **bounds containment** — every symbolic box is contained in its IBP
  box after the tightest-wins intersect
  (:mod:`repro.bounds.symbolic`);
* **finite standard forms** — every coefficient/rhs exported by
  :meth:`repro.milp.model.Model.to_standard_form` is finite (variable
  *bounds* may be infinite by design);
* **split-tier tiling** — the terminal subdomains of a non-refuted
  branch-and-bound run exactly tile the root box
  (:mod:`repro.certify.splitting`);
* **warm-start basis validity** — a
  :class:`~repro.milp.session.WarmStartSession` basis re-entering the
  prepared LP indexes real columns, one per row, without duplicates;
* **batched row agreement** — a sampled query row of a batched
  ``propagate_many`` result agrees with that query propagated alone,
  i.e. a row does not depend on the batch size
  (:mod:`repro.bounds.propagator`);
* **twin symmetry** — the solves Algorithm 1 skips would have returned
  what it wrote instead: per layer, the skipped ``min Δy`` of one
  neuron equals ``−max Δy``, and one neuron of a depth-1 sub-network
  matches its LP optimum (:mod:`repro.certify.global_cert`).

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass: a sanitizer failure is a bug in this codebase, never a user
error).  Enable via the environment (``REPRO_SANITIZE=1 pytest ...``)
or per-test with the :func:`sanitizing` context manager.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

import numpy as np


class SanitizerError(AssertionError):
    """A runtime contract was violated while the sanitizer was active."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip() not in {"", "0", "false"}


#: Master switch, read once from ``REPRO_SANITIZE`` at import.  Hook
#: sites check this attribute directly so the off-mode cost is one
#: attribute load and a branch.
ENABLED: bool = _env_enabled()


@contextmanager
def sanitizing(on: bool = True) -> Iterator[None]:
    """Temporarily force the sanitizer on (or off) — for tests."""
    global ENABLED
    previous = ENABLED
    ENABLED = on
    try:
        yield
    finally:
        ENABLED = previous


def _fail(contract: str, message: str) -> None:
    raise SanitizerError(f"sanitizer[{contract}]: {message}")


# -- contracts ---------------------------------------------------------------


def check_containment(
    inner_lo: np.ndarray,
    inner_hi: np.ndarray,
    outer_lo: np.ndarray,
    outer_hi: np.ndarray,
    what: str,
    tol: float = 1e-9,
) -> None:
    """``[inner_lo, inner_hi] ⊆ [outer_lo, outer_hi]`` element-wise.

    Guards the tightest-wins guarantee: an engine claiming containment
    in IBP (so downstream relaxations may shrink) must actually deliver
    it, or every big-M constant seeded from it is unsound.
    """
    below = np.asarray(inner_lo) < np.asarray(outer_lo) - tol
    above = np.asarray(inner_hi) > np.asarray(outer_hi) + tol
    if bool(np.any(below) or np.any(above)):
        bad = np.flatnonzero(below | above)[:5]
        _fail(
            "containment",
            f"{what}: inner box escapes outer box at indices {bad.tolist()}",
        )


def check_finite(what: str, **arrays: Any) -> None:
    """Every value in every named array must be finite.

    Used on exported standard forms: a NaN/inf coefficient silently
    poisons simplex pivoting and HiGHS presolve alike.
    """
    for name, array in arrays.items():
        if array is None:
            continue
        values = np.asarray(array, dtype=float)
        if values.size and not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values).reshape(-1))[:5]
            _fail(
                "finite",
                f"{what}: non-finite entries in {name} at flat indices "
                f"{bad.tolist()}",
            )


def check_tiling(
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    boxes: Iterable[tuple[np.ndarray, np.ndarray]],
    what: str,
    rel_tol: float = 1e-9,
) -> None:
    """Terminal boxes must exactly tile the root box.

    Bisection guarantees (a) every terminal box is contained in the
    root and (b) total volume equals root volume (no gap — a gapped
    tiling under-covers the domain, so a "certified" verdict would be
    unsound).  Widths are measured relative to the root so degenerate
    (zero-width) roots do not divide by zero.
    """
    root_lo = np.asarray(root_lo, dtype=float)
    root_hi = np.asarray(root_hi, dtype=float)
    width = root_hi - root_lo
    scale = np.where(width > 0.0, width, 1.0)
    total = 0.0
    count = 0
    for lo, hi in boxes:
        count += 1
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        tol = rel_tol * scale
        if bool(np.any(lo < root_lo - tol) or np.any(hi > root_hi + tol)):
            _fail(
                "tiling",
                f"{what}: terminal box #{count - 1} escapes the root box",
            )
        # Normalized volume: product of per-dim width fractions (1.0 for
        # degenerate dims), so the full tiling sums to 1.0 exactly.
        frac = np.where(width > 0.0, (hi - lo) / scale, 1.0)
        total += float(np.prod(frac))
    if count == 0:
        _fail("tiling", f"{what}: no terminal boxes recorded")
    if abs(total - 1.0) > 1e-6 * max(1.0, count):
        _fail(
            "tiling",
            f"{what}: terminal boxes cover {total:.9f} of the root volume "
            f"(expected 1.0 over {count} boxes)",
        )


def check_batch_row(
    batched: np.ndarray,
    single: np.ndarray,
    what: str,
    tol: float = 1e-9,
) -> None:
    """A batched propagation row must agree with its single-query run.

    The batched kernels promise per-row results independent of the
    batch size (the :mod:`repro.bounds.batched` bit-identity contract);
    a silent divergence would let a vectorization bug certify with
    bounds nobody ever cross-checked.  Comparison is tolerance-based so
    near-miss third-party engines fail loudly with the offending
    indices rather than on the last ulp.
    """
    left = np.asarray(batched, dtype=float)
    right = np.asarray(single, dtype=float)
    if left.shape != right.shape:
        _fail(
            "batch-row",
            f"{what}: batched row shape {left.shape} != single-query {right.shape}",
        )
    # Exact matches (including ±inf and NaN-vs-NaN) pass outright; the
    # tolerance only applies to genuinely differing finite entries.
    same = (left == right) | (np.isnan(left) & np.isnan(right))
    if bool(np.all(same)):
        return
    diff = np.where(same, 0.0, np.abs(left - right))
    scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
    bad = diff > tol * np.where(np.isfinite(scale), scale, 1.0)
    if bool(np.any(bad)):
        worst = np.flatnonzero(bad.reshape(-1))[:5]
        _fail(
            "batch-row",
            f"{what}: batched row diverges from single-query propagation at "
            f"flat indices {worst.tolist()}",
        )


def check_basis(
    basis: Sequence[int] | None, num_rows: int, num_cols: int, what: str
) -> None:
    """A simplex basis must index one distinct real column per row.

    A stale/corrupt warm-start basis does not fail loudly by itself —
    phase-2 re-entry with a singular basis just pivots from garbage, so
    the session could silently return a non-optimal "optimum".
    """
    if basis is None:
        return
    if len(basis) != num_rows:
        _fail(
            "warm-basis",
            f"{what}: basis has {len(basis)} entries for {num_rows} rows",
        )
    seen: set[int] = set()
    for entry in basis:
        if not 0 <= int(entry) < num_cols:
            _fail(
                "warm-basis",
                f"{what}: basis entry {entry} outside column range "
                f"[0, {num_cols})",
            )
        if int(entry) in seen:
            _fail("warm-basis", f"{what}: duplicate basis column {entry}")
        seen.add(int(entry))


def check_twin_symmetry(
    solved: Sequence[float | None],
    derived: Sequence[float],
    what: str,
    rtol: float = 1e-6,
    atol: float = 1e-9,
) -> None:
    """A skipped solve, run anyway, must agree with the value used instead.

    Algorithm 1 writes some ranges without solving: a depth-1
    sub-network's LP optimum is interval arithmetic, and over the
    swap-symmetric pair set ``min Δy = −max Δy``.  A derived value
    looser than the solve loses tightness; a tighter one is unsound.
    ``None`` (a solve with no usable bound) never agrees.
    """
    left = np.array(solved, dtype=float)
    right = np.asarray(derived, dtype=float)
    scale = np.maximum(np.abs(left), np.abs(right))
    agree = np.abs(left - right) <= atol + rtol * scale
    if not bool(np.all(agree)):
        bad = np.flatnonzero(~agree)[:5]
        _fail(
            "twin-symmetry",
            f"{what}: solved {left[bad].tolist()} but derived "
            f"{right[bad].tolist()}",
        )
