"""Result containers for certification runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GlobalCertificate:
    """Outcome of a global robustness certification.

    The statement certified is Definition 1: for all ``x, x̂`` in the
    input domain with ``‖x̂ − x‖∞ ≤ δ``, each output ``j`` satisfies
    ``|F(x̂)_j − F(x)_j| ≤ epsilons[j]``.

    Attributes:
        delta: Input perturbation bound δ.
        epsilons: Per-output certified variation bounds (ε̄ per output).
        method: Human-readable method tag, e.g. ``"itne-nd-lpr"``
            (``"presolve"`` / ``"split"`` for the ε-targeted tiers).
        exact: Whether the bound is exact (ε) rather than an
            over-approximation (ε̄).  ε-targeted tiers overload this as
            "the verdict is decided": a ``method="split"`` certificate
            has ``exact=True`` iff its verdict is not ``"undecided"``.
        solve_time: Wall-clock seconds.
        lp_count / milp_count: Number of LP / MILP solves performed;
            Algorithm 1's closed-form layers perform none.
        detail: Free-form extra data (per-layer ranges, gaps...); the
            ε-targeted tiers record their ``verdict`` here.
    """

    delta: float
    epsilons: np.ndarray
    method: str
    exact: bool = False
    solve_time: float = 0.0
    lp_count: int = 0
    milp_count: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def epsilon(self) -> float:
        """Worst output variation bound (scalar ε of Problem 1)."""
        return float(np.max(self.epsilons))

    @property
    def verdict(self) -> str | None:
        """Decision of an ε-targeted tier (presolve / split), if any.

        ``"certified"``, ``"refuted"``, ``"undecided"`` (split tier
        interrupted by its deadline), or ``None`` for certificates of
        the bound-computing methods, which have no ε target to decide.
        On ``"refuted"`` the ``epsilons`` are concrete witness *lower*
        bounds; on every other outcome they are sound upper bounds.
        """
        return self.detail.get("verdict")

    def summary(self) -> str:
        """One-line report."""
        kind = "exact" if self.exact else "over-approx"
        return (
            f"[{self.method}] δ={self.delta:g} -> ε={self.epsilon:.6g} "
            f"({kind}, {self.solve_time:.2f}s, "
            f"{self.lp_count} LPs, {self.milp_count} MILPs)"
        )


@dataclass
class LocalCertificate:
    """Outcome of a local robustness certification around one input.

    Attributes:
        center: The input sample x(0).
        delta: Perturbation radius.
        epsilons: Per-output bounds on ``|F(x̂)_j − F(x(0))_j|``.
        output_lo / output_hi: Certified output range of the perturbed
            copy (the quantity Fig. 4's local table reports).
        method: Method tag (``"presolve"`` for bounds-only answers,
            ``"split"`` for the input-splitting branch-and-bound tier).
        exact: Whether bounds are exact.  ε-targeted tiers overload
            this as "the verdict is decided" (see
            :attr:`GlobalCertificate.exact`).
        solve_time: Wall-clock seconds.
        detail: Free-form extra data; the ε-targeted tiers record their
            ``verdict`` (``"certified"``/``"refuted"``/``"undecided"``)
            and bound method here.  On a refuted verdict ``epsilons``
            are attack *lower* bounds, not certified upper bounds.
    """

    center: np.ndarray
    delta: float
    epsilons: np.ndarray
    output_lo: np.ndarray
    output_hi: np.ndarray
    method: str
    exact: bool = False
    solve_time: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def epsilon(self) -> float:
        """Worst-output local robustness bound."""
        return float(np.max(self.epsilons))

    @property
    def verdict(self) -> str | None:
        """Decision of an ε-targeted tier (presolve / split), if any.

        Same semantics as :attr:`GlobalCertificate.verdict`.
        """
        return self.detail.get("verdict")
