"""Autonomous-case controllability matrix and rank-based decisions.

For constant commuting families the block matrix

    G = (G_1 ... G_m),   G_a = ( M_1^k1 M_2^k2 ... M_m^km N_a )

collects all exponent tuples 0 <= k_i <= n-1, blocks ordered by ascending
exponent sum and, within equal sums, lexicographically decreasing tuple.
rank G equals rank C(t0, t) whenever t0 < t componentwise and the gramian
compatibility condition holds; in general only rank C <= rank G is true.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CONFIG, NumericConfig, as_point
# unused here (the gramian decision carries w), but bench/tracing.py wraps
# and restores this module's `transition` binding, so it stays
from .flow import transition  # noqa: F401
from .gramian import (TransferDecision, controllability_space, decide_transfer,
                      image_basis, numerical_rank)
from .system import (ConditionReport, LinearSystem, check_gramian_compat,
                     check_M_commutation, require)

__all__ = [
    "exponent_order",
    "ControllabilityMatrix",
    "controllability_matrix",
    "rank_G",
    "AutonomousReport",
    "autonomous_analysis",
    "RankComparison",
    "compare_rank",
]


def _exponent_array(m: int, n: int) -> np.ndarray:
    """The n^m exponent tuples as the rows of an (n^m, m) integer array, in
    block order."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    ks = np.indices((n,) * m).reshape(m, -1).T
    # lexsort's last key is the primary one: the sum ascending, then k_1,
    # k_2, ... each descending.
    return ks[np.lexsort(np.vstack([-ks[:, ::-1].T, ks.sum(axis=1)]))]


def exponent_order(m: int, n: int) -> list[tuple[int, ...]]:
    """All n^m exponent tuples (k_1..k_m), 0 <= k_i <= n-1, in block order:
    ascending total sum, ties broken by lexicographically decreasing tuple."""
    return list(map(tuple, _exponent_array(m, n).tolist()))


@dataclass(frozen=True)
class ControllabilityMatrix:
    value: np.ndarray      # n x (m * n^m * k)
    exponents: np.ndarray  # (n^m, m): the exponent tuples in block order

    @property
    def block_table(self) -> np.ndarray:
        """One row (alpha, k_1, ..., k_m) per block of G, left to right:
        alpha = 1..m, each over the exponent tuples in block order."""
        ks = self.exponents
        m = ks.shape[1]
        return np.hstack([np.repeat(np.arange(1, m + 1), len(ks))[:, None],
                          np.tile(ks, (m, 1))])

    @property
    def block_index(self) -> list[tuple[int, tuple[int, ...]]]:
        """(alpha, exponents) per block of G, left to right."""
        return [(a, tuple(ks)) for a, *ks in self.block_table.tolist()]


def controllability_matrix(sys: LinearSystem,
                           cfg: NumericConfig = DEFAULT_CONFIG
                           ) -> ControllabilityMatrix:
    """Assemble G for a constant, commuting system.

    The n^m products are formed with m - 1 broadcast matmuls over the
    stacked powers, in the left-to-right order of the block formula.
    Raises ValueError when an entry overflows."""
    if not sys.is_constant:
        raise ValueError("the controllability matrix is defined for constant systems")
    require(check_M_commutation(sys, cfg))

    m, n = sys.m, sys.n
    origin = np.zeros(m)
    M, N = sys.M(origin), sys.N(origin)                         # (m, n, n), (m, n, k)

    ks = _exponent_array(m, n)
    with np.errstate(over="ignore", invalid="ignore"):
        # powers[a, p] = M_a^p by repeated multiplication; p <= n-1.
        powers = np.empty((m, n, n, n))
        powers[:, 0] = np.eye(n)
        for p in range(1, n):
            powers[:, p] = powers[:, p - 1] @ M
        # All n^m products M_1^k1 ... M_m^km, multiplied left to right, then
        # every N_alpha: blocks[alpha - 1, j] is the block of the j-th tuple.
        prod = powers[0, ks[:, 0]]
        for a in range(1, m):
            prod = prod @ powers[a, ks[:, a]]
        blocks = prod @ N[:, None]                              # (m, n^m, n, k)
    if not np.all(np.isfinite(blocks)):
        raise ValueError("controllability matrix overflowed (non-finite entries)")
    value = np.ascontiguousarray(blocks.transpose(2, 0, 1, 3)).reshape(n, -1)
    return ControllabilityMatrix(value, ks)


def rank_G(G: ControllabilityMatrix, cfg: NumericConfig = DEFAULT_CONFIG) -> int:
    return numerical_rank(G.value, cfg)


@dataclass(frozen=True)
class AutonomousReport:
    """Decision report for a constant system that passes the gramian
    compatibility condition, the one under which the Im(G)-based verdicts
    are guaranteed; `gramian_decision` is the gramian verdict alongside.
    """

    rank_G: int
    transfer_feasible: bool
    transfer_residual: float
    phase_controllable: bool   # x0 in Im(G)
    phase_reachable: bool      # y in Im(G)
    completely_controllable: bool
    completely_reachable: bool
    gramian_condition: ConditionReport
    gramian_decision: TransferDecision


def autonomous_analysis(sys: LinearSystem, t0, x0, t, y,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> AutonomousReport:
    """Full Im(G)-based analysis of a transfer on a constant system,
    cross-checked against the gramian.  Refused (CompatibilityError) before
    G or any chi is computed unless both system gates pass."""
    if not sys.is_constant:
        raise ValueError("autonomous analysis requires a constant system")
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    y = np.asarray(y, dtype=float).reshape(sys.n)
    require(check_M_commutation(sys, cfg))
    condition = require(check_gramian_compat(sys, cfg))

    G = controllability_matrix(sys, cfg)
    basis = image_basis(G.value, cfg)
    decision = decide_transfer(sys, t0, x0, t, y, cfg)
    feasible, residual = basis.contains(decision.w, cfg.residual_rel_tol)
    controllable, _ = basis.contains(x0, cfg.residual_rel_tol)
    reachable, _ = basis.contains(y, cfg.residual_rel_tol)
    full = basis.rank == sys.n
    return AutonomousReport(basis.rank, feasible, residual, controllable, reachable,
                            full, full, condition, decision)


@dataclass(frozen=True)
class RankComparison:
    rank_G: int
    rank_C: int
    equal: bool


def compare_rank(sys: LinearSystem, t0, t,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> RankComparison:
    """rank C(t0, t) versus rank G; equality holds when t0 < t componentwise,
    the inequality rank C <= rank G always."""
    G = controllability_matrix(sys, cfg)
    rg = rank_G(G, cfg)
    rc = controllability_space(sys, t0, t, cfg).rank
    return RankComparison(rg, rc, rg == rc)
