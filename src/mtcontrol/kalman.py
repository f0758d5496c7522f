"""Autonomous-case controllability matrix and rank-based decisions.

For constant commuting families the block matrix

    G = (G_1 ... G_m),   G_a = ( M_1^k1 M_2^k2 ... M_m^km N_a )

collects all exponent tuples 0 <= k_i <= n-1, blocks ordered by ascending
exponent sum and, within equal sums, lexicographically decreasing tuple.
rank G equals rank C(t0, t) whenever t0 < t componentwise and the gramian
compatibility condition holds; in general only rank C <= rank G is true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CONFIG, NumericConfig, as_point
from .flow import transition
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


def exponent_order(m: int, n: int) -> list[tuple[int, ...]]:
    """All n^m exponent tuples (k_1..k_m), 0 <= k_i <= n-1, in block order:
    ascending total sum, ties broken by lexicographically decreasing tuple."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    tuples = itertools.product(range(n), repeat=m)
    return sorted(tuples, key=lambda ks: (sum(ks), tuple(-k for k in ks)))


@dataclass(frozen=True)
class ControllabilityMatrix:
    value: np.ndarray                                  # n x (m * n^m * k)
    block_index: list[tuple[int, tuple[int, ...]]]     # (alpha, exponents) per block


def controllability_matrix(sys: LinearSystem,
                           cfg: NumericConfig = DEFAULT_CONFIG
                           ) -> ControllabilityMatrix:
    """Assemble G for a constant, commuting system."""
    if not sys.is_constant:
        raise ValueError("the controllability matrix is defined for constant systems")
    require(check_M_commutation(sys, cfg))

    origin = np.zeros(sys.m)
    M = [sys.M[a](origin) for a in range(sys.m)]
    N = [sys.N[a](origin) for a in range(sys.m)]

    # M_a^p by repeated multiplication; exponents stay <= n-1.
    powers = []
    for a in range(sys.m):
        p = [np.eye(sys.n)]
        for _ in range(1, sys.n):
            p.append(p[-1] @ M[a])
        powers.append(p)

    order = exponent_order(sys.m, sys.n)
    blocks = []
    index = []
    for alpha in range(1, sys.m + 1):
        for ks in order:
            prod = np.eye(sys.n)
            for a, k in enumerate(ks):
                if k:
                    prod = prod @ powers[a][k]
            blocks.append(prod @ N[alpha - 1])
            index.append((alpha, ks))
    return ControllabilityMatrix(np.hstack(blocks), index)


def rank_G(G: ControllabilityMatrix, cfg: NumericConfig = DEFAULT_CONFIG) -> int:
    return numerical_rank(G.value, cfg)


@dataclass(frozen=True)
class AutonomousReport:
    """Decision report for a constant system.

    The Im(G)-based verdicts are only guaranteed when the gramian
    compatibility condition holds; when it fails, `warning` is set and the
    gramian/control-space route is the authoritative one (Im G can
    overstate what controls can actually achieve).
    """

    rank_G: int
    transfer_feasible: bool
    transfer_residual: float
    phase_controllable: bool   # x0 in Im(G)
    phase_reachable: bool      # y in Im(G)
    completely_controllable: bool
    completely_reachable: bool
    gramian_condition: ConditionReport
    gramian_decision: TransferDecision | None  # gramian verdict when computable
    warning: str | None


def autonomous_analysis(sys: LinearSystem, t0, x0, t, y,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> AutonomousReport:
    """Full Im(G)-based analysis of a transfer on a constant system,
    cross-checked against the gramian whenever the latter is well defined."""
    if not sys.is_constant:
        raise ValueError("autonomous analysis requires a constant system")
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    y = np.asarray(y, dtype=float).reshape(sys.n)

    G = controllability_matrix(sys, cfg)
    basis = image_basis(G.value, cfg)
    r = basis.rank

    w = x0 - transition(sys, t0, t, cfg) @ y
    feasible, residual = basis.contains(w, cfg.residual_rel_tol)
    controllable, _ = basis.contains(x0, cfg.residual_rel_tol)
    reachable, _ = basis.contains(y, cfg.residual_rel_tol)
    full = r == sys.n

    condition = check_gramian_compat(sys, cfg)
    warning, decision = None, None
    if condition.passed:
        decision = decide_transfer(sys, t0, x0, t, y, cfg)
    else:
        warning = ("gramian compatibility fails (residual "
                   f"{condition.max_residual:.6g}); the rank-G conclusions may "
                   "not hold and the control-space/gramian verdict is "
                   "authoritative")

    return AutonomousReport(r, feasible, residual, controllable, reachable,
                            full, full, condition, decision, warning)


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
