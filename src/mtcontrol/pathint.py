"""Curvilinear integrals of matrix one-forms along polyline curves.

Computes sum_alpha integral of P_alpha(gamma(tau)) * dgamma^alpha/dtau
with a fixed-order Gauss-Legendre rule per segment.  Integrands are
smooth by construction (C1 data), so the non-adaptive rule is accurate
at desk scale; raise quad_points_per_segment in NumericConfig if needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (DEFAULT_CONFIG, NumericConfig, PolylineCurve, as_point,
                   curve_segment, staircase)
from .system import MatrixFamily

__all__ = [
    "OneFormFamily",
    "integrate_along",
    "verify_path_independence",
    "PathIndependenceReport",
]


class OneFormFamily:
    """m matrix-valued coefficient functions P_alpha: D -> R^{n x k}.

    Members are either expression-backed (symbolic derivatives available)
    or plain callables closed over other computations, e.g. the gramian
    integrand s -> chi(t0,s) N_a(s) N_a(s)' chi(t0,s)'.
    """

    def __init__(self, members: Sequence[Callable[[np.ndarray], np.ndarray]],
                 shape: tuple[int, int],
                 family: MatrixFamily | None = None):
        self.members = list(members)
        self.m = len(self.members)
        self.shape = shape
        self.family = family  # set when entries are expressions

    @classmethod
    def from_family(cls, family: MatrixFamily) -> "OneFormFamily":
        return cls([mf for mf in family], family.shape, family=family)

    def __call__(self, alpha: int, t: np.ndarray) -> np.ndarray:
        """P_alpha(t) with a 1-based alpha."""
        return np.asarray(self.members[alpha - 1](t), dtype=float)


def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(max(order, 2))
    # map from [-1, 1] to [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


def integrate_along(P: OneFormFamily, curve: PolylineCurve,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gauss-Legendre approximation of the curvilinear integral along `curve`.

    Segment contributions are accumulated in segment order, which keeps the
    result deterministic.
    """
    nodes, weights = _gauss_nodes(cfg.quad_points_per_segment)
    total = np.zeros(P.shape)
    S = curve.segment_count
    for i in range(S):
        a, b = curve.waypoints[i], curve.waypoints[i + 1]
        delta = b - a  # dgamma/dtau on this segment is S * delta
        if not np.any(delta):
            continue
        seg = np.zeros(P.shape)
        for x, w in zip(nodes, weights):
            point = (1.0 - x) * a + x * b
            for alpha in range(1, P.m + 1):
                if delta[alpha - 1] != 0.0:
                    seg += w * delta[alpha - 1] * P(alpha, point)
        total += seg
    return total


@dataclass(frozen=True)
class PathIndependenceReport:
    passed: bool
    discrepancy: float
    mixed_partial_residual: float | None  # None when P has no expression form


def verify_path_independence(P: OneFormFamily, t0, t,
                             cfg: NumericConfig = DEFAULT_CONFIG,
                             sample_points: np.ndarray | None = None
                             ) -> PathIndependenceReport:
    """Two-path certificate plus, when available, the symmetry of mixed
    partials dP_a/dt^b = dP_b/dt^a on a sample set.

    The comparison path is the axis-ordered staircase: maximal geometric
    contrast with the straight segment while staying inside the convex box.
    """
    t0 = as_point(t0)
    t = as_point(t, m=t0.size)
    if np.array_equal(t0, t):
        raise ValueError("path-independence certificate needs t0 != t")

    via_segment = integrate_along(P, curve_segment(t0, t), cfg)
    via_staircase = integrate_along(P, staircase(t0, t), cfg)
    discrepancy = float(np.linalg.norm(via_segment - via_staircase))
    scale = float(max(np.linalg.norm(via_segment), np.linalg.norm(via_staircase)))
    passed = discrepancy <= cfg.residual_rel_tol * (1.0 + scale)

    mixed = None
    if P.family is not None:
        mixed = 0.0
        if sample_points is None:
            lo = np.minimum(t0, t)
            hi = np.maximum(t0, t)
            axes = [np.linspace(a, b, cfg.grid_samples_per_axis)
                    for a, b in zip(lo, hi)]
            mesh = np.meshgrid(*axes, indexing="ij")
            sample_points = np.stack([g.ravel() for g in mesh], axis=-1)
        mixed_scale = 0.0
        for point in sample_points:
            for a in range(1, P.m + 1):
                for b in range(a + 1, P.m + 1):
                    da = P.family[a - 1].diff(b)(point)
                    db = P.family[b - 1].diff(a)(point)
                    mixed = max(mixed, float(np.linalg.norm(da - db)))
                    mixed_scale = max(mixed_scale,
                                      np.linalg.norm(da), np.linalg.norm(db))
        passed = passed and mixed <= cfg.residual_rel_tol * (1.0 + mixed_scale)

    return PathIndependenceReport(bool(passed), discrepancy, mixed)
