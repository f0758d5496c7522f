"""Curvilinear integrals of matrix one-forms along polyline curves.

Computes sum_alpha integral of P_alpha(gamma(tau)) * dgamma^alpha/dtau
with a fixed-order Gauss-Legendre rule per segment.  Integrands are
smooth by construction (C1 data), so the non-adaptive rule is accurate
at desk scale; raise quad_points_per_segment in NumericConfig if needed.
Quadrature is batched: each member is called once per segment, on all of
the segment's Gauss nodes as one (Q, m) array of points.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import DEFAULT_CONFIG, NumericConfig, PolylineCurve

__all__ = ["OneFormFamily", "integrate_along"]


class OneFormFamily:
    """m matrix-valued coefficient functions P_alpha: D -> R^{n x k}.

    Members are callables of a (Q, m) batch of points: `MatrixFunction`s,
    or closures over other computations, e.g. the gramian integrand
    s -> chi(t0,s) N_a(s) N_a(s)' chi(t0,s)'.
    """

    def __init__(self, members: Sequence[Callable[[np.ndarray], np.ndarray]],
                 shape: tuple[int, int]):
        self.members = list(members)
        self.m = len(self.members)
        self.shape = shape

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

    Each member that advances on a segment is called once, on the (Q, m)
    batch of the segment's Gauss nodes; a member may return one (r, c)
    matrix for all nodes or a (Q, r, c) stack.  Contributions are summed
    node-major, direction-minor within a segment and in segment order
    across segments, which keeps the result deterministic.
    """
    nodes, weights = _gauss_nodes(cfg.quad_points_per_segment)
    total = np.zeros(P.shape)
    for a, b in zip(curve.waypoints[:-1], curve.waypoints[1:]):
        delta = b - a  # dgamma/dtau on this segment is S * delta
        if not np.any(delta):
            continue
        points = (1.0 - nodes)[:, None] * a + nodes[:, None] * b
        advancing = [alpha for alpha in range(1, P.m + 1) if delta[alpha - 1] != 0.0]
        values = [np.broadcast_to(P(alpha, points), (len(nodes),) + P.shape)
                  for alpha in advancing]
        seg = np.zeros(P.shape)
        for q, w in enumerate(weights):
            for alpha, value in zip(advancing, values):
                seg += w * delta[alpha - 1] * value[q]
        total += seg
    return total
