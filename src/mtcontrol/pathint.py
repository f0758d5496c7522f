"""Curvilinear integrals of matrix one-forms along polyline curves.

Computes sum_alpha integral of P_alpha(gamma(tau)) * dgamma^alpha/dtau
with a fixed-order Gauss-Legendre rule per segment.  Integrands are
smooth by construction (C1 data), so the non-adaptive rule is accurate
at desk scale; raise quad_points_per_segment in NumericConfig if needed.
Quadrature is batched: the one-form is called once per segment, on all of
the segment's Gauss nodes as one (Q, m) array of points, and returns the
values of every advancing direction as one stack, so work that does not
depend on the direction (such as chi at the nodes) is done once, and the
segment's terms are added in one ordered reduction.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .core import DEFAULT_CONFIG, NumericConfig, PolylineCurve

__all__ = ["OneFormFamily", "integrate_along"]


class OneFormFamily:
    """The matrix-valued coefficient functions P_alpha: D -> R^{r x c} of a
    one-form, as one callable `stack(alphas, points)`.

    `alphas` is an integer array of 1-based directions and `points` a
    (Q, m) batch; the result is the (len(alphas), Q, r, c) stack of
    P_alpha at every point, or (len(alphas), 1, r, c) for values that do
    not depend on the point, which broadcast over the nodes.  E.g. the
    gramian integrand s -> chi(t0,s) N_a(s) N_a(s)' chi(t0,s)' for all
    requested a at once.
    """

    def __init__(self, stack: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 shape: tuple[int, int]):
        self.stack = stack
        self.shape = shape

    def __call__(self, alphas, t: np.ndarray) -> np.ndarray:
        """P_alpha(t) for each 1-based alpha in `alphas`, stacked."""
        return np.asarray(self.stack(alphas, t), dtype=float)


@functools.lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], once per order; read-only, as shared.
    Order 1 is the midpoint rule."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w  # from [-1, 1] to [0, 1]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def integrate_along(P: OneFormFamily, curve: PolylineCurve,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gauss-Legendre approximation of the curvilinear integral along `curve`.

    P is called once per segment that moves, with the directions that
    advance on it and the (Q, m) batch of the segment's Gauss nodes.  The
    segment's (Q, A, r, c) terms w_q delta^a P_a(node_q) are added
    node-major, direction-minor, strictly left to right, and the segments
    in order, so the result is deterministic.
    """
    nodes, weights = _gauss_nodes(cfg.quad_points_per_segment)
    total = np.zeros(P.shape)
    for a, b in zip(curve.waypoints[:-1], curve.waypoints[1:]):
        delta = b - a  # dgamma/dtau on this segment is S * delta
        if not np.any(delta):
            continue
        points = (1.0 - nodes)[:, None] * a + nodes[:, None] * b
        advancing = np.flatnonzero(delta)
        scales = weights[:, None] * delta[advancing]  # w_q delta^a, (Q, A)
        terms = scales[..., None, None] * np.swapaxes(P(advancing + 1, points), 0, 1)
        total += np.add.accumulate(terms.reshape((-1,) + P.shape))[-1]
    return total
