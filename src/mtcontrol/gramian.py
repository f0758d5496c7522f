"""Controllability and reachability gramians, subspaces, and feasibility.

Both gramians come from one builder: the curvilinear integral of
chi(anchor,s) N_a(s) N_a(s)' chi(anchor,s)' ds^a from t0 to t, anchored at
t0 for controllability and at t for reachability.  It is only well
defined when the gramian compatibility condition holds (otherwise the
integral is path dependent), so the builder refuses in that case unless
an explicit curve from t0 to t is forced, in which case the result is
labelled path dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CONFIG, NumericConfig, PolylineCurve, as_point, curve_segment
from .flow import transition
from .pathint import OneFormFamily, integrate_along
from .system import (LinearSystem, _T, check_gramian_compat,
                     check_M_commutation, require)

__all__ = [
    "Gramian",
    "SubspaceBasis",
    "gramian_integrand",
    "controllability_gramian",
    "reachability_gramian",
    "image_basis",
    "numerical_rank",
    "controllability_space",
    "TransferDecision",
    "decide_transfer",
    "CompleteDecision",
    "decide_complete",
]


@dataclass(frozen=True)
class Gramian:
    value: np.ndarray
    start: np.ndarray          # t0
    end: np.ndarray            # t
    kind: str                  # "controllability" or "reachability"
    path_dependent: bool = False  # True only for forced-curve computations


@dataclass(frozen=True)
class SubspaceBasis:
    """Im a from one thin SVD a = U diag(s) V' and `_rank`'s rank r: U[:, :r]
    spans it, and V'[:r] is kept for `preimage`."""

    columns: np.ndarray            # n x r: U[:, :r], orthonormal
    rank: int
    singular_values: np.ndarray    # descending
    rows: np.ndarray               # r x cols: V'[:r], orthonormal rows
    ordered: bool = True           # endpoint pair satisfied the ordering hypothesis

    def contains(self, w: np.ndarray, rel_tol: float) -> tuple[bool, float]:
        """Membership of w via projection residual, relative to 1 + |w|."""
        w = np.asarray(w, dtype=float)
        if self.rank == 0:
            residual = float(np.linalg.norm(w))
        else:
            residual = float(np.linalg.norm(w - self.columns @ (self.columns.T @ w)))
        return bool(residual <= rel_tol * (1.0 + np.linalg.norm(w))), residual

    def preimage(self, w: np.ndarray) -> np.ndarray:
        """a^+ w with a^+ = V[:, :r] diag(1/s[:r]) U[:, :r]', the
        pseudoinverse at `_rank`'s threshold: the minimum-norm v with a v
        the projection of w onto Im a, so a v = w when w lies in it."""
        s = self.singular_values[:self.rank]
        return (self.rows.T @ ((1.0 / s)[:, None] * self.columns.T)) @ w


def _rank(s: np.ndarray, shape: tuple[int, ...], cfg: NumericConfig) -> int:
    """Count of singular values above rank_rel_tol * sigma_max * max(dims)."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > cfg.rank_rel_tol * s[0] * max(shape)))


def numerical_rank(a: np.ndarray, cfg: NumericConfig = DEFAULT_CONFIG) -> int:
    """SVD rank with threshold rank_rel_tol * sigma_max * max(dims)."""
    return _rank(np.linalg.svd(a, compute_uv=False), a.shape, cfg)


def image_basis(a: np.ndarray, cfg: NumericConfig = DEFAULT_CONFIG,
                ordered: bool = True) -> SubspaceBasis:
    """Orthonormal basis of Im a from one thin SVD."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    r = _rank(s, a.shape, cfg)
    return SubspaceBasis(u[:, :r], r, s, vt[:r], ordered)


def gramian_integrand(sys: LinearSystem, anchor,
                      cfg: NumericConfig = DEFAULT_CONFIG) -> OneFormFamily:
    """One-form s -> chi(anchor, s) N_a(s) N_a(s)' chi(anchor, s)'.

    A call takes a batch of points s (Q, m) and passes it straight to
    `transition`, once per requested direction."""
    anchor = as_point(anchor, m=sys.m)

    def stack(alphas, s):
        # chi(anchor, s) does not depend on alpha, yet it is taken once per
        # direction: bench/test_bench.py and tests/test_gramian.py pin 16 * m
        # expm calls per constant gramian.  One chi for all directions once
        # the pin counts matrices (ROADMAP item 1).
        half = np.stack([transition(sys, anchor, s, cfg) @ sys.N[alpha - 1](s)
                         for alpha in alphas])
        return half @ _T(half)

    return OneFormFamily(stack, (sys.n, sys.n))


def _gramian(sys: LinearSystem, t0, t, kind: str, cfg: NumericConfig,
             force_curve: PolylineCurve | None) -> Gramian:
    """The gramian integral from t0 to t, anchored at t0 ("controllability")
    or at t ("reachability").

    With `force_curve` the gramian-compatibility gate is skipped and the
    integral is taken along the supplied curve, which must run from t0 to
    t; the result is then path dependent and labelled as such.
    """
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    require(check_M_commutation(sys, cfg))
    if force_curve is None:
        require(check_gramian_compat(sys, cfg))
        curve = curve_segment(t0, t)
    else:
        curve = force_curve
        if not (np.array_equal(curve.start, t0) and np.array_equal(curve.end, t)):
            raise ValueError("forced curve must run from t0 to t")
    # the box is convex: segments between waypoints inside it stay inside
    sys.require_inside(curve.waypoints, sys.M, sys.N)
    anchor = t0 if kind == "controllability" else t
    value = integrate_along(gramian_integrand(sys, anchor, cfg), curve, cfg)
    return Gramian(value, t0, t, kind, path_dependent=force_curve is not None)


def controllability_gramian(sys: LinearSystem, t0, t,
                            cfg: NumericConfig = DEFAULT_CONFIG,
                            force_curve: PolylineCurve | None = None) -> Gramian:
    """Gramian anchored at t0, integrated over the straight segment t0 -> t."""
    return _gramian(sys, t0, t, "controllability", cfg, force_curve)


def reachability_gramian(sys: LinearSystem, t0, t,
                         cfg: NumericConfig = DEFAULT_CONFIG,
                         force_curve: PolylineCurve | None = None) -> Gramian:
    """Gramian anchored at the target t; satisfies R(t0,t) = -C(t,t0)."""
    return _gramian(sys, t0, t, "reachability", cfg, force_curve)


def _ordering(t0: np.ndarray, t: np.ndarray) -> str:
    if np.all(t > t0):
        return "forward"
    if np.all(t < t0):
        return "backward"
    return "pseudo"


def _weakly_ordered(t0: np.ndarray, t: np.ndarray) -> bool:
    return bool(np.all(t >= t0) or np.all(t <= t0))


def controllability_space(sys: LinearSystem, t0, t,
                          cfg: NumericConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of Im C(t0, t).

    The identification of Im C with the controllability space is proved
    only for componentwise-ordered endpoint pairs; for unordered pairs the
    basis is still returned but flagged `ordered=False`.
    """
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    g = controllability_gramian(sys, t0, t, cfg)
    return image_basis(g.value, cfg, ordered=_weakly_ordered(t0, t))


@dataclass(frozen=True)
class TransferDecision:
    """The one transfer verdict: feasible iff w lies in Im C(t0, t) (`basis`,
    with its rank and `ordered` flag); `residual` is the distance from w to
    Im C."""
    feasible: bool
    residual: float
    ordering: str          # forward / backward / pseudo (strict comparisons)
    w: np.ndarray          # chi(t0, t) y - x0
    basis: SubspaceBasis


def decide_transfer(sys: LinearSystem, t0, x0, t, y,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> TransferDecision:
    """Can some control steer (t0, x0) to (t, y)?

    Projects w = chi(t0, t) y - x0 onto Im C(t0, t); feasible iff the
    projection residual is below residual_rel_tol * (1 + |w|).
    """
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    y = np.asarray(y, dtype=float).reshape(sys.n)
    basis = controllability_space(sys, t0, t, cfg)
    w = transition(sys, t0, t, cfg) @ y - x0
    feasible, residual = basis.contains(w, cfg.residual_rel_tol)
    return TransferDecision(feasible, residual, _ordering(t0, t), w, basis)


@dataclass(frozen=True)
class CompleteDecision:
    completely_controllable: bool
    completely_reachable: bool
    rank: int


def decide_complete(sys: LinearSystem, t0, t,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> CompleteDecision:
    """Complete controllability/reachability from t0 to t (t0 < t required).

    Both flags coincide and equal rank C(t0, t) == n.
    """
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    if not np.all(t0 < t):
        raise ValueError("decide_complete requires t0 < t componentwise")
    r = controllability_space(sys, t0, t, cfg).rank
    full = r == sys.n
    return CompleteDecision(full, full, r)
