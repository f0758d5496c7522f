"""Controllability and reachability gramians, subspaces, and feasibility.

Both gramians come from one builder: the curvilinear integral of
chi(anchor,s) N_a(s) N_a(s)' chi(anchor,s)' ds^a from t0 to t, anchored at
t0 for controllability and at t for reachability.  It is only well
defined when the gramian compatibility condition holds (otherwise the
integral is path dependent), so the builder refuses in that case unless
an explicit curve from t0 to t is forced, in which case the result is
labelled path dependent.

A transfer is decided by the distance from its offset w to Im C, judged
against the size of the terms w is formed from; both are `core.norm`'s,
taken at any magnitude.  A gramian or an offset that overflows is
`core.finite`'s named ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONFIG, NumericConfig, PolylineCurve, as_point,
                   curve_segment, finite, norm)
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
    "decide_complete",
]


@dataclass(frozen=True)
class Gramian:
    value: np.ndarray
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

    @property
    def full(self) -> bool:
        """Im a is the whole space: the rank equals the dimension n.  A
        Python bool, which the --json writer takes and a numpy bool is not."""
        return bool(self.rank == len(self.columns))

    def contains(self, w: np.ndarray, rel_tol: float,
                 scale: float) -> tuple[bool, float]:
        """Membership of w: its projection residual is at most rel_tol * scale,
        where scale is the size of the terms that w was formed from.  A scale
        that is not finite bounds nothing, so w is then not a member."""
        w = np.asarray(w, dtype=float)
        residual = norm(w - self.columns @ (self.columns.T @ w))
        return bool(np.isfinite(scale) and residual <= rel_tol * scale), residual

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
    with np.errstate(over="ignore", invalid="ignore"):
        value = integrate_along(gramian_integrand(sys, anchor, cfg), curve, cfg)
    return Gramian(finite(value, "gramian", " between t0 and t"), kind,
                   path_dependent=force_curve is not None)


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
    Im C, and `scale` the size of the terms w is formed from."""
    feasible: bool
    residual: float
    ordering: str          # forward / backward / pseudo (strict comparisons)
    w: np.ndarray          # chi(t0, t) y - x0
    scale: float           # | |chi(t0, t)| |y| | + |x0|
    basis: SubspaceBasis


def decide_transfer(sys: LinearSystem, t0, x0, t, y,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> TransferDecision:
    """Can some control steer (t0, x0) to (t, y)?

    Projects w = chi(t0, t) y - x0 onto Im C(t0, t); feasible iff the
    projection residual is at most residual_rel_tol times the size of the
    terms, | |chi(t0, t)| |y| | + |x0| with |.| taken entrywise inside: a w
    that is round-off of them passes (the componentwise bound on a product's
    round-off, Higham, "Accuracy and Stability of Numerical Algorithms",
    ch. 3), and a transfer of any size is judged alike.  The entrywise
    product does not grow along a direction of y that chi does not stretch,
    where the norm product |chi|_2 |y| would.  A w that overflows
    (non-finite entries) is a ValueError.
    """
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = as_point(np.ravel(x0), m=sys.n)
    y = as_point(np.ravel(y), m=sys.n)
    basis = controllability_space(sys, t0, t, cfg)
    chi = transition(sys, t0, t, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        w = finite(chi @ y - x0, "transfer offset w = chi(t0, t) y - x0")
        scale = norm(np.abs(chi) @ np.abs(y)) + norm(x0)
    feasible, residual = basis.contains(w, cfg.residual_rel_tol, scale)
    return TransferDecision(feasible, residual, _ordering(t0, t), w, scale, basis)


def decide_complete(sys: LinearSystem, t0, t,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Im C(t0, t) for t0 < t (required): the system is completely
    controllable, and completely reachable, from t0 to t iff it is `full`."""
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    if not np.all(t0 < t):
        raise ValueError("decide_complete requires t0 < t componentwise")
    return controllability_space(sys, t0, t, cfg)
