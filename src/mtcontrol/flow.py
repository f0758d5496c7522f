"""Fundamental matrix chi(t, t0) and the Cauchy solvers built on it.

For constant families chi(t, t0) = expm(sum_a M_a (t^a - t0^a)); the
matrix exponential is scipy's scaling-and-squaring Pade implementation.
For time-varying families chi is integrated with classical RK4 along the
straight segment from t0 to t, which is a valid canonical path whenever
the commutation condition holds (the integral is then path independent).

`transition` takes one start point t0 or a (P, m) batch of them; the
quadrature integrands pass all Gauss nodes of a segment as one batch.  A
constant family takes one expm per start point.  A time-varying family
evaluates each M_a once on the stage points of all P segments.  RK4 is
linear in X, so each step is a fixed matrix R_j applied to X: all step
propagators are built at once with batched matmuls, and their ordered
product R_{S-1}...R_0 is taken pairwise in log2(S) levels (an associative
reduction, cf. Blelloch, "Prefix sums and their applications", 1990).
`_rk4_chi` composes these propagators segment by segment along a polyline.
A chi with non-finite entries (overflow) is a named ValueError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import (DEFAULT_CONFIG, NumericConfig, PolylineCurve, as_point,
                   as_points, curve_segment)
from .pathint import OneFormFamily, integrate_along
from .system import (LinearSystem, MatrixFamily, check_control_compat,
                     check_F_compatibility, check_M_commutation, require)

__all__ = [
    "FundamentalMatrix",
    "fundamental_matrix",
    "transition",
    "solve_homogeneous",
    "solve_adjoint",
    "solve_affine",
    "solve_controlled",
]

_COND_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class FundamentalMatrix:
    """chi(t, t0) together with its endpoints and condition number."""

    value: np.ndarray
    start: np.ndarray  # t0
    end: np.ndarray    # t
    condition_number: float


def _rk4(sys: LinearSystem, starts: np.ndarray, end,
         cfg: NumericConfig) -> np.ndarray:
    """The (P, n, n) classical RK4 propagators of dX/dtau = (sum_a M_a
    delta^a) X along the P straight segments starts[p] -> end, with
    delta = end - starts[p] and tau in [0, 1].

    Each M_a is evaluated once, on the batch of all RK4 stage points (step
    starts, midpoints and ends) of the segments that advance along axis a.
    One RK4 step maps X to R_j X; all R_j come from batched matmuls (the
    step run on X = I), and their ordered product R_{S-1}...R_0 is taken in
    log2(S) levels of pairwise products.  Stacks are segment-major,
    (P, stage, n, n): the masked sums over segments then move whole
    contiguous blocks, which is faster than a stage-major layout.
    """
    steps = cfg.ode_steps_per_segment
    h = 1.0 / steps
    s = np.arange(steps) * h
    stages = np.concatenate([s, s + 0.5 * h, s + h])[:, None]
    delta = end - starts
    points = starts[:, None] + stages * delta[:, None]  # (P, 3 * steps, m)
    A = np.zeros((len(starts), len(stages), sys.n, sys.n))
    for alpha in range(sys.m):
        rows = delta[:, alpha] != 0.0
        if np.any(rows):
            M = sys.M[alpha](points[rows].reshape(-1, sys.m))
            A[rows] += delta[rows, alpha, None, None, None] * M.reshape(
                -1, len(stages), sys.n, sys.n)
    A1, A2, A3 = A[:, :steps], A[:, steps:2 * steps], A[:, 2 * steps:]
    eye = np.eye(sys.n)
    B2 = A2 @ (eye + 0.5 * h * A1)
    B3 = A2 @ (eye + 0.5 * h * B2)
    B4 = A3 @ (eye + h * B3)
    R = eye + h / 6.0 * (A1 + 2.0 * B2 + 2.0 * B3 + B4)
    while R.shape[1] > 1:  # an odd count carries its last matrix, in order
        pairs = R.shape[1] // 2
        product = R[:, 1:2 * pairs:2] @ R[:, 0:2 * pairs:2]
        if R.shape[1] % 2:
            product = np.concatenate([product, R[:, -1:]], axis=1)
        R = product
    return R[:, 0]


def _rk4_chi(sys: LinearSystem, curve: PolylineCurve, cfg: NumericConfig) -> np.ndarray:
    """Integrate dX/dtau = (sum_a M_a(gamma(tau)) gamma_dot^a(tau)) X along
    `curve` with X(0) = I, composing one RK4 propagator per segment."""
    X = np.eye(sys.n)
    for a, b in zip(curve.waypoints[:-1], curve.waypoints[1:]):
        if np.any(b != a):
            X = _rk4(sys, a[None], b, cfg)[0] @ X
    return X


def transition(sys: LinearSystem, t, t0,
               cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """chi(t, t0) as a bare array (no gating, no condition reporting).

    `t0` is one start point (m,), giving (n, n), or a batch of start points
    (P, m), giving (P, n, n); each matrix of a batch equals the one-point
    result bit for bit.  Constant systems take one expm per start point;
    time-varying ones take the RK4 propagators of all start points at once.
    Raises ValueError when chi overflows (non-finite entries).
    """
    t = as_point(t, m=sys.m)
    batch = np.ndim(t0) == 2
    starts = as_points(t0, sys.m) if batch else as_point(t0, m=sys.m)[None]
    chi = np.repeat(np.eye(sys.n)[None], len(starts), axis=0)
    moving = np.any(starts != t, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        if sys.M.is_constant:
            for p in np.flatnonzero(moving):
                acc = np.zeros((sys.n, sys.n))
                for alpha in range(sys.m):
                    d = t[alpha] - starts[p, alpha]
                    if d != 0.0:
                        acc += d * sys.M[alpha](starts[p])
                chi[p] = expm(acc)
        elif np.any(moving):
            chi[moving] = _rk4(sys, starts[moving], t, cfg)
    if not np.all(np.isfinite(chi)):
        raise ValueError("fundamental matrix overflowed (non-finite entries) "
                         "between t0 and t")
    return chi if batch else chi[0]


def fundamental_matrix(sys: LinearSystem, t, t0,
                       cfg: NumericConfig = DEFAULT_CONFIG) -> FundamentalMatrix:
    """chi(t, t0), gated on the commutation condition.

    Warns when the result is badly conditioned (condition number beyond
    1e12), since the inverse relation chi(t0, t) = chi(t, t0)^-1 then
    loses accuracy.
    """
    require(check_M_commutation(sys, cfg))
    t = as_point(t, m=sys.m)
    t0 = as_point(t0, m=sys.m)
    if not sys.M.is_constant and not (sys.contains(t) and sys.contains(t0)):
        raise ValueError("t and t0 must lie inside the system domain")
    value = transition(sys, t, t0, cfg)
    cond = float(np.linalg.cond(value))
    if cond > _COND_WARN_THRESHOLD:
        warnings.warn(f"fundamental matrix is ill-conditioned (cond = {cond:.3e})",
                      RuntimeWarning, stacklevel=2)
    return FundamentalMatrix(value, t0, t, cond)


def solve_homogeneous(sys: LinearSystem, t0, x0, t,
                      cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """x(t) = chi(t, t0) x0."""
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    return fundamental_matrix(sys, t, t0, cfg).value @ x0


def solve_adjoint(sys: LinearSystem, t0, phi0, t,
                  cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Adjoint flow phi(t) = chi(t0, t)^T phi0."""
    phi0 = np.asarray(phi0, dtype=float).reshape(sys.n)
    return fundamental_matrix(sys, t0, t, cfg).value.T @ phi0


def _forced_solve(sys: LinearSystem, F_value, t0, x0, t,
                  curve: PolylineCurve | None, cfg: NumericConfig) -> np.ndarray:
    """x(t) = chi(t, t0) x0 + integral over `curve` (default: the segment
    t0 -> t) of chi(t, s) F_alpha(s) ds^a.

    F_value(alpha, s) gives F_alpha as an (n, 1) column at one point s, or
    as (P, n, 1) on a batch of points; each integrand call passes its whole
    batch of quadrature nodes to `transition`."""
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    if curve is None:
        curve = curve_segment(t0, t)

    def member(alpha):
        def P(s):
            return transition(sys, t, s, cfg) @ F_value(alpha, s)
        return P

    integrand = OneFormFamily([member(alpha) for alpha in range(1, sys.m + 1)],
                              (sys.n, 1))
    forced = integrate_along(integrand, curve, cfg)[:, 0]
    return transition(sys, t, t0, cfg) @ x0 + forced


def solve_affine(sys: LinearSystem, F: MatrixFamily, t0, x0, t,
                 curve: PolylineCurve | None = None,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """x(t) = chi(t, t0) x0 + integral over gamma of chi(t, s) F_alpha(s) ds^a.

    The result does not depend on the chosen curve: F-compatibility, which
    gates the call, makes the integrand closed.
    """
    require(check_M_commutation(sys, cfg))
    require(check_F_compatibility(sys, F, cfg))
    return _forced_solve(sys, lambda a, s: F[a - 1](s), t0, x0, t, curve, cfg)


def solve_controlled(sys: LinearSystem, u, t0, x0, t,
                     curve: PolylineCurve | None = None,
                     cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Controlled solution with F_alpha = N_alpha u_alpha.

    `u` is a ControlFamily or any object exposing value/derivative; it is
    rejected when it falls outside the control space.
    """
    require(check_M_commutation(sys, cfg))
    require(check_control_compat(sys, u, cfg))
    return _controlled_solve(sys, u, t0, x0, t, curve, cfg)


def _controlled_solve(sys: LinearSystem, u, t0, x0, t,
                      curve: PolylineCurve | None,
                      cfg: NumericConfig) -> np.ndarray:
    """`solve_controlled` for a caller that has already decided u is a control."""
    return _forced_solve(sys, lambda a, s: sys.N[a - 1](s) @ u.value(a, s)[..., None],
                         t0, x0, t, curve, cfg)
