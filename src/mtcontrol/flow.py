"""Fundamental matrix chi(t, t0) and the Cauchy solvers built on it.

For constant families chi(t, t0) = expm(sum_a M_a (t^a - t0^a)); the
matrix exponential is scipy's scaling-and-squaring Pade implementation.
For time-varying families chi is integrated with classical RK4 along the
straight segment from t0 to t, which is a valid canonical path whenever
the commutation condition holds (the integral is then path independent).
The RK4 stage points of a segment are evaluated in one batch per family
member before the step loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import DEFAULT_CONFIG, NumericConfig, PolylineCurve, as_point, curve_segment
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


def _rk4_chi(sys: LinearSystem, curve: PolylineCurve, cfg: NumericConfig) -> np.ndarray:
    """Integrate dX/dtau = (sum_a M_a(gamma(tau)) gamma_dot^a(tau)) X along
    `curve` with X(0) = I.

    On each segment, every M_a is evaluated once, on the batch of all RK4
    stage points (step starts, midpoints and ends); the step loop then only
    multiplies matrices.
    """
    X = np.eye(sys.n)
    S = curve.segment_count
    steps = cfg.ode_steps_per_segment
    h = 1.0 / steps
    s = np.arange(steps) * h
    stages = np.concatenate([s, s + 0.5 * h, s + h])[:, None]
    for i in range(S):
        a, b = curve.waypoints[i], curve.waypoints[i + 1]
        delta = b - a
        if not np.any(delta):
            continue
        points = a + stages * delta
        A = np.zeros((len(points), sys.n, sys.n))
        for alpha in range(sys.m):
            if delta[alpha] != 0.0:
                A += delta[alpha] * sys.M[alpha](points)
        A1, A2, A3 = A[:steps], A[steps:2 * steps], A[2 * steps:]
        for j in range(steps):
            k1 = A1[j] @ X
            k2 = A2[j] @ (X + 0.5 * h * k1)
            k3 = A2[j] @ (X + 0.5 * h * k2)
            k4 = A3[j] @ (X + h * k3)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


def transition(sys: LinearSystem, t, t0,
               cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """chi(t, t0) as a bare array (no gating, no condition reporting)."""
    t = as_point(t, m=sys.m)
    t0 = as_point(t0, m=sys.m)
    if np.array_equal(t, t0):
        return np.eye(sys.n)
    if sys.M.is_constant:
        acc = np.zeros((sys.n, sys.n))
        for alpha in range(sys.m):
            d = t[alpha] - t0[alpha]
            if d != 0.0:
                acc += d * sys.M[alpha](t0)
        return expm(acc)
    return _rk4_chi(sys, curve_segment(t0, t), cfg)


def fundamental_matrix(sys: LinearSystem, t, t0,
                       cfg: NumericConfig = DEFAULT_CONFIG,
                       check: bool = True) -> FundamentalMatrix:
    """chi(t, t0), gated on the commutation condition.

    Warns when the result is badly conditioned (condition number beyond
    1e12), since the inverse relation chi(t0, t) = chi(t, t0)^-1 then
    loses accuracy.
    """
    if check:
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
                      cfg: NumericConfig = DEFAULT_CONFIG,
                      check: bool = True) -> np.ndarray:
    """x(t) = chi(t, t0) x0."""
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    return fundamental_matrix(sys, t, t0, cfg, check=check).value @ x0


def solve_adjoint(sys: LinearSystem, t0, phi0, t,
                  cfg: NumericConfig = DEFAULT_CONFIG,
                  check: bool = True) -> np.ndarray:
    """Adjoint flow phi(t) = chi(t0, t)^T phi0."""
    phi0 = np.asarray(phi0, dtype=float).reshape(sys.n)
    return fundamental_matrix(sys, t0, t, cfg, check=check).value.T @ phi0


def _forced_solve(sys: LinearSystem, F_value, t0, x0, t,
                  curve: PolylineCurve | None, cfg: NumericConfig) -> np.ndarray:
    """x(t) = chi(t, t0) x0 + integral over `curve` (default: the segment
    t0 -> t) of chi(t, s) F_alpha(s) ds^a, F_value(alpha, s) an (n,) vector."""
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    if curve is None:
        curve = curve_segment(t0, t)

    def member(alpha):
        def P(s):
            return (transition(sys, t, s, cfg) @ F_value(alpha, s)).reshape(sys.n, 1)
        return P

    integrand = OneFormFamily([member(alpha) for alpha in range(1, sys.m + 1)],
                              (sys.n, 1))
    forced = integrate_along(integrand, curve, cfg)[:, 0]
    return transition(sys, t, t0, cfg) @ x0 + forced


def solve_affine(sys: LinearSystem, F: MatrixFamily, t0, x0, t,
                 curve: PolylineCurve | None = None,
                 cfg: NumericConfig = DEFAULT_CONFIG,
                 check: bool = True) -> np.ndarray:
    """x(t) = chi(t, t0) x0 + integral over gamma of chi(t, s) F_alpha(s) ds^a.

    The result does not depend on the chosen curve: compatibility of F makes
    the integrand closed, which is exactly what `check` verifies.
    """
    if check:
        require(check_M_commutation(sys, cfg))
        require(check_F_compatibility(sys, F, cfg))
    return _forced_solve(sys, lambda a, s: F[a - 1](s)[:, 0], t0, x0, t,
                         curve, cfg)


def solve_controlled(sys: LinearSystem, u, t0, x0, t,
                     curve: PolylineCurve | None = None,
                     cfg: NumericConfig = DEFAULT_CONFIG,
                     check: bool = True) -> np.ndarray:
    """Controlled solution with F_alpha = N_alpha u_alpha.

    `u` is a ControlFamily or any object exposing value/derivative; it is
    rejected when it falls outside the control space.
    """
    if check:
        require(check_M_commutation(sys, cfg))
        require(check_control_compat(sys, u, cfg))
    return _forced_solve(sys, lambda a, s: sys.N[a - 1](s) @ u.value(a, s),
                         t0, x0, t, curve, cfg)
