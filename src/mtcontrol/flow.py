"""Fundamental matrix chi(t, t0) and the Cauchy solvers built on it.

For constant families chi(t, t0) = expm(sum_a M_a (t^a - t0^a)); the
matrix exponential is scipy's scaling-and-squaring Pade implementation.
scipy is needed only there: `expm` imports it on its first call, so a
process that never exponentiates a constant family never loads it.
For time-varying families chi is integrated with classical RK4 along the
straight segment from t0 to t, which is a valid canonical path whenever
the commutation condition holds (the integral is then path independent).

`transition` takes one start point t0 or a (P, m) batch of them; the
quadrature integrands pass all Gauss nodes of a segment as one batch.  Both
routes start from generators A = sum_a delta^a M_a (the one-form pulled
back to each segment): a constant family forms A from its own (m, n, n)
array and takes one expm of A per start point, a time-varying one takes A
on the half-step grid tau = j h/2, j = 0..2S, of all P segments: S RK4 steps
of size h evaluate each advancing member at 2S + 1 points (`_generators`).
RK4 is linear in X, so each step is a fixed matrix R_j applied to X: all
step propagators are built at once with batched matmuls, and their ordered
product R_{S-1}...R_0 is taken pairwise in log2(S) levels (an associative
reduction, cf. Blelloch, "Prefix sums and their applications", 1990).  A
chi or a solution with non-finite entries (overflow) is a named ValueError,
computed with numpy's overflow warnings off.

On a constant system the endpoint under a synthesized control comes from
one exponential of the 2n x 2n generator of plant and control together
(`_steered_endpoint`); every other forced solution integrates along the
path (`_forced_solve`).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONFIG, NumericConfig, PolylineCurve, as_point,
                   as_points, curve_segment, finite)
from .pathint import OneFormFamily, integrate_along
from .system import (LinearSystem, MatrixFamily, _T, check_control_compat,
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


@functools.cache
def _scipy_expm():
    from scipy.linalg import expm
    return expm


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm(a), with scipy imported on the first call."""
    return _scipy_expm()(a)


@dataclass(frozen=True)
class FundamentalMatrix:
    """chi(t, t0) together with its condition number."""

    value: np.ndarray
    condition_number: float


def _generators(sys: LinearSystem, starts: np.ndarray, end,
                fractions: np.ndarray) -> np.ndarray:
    """The (P, S, n, n) generators A = sum_a delta^a M_a at the points
    starts[p] + fractions[s] * delta, delta = end - starts[p]: each M_a is
    evaluated once, on the segments with delta^a != 0, and the terms are
    added in direction order into segment-major (contiguous) blocks."""
    delta = end - starts
    points = starts[:, None] + fractions[:, None] * delta[:, None]  # (P, S, m)
    A = np.zeros((len(starts), len(fractions), sys.n, sys.n))
    for alpha in range(sys.m):
        rows = delta[:, alpha] != 0.0
        if rows.all():  # every segment advances: no mask, no copy
            rows = slice(None)
        elif not rows.any():
            continue
        M = sys.M[alpha](points[rows].reshape(-1, sys.m))
        A[rows] += delta[rows, alpha, None, None, None] * M.reshape(
            -1, len(fractions), sys.n, sys.n)
    return A


def _rk4(sys: LinearSystem, starts: np.ndarray, end,
         cfg: NumericConfig) -> np.ndarray:
    """The (P, n, n) classical RK4 propagators of dX/dtau = A(tau) X along
    the segments starts[p] -> end, tau in [0, 1], with A on the half-step grid.
    One RK4 step maps X to R_j X; all R_j come from batched matmuls (the
    step run on X = I), and their ordered product R_{S-1}...R_0 is taken in
    log2(S) levels of pairwise products."""
    steps = cfg.ode_steps_per_segment
    h = 1.0 / steps
    A = _generators(sys, starts, end, np.arange(2 * steps + 1) * (0.5 * h))
    A1, A2, A3 = A[:, :-1:2], A[:, 1::2], A[:, 2::2]
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


def transition(sys: LinearSystem, t, t0,
               cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """chi(t, t0) as a bare array (no gating, no condition reporting).

    `t0` is one start point (m,), giving (n, n), or a batch of start points
    (P, m), giving (P, n, n); each matrix of a batch equals the one-point
    result bit for bit.  A constant family's generator is the sum of the
    terms delta^a M_a of its array, added into zeros in direction order.
    Raises ValueError when chi overflows (non-finite entries).
    """
    t = as_point(t, m=sys.m)
    batch = np.ndim(t0) == 2
    starts = as_points(t0, sys.m) if batch else as_point(t0, m=sys.m)[None]
    moving = (starts != t).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        if sys.M.is_constant:
            A = _weighted_sum(t - starts, sys.M.value)
            # one expm per start while bench/test_bench.py pins 16 * m expm
            # calls per constant gramian; one batched call once it counts matrices
            chi = np.array([expm(a) if move else np.eye(sys.n)
                            for a, move in zip(A, moving.tolist())]
                           ).reshape(A.shape)
        else:
            chi = np.repeat(np.eye(sys.n)[None], len(starts), axis=0)
            if moving.any():
                chi[moving] = _rk4(sys, starts[moving], t, cfg)
    finite(chi, "fundamental matrix", " between t0 and t")
    return chi if batch else chi[0]


def _weighted_sum(delta: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a delta^a stack[a] over the last axis (m) of delta, added into
    zeros in direction order.  A sum started at +0.0 never holds -0.0, so
    the zero term of a direction with delta^a = 0 changes no entry: the sum
    equals the one that skips it, as `_generators` does, bit for bit."""
    terms = delta[..., None, None] * stack
    out = np.zeros(terms.shape[:-3] + terms.shape[-2:])
    for a in range(len(stack)):
        out += terms[..., a, :, :]
    return out


def _steered_endpoint(sys: LinearSystem, anchor: np.ndarray, v: np.ndarray,
                      t0, x0, t, cfg: NumericConfig) -> np.ndarray:
    """x(t) from (t0, x0) under the control u_a(s) = N_a' chi(anchor, s)' v
    of a constant system (`sys.is_constant`), without quadrature.

    Along the segment s = t0 + tau delta, delta = t - t0, the control is
    the output of the exosystem z(tau) = chi(anchor, s)' v, dz/dtau = -A' z,
    so plant and control form one constant system with generator
    H = [[A, Q], [0, -A']], A = sum_a delta^a M_a, Q = sum_a delta^a N_a N_a'
    (Van Loan, "Computing integrals involving the matrix exponential",
    IEEE TAC 23(3), 1978).  The endpoint is chi(t, t0) x0 from `transition`,
    so v = 0 gives the free evolution bit for bit, plus the (1, 2) block of
    expm(H) applied to z(0) = chi(anchor, t0)' v.  An endpoint that
    overflows is a ValueError.
    """
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = as_point(np.ravel(x0), m=sys.n)
    z0 = _T(transition(sys, anchor, t0, cfg)) @ v
    delta = t - t0
    A = _weighted_sum(delta, sys.M.value)
    Q = _weighted_sum(delta, sys.N.value @ _T(sys.N.value))
    H = np.block([[A, Q], [np.zeros_like(A), -A.T]])
    with np.errstate(over="ignore", invalid="ignore"):
        endpoint = transition(sys, t, t0, cfg) @ x0 + expm(H)[:sys.n, sys.n:] @ z0
    return finite(endpoint, "solution", " at t")


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
    sys.require_inside([t, t0], sys.M)
    value = transition(sys, t, t0, cfg)
    cond = float(np.linalg.cond(value))
    if cond > _COND_WARN_THRESHOLD:
        warnings.warn(f"fundamental matrix is ill-conditioned (cond = {cond:.3e})",
                      RuntimeWarning, stacklevel=2)
    return FundamentalMatrix(value, cond)


@np.errstate(over="ignore", invalid="ignore")
def solve_homogeneous(sys: LinearSystem, t0, x0, t,
                      cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """x(t) = chi(t, t0) x0."""
    x0 = as_point(np.ravel(x0), m=sys.n)
    return finite(fundamental_matrix(sys, t, t0, cfg).value @ x0,
                  "solution", " at t")


@np.errstate(over="ignore", invalid="ignore")
def solve_adjoint(sys: LinearSystem, t0, phi0, t,
                  cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Adjoint flow phi(t) = chi(t0, t)^T phi0."""
    phi0 = as_point(np.ravel(phi0), m=sys.n)
    return finite(fundamental_matrix(sys, t0, t, cfg).value.T @ phi0,
                  "solution", " at t")


@np.errstate(over="ignore", invalid="ignore")
def _forced_solve(sys: LinearSystem, forcing, families, t0, x0, t,
                  curve: PolylineCurve | None, cfg: NumericConfig) -> np.ndarray:
    """x(t) = chi(t, t0) x0 + integral over `curve` (default: the segment
    t0 -> t) of chi(t, s) F_alpha(s) ds^a.

    forcing(s) gives the (m, P, n, 1) stack of every F_alpha on a batch of
    points s (P, m); `families` are those the caller's gates decided it
    from, and the curve must stay in the domain box when one of them
    varies.  The integrand takes one `transition` per segment, on the
    segment's Gauss nodes, and applies that chi to the forcing of every
    advancing direction: chi(t, s) does not depend on alpha."""
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = as_point(np.ravel(x0), m=sys.n)
    if curve is None:
        curve = curve_segment(t0, t)
    # the box is convex: segments between waypoints inside it stay inside
    sys.require_inside(curve.waypoints, sys.M, *families)

    def stack(alphas, s):
        return transition(sys, t, s, cfg) @ forcing(s)[alphas - 1]

    forced = integrate_along(OneFormFamily(stack, (sys.n, 1)), curve, cfg)
    return finite(transition(sys, t, t0, cfg) @ x0 + forced[:, 0],
                  "solution", " at t")


def solve_affine(sys: LinearSystem, F: MatrixFamily, t0, x0, t,
                 curve: PolylineCurve | None = None,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """x(t) = chi(t, t0) x0 + integral over gamma of chi(t, s) F_alpha(s) ds^a.

    The result does not depend on the chosen curve: F-compatibility, which
    gates the call, makes the integrand closed.
    """
    require(check_M_commutation(sys, cfg))
    require(check_F_compatibility(sys, F, cfg))
    return _forced_solve(sys, F, [F], t0, x0, t, curve, cfg)


def solve_controlled(sys: LinearSystem, u, t0, x0, t,
                     curve: PolylineCurve | None = None,
                     cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Controlled solution with F_alpha = N_alpha u_alpha.

    `u` is a family of k x 1 columns, a MatrixFamily or a
    SynthesizedControl (see `check_control_compat`); it is rejected when
    it falls outside the control space.
    """
    require(check_M_commutation(sys, cfg))
    require(check_control_compat(sys, u, cfg))
    return _controlled_solve(sys, u, t0, x0, t, curve, cfg)


def _controlled_solve(sys: LinearSystem, u, t0, x0, t,
                      curve: PolylineCurve | None, cfg: NumericConfig) -> np.ndarray:
    """`solve_controlled` for a caller that has already decided u is a
    control, from N and u, as `check_control_compat` does besides M."""
    return _forced_solve(sys, lambda s: sys.N(s) @ u(s), [sys.N, u], t0, x0, t,
                         curve, cfg)
