import numpy as np
import pytest

from mtcontrol import LinearSystem
from mtcontrol.core import DEFAULT_CONFIG, as_point
from mtcontrol.flow import _rk4, transition
from mtcontrol.synth import SynthesizedControl
from mtcontrol.system import _T


@pytest.fixture
def diag_sys():
    """Two-time system with M1 = diag(1,0), M2 = 0, N1 = e1, N2 = e2.

    Ground truth: commutation and gramian conditions hold, the gramian
    C((0,0),(t,0)) = diag((1 - e^{-2t})/2, 0) has rank 1 while the
    controllability matrix G has rank 2.
    """
    return LinearSystem.from_data(
        2, 2, 1,
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[1], [0]], [[0], [1]]])


@pytest.fixture
def cyclic_sys():
    """Three-time system with M1 = M2 = M3 the cyclic permutation and
    N_a = e_a.

    Ground truth: commutation holds, the gramian compatibility condition
    fails, rank G = 3 = n, yet the control space is {0}.
    """
    M = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    return LinearSystem.from_data(
        3, 3, 1, [M, M, M],
        [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]])


def random_commuting_system(rng, n=4, m=2, k=2, degree=2,
                            identical_M=False, identical_N=False):
    """Constant commuting family: each M_a is a polynomial of one random
    matrix, which guarantees pairwise commutation.

    With identical_M and identical_N the gramian compatibility condition
    holds by construction (both sides of the identity coincide), which is
    the documented recipe for generating condition-passing systems.
    """
    A = rng.standard_normal((n, n)) / n

    def poly():
        # Moderate coefficients keep ||sum M_a (t^a - t0^a)|| small enough
        # that fixed-step RK4 stays well inside the 1e-9 identity tolerances.
        coeffs = 0.6 * rng.standard_normal(degree + 1)
        out = coeffs[0] * np.eye(n)
        P = np.eye(n)
        for c in coeffs[1:]:
            P = P @ A
            out = out + c * P
        return out

    if identical_M:
        M0 = poly()
        M = [M0] * m
    else:
        M = [poly() for _ in range(m)]
    if identical_N:
        N0 = rng.standard_normal((n, k))
        N = [N0] * m
    else:
        N = [rng.standard_normal((n, k)) for _ in range(m)]
    return LinearSystem.from_data(m, n, k, [Mi.tolist() for Mi in M],
                                  [Ni.tolist() for Ni in N])


def random_passing_system(rng, m, n=4, r=None):
    """Condition-passing system with a well-conditioned gramian of known rank.

    M is one polynomial of a block-diagonal matrix (identical across alpha),
    N has orthonormal columns spanning the leading invariant r-block and is
    identical across alpha, so the gramian compatibility condition holds and
    both the gramian and the block controllability matrix have rank exactly r
    with no borderline singular values.
    """
    if r is None:
        r = int(rng.integers(2, n + 1))
    A = np.zeros((n, n))
    A[:r, :r] = rng.standard_normal((r, r)) / 2
    if r < n:
        A[r:, r:] = rng.standard_normal((n - r, n - r)) / 2
    coeffs = rng.standard_normal(3)
    M = coeffs[0] * np.eye(n) + coeffs[1] * A + coeffs[2] * A @ A
    N = np.zeros((n, r))
    N[:r, :], _ = np.linalg.qr(rng.standard_normal((r, r)))
    sys = LinearSystem.from_data(m, n, r, [M.tolist()] * m, [N.tolist()] * m)
    return sys, r


def axis_scaled_system():
    """M1 = diag(t1, 0), M2 = diag(0, t2), N_a = e_a: the conditions hold and
    chi(t, t0) = diag(exp((t1^2 - t0_1^2)/2), exp((t2^2 - t0_2^2)/2)), so the
    gramian anchored at p is diag(int exp(p_a^2 - s^2) ds over [t0_a, t_a])."""
    return LinearSystem.from_data(
        2, 2, 1,
        [[["t1", 0], [0, 0]], [[0, 0], [0, "t2"]]],
        [[[1], [0]], [[0], [1]]],
        domain=[[-1, 2], [-1, 2]])


def rk4_chi(sys, curve, cfg):
    """chi along the polyline `curve` by RK4 alone, also for a constant
    system: one propagator of the library's stepper per segment, composed
    in order from X = I."""
    X = np.eye(sys.n)
    for a, b in zip(curve.waypoints[:-1], curve.waypoints[1:]):
        if np.any(b != a):
            X = _rk4(sys, a[None], b, cfg)[0] @ X
    return X


def term_by_term_integral(value, curve, shape, cfg=DEFAULT_CONFIG):
    """The Gauss-Legendre curvilinear integral of P_alpha = value(alpha,
    nodes) along `curve`, one term at a time: on each segment that moves,
    every advancing direction gives its own (Q, r, c) values on the
    segment's Gauss nodes ((1, r, c) when they do not depend on the
    point), and the terms w_q delta^alpha P_alpha(node_q) are added
    node-major, direction-minor into a segment sum that starts at zero;
    the segment sums are added in order."""
    x, w = np.polynomial.legendre.leggauss(cfg.quad_points_per_segment)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    total = np.zeros(shape)
    for a, b in zip(curve.waypoints[:-1], curve.waypoints[1:]):
        delta = b - a
        if not np.any(delta):
            continue
        points = (1.0 - nodes)[:, None] * a + nodes[:, None] * b
        advancing = [alpha for alpha in range(1, len(delta) + 1)
                     if delta[alpha - 1] != 0.0]
        values = [np.broadcast_to(value(alpha, points), (len(nodes),) + shape)
                  for alpha in advancing]
        seg = np.zeros(shape)
        for q, weight in enumerate(weights):
            for alpha, values_alpha in zip(advancing, values):
                seg += weight * delta[alpha - 1] * values_alpha[q]
        total += seg
    return total


def per_direction_forced_solve(sys, F_value, t0, x0, t, curve,
                               cfg=DEFAULT_CONFIG):
    """chi(t, t0) x0 + the integral of chi(t, s) F_alpha(s) ds^alpha along
    `curve`, one direction at a time: every direction that advances on a
    segment takes its own chi(t, s) on the segment's Gauss nodes and its
    own F_alpha = F_value(alpha, nodes) (P, n, 1), summed term by term
    (`term_by_term_integral`)."""
    t0, t = as_point(t0, m=sys.m), as_point(t, m=sys.m)
    forced = term_by_term_integral(
        lambda alpha, s: transition(sys, t, s, cfg) @ F_value(alpha, s),
        curve, (sys.n, 1), cfg)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    return transition(sys, t, t0, cfg) @ x0 + forced[:, 0]


def per_direction_control_forcing(sys, u, cfg=DEFAULT_CONFIG):
    """F_alpha = N_alpha u_alpha for `per_direction_forced_solve`, with
    u_alpha on its own: a `SynthesizedControl` takes its own
    chi(t0, s)' v per direction, a `ControlFamily` evaluates member alpha."""
    def u_value(alpha, s):
        if isinstance(u, SynthesizedControl):
            weight = (_T(transition(sys, u.anchor, s, cfg)) @ u.v)[..., None]
            return (_T(sys.N[alpha - 1](s)) @ weight)[..., 0]
        return u.members[alpha - 1](s)[..., 0]

    return lambda alpha, s: sys.N[alpha - 1](s) @ u_value(alpha, s)[..., None]
