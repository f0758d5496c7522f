import numpy as np
import pytest

from mtcontrol import LinearSystem


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
