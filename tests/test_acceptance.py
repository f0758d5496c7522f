"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria mix exact reproduction of the two reference systems (the diagonal
two-time system and the cyclic three-time system from conftest) with
property suites over randomly generated commuting families.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from mtcontrol import (CompatibilityError, LinearSystem, MatrixFamily,
                       NumericConfig, check_control_compat, check_gramian_compat,
                       check_M_commutation, controllability_gramian,
                       controllability_matrix, rank_G, reachability_gramian,
                       solve_adjoint, solve_homogeneous, synthesize_transfer,
                       verify_transfer)
from mtcontrol.core import curve_segment, staircase
from mtcontrol.flow import transition
from mtcontrol.gramian import gramian_integrand, numerical_rank
from mtcontrol.pathint import integrate_along
from mtcontrol.expr import differentiate

from conftest import random_commuting_system, random_passing_system, rk4_chi
from test_expr import _central_difference, _random_expr

# The fixed 256-step default leaves ~1e-8 truncation error on the widest
# random instances; 1024 steps puts RK4 comfortably inside the 1e-9 band.
RK4_CONFIG = NumericConfig(ode_steps_per_segment=1024)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({name}): FAIL")
        raise
    print(f"acceptance {number} ({name}): PASS")


def test_criterion_1_gramian_closed_form(diag_sys):
    with criterion(1, "gramian closed form"):
        start = time.perf_counter()
        for t1 in (0.5, 1.0, 2.0):
            C = controllability_gramian(diag_sys, (0, 0), (t1, 0)).value
            expected = (1 - math.exp(-2 * t1)) / 2
            assert abs(C[0, 0] - expected) <= 1e-8 * expected
            assert abs(C[0, 1]) <= 1e-10
            assert abs(C[1, 0]) <= 1e-10
            assert abs(C[1, 1]) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_2_rank_gap(diag_sys):
    with criterion(2, "rank gap"):
        C = controllability_gramian(diag_sys, (0, 0), (1, 0)).value
        G = controllability_matrix(diag_sys)
        assert numerical_rank(C) == 1
        assert rank_G(G) == 2


def test_criterion_3_cyclic_system_suite(cyclic_sys):
    with criterion(3, "cyclic three-time system"):
        assert check_M_commutation(cyclic_sys).passed
        gramian_report = check_gramian_compat(cyclic_sys)
        assert not gramian_report.passed
        assert gramian_report.max_residual > 0.1
        assert rank_G(controllability_matrix(cyclic_sys)) == 3
        # nonzero constant controls are rejected: the control space is {0}
        rng = np.random.default_rng(100)
        candidates = [np.eye(3)[i] for i in range(3)]
        candidates += [-np.eye(3)[i] for i in range(3)]
        candidates += list(rng.standard_normal((10, 3)))
        for c in candidates:
            u = MatrixFamily.from_data([[c[0]], [c[1]], [c[2]]], 3)
            assert not check_control_compat(cyclic_sys, u).passed
        # the zero control is the single member that passes
        assert check_control_compat(cyclic_sys, MatrixFamily.from_data([[0]] * 3, 3)).passed
        with pytest.raises(CompatibilityError):
            controllability_gramian(cyclic_sys, (0, 0, 0), (1, 1, 1))
        with pytest.raises(CompatibilityError):
            reachability_gramian(cyclic_sys, (0, 0, 0), (1, 1, 1))


def test_criterion_4_rank_equality_and_inequality():
    with criterion(4, "autonomous rank equality"):
        start = time.perf_counter()
        rng = np.random.default_rng(2001)
        for _ in range(50):
            m = int(rng.integers(2, 4))
            sys, r = random_passing_system(rng, m)
            assert check_gramian_compat(sys).passed
            rg = rank_G(controllability_matrix(sys))
            assert rg == r
            # equality under strict componentwise ordering
            t0 = rng.uniform(-1.0, 0.0, size=m)
            t = t0 + rng.uniform(0.3, 1.0, size=m)
            rc = numerical_rank(controllability_gramian(sys, t0, t).value)
            assert rc == rg
            # the inequality holds for arbitrary endpoint pairs
            t0u, tu = rng.uniform(-1, 1, size=(2, m))
            rcu = numerical_rank(controllability_gramian(sys, t0u, tu).value)
            assert rcu <= rg
        assert time.perf_counter() - start < 30.0


def test_criterion_5_flow_identity_suite():
    with criterion(5, "fundamental matrix identities"):
        start = time.perf_counter()
        rng = np.random.default_rng(2002)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            sys = random_commuting_system(rng, n=n, m=m, k=1)
            t0, t1, t2 = rng.uniform(-1, 1, size=(3, m))
            chi_21 = transition(sys, t2, t1)
            chi_10 = transition(sys, t1, t0)
            chi_20 = transition(sys, t2, t0)
            assert np.linalg.norm(chi_21 @ chi_10 - chi_20) <= 1e-9
            assert np.linalg.norm(
                chi_10 @ transition(sys, t0, t1) - np.eye(n)) <= 1e-9
            assert np.array_equal(transition(sys, t0, t0), np.eye(n))
            x0 = rng.standard_normal(n)
            phi0 = rng.standard_normal(n)
            x = solve_homogeneous(sys, t0, x0, t1)
            phi = solve_adjoint(sys, t0, phi0, t1)
            assert abs(x @ phi - x0 @ phi0) <= 1e-9 * (1 + abs(x0 @ phi0))
            assert np.linalg.norm(
                chi_10 - transition(sys, t1 - t0, np.zeros(m))) <= 1e-9
            rk4 = rk4_chi(sys, curve_segment(t0, t1), RK4_CONFIG)
            assert np.linalg.norm(chi_10 - rk4) <= 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_6_path_independence_witness(diag_sys, cyclic_sys):
    with criterion(6, "path independence witness"):
        P = gramian_integrand(diag_sys, (0.0, 0.0))
        t0, t = np.zeros(2), np.ones(2)
        seg = integrate_along(P, curve_segment(t0, t))
        stairs = integrate_along(P, staircase(t0, t))
        assert np.linalg.norm(seg - stairs) <= 1e-9

        Q = gramian_integrand(cyclic_sys, np.zeros(3))
        t0, t = np.zeros(3), np.ones(3)
        seg = integrate_along(Q, curve_segment(t0, t))
        stairs = integrate_along(Q, staircase(t0, t))
        assert np.linalg.norm(seg - stairs) > 1e-3


def test_criterion_7_synthesis_round_trip():
    with criterion(7, "synthesis round trip"):
        start = time.perf_counter()
        rng = np.random.default_rng(2003)
        for _ in range(25):
            m = int(rng.integers(2, 4))
            sys, _r = random_passing_system(rng, m)
            t0 = rng.uniform(-0.5, 0.0, size=m)
            t = t0 + rng.uniform(0.4, 1.0, size=m)
            x0 = rng.standard_normal(4)
            # a feasible target: free endpoint shifted by a gramian image vector
            C = controllability_gramian(sys, t0, t).value
            w = C @ rng.standard_normal(4)
            y = np.linalg.solve(transition(sys, t0, t), x0 - w)
            result = synthesize_transfer(sys, t0, x0, t, y)
            assert result.decision.feasible
            check = verify_transfer(sys, result.control, t0, x0, t, target=y)
            assert check.error <= 1e-7 * (1 + np.linalg.norm(y))
            assert check_control_compat(sys, result.control).passed
        assert time.perf_counter() - start < 60.0


def test_criterion_8_single_time_reduction():
    with criterion(8, "single-time reduction"):
        rng = np.random.default_rng(2004)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 3))
            M = rng.standard_normal((n, n))
            N = rng.standard_normal((n, k))
            if rng.random() < 0.4:
                # force an uncontrollable pair: input blind to the last mode
                M = np.diag(rng.standard_normal(n))
                N[-1, :] = 0.0
            sys = LinearSystem.from_data(1, n, k, [M.tolist()], [N.tolist()])
            G = controllability_matrix(sys)
            classical = np.hstack([np.linalg.matrix_power(M, j) @ N
                                   for j in range(n)])
            assert np.array_equal(G.value, classical)
            # classical single-time gramian by direct quadrature
            x, w = np.polynomial.legendre.leggauss(32)
            s = 0.5 * (x + 1)
            oracle = sum(wi * 0.5 * (expm(-si * M) @ N) @ (expm(-si * M) @ N).T
                         for si, wi in zip(s, w))
            oracle_verdict = numerical_rank(oracle) == n
            got = numerical_rank(
                controllability_gramian(sys, (0.0,), (1.0,)).value) == n
            assert got == oracle_verdict
            assert got == (rank_G(G) == n)


def test_criterion_9_expression_derivatives():
    with criterion(9, "expression derivatives"):
        rng = np.random.default_rng(2005)
        checked = 0
        while checked < 200:
            m = int(rng.integers(1, 4))
            e = _random_expr(rng, m, depth=4)
            alpha = int(rng.integers(1, m + 1))
            d = differentiate(e, alpha)
            point = rng.uniform(-1, 1, size=m)
            exact = d(point)
            approx = _central_difference(e, point, alpha)
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))
            checked += 1
