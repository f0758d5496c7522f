import math

import numpy as np
import pytest

from mtcontrol import (CompatibilityError, LinearSystem, candidate_control,
                       check_control_compat, solve_homogeneous,
                       synthesize_transfer, verify_transfer)
from mtcontrol.flow import transition

from conftest import axis_scaled_system, random_passing_system


def test_zero_candidate_is_always_valid(cyclic_sys, diag_sys):
    for sys in (diag_sys, cyclic_sys):
        u = candidate_control(sys, np.zeros(sys.m), np.zeros(sys.n))
        assert u.valid
        for alpha in range(1, sys.m + 1):
            assert np.array_equal(u(np.ones(sys.m) * 0.3)[alpha - 1, :, 0],
                                  np.zeros(sys.k))


def test_diag_candidate_closed_form(diag_sys):
    u = candidate_control(diag_sys, (0, 0), (1, 0))
    assert u.valid
    for s1, s2 in ((0.0, 0.0), (0.5, 2.0), (1.0, -1.0)):
        s = (s1, s2)
        assert u(s)[0, 0, 0] == pytest.approx(math.exp(-s1), rel=1e-12)
        assert u(s)[1, 0, 0] == 0.0


def varying_N_system():
    """M1 = diag(t1, 0), M2 = diag(0, t2) (they commute) with a time-varying
    N whose members depend on both variables, so every dN_a/dt^b != 0."""
    return LinearSystem.from_data(
        2, 2, 1,
        [[["t1", 0], [0, 0]], [[0, 0], [0, "t2"]]],
        [[["cos(t2)"], ["t1 * t2"]], [["exp(t1)"], ["sin(t1 + t2)"]]],
        domain=[[-1, 2], [-1, 2]])


def test_candidate_derivative_matches_finite_differences(diag_sys):
    h = 1e-6
    s = np.array([0.3, 0.9])
    A, B = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    for sys in (diag_sys, varying_N_system()):
        u = candidate_control(sys, (0, 0), (0.7, -0.4))
        derivatives = u.derivatives(s[None], A, B)[:, 0, :, 0]
        for alpha, beta, derivative in zip(A + 1, B + 1, derivatives):
            sp, sm = s.copy(), s.copy()
            sp[beta - 1] += h
            sm[beta - 1] -= h
            fd = (u(sp)[alpha - 1, :, 0] - u(sm)[alpha - 1, :, 0]) / (2 * h)
            assert np.allclose(derivative, fd, rtol=1e-6, atol=1e-6)


class _TwoChiRoute:
    """The control check's inputs as u(T) and u.derivatives(T, A, B) give
    them, each taking chi(t0, s) on the grid itself."""

    is_constant = False

    def __init__(self, u):
        self.u = u

    def jet(self, T, A, B):
        return self.u(T), self.u.derivatives(T, A, B)


@pytest.mark.parametrize("make", [axis_scaled_system, varying_N_system])
def test_control_check_takes_chi_once(make, monkeypatch):
    import mtcontrol.synth
    sys = make()
    u = candidate_control(sys, (0.0, 0.0), (0.7, -0.4))
    reference = check_control_compat(sys, _TwoChiRoute(u))
    calls = []
    original = mtcontrol.synth.transition

    def counting(*args):
        calls.append(np.shape(args[2]))
        return original(*args)

    monkeypatch.setattr(mtcontrol.synth, "transition", counting)
    report = check_control_compat(sys, u)
    assert len(calls) == 1 and len(calls[0]) == 2  # one batch of grid points
    assert (report.condition_name, report.max_residual, report.passed,
            report.worst_pair) == (reference.condition_name, reference.max_residual,
                                   reference.passed, reference.worst_pair)
    assert np.array_equal(report.worst_point, reference.worst_point)


def test_cyclic_candidate_flagged_invalid(cyclic_sys):
    u = candidate_control(cyclic_sys, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert not u.valid
    assert not u.gramian_condition.passed


def test_synthesize_free_evolution_gives_zero_control(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 0.5)
    x0 = np.array([0.4, -1.2])
    y = transition(diag_sys, t, t0) @ x0
    result = synthesize_transfer(diag_sys, t0, x0, t, y)
    assert result.feasible
    assert np.allclose(result.control.v, 0.0, atol=1e-12)
    check = verify_transfer(diag_sys, result.control, t0, x0, t, target=y)
    assert check.error <= 1e-10


def test_synthesize_diag_example(diag_sys):
    result = synthesize_transfer(diag_sys, (0, 0), (1, 0), (1, 0), (0, 0))
    assert result.feasible
    expected_v = -2.0 / (1.0 - math.exp(-2))
    assert result.control.v[0] == pytest.approx(expected_v, rel=1e-9)
    assert result.control.v[1] == pytest.approx(0.0, abs=1e-12)
    assert result.ordering == "pseudo"
    check = verify_transfer(diag_sys, result.control, (0, 0), (1, 0), (1, 0),
                            target=(0, 0))
    assert check.error <= 1e-8


def test_synthesize_infeasible_target(diag_sys):
    result = synthesize_transfer(diag_sys, (0, 0), (0, 1), (1, 0), (0, 0))
    assert not result.feasible
    assert result.residual == pytest.approx(1.0, rel=1e-9)


def test_verify_zero_control_endpoint(diag_sys):
    u = candidate_control(diag_sys, (0, 0), (0.0, 0.0))
    x0 = (2.0, 3.0)
    check = verify_transfer(diag_sys, u, (0, 0), x0, (1, 1))
    free = solve_homogeneous(diag_sys, (0, 0), x0, (1, 1))
    assert np.allclose(check.endpoint, free, atol=1e-10)
    assert check.error is None


def test_verify_rejects_invalid_control(cyclic_sys):
    u = candidate_control(cyclic_sys, np.zeros(3), np.ones(3))
    with pytest.raises(CompatibilityError):
        verify_transfer(cyclic_sys, u, np.zeros(3), np.zeros(3), np.ones(3))


def test_endpoint_is_affine_linear_in_v(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 1.0)
    x0 = np.array([0.5, 0.5])
    free = solve_homogeneous(diag_sys, t0, x0, t)

    def forced(v):
        u = candidate_control(diag_sys, t0, v)
        return verify_transfer(diag_sys, u, t0, x0, t).endpoint - free

    v1 = np.array([1.0, -2.0])
    v2 = np.array([0.3, 0.7])
    assert np.linalg.norm(forced(v1 + v2) - forced(v1) - forced(v2)) <= 1e-9


def test_perturbing_v_shifts_endpoint_through_the_gramian(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 0.0)
    x0 = np.array([1.0, 0.0])
    result = synthesize_transfer(diag_sys, t0, x0, t, (0.0, 0.0))
    delta = np.array([0.0, 1.0])
    u2 = candidate_control(diag_sys, t0, result.control.v + delta)
    check = verify_transfer(diag_sys, u2, t0, x0, t, target=(0.0, 0.0))
    # endpoint shift = chi(t, t0) C(t0, t) delta; here C delta = 0
    assert check.error <= 1e-8


def test_round_trip_on_random_passing_systems():
    rng = np.random.default_rng(123)
    for _ in range(5):
        sys, _ = random_passing_system(rng, m=2)
        t0 = rng.uniform(-0.5, 0.0, size=2)
        t = t0 + rng.uniform(0.5, 1.0, size=2)
        x0 = rng.standard_normal(4)
        # target inside the reachable affine set by construction
        from mtcontrol import controllability_gramian
        C = controllability_gramian(sys, t0, t).value
        w = C @ rng.standard_normal(4)
        y = np.linalg.solve(transition(sys, t0, t), x0 - w)
        result = synthesize_transfer(sys, t0, x0, t, y)
        assert result.feasible
        check = verify_transfer(sys, result.control, t0, x0, t, target=y)
        assert check.error <= 1e-7 * (1 + np.linalg.norm(y))
        # candidate controls are accepted by the membership check
        assert check_control_compat(sys, result.control).passed


def test_describe_and_sample(diag_sys):
    u = candidate_control(diag_sys, (0, 0), (1.0, 0.0))
    text = u.describe()
    assert "v = (1, 0)" in text
    rows = u.sample([(0.0, 0.0), (1.0, 0.0)])
    assert rows[0]["u"][0] == [1.0]
    assert rows[1]["u"][0][0] == pytest.approx(math.exp(-1))


@pytest.mark.parametrize("m", [2, 3])
def test_constant_round_trip_takes_one_chi_per_node_batch(m, monkeypatch):
    # one segment: chi(t, s) and chi(t0, s) on the 16 Gauss nodes, for all
    # directions at once, and chi(t, t0) for the free part
    import mtcontrol.flow
    sys, _ = random_passing_system(np.random.default_rng(m), m=m)
    t0, t = np.zeros(m), np.ones(m)
    x0 = np.ones(sys.n)
    result = synthesize_transfer(sys, t0, x0, t, np.zeros(sys.n))
    calls = []
    original = mtcontrol.flow.expm

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(mtcontrol.flow, "expm", counting)
    verify_transfer(sys, result.control, t0, x0, t)
    assert len(calls) == 2 * 16 + 1
