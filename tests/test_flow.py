import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from mtcontrol import (CompatibilityError, LinearSystem, MatrixFamily,
                       check_control_compat, fundamental_matrix,
                       solve_adjoint, solve_affine, solve_controlled,
                       solve_homogeneous)
from mtcontrol.core import DEFAULT_CONFIG, PolylineCurve, curve_segment, staircase
from mtcontrol.flow import _controlled_solve, transition
from mtcontrol.synth import SynthesizedControl
from mtcontrol.system import MatrixFunction

from conftest import (axis_scaled_system, passing_case,
                      per_direction_control_forcing, per_direction_forced_solve,
                      random_commuting_system, rk4_chi)


def test_diag_flow_closed_form(diag_sys):
    for t1, t2 in ((1.0, 0.0), (0.5, 2.0), (-1.0, 3.0)):
        chi = transition(diag_sys, (t1, t2), (0, 0))
        assert np.allclose(chi, np.diag([math.exp(t1), 1.0]), rtol=1e-12)


def test_identity_at_start(diag_sys, cyclic_sys):
    for sys in (diag_sys, cyclic_sys):
        t0 = np.zeros(sys.m) + 0.3
        fm = fundamental_matrix(sys, t0, t0)
        assert np.array_equal(fm.value, np.eye(sys.n))


def test_cyclic_flow_matches_taylor_oracle(cyclic_sys):
    M = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    # 20-term Taylor series of e^M
    taylor = np.zeros((3, 3))
    term = np.eye(3)
    for j in range(20):
        taylor += term
        term = term @ M / (j + 1)
    chi = transition(cyclic_sys, (1, 0, 0), (0, 0, 0))
    assert np.allclose(chi, taylor, atol=1e-12)
    # sum-dependence: same total offset gives the same flow
    chi2 = transition(cyclic_sys, (0.2, 0.5, 0.3), (0, 0, 0))
    assert np.allclose(chi2, taylor, atol=1e-12)


def test_fundamental_matrix_gated_on_commutation():
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        [[[0], [0]], [[0], [0]]])
    with pytest.raises(CompatibilityError):
        fundamental_matrix(sys, (1, 1), (0, 0))


def test_cocycle_inverse_translation_on_random_families():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        sys = random_commuting_system(rng, n=n, m=m, k=1)
        t0, t1, t2 = rng.uniform(-1, 1, size=(3, m))
        a = transition(sys, t2, t1)
        b = transition(sys, t1, t0)
        c = transition(sys, t2, t0)
        assert np.linalg.norm(a @ b - c) <= 1e-9
        assert np.linalg.norm(
            transition(sys, t1, t0) @ transition(sys, t0, t1) - np.eye(n)) <= 1e-9
        # autonomous translation invariance
        assert np.allclose(transition(sys, t1, t0),
                           transition(sys, t1 - t0, np.zeros(m)), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_chi_composes_and_inverts(kind, m, seed):
    sys, (t0, s, t) = passing_case(kind, m, seed, 3)
    norm = np.linalg.norm
    a, b, c = transition(sys, t, s), transition(sys, s, t0), transition(sys, t, t0)
    # chi(t, s) chi(s, t0) = chi(t, t0): on the time-varying route the three
    # fixed-step RK4 segments differ by their truncation error, up to 8.2e-10
    # relative on the box (1.4e-12 on [-1, 1]^2)
    tol = 1e-10 if kind == "constant" else 1e-8
    assert norm(a @ b - c) <= tol * norm(a) * norm(b)
    # chi(t, t0) chi(t0, t) = I
    d = transition(sys, t0, t)
    assert norm(c @ d - np.eye(sys.n)) <= 1e-10 * norm(c) * norm(d)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_adjoint_pairing_is_conserved(kind, m, seed):
    # <phi(t), x(t)> = <phi0, x0>, with x(t) = chi(t, t0) x0 and
    # phi(t) = chi(t0, t)' phi0 taken by two separate transitions; 800 draws
    # measured at most 9.6e-12 relative
    sys, (t0, t) = passing_case(kind, m, seed, 2)
    x0, phi0 = np.random.default_rng([seed, 2]).standard_normal((2, sys.n))
    x = solve_homogeneous(sys, t0, x0, t)
    phi = solve_adjoint(sys, t0, phi0, t)
    assert abs(phi @ x - phi0 @ x0) <= 1e-10 * np.linalg.norm(phi) * np.linalg.norm(x)


def test_rk4_agrees_with_expm_on_constant_systems():
    rng = np.random.default_rng(5)
    for _ in range(5):
        sys = random_commuting_system(rng, n=3, m=2, k=1)
        t0, t = rng.uniform(-1, 1, size=(2, 2))
        exact = transition(sys, t, t0)
        rk4 = rk4_chi(sys, curve_segment(t0, t), sys_cfg())
        assert np.linalg.norm(exact - rk4) <= 1e-9


def sys_cfg():
    from mtcontrol import DEFAULT_CONFIG
    return DEFAULT_CONFIG


def _nilpotent_system():
    """M_a(t) = f_a(t^a) J with a nilpotent J, so chi has off-diagonal terms."""
    return LinearSystem.from_data(
        2, 2, 1,
        [[[0, "2*t1"], [0, 0]], [[0, "3*t2^2"], [0, 0]]],
        [[[1], [0]], [[0], [1]]],
        domain=[[-2, 2], [-2, 2]])


def test_time_varying_flow_matches_closed_form():
    # M_a(t) = f_a(t^a) * J with one nilpotent J: chi = expm(J * (F1 + F2))
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys = _nilpotent_system()
    assert sys.M.is_constant is False
    t0, t = np.array([0.0, 0.0]), np.array([1.5, 1.0])
    phase = (t[0] ** 2 - t0[0] ** 2) + (t[1] ** 3 - t0[1] ** 3)
    exact = expm(J * phase)
    chi = transition(sys, t, t0)
    assert np.linalg.norm(chi - exact) <= 1e-9
    # path independence: RK4 along the staircase gives the same value
    chi_stairs = rk4_chi(sys, staircase(t0, t), sys_cfg())
    assert np.linalg.norm(chi_stairs - exact) <= 1e-9


def test_derivative_relation_of_inverse_flow():
    # d/dt^a chi(t0, t) = -chi(t0, t) M_a(t), checked by finite differences
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys = _nilpotent_system()
    t0 = np.array([0.1, 0.2])
    t = np.array([0.8, 0.6])
    h = 1e-6
    for alpha in (1, 2):
        tp, tm = t.copy(), t.copy()
        tp[alpha - 1] += h
        tm[alpha - 1] -= h
        fd = (transition(sys, t0, tp) - transition(sys, t0, tm)) / (2 * h)
        exact = -transition(sys, t0, t) @ sys.M[alpha - 1](t)
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6)


def test_solve_homogeneous_examples(diag_sys):
    assert np.array_equal(
        solve_homogeneous(diag_sys, (0, 0), (0, 0), (1, 2)), [0.0, 0.0])
    x = solve_homogeneous(diag_sys, (0, 0), (1, 1), (1, 0))
    assert np.allclose(x, [math.e, 1.0], rtol=1e-12)
    assert np.allclose(
        solve_homogeneous(diag_sys, (0.5, 0.5), (3, 4), (0.5, 0.5)), [3, 4])


def test_solve_adjoint_examples(diag_sys):
    assert np.array_equal(
        solve_adjoint(diag_sys, (0, 0), (0, 0), (1, 0)), [0.0, 0.0])
    phi = solve_adjoint(diag_sys, (0, 0), (1, 1), (1, 0))
    assert np.allclose(phi, [math.exp(-1), 1.0], rtol=1e-12)


@pytest.mark.parametrize("solve", [
    lambda sys: solve_homogeneous(sys, (0, 0), (1e308, 1e308), (1, 1)),
    lambda sys: solve_adjoint(sys, (1, 1), (1e308, 0), (0, 0)),
    lambda sys: solve_controlled(sys, MatrixFamily.from_data([[0]] * 2, 2), (0, 0),
                                 (1e308, 0), (1, 1)),
], ids=["homogeneous", "adjoint", "controlled"])
def test_an_overflowing_solution_is_a_named_error(diag_sys, solve):
    # chi = diag(e, 1) is finite, e * 1e308 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^solution overflowed "
                           r"\(non-finite entries\) at t$"):
            solve(diag_sys)


@pytest.mark.parametrize("u", [MatrixFamily.from_data([["t1", 0], ["t2", 0]], 2),
                               MatrixFamily.from_data([["t1"]], 1)],
                         ids=["k_plus_1_rows", "m_minus_1_members"])
@pytest.mark.parametrize("route", ["check", "solve"])
@pytest.mark.parametrize("varying", [False, True], ids=["constant", "varying"])
def test_a_control_of_the_wrong_size_is_named(diag_sys, varying, route, u):
    # each of m = 2 members must be a k x 1 = 1 x 1 column; the family is
    # sized before it is evaluated, on either system
    sys = axis_scaled_system() if varying else diag_sys
    call = {"check": lambda: check_control_compat(sys, u),
            "solve": lambda: solve_controlled(sys, u, (0, 0), (1, 0), (1, 1))}
    with pytest.raises(ValueError, match=rf"^u must have 2 members of shape "
                       rf"\(1, 1\), got {u.m} of shape \({u.shape[0]}, 1\)$"):
        call[route]()


@pytest.mark.parametrize("x0, message", [
    ((math.nan, 0.0), r"^point coordinates must be finite, got \[nan  0\.\]$"),
    ((1.0, 2.0, 3.0), r"^expected point of dimension 2, got 3$"),
], ids=["nan", "three_entries"])
@pytest.mark.parametrize("solve", [
    lambda sys, x0: solve_homogeneous(sys, (0, 0), x0, (1, 1)),
    lambda sys, x0: solve_adjoint(sys, (0, 0), x0, (1, 1)),
    lambda sys, x0: solve_controlled(sys, MatrixFamily.from_data([[0]] * 2, 2), (0, 0),
                                     x0, (1, 1)),
], ids=["homogeneous", "adjoint", "controlled"])
def test_a_state_vector_goes_through_the_point_funnel(diag_sys, solve, x0, message):
    with pytest.raises(ValueError, match=message):
        solve(diag_sys, x0)
    # an (n, 1) column is still a state
    assert np.array_equal(solve(diag_sys, [[1.0], [2.0]]), solve(diag_sys, (1.0, 2.0)))


def test_adjoint_pairing_invariance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        sys = random_commuting_system(rng, n=4, m=2, k=1)
        x0 = rng.standard_normal(4)
        phi0 = rng.standard_normal(4)
        t0, t = rng.uniform(-1, 1, size=(2, 2))
        x = solve_homogeneous(sys, t0, x0, t)
        phi = solve_adjoint(sys, t0, phi0, t)
        assert x @ phi == pytest.approx(x0 @ phi0, rel=1e-9, abs=1e-9)


def test_solve_affine_zero_forcing_reduces_to_homogeneous(diag_sys):
    F = MatrixFamily.from_data([[[0], [0]], [[0], [0]]], 2)
    x0 = np.array([1.0, 2.0])
    a = solve_affine(diag_sys, F, (0, 0), x0, (1, 1))
    b = solve_homogeneous(diag_sys, (0, 0), x0, (1, 1))
    assert np.allclose(a, b, atol=1e-12)


def test_solve_affine_scalar_closed_form():
    # x' = x + 1 from x(0) = 0 has x(1) = e - 1
    sys = LinearSystem.from_data(1, 1, 1, [[[1]]], [[[1]]])
    F = MatrixFamily.from_data([[[1]]], 1)
    x = solve_affine(sys, F, (0,), (0,), (1,))
    assert x[0] == pytest.approx(math.e - 1, rel=1e-10)


def test_solve_affine_diag_constant_forcing(diag_sys):
    # F_a = N_a u_a with u = (1, 0): first component obeys x' = x + 1
    F = MatrixFamily.from_data([[[1], [0]], [[0], [0]]], 2)
    for t in ((1.0, 0.0), (0.5, 2.0)):
        x = solve_affine(diag_sys, F, (0, 0), (0, 0), t)
        assert np.allclose(x, [math.exp(t[0]) - 1, 0.0], rtol=1e-10, atol=1e-12)


def test_solve_affine_path_choice_is_immaterial(diag_sys):
    F = MatrixFamily.from_data([[[1], [0]], [[0], [0]]], 2)
    t0, t = (0.0, 0.0), (1.0, 1.0)
    a = solve_affine(diag_sys, F, t0, (0, 0), t)
    b = solve_affine(diag_sys, F, t0, (0, 0), t, curve=staircase(t0, t))
    assert np.linalg.norm(a - b) <= 1e-9


def test_solve_affine_gated_on_F_compatibility():
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        [[[0], [0]], [[0], [0]]])
    F = MatrixFamily.from_data([[[0], [0]], [[1], [0]]], 2)
    with pytest.raises(CompatibilityError):
        solve_affine(sys, F, (0, 0), (0, 0), (1, 1))


def test_solve_controlled_zero_control(diag_sys):
    u = MatrixFamily.from_data([[0]] * 2, 2)
    x0 = np.array([2.0, -1.0])
    a = solve_controlled(diag_sys, u, (0, 0), x0, (1, 1))
    b = solve_homogeneous(diag_sys, (0, 0), x0, (1, 1))
    assert np.allclose(a, b, atol=1e-12)


def test_solve_controlled_constant_control(diag_sys):
    u = MatrixFamily.from_data([[1], [0]], 2)
    x = solve_controlled(diag_sys, u, (0, 0), (0, 0), (1, 0))
    assert np.allclose(x, [math.e - 1, 0.0], rtol=1e-10, atol=1e-12)


def test_solve_controlled_rejects_out_of_space_control(cyclic_sys):
    u = MatrixFamily.from_data([[1], [1], [1]], 3)
    with pytest.raises(CompatibilityError):
        solve_controlled(cyclic_sys, u, (0, 0, 0), (0, 0, 0), (1, 1, 1))


def test_condition_number_reported(diag_sys):
    fm = fundamental_matrix(diag_sys, (1, 0), (0, 0))
    assert fm.condition_number == pytest.approx(math.e, rel=1e-10)


def test_ill_conditioned_flow_warns(diag_sys):
    with pytest.warns(RuntimeWarning):
        fundamental_matrix(diag_sys, (40.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("M, x", [([[-800.0]], [0.0]),
                                  ([[-800.0, 0.0], [0.0, 1.0]], [0.0, math.e])])
def test_underflowed_flow_still_solves(M, x):
    # e^-800 underflows to 0.0: correct to working precision, with a warning
    n = len(M)
    sys = LinearSystem.from_data(1, n, 1, [M], [np.ones((n, 1)).tolist()])
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        got = solve_homogeneous(sys, (0.0,), np.ones(n), (1.0,))
    assert got.tolist() == pytest.approx(x, rel=1e-14)


def test_rk4_matches_gaussian_closed_form():
    from mtcontrol import synthesize_transfer, verify_transfer
    sys = axis_scaled_system()
    for t0, t in (((0.0, 0.0), (0.8, 0.6)), ((0.5, -0.5), (1.0, 0.5)),
                  ((-0.5, 0.25), (0.5, 1.0))):
        chi = transition(sys, t, t0)
        for i in range(2):
            exact = math.exp((t[i] ** 2 - t0[i] ** 2) / 2)
            assert abs(chi[i, i] - exact) <= 1e-12
        assert chi[0, 1] == 0.0 and chi[1, 0] == 0.0
        x0, y = (1.0, -0.5), (0.3, 0.8)
        result = synthesize_transfer(sys, t0, x0, t, y)
        assert result.decision.feasible
        check = verify_transfer(sys, result.control, t0, x0, t, target=y)
        assert check.error <= 1e-12


def test_rk4_evaluates_each_member_once_per_segment(monkeypatch):
    from mtcontrol import NumericConfig
    from mtcontrol.system import MatrixFunction
    sys = axis_scaled_system()
    calls = []
    original = MatrixFunction.__call__

    def counting(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(MatrixFunction, "__call__", counting)
    counts = []
    for steps in (64, 256):
        calls.clear()
        transition(sys, (0.8, 0.6), (0.0, 0.0), NumericConfig(ode_steps_per_segment=steps))
        counts.append(len(calls))
        assert calls == [(2 * steps + 1, 2)] * 2  # one batch per advancing member
    assert counts[0] == counts[1]


@pytest.mark.parametrize("kind", ["constant", "axis_scaled", "nilpotent"])
def test_batched_transition_equals_stacked_single_calls(kind, cyclic_sys):
    sys = {"constant": cyclic_sys, "axis_scaled": axis_scaled_system(),
           "nilpotent": _nilpotent_system()}[kind]
    rng = np.random.default_rng(7)
    t = rng.uniform(-0.5, 1.0, size=sys.m)
    starts = rng.uniform(-0.5, 1.0, size=(6, sys.m))
    starts[2] = t                 # a start equal to the end
    starts[4, 0] = t[0]           # a start that does not move along axis 1
    batch = transition(sys, t, starts)
    single = np.stack([transition(sys, t, s) for s in starts])
    assert batch.shape == (6, sys.n, sys.n)
    assert np.array_equal(batch, single)
    assert np.array_equal(batch[2], np.eye(sys.n))


def _looped_constant_transition(sys, t, starts):
    """The per-point, per-direction loop that the generator stack replaced,
    kept as the reference: the sum of delta^a M_a for each moving start,
    skipping directions with delta^a = 0, then one expm."""
    chi = np.repeat(np.eye(sys.n)[None], len(starts), axis=0)
    for p in np.flatnonzero(np.any(starts != t, axis=1)):
        acc = np.zeros((sys.n, sys.n))
        for alpha in range(sys.m):
            d = t[alpha] - starts[p, alpha]
            if d != 0.0:
                acc += d * sys.M[alpha](starts[p])
        chi[p] = expm(acc)
    return chi


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 4), P=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_constant_transition_equals_the_per_direction_loop(m, n, P, seed, data):
    # generic values, so that a change in the order of the sum shows
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, size=(m, n, n))
    N = MatrixFamily([MatrixFunction(np.ones((n, 1)), m)] * m)
    sys = LinearSystem(m, n, 1, MatrixFamily([MatrixFunction(a, m) for a in M]), N)
    points = rng.uniform(-2.0, 2.0, size=(P + 1, m))
    # zeros of both signs in place of some coordinates (NaN keeps one) ...
    zeros = data.draw(arrays(float, (P + 1, m),
                             elements=st.sampled_from([math.nan, 0.0, -0.0])))
    points = np.where(np.isnan(zeros), points, zeros)
    t, starts = points[0], points[1:]
    # ... and starts that do not advance along some axes: zero deltas
    starts = np.where(data.draw(arrays(bool, (P, m))), t, starts)
    reference = _looped_constant_transition(sys, t, starts)
    batch = transition(sys, t, starts)
    assert np.array_equal(batch, reference)
    assert np.array_equal(np.signbit(batch), np.signbit(reference))
    single = transition(sys, t, starts[0])
    assert np.array_equal(single, reference[0])
    assert np.array_equal(np.signbit(single), np.signbit(reference[0]))


@pytest.mark.parametrize("m", [1, 2])
def test_constant_transition_keeps_the_signs_of_the_loops_zeros(m):
    # delta M has -0.0 above the diagonal, and expm's triangular branch
    # carries the sign of a zero into chi: the generator must be a sum
    # started at +0.0, as the loop's is (M_2 = -M_1 does not move)
    M1 = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    M = [M1.tolist(), (-M1).tolist()][:m]
    sys = LinearSystem.from_data(m, 3, 1, M, [[[1], [0], [0]]] * m)
    t, starts = np.zeros(m), np.array([[4.0] + [0.0] * (m - 1)])
    reference = _looped_constant_transition(sys, t, starts)
    chi = transition(sys, t, starts)
    assert np.array_equal(chi, reference)
    assert np.array_equal(np.signbit(chi), np.signbit(reference))
    assert np.signbit(expm(-4.0 * M1)[0, 1]) != np.signbit(reference[0, 0, 1])


def test_constant_transition_evaluates_no_member_of_M(monkeypatch):
    # the generators come from the family's own (m, n, n) array
    rng = np.random.default_rng(11)
    sys = random_commuting_system(rng, n=3, m=3, k=1)
    members = sys.M.members
    calls = []
    original = MatrixFunction.__call__

    def counting(self, t):
        if any(self is M for M in members):
            calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(MatrixFunction, "__call__", counting)
    t = np.array([0.5, -0.2, 0.9])
    single = transition(sys, t, np.zeros(3))
    batch = transition(sys, t, rng.uniform(-1.0, 1.0, (5, 3)))
    assert calls == []
    assert single.shape == (3, 3) and batch.shape == (5, 3, 3)


def test_rk4_chi_composes_the_batched_stepper_over_segments():
    sys = _nilpotent_system()
    t0, t = np.array([0.0, 0.0]), np.array([1.5, 1.0])
    assert np.array_equal(rk4_chi(sys, curve_segment(t0, t), sys_cfg()),
                          transition(sys, t, t0))
    degenerate = rk4_chi(sys, PolylineCurve(np.stack([t0, t0, t])), sys_cfg())
    assert np.array_equal(degenerate, transition(sys, t, t0))


def _sequential_rk4(sys, t, t0, steps):
    """The step loop that `_rk4` replaced, kept as the reference: the same
    stage matrices, one RK4 step at a time from X = I."""
    t, t0 = np.asarray(t, dtype=float), np.asarray(t0, dtype=float)
    delta = t - t0
    h = 1.0 / steps

    def A(tau):
        point = t0 + tau * delta
        return sum(d * sys.M[a](point) for a, d in enumerate(delta) if d != 0.0)

    half, sixth = 0.5 * h, h / 6.0
    X = np.eye(sys.n)
    for j in range(steps):
        s = j * h
        A1, A2, A3 = A(s), A(s + half), A(s + h)
        k1 = A1 @ X
        k2 = A2 @ (X + half * k1)
        k3 = A2 @ (X + half * k2)
        k4 = A3 @ (X + h * k3)
        X = X + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


def _random_polynomial_system():
    """A seeded 3x3 family whose entries are polynomials in t1 and t2; the
    reference comparison needs no commutation, so none is imposed."""
    rng = np.random.default_rng(11)
    n = 3

    def entry(var):
        c = np.round(rng.uniform(-1.0, 1.0, size=3), 3)
        return f"({c[0]})+({c[1]})*{var}+({c[2]})*t1*t2"

    M = [[[entry(var) for _ in range(n)] for _ in range(n)] for var in ("t1", "t2^2")]
    N = [[[1.0]] + [[0.0]] * (n - 1), [[0.0]] * (n - 1) + [[1.0]]]
    return LinearSystem.from_data(2, n, 1, M, N, domain=[[-2, 2], [-2, 2]])


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 255, 256])
@pytest.mark.parametrize("kind", ["axis_scaled", "nilpotent", "random_polynomial"])
def test_step_propagators_match_the_sequential_step_loop(kind, steps):
    # odd step counts carry the last propagator through a pairwise level
    from mtcontrol import NumericConfig
    from mtcontrol.flow import _rk4
    sys = {"axis_scaled": axis_scaled_system, "nilpotent": _nilpotent_system,
           "random_polynomial": _random_polynomial_system}[kind]()
    cfg = NumericConfig(ode_steps_per_segment=steps)
    t = np.array([0.9, 0.7])
    starts = np.array([[-0.4, 0.1], [0.2, -0.6], [t[0], -0.2]])  # last: axis 1 still
    batch = transition(sys, t, starts, cfg)
    for p, t0 in enumerate(starts):
        reference = _sequential_rk4(sys, t, t0, steps)
        scale = np.linalg.norm(reference)
        assert np.linalg.norm(batch[p] - reference) <= 1e-13 * scale
        single = _rk4(sys, t0[None], t, cfg)
        assert single.shape == (1, sys.n, sys.n)
        assert np.linalg.norm(single[0] - reference) <= 1e-13 * scale


def test_rk4_converges_at_fourth_order():
    # halving the step must divide the error by about 2^4 = 16
    from mtcontrol import NumericConfig
    sys = axis_scaled_system()
    t0, t = (-0.5, 0.25), (1.5, 1.0)
    exact = np.diag([math.exp((t[i] ** 2 - t0[i] ** 2) / 2) for i in range(2)])
    errors = [np.max(np.abs(transition(sys, t, t0, NumericConfig(ode_steps_per_segment=s))
                            - exact)) for s in (8, 16, 32)]
    for coarse, fine in zip(errors[:-1], errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


@pytest.mark.parametrize("batch", [np.zeros((3, 3)), [[0.0, 0.5], [math.nan, 0.0]]],
                         ids=["wrong_width", "nan"])
@pytest.mark.parametrize("caller", ["matrix_function", "constant_transition",
                                    "time_varying_transition"])
def test_a_malformed_batch_of_points_is_refused(caller, batch, diag_sys):
    # MatrixFunction and transition share one validation funnel, core.as_points
    sys = axis_scaled_system()
    call = {"matrix_function": lambda: sys.M[0](batch),
            "constant_transition": lambda: transition(diag_sys, (1.0, 1.0), batch),
            "time_varying_transition": lambda: transition(sys, (1.0, 1.0), batch)}
    shape = np.shape(batch)
    with pytest.raises(ValueError) as exc:
        call[caller]()
    assert str(exc.value) == (f"expected a batch of finite multitimes of "
                              f"dimension 2, got shape {shape}")


def _forced_case(kind, m, seed, identical):
    """A system that passes M-commutation, a forcing F_a = M_a c that
    passes the F gate (M_a F_b = M_a M_b c is symmetric when the M_a
    commute), and generic endpoints inside the domain.  A constant system
    has identical members, and so passes Eq. 17, only when `identical`."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        sys = random_commuting_system(rng, n=3, m=m, k=2, identical_M=identical,
                                      identical_N=identical)
        c = rng.standard_normal(sys.n)
        F = MatrixFamily([MatrixFunction((M(np.zeros(m)) @ c)[:, None], m)
                          for M in sys.M])
        u = MatrixFamily.from_data(rng.standard_normal((m, sys.k, 1)).tolist(), m)
    else:
        sys = axis_scaled_system()
        c1, c2 = rng.uniform(-2.0, 2.0, size=2).tolist()
        F = MatrixFamily.from_data([[[f"{c1!r}*t1"], [0]], [[0], [f"{c2!r}*t2"]]], 2)
        u = MatrixFamily.from_data([[["t1*t2"]], [["cos(t1) - t2"]]], 2)
    t0, t = rng.uniform(-1.0, 2.0, size=(2, sys.m))
    return sys, F, u, t0, t, rng.standard_normal(sys.n), rng.standard_normal(sys.n)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1), stairs=st.booleans(),
       identical=st.booleans())
def test_forced_solves_equal_the_per_direction_formula(kind, m, seed, stairs,
                                                       identical):
    sys, F, u, t0, t, x0, v = _forced_case(kind, m, seed, identical)
    curve = staircase(t0, t) if stairs else curve_segment(t0, t)
    affine = solve_affine(sys, F, t0, x0, t, curve)
    expected = per_direction_forced_solve(sys, lambda a, s: F[a - 1](s),
                                          t0, x0, t, curve)
    assert np.array_equal(affine, expected)
    controls = [u]
    try:
        controls.append(SynthesizedControl(sys, t0, v))
    except CompatibilityError:  # distinct members fail Eq. 17: no such control
        assert kind == "constant" and not identical
    for control in controls:
        controlled = _controlled_solve(sys, control, t0, x0, t, curve,
                                       DEFAULT_CONFIG)
        expected = per_direction_forced_solve(
            sys, per_direction_control_forcing(sys, control), t0, x0, t, curve)
        assert np.array_equal(controlled, expected)
