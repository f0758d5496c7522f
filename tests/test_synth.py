import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtcontrol import (CompatibilityError, LinearSystem, SynthesizedControl,
                       check_control_compat, controllability_gramian,
                       decide_transfer, reachability_gramian, solve_homogeneous,
                       synthesize_transfer, verify_transfer)
from mtcontrol.core import DEFAULT_CONFIG, curve_segment
from mtcontrol.flow import transition
from mtcontrol.pathint import OneFormFamily, integrate_along
from mtcontrol.system import _T

from conftest import axis_scaled_system, passing_case, random_passing_system


def test_zero_candidate_is_always_valid(cyclic_sys, diag_sys):
    for sys in (diag_sys, cyclic_sys):
        u = SynthesizedControl(sys, np.zeros(sys.m), np.zeros(sys.n))
        assert (u.m, u.shape) == (sys.m, (sys.k, 1))  # sized as a control family
        for alpha in range(1, sys.m + 1):
            assert np.array_equal(u(np.ones(sys.m) * 0.3)[alpha - 1, :, 0],
                                  np.zeros(sys.k))


def test_diag_candidate_closed_form(diag_sys):
    u = SynthesizedControl(diag_sys, (0, 0), (1, 0))
    for s1, s2 in ((0.0, 0.0), (0.5, 2.0), (1.0, -1.0)):
        s = (s1, s2)
        assert u(s)[0, 0, 0] == pytest.approx(math.exp(-s1), rel=1e-12)
        assert u(s)[1, 0, 0] == 0.0


def varying_N_system():
    """M_a = dpsi/dt^a I with psi = t1 t2 (so M-commutation holds) and a
    time-varying N whose members depend on both variables, so every
    dN_a/dt^b != 0.  N_a = n_a (1, 2)' with n_a^2 = exp(2 psi) dphi/dt^a,
    phi = exp(t1) + exp(t2), makes exp(-2 psi) n_a^2 ds^a closed, which is
    gramian compatibility (Eq. 17)."""
    return LinearSystem.from_data(
        2, 2, 1,
        [[["t2", 0], [0, "t2"]], [["t1", 0], [0, "t1"]]],
        [[["exp(t1*t2 + t1/2)"], ["2*exp(t1*t2 + t1/2)"]],
         [["exp(t1*t2 + t2/2)"], ["2*exp(t1*t2 + t2/2)"]]],
        domain=[[-1, 2], [-1, 2]])


def test_candidate_derivative_matches_finite_differences(diag_sys):
    h = 1e-6
    s = np.array([0.3, 0.9])
    A, B = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    for sys in (diag_sys, varying_N_system()):
        u = SynthesizedControl(sys, (0, 0), (0.7, -0.4))
        derivatives = u.jet(s[None], A, B)[1][:, 0, :, 0]
        for alpha, beta, derivative in zip(A + 1, B + 1, derivatives):
            sp, sm = s.copy(), s.copy()
            sp[beta - 1] += h
            sm[beta - 1] -= h
            fd = (u(sp)[alpha - 1, :, 0] - u(sm)[alpha - 1, :, 0]) / (2 * h)
            assert np.allclose(derivative, fd, rtol=1e-6, atol=1e-6)


class _TwoChiRoute:
    """The control check's inputs u(T) and du_a/ds^b = -N_a' M_b' chi' v
    + (dN_a/ds^b)' chi' v, each taking chi = chi(t0, s) on the grid itself."""

    is_constant = False

    def __init__(self, u):
        self.u, self.m, self.shape = u, u.m, u.shape

    def jet(self, T, A, B):
        u, sys = self.u, self.u.system
        chi = transition(sys, u.anchor, T, u.cfg)
        w = (chi.swapaxes(-1, -2) @ u.v)[..., None]
        du = -sys.N(T)[A].swapaxes(-1, -2) @ sys.M(T)[B].swapaxes(-1, -2) @ w
        if not sys.N.is_constant:
            dN = np.stack([sys.N[a].diff(b + 1)(T) for a, b in zip(A, B)])
            du = du + dN.swapaxes(-1, -2) @ w
        return u(T), du


@pytest.mark.parametrize("make", [axis_scaled_system, varying_N_system])
def test_control_check_takes_chi_once(make, monkeypatch):
    import mtcontrol.synth
    sys = make()
    u = SynthesizedControl(sys, (0.0, 0.0), (0.7, -0.4))
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


def test_cyclic_candidate_is_refused_at_construction(cyclic_sys):
    with pytest.raises(CompatibilityError) as refusal:
        SynthesizedControl(cyclic_sys, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert refusal.value.report.condition_name == "gramian-compatibility (Eq. 17)"
    assert not refusal.value.report.passed


def test_a_synthesized_control_is_gated_when_it_is_built(cyclic_sys):
    # four fields: no flag can mark a family that is not a control as one
    assert [f.name for f in dataclasses.fields(SynthesizedControl)] == [
        "system", "anchor", "v", "cfg"]
    # Eq. 17 fails on the cyclic system (see the test above), yet the zero
    # control exists there: its round trip is the free evolution
    u = SynthesizedControl(cyclic_sys, np.zeros(3), np.zeros(3))
    x0, t = np.array([1.0, 2.0, 3.0]), np.ones(3)
    check = verify_transfer(cyclic_sys, u, np.zeros(3), x0, t)
    assert np.array_equal(check.endpoint, solve_homogeneous(cyclic_sys, np.zeros(3), x0, t))
    # M1 M2 != M2 M1: not even the zero control is built
    nilpotent = LinearSystem.from_data(2, 2, 1, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                                       [[[1], [0]], [[0], [1]]])
    with pytest.raises(CompatibilityError, match=r"M-commutation \(Eq\. 6\)"):
        SynthesizedControl(nilpotent, np.zeros(2), np.zeros(2))


def test_synthesize_free_evolution_gives_zero_control(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 0.5)
    x0 = np.array([0.4, -1.2])
    y = transition(diag_sys, t, t0) @ x0
    result = synthesize_transfer(diag_sys, t0, x0, t, y)
    assert result.decision.feasible
    assert np.allclose(result.control.v, 0.0, atol=1e-12)
    check = verify_transfer(diag_sys, result.control, t0, x0, t, target=y)
    assert check.error <= 1e-10


def test_synthesize_diag_example(diag_sys):
    result = synthesize_transfer(diag_sys, (0, 0), (1, 0), (1, 0), (0, 0))
    assert result.decision.feasible
    expected_v = -2.0 / (1.0 - math.exp(-2))
    assert result.control.v[0] == pytest.approx(expected_v, rel=1e-9)
    assert result.control.v[1] == pytest.approx(0.0, abs=1e-12)
    assert result.decision.ordering == "pseudo"
    check = verify_transfer(diag_sys, result.control, (0, 0), (1, 0), (1, 0),
                            target=(0, 0))
    assert check.error <= 1e-8


def test_synthesize_infeasible_target(diag_sys):
    result = synthesize_transfer(diag_sys, (0, 0), (0, 1), (1, 0), (0, 0))
    assert not result.decision.feasible
    assert result.decision.residual == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1), inside=st.booleans(), frozen=st.booleans())
def test_synthesize_and_decide_transfer_are_one_decision(kind, m, seed, inside,
                                                         frozen):
    # random endpoints give every ordering, pseudo-ordered pairs included;
    # the constant draws have rank C = 2..4 of n = 4, and a frozen axis makes
    # the time-varying C rank 1
    sys, (t0, t) = passing_case(kind, m, seed, 2)
    if frozen:
        t[0] = t0[0]
    rng = np.random.default_rng([seed, 1])
    x0, y = rng.standard_normal((2, sys.n))
    C = controllability_gramian(sys, t0, t).value
    if inside:  # chi(t0, t) y - x0 = C z lies in Im C
        y = transition(sys, t, t0) @ (x0 + C @ rng.standard_normal(sys.n))
    d = decide_transfer(sys, t0, x0, t, y)
    result = synthesize_transfer(sys, t0, x0, t, y)
    s = result.decision
    assert (s.feasible, s.residual, s.ordering) == (d.feasible, d.residual, d.ordering)
    assert d.feasible or not inside
    v = result.control.v
    assert np.array_equal(v, d.basis.preimage(d.w))
    # v is the minimum-norm least-squares solution of C v = w: it lies in
    # Im C = Im C', and |C v - w|, the part of w outside Im C, is the
    # residual to within the verdict's tolerance (at most 5.5e-10 of
    # 1 + |w| in 4,800 draws, where C reaches 1e7)
    tol = DEFAULT_CONFIG.residual_rel_tol
    norm = np.linalg.norm
    assert d.basis.contains(v, tol, norm(v))[0]
    assert abs(norm(C @ v - d.w) - d.residual) <= tol * (1.0 + norm(d.w))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_a_synthesized_control_spends_v_G_v(kind, m, seed):
    # The energy sum_a int delta^a |u_a|^2 dtau of u_a(s) = N_a(s)' chi(p, s)' v
    # along the segment t0 -> t, t0 <= t, is v' C(t0, t) v for p = t0 and
    # v' R(t0, t) v for p = t: |u_a|^2 = v' chi(p, s) N_a N_a' chi(p, s)' v.
    # The energy is taken with `integrate_along`, as the gramians are: on these
    # 60 draws it is v' G v to at most 5.1e-16 of |v|^2 |G|_2, and to 8.8e-16
    # on 600 more (0.5-0.8 s).  R anchored at t0, or `half @ half` in
    # `gramian_integrand` in place of `half @ _T(half)`, fails it.
    sys, (a, b) = passing_case(kind, m, seed, 2)
    t0, t = np.minimum(a, b), np.maximum(a, b)
    v = np.random.default_rng([seed, 2]).standard_normal(sys.n)
    for anchor, gramian in ((t0, controllability_gramian), (t, reachability_gramian)):
        u = SynthesizedControl(sys, anchor, v)

        def squares(alphas, s):
            U = u(s)[alphas - 1]
            return _T(U) @ U

        energy = integrate_along(OneFormFamily(squares, (1, 1)), curve_segment(t0, t))
        G = gramian(sys, t0, t).value
        assert abs(energy[0, 0] - v @ G @ v) <= 1e-14 * (v @ v) * np.linalg.norm(G, 2)


def test_verify_zero_control_endpoint(diag_sys):
    u = SynthesizedControl(diag_sys, (0, 0), (0.0, 0.0))
    x0 = (2.0, 3.0)
    check = verify_transfer(diag_sys, u, (0, 0), x0, (1, 1))
    free = solve_homogeneous(diag_sys, (0, 0), x0, (1, 1))
    assert np.allclose(check.endpoint, free, atol=1e-10)
    assert check.error is None


def test_the_round_trip_error_is_measured_at_any_size(diag_sys):
    # the endpoint misses y = 0 by round-off of x0 = (1e300, 0); the error's
    # squared entries would overflow
    t0, x0, t, y = (0, 0), (1e300, 0), (1, 1), (0, 0)
    result = synthesize_transfer(diag_sys, t0, x0, t, y)
    check = verify_transfer(diag_sys, result.control, t0, x0, t, target=y)
    assert 0.0 < check.error <= 1e-12 * 1e300


def test_verify_rejects_invalid_control(cyclic_sys):
    # a control outside the control space cannot be built, so verify_transfer
    # never runs one; the one way left, a control built for another system
    # (here a copy of the cyclic system), is refused
    with pytest.raises(CompatibilityError, match=r"gramian-compatibility \(Eq\. 17\)"):
        SynthesizedControl(cyclic_sys, np.zeros(3), np.ones(3))
    u = SynthesizedControl(cyclic_sys, np.zeros(3), np.zeros(3))
    twin = LinearSystem(3, 3, 1, cyclic_sys.M, cyclic_sys.N)
    with pytest.raises(ValueError, match="another system"):
        verify_transfer(twin, u, np.zeros(3), np.zeros(3), np.ones(3))


def test_endpoint_is_affine_linear_in_v(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 1.0)
    x0 = np.array([0.5, 0.5])
    free = solve_homogeneous(diag_sys, t0, x0, t)

    def forced(v):
        u = SynthesizedControl(diag_sys, t0, v)
        return verify_transfer(diag_sys, u, t0, x0, t).endpoint - free

    v1 = np.array([1.0, -2.0])
    v2 = np.array([0.3, 0.7])
    assert np.linalg.norm(forced(v1 + v2) - forced(v1) - forced(v2)) <= 1e-9


def test_perturbing_v_shifts_endpoint_through_the_gramian(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 0.0)
    x0 = np.array([1.0, 0.0])
    result = synthesize_transfer(diag_sys, t0, x0, t, (0.0, 0.0))
    delta = np.array([0.0, 1.0])
    u2 = SynthesizedControl(diag_sys, t0, result.control.v + delta)
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
        assert result.decision.feasible
        check = verify_transfer(sys, result.control, t0, x0, t, target=y)
        assert check.error <= 1e-7 * (1 + np.linalg.norm(y))
        # candidate controls are accepted by the membership check
        assert check_control_compat(sys, result.control).passed


def test_describe_and_sample(diag_sys):
    u = SynthesizedControl(diag_sys, (0, 0), (1.0, 0.0))
    text = u.describe()
    assert "v = (1, 0)" in text
    rows = u.sample([(0.0, 0.0), (1.0, 0.0)])
    assert rows[0]["u"][0] == [1.0]
    assert rows[1]["u"][0][0] == pytest.approx(math.exp(-1))


@pytest.mark.parametrize("m", [2, 3])
def test_constant_round_trip_takes_one_chi_and_one_block_exponential(m, monkeypatch):
    # chi(t, t0) for the free part (n x n) and the block of plant and
    # exosystem for the forced part (2n x 2n); chi(t0, t0) = I takes none
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
    n = sys.n
    assert sorted(calls) == [(n, n), (2 * n, 2 * n)]


def test_an_overflowing_round_trip_is_transitions_named_error():
    # chi(1, 0) = e^400 is finite, the forced part (e^400 - e^-400)/800 * 1e200
    # is not
    sys = LinearSystem.from_data(1, 1, 1, [[[400.0]]], [[[1.0]]])
    u = SynthesizedControl(sys, (0.0,), (1e200,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"solution overflowed "
                           r"\(non-finite entries\) at t"):
            verify_transfer(sys, u, (0.0,), (0.0,), (1.0,))


@pytest.mark.parametrize("x0, target", [
    ((math.nan, 0.0), None), ((1.0, 0.0), (math.nan, 0.0)), ((1.0, 0.0, 0.0), None),
], ids=["nan_x0", "nan_target", "three_entry_x0"])
def test_a_state_vector_goes_through_the_point_funnel(diag_sys, x0, target):
    message = (r"^expected point of dimension 2, got 3$" if len(x0) == 3 else
               r"^point coordinates must be finite, got \[nan  0\.\]$")
    t0, t = (0.0, 0.0), (1.0, 1.0)
    with pytest.raises(ValueError, match=message):
        result = synthesize_transfer(diag_sys, t0, x0, t, (0.0, 0.0))
        verify_transfer(diag_sys, result.control, t0, x0, t, target=target)


def _exact_steered_endpoint(sys, anchor, v, t0, x0, t):
    """The endpoint of plant and exosystem, [x; z](t) = expm(H) [x0; z0],
    in 40-digit arithmetic from the system's own float data, with
    z0 = expm(sum_a (anchor - t0)^a M_a)' v, and the normwise size
    |E_11|_2 |x0| + |E_12|_2 |z0| of its two terms (E = expm(H))."""
    n, m = sys.n, sys.m
    with mpmath.workdps(40):
        M = [mpmath.matrix(Ma.tolist()) for Ma in sys.M.value]
        Q = [mpmath.matrix(Na.tolist()) * mpmath.matrix(Na.tolist()).T
             for Na in sys.N.value]
        d0 = [mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(anchor, t0)]
        d = [mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(t, t0)]
        z0 = mpmath.expm(sum((d0[a] * M[a] for a in range(m)), mpmath.zeros(n))).T \
            * mpmath.matrix(v.tolist())
        H = mpmath.zeros(2 * n)
        for a in range(m):
            for i in range(n):
                for j in range(n):
                    H[i, j] += d[a] * M[a][i, j]
                    H[i, n + j] += d[a] * Q[a][i, j]
                    H[n + i, n + j] -= d[a] * M[a][j, i]
        E = mpmath.expm(H)
        x = E * mpmath.matrix(list(x0) + list(z0))
        E = np.array(E.tolist(), dtype=float)
        z0 = np.array(z0.tolist(), dtype=float)[:, 0]
        endpoint = np.array(x.tolist(), dtype=float)[:n, 0]
    norm = np.linalg.norm
    return endpoint, norm(E[:n, :n], 2) * norm(x0) + norm(E[:n, n:], 2) * norm(z0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       log_norm=st.floats(math.log(0.1), math.log(30.0)), moved=st.booleans())
@example(seed=49, log_norm=math.log(21.0), moved=True)  # anchor != t0 always runs
def test_constant_round_trip_matches_the_exact_block_exponential(seed, log_norm,
                                                                 moved):
    # M_a = c_a M0 and N_a = sqrt(c_a) N0 commute and pass Eq. 17 for any M0,
    # N0; M0 is scaled so that |A|_2 = |sum_a delta^a M_a|_2 = e^log_norm.
    # The bound is normwise: scipy's expm of A alone, chi(t, t0), was off by
    # up to 1.6e-12 of |E_11| on these draws, and on 3,000 of them the whole
    # endpoint by at most 2.9e-12 of the scale (the quadrature round trip it
    # replaced: 20 of 300 beyond 1e-11, up to 5.4e-7)
    rng = np.random.default_rng(seed)
    m, n, k = (int(x) for x in rng.integers(1, [4, 5, 3]))
    c = rng.uniform(0.5, 2.0, m)
    M0, N0 = rng.standard_normal((n, n)), rng.standard_normal((n, k))
    t0 = rng.uniform(-1.0, 1.0, m)
    t = t0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0, m)
    M0 *= math.exp(log_norm) / np.linalg.norm((c @ (t - t0)) * M0, 2)
    sys = LinearSystem.from_data(m, n, k, [(ca * M0).tolist() for ca in c],
                                 [(math.sqrt(ca) * N0).tolist() for ca in c])
    anchor = t0 + rng.uniform(-1.0, 1.0, m) if moved else t0
    x0, v = rng.standard_normal((2, n))
    u = SynthesizedControl(sys, anchor, v)
    endpoint = verify_transfer(sys, u, t0, x0, t).endpoint
    exact, scale = _exact_steered_endpoint(sys, anchor, v, t0, x0, t)
    assert np.linalg.norm(endpoint - exact) <= 1e-11 * scale
