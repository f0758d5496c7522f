import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcontrol import (CompatibilityError, LinearSystem,
                       controllability_gramian, controllability_space,
                       decide_complete, decide_transfer, reachability_gramian)
from mtcontrol.core import DEFAULT_CONFIG, PolylineCurve
from mtcontrol.flow import transition
from mtcontrol.gramian import image_basis, numerical_rank

from conftest import axis_scaled_system, passing_case, random_commuting_system


def test_diag_gramian_closed_form(diag_sys):
    for t1 in (0.5, 1.0, 2.0):
        g = controllability_gramian(diag_sys, (0, 0), (t1, 0))
        expected = (1 - math.exp(-2 * t1)) / 2
        assert g.value[0, 0] == pytest.approx(expected, rel=1e-8)
        assert abs(g.value[0, 1]) <= 1e-10
        assert abs(g.value[1, 0]) <= 1e-10
        assert abs(g.value[1, 1]) <= 1e-10
        assert g.kind == "controllability"
        assert not g.path_dependent


def test_gramian_at_coincident_endpoints_is_zero(diag_sys):
    g = controllability_gramian(diag_sys, (1, 1), (1, 1))
    assert np.array_equal(g.value, np.zeros((2, 2)))
    r = reachability_gramian(diag_sys, (1, 1), (1, 1))
    assert np.array_equal(r.value, np.zeros((2, 2)))


def test_gramian_refuses_when_condition_fails(cyclic_sys):
    with pytest.raises(CompatibilityError) as exc:
        controllability_gramian(cyclic_sys, (0, 0, 0), (1, 1, 1))
    assert "gramian" in exc.value.report.condition_name


def test_forced_curve_computes_path_dependent_value(cyclic_sys):
    t0, t = np.zeros(3), np.ones(3)
    seg = PolylineCurve(np.stack([t0, t]))
    bent = PolylineCurve(np.stack([t0, [1.0, 0.0, 0.0], t]))
    a = controllability_gramian(cyclic_sys, t0, t, force_curve=seg)
    b = controllability_gramian(cyclic_sys, t0, t, force_curve=bent)
    assert a.path_dependent and b.path_dependent
    assert np.linalg.norm(a.value - b.value) > 1e-3


def test_forced_curve_endpoints_must_match(cyclic_sys, diag_sys):
    cases = [
        (cyclic_sys, np.zeros(3), np.ones(3), [np.zeros(3), np.full(3, 2.0)]),
        (diag_sys, (0, 0), (1, 1), [[5.0, 5.0], [7.0, 9.0]]),
    ]
    for build in (controllability_gramian, reachability_gramian):
        for sys, t0, t, waypoints in cases:
            wrong = PolylineCurve(np.array(waypoints))
            with pytest.raises(ValueError, match="forced curve must run from t0 to t"):
                build(sys, t0, t, force_curve=wrong)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_reachability_equals_negated_reverse_controllability(kind, m, seed):
    # R(t0, t) = -C(t, t0): both are anchored at t, and the segment is run in
    # opposite directions
    sys, (t0, t) = passing_case(kind, m, seed, 2)
    R = reachability_gramian(sys, t0, t).value
    C_rev = controllability_gramian(sys, t, t0).value
    assert np.linalg.norm(R + C_rev) <= 1e-12 * (1.0 + np.linalg.norm(C_rev))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_gramian_is_symmetric_psd_for_ordered_endpoints(kind, m, seed):
    # C(t0, t) for t0 <= t componentwise; 800 draws measured symmetry and
    # lambda_min deviations of exactly 0
    sys, (a, b) = passing_case(kind, m, seed, 2)
    C = controllability_gramian(sys, np.minimum(a, b), np.maximum(a, b)).value
    scale = np.linalg.norm(C, 2)
    assert np.linalg.norm(C - C.T) <= 1e-14 * scale
    assert np.linalg.eigvalsh(C).min() >= -1e-12 * scale


def test_conjugation_identity(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 0.0)
    C = controllability_gramian(diag_sys, t0, t).value
    C_rev = controllability_gramian(diag_sys, t, t0).value
    chi = transition(diag_sys, t, t0)
    assert np.linalg.norm(chi @ C @ chi.T + C_rev) <= 1e-9


def test_gramian_symmetry_and_psd():
    rng = np.random.default_rng(31)
    for _ in range(5):
        sys = random_commuting_system(rng, n=4, m=2, k=2,
                                      identical_M=True, identical_N=True)
        t0 = rng.uniform(-0.5, 0.0, size=2)
        t = rng.uniform(0.5, 1.0, size=2)
        C = controllability_gramian(sys, t0, t).value
        assert np.linalg.norm(C - C.T) <= 1e-10 * (1 + np.linalg.norm(C))
        eigs = np.linalg.eigvalsh(C)
        assert eigs.min() >= -1e-10 * np.linalg.norm(C)


def test_all_four_gramians_share_rank():
    rng = np.random.default_rng(32)
    for _ in range(5):
        sys = random_commuting_system(rng, n=4, m=2, k=4,
                                      identical_M=True, identical_N=True)
        t0 = rng.uniform(-1.0, 0.0, size=2)
        t = rng.uniform(0.5, 1.5, size=2)
        ranks = {
            numerical_rank(controllability_gramian(sys, t0, t).value),
            numerical_rank(controllability_gramian(sys, t, t0).value),
            numerical_rank(reachability_gramian(sys, t0, t).value),
            numerical_rank(reachability_gramian(sys, t, t0).value),
        }
        assert len(ranks) == 1


def test_controllability_space_diag(diag_sys):
    basis = controllability_space(diag_sys, (0, 0), (1, 0))
    assert basis.rank == 1
    assert basis.ordered
    assert np.allclose(np.abs(basis.columns[:, 0]), [1.0, 0.0], atol=1e-12)


def test_controllability_space_zero_N():
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0], [0]], [[0], [0]]])
    basis = controllability_space(sys, (0, 0), (1, 1))
    assert basis.rank == 0


def test_controllability_space_classical_single_time():
    sys = LinearSystem.from_data(1, 2, 1,
                                 [[[0, 1], [0, 0]]], [[[0], [1]]])
    basis = controllability_space(sys, (0,), (1,))
    assert basis.rank == 2
    # independent oracle: direct quadrature of expm(-sM) N N' expm(-sM)'
    from scipy.linalg import expm
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    N = np.array([[0.0], [1.0]])
    x, w = np.polynomial.legendre.leggauss(16)
    s = 0.5 * (x + 1)
    G = sum(wi * 0.5 * (expm(-si * M) @ N) @ (expm(-si * M) @ N).T
            for si, wi in zip(s, w))
    got = controllability_gramian(sys, (0,), (1,)).value
    assert np.allclose(got, G, atol=1e-12)


def test_unordered_pair_is_flagged(diag_sys):
    basis = controllability_space(diag_sys, (0, 1), (1, 0))
    assert not basis.ordered


def test_decide_transfer_examples(diag_sys):
    feasible = decide_transfer(diag_sys, (0, 0), (1, 0), (1, 0), (0, 0))
    assert feasible.feasible
    assert feasible.basis.rank == 1
    assert feasible.ordering == "pseudo"  # t^2 is not strictly increased
    infeasible = decide_transfer(diag_sys, (0, 0), (0, 1), (1, 0), (0, 0))
    assert not infeasible.feasible
    assert infeasible.residual == pytest.approx(1.0, rel=1e-9)


def test_decide_transfer_free_evolution_is_feasible(diag_sys):
    x0 = np.array([0.7, -0.3])
    t0, t = (0.0, 0.0), (1.0, 0.5)
    y = transition(diag_sys, t, t0) @ x0
    report = decide_transfer(diag_sys, t0, x0, t, y)
    assert report.feasible
    assert report.residual <= 1e-10
    assert report.ordering == "forward"
    assert report.basis.ordered


def test_decide_transfer_orderings(diag_sys):
    assert decide_transfer(diag_sys, (1, 1), (0, 0), (0, 0), (0, 0)).ordering == "backward"
    assert decide_transfer(diag_sys, (0, 0), (0, 0), (1, -1), (0, 0)).ordering == "pseudo"


def test_decide_complete_examples(diag_sys):
    # with both coordinates strictly advanced, both inputs act: full rank
    report = decide_complete(diag_sys, (0, 0), (1, 1))
    assert report.completely_controllable
    assert report.completely_reachable == report.completely_controllable
    assert report.rank == 2


def test_decide_complete_classical_controllable_pair():
    sys = LinearSystem.from_data(1, 3, 1,
                                 [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]],
                                 [[[0], [0], [1]]])
    report = decide_complete(sys, (0,), (1,))
    assert report.completely_controllable
    assert report.rank == 3


def test_decide_complete_zero_N_is_rank_zero():
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0], [0]], [[0], [0]]])
    report = decide_complete(sys, (0, 0), (1, 1))
    assert not report.completely_controllable
    assert report.rank == 0


def test_decide_complete_requires_strict_ordering(diag_sys):
    with pytest.raises(ValueError):
        decide_complete(diag_sys, (0, 0), (1, 0))


def test_membership_scale_invariance(diag_sys):
    t0, t = (0.0, 0.0), (1.0, 0.0)
    for scale in (1.0, 10.0, 1000.0):
        report = decide_transfer(diag_sys, t0, (scale, 0.0), t,
                                 (0.0, 0.0))
        assert report.feasible


def test_image_basis_columns_orthonormal():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    basis = image_basis(a)
    assert basis.rank == 3
    q = basis.columns
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    assert np.all(np.diff(basis.singular_values) <= 1e-15)


@st.composite
def low_rank_matrices(draw):
    """(a, r): a = X Y with X n x r and Y r x c drawn from a seeded normal,
    so rank a = r almost surely; c > n gives the wide case, c < n the tall."""
    n = draw(st.integers(1, 6))
    c = draw(st.integers(1, 60))
    r = draw(st.integers(0, min(n, c)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, r)) @ rng.standard_normal((r, c))
    return a, r


@settings(derandomize=True, max_examples=60, deadline=None)
@given(low_rank_matrices())
def test_image_basis_rank_and_span(case):
    a, r = case
    basis = image_basis(a)
    assert basis.rank == numerical_rank(a) == r
    q = basis.columns
    assert q.shape == (a.shape[0], r)
    assert np.allclose(q.T @ q, np.eye(r), atol=1e-12)
    for col in a.T:
        inside, _ = basis.contains(col, DEFAULT_CONFIG.residual_rel_tol)
        assert inside
    # preimage is the pseudoinverse at the rank threshold
    assert basis.rows.shape == (r, a.shape[1])
    w = np.arange(1.0, a.shape[0] + 1)
    pinv = np.linalg.pinv(a, rcond=DEFAULT_CONFIG.rank_rel_tol * max(a.shape))
    assert np.allclose(basis.preimage(w), pinv @ w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("build", [controllability_gramian, reachability_gramian])
def test_time_varying_gramian_matches_quad_of_closed_form(build):
    from scipy.integrate import quad
    sys = axis_scaled_system()
    for t0, t in (((0.0, 0.0), (0.8, 0.6)), ((-0.5, 0.25), (0.5, 1.0))):
        g = build(sys, t0, t)
        anchor = t0 if g.kind == "controllability" else t
        expected = np.diag([
            quad(lambda s, p=p: math.exp(p * p - s * s), a, b,
                 epsabs=1e-13, epsrel=1e-13)[0]
            for p, a, b in zip(anchor, t0, t)])
        assert np.max(np.abs(g.value - expected)) <= 1e-10


def test_time_varying_gramian_evaluates_each_member_once_per_segment(monkeypatch):
    from mtcontrol.core import curve_segment, staircase
    from mtcontrol.gramian import gramian_integrand
    from mtcontrol.pathint import integrate_along
    from mtcontrol.system import MatrixFunction
    sys = axis_scaled_system()
    members = [sys.M[0], sys.M[1]]
    calls = []
    original = MatrixFunction.__call__

    def counting(self, t):
        if any(self is M for M in members):
            calls.append((members.index(self), np.shape(t)))
        return original(self, t)

    monkeypatch.setattr(MatrixFunction, "__call__", counting)
    P = gramian_integrand(sys, (0.0, 0.0))
    stage_points = (16 * 3 * DEFAULT_CONFIG.ode_steps_per_segment, 2)
    # Each member that advances on a segment makes one transition call on
    # its 16 Gauss nodes, which evaluates every M_a that the paths from the
    # nodes back to the anchor advance along once, on all their stage points.
    # The staircase's first leg moves only t1, so chi(anchor, s) needs only
    # M_1 there; on its second leg s has moved along both axes.
    integrate_along(P, staircase((0, 0), (0.8, 0.6)))
    assert calls == [(0, stage_points), (0, stage_points), (1, stage_points)]
    calls.clear()
    integrate_along(P, curve_segment((0, 0), (0.8, 0.6)))
    assert calls == [(0, stage_points), (1, stage_points)] * 2


def test_constant_gramian_makes_16_expm_calls_per_direction(monkeypatch):
    import mtcontrol.flow
    calls = []
    original = mtcontrol.flow.expm

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(mtcontrol.flow, "expm", counting)
    rng = np.random.default_rng(3)
    for m in (2, 3):
        sys = random_commuting_system(rng, n=3, m=m, k=1,
                                      identical_M=True, identical_N=True)
        calls.clear()
        controllability_gramian(sys, np.zeros(m), np.full(m, 0.5))
        assert len(calls) == 16 * m
