import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtcontrol import (CompatibilityError, LinearSystem, autonomous_analysis,
                       controllability_gramian, controllability_space,
                       decide_complete, decide_transfer, reachability_gramian)
from mtcontrol.core import DEFAULT_CONFIG, PolylineCurve
from mtcontrol.flow import transition
from mtcontrol.gramian import image_basis, numerical_rank

from conftest import (axis_scaled_system, passing_case, random_commuting_system,
                      random_passing_system)


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


@pytest.mark.parametrize("build, M", [(controllability_gramian, -400),
                                      (reachability_gramian, 400)])
def test_an_overflowing_gramian_is_a_named_error(build, M):
    # chi(0, s) = e^{400 s} (C) and chi(1, s) = e^{400 (1 - s)} (R) are
    # finite on [0, 1], but the integral of their squares is not
    sys = LinearSystem.from_data(1, 1, 1, [[[M]]], [[[1]]])
    with pytest.raises(ValueError, match=r"^gramian overflowed \(non-finite "
                                         r"entries\) between t0 and t$"):
        build(sys, (0,), (1,))


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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_constant_gramian_satisfies_the_lyapunov_law(m, n, seed):
    # A C + C A' = Q - chi Q chi' with chi = chi(t0, t), A = sum delta^a M_a
    # and Q = sum delta^a N_a N_a': d/dtau of chi(t0, s) Q chi(t0, s)' along
    # the segment, integrated.  Relative to the norms of the terms the
    # residual is at most 1.3e-13 on these 100 draws (|A|_2 up to 11.4; about
    # 0.5 s).  Beyond them it grows with the 16-node rule's error (ROADMAP
    # item 14): 2 of 600 such draws, at |A|_2 = 19.7, reached 1.2e-10.  With
    # 8 nodes the property fails at 3.6e-10, with a transposed chi in the
    # integrand at 1.8e-2.
    rng = np.random.default_rng(seed)
    sys, _ = random_passing_system(rng, m=m, n=n)
    t0, t = rng.uniform(-1.0, 1.0, (2, m))
    C = controllability_gramian(sys, t0, t).value
    chi = transition(sys, t0, t)
    A = np.tensordot(t - t0, sys.M.value, 1)
    N = sys.N.value
    Q = np.tensordot(t - t0, N @ N.transpose(0, 2, 1), 1)
    P = chi @ Q @ chi.T
    residual = A @ C + C @ A.T - (Q - P)
    scale = (2 * np.linalg.norm(A, 2) * np.linalg.norm(C, 2)
             + np.linalg.norm(Q, 2) + np.linalg.norm(P, 2))
    assert np.linalg.norm(residual) <= 1e-11 * scale


@settings(derandomize=True, max_examples=100, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_gramian_derivative_in_t_is_the_integrand_at_t(m, n, seed):
    # dC(t0, t)/dt^a = chi(t0, t) N_a(t) N_a(t)' chi(t0, t)', by central
    # differences with step h = 1e-5.  The error is the step's h^2 term plus
    # the rounding of C's difference, about eps |C| / h, so it is measured
    # against |dC/dt^a| + |C|: at most 7.6e-10 on these 100 draws (185
    # directions, |A|_2 up to 15.2; about 0.8 s) and 3.5e-9 on 600 more.
    # Anchoring C at t, as R is, fails the property at O(1), as does a chi
    # that is transposed in the integrand.
    rng = np.random.default_rng(seed)
    sys, _ = random_passing_system(rng, m=m, n=n)
    t0, t = rng.uniform(-1.0, 1.0, (2, m))
    chi = transition(sys, t0, t)
    C = controllability_gramian(sys, t0, t).value
    h = 1e-5
    for a, N in enumerate(sys.N.value):
        step = h * np.eye(m)[a]
        dC = (controllability_gramian(sys, t0, t + step).value
              - controllability_gramian(sys, t0, t - step).value) / (2 * h)
        exact = chi @ N @ N.T @ chi.T
        assert (np.linalg.norm(dC - exact)
                <= 1e-8 * (np.linalg.norm(exact) + np.linalg.norm(C)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       inside=st.booleans())
def test_an_input_rotation_changes_no_gramian_or_verdict(m, n, seed, inside):
    # N_a -> N_a V with V orthogonal (k = r >= 2) leaves N_a N_a' and so C, R,
    # rank C and every transfer verdict unchanged.  On these 100 draws C and R
    # moved by at most 1.5e-15 of their norm and the residual by 4.8e-16 of
    # its scale (about 0.6 s).  x0 and y lie in Im C (its leading r
    # coordinates) or anywhere, so both verdicts occur: 81 feasible, 19 not.
    # `half @ half` in place of `half @ _T(half)` in the integrand fails it.
    rng = np.random.default_rng(seed)
    sys, r = random_passing_system(rng, m=m, n=n)
    V, _ = np.linalg.qr(rng.standard_normal((r, r)))
    rotated = LinearSystem.from_data(m, n, r, sys.M.value.tolist(),
                                     (sys.N.value @ V).tolist())
    t0, t = rng.uniform(-1.0, 1.0, (2, m))
    for build in (controllability_gramian, reachability_gramian):
        G = build(sys, t0, t).value
        assert (np.linalg.norm(build(rotated, t0, t).value - G)
                <= 1e-13 * np.linalg.norm(G))
    x0, y = rng.standard_normal((2, n))
    if inside:
        x0[r:], y[r:] = 0.0, 0.0
    d, e = decide_transfer(sys, t0, x0, t, y), decide_transfer(rotated, t0, x0, t, y)
    assert (d.feasible, d.basis.rank, d.ordering) == (e.feasible, e.basis.rank,
                                                      e.ordering)
    assert abs(d.residual - e.residual) <= 1e-13 * d.scale


def _separable_system(rng, m):
    """A constant passing system with m different members, n = 2 + m, k = 2:
    a shared 2 x 2 block M_a = lam_a A, N_a = sqrt(lam_a) b on input 1, and
    one 1 x 1 block per axis, M_a = c_a, N_a = d_a on input 2 (zero on the
    other axes).  N_a N_a' is block diagonal, so the gates pass; a d_a of 0
    leaves that block out of Im C and Im G."""
    lam = rng.uniform(0.2, 2.0, m)
    A, b = rng.standard_normal((2, 2)), rng.standard_normal(2)
    c, d = rng.standard_normal(m), rng.standard_normal(m) * (rng.random(m) < 0.7)
    M, N = np.zeros((m, 2 + m, 2 + m)), np.zeros((m, 2 + m, 2))
    for a in range(m):
        M[a, :2, :2], M[a, 2 + a, 2 + a] = lam[a] * A, c[a]
        N[a, :2, 0], N[a, 2 + a, 1] = np.sqrt(lam[a]) * b, d[a]
    return LinearSystem.from_data(m, 2 + m, 2, M.tolist(), N.tolist()), d


@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.integers(2, 3), seed=st.integers(0, 2**32 - 1), inside=st.booleans())
def test_an_axis_permutation_or_a_time_shift_changes_no_answer(m, seed, inside):
    # Permuting M, N, t0 and t together, or adding one c to t0 and t, leaves
    # chi(t, t0), C, R, rank C, rank G and every transfer verdict unchanged
    # on a constant system.  x0 and y lie off the blocks that d_a = 0 leaves
    # out (inside) or anywhere, so both verdicts occur: 47 feasible and 13 not
    # on these 60 draws, with every ordering and rank C from 2 to 5.  chi, C
    # and R moved by at most 1.2e-14 of their norm, 9.7e-15 on 600 more, and
    # the residual by 4.1e-16 of its scale (0.6-0.7 s).  `sys.N[0]` in place
    # of `sys.N[alpha - 1]` in `gramian_integrand` fails the permutation, and
    # chi taken from t alone (`t` in place of `t - starts` in `transition`)
    # fails the shift.
    rng = np.random.default_rng(seed)
    sys, d = _separable_system(rng, m)
    t0, t = rng.uniform(-1.0, 1.0, (2, m))
    x0, y = rng.standard_normal((2, sys.n))
    if inside:
        x0[2:][d == 0], y[2:][d == 0] = 0.0, 0.0
    p = rng.permutation(m)
    permuted = LinearSystem.from_data(m, sys.n, 2, sys.M.value[p].tolist(),
                                      sys.N.value[p].tolist())
    shift = rng.uniform(-4.0, 4.0, m)

    def answers(sys, t0, t):
        report = autonomous_analysis(sys, t0, x0, t, y)
        decision = report.gramian_decision
        return ([transition(sys, t, t0), controllability_gramian(sys, t0, t).value,
                 reachability_gramian(sys, t0, t).value],
                (decision.feasible, decision.basis.rank, decision.ordering,
                 report.image_G.rank, report.transfer_feasible,
                 report.phase_controllable, report.phase_reachable), decision)

    values, verdicts, decision = answers(sys, t0, t)
    for case in (answers(permuted, t0[p], t[p]), answers(sys, t0 + shift, t + shift)):
        assert case[1] == verdicts
        for new, old in zip(case[0], values):
            assert np.linalg.norm(new - old) <= 1e-13 * np.linalg.norm(old)
        assert abs(case[2].residual - decision.residual) <= 1e-14 * decision.scale


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
    image = decide_complete(diag_sys, (0, 0), (1, 1))
    assert image.full is True
    assert image.rank == 2


def test_decide_complete_classical_controllable_pair():
    sys = LinearSystem.from_data(1, 3, 1,
                                 [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]],
                                 [[[0], [0], [1]]])
    image = decide_complete(sys, (0,), (1,))
    assert image.full is True
    assert image.rank == 3


def test_decide_complete_zero_N_is_rank_zero():
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0], [0]], [[0], [0]]])
    image = decide_complete(sys, (0, 0), (1, 1))
    assert image.full is False
    assert image.rank == 0


def test_decide_complete_requires_strict_ordering(diag_sys):
    with pytest.raises(ValueError):
        decide_complete(diag_sys, (0, 0), (1, 0))


def test_membership_scale_invariance(diag_sys):
    # the residual and its scale are measured without squaring the entries,
    # which overflows beyond about 1e154 and underflows below 1e-154
    t0, t = (0.0, 0.0), (1.0, 0.0)
    for scale in (1e-300, 1e-170, 1.0, 10.0, 1000.0, 1e160, 1e300):
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
        inside, _ = basis.contains(col, DEFAULT_CONFIG.residual_rel_tol,
                                   np.linalg.norm(col))
        assert inside
    # preimage is the pseudoinverse at the rank threshold
    assert basis.rows.shape == (r, a.shape[1])
    w = np.arange(1.0, a.shape[0] + 1)
    pinv = np.linalg.pinv(a, rcond=DEFAULT_CONFIG.rank_rel_tol * max(a.shape))
    assert np.allclose(basis.preimage(w), pinv @ w, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(low_rank_matrices(), st.floats(-12.0, 0.0), st.integers(0, 2**32 - 1))
def test_membership_is_unchanged_when_w_and_its_scale_are_scaled(case, gap, seed):
    # w off Im a by a relative 10^gap, around the 1e-8 threshold too; powers
    # of two from 2^-40 (about 1e-12) to 2^40 (about 1e12) scale w exactly
    a, r = case
    basis = image_basis(a)
    rng = np.random.default_rng(seed)
    w = a @ rng.standard_normal(a.shape[1]) + 10.0 ** gap * rng.standard_normal(a.shape[0])
    scale = float(np.linalg.norm(w))
    tol = DEFAULT_CONFIG.residual_rel_tol
    inside, residual = basis.contains(w, tol, scale)
    for k in range(-40, 41):
        s = 2.0 ** k
        assert basis.contains(s * w, tol, s * scale) == (inside, s * residual)


def test_a_tiny_x0_orthogonal_to_im_C_is_not_feasible():
    # x0 = (0, 1e-9) is orthogonal to Im C = span(e1): w = -x0 lies off it by
    # all of its size, at any size
    sys = LinearSystem.from_data(1, 2, 1, [[[1, 0], [0, 2]]], [[[1], [0]]])
    for size in (1e-300, 1e-170, 1e-9, 1e-6, 1.0, 1e6, 1e160, 1e300):
        d = decide_transfer(sys, (0,), (0, size), (1,), (0, 0))
        assert not d.feasible
        assert d.residual == pytest.approx(size, rel=1e-12) and d.scale == size
        assert decide_transfer(sys, (0,), (size, 0), (1,), (0, 0)).feasible


def test_a_y_along_a_direction_chi_does_not_stretch_is_judged_by_its_own_size():
    # chi(0, 1) = diag(e^20, 1) and w = (0, 1) lies off Im C = span(e1) by 1:
    # |chi|_2 |y| = 4.85e8 would pass it; the entrywise |chi| |y| is 1
    sys = LinearSystem.from_data(1, 2, 1, [[[-20, 0], [0, 0]]], [[[1], [0]]])
    d = decide_transfer(sys, (0,), (0, 0), (1,), (0, 1))
    assert not d.feasible
    assert d.residual == pytest.approx(1.0, rel=1e-12) and d.scale == pytest.approx(1.0)
    assert decide_transfer(sys, (0,), (0, 0), (1,), (1, 0)).feasible


def test_a_scale_that_is_not_finite_admits_nothing():
    basis = image_basis(np.eye(2)[:, :1])
    tol = DEFAULT_CONFIG.residual_rel_tol
    w = np.array([1.0, 1.0])
    for scale in (np.inf, np.nan):
        assert basis.contains(w, tol, scale) == (False, 1.0)
        assert not basis.contains(np.array([1.0, 0.0]), tol, scale)[0]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "time_varying"]), m=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), size=st.floats(-300.0, 300.0))
def test_free_evolution_is_feasible_at_any_size(kind, m, seed, size):
    # y = chi(t, t0) x0 with |x0| = 10^size: w is round-off of its terms
    sys, (t0, t) = passing_case(kind, m, seed, 2)
    x0 = np.random.default_rng([seed, 2]).standard_normal(sys.n)
    x0 *= 10.0 ** size / np.linalg.norm(x0)
    with np.errstate(over="ignore"):
        y = transition(sys, t, t0) @ x0
    assume(np.isfinite(y).all())
    d = decide_transfer(sys, t0, x0, t, y)
    assert d.feasible
    assert d.residual <= DEFAULT_CONFIG.residual_rel_tol * d.scale


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
    stage_points = (16 * (2 * DEFAULT_CONFIG.ode_steps_per_segment + 1), 2)
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
