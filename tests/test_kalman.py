import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtcontrol import gramian, kalman
from mtcontrol import (CompatibilityError, LinearSystem, autonomous_analysis,
                       controllability_gramian, controllability_matrix,
                       controllability_space, rank_G)
from mtcontrol.gramian import numerical_rank
from mtcontrol.kalman import _exponent_array

from conftest import random_commuting_system


def test_exponent_array_m2_n2():
    assert _exponent_array(2, 2).tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_exponent_array_m1_n3():
    assert _exponent_array(1, 3).tolist() == [[0], [1], [2]]


def test_exponent_array_m2_n3():
    assert _exponent_array(2, 3).tolist() == [
        [0, 0],
        [1, 0], [0, 1],
        [2, 0], [1, 1], [0, 2],
        [2, 1], [1, 2],
        [2, 2]]


def test_exponent_array_is_total_permutation():
    for m, n in itertools.product(range(1, 6), range(1, 7)):
        ks = _exponent_array(m, n)
        assert ks.shape == (n ** m, m)
        assert np.issubdtype(ks.dtype, np.integer)
        order = list(map(tuple, ks.tolist()))
        assert len(order) == n ** m
        assert len(set(order)) == n ** m
        assert set(order) == set(itertools.product(range(n), repeat=m))
        # sums are non-decreasing, lex decreasing within equal sums
        for a, b in zip(order, order[1:]):
            assert sum(a) <= sum(b)
            if sum(a) == sum(b):
                assert a > b
        reference = sorted(itertools.product(range(n), repeat=m),
                           key=lambda ks: (sum(ks), tuple(-k for k in ks)))
        assert order == reference


def test_exponent_array_validates_inputs():
    with pytest.raises(ValueError):
        _exponent_array(0, 2)


def _per_tuple_G(sys):
    """G as one product per exponent tuple and alpha, multiplied left to
    right from the identity and skipping zero exponents: the reference the
    broadcast assembly must match bit for bit."""
    origin = np.zeros(sys.m)
    M = [sys.M[a](origin) for a in range(sys.m)]
    N = [sys.N[a](origin) for a in range(sys.m)]
    powers = []
    for a in range(sys.m):
        p = [np.eye(sys.n)]
        for _ in range(1, sys.n):
            p.append(p[-1] @ M[a])
        powers.append(p)
    order = sorted(itertools.product(range(sys.n), repeat=sys.m),
                   key=lambda ks: (sum(ks), tuple(-k for k in ks)))
    blocks, table = [], []
    for alpha in range(1, sys.m + 1):
        for ks in order:
            prod = np.eye(sys.n)
            for a, k in enumerate(ks):
                if k:
                    prod = prod @ powers[a][k]
            blocks.append(prod @ N[alpha - 1])
            table.append([alpha, *ks])
    return np.hstack(blocks), table


@st.composite
def commuting_families(draw):
    """m, n, k drawn; each M_a a different polynomial (degree <= 2) in one
    shared A, so the family commutes; N may be all zeros."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    # small integers and halves give exact zeros and signed zeros
    entries = st.one_of(st.floats(-1.5, 1.5),
                        st.integers(-2, 2).map(lambda v: v / 2))
    A = draw(arrays(float, (n, n), elements=entries))
    coeffs = draw(arrays(float, (m, 3), elements=entries))
    M = [c[0] * np.eye(n) + c[1] * A + c[2] * (A @ A) for c in coeffs]
    if draw(st.booleans()):
        N = np.zeros((m, n, k))
    else:
        N = draw(arrays(float, (m, n, k), elements=entries))
    return LinearSystem.from_data(m, n, k, [x.tolist() for x in M],
                                  [x.tolist() for x in N])


@settings(max_examples=60, deadline=None)
@given(commuting_families())
def test_controllability_matrix_matches_per_tuple_products(sys):
    G = controllability_matrix(sys)
    value, table = _per_tuple_G(sys)
    assert G.value.shape == (sys.n, sys.m * sys.n ** sys.m * sys.k)
    assert G.value.tobytes() == value.tobytes()  # signed zeros included
    assert G.block_table.tolist() == table
    assert np.issubdtype(G.block_table.dtype, np.integer)


@pytest.mark.xfail(raises=CompatibilityError, strict=True,
                   reason="ROADMAP item 13, the mixed-magnitude stack: |M1|^2 "
                          "underflows, so the gate's scale reads 0")
def test_a_commuting_family_of_mixed_magnitudes_is_not_refused():
    # the shrunk case the property above draws in 1-1.5% of its runs:
    # M1 = s M2 up to round-off, s = 3.7e-200, so the family commutes, yet
    # M-commutation refuses it with residual 2.90083551986e-216
    M2 = np.zeros((4, 4))
    M2[3] = [0, 0, 0.9375, 0.5625]
    M1 = np.zeros((4, 4))
    M1[3] = [0, 0, 3.4993871525013331e-200, 2.0996322915007996e-200]
    sys = LinearSystem.from_data(2, 4, 1, [M1.tolist(), M2.tolist()],
                                 np.zeros((2, 4, 1)).tolist())
    G = controllability_matrix(sys)
    assert G.value.tobytes() == _per_tuple_G(sys)[0].tobytes()


@pytest.mark.parametrize("m, n, k", [(1, 1, 1), (1, 4, 2), (3, 1, 2), (4, 5, 3)])
@pytest.mark.parametrize("zero_N", [False, True], ids=["N", "zero_N"])
def test_controllability_matrix_matches_per_tuple_products_at_the_edges(m, n, k,
                                                                       zero_N):
    rng = np.random.default_rng(m * 100 + n * 10 + k)
    sys = random_commuting_system(rng, n=n, m=m, k=k)
    if zero_N:
        sys = LinearSystem.from_data(
            m, n, k, [sys.M[a](np.zeros(m)).tolist() for a in range(m)],
            np.zeros((m, n, k)).tolist())
    G = controllability_matrix(sys)
    value, table = _per_tuple_G(sys)
    assert G.value.tobytes() == value.tobytes()
    assert G.value.flags.c_contiguous
    assert G.block_table.tolist() == table
    assert G.block_table[0].tolist() == [1] + [0] * m
    assert G.block_table[-1].tolist() == [m] + [n - 1] * m


def test_controllability_matrix_diag(diag_sys):
    G = controllability_matrix(diag_sys)
    expected = np.array([
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
    ], dtype=float)
    assert np.array_equal(G.value, expected)
    assert G.block_table[0].tolist() == [1, 0, 0]
    assert G.block_table[4].tolist() == [2, 0, 0]
    assert rank_G(G) == 2


def test_controllability_matrix_cyclic(cyclic_sys):
    G = controllability_matrix(cyclic_sys)
    assert G.value.shape == (3, 3 * 27)
    assert rank_G(G) == 3


def test_controllability_matrix_m1_is_classical_kalman():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        M = rng.standard_normal((n, n))
        N = rng.standard_normal((n, k))
        sys = LinearSystem.from_data(1, n, k, [M.tolist()], [N.tolist()])
        G = controllability_matrix(sys)
        classical = np.hstack([np.linalg.matrix_power(M, j) @ N
                               for j in range(n)])
        assert np.array_equal(G.value, classical)


def test_controllability_matrix_requires_constant_commuting():
    varying = LinearSystem.from_data(2, 1, 1, [["t1"], ["t2"]], [[1], [1]],
                                     domain=[[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        controllability_matrix(varying)
    noncommuting = LinearSystem.from_data(
        2, 2, 1,
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        [[[1], [0]], [[0], [1]]])
    with pytest.raises(CompatibilityError):
        controllability_matrix(noncommuting)


def test_rank_G_zero_N(diag_sys):
    sys = LinearSystem.from_data(
        2, 2, 1,
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0], [0]], [[0], [0]]])
    assert rank_G(controllability_matrix(sys)) == 0


def test_autonomous_analysis_diag(diag_sys):
    report = autonomous_analysis(diag_sys, (0, 0), (1, 0), (1, 0), (0, 0))
    assert report.image_G.rank == 2
    assert report.transfer_feasible
    assert report.phase_controllable
    assert report.image_G.full is True  # rank G = n = 2
    assert report.gramian_condition.passed
    # cross-check carries the stricter gramian verdict for this endpoint pair
    assert report.gramian_decision.basis.rank == 1
    assert report.gramian_decision.feasible


def test_autonomous_analysis_cyclic_is_refused(cyclic_sys):
    # Im G = R^3 while the gramian condition fails: no rank-G verdict
    assert rank_G(controllability_matrix(cyclic_sys)) == 3
    with pytest.raises(CompatibilityError, match=r"gramian-compatibility \(Eq. 17\)"):
        autonomous_analysis(cyclic_sys, (0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 0, 0))


NILPOTENT = LinearSystem.from_data(2, 2, 1,
                                   [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                                   [[[1], [0]], [[0], [1]]])


@pytest.mark.parametrize("system, condition", [
    ("cyclic", "gramian-compatibility (Eq. 17)"),
    ("nilpotent", "M-commutation (Eq. 6)"),
])
def test_autonomous_analysis_refuses_before_it_computes(system, condition,
                                                         cyclic_sys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the gates")
    monkeypatch.setattr(kalman, "controllability_matrix", computed)
    monkeypatch.setattr(kalman, "transition", computed)
    monkeypatch.setattr(gramian, "transition", computed)
    sys = cyclic_sys if system == "cyclic" else NILPOTENT
    origin, ones = np.zeros(sys.m), np.ones(sys.m)
    with pytest.raises(CompatibilityError) as refusal:
        autonomous_analysis(sys, origin, np.eye(sys.n)[0], ones, np.zeros(sys.n))
    assert refusal.value.report.condition_name == condition


def test_autonomous_analysis_judges_a_state_at_any_size(diag_sys):
    # x0 in Im G = R^2 at 1e160, where the squared entries overflow; x0 off
    # Im G = span(e1) at 1e-170, where they underflow
    report = autonomous_analysis(diag_sys, (0, 0), (1e160, 0), (1, 1), (0, 0))
    assert report.phase_controllable and report.transfer_feasible
    sys = LinearSystem.from_data(1, 2, 1, [[[1, 0], [0, 2]]], [[[1], [0]]])
    report = autonomous_analysis(sys, (0,), (0, 1e-170), (1,), (0, 0))
    assert not report.phase_controllable and not report.transfer_feasible
    assert report.transfer_residual == pytest.approx(1e-170, rel=1e-12)


def test_autonomous_analysis_trivial_transfer(diag_sys):
    report = autonomous_analysis(diag_sys, (0, 0), (0, 0), (1, 1), (0, 0))
    assert report.transfer_feasible
    assert report.transfer_residual <= 1e-12


def test_autonomous_analysis_rejects_time_varying():
    sys = LinearSystem.from_data(2, 1, 1, [["t2"], ["t1"]], [[1], [1]],
                                 domain=[[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        autonomous_analysis(sys, (0, 0), (1,), (1, 1), (0,))


def test_rank_C_below_rank_G_on_the_diag_axis(diag_sys):
    assert rank_G(controllability_matrix(diag_sys)) == 2
    assert controllability_space(diag_sys, (0, 0), (1, 0)).rank == 1


def test_rank_C_equals_rank_G_on_the_diag_ordered_pair(diag_sys):
    assert controllability_space(diag_sys, (0, 0), (1, 1)).rank == 2
    assert rank_G(controllability_matrix(diag_sys)) == 2


def test_rank_C_equals_rank_G_classical_single_time():
    rng = np.random.default_rng(15)
    for _ in range(5):
        sys = random_commuting_system(rng, n=3, m=1, k=1)
        assert (controllability_space(sys, (0,), (1,)).rank
                == rank_G(controllability_matrix(sys)))


def test_rank_inequality_on_random_family():
    rng = np.random.default_rng(77)
    for _ in range(20):
        sys = random_commuting_system(rng, n=4, m=2, k=1,
                                      identical_M=True, identical_N=True)
        t0, t = rng.uniform(-1, 1, size=(2, 2))
        if np.array_equal(t0, t):
            continue
        G = controllability_matrix(sys)
        C = controllability_gramian(sys, t0, t).value
        assert numerical_rank(C) <= rank_G(G)
