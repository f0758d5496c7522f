import itertools

import numpy as np
import pytest

from mtcontrol import (CompatibilityError, LinearSystem, autonomous_analysis,
                       compare_rank, controllability_gramian,
                       controllability_matrix, exponent_order, rank_G)
from mtcontrol.gramian import numerical_rank

from conftest import random_commuting_system


def test_exponent_order_m2_n2():
    assert exponent_order(2, 2) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_exponent_order_m1_n3():
    assert exponent_order(1, 3) == [(0,), (1,), (2,)]


def test_exponent_order_m2_n3():
    assert exponent_order(2, 3) == [
        (0, 0),
        (1, 0), (0, 1),
        (2, 0), (1, 1), (0, 2),
        (2, 1), (1, 2),
        (2, 2)]


def test_exponent_order_is_total_permutation():
    for m, n in itertools.product(range(1, 4), range(1, 5)):
        order = exponent_order(m, n)
        assert len(order) == n ** m
        assert len(set(order)) == n ** m
        assert set(order) == set(itertools.product(range(n), repeat=m))
        # sums are non-decreasing, lex decreasing within equal sums
        for a, b in zip(order, order[1:]):
            assert sum(a) <= sum(b)
            if sum(a) == sum(b):
                assert a > b


def test_exponent_order_validates_inputs():
    with pytest.raises(ValueError):
        exponent_order(0, 2)


def test_controllability_matrix_diag(diag_sys):
    G = controllability_matrix(diag_sys)
    expected = np.array([
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
    ], dtype=float)
    assert np.array_equal(G.value, expected)
    assert G.block_index[0] == (1, (0, 0))
    assert G.block_index[4] == (2, (0, 0))
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
    assert report.rank_G == 2
    assert report.transfer_feasible
    assert report.phase_controllable
    assert report.completely_controllable  # rank G = n = 2
    assert report.gramian_condition.passed
    assert report.warning is None
    # cross-check carries the stricter gramian verdict for this endpoint pair
    assert report.gramian_decision.rank == 1
    assert report.gramian_decision.feasible


def test_autonomous_analysis_cyclic_warns(cyclic_sys):
    report = autonomous_analysis(cyclic_sys, (0, 0, 0), (1, 0, 0),
                                 (1, 1, 1), (0, 0, 0))
    assert report.rank_G == 3
    assert not report.gramian_condition.passed
    assert report.warning is not None
    assert report.gramian_decision is None


def test_autonomous_analysis_trivial_transfer(diag_sys):
    report = autonomous_analysis(diag_sys, (0, 0), (0, 0), (1, 1), (0, 0))
    assert report.transfer_feasible
    assert report.transfer_residual <= 1e-12


def test_autonomous_analysis_rejects_time_varying():
    sys = LinearSystem.from_data(2, 1, 1, [["t2"], ["t1"]], [[1], [1]],
                                 domain=[[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        autonomous_analysis(sys, (0, 0), (1,), (1, 1), (0,))


def test_compare_rank_diag_strict_gap(diag_sys):
    report = compare_rank(diag_sys, (0, 0), (1, 0))
    assert report.rank_G == 2
    assert report.rank_C == 1
    assert not report.equal


def test_compare_rank_diag_ordered_equality(diag_sys):
    report = compare_rank(diag_sys, (0, 0), (1, 1))
    assert report.rank_C == report.rank_G == 2
    assert report.equal


def test_compare_rank_classical_single_time():
    rng = np.random.default_rng(15)
    for _ in range(5):
        sys = random_commuting_system(rng, n=3, m=1, k=1)
        report = compare_rank(sys, (0,), (1,))
        assert report.rank_C == report.rank_G


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
