import math

import numpy as np
import pytest

from mtcontrol import (MatrixFamily, OneFormFamily, PolylineCurve,
                       curve_segment, integrate_along, verify_path_independence)
from mtcontrol.gramian import gramian_integrand


def primitive(P, t0, t):
    """Star-shaped primitive: the integral along the straight segment t0 -> t."""
    return integrate_along(P, curve_segment(t0, t))


def constant_one_form(matrices):
    mats = [np.asarray(c, dtype=float) for c in matrices]
    return OneFormFamily([(lambda t, c=c: c) for c in mats], mats[0].shape)


def test_constant_integrand_is_exact():
    C1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    C2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    P = constant_one_form([C1, C2])
    t0, t = np.array([0.5, -1.0]), np.array([2.0, 3.0])
    expected = C1 * (t[0] - t0[0]) + C2 * (t[1] - t0[1])
    got = integrate_along(P, curve_segment(t0, t))
    assert np.allclose(got, expected, atol=1e-13)
    # exact regardless of the polyline taken between the endpoints
    bent = PolylineCurve(np.array([t0, [5.0, 5.0], t]))
    assert np.allclose(integrate_along(P, bent), expected, atol=1e-12)


def test_diag_gramian_integrand_closed_form(diag_sys):
    P = gramian_integrand(diag_sys, (0.0, 0.0))
    got = integrate_along(P, curve_segment((0, 0), (1, 0)))
    expected = np.array([[(1 - math.exp(-2)) / 2, 0.0], [0.0, 0.0]])
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_degenerate_curve_integrates_to_zero(diag_sys):
    P = gramian_integrand(diag_sys, (0.0, 0.0))
    got = integrate_along(P, curve_segment((1, 1), (1, 1)))
    assert np.array_equal(got, np.zeros((2, 2)))


def test_primitive_constant():
    C1 = np.array([[2.0]])
    C2 = np.array([[-1.0]])
    P = constant_one_form([C1, C2])
    assert primitive(P, (0, 0), (3, 1))[0, 0] == pytest.approx(5.0, abs=1e-13)


def test_primitive_linear_integrand():
    fam = MatrixFamily.from_data([[["2*t1"]], [["0"]]], 2)
    P = OneFormFamily.from_family(fam)
    assert primitive(P, (0, 0), (2, 0))[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_primitive_at_base_point_is_zero():
    fam = MatrixFamily.from_data([[["2*t1"]], [["t2"]]], 2)
    P = OneFormFamily.from_family(fam)
    assert np.array_equal(primitive(P, (1, 1), (1, 1)), np.zeros((1, 1)))


def test_primitive_differentiates_back_to_integrand():
    # closed one-form: P1 = t2, P2 = t1 (mixed partials match)
    fam = MatrixFamily.from_data([[["t2"]], [["t1"]]], 2)
    P = OneFormFamily.from_family(fam)
    t0 = np.array([0.0, 0.0])
    h = 1e-6
    for t in ([0.7, 0.4], [1.3, -0.5]):
        t = np.array(t)
        for alpha in (1, 2):
            tp, tm = t.copy(), t.copy()
            tp[alpha - 1] += h
            tm[alpha - 1] -= h
            fd = (primitive(P, t0, tp) - primitive(P, t0, tm)) / (2 * h)
            exact = P(alpha, t)
            assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6)


def test_additivity_and_reversal():
    fam = MatrixFamily.from_data([[["t1*t2"]], [["cos(t1)"]]], 2)
    P = OneFormFamily.from_family(fam)
    a, b, c = np.array([0.0, 0.0]), np.array([1.0, 0.5]), np.array([2.0, -1.0])
    whole = integrate_along(P, PolylineCurve(np.stack([a, b, c])))
    parts = (integrate_along(P, curve_segment(a, b)) +
             integrate_along(P, curve_segment(b, c)))
    assert np.allclose(whole, parts, atol=1e-12)
    forward = integrate_along(P, curve_segment(a, c))
    backward = integrate_along(P, curve_segment(c, a))
    assert np.allclose(forward, -backward, atol=1e-12)


def test_path_independence_certificate_passes(diag_sys):
    P = gramian_integrand(diag_sys, (0.0, 0.0))
    report = verify_path_independence(P, (0, 0), (1, 1))
    assert report.passed
    assert report.discrepancy <= 1e-9
    assert report.mixed_partial_residual is None  # derived, not expression-backed


def test_path_independence_certificate_fails(cyclic_sys):
    P = gramian_integrand(cyclic_sys, (0.0, 0.0, 0.0))
    report = verify_path_independence(P, (0, 0, 0), (1, 1, 1))
    assert not report.passed
    assert report.discrepancy > 1e-3


def test_path_independence_constant_equal_members():
    C = np.array([[1.0, 0.0], [0.0, 2.0]])
    P = constant_one_form([C, C])
    report = verify_path_independence(P, (0, 0), (1, 2))
    assert report.passed


def test_path_independence_symbolic_mixed_partials():
    closed = OneFormFamily.from_family(
        MatrixFamily.from_data([[["t2"]], [["t1"]]], 2))
    assert verify_path_independence(closed, (0, 0), (1, 1)).passed
    open_form = OneFormFamily.from_family(
        MatrixFamily.from_data([[["t2"]], [["0"]]], 2))
    report = verify_path_independence(open_form, (0, 0), (1, 1))
    assert not report.passed
    assert report.mixed_partial_residual == pytest.approx(1.0)


def test_path_independence_requires_distinct_endpoints():
    P = constant_one_form([np.eye(1), np.eye(1)])
    with pytest.raises(ValueError):
        verify_path_independence(P, (1, 1), (1, 1))
