import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcontrol import (MatrixFamily, NumericConfig, OneFormFamily, PolylineCurve,
                       controllability_gramian, curve_segment, integrate_along)
from mtcontrol.gramian import gramian_integrand
from mtcontrol.pathint import _gauss_nodes

from conftest import term_by_term_integral


def primitive(P, t0, t):
    """Star-shaped primitive: the integral along the straight segment t0 -> t."""
    return integrate_along(P, curve_segment(t0, t))


def constant_one_form(matrices):
    mats = np.stack([np.asarray(c, dtype=float) for c in matrices])
    return OneFormFamily(lambda alphas, t: mats[alphas - 1][:, None],
                         mats.shape[1:])


def family_one_form(fam):
    """The one-form whose P_alpha is the family member A_alpha."""
    return OneFormFamily(lambda alphas, t: fam(t)[np.subtract(alphas, 1)],
                         fam.shape)


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
    P = family_one_form(fam)
    assert primitive(P, (0, 0), (2, 0))[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_primitive_at_base_point_is_zero():
    fam = MatrixFamily.from_data([[["2*t1"]], [["t2"]]], 2)
    P = family_one_form(fam)
    assert np.array_equal(primitive(P, (1, 1), (1, 1)), np.zeros((1, 1)))


def test_primitive_differentiates_back_to_integrand():
    # closed one-form: P1 = t2, P2 = t1 (mixed partials match)
    fam = MatrixFamily.from_data([[["t2"]], [["t1"]]], 2)
    P = family_one_form(fam)
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
    P = family_one_form(fam)
    a, b, c = np.array([0.0, 0.0]), np.array([1.0, 0.5]), np.array([2.0, -1.0])
    whole = integrate_along(P, PolylineCurve(np.stack([a, b, c])))
    parts = (integrate_along(P, curve_segment(a, b)) +
             integrate_along(P, curve_segment(b, c)))
    assert np.allclose(whole, parts, atol=1e-12)
    forward = integrate_along(P, curve_segment(a, c))
    backward = integrate_along(P, curve_segment(c, a))
    assert np.allclose(forward, -backward, atol=1e-12)


# signed zeros among the entries, so that whole segments of -0.0 terms occur
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(-4.0, 4.0, allow_subnormal=False))


@st.composite
def one_form_cases(draw):
    """A one-form P_alpha(t) = C_alpha + D_alpha sin(t^1 + ... + t^m) (or
    C_alpha alone, a stack that does not depend on the point), a polyline
    whose segments move along a drawn subset of the axes, possibly none
    (stationary) or one (axis-parallel), and a quadrature order."""
    m = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    coefficients = st.lists(_ENTRIES, min_size=m * shape[0] * shape[1],
                            max_size=m * shape[0] * shape[1])
    C = np.reshape(draw(coefficients), (m,) + shape)
    D = np.reshape(draw(coefficients), (m,) + shape)
    pointwise = draw(st.booleans())
    waypoints = [np.array(draw(st.lists(_ENTRIES, min_size=m, max_size=m)))]
    for _ in range(draw(st.integers(1, 4))):
        nxt = waypoints[-1].copy()
        for axis in draw(st.sets(st.integers(0, m - 1))):
            nxt[axis] = draw(_ENTRIES)
        waypoints.append(nxt)
    order = draw(st.sampled_from([1, 2, 16]))
    return C, D, pointwise, PolylineCurve(np.stack(waypoints)), order


@settings(max_examples=100, deadline=None)
@given(one_form_cases())
def test_integrate_along_equals_the_term_by_term_sum_bit_for_bit(case):
    C, D, pointwise, curve, order = case
    cfg = NumericConfig(quad_points_per_segment=order)

    def stack(alphas, t):
        if not pointwise:
            return C[alphas - 1][:, None]
        return C[alphas - 1][:, None] + D[alphas - 1][:, None] * np.sin(
            t.sum(axis=1))[None, :, None, None]

    got = integrate_along(OneFormFamily(stack, C.shape[1:]), curve, cfg)
    expected = term_by_term_integral(lambda alpha, t: stack(np.array([alpha]), t)[0],
                                     curve, C.shape[1:], cfg)
    assert got.tobytes() == expected.tobytes()


def test_order_one_is_the_midpoint_rule(diag_sys):
    nodes, weights = _gauss_nodes(1)
    assert nodes.tolist() == [0.5] and weights.tolist() == [1.0]
    midpoint = NumericConfig(quad_points_per_segment=1)
    fam = MatrixFamily.from_data([[["2*t1 + 3"]], [["1 - t1"]]], 2)
    got = integrate_along(family_one_form(fam), curve_segment((0, 0), (2, 1)),
                          midpoint)
    # t1 = 2 tau, t2 = tau: integral of (4 tau + 3) 2 + (1 - 2 tau) over [0, 1]
    assert got[0, 0] == pytest.approx(10.0, abs=1e-13)
    one = controllability_gramian(diag_sys, (0, 0), (1, 1), midpoint).value
    two = controllability_gramian(diag_sys, (0, 0), (1, 1),
                                  NumericConfig(quad_points_per_segment=2)).value
    assert one[0, 0] == pytest.approx(math.exp(-1), rel=1e-15)
    assert not np.array_equal(one, two)
