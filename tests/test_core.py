import warnings

import numpy as np
import pytest

from mtcontrol import NumericConfig, PolylineCurve, curve_segment
from mtcontrol.core import finite, norm, staircase


def test_segment_constructor_echo():
    c = curve_segment((0, 0), (1, 0))
    assert np.array_equal(c.waypoints, [[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(c.start, [0.0, 0.0])
    assert np.array_equal(c.end, [1.0, 0.0])


def test_degenerate_segment_is_allowed():
    c = curve_segment((0, 0), (0, 0))
    assert c.waypoints.shape == (2, 2)
    assert np.array_equal(c.start, c.end)


def test_segment_dimension_mismatch():
    with pytest.raises(ValueError):
        curve_segment((0, 0), (0, 0, 0))


def test_endpoints_reproduce_waypoints():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((4, 3))
    c = PolylineCurve(w)
    assert np.array_equal(c.start, w[0])
    assert np.array_equal(c.end, w[-1])


def test_staircase_advances_one_axis_at_a_time():
    c = staircase((0, 0, 0), (1, 2, 3))
    assert np.array_equal(
        c.waypoints,
        [[0, 0, 0], [1, 0, 0], [1, 2, 0], [1, 2, 3]])


def test_polyline_needs_two_waypoints():
    with pytest.raises(ValueError):
        PolylineCurve(np.array([[1.0, 2.0]]))


def test_numeric_config_validation():
    with pytest.raises(ValueError):
        NumericConfig(quad_points_per_segment=0)
    with pytest.raises(ValueError):
        NumericConfig(rank_rel_tol=0.0)
    with pytest.raises(ValueError):
        NumericConfig(residual_rel_tol=-1.0)
    for tol in (np.inf, np.nan):  # inf passes every gate, nan refuses them all
        with pytest.raises(ValueError, match="finite and strictly positive"):
            NumericConfig(residual_rel_tol=tol)
    cfg = NumericConfig(quad_points_per_segment=8)
    assert cfg.quad_points_per_segment == 8


@pytest.mark.parametrize("name", ["quad_points_per_segment", "ode_steps_per_segment",
                                  "rank_rel_tol", "residual_rel_tol",
                                  "grid_samples_per_axis"])
@pytest.mark.parametrize("flag", [True, False, np.True_, 5.0, 2.5])
def test_numeric_config_rejects_booleans(name, flag):
    if type(flag) is float and name.endswith("_tol"):  # a tolerance may be any float
        assert getattr(NumericConfig(**{name: flag}), name) == flag
        return
    kind = "an integer" if type(flag) is float else "a number"
    with pytest.raises(ValueError, match=f"{name} must be {kind}"):
        NumericConfig(**{name: flag})



@pytest.mark.parametrize("k", [-1074 + 60, -600, -300, 0, 300, 600, 1023 - 10])
def test_norm_is_measured_at_any_magnitude(k):
    # 2^k times an array whose norms are near 1: each norm is 2^k times the
    # unscaled one, where squaring would overflow past 2^512 or underflow
    # below 2^-537; an all-zero matrix of the stack stays 0
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((4, 3, 2))
    stack[1] = 0.0
    vector = rng.standard_normal(5)
    s = 2.0 ** k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_stack, got_vector = norm(stack * s, (-2, -1)), norm(vector * s)
    np.testing.assert_allclose(got_stack / s, np.linalg.norm(stack, axis=(-2, -1)),
                               rtol=1e-15)
    assert got_stack[1] == 0.0
    assert got_vector / s == pytest.approx(np.linalg.norm(vector), rel=1e-15)


def test_norm_of_a_non_finite_entry_is_not_finite():
    stack = np.array([[[np.inf, 1e-200]], [[np.nan, 0.0]], [[1e-200, 0.0]]])
    got = norm(stack, (-2, -1))
    assert got[0] == np.inf and np.isnan(got[1]) and got[2] == 1e-200
    assert norm(np.array([np.inf, 1e300])) == np.inf


def test_finite_names_what_overflowed_and_where():
    x = np.array([1.0, 2.0])
    assert finite(x, "solution") is x
    with pytest.raises(ValueError, match=r"^solution overflowed \(non-finite "
                                         r"entries\) at t$"):
        finite(np.array([1.0, np.inf]), "solution", " at t")
