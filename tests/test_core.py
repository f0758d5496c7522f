import numpy as np
import pytest

from mtcontrol import NumericConfig, PolylineCurve, curve_segment
from mtcontrol.core import staircase


def test_segment_constructor_echo():
    c = curve_segment((0, 0), (1, 0))
    assert np.array_equal(c.waypoints, [[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(c.start, [0.0, 0.0])
    assert np.array_equal(c.end, [1.0, 0.0])


def test_degenerate_segment_is_allowed():
    c = curve_segment((0, 0), (0, 0))
    assert c.segment_count == 1
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

