"""Foundational value types: multitime points, polyline curves, numeric settings.

A multitime is a point t = (t^1, ..., t^m) in R^m.  Throughout the package
multitimes are plain 1-D float arrays and batches of them (P, m) float
arrays; `as_point` and `as_points` are the single validation funnels.
Matrices are plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "as_point",
    "as_points",
    "PolylineCurve",
    "curve_segment",
    "NumericConfig",
    "DEFAULT_CONFIG",
]


def as_point(coords, m: int | None = None) -> np.ndarray:
    """Validate and convert a multitime point to a 1-D float array.

    Raises ValueError when the point is empty, non-finite, or does not
    match the expected dimension `m`.
    """
    t = np.atleast_1d(np.asarray(coords, dtype=float))
    if t.ndim != 1 or t.size < 1:
        raise ValueError(f"multitime must be a 1-D sequence, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"multitime coordinates must be finite, got {t}")
    if m is not None and t.size != m:
        raise ValueError(f"expected multitime of dimension {m}, got {t.size}")
    return t


def as_points(coords, m: int) -> np.ndarray:
    """Validate and convert a batch of multitime points to a (P, m) float
    array.

    Raises ValueError when the batch is not 2-D, has a width other than
    `m`, or holds a non-finite coordinate.
    """
    points = np.asarray(coords, dtype=float)
    if points.ndim != 2 or points.shape[1] != m or not np.all(np.isfinite(points)):
        raise ValueError(f"expected a batch of finite multitimes of "
                         f"dimension {m}, got shape {points.shape}")
    return points


@dataclass(frozen=True)
class NumericConfig:
    """Shared numeric knobs.

    Defaults are sized for desk-scale problems (n, m up to ~8), where the
    fixed-order rules below converge far past the stated tolerances.
    """

    quad_points_per_segment: int = 16
    ode_steps_per_segment: int = 256
    rank_rel_tol: float = 1e-10
    residual_rel_tol: float = 1e-8
    grid_samples_per_axis: int = 5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, and a JSON true is not the number 1
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if f.type == "int" and not isinstance(value, (int, np.integer)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.quad_points_per_segment < 1:
            raise ValueError("quad_points_per_segment must be >= 1")
        if self.ode_steps_per_segment < 1:
            raise ValueError("ode_steps_per_segment must be >= 1")
        if not (0 < self.rank_rel_tol < np.inf and 0 < self.residual_rel_tol < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")
        if self.grid_samples_per_axis < 1:
            raise ValueError("grid_samples_per_axis must be >= 1")


DEFAULT_CONFIG = NumericConfig()


@dataclass(frozen=True)
class PolylineCurve:
    """A piecewise-affine curve through >= 2 multitime waypoints.

    Integrals along the curve are taken segment by segment and are
    reparameterization invariant, so only the waypoints matter.
    """

    waypoints: np.ndarray = field()  # shape (S+1, m)

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[0] < 2:
            raise ValueError("a polyline needs at least two waypoints")
        if not np.all(np.isfinite(w)):
            raise ValueError("waypoints must be finite")
        object.__setattr__(self, "waypoints", w)

    @property
    def segment_count(self) -> int:
        return self.waypoints.shape[0] - 1

    @property
    def start(self) -> np.ndarray:
        return self.waypoints[0]

    @property
    def end(self) -> np.ndarray:
        return self.waypoints[-1]


def curve_segment(t0, t1) -> PolylineCurve:
    """Straight segment from t0 to t1 (the canonical integration path)."""
    a = as_point(t0)
    b = as_point(t1, m=a.size)
    return PolylineCurve(np.stack([a, b]))


def staircase(t0, t1) -> PolylineCurve:
    """Axis-ordered staircase from t0 to t1: advance one coordinate at a time.

    The contrast path of the acceptance suite's path-independence witness:
    maximal geometric contrast with the straight segment while staying
    inside the box spanned by t0 and t1.
    """
    a = as_point(t0)
    b = as_point(t1, m=a.size)
    points = [a]
    cur = a.copy()
    for axis in range(a.size):
        cur = cur.copy()
        cur[axis] = b[axis]
        points.append(cur)
    return PolylineCurve(np.stack(points))
