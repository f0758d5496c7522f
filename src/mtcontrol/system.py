"""Linear multitime system model and complete-integrability checks.

The system is dx/dt^alpha = M_alpha(t) x + N_alpha(t) u_alpha(t) with m
evolution directions, state dimension n and control dimension k.  Every
downstream computation (flows, gramians, synthesis) is gated by the
condition checks implemented here.  Each says that a two-index term X_ab
is symmetric in (a, b):

  * M-commutation:         X_ab = M_a M_b + dM_a/dt^b
  * F-compatibility:       X_ab = M_a F_b + dF_a/dt^b
  * control compatibility: X_ab = M_a N_b u_b + N_a du_a/dt^b + (dN_a/dt^b) u_a
  * gramian compatibility: X_ab = M_a N_b N_b' + N_b N_b' M_a'
                                  + (dN_a/dt^b) N_a' + N_a (dN_a/dt^b)'

Conditions are analytic identities, so they are checked exactly for
constant families (at the origin alone) and on a tensor sample grid over
the domain box otherwise.  Failure at any grid point is conclusive; a pass
for a time-varying family means only that the condition held at the
grid_samples_per_axis^m sample points.

A check evaluates each family once, as one (m, P, r, c) stack over all
sample points, and forms X_ab for every ordered pair a != b (never a = b)
in one batched expression; only a varying family is differentiated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as _expr
from .core import DEFAULT_CONFIG, NumericConfig, as_point, as_points

__all__ = [
    "MatrixFunction",
    "MatrixFamily",
    "ControlFamily",
    "LinearSystem",
    "ConditionReport",
    "CompatibilityError",
    "require",
    "check_M_commutation",
    "check_F_compatibility",
    "check_control_compat",
    "check_gramian_compat",
]


class CompatibilityError(RuntimeError):
    """A gating condition check failed; carries the offending report."""

    def __init__(self, report: "ConditionReport"):
        self.report = report
        super().__init__(
            f"{report.condition_name} failed with residual {report.max_residual:.6g}")


def _numeric_grid(entries) -> np.ndarray | None:
    """`entries` as a float array when every entry is a plain number (no
    string, no Expr, no bool), else None."""
    try:
        grid = np.array(entries)
    except ValueError:  # ragged nesting; the object path reports it
        return None
    # numpy reads [1, True] as [1, 1]; the object path rejects the bool
    if grid.dtype.kind not in "iuf" or bool in map(type, np.array(entries, object).flat):
        return None
    return grid.astype(float, copy=False)


class MatrixFunction:
    """A matrix whose entries are real constants or expressions of t1..tm.

    A matrix of plain numbers is kept as one float array, with no
    expression object per entry."""

    def __init__(self, entries, m: int):
        grid = _numeric_grid(entries)
        if grid is None:
            grid = np.asarray(entries, dtype=object)
            if grid.ndim == 1 and any(isinstance(e, (list, tuple)) for e in grid):
                raise ValueError("matrix rows must all have the same length")
        if grid.ndim == 1:
            grid = grid.reshape(-1, 1)
        if grid.ndim != 2:
            raise ValueError(f"matrix entries must be 2-D, got shape {grid.shape}")
        self.m = m
        self._varying = []
        if grid.dtype != object:
            bad = np.argwhere(~np.isfinite(grid))
            if len(bad):
                raise ValueError(f"non-finite constant entry at "
                                 f"({bad[0][0]}, {bad[0][1]})")
            self._constant = grid
            return
        self._constant = np.zeros(grid.shape)  # expression entries stay 0 here
        for (i, j), entry in np.ndenumerate(grid):
            if isinstance(entry, _expr.Expr):
                # a ready-made tree gets the size limit `parse` enforces
                _expr.check_size(entry)
            elif isinstance(entry, str):
                entry = _expr.parse(entry, m)
            else:
                try:
                    if isinstance(entry, (bool, np.bool_)):  # not a number here
                        raise TypeError
                    entry = _expr.Num(float(entry))
                except TypeError:
                    raise ValueError(f"matrix entry at ({i}, {j}) must be a number "
                                     f"or an expression, got {entry!r}") from None
            self._place(i, j, entry)

    def _place(self, i: int, j: int, entry: _expr.Expr) -> None:
        """Put a valid expression at (i, j): its value in the constant array
        when it is variable-free, else in the list of varying entries."""
        if entry.is_constant():
            value = (entry.value if isinstance(entry, _expr.Num)
                     else entry(np.zeros(self.m)))
            if not np.isfinite(value):
                raise ValueError(f"non-finite constant entry at ({i}, {j})")
            self._constant[i, j] = value
        else:
            self._varying.append((i, j, entry))

    @property
    def shape(self) -> tuple[int, int]:
        return self._constant.shape

    @property
    def is_constant(self) -> bool:
        return not self._varying

    def __call__(self, t) -> np.ndarray:
        """The matrix at one point t of shape (m,), as (r, c), or at each
        point of a batch of shape (P, m), as (P, r, c).

        Each expression entry is evaluated over all points in one pass;
        constant entries are broadcast.
        """
        batch = np.asarray(t).ndim == 2
        if not self._varying:
            if batch:
                return self._constant[None].repeat(len(t), axis=0)
            return self._constant.copy()
        points = as_points(t, self.m) if batch else as_point(t, m=self.m)[None]
        out = self._constant[None].repeat(len(points), axis=0)
        for i, j, e in self._varying:
            values = e.eval(points)
            if not np.all(np.isfinite(values)):
                raise _expr.ExprDomainError(
                    f"expression evaluated to {values[~np.isfinite(values)][0]}")
            out[:, i, j] = values
        return out if batch else out[0]

    def diff(self, beta: int) -> "MatrixFunction":
        """Entrywise exact partial derivative with respect to t^beta; the
        constant entries differentiate to 0."""
        d = MatrixFunction.__new__(MatrixFunction)
        d.m, d._constant, d._varying = self.m, np.zeros(self.shape), []
        for i, j, e in self._varying:
            d._place(i, j, e.diff(beta))
        return d


def _members(data, m: int, kind: str) -> Sequence:
    """`data` as the list of a family's m members; ValueError otherwise."""
    if not isinstance(data, (list, tuple, np.ndarray)):
        raise ValueError(f"{kind} data must be a list, got {type(data).__name__}")
    if len(data) != m:
        raise ValueError(f"expected {m} {kind} members, got {len(data)}")
    return data


class MatrixFamily:
    """The indexed family (A_alpha)_{alpha=1..m} of matrix functions."""

    def __init__(self, members: Sequence[MatrixFunction]):
        members = list(members)
        if not members:
            raise ValueError("a family needs at least one member")
        shape = members[0].shape
        for a in members:
            if a.shape != shape:
                raise ValueError(
                    f"family members must share a shape, got {a.shape} and {shape}")
        self.members = members
        self.shape = shape
        self.m = len(members)

    @classmethod
    def from_data(cls, data: Sequence, m: int) -> "MatrixFamily":
        """Build from m nested-list matrices of numbers / expression strings."""
        return cls([MatrixFunction(entry, m) for entry in _members(data, m, "family")])

    @property
    def is_constant(self) -> bool:
        return all(a.is_constant for a in self.members)

    def __call__(self, t) -> np.ndarray:
        """Every member at t, stacked: (m, r, c) at one point of shape (m,),
        (m, P, r, c) on a batch of points of shape (P, m)."""
        return np.stack([a(t) for a in self.members])

    def __getitem__(self, alpha0: int) -> MatrixFunction:
        return self.members[alpha0]


class ControlFamily(MatrixFamily):
    """A control candidate u = (u_alpha): m members, each a k x 1 column.

    Entries are constants or expressions; membership in the control space
    is decided by `check_control_compat`.  Black-box callables without
    derivatives are deliberately not accepted.
    """

    def __init__(self, members: Sequence[MatrixFunction]):
        super().__init__(members)
        if self.shape[1] != 1:
            raise ValueError("control members must be column vectors of equal size")
        self.k = self.shape[0]

    @classmethod
    def from_data(cls, data: Sequence, m: int) -> "ControlFamily":
        members = []
        for entry in _members(data, m, "control"):
            mf = MatrixFunction(entry, m)
            if mf.shape[1] != 1:
                mf = MatrixFunction(np.asarray(entry, dtype=object).reshape(-1, 1), m)
            members.append(mf)
        return cls(members)

    @classmethod
    def zero(cls, m: int, k: int) -> "ControlFamily":
        return cls([MatrixFunction(np.zeros((k, 1)), m) for _ in range(m)])

    def values(self, t) -> np.ndarray:
        """Every u_alpha(t) as a flat k-vector, stacked: (m, k) at one point
        of shape (m,), (m, P, k) on a batch of points of shape (P, m)."""
        return self(t)[..., 0]

    def value(self, alpha: int, t) -> np.ndarray:
        """u_alpha(t) (alpha is 1-based): (k,) at one point, (P, k) on a batch."""
        return self.values(t)[alpha - 1]

    def derivative(self, alpha: int, beta: int, t) -> np.ndarray:
        """d u_alpha / dt^beta at t, as a flat k-vector; (P, k) on a batch."""
        return self.members[alpha - 1].diff(beta)(t)[..., 0]


def _once_per_system(func):
    """`func(sys, cfg)`, computed once per (sys, cfg) and kept on the system."""
    @functools.wraps(func)
    def once(sys, cfg=DEFAULT_CONFIG):
        key = (func.__name__, cfg)
        if key not in sys._memo:
            sys._memo[key] = func(sys, cfg)
        return sys._memo[key]
    return once


class LinearSystem:
    """The full model: dimensions, matrix families M (n x n) and N (n x k),
    and the axis-aligned domain box the time-varying entries live on.  The
    sample grid and the system-level condition reports are kept on the
    system, once per config, so a system must not change after it is built."""

    def __init__(self, m: int, n: int, k: int, M: MatrixFamily, N: MatrixFamily,
                 domain: np.ndarray | None = None):
        if m < 1 or n < 1 or k < 1:
            raise ValueError("dimensions m, n, k must all be >= 1")
        if M.m != m or N.m != m:
            raise ValueError("M and N must both have m members")
        if M.shape != (n, n):
            raise ValueError(f"M members must be {n}x{n}, got {M.shape}")
        if N.shape != (n, k):
            raise ValueError(f"N members must be {n}x{k}, got {N.shape}")
        if domain is not None:
            # numpy reads [false, true] as [0, 1]; a bound must be a number
            if any(isinstance(v, (bool, np.bool_))
                   for v in np.asarray(domain, dtype=object).flat):
                raise ValueError("domain bounds must be numbers, not booleans")
            domain = np.asarray(domain, dtype=float)
            if domain.shape != (m, 2):
                raise ValueError(f"domain must have shape ({m}, 2)")
            if np.any(domain[:, 0] > domain[:, 1]):
                raise ValueError("domain bounds must satisfy lo <= hi")
        if not (M.is_constant and N.is_constant):
            if domain is None or not np.all(np.isfinite(domain)):
                raise ValueError(
                    "time-varying systems need a finite domain box for grid sampling")
        self.m, self.n, self.k = m, n, k
        self.M, self.N = M, N
        self.domain = domain
        self._memo: dict[tuple, object] = {}  # see _once_per_system

    @classmethod
    def from_data(cls, m: int, n: int, k: int, M_data, N_data,
                  domain=None) -> "LinearSystem":
        return cls(m, n, k, MatrixFamily.from_data(M_data, m),
                   MatrixFamily.from_data(N_data, m), domain)

    @property
    def is_constant(self) -> bool:
        return self.M.is_constant and self.N.is_constant

    def contains(self, t) -> bool:
        t = as_point(t, m=self.m)
        if self.domain is None:
            return True
        return bool(np.all(t >= self.domain[:, 0]) and np.all(t <= self.domain[:, 1]))

    @_once_per_system
    def grid_points(self, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
        """Tensor sample grid over the domain box, endpoints included, as a
        read-only (P, m) array."""
        if self.domain is None or not np.all(np.isfinite(self.domain)):
            # Constant families are checked exactly elsewhere; grid sampling
            # on an unbounded domain (only reached for derived, non-Expr
            # integrands such as synthesized controls) falls back to a
            # default box around the origin.
            box = np.tile([-1.0, 1.0], (self.m, 1))
        else:
            box = self.domain
        axes = [np.linspace(lo, hi, cfg.grid_samples_per_axis)
                for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([g.ravel() for g in mesh], axis=-1)
        grid.setflags(write=False)
        return grid


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one compatibility check.

    `max_residual` is the Frobenius norm of the worst violation over the
    sample set; `passed` compares it against residual_rel_tol * (1 + scale)
    where scale is the largest norm among the compared sides, so zero
    systems pass and large systems are not penalized.
    """

    condition_name: str
    max_residual: float
    passed: bool
    worst_point: np.ndarray | None
    worst_pair: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.passed


def require(report: ConditionReport) -> ConditionReport:
    """The gate: return a passing report, raise CompatibilityError otherwise."""
    if not report.passed:
        raise CompatibilityError(report)
    return report


def _T(a: np.ndarray) -> np.ndarray:
    """Transpose over the last two axes: of one matrix, or of each matrix
    in a (P, r, c) stack."""
    return np.swapaxes(a, -1, -2)


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes: of one matrix, or of each
    matrix in a (P, r, c) stack."""
    return np.sqrt(np.add.reduce(a * a, axis=(-2, -1)))


@functools.lru_cache(maxsize=None)
def _ordered_pairs(m: int) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The K pairs a < b (1-based, `combinations` order) and the 0-based
    indices (A, B) of all 2K ordered pairs: every (a, b), then every (b, a)."""
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    A, B = (np.array(pairs + [(b, a) for a, b in pairs]) - 1).T
    return pairs, A, B


def _sample(sys: LinearSystem, constant: bool, cfg: NumericConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A check's read-only (P, m) sample points (a kept report holds a view),
    the origin or else the grid, and the indices (A, B) of `_ordered_pairs`."""
    T = np.broadcast_to(0.0, (1, sys.m)) if constant else sys.grid_points(cfg)
    return (T, *_ordered_pairs(sys.m)[1:])


def _derivatives(family: MatrixFamily, T: np.ndarray, A: np.ndarray,
                 B: np.ndarray) -> np.ndarray:
    """dF_a/dt^b on the points T for each ordered pair (a, b) of (A, B), as
    a (2K, P, r, c) stack: a different function per pair."""
    return np.stack([family[a].diff(b + 1)(T) for a, b in zip(A.tolist(), B.tolist())])


def _symmetry_report(name: str, X: np.ndarray, T: np.ndarray,
                     cfg: NumericConfig) -> ConditionReport:
    """The report on |X_ab - X_ba| for the (2K, P, r, c) stack X of X_ab on
    the points T, ordered as `_ordered_pairs`.  The scale is the largest
    |X_ab|; the worst point is the first maximum, point-major, pair-minor."""
    K = len(X) // 2
    residuals = _norms(X[:K] - X[K:]).T                    # (P, K)
    worst = int(np.argmax(residuals))
    r = float(residuals.flat[worst])
    passed = bool(r <= cfg.residual_rel_tol * (1.0 + float(np.max(_norms(X)))))
    if r == 0.0:
        return ConditionReport(name, 0.0, passed, None, None)
    pairs = _ordered_pairs(T.shape[1])[0]
    return ConditionReport(name, r, passed, T[worst // K], pairs[worst % K])


@_once_per_system
def check_M_commutation(sys: LinearSystem,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """X_ab = M_a M_b + dM_a/dt^b symmetric in (a, b)."""
    name = "M-commutation (Eq. 6)"
    if sys.m == 1:
        return ConditionReport(name, 0.0, True, None, None)
    T, A, B = _sample(sys, sys.M.is_constant, cfg)
    M = sys.M(T)
    X = M[A] @ M[B]
    if not sys.M.is_constant:
        X = X + _derivatives(sys.M, T, A, B)
    return _symmetry_report(name, X, T, cfg)


def check_F_compatibility(sys: LinearSystem, F: MatrixFamily,
                          cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """X_ab = M_a F_b + dF_a/dt^b symmetric in (a, b)."""
    if F.m != sys.m or F.shape != (sys.n, 1):
        raise ValueError(f"F must be a family of {sys.n}x1 vectors, got {F.shape}")
    name = "F-compatibility (Eq. 7)"
    if sys.m == 1:
        return ConditionReport(name, 0.0, True, None, None)
    T, A, B = _sample(sys, sys.M.is_constant and F.is_constant, cfg)
    X = sys.M(T)[A] @ F(T)[B]
    if not F.is_constant:
        X = X + _derivatives(F, T, A, B)
    return _symmetry_report(name, X, T, cfg)


def check_control_compat(sys: LinearSystem, u,
                         cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """Decides membership of u in the control space: X_ab = M_a N_b u_b
    + N_a du_a/dt^b + (dN_a/dt^b) u_a symmetric in (a, b).  `u` is a
    ControlFamily or any object exposing values(T), which maps a (P, m)
    batch of points to the (m, P, k) stack of every u_alpha, and
    derivative(alpha, beta, T), which maps it to (P, k).
    """
    name = "control-compatibility (Eq. 14)"
    if sys.m == 1:
        return ConditionReport(name, 0.0, True, None, None)
    u_constant = getattr(u, "is_constant", False)
    T, A, B = _sample(sys, sys.is_constant and u_constant, cfg)
    N = sys.N(T)
    U = u.values(T)[..., None]
    X = sys.M(T)[A] @ (N @ U)[B]
    if not u_constant:
        X = X + N[A] @ np.stack([u.derivative(a + 1, b + 1, T) for a, b
                                 in zip(A.tolist(), B.tolist())])[..., None]
    if not sys.N.is_constant:
        X = X + _derivatives(sys.N, T, A, B) @ U[A]
    return _symmetry_report(name, X, T, cfg)


@_once_per_system
def check_gramian_compat(sys: LinearSystem,
                         cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """Path independence of the gramian integrand: X_ab = M_a N_b N_b'
    + N_b N_b' M_a' + (dN_a/dt^b) N_a' + N_a (dN_a/dt^b)' symmetric in (a, b)."""
    name = "gramian-compatibility (Eq. 17)"
    if sys.m == 1:
        return ConditionReport(name, 0.0, True, None, None)
    T, A, B = _sample(sys, sys.is_constant, cfg)
    N = sys.N(T)
    Ma, Na, Nb = sys.M(T)[A], N[A], N[B]
    X = Ma @ Nb @ _T(Nb) + (N @ _T(N))[B] @ _T(Ma)
    if not sys.N.is_constant:
        dN = _derivatives(sys.N, T, A, B)
        X = X + dN @ _T(Na) + Na @ _T(dN)
    return _symmetry_report(name, X, T, cfg)
