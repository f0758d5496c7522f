"""Linear multitime system model and complete-integrability checks.

The system is dx/dt^alpha = M_alpha(t) x + N_alpha(t) u_alpha(t) with m
evolution directions, state dimension n and control dimension k.  Every
downstream computation (flows, gramians, synthesis) is gated by the
condition checks implemented here:

  * M-commutation:        dM_a/dt^b + M_a M_b symmetric in (a, b)
  * F-compatibility:      M_a F_b + dF_a/dt^b symmetric in (a, b)
  * control compatibility: M_a N_b u_b + (dN_a/dt^b) u_a + N_a du_a/dt^b
                           symmetric in (a, b)
  * gramian compatibility: M_a N_b N_b' + (dN_a/dt^b) N_a'
                           + N_a (dN_a/dt^b)' + N_b N_b' M_a' symmetric

Conditions are analytic identities, so they are checked exactly for
constant families (single commutator evaluation) and on a tensor sample
grid over the domain box otherwise.  Failure at any grid point is
conclusive; a pass for a time-varying family means only that the
condition held at the grid_samples_per_axis^m sample points.

Matrix functions evaluate on a whole (P, m) batch of points in one numpy
pass per entry, so each check evaluates every matrix it needs once over
the whole grid, and differentiates each family member once per pair.
"""

from __future__ import annotations

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
    string, no Expr), else None."""
    try:
        grid = np.array(entries)
    except ValueError:  # ragged nesting; the object path reports it
        return None
    return grid.astype(float, copy=False) if grid.dtype.kind in "biuf" else None


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
        constant = np.zeros(grid.shape)  # expression entries stay 0 here
        for (i, j), entry in np.ndenumerate(grid):
            if isinstance(entry, _expr.Expr):
                pass
            elif isinstance(entry, str):
                entry = _expr.parse(entry, m)
            else:
                try:
                    entry = _expr.Num(float(entry))
                except TypeError:
                    raise ValueError(f"matrix entry at ({i}, {j}) must be a number "
                                     f"or an expression, got {entry!r}") from None
            if entry.is_constant():
                value = (entry.value if isinstance(entry, _expr.Num)
                         else entry(np.zeros(m)))
                if not np.isfinite(value):
                    raise ValueError(f"non-finite constant entry at ({i}, {j})")
                constant[i, j] = value
            else:
                self._varying.append((i, j, entry))
        self._constant = constant

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
        if not self._varying:
            return MatrixFunction(np.zeros(self.shape), self.m)
        d = np.zeros(self.shape, dtype=object)
        for i, j, e in self._varying:
            d[i, j] = e.diff(beta)
        return MatrixFunction(d, self.m)


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

    def __getitem__(self, alpha0: int) -> MatrixFunction:
        return self.members[alpha0]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return self.m


class ControlFamily:
    """A control candidate u = (u_alpha): m members, each a k-vector.

    Entries are constants or expressions; membership in the control space
    is decided by `check_control_compat`.  Black-box callables without
    derivatives are deliberately not accepted.
    """

    def __init__(self, members: Sequence[MatrixFunction]):
        members = list(members)
        k = members[0].shape[0]
        for u in members:
            if u.shape != (k, 1):
                raise ValueError("control members must be column vectors of equal size")
        self.members = members
        self.m = len(members)
        self.k = k

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

    @property
    def is_constant(self) -> bool:
        return all(u.is_constant for u in self.members)

    def value(self, alpha: int, t) -> np.ndarray:
        """u_alpha(t) as a flat k-vector (alpha is 1-based); (P, k) on a
        batch of points of shape (P, m)."""
        return self.members[alpha - 1](t)[..., 0]

    def derivative(self, alpha: int, beta: int, t) -> np.ndarray:
        """d u_alpha / dt^beta at t, as a flat k-vector; (P, k) on a batch."""
        return self.members[alpha - 1].diff(beta)(t)[..., 0]


class LinearSystem:
    """The full model: dimensions, matrix families M (n x n) and N (n x k),
    and the axis-aligned domain box the time-varying entries live on."""

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

    @classmethod
    def from_data(cls, m: int, n: int, k: int, M_data, N_data,
                  domain=None) -> "LinearSystem":
        return cls(m, n, k, MatrixFamily.from_data(M_data, m),
                   MatrixFamily.from_data(N_data, m),
                   None if domain is None else np.asarray(domain, dtype=float))

    @property
    def is_constant(self) -> bool:
        return self.M.is_constant and self.N.is_constant

    def contains(self, t) -> bool:
        t = as_point(t, m=self.m)
        if self.domain is None:
            return True
        return bool(np.all(t >= self.domain[:, 0]) and np.all(t <= self.domain[:, 1]))

    def grid_points(self, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
        """Tensor sample grid over the domain box, endpoints included."""
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
        return np.stack([g.ravel() for g in mesh], axis=-1)


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


def _run_pair_check(name: str, sys: LinearSystem, sides_fn, constant: bool,
                    cfg: NumericConfig) -> ConditionReport:
    """Evaluate sides_fn(alpha, beta, T) -> (lhs, rhs) for all pairs
    alpha < beta and reduce |lhs - rhs| to a report.  Constant families
    are checked at one point T of shape (m,), giving single matrices;
    time-varying ones on the whole (P, m) sample grid T at once, giving
    (P, r, c) stacks.  The worst point is the first maximum in
    point-major, pair-minor order."""
    pairs = list(itertools.combinations(range(1, sys.m + 1), 2))
    if not pairs:
        return ConditionReport(name, 0.0, True, None, None)
    T = np.zeros(sys.m) if constant else sys.grid_points(cfg)
    points = np.atleast_2d(T)
    residuals = np.empty((len(points), len(pairs)))
    scale = 0.0  # largest side norm, per point
    for p, (a, b) in enumerate(pairs):
        lhs, rhs = sides_fn(a, b, T)
        residuals[:, p] = _norms(lhs - rhs)
        scale = np.maximum(scale, np.maximum(_norms(lhs), _norms(rhs)))
    worst = int(np.argmax(residuals))
    r = float(residuals.flat[worst])
    passed = bool(r <= cfg.residual_rel_tol * (1.0 + float(np.max(scale))))
    if r == 0.0:
        return ConditionReport(name, 0.0, passed, None, None)
    return ConditionReport(name, r, passed, points[worst // len(pairs)],
                           pairs[worst % len(pairs)])


def check_M_commutation(sys: LinearSystem,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """dM_a/dt^b + M_a M_b - dM_b/dt^a - M_b M_a over all pairs a < b."""
    constant = sys.M.is_constant

    def sides(a, b, T):
        Ma, Mb = sys.M[a - 1](T), sys.M[b - 1](T)
        lhs = Ma @ Mb
        rhs = Mb @ Ma
        if not constant:
            lhs = lhs + sys.M[a - 1].diff(b)(T)
            rhs = rhs + sys.M[b - 1].diff(a)(T)
        return lhs, rhs

    return _run_pair_check("M-commutation (Eq. 6)", sys, sides, constant, cfg)


def check_F_compatibility(sys: LinearSystem, F: MatrixFamily,
                          cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """M_a F_b + dF_a/dt^b - M_b F_a - dF_b/dt^a on the sample set."""
    if F.m != sys.m or F.shape != (sys.n, 1):
        raise ValueError(f"F must be a family of {sys.n}x1 vectors, got {F.shape}")
    constant = sys.M.is_constant and F.is_constant

    def sides(a, b, T):
        lhs = sys.M[a - 1](T) @ F[b - 1](T)
        rhs = sys.M[b - 1](T) @ F[a - 1](T)
        if not constant:
            lhs = lhs + F[a - 1].diff(b)(T)
            rhs = rhs + F[b - 1].diff(a)(T)
        return lhs, rhs

    return _run_pair_check("F-compatibility (Eq. 7)", sys, sides, constant, cfg)


def check_control_compat(sys: LinearSystem, u,
                         cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """Decides membership of u in the control space.

    Residual of M_a N_b u_b + (dN_a/dt^b) u_a + N_a du_a/dt^b minus the
    (a <-> b) swap.  `u` is a ControlFamily or any object exposing
    value(alpha, T) and derivative(alpha, beta, T) that take one point
    (m,) or a (P, m) batch of points and return (k,) or (P, k).
    """
    constant = (sys.is_constant and getattr(u, "is_constant", False))

    def sides(a, b, T):
        Na, Nb = sys.N[a - 1](T), sys.N[b - 1](T)
        ua, ub = u.value(a, T)[..., None], u.value(b, T)[..., None]
        lhs = sys.M[a - 1](T) @ (Nb @ ub) + Na @ u.derivative(a, b, T)[..., None]
        rhs = sys.M[b - 1](T) @ (Na @ ua) + Nb @ u.derivative(b, a, T)[..., None]
        if not sys.N.is_constant:
            lhs = lhs + sys.N[a - 1].diff(b)(T) @ ua
            rhs = rhs + sys.N[b - 1].diff(a)(T) @ ub
        return lhs, rhs

    return _run_pair_check("control-compatibility (Eq. 14)", sys, sides,
                           constant, cfg)


def check_gramian_compat(sys: LinearSystem,
                         cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """Path-independence condition for the gramian integrand.

    Residual of M_a N_b N_b' + (dN_a/dt^b) N_a' + N_a (dN_a/dt^b)'
    + N_b N_b' M_a' minus the (a <-> b) swap.
    """
    constant = sys.is_constant

    def sides(a, b, T):
        Ma, Mb = sys.M[a - 1](T), sys.M[b - 1](T)
        Na, Nb = sys.N[a - 1](T), sys.N[b - 1](T)
        lhs = Ma @ Nb @ _T(Nb) + Nb @ _T(Nb) @ _T(Ma)
        rhs = Mb @ Na @ _T(Na) + Na @ _T(Na) @ _T(Mb)
        if not sys.N.is_constant:
            dNa = sys.N[a - 1].diff(b)(T)
            dNb = sys.N[b - 1].diff(a)(T)
            lhs = lhs + dNa @ _T(Na) + Na @ _T(dNa)
            rhs = rhs + dNb @ _T(Nb) + Nb @ _T(dNb)
        return lhs, rhs

    return _run_pair_check("gramian-compatibility (Eq. 17)", sys, sides,
                           constant, cfg)
