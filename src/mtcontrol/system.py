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
conclusive; passing on a modest grid is cross-checked downstream by the
path-independence certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as _expr
from .core import DEFAULT_CONFIG, NumericConfig, as_point

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


class MatrixFunction:
    """A matrix whose entries are real constants or expressions of t1..tm."""

    def __init__(self, entries, m: int):
        grid = np.asarray(entries, dtype=object)
        if grid.ndim == 1:
            grid = grid.reshape(-1, 1)
        if grid.ndim != 2:
            raise ValueError(f"matrix entries must be 2-D, got shape {grid.shape}")
        parsed = np.empty(grid.shape, dtype=object)
        constant = np.zeros(grid.shape)
        self._all_constant = True
        for (i, j), entry in np.ndenumerate(grid):
            if isinstance(entry, _expr.Expr):
                pass
            elif isinstance(entry, str):
                entry = _expr.parse(entry, m)
            else:
                entry = _expr.Num(float(entry))
            if entry.is_constant():
                value = entry(np.zeros(m))
                if not np.isfinite(value):
                    raise ValueError(f"non-finite constant entry at ({i}, {j})")
                constant[i, j] = value
                parsed[i, j] = _expr.Num(value)
            else:
                self._all_constant = False
                parsed[i, j] = entry
        self.m = m
        self.entries = parsed
        self._constant_value = constant if self._all_constant else None

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def is_constant(self) -> bool:
        return self._all_constant

    def __call__(self, t) -> np.ndarray:
        if self._constant_value is not None:
            return self._constant_value.copy()
        t = as_point(t, m=self.m)
        out = np.empty(self.shape)
        for (i, j), e in np.ndenumerate(self.entries):
            out[i, j] = e(t)
        return out

    def diff(self, beta: int) -> "MatrixFunction":
        """Entrywise exact partial derivative with respect to t^beta."""
        d = np.empty(self.shape, dtype=object)
        for (i, j), e in np.ndenumerate(self.entries):
            d[i, j] = e.diff(beta)
        return MatrixFunction(d, self.m)


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
        if len(data) != m:
            raise ValueError(f"expected {m} family members, got {len(data)}")
        return cls([MatrixFunction(entry, m) for entry in data])

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
        if len(data) != m:
            raise ValueError(f"expected {m} control members, got {len(data)}")
        members = []
        for entry in data:
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
        """u_alpha(t) as a flat k-vector (alpha is 1-based)."""
        return self.members[alpha - 1](t)[:, 0]

    def derivative(self, alpha: int, beta: int, t) -> np.ndarray:
        """d u_alpha / dt^beta at t, as a flat k-vector."""
        return self.members[alpha - 1].diff(beta)(t)[:, 0]


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


def _run_pair_check(name: str, sys: LinearSystem, sides_fn, constant: bool,
                    cfg: NumericConfig) -> ConditionReport:
    """Evaluate sides_fn(alpha, beta, t) -> (lhs, rhs) over all pairs
    alpha < beta and all sample points; reduce |lhs - rhs| to a report."""
    pairs = list(itertools.combinations(range(1, sys.m + 1), 2))
    if not pairs:
        return ConditionReport(name, 0.0, True, None, None)
    points = np.zeros((1, sys.m)) if constant else sys.grid_points(cfg)
    worst = (0.0, None, None)
    scale = 0.0
    for t in points:
        for a, b in pairs:
            lhs, rhs = sides_fn(a, b, t)
            scale = max(scale, np.linalg.norm(lhs), np.linalg.norm(rhs))
            r = float(np.linalg.norm(lhs - rhs))
            if r > worst[0]:
                worst = (r, t, (a, b))
    passed = bool(worst[0] <= cfg.residual_rel_tol * (1.0 + float(scale)))
    return ConditionReport(name, worst[0], passed, worst[1], worst[2])


def check_M_commutation(sys: LinearSystem,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """dM_a/dt^b + M_a M_b - dM_b/dt^a - M_b M_a over all pairs a < b."""
    constant = sys.M.is_constant

    def sides(a, b, t):
        Ma, Mb = sys.M[a - 1](t), sys.M[b - 1](t)
        lhs = Ma @ Mb
        rhs = Mb @ Ma
        if not constant:
            lhs = lhs + sys.M[a - 1].diff(b)(t)
            rhs = rhs + sys.M[b - 1].diff(a)(t)
        return lhs, rhs

    return _run_pair_check("M-commutation (Eq. 6)", sys, sides, constant, cfg)


def check_F_compatibility(sys: LinearSystem, F: MatrixFamily,
                          cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """M_a F_b + dF_a/dt^b - M_b F_a - dF_b/dt^a on the sample set."""
    if F.m != sys.m or F.shape != (sys.n, 1):
        raise ValueError(f"F must be a family of {sys.n}x1 vectors, got {F.shape}")
    constant = sys.M.is_constant and F.is_constant

    def sides(a, b, t):
        lhs = sys.M[a - 1](t) @ F[b - 1](t)
        rhs = sys.M[b - 1](t) @ F[a - 1](t)
        if not constant:
            lhs = lhs + F[a - 1].diff(b)(t)
            rhs = rhs + F[b - 1].diff(a)(t)
        return lhs, rhs

    return _run_pair_check("F-compatibility (Eq. 7)", sys, sides, constant, cfg)


def check_control_compat(sys: LinearSystem, u,
                         cfg: NumericConfig = DEFAULT_CONFIG) -> ConditionReport:
    """Decides membership of u in the control space.

    Residual of M_a N_b u_b + (dN_a/dt^b) u_a + N_a du_a/dt^b minus the
    (a <-> b) swap.  `u` is a ControlFamily or any object exposing
    value(alpha, t) and derivative(alpha, beta, t).
    """
    constant = (sys.is_constant and getattr(u, "is_constant", False))

    def sides(a, b, t):
        Na, Nb = sys.N[a - 1](t), sys.N[b - 1](t)
        ua, ub = u.value(a, t), u.value(b, t)
        lhs = sys.M[a - 1](t) @ (Nb @ ub) + Na @ u.derivative(a, b, t)
        rhs = sys.M[b - 1](t) @ (Na @ ua) + Nb @ u.derivative(b, a, t)
        if not sys.N.is_constant:
            lhs = lhs + sys.N[a - 1].diff(b)(t) @ ua
            rhs = rhs + sys.N[b - 1].diff(a)(t) @ ub
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

    def sides(a, b, t):
        Ma, Mb = sys.M[a - 1](t), sys.M[b - 1](t)
        Na, Nb = sys.N[a - 1](t), sys.N[b - 1](t)
        lhs = Ma @ Nb @ Nb.T + Nb @ Nb.T @ Ma.T
        rhs = Mb @ Na @ Na.T + Na @ Na.T @ Mb.T
        if not sys.N.is_constant:
            dNa = sys.N[a - 1].diff(b)(t)
            dNb = sys.N[b - 1].diff(a)(t)
            lhs = lhs + dNa @ Na.T + Na @ dNa.T
            rhs = rhs + dNb @ Nb.T + Nb @ dNb.T
        return lhs, rhs

    return _run_pair_check("gramian-compatibility (Eq. 17)", sys, sides,
                           constant, cfg)
