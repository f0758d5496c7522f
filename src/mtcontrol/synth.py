"""Control synthesis: concrete controls realizing feasible phase transfers.

The candidate family is u_alpha(s) = N_alpha(s)' chi(t0, s)' v; whenever
the gramian compatibility condition holds, every such family lies in the
control space, and choosing v as the minimum-norm solution of
C(t0, t) v = chi(t0, t) y - x0 realizes the transfer (t0, x0) -> (t, y)
whenever it is realizable at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_CONFIG, NumericConfig, as_point
from .flow import _controlled_solve, transition
from .gramian import controllability_gramian, _ordering
from .system import (CompatibilityError, ConditionReport, LinearSystem, _T,
                     check_gramian_compat, check_M_commutation, require)

__all__ = [
    "SynthesizedControl",
    "candidate_control",
    "SynthesisResult",
    "synthesize_transfer",
    "TransferVerification",
    "verify_transfer",
]


@dataclass(frozen=True)
class SynthesizedControl:
    """The closed-over family u_alpha(s) = N_alpha(s)' chi(t0, s)' v of
    k x 1 columns, taken like a ControlFamily; `derivatives` uses
    d chi(t0,s)/ds^b = -chi(t0,s) M_b(s).  `valid` records whether the
    gramian condition held at construction (equivalently, whether the
    family is guaranteed to be a control).
    """

    system: LinearSystem
    anchor: np.ndarray          # t0
    v: np.ndarray               # gramian preimage, length n
    valid: bool
    gramian_condition: ConditionReport
    cfg: NumericConfig = field(default=DEFAULT_CONFIG, repr=False)
    is_constant = False  # a class attribute, not a field

    def _weight(self, s) -> np.ndarray:
        """chi(t0, s)' v as an (n, 1) column at one point s (m,), or as
        (P, n, 1) on a batch of points (P, m)."""
        chi = transition(self.system, self.anchor, s, self.cfg)
        return (_T(chi) @ self.v)[..., None]

    def __call__(self, s) -> np.ndarray:
        """Every u_alpha(s) as a k x 1 column, stacked: (m, k, 1) at one
        point s (m,), (m, P, k, 1) on a batch of points (P, m).
        chi(t0, s)' v is taken once for all directions."""
        return _T(self.system.N(s)) @ self._weight(s)

    def derivatives(self, T: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """du_a/ds^b on the points T (P, m) for each ordered pair (a, b) of
        the 0-based index arrays (A, B), as a (len(A), P, k, 1) stack.
        chi(t0, s)' v is taken once for all pairs."""
        return self.jet(T, A, B)[1]

    def jet(self, T: np.ndarray, A: np.ndarray, B: np.ndarray) -> tuple:
        """(self(T), self.derivatives(T, A, B)) from one chi(t0, s)' v on
        the points T (P, m)."""
        sysm = self.system
        w = self._weight(T)
        N = sysm.N(T)
        out = -_T(N[A]) @ _T(sysm.M(T)[B]) @ w
        if not sysm.N.is_constant:
            out = out + _T(sysm.N.derivatives(T, A, B)) @ w
        return _T(N) @ w, out

    def describe(self) -> str:
        v = ", ".join(f"{x:.12g}" for x in self.v)
        t0 = ", ".join(f"{x:.12g}" for x in self.anchor)
        return (f"u_a(s) = N_a(s)^T chi(t0, s)^T v with t0 = ({t0}) "
                f"and v = ({v})")

    def sample(self, points) -> list[dict]:
        """Numeric export: control values on a grid of multitime points."""
        rows = []
        for p in points:
            p = as_point(p, m=self.system.m)
            rows.append({"t": p.tolist(), "u": self(p)[..., 0].tolist()})
        return rows


def candidate_control(sys: LinearSystem, t0, v,
                      cfg: NumericConfig = DEFAULT_CONFIG) -> SynthesizedControl:
    """Build u_{alpha,v}; validity is a flag, not an error."""
    require(check_M_commutation(sys, cfg))
    t0 = as_point(t0, m=sys.m)
    v = np.asarray(v, dtype=float).reshape(sys.n)
    condition = check_gramian_compat(sys, cfg)
    valid = bool(condition.passed or not np.any(v))  # the zero control always works
    return SynthesizedControl(sys, t0, v, valid, condition, cfg)


@dataclass(frozen=True)
class SynthesisResult:
    control: SynthesizedControl
    feasible: bool
    residual: float
    ordering: str   # forward / backward / pseudo
    target: np.ndarray


def synthesize_transfer(sys: LinearSystem, t0, x0, t, y,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> SynthesisResult:
    """Minimum-norm synthesis of a control transferring (t0, x0) to (t, y).

    Solves C(t0, t) v = chi(t0, t) y - x0 by SVD pseudoinverse; the
    transfer is feasible iff the gramian equation is solvable, i.e. the
    defect |C v - w| stays below tolerance.  For unordered endpoint pairs
    the same formula applies but is outside the Im C = V guarantee; the
    ordering is reported so callers can flag it.
    """
    t0 = as_point(t0, m=sys.m)
    t = as_point(t, m=sys.m)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    y = np.asarray(y, dtype=float).reshape(sys.n)

    g = controllability_gramian(sys, t0, t, cfg)  # gates on the conditions
    w = transition(sys, t0, t, cfg) @ y - x0
    v = np.linalg.pinv(g.value, rcond=cfg.rank_rel_tol * max(g.value.shape)) @ w
    residual = float(np.linalg.norm(g.value @ v - w))
    feasible = bool(residual <= cfg.residual_rel_tol * (1.0 + np.linalg.norm(w)))
    control = candidate_control(sys, t0, v, cfg)
    return SynthesisResult(control, feasible, residual, _ordering(t0, t), y)


@dataclass(frozen=True)
class TransferVerification:
    endpoint: np.ndarray
    error: float | None  # None when no target was supplied


def verify_transfer(sys: LinearSystem, control: SynthesizedControl, t0, x0, t,
                    target=None,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> TransferVerification:
    """Round trip: run the controlled solver and compare with the target.
    `control.valid` is the gate: a control check would sample chi on a grid."""
    if not control.valid:
        raise CompatibilityError(control.gramian_condition)
    endpoint = _controlled_solve(sys, control, t0, x0, t, None, cfg)
    error = None
    if target is not None:
        target = np.asarray(target, dtype=float).reshape(sys.n)
        error = float(np.linalg.norm(endpoint - target))
    return TransferVerification(endpoint, error)
