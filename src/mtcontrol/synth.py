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
    """The closed-over family u_alpha(s) = N_alpha(s)' chi(t0, s)' v.

    Exposes values/derivative so the control-compatibility check can accept
    it; the partial derivative uses d chi(t0,s)/ds^b = -chi(t0,s) M_b(s).
    `valid` records whether the gramian condition held at construction
    (equivalently, whether the family is guaranteed to be a control).
    """

    system: LinearSystem
    anchor: np.ndarray          # t0
    v: np.ndarray               # gramian preimage, length n
    valid: bool
    gramian_condition: ConditionReport
    cfg: NumericConfig = field(default=DEFAULT_CONFIG, repr=False)

    def _weight(self, s) -> np.ndarray:
        """chi(t0, s)' v as an (n, 1) column at one point s (m,), or as
        (P, n, 1) on a batch of points (P, m)."""
        chi = transition(self.system, self.anchor, s, self.cfg)
        return (_T(chi) @ self.v)[..., None]

    def values(self, s) -> np.ndarray:
        """Every u_alpha(s), stacked: (m, k) at one point s (m,), (m, P, k)
        on a batch of points (P, m).  chi(t0, s)' v is taken once for all
        directions."""
        return (_T(self.system.N(s)) @ self._weight(s))[..., 0]

    def value(self, alpha: int, s) -> np.ndarray:
        """u_alpha(s): k-vector at one point s (m,), (P, k) on a batch."""
        return self.values(s)[alpha - 1]

    def derivative(self, alpha: int, beta: int, s) -> np.ndarray:
        """d u_alpha / ds^beta at one point (k,) or on a batch (P, k)."""
        sysm = self.system
        w = self._weight(s)
        out = -_T(sysm.N[alpha - 1](s)) @ _T(sysm.M[beta - 1](s)) @ w
        if not sysm.N.is_constant:
            out = out + _T(sysm.N[alpha - 1].diff(beta)(s)) @ w
        return out[..., 0]

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
            rows.append({"t": p.tolist(), "u": self.values(p).tolist()})
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
