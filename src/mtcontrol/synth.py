"""Control synthesis: concrete controls realizing feasible phase transfers.

The candidate family is u_alpha(s) = N_alpha(s)' chi(t0, s)' v; whenever
the gramian compatibility condition holds, every such family lies in the
control space, and choosing v as the minimum-norm solution of
C(t0, t) v = w, w = chi(t0, t) y - x0, realizes the transfer
(t0, x0) -> (t, y) whenever `decide_transfer` finds it feasible.

`verify_transfer` checks a control by the endpoint it reaches.  On a
constant system that endpoint comes without quadrature: the control is
the output of the linear exosystem z = chi(t0, s)' v, so plant and
control form one constant system of size 2n, and one exponential of its
generator (Van Loan, 1978) gives the forced part, independent of the
gramian's 16-node quadrature.  A time-varying system runs the controlled
solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_CONFIG, NumericConfig, as_point, norm
from .flow import _controlled_solve, _steered_endpoint, transition
from .gramian import TransferDecision, decide_transfer
from .system import (LinearSystem, _T, check_gramian_compat,
                     check_M_commutation, require)

__all__ = [
    "SynthesizedControl",
    "SynthesisResult",
    "synthesize_transfer",
    "TransferVerification",
    "verify_transfer",
]


@dataclass(frozen=True)
class SynthesizedControl:
    """The closed-over family u_alpha(s) = N_alpha(s)' chi(t0, s)' v of
    k x 1 columns, taken like a MatrixFamily (`m`, `shape`, `is_constant`,
    u(s) and `jet`); `jet` uses d chi(t0,s)/ds^b = -chi(t0,s) M_b(s).

    It is a control by construction: building one requires M-commutation
    (Eq. 6) and, unless v = 0 (the zero control), gramian compatibility
    (Eq. 17), and raises CompatibilityError otherwise.
    """

    system: LinearSystem
    anchor: np.ndarray          # t0
    v: np.ndarray               # gramian preimage, length n
    cfg: NumericConfig = field(default=DEFAULT_CONFIG, repr=False)
    is_constant = False  # class attributes, not fields
    m = property(lambda self: self.system.m)
    shape = property(lambda self: (self.system.k, 1))

    def __post_init__(self):
        sys = self.system
        require(check_M_commutation(sys, self.cfg))
        object.__setattr__(self, "anchor", as_point(self.anchor, m=sys.m))
        object.__setattr__(self, "v", as_point(np.ravel(self.v), m=sys.n))
        if np.any(self.v):
            require(check_gramian_compat(sys, self.cfg))

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

    def jet(self, T: np.ndarray, A: np.ndarray, B: np.ndarray) -> tuple:
        """(self(T), du_a/ds^b) on the points T (P, m), as `MatrixFamily.jet`
        gives them, both from one chi(t0, s)' v."""
        sysm = self.system
        w = self._weight(T)
        N, dN = sysm.N.jet(T, A, B)
        out = -_T(N[A]) @ _T(sysm.M(T)[B]) @ w
        if dN is not None:
            out = out + _T(dN) @ w
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


@dataclass(frozen=True)
class SynthesisResult:
    control: SynthesizedControl
    decision: TransferDecision


def synthesize_transfer(sys: LinearSystem, t0, x0, t, y,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> SynthesisResult:
    """Minimum-norm synthesis of a control transferring (t0, x0) to (t, y).

    The verdict is `decide_transfer`'s, the one `analyze` reports: feasible
    iff w = chi(t0, t) y - x0 lies in Im C(t0, t).  The control takes
    v = C^+ w from that decision's basis (`SubspaceBasis.preimage`), so
    C v = w when the transfer is feasible.  For unordered endpoint pairs
    the same formula applies but is outside the Im C = V guarantee; the
    decision's ordering says so.
    """
    d = decide_transfer(sys, t0, x0, t, y, cfg)
    control = SynthesizedControl(sys, t0, d.basis.preimage(d.w), cfg)
    return SynthesisResult(control, d)


@dataclass(frozen=True)
class TransferVerification:
    endpoint: np.ndarray
    error: float | None  # None when no target was supplied


def verify_transfer(sys: LinearSystem, control: SynthesizedControl, t0, x0, t,
                    target=None,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> TransferVerification:
    """Round trip: the endpoint the control reaches from (t0, x0), compared
    with the target.  On a constant system (`sys.is_constant`) the endpoint
    comes from one block exponential of plant and control together
    (`flow._steered_endpoint`), independent of the gramian's quadrature;
    a time-varying one runs the controlled solver on the segment t0 -> t.
    The control was gated when it was built (a control check would sample
    chi on a grid), so it must have been built for this very system; a
    control built for another system is a ValueError."""
    if control.system is not sys:
        raise ValueError("the control was built for another system")
    if sys.is_constant:
        endpoint = _steered_endpoint(sys, control.anchor, control.v, t0, x0, t, cfg)
    else:
        endpoint = _controlled_solve(sys, control, t0, x0, t, None, cfg)
    error = None
    if target is not None:
        target = as_point(np.ravel(target), m=sys.n)
        error = norm(endpoint - target)
    return TransferVerification(endpoint, error)
