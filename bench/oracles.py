"""Independent answers for every benchmark request.

Nothing here calls the library.  Constant gramians come from the Van Loan
block exponential, time-varying flows and gramians from closed forms and
`scipy.integrate.quad`, ranks from how each system was built, and G from
G_(a, ks) = M^|ks| N_a (every generated family has identical M_a).
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

RESIDUAL_REL_TOL = 1e-8   # NumericConfig.residual_rel_tol, the CLI default
RENDER_REL_TOL = 1e-9     # reports print 12 significant digits

ANTIDERIVATIVES = {
    "lin": lambda c, x: c * x * x / 2,
    "cos": lambda c, x: c * math.sin(x),
    "exp": lambda c, x: -c * math.exp(-x),
    "quad": lambda c, x: c * (x + x ** 3 / 3),
}


class Mismatch(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _close(got, want, what: str, rel: float = RESIDUAL_REL_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    _require(err <= rel * (1.0 + scale), f"{what}: off by {err:.3g} (scale {scale:.3g})")


def _points(argv: list[str]) -> dict[str, np.ndarray]:
    out = {}
    for arg in argv[1:]:
        flag, _, value = arg.partition("=")
        if flag in ("--t0", "--t", "--x0", "--y", "--phi0"):
            out[flag[2:]] = np.array([float(v) for v in value.split(",")])
        else:
            out[flag[2:]] = value
    return out


# --- constant systems ---------------------------------------------------------

def _const(doc):
    return (np.array(doc["M"], dtype=float), np.array(doc["N"], dtype=float))


def van_loan_gramian(M, N, t0, t, kind: str) -> np.ndarray:
    """int_0^1 e^{-sA} Q e^{-sA'} ds (kind C, anchored at t0) or
    int_0^1 e^{sA} Q e^{sA'} ds (kind R, anchored at t), with
    A = sum_a (t - t0)_a M_a and Q = sum_a (t - t0)_a N_a N_a', read off
    one 2n x 2n block exponential (C. Van Loan, IEEE TAC 23(3), 1978)."""
    d = t - t0
    A = np.einsum("a,aij->ij", d, M)
    Q = np.einsum("a,aik,ajk->ij", d, N, N)
    if kind == "R":
        A = -A
    n = A.shape[0]
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = -A
    H[:n, n:] = Q
    H[n:, n:] = A.T
    F = expm(H)
    return F[:n, n:] @ F[:n, :n].T


def const_chi(M, t, t0) -> np.ndarray:
    return expm(np.einsum("a,aij->ij", t - t0, M))


# --- time-varying closed forms --------------------------------------------------

def tv_chi(meta: dict, n: int, t, t0) -> np.ndarray:
    """chi(t, t0) for the separated and nilpotent families."""
    if meta["family"] == "separated":
        phases = [ANTIDERIVATIVES[kind](c, t[a]) - ANTIDERIVATIVES[kind](c, t0[a])
                  for a, kind, c in meta["diag"]]
        return np.diag(np.exp(phases))
    phi = sum(ANTIDERIVATIVES[kind](c, t[a]) - ANTIDERIVATIVES[kind](c, t0[a])
              for a, (kind, c) in enumerate(meta["funcs"]))
    K = np.eye(n, k=1)
    chi, term = np.eye(n), np.eye(n)
    for j in range(1, n):
        term = term @ K * (phi / j)
        chi = chi + term
    return chi


def tv_gramian(meta: dict, N, t0, t, kind: str) -> np.ndarray:
    """Separated scalar-block systems: C (or R) is diagonal with
    C_ii = N_ii^2 int_{t0_a}^{t_a} exp(2 (F(anchor) - F(s))) ds."""
    n = len(meta["diag"])
    out = np.zeros((n, n))
    for i, (a, fkind, c) in enumerate(meta["diag"]):
        if t[a] == t0[a]:
            continue
        F = ANTIDERIVATIVES[fkind]
        anchor = F(c, t0[a] if kind == "C" else t[a])
        val, _ = quad(lambda s: math.exp(2 * (anchor - F(c, s))), t0[a], t[a],
                      epsabs=0.0, epsrel=1e-13, limit=200)
        out[i, i] = N[a][i][0] ** 2 * val
    return out


def rank_rule(a: np.ndarray, rel: float = 1e-10) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel * s[0] * max(a.shape)))


# --- per-kind checks ----------------------------------------------------------

def _check_flow(out, chi, chi_back, p) -> None:
    _close(out["chi"], chi, "chi")
    cond = np.linalg.cond(chi)
    _require(abs(out["condition_number"] - cond) <= 1e-6 * cond,
             f"condition number {out['condition_number']} != {cond}")
    if "x0" in p:
        _close(out["x"], chi @ p["x0"], "x")
    if "phi0" in p:
        _close(out["phi"], chi_back.T @ p["phi0"], "phi")


def check(request: dict, doc: dict, code: int | None, text: str) -> None:
    """Raise Mismatch unless the CLI answer matches the oracle."""
    expect = request["expect"]
    kind = expect["kind"]
    want_code = 2 if kind == "refusal" else 0
    _require(code == want_code, f"exit code {code}, expected {want_code}")
    out = json.loads(text)
    p = _points(request["argv"])

    if kind == "refusal":
        _require(out.get("refused") is True, "expected a refusal")
        _require(out["gate"]["condition"].startswith(expect["gate"]),
                 f"refusal names {out['gate']['condition']!r}, "
                 f"expected {expect['gate']!r}")
    elif kind == "check":
        got = [c["pass"] for c in out["conditions"]]
        _require(got == expect["passes"], f"condition verdicts {got}")
        _require(out["all_pass"] == all(expect["passes"]), "all_pass")
    elif kind == "const_flow":
        M, _ = _const(doc)
        _check_flow(out, const_chi(M, p["t"], p["t0"]),
                    const_chi(M, p["t0"], p["t"]), p)
    elif kind == "tv_flow":
        n = doc["n"]
        _check_flow(out, tv_chi(expect, n, p["t"], p["t0"]),
                    tv_chi(expect, n, p["t0"], p["t"]), p)
    elif kind == "const_gramian":
        M, N = _const(doc)
        want = van_loan_gramian(M, N, p["t0"], p["t"], p["kind"])
        _close(out["value"], want, f"gramian {p['kind']}")
        _require(out["rank"] == expect["rank"], f"rank {out['rank']}")
        _require(out["path_dependent"] is False, "path_dependent")
    elif kind == "tv_gramian":
        want = tv_gramian(expect, doc["N"], p["t0"], p["t"], p["kind"])
        _close(out["value"], want, f"gramian {p['kind']}")
        _require(out["rank"] == rank_rule(want), f"rank {out['rank']}")
    elif kind == "synth":
        _require(out["feasible"] is expect["feasible"],
                 f"feasible {out['feasible']}")
        if expect["feasible"]:
            y = p["y"]
            err = float(np.linalg.norm(np.asarray(out["verification"]["endpoint"]) - y))
            _require(err <= RESIDUAL_REL_TOL * (1.0 + np.linalg.norm(y)),
                     f"round trip misses the target by {err:.3g}")
            # The round trip reuses the library's own chi and quadrature, so
            # v must also solve the gramian equation C(t0, t) v = chi(t0, t) y - x0
            # with the oracle's C and chi.
            if "family" in expect:
                C = tv_gramian(expect, doc["N"], p["t0"], p["t"], "C")
                chi = tv_chi(expect, doc["n"], p["t0"], p["t"])
            else:
                M, N = _const(doc)
                C = van_loan_gramian(M, N, p["t0"], p["t"], "C")
                chi = const_chi(M, p["t0"], p["t"])
            w = chi @ y - p["x0"]
            defect = float(np.linalg.norm(C @ np.asarray(out["v"]) - w))
            _require(defect <= RESIDUAL_REL_TOL * (1.0 + np.linalg.norm(w)),
                     f"v misses the gramian equation by {defect:.3g}")
        else:
            _require("verification" not in out, "infeasible transfer was verified")
    elif kind == "kalman":
        M, N = _const(doc)
        m, n = doc["m"], doc["n"]
        _require(out["rank"] == expect["rank"], f"rank_G {out['rank']}")
        order = sorted(np.ndindex(*([n] * m)),
                       key=lambda ks: (sum(ks), tuple(-k for k in ks)))
        got_index = [(b["alpha"], tuple(b["exponents"])) for b in out["block_index"]]
        want_index = [(a, ks) for a in range(1, m + 1) for ks in order]
        _require(got_index == want_index, "block order")
        powers = [np.eye(n)]
        for _ in range(m * (n - 1)):
            powers.append(powers[-1] @ M[0])
        want = np.hstack([powers[sum(ks)] @ N[a - 1] for a, ks in want_index])
        _close(out["G"], want, "G", rel=RENDER_REL_TOL)
    elif kind == "analyze":
        r, n = expect["rank"], doc["n"]
        auto = out["autonomous"]
        _require(auto["rank_G"] == r and auto["rank_C"] == r,
                 f"ranks G={auto['rank_G']} C={auto['rank_C']}, expected {r}")
        for key in ("transfer_feasible", "phase_controllable", "phase_reachable",
                    "gramian_transfer_feasible"):
            _require(auto[key] is True, key)
        _require(auto["gramian_condition"]["pass"] is True, "gramian condition")
        _require(auto["completely_controllable"] is (r == n), "complete (G)")
        _require(out["transfer"]["feasible"] is True, "transfer feasible")
        _require(out["transfer"]["rank_C"] == r, "transfer rank_C")
        _require(out["complete"]["rank_C"] == r, "complete rank_C")
        _require("warnings" not in out, "unexpected warning")
    else:
        raise Mismatch(f"no oracle for request kind {kind!r}")
