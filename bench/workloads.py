"""Seeded request generators for the three benchmark workloads.

A workload is a list of CLI requests plus the JSON configs they read.  Each
request carries the facts its oracle needs (`expect`), taken from how the
system was constructed, never from the library.  Every number a request
passes to the program is rounded before use, so the oracle and the program
see exactly the same inputs.

Multitime points go on the command line as `--t0=-0.5,0`: argparse would
read the separate form `--t0 -0.5,0` as an unknown flag.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("const_synth", "timevarying_mix", "kalman_scale")

# Scalar coefficient functions of one time axis with closed-form
# antiderivatives; `{v}` is the variable name, `{c}` the coefficient.
FUNCTIONS = {
    "lin": "{c}*{v}",
    "cos": "{c}*cos({v})",
    "exp": "{c}*exp(-{v})",
    "quad": "{c}*(1+{v}^2)",
}


def _num(x: float, digits: int = 4) -> float:
    value = round(float(x), digits)
    return 0.0 if value == 0.0 else value


def _point(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _vec(rng, size, digits=3):
    return [_num(v, digits) for v in rng.uniform(-1.0, 1.0, size)]


class _Builder:
    def __init__(self):
        self.configs: dict[str, dict] = {}

    def config(self, doc: dict) -> str:
        name = f"cfg{len(self.configs):03d}"
        self.configs[name] = doc
        return name

    def result(self, name: str, seed: int, requests: list[dict]) -> dict:
        return {"workload": name, "seed": seed, "configs": self.configs,
                "requests": requests}


def _request(config: str, command: str, expect: dict, **flags) -> dict:
    argv = [command] + [f"--{flag}={value}" for flag, value in flags.items()]
    return {"config": config, "argv": argv, "expect": expect}


def _interleave(groups: list[list[dict]]) -> list[dict]:
    """Round-robin merge, so any prefix of a pass holds every request kind
    in about its share of the whole pass."""
    out, cursors = [], [0] * len(groups)
    total = sum(len(g) for g in groups)
    while len(out) < total:
        for i, g in enumerate(groups):
            share = (len(out) + 1) * len(g) / total
            while cursors[i] < len(g) and cursors[i] < share:
                out.append(g[cursors[i]])
                cursors[i] += 1
    return out


# --- const_synth --------------------------------------------------------------

def passing_system(rng, m: int, n: int, r: int, norm: float = 1.2):
    """The condition-passing recipe of the test suite's `random_passing_system`:
    M_a = c0 I + c1 A + c2 A^2 with A block-diagonal (an r-block and an
    (n-r)-block), N_a = [Q; 0] with Q orthogonal, identical across a.

    M is rescaled to spectral norm `norm` so that chi stays well conditioned
    at every size; Im C = Im G = span(e_1..e_r) holds exactly.
    """
    A = np.zeros((n, n))
    A[:r, :r] = rng.standard_normal((r, r)) / 2
    if r < n:
        A[r:, r:] = rng.standard_normal((n - r, n - r)) / 2
    c = rng.standard_normal(3)
    M = c[0] * np.eye(n) + c[1] * A + c[2] * A @ A
    M *= norm / np.linalg.norm(M, 2)
    N = np.zeros((n, r))
    N[:r, :], _ = np.linalg.qr(rng.standard_normal((r, r)))
    M = [[_num(x, 6) for x in row] for row in M]
    N = [[_num(x, 6) for x in row] for row in N]
    return {"m": m, "n": n, "k": r, "M": [M] * m, "N": [N] * m}


def const_synth(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    b = _Builder()
    synth, gram, flow = [], [], []
    for n in range(3, 9):
        r = n - 1 if n % 2 else n - 2
        for m in (2, 3):
            name = b.config(passing_system(rng, m, n, r))
            for i in range(4):
                t0 = [_num(v) for v in rng.uniform(-0.5, 0.0, m)]
                t = [_num(a + d) for a, d in zip(t0, rng.uniform(0.3, 0.8, m))]
                y = _vec(rng, r) + [0.0] * (n - r)
                x0 = _vec(rng, r) + [0.0] * (n - r)
                feasible = i != 3
                if not feasible:
                    x0[r + int(rng.integers(n - r))] = _num(rng.uniform(0.5, 1.0), 3)
                synth.append(_request(
                    name, "synthesize", {"kind": "synth", "feasible": feasible},
                    t0=_point(t0), t=_point(t), x0=_point(x0), y=_point(y)))
            for kind in ("C", "R"):
                t0 = [_num(v) for v in rng.uniform(-0.5, 0.0, m)]
                t = [_num(a + d) for a, d in zip(t0, rng.uniform(0.3, 0.8, m))]
                gram.append(_request(name, "gramian",
                                     {"kind": "const_gramian", "rank": r},
                                     t0=_point(t0), t=_point(t), kind=kind))
            for _ in range(3):
                t0, t = (np.round(rng.uniform(-1.0, 1.0, (2, m)), 4) + 0.0).tolist()
                flow.append(_request(name, "flow", {"kind": "const_flow"},
                                     t0=_point(t0), t=_point(t),
                                     x0=_point(_vec(rng, n)),
                                     phi0=_point(_vec(rng, n))))
    return b.result("const_synth", seed, _interleave([synth, gram, flow]))


# --- timevarying_mix ----------------------------------------------------------

class _Menu:
    """Hands out coefficient functions in a fixed rotation, so every seed
    puts the same function kinds in the same places (evaluation cost depends
    on the kind); the seed picks the coefficients."""

    def __init__(self, rng):
        self.rng = rng
        self.i = 0

    def take(self, axis: int):
        kind = list(FUNCTIONS)[self.i % len(FUNCTIONS)]
        self.i += 1
        c = _num(self.rng.choice([-1.0, 1.0]) * self.rng.uniform(0.3, 1.0), 3)
        return kind, c, FUNCTIONS[kind].format(c=c, v=f"t{axis}")


def separated_system(rng, menu: _Menu, m: int, block: int):
    """Direction a drives its own diagonal state block with entries f(t_a);
    M_a M_b = 0 and dM_a/dt^b = 0 for a != b, so every condition holds and
    chi is diagonal with closed-form entries."""
    n = m * block
    M = [[[0] * n for _ in range(n)] for _ in range(m)]
    N = [[[0.0] for _ in range(n)] for _ in range(m)]
    diag = [None] * n
    for a in range(m):
        for i in range(a * block, (a + 1) * block):
            kind, c, text = menu.take(a + 1)
            M[a][i][i] = text
            diag[i] = [a, kind, c]
            N[a][i][0] = _num(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0), 3)
    doc = {"m": m, "n": n, "k": 1, "M": M, "N": N, "domain": [[-1, 2]] * m}
    return doc, {"family": "separated", "diag": diag}


def nilpotent_system(rng, menu: _Menu, m: int, n: int):
    """M_a = f_a(t_a) K with K the n x n upper shift, N_a = e_1: every
    condition holds, chi = exp(Phi K) is a finite series and C = (sum of
    the time advances) e_1 e_1'."""
    funcs = [menu.take(a + 1) for a in range(m)]
    M = []
    for _, _, text in funcs:
        Ma = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            Ma[i][i + 1] = text
        M.append(Ma)
    N = [[[1.0]] + [[0.0]] * (n - 1) for _ in range(m)]
    doc = {"m": m, "n": n, "k": 1, "M": M, "N": N, "domain": [[-1, 2]] * m}
    return doc, {"family": "nilpotent", "funcs": [[k, c] for k, c, _ in funcs]}


def mixed_system(rng, menu: _Menu):
    """M_1 depends on t2 and M_2 = 0: dM_1/dt^2 != 0 breaks M-commutation."""
    _, _, text = menu.take(2)
    M = [[[text, 0], [0, 0]], [[0, 0], [0, 0]]]
    doc = {"m": 2, "n": 2, "k": 1, "M": M, "N": [[[1], [0]], [[0], [1]]],
           "domain": [[-1, 2], [-1, 2]]}
    return doc, {"family": "mixed"}


def _tv_points(rng, m: int, axes) -> tuple[list, list]:
    """t0 and t inside [-1, 2]^m; only the listed axes advance."""
    t0 = [_num(v, 3) for v in rng.uniform(-1.0, 0.5, m)]
    t = list(t0)
    for a in axes:
        t[a] = _num(t0[a] + rng.uniform(0.4, 1.4), 3)
    return t0, t


def timevarying_mix(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    menu = _Menu(rng)
    b = _Builder()
    requests = []

    def flows(name, doc, meta, shapes):
        # "1" advances one axis, "*" every axis, "1x" one axis and also asks
        # for x: each of chi and x costs one RK4 integration per axis.
        m, n = doc["m"], doc["n"]
        for i, shape in enumerate(shapes):
            axes = list(range(m)) if shape == "*" else [i % m]
            t0, t = _tv_points(rng, m, axes)
            extra = {"x0": _point(_vec(rng, n))} if shape == "1x" else {}
            requests.append(_request(name, "flow", dict(meta, kind="tv_flow"),
                                     t0=_point(t0), t=_point(t), **extra))

    def check(name, meta, passes):
        requests.append(_request(name, "check", dict(meta, kind="check",
                                                     passes=passes)))

    # (family, m, block or n, systems, flow shapes).  Flows of one RK4
    # integration over one axis ("1") are a third of the requests, and the
    # median lands in the middle of them.  The 2-block flows over both axes
    # and the m=3 flows cost about twice as much and form a band of ~15% of
    # the requests right below the gramians, the synthesis and the m=3
    # checks, so the p90 latency lands inside one class too.
    for family, m, size, count, shapes in (
            ("separated", 2, 1, 10, ("1", "1", "*")),
            ("nilpotent", 2, 2, 3, ("1", "1", "1x")),
            ("nilpotent", 2, 3, 3, ("1", "1", "1x")),
            ("separated", 2, 2, 4, ("*", "*", "*")),
            ("separated", 3, 1, 2, ("1", "1"))):
        for _ in range(count):
            if family == "separated":
                doc, meta = separated_system(rng, menu, m, size)
            else:
                doc, meta = nilpotent_system(rng, menu, m, size)
            name = b.config(doc)
            flows(name, doc, meta, shapes)
            check(name, meta, [True, True, True, True])
    for _ in range(4):
        doc, meta = mixed_system(rng, menu)
        name = b.config(doc)
        t0, t = _tv_points(rng, 2, [0, 1])
        refusal = {"kind": "refusal", "gate": "M-commutation"}
        for command in ("flow", "gramian"):
            requests.append(_request(name, command, refusal, t0=_point(t0),
                                     t=_point(t)))
        check(name, meta, [False, True, True, True])
    # Gramians and synthesis integrate chi at every quadrature node, so they
    # advance one axis only and stay on the scalar-block systems.
    heavy = []
    for axis, kind in ((0, "C"), (1, "R")):
        doc, meta = separated_system(rng, menu, 2, 1)
        name = b.config(doc)
        t0, t = _tv_points(rng, 2, [axis])
        heavy.append(_request(name, "gramian", dict(meta, kind="tv_gramian"),
                              t0=_point(t0), t=_point(t), kind=kind))
        if axis == 0:
            y = _vec(rng, 2)
            x0 = list(y)
            x0[axis] = _num(rng.uniform(-1.0, 1.0), 3)
            heavy.append(_request(name, "synthesize",
                                  dict(meta, kind="synth", feasible=True),
                                  t0=_point(t0), t=_point(t), x0=_point(x0),
                                  y=_point(y)))
    return b.result("timevarying_mix", seed, _interleave([requests, heavy]))


# --- kalman_scale -------------------------------------------------------------

# (m, n, k) with G = n x (m * n^m * k): from 81 to 5,000 columns.  Do not go
# to m=4, n=6, k=4 (20,736 columns, ~3.4 GB for the full SVD's V').  Each
# size gets a kalman, a check and an analyze request; every size but the
# largest appears twice, on different systems, so a pass holds more than
# 100 requests and its p90 has ten requests beyond it.
PASSING_SIZES = ((3, 3, 1), (3, 4, 2), (4, 3, 2), (3, 5, 2), (3, 5, 3),
                 (3, 6, 2), (4, 4, 2), (3, 7, 2), (4, 4, 3)) * 2 + ((4, 5, 2),)
CYCLIC_SIZES = ((3, 3), (3, 5), (4, 4)) * 2
# Bands of repeated sizes put the median and the p90 latency inside one
# request class each, instead of between two classes of different cost:
# narrow analyses (384 columns) around the median, wide ones (2,048 columns)
# at the p90.
BANDS = (((3, 4, 2), 16), ((4, 4, 2), 12))


def cyclic_system(rng, m: int, n: int):
    """M_a = c P for a cyclic permutation P and N_a = e_{pi(a)}: M commutes,
    the gramian condition fails, and Im G is the whole space."""
    perm = rng.permutation(n)
    P = np.zeros((n, n))
    for i in range(n):
        P[perm[(i + 1) % n], perm[i]] = 1.0
    c = _num(rng.uniform(0.5, 1.0), 3)
    M = (c * P).tolist()
    rows = rng.choice(n, size=m, replace=False)
    N = [[[1.0 if i == row else 0.0] for i in range(n)] for row in rows]
    return {"m": m, "n": n, "k": 1, "M": [M] * m, "N": N}


def kalman_scale(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    b = _Builder()
    groups = {"check": [], "kalman": [], "analyze": []}

    def add(name, command, expect, group, **flags):
        groups[group].append(_request(name, command, expect, **flags))

    def analyze(name, m, n, k):
        t0 = [_num(v) for v in rng.uniform(-0.5, 0.0, m)]
        t = [_num(a + d) for a, d in zip(t0, rng.uniform(0.3, 0.8, m))]
        x0 = _vec(rng, k) + [0.0] * (n - k)
        y = _vec(rng, k) + [0.0] * (n - k)
        add(name, "analyze", {"kind": "analyze", "rank": k}, "analyze",
            t0=_point(t0), t=_point(t), x0=_point(x0), y=_point(y))

    for m, n, k in PASSING_SIZES:
        name = b.config(passing_system(rng, m, n, k, norm=0.9))
        add(name, "kalman", {"kind": "kalman", "rank": k}, "kalman")
        add(name, "check", {"kind": "check", "passes": [True] * 4}, "check")
        analyze(name, m, n, k)
    for (m, n, k), count in BANDS:
        for _ in range(count):
            analyze(b.config(passing_system(rng, m, n, k, norm=0.9)), m, n, k)
    for m, n in CYCLIC_SIZES:
        name = b.config(cyclic_system(rng, m, n))
        add(name, "kalman", {"kind": "kalman", "rank": n}, "kalman")
        add(name, "check", {"kind": "check", "passes": [True, True, True, False]},
            "check")
        t0 = [0.0] * m
        t = [_num(v) for v in rng.uniform(0.3, 1.0, m)]
        add(name, "analyze", {"kind": "refusal", "gate": "gramian-compatibility"},
            "analyze", t0=_point(t0), t=_point(t))
    return b.result("kalman_scale", seed, _interleave(list(groups.values())))


def generate(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return globals()[workload](seed)


def write_configs(spec: dict, directory) -> dict[str, str]:
    """Write each config as <name>.json under `directory`; map name -> path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in spec["configs"].items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def canonical_bytes(spec: dict) -> bytes:
    """The request list and configs as canonical JSON, for identity checks."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
