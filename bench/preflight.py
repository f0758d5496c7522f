"""Every CLI subcommand on every demo config, in text and JSON mode.

Not timed.  Each call must exit with its expected code and print a report;
two answers are also checked against closed forms: the diagonal demo's
gramian entry (1 - e^-2)/2 and the cyclic demo's refusal by the
gramian-compatibility gate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DEMOS = ("cyclic_three_time", "diagonal_two_time", "scalar_transport")
# The cyclic system fails the gramian condition, which gates these commands.
REFUSED = {("cyclic_three_time", c) for c in ("gramian", "analyze", "synthesize")}


def _argv(command: str, path: str, m: int, n: int, control: str) -> list[str]:
    t0 = ",".join(["0"] * m)
    t = ",".join(["1"] + ["0"] * (m - 1))
    x0 = ",".join(["1"] + ["0"] * (n - 1))
    y = ",".join(["0"] * n)
    flags = {
        "check": [],
        "flow": [f"--t0={t0}", f"--t={t}", f"--x0={x0}", f"--phi0={x0}"],
        "gramian": [f"--t0={t0}", f"--t={t}"],
        "kalman": [],
        "analyze": [f"--t0={t0}", f"--t={t}", f"--x0={x0}", f"--y={y}"],
        "synthesize": [f"--t0={t0}", f"--t={t}", f"--x0={x0}", f"--y={y}"],
        "simulate": [f"--t0={t0}", f"--t={t}", f"--x0={x0}", f"--control={control}"],
    }[command]
    return [command, path, *flags]


COMMANDS = ("check", "flow", "gramian", "kalman", "analyze", "synthesize", "simulate")


def run(call, root: Path, workdir: Path) -> tuple[int, list[str]]:
    """Return (calls made, problems); `call(argv)` gives (exit code, stdout)."""
    calls, problems = 0, []
    for demo in DEMOS:
        path = root / "demos" / "configs" / f"{demo}.json"
        doc = json.loads(path.read_text())
        m, n, k = doc["m"], doc["n"], doc["k"]
        control = workdir / f"control-{demo}.json"
        control.write_text(json.dumps({"u": [[0.0] * k for _ in range(m)]}))
        for command in COMMANDS:
            argv = _argv(command, str(path), m, n, str(control))
            want = 2 if (demo, command) in REFUSED else 0
            for mode in ("text", "json"):
                full = ["--json", *argv] if mode == "json" else argv
                code, text = call(full)
                calls += 1
                where = f"preflight {demo} {command} ({mode})"
                if code != want:
                    problems.append(f"{where}: exit {code}, expected {want}")
                    continue
                if not text.strip():
                    problems.append(f"{where}: empty report")
                    continue
                if mode == "text":
                    continue
                out = json.loads(text)
                if (demo, command) == ("diagonal_two_time", "gramian"):
                    want_c = (1 - math.exp(-2)) / 2
                    if abs(out["value"][0][0] - want_c) > 1e-10:
                        problems.append(f"{where}: C11 {out['value'][0][0]} != {want_c}")
                if (demo, command) == ("cyclic_three_time", "gramian"):
                    gate = out.get("gate", {}).get("condition", "")
                    if not gate.startswith("gramian-compatibility"):
                        problems.append(f"{where}: refusal names {gate!r}")
    return calls, problems
