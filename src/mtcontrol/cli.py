"""Command-line front end: config ingestion, dispatch, report emission.

A system lives in a JSON config file:

    {
      "m": 2, "n": 2, "k": 1,
      "M": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
      "N": [[[1], [0]], [[0], [1]]],
      "domain": [[0, 2], [0, 2]],          // optional, per-axis [lo, hi]
      "numeric": {"rank_rel_tol": 1e-10},  // optional overrides
      "u": [["1"], ["0"]],                 // optional control, k x 1 per alpha
      "F": [[[0], [0]], [[0], [0]]]        // optional forcing, n x 1 per alpha
    }

Matrix entries are numbers or expression strings over t1..tm; a column is
a flat list or a nested one, and an integer no float holds reads as +-inf,
as 1e400 does.  Multitime points are passed as comma-separated flag
values; forced integration paths as semicolon-separated waypoints.
Reports render as text, or as JSON with --json.  Exit codes: 0 success
(warnings included), 2 for validation errors, expression domain errors (a
singularity such as 1/t1 at a sample point) and gate refusals.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import flow, gramian, kalman, synth
from .core import NumericConfig, PolylineCurve, as_point, finite
from .expr import ExprDomainError, ExprError
from .system import (CompatibilityError, ConditionReport, LinearSystem,
                     MatrixFamily, check_control_compat, check_F_compatibility,
                     check_gramian_compat, check_M_commutation, require)

__all__ = ["main", "run", "load_config"]


class ConfigError(ValueError):
    pass


# Every computed number in a report is rounded to this format, in text and
# JSON; t0 and t echo the parsed points unrounded.
_FMT = "%.12g"


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _formatted(a: np.ndarray, spell=None) -> list[str]:
    """Every entry of the 2-D float array `a`, row-major, as `_fmt` prints
    it, or as `spell` rewrites the list of those tokens.

    Each distinct bit pattern is formatted and spelled once, all in one `%`
    call, and its token is gathered back for every entry that has it.
    Keying on the int64 view keeps -0.0 apart from 0.0."""
    bits = a.ravel().view(np.int64).tolist()
    distinct = list(set(bits))
    values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
    tokens = ((_FMT + " ") * len(distinct) % tuple(values)).split()
    if spell is not None:
        tokens = spell(tokens)
    return list(map(dict(zip(distinct, tokens)).__getitem__, bits))


# The dimension of each point flag: multitimes take m coordinates, states n.
_POINT_DIMENSIONS = {"t0": "m", "t": "m", "x0": "n", "y": "n", "phi0": "n"}


def _parse_point(text: str, m: int) -> np.ndarray:
    try:
        coords = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad multitime point {text!r}: {exc}") from None
    if len(coords) != m:
        raise ConfigError(f"point {text!r} has {len(coords)} coordinates, expected {m}")
    return as_point(coords, m=m)


def _parse_path(text: str, m: int) -> PolylineCurve:
    points = [_parse_point(part, m) for part in text.split(";")]
    if len(points) < 2:
        raise ConfigError("a path needs at least two waypoints")
    return PolylineCurve(np.stack(points))


def _json_int(text: str) -> int | float:
    """A JSON integer as an int, or as +-inf when no float holds it."""
    number = float(text)
    return int(text) if math.isfinite(number) else number


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})") from None


def build_system(doc: dict) -> tuple[LinearSystem, NumericConfig, dict]:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("m", "n", "k", "M", "N"):
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")
    m, n, k = doc["m"], doc["n"], doc["k"]
    # bool is an int subclass, and a JSON true is not the dimension 1
    if not all(type(v) is int and v >= 1 for v in (m, n, k)):
        raise ConfigError("m, n, k must be positive integers")
    try:
        cfg = NumericConfig(**doc.get("numeric", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric config: {exc}") from None
    try:
        system = LinearSystem.from_data(m, n, k, doc["M"], doc["N"],
                                        domain=doc.get("domain"))
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"bad system data: {exc}") from None
    return system, cfg, doc


def _load_family(data, system: LinearSystem, what: str) -> MatrixFamily:
    """A family of m columns, u or F, each member flat or a nested column."""
    try:
        return MatrixFamily.from_data(data, system.m)
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"bad {what} data: {exc}") from None


def _condition_tree(report: ConditionReport) -> dict:
    # a residual that is not finite is its _fmt string, "inf" or "nan", in JSON
    r = report.max_residual
    return {
        "condition": report.condition_name,
        "pass": report.passed,
        "max_residual": float(_fmt(r)) if math.isfinite(r) else _fmt(r),
        "worst_point": None if report.worst_point is None
        else [float(_fmt(x)) for x in report.worst_point],
        "worst_pair": None if report.worst_pair is None else list(report.worst_pair),
    }


def _refusal(exc: CompatibilityError) -> dict:
    return {
        "refused": True,
        "gate": _condition_tree(exc.report),
        "reason": f"{exc.report.condition_name} residual "
                  f"{_fmt(exc.report.max_residual)}",
    }


# --- commands ---------------------------------------------------------------
#
# `run` loads the config and parses every point flag given before it calls a
# command, so each command takes the system, its numeric config, the config
# document and its points, and a malformed request computes nothing.

def cmd_check(args, system, cfg, doc) -> dict:
    conditions = [check_M_commutation(system, cfg)]
    # u and F default to zero families so the report always carries all four
    # conditions; a config may supply its own control under "u", forcing under "F"
    u = _load_family(doc.get("u", [[0.0] * system.k] * system.m), system, "control")
    F = _load_family(doc.get("F", [[0.0] * system.n] * system.m), system, "forcing")
    conditions.append(check_F_compatibility(system, F, cfg))
    conditions.append(check_control_compat(system, u, cfg))
    conditions.append(check_gramian_compat(system, cfg))
    tree = {"command": "check",
            "conditions": [_condition_tree(c) for c in conditions]}
    tree["all_pass"] = all(c.passed for c in conditions)
    return tree


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a named error
def cmd_flow(args, system, cfg, doc, t0, t, x0=None, phi0=None) -> dict:
    fm = flow.fundamental_matrix(system, t, t0, cfg)
    if not np.isfinite(fm.condition_number):
        # the true chi is invertible: an infinite condition number with a
        # finite largest singular value means chi underflowed to singular
        if np.isfinite(np.linalg.norm(fm.value, 2)):
            raise ValueError("fundamental matrix underflowed (singular to "
                             "working precision) between t0 and t")
        raise ValueError("fundamental matrix is too large for its condition "
                         "number to be computed between t0 and t")
    tree = {
        "command": "flow",
        "t0": t0.tolist(),
        "t": t.tolist(),
        "chi": fm.value,
        "condition_number": float(_fmt(fm.condition_number)),
    }
    if x0 is not None:
        tree["x"] = [float(_fmt(v)) for v in finite(fm.value @ x0, "solution", " at t")]
    if phi0 is not None:
        tree["phi"] = [float(_fmt(v))
                       for v in flow.solve_adjoint(system, t0, phi0, t, cfg)]
    return tree


def cmd_gramian(args, system, cfg, doc, t0, t) -> dict:
    curve = _parse_path(args.force_path, system.m) if args.force_path else None
    func = (gramian.controllability_gramian if args.kind == "C"
            else gramian.reachability_gramian)
    g = func(system, t0, t, cfg, force_curve=curve)
    return {
        "command": "gramian",
        "kind": g.kind,
        "t0": t0.tolist(),
        "t": t.tolist(),
        "value": g.value,
        "rank": gramian.numerical_rank(g.value, cfg),
        "path_dependent": g.path_dependent,
    }


def cmd_kalman(args, system, cfg, doc) -> dict:
    G = kalman.controllability_matrix(system, cfg)
    return {
        "command": "kalman",
        "G": G.value,
        # the records {"alpha": a, "exponents": [k_1, ..., k_m]}, one per block:
        # a record view of the rows of the contiguous int64 block table
        "block_index": G.block_table.view(
            np.dtype([("alpha", np.int64),
                      ("exponents", np.int64, (system.m,))]))[:, 0],
        "rank": kalman.rank_G(G, cfg),
        "state_dimension": system.n,
    }


def cmd_analyze(args, system, cfg, doc, t0, t, x0=None, y=None) -> dict:
    transfer = x0 is not None and y is not None
    x0 = np.zeros(system.n) if x0 is None else x0
    y = np.zeros(system.n) if y is None else y
    tree: dict = {"command": "analyze", "t0": t0.tolist(), "t": t.tolist(),
                  "constant_system": system.is_constant}
    # one transfer decision serves every section below
    if system.is_constant:
        report = kalman.autonomous_analysis(system, t0, x0, t, y, cfg)
        decision = report.gramian_decision
        tree["autonomous"] = {
            "rank_G": report.image_G.rank,
            "transfer_feasible": report.transfer_feasible,
            "transfer_residual": float(_fmt(report.transfer_residual)),
            "phase_controllable": report.phase_controllable,
            "phase_reachable": report.phase_reachable,
            "completely_controllable": report.image_G.full,
            "completely_reachable": report.image_G.full,
            "gramian_condition": _condition_tree(report.gramian_condition),
            "rank_C": decision.basis.rank,
            "gramian_transfer_feasible": decision.feasible,
        }
    else:
        decision = gramian.decide_transfer(system, t0, x0, t, y, cfg)
    if transfer:
        tree["transfer"] = {
            "feasible": decision.feasible,
            "residual": float(_fmt(decision.residual)),
            "ordering": decision.ordering,
            "within_subspace_guarantee": decision.basis.ordered,
            "rank_C": decision.basis.rank,
        }
    tree["complete"] = {
        "completely_controllable": decision.basis.full,
        "completely_reachable": decision.basis.full,
        "rank_C": decision.basis.rank,
    }
    if decision.ordering != "forward":
        tree["complete"]["note"] = "endpoint pair is not strictly ordered"
    return tree


def cmd_synthesize(args, system, cfg, doc, t0, t, x0, y) -> dict:
    result = synth.synthesize_transfer(system, t0, x0, t, y, cfg)
    decision = result.decision
    tree = {
        "command": "synthesize",
        "feasible": decision.feasible,
        "residual": float(_fmt(decision.residual)),
        "ordering": decision.ordering,
        "v": [float(_fmt(v)) for v in result.control.v],
        "control": result.control.describe(),
    }
    if decision.feasible:
        verification = synth.verify_transfer(system, result.control, t0, x0, t,
                                             target=y, cfg=cfg)
        tree["verification"] = {
            "endpoint": [float(_fmt(v)) for v in verification.endpoint],
            "error": float(_fmt(verification.error)),
        }
    return tree


def cmd_simulate(args, system, cfg, doc, t0, t, x0) -> dict:
    control_doc = load_config(args.control)
    if isinstance(control_doc, dict) and "u" not in control_doc:
        raise ConfigError("control document is missing required key 'u'")
    data = control_doc["u"] if isinstance(control_doc, dict) else control_doc
    u = _load_family(data, system, "control")
    require(check_M_commutation(system, cfg))
    condition = require(check_control_compat(system, u, cfg))
    x = flow._controlled_solve(system, u, t0, x0, t, None, cfg)
    return {
        "command": "simulate",
        "t0": t0.tolist(),
        "t": t.tolist(),
        "control_condition": _condition_tree(condition),
        "endpoint": [float(_fmt(v)) for v in x],
    }


# --- rendering / entry point ------------------------------------------------

def _render(tree: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for key, value in tree.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render(value, indent + 1))
        elif (isinstance(value, list) and value
              and all(isinstance(v, dict) for v in value)):
            lines.append(f"{pad}{key}:")
            for v in value:
                lines.append(f"{pad}  -")
                lines.extend(_render(v, indent + 2))
        elif isinstance(value, np.ndarray) and len(value):  # 0 rows print "[]"
            lines.append(f"{pad}{key}:")
            if value.dtype.names:
                lines += _text_table(value, pad).split("\n")
            else:
                tokens, width = _formatted(value), value.shape[1]
                lines += [f"{pad}  [" + ", ".join(tokens[i * width:(i + 1) * width]) + "]"
                          for i in range(len(value))]
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _fields(table: np.ndarray) -> list[tuple[str, int | None]]:
    """(name, length) per field of a structured int table: None for a
    scalar field, the length of a 1-D list field."""
    return [(name, (table.dtype[name].shape or (None,))[0])
            for name in table.dtype.names]


def _table_ints(table: np.ndarray) -> tuple:
    """The fields of every record of a contiguous structured int64 table,
    record-major: the table read as one flat int64 array."""
    return tuple(table.view(np.int64).tolist())


def _text_table(table: np.ndarray, pad: str) -> str:
    """The records of a structured int table as `_render` writes a list of
    dicts whose values are ints and int lists, from one `%` template."""
    record = "\n".join([pad + "  -"] + [
        f"{pad}    {name}: " + ("%d" if n is None else "[" + ", ".join(["%d"] * n) + "]")
        for name, n in _fields(table)])
    return "\n".join([record] * len(table)) % _table_ints(table)


# --- JSON -------------------------------------------------------------------
#
# The stdlib's encoder walks each report; only the arrays, which hold nearly
# all of its bytes, are written in bulk.


def _json_spelling(tokens: list[str]) -> list[str]:
    """`_FMT` tokens as json writes float(token): a plain decimal token is
    already that, an integer gains '.0', and an exponent form (1e+12 and up,
    subnormals) goes through repr."""
    return [t if "." in t and "e" not in t else t + ".0" if "e" not in t
            else repr(float(t)) for t in tokens]


def _json_matrix(a: np.ndarray, pad: str) -> str:
    """A finite 2-D float array as the list of its rows, each entry rounded to
    `_FMT`: `_formatted` gives the tokens and each row joins its own."""
    rows, cols = a.shape
    if not rows:
        return "[]"
    inner, entry = pad + "  ", pad + "    "
    tokens = _formatted(a, _json_spelling)
    lines = (["[\n" + entry + (",\n" + entry).join(tokens[i:i + cols]) + "\n"
              + inner + "]" for i in range(0, rows * cols, cols)]
             if cols else ["[]"] * rows)
    return "[\n" + inner + (",\n" + inner).join(lines) + "\n" + pad + "]"


def _json_table(table: np.ndarray, pad: str) -> str:
    """The records of a structured int table as json writes a list of dicts
    whose values are ints and non-empty int lists, from one `%` template."""
    if not len(table):
        return "[]"
    inner, field, entry = pad + "  ", pad + "    ", pad + "      "
    parts = [json.encoder.encode_basestring_ascii(name) + ": "
             + ("%d" if n is None else
                "[\n" + entry + (",\n" + entry).join(["%d"] * n) + "\n" + field + "]")
             for name, n in _fields(table)]
    record = "{\n" + field + (",\n" + field).join(parts) + "\n" + inner + "}"
    return ("[\n" + inner + (",\n" + inner).join([record] * len(table)) + "\n"
            + pad + "]") % _table_ints(table)


def _json(value) -> str:
    """`value` as json.dumps(value, indent=2, allow_nan=False) writes it,
    with each 2-D float array as the list of its rows rounded to `_FMT` and
    each structured int array as the list of its records; the first
    non-finite float in document order raises the stdlib's ValueError.
    `iterencode`, the stdlib's incremental pure-Python walk, calls `hook` at
    each array in document order and writes the `null` it returns as the
    next chunk; each such stand-in then becomes its array, at its line's indent."""
    chunks: list[str] = []
    arrays: dict[int, np.ndarray] = {}

    def hook(a: np.ndarray):
        if not a.dtype.names and not (finite := np.isfinite(a)).all():
            raise ValueError("Out of range float values are not JSON compliant: "
                             + repr(float(a.flat[np.argmin(finite)])))
        arrays[len(chunks)] = a
        return None

    encoder = json.JSONEncoder(indent=2, allow_nan=False, check_circular=False,
                               default=hook)
    for chunk in encoder.iterencode(value):
        chunks.append(chunk)
    for i, a in arrays.items():
        j = i - 1  # the last newline before the stand-in starts its line
        while j >= 0 and "\n" not in chunks[j]:
            j -= 1
        pad = chunks[j].rpartition("\n")[2] if j >= 0 else ""
        chunks[i] = (_json_table if a.dtype.names else _json_matrix)(a, pad)
    return "".join(chunks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtcontrol",
        description="Controllability analysis of multitime linear PDE systems.")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the system JSON config")
        for flag, required in flags:
            p.add_argument(flag, required=required)
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "run all compatibility condition checks")
    add("flow", cmd_flow, "fundamental matrix and solutions",
        ("--t0", True), ("--t", True), ("--x0", False), ("--phi0", False))
    p = add("gramian", cmd_gramian, "controllability/reachability gramian",
            ("--t0", True), ("--t", True), ("--force-path", False))
    p.add_argument("--kind", choices=["C", "R"], default="C")
    add("kalman", cmd_kalman, "autonomous controllability matrix G")
    add("analyze", cmd_analyze, "feasibility and complete controllability",
        ("--t0", True), ("--t", True), ("--x0", False), ("--y", False))
    add("synthesize", cmd_synthesize, "synthesize a transfer control",
        ("--t0", True), ("--t", True), ("--x0", True), ("--y", True))
    add("simulate", cmd_simulate, "run a controlled solve",
        ("--t0", True), ("--t", True), ("--x0", True), ("--control", True))
    return parser


_PARSER = build_parser()
# A token such as "-0.5,0" is not a plain negative number to argparse, so
# after a space it would be read as an option, not as the flag's value.
_LONG_FLAG = re.compile(r"--[^=]+")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--t0 -0.5,0` as `--t0=-0.5,0`, the spelling argparse takes
    for a value that starts with '-'."""
    out: list[str] = []
    for token in argv:
        if out and _LONG_FLAG.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _PARSER.parse_args(_attach_negative_values(argv))
    try:
        system, cfg, doc = build_system(load_config(args.config))
        points = {name: _parse_point(text, getattr(system, dim))
                  for name, dim in _POINT_DIMENSIONS.items()
                  if (text := getattr(args, name, None)) is not None}
        tree = args.func(args, system, cfg, doc, **points)
        code = 0
    except CompatibilityError as exc:
        tree = {"command": args.command, **_refusal(exc)}
        code = 2
    except (ConfigError, ValueError, ExprDomainError) as exc:
        tree = {"command": args.command, "error": str(exc)}
        code = 2
    except MemoryError as exc:  # numpy's message names the size, Python's is empty
        tree = {"command": args.command,
                "error": f"out of memory: {exc}" if str(exc) else "out of memory"}
        code = 2
    if args.json:
        try:
            text = _json(tree)
        except ValueError as exc:  # an inf or nan that no named error caught
            text = _json({"command": args.command, "error": str(exc)})
            code = 2
        print(text)
    else:
        print("\n".join(_render(tree)))
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
