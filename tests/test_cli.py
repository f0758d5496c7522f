import contextlib
import io
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mtcontrol.flow
import mtcontrol.gramian
import mtcontrol.system
from mtcontrol.cli import _flat_encoder, _json, _render, run
from mtcontrol.core import DEFAULT_CONFIG
from mtcontrol.kalman import controllability_matrix, rank_G
from mtcontrol.system import LinearSystem

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "configs"
DEMO_DIAG = str(DEMOS / "diagonal_two_time.json")

DIAG = {
    "m": 2, "n": 2, "k": 1,
    "M": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    "N": [[[1], [0]], [[0], [1]]],
}

CYCLIC = {
    "m": 3, "n": 3, "k": 1,
    "M": [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]] * 3,
    "N": [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]],
}


@pytest.fixture
def diag_cfg(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(DIAG))
    return str(path)


@pytest.fixture
def cyclic_cfg(tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(CYCLIC))
    return str(path)


def run_json(capsys, argv):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_diag_all_pass(capsys, diag_cfg):
    code, tree = run_json(capsys, ["check", diag_cfg])
    assert code == 0
    assert tree["all_pass"]
    assert len(tree["conditions"]) == 4


def test_check_cyclic_reports_gramian_failure(capsys, cyclic_cfg):
    code, tree = run_json(capsys, ["check", cyclic_cfg])
    assert code == 0  # check reports, it does not refuse
    by_name = {c["condition"]: c for c in tree["conditions"]}
    assert by_name["M-commutation (Eq. 6)"]["pass"]
    assert not by_name["gramian-compatibility (Eq. 17)"]["pass"]
    assert by_name["gramian-compatibility (Eq. 17)"]["max_residual"] == pytest.approx(2.0)
    assert not tree["all_pass"]


def test_check_with_config_control(capsys, tmp_path):
    doc = dict(DIAG, u=[["t1"], ["t2"]], domain=[[0, 1], [0, 1]])
    path = tmp_path / "with_u.json"
    path.write_text(json.dumps(doc))
    code, tree = run_json(capsys, ["check", str(path)])
    assert code == 0
    assert tree["all_pass"]


def test_flow_command(capsys, diag_cfg):
    code, tree = run_json(capsys, ["flow", diag_cfg, "--t0", "0,0",
                                   "--t", "1,0", "--x0", "1,1",
                                   "--phi0", "1,1"])
    assert code == 0
    assert tree["chi"][0][0] == pytest.approx(math.e, rel=1e-11)
    assert tree["chi"][1][1] == 1.0
    assert tree["x"][0] == pytest.approx(math.e, rel=1e-11)
    assert tree["phi"][0] == pytest.approx(math.exp(-1), rel=1e-11)


def test_gramian_command(capsys, diag_cfg):
    code, tree = run_json(capsys, ["gramian", diag_cfg, "--t0", "0,0",
                                   "--t", "1,0"])
    assert code == 0
    assert tree["kind"] == "controllability"
    assert tree["rank"] == 1
    assert tree["value"][0][0] == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-9)
    assert not tree["path_dependent"]


def test_gramian_refusal_names_the_gate(capsys, cyclic_cfg):
    code, tree = run_json(capsys, ["gramian", cyclic_cfg, "--t0", "0,0,0",
                                   "--t", "1,1,1"])
    assert code == 2
    assert tree["refused"]
    assert "gramian-compatibility (Eq. 17)" in tree["gate"]["condition"]
    assert "Eq. 17" in tree["reason"]


def test_gramian_force_path(capsys, cyclic_cfg):
    code, tree = run_json(capsys, ["gramian", cyclic_cfg, "--t0", "0,0,0",
                                   "--t", "1,1,1",
                                   "--force-path", "0,0,0;1,0,0;1,1,1"])
    assert code == 0
    assert tree["path_dependent"]


def test_reachability_force_path_must_run_from_t0_to_t(capsys, diag_cfg):
    code, tree = run_json(capsys, ["gramian", diag_cfg, "--kind", "R",
                                   "--force-path", "1,1;0,0",
                                   "--t0", "0,0", "--t", "1,1"])
    assert code == 2
    assert tree["error"] == "forced curve must run from t0 to t"


def test_kalman_command(capsys, diag_cfg):
    code, tree = run_json(capsys, ["kalman", diag_cfg])
    assert code == 0
    assert tree["rank"] == 2
    assert tree["G"] == [[1, 1, 0, 0, 0, 0, 0, 0],
                         [0, 0, 0, 0, 1, 0, 0, 0]]
    assert tree["block_index"][1] == {"alpha": 1, "exponents": [1, 0]}


# `mtcontrol kalman demos/configs/diagonal_two_time.json`, as printed
_DIAG_KALMAN_TEXT = """\
command: kalman
G:
  [1, 1, 0, 0, 0, 0, 0, 0]
  [0, 0, 0, 0, 1, 0, 0, 0]
block_index:
  -
    alpha: 1
    exponents: [0, 0]
  -
    alpha: 1
    exponents: [1, 0]
  -
    alpha: 1
    exponents: [0, 1]
  -
    alpha: 1
    exponents: [1, 1]
  -
    alpha: 2
    exponents: [0, 0]
  -
    alpha: 2
    exponents: [1, 0]
  -
    alpha: 2
    exponents: [0, 1]
  -
    alpha: 2
    exponents: [1, 1]
rank: 2
state_dimension: 2
"""


def test_kalman_text_report_on_the_diagonal_demo(capsys):
    assert run(["kalman", DEMO_DIAG]) == 0
    assert capsys.readouterr().out == _DIAG_KALMAN_TEXT


def test_analyze_diag_reports_rank_gap(capsys, diag_cfg):
    code, tree = run_json(capsys, ["analyze", diag_cfg, "--t0", "0,0",
                                   "--t", "1,0", "--x0", "1,0", "--y", "0,0"])
    assert code == 0
    assert tree["autonomous"]["rank_G"] == 2
    assert tree["autonomous"]["rank_C"] == 1
    assert tree["transfer"]["feasible"]
    assert tree["complete"]["rank_C"] == 1
    assert not tree["complete"]["completely_controllable"]


@pytest.mark.parametrize("transfer", [["--x0", "1,0", "--y", "0,0"], []],
                         ids=["with_transfer", "without_transfer"])
def test_analyze_builds_the_gramian_once(capsys, monkeypatch, transfer):
    builds = []
    original = mtcontrol.gramian.gramian_integrand

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mtcontrol.gramian, "gramian_integrand", counting)
    code, tree = run_json(capsys, ["analyze", DEMO_DIAG, "--t0", "0,0",
                                   "--t", "1,1", *transfer])
    assert code == 0
    assert tree["complete"]["rank_C"] == 2
    assert len(builds) == 1


GRAMIAN_GATES = ["M-commutation (Eq. 6)", "gramian-compatibility (Eq. 17)"]


@pytest.mark.parametrize("argv, conditions", [
    (["analyze", "--x0", "1,0", "--y", "0,0"], GRAMIAN_GATES),
    (["synthesize", "--x0", "1,0", "--y", "0,0"], GRAMIAN_GATES),
    (["simulate", "--x0", "1,0", "--control"],
     ["M-commutation (Eq. 6)", "control-compatibility (Eq. 14)"]),
], ids=["analyze", "synthesize", "simulate"])
def test_each_system_condition_is_evaluated_once(capsys, monkeypatch, tmp_path,
                                                 diag_cfg, argv, conditions):
    # analyze and synthesize reach the M-commutation and gramian gates twice:
    # through G or the candidate control, and through the gramian; simulate
    # gates the control and reports its condition
    evaluated = []
    original = mtcontrol.system._symmetry_report

    def counting(name, *args):
        evaluated.append(name)
        return original(name, *args)

    if argv[0] == "simulate":
        control = tmp_path / "control.json"
        control.write_text(json.dumps({"u": [["1"], ["0"]]}))
        argv = argv + [str(control)]
    monkeypatch.setattr(mtcontrol.system, "_symmetry_report", counting)
    code, _ = run_json(capsys, [argv[0], diag_cfg, "--t0", "0,0", "--t", "1,1",
                                *argv[1:]])
    assert code == 0
    assert sorted(evaluated) == conditions


def test_analyze_cyclic_carries_warning(capsys, cyclic_cfg):
    code, tree = run_json(capsys, ["analyze", cyclic_cfg, "--t0", "0,0,0",
                                   "--t", "1,1,1"])
    assert code == 2  # the gramian gate refuses the complete decision
    assert tree["refused"]


def test_synthesize_free_evolution(capsys, diag_cfg):
    # y = chi(t, t0) x0 = (e, 1): zero control transfers exactly
    code, tree = run_json(capsys, ["synthesize", diag_cfg, "--t0", "0,0",
                                   "--t", "1,0", "--x0", "1,1",
                                   "--y", f"{math.e},1"])
    assert code == 0
    assert tree["feasible"]
    assert tree["v"] == [0.0, 0.0]
    assert tree["verification"]["error"] <= 1e-9


def test_synthesize_diag_example(capsys, diag_cfg):
    code, tree = run_json(capsys, ["synthesize", diag_cfg, "--t0", "0,0",
                                   "--t", "1,0", "--x0", "1,0", "--y", "0,0"])
    assert code == 0
    assert tree["feasible"]
    assert tree["v"][0] == pytest.approx(-2 / (1 - math.exp(-2)), rel=1e-9)
    assert tree["verification"]["error"] <= 1e-8


def test_simulate_command(capsys, diag_cfg, tmp_path):
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"u": [["1"], ["0"]]}))
    code, tree = run_json(capsys, ["simulate", diag_cfg, "--t0", "0,0",
                                   "--x0", "0,0", "--t", "1,0",
                                   "--control", str(control)])
    assert code == 0
    assert tree["endpoint"][0] == pytest.approx(math.e - 1, rel=1e-9)
    assert tree["endpoint"][1] == 0.0


def test_simulate_rejects_bad_control(capsys, cyclic_cfg, tmp_path):
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"u": [["1"], ["1"], ["1"]]}))
    code, tree = run_json(capsys, ["simulate", cyclic_cfg, "--t0", "0,0,0",
                                   "--x0", "0,0,0", "--t", "1,1,1",
                                   "--control", str(control)])
    assert code == 2
    assert tree["refused"]
    assert "Eq. 14" in tree["gate"]["condition"]


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_simulate_refuses_a_non_commuting_system(capsys, tmp_path, json_mode):
    # M1 M2 - M2 M1 = diag(1, -1); the zero control passes its own condition
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps(dict(DIAG, M=[[[0, 1], [0, 0]], [[0, 0], [1, 0]]])))
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"u": [[0], [0]]}))
    code = run((["--json"] if json_mode else []) + [
        "simulate", str(path), "--t0", "0,0", "--t", "1,1", "--x0", "1,0",
        "--control", str(control)])
    out = capsys.readouterr().out
    assert code == 2
    if json_mode:
        tree = json.loads(out)
        assert tree["refused"] and "endpoint" not in tree
        assert tree["gate"]["condition"] == "M-commutation (Eq. 6)"
    else:
        assert "endpoint" not in out
        assert "reason: M-commutation (Eq. 6) residual 1.41421356237\n" in out


def test_invalid_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2,,}')
    code, tree = run_json(capsys, ["check", str(bad)])
    assert code == 2
    assert "line 1" in tree["error"]


def test_missing_key_is_config_error(capsys, tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "k": 1}))
    code, tree = run_json(capsys, ["check", str(path)])
    assert code == 2
    assert "M" in tree["error"]


def test_bad_point_dimension(capsys, diag_cfg):
    code, tree = run_json(capsys, ["flow", diag_cfg, "--t0", "0,0,0",
                                   "--t", "1,0"])
    assert code == 2
    assert "coordinates" in tree["error"]


def test_reports_are_deterministic(capsys, diag_cfg):
    argv = ["analyze", diag_cfg, "--t0", "0,0", "--t", "1,0",
            "--x0", "1,0", "--y", "0,0"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
    assert first  # non-empty text rendering


def test_text_rendering_mentions_command(capsys, diag_cfg):
    code = run(["check", diag_cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: check")


SINGULAR = {
    "m": 2, "n": 1, "k": 1,
    "M": [[["1/t1"]], [[0]]],
    "N": [[[1]], [[0]]],
    "domain": [[-1, 1], [-1, 1]],
}
LOG = dict(SINGULAR, M=[[["log(t1)"]], [[0]]], domain=[[0, 1], [0, 1]])


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv", [["check"], ["flow", "--t0=0.5,0", "--t=0.9,0"]],
                         ids=["check", "flow"])
@pytest.mark.parametrize("doc, message", [
    (SINGULAR, "division by zero in (1.0 / t1)"),
    (LOG, "log of non-positive value 0.0"),
], ids=["inverse", "log"])
def test_expression_singularity_is_a_named_error(capsys, tmp_path, doc, message,
                                                 argv, json_mode):
    # the sample grid of the checks (and of the flow's gate) crosses t1 = 0
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    full = [argv[0], str(path), *argv[1:]]
    if json_mode:
        code, tree = run_json(capsys, full)
        assert tree == {"command": argv[0], "error": message}
    else:
        code = run(full)
        assert capsys.readouterr().out == f"command: {argv[0]}\nerror: {message}\n"
    assert code == 2


@pytest.mark.parametrize("entry, message", [
    ("1e400", "bad system data: non-finite constant entry at (0, 0)"),
    ('"exp(1000)"', "overflow in exp(1000.0)"),
    ("null", "bad system data: matrix entry at (0, 0) must be a number or an "
             "expression, got None"),
    ("true", "bad system data: matrix entry at (0, 0) must be a number or an "
             "expression, got True"),
], ids=["literal", "folded", "null", "boolean"])
def test_non_finite_constant_entry_is_a_named_error(capsys, tmp_path, entry, message):
    path = tmp_path / "overflow.json"
    path.write_text('{"m": 1, "n": 1, "k": 1, "M": [[[%s]]], "N": [[[1]]]}' % entry)
    code, tree = run_json(capsys, ["check", str(path)])
    assert code == 2
    assert tree == {"command": "check", "error": message}


@pytest.mark.parametrize("change, message", [
    ({"M": [[[1, 2], [3]], [[0, 0], [0, 0]]]},
     "bad system data: matrix rows must all have the same length"),
    ({"F": [[[1], [2, 3]], [[0]]]},
     "bad forcing data: matrix rows must all have the same length"),
    ({"M": 5}, "bad system data: family data must be a list, got int"),
    ({"u": [[None], [0]]}, "bad control data: matrix entry at (0, 0) must be a "
                           "number or an expression, got None"),
    ({"m": True}, "m, n, k must be positive integers"),
    ({"k": False}, "m, n, k must be positive integers"),
    ({"M": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]},
     "bad system data: matrix entry at (0, 0) must be a number or an "
     "expression, got True"),
    ({"F": [[[0], [1.5]], [[0], [True]]]},
     "bad forcing data: matrix entry at (1, 0) must be a number or an "
     "expression, got True"),
    ({"u": [[1], [False]]}, "bad control data: matrix entry at (0, 0) must be a "
                            "number or an expression, got False"),
    ({"domain": [[False, True], [0, 1]]},
     "bad system data: domain bounds must be numbers, not booleans"),
    ({"numeric": {"grid_samples_per_axis": True}},
     "bad numeric config: grid_samples_per_axis must be a number, got True"),
    ({"numeric": {"rank_rel_tol": True}},
     "bad numeric config: rank_rel_tol must be a number, got True"),
    ({"numeric": {"grid_samples_per_axis": 5.0}},
     "bad numeric config: grid_samples_per_axis must be an integer, got 5.0"),
    ({"numeric": {"ode_steps_per_segment": 2.5}},
     "bad numeric config: ode_steps_per_segment must be an integer, got 2.5"),
    ({"numeric": {"quad_points_per_segment": 2.5}},
     "bad numeric config: quad_points_per_segment must be an integer, got 2.5"),
    ({"numeric": {"residual_rel_tol": math.inf}},
     "bad numeric config: tolerances must be finite and strictly positive"),
    ({"M": [[["(" * 3000 + "t1" + ")" * 3000, 0], [0, 0]], [[0, 0], [0, 0]]],
      "domain": [[0, 1], [0, 1]]},
     "bad system data: expression has more than 128 tokens (at position 128)"),
    ({"M": [[["+".join(["t1"] * 5000), 0], [0, 0]], [[0, 0], [0, 0]]],
      "domain": [[0, 1], [0, 1]]},
     "bad system data: expression has more than 128 tokens (at position 192)"),
], ids=["ragged_M", "ragged_F", "non_list_M", "null_control", "bool_m", "bool_k",
        "bool_M", "bool_F", "bool_control", "bool_domain", "bool_grid_samples",
        "bool_rank_tol", "float_grid_samples", "float_ode_steps", "float_quad_points",
        "inf_residual_tol", "deep_parentheses", "long_sum"])
@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_malformed_matrix_data_is_a_named_error(capsys, tmp_path, change, message,
                                               json_mode):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(dict(DIAG, **change)))
    code = run((["--json"] if json_mode else []) + ["check", str(path)])
    _assert_error_report(capsys, code, "check", json_mode, message)


@pytest.mark.parametrize("config, control, message", [
    ("5", [[0], [0]], "config must be a JSON object"),
    (json.dumps(DIAG), {"v": [[0], [0]]},
     "control document is missing required key 'u'"),
], ids=["non_object_config", "control_without_u"])
@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_malformed_document_is_a_named_error(capsys, tmp_path, config, control,
                                             message, json_mode):
    path = tmp_path / "config.json"
    path.write_text(config)
    control_path = tmp_path / "control.json"
    control_path.write_text(json.dumps(control))
    code = run((["--json"] if json_mode else []) + [
        "simulate", str(path), "--t0", "0,0", "--t", "1,0", "--x0", "0,0",
        "--control", str(control_path)])
    _assert_error_report(capsys, code, "simulate", json_mode, message)


def test_check_forms_no_product_of_a_member_with_itself(capsys, tmp_path):
    # M_1 M_1 = 1e400 would overflow; every product M_a M_b with a != b is 0
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 2, "n": 1, "k": 1, "M": [[[1e200]], [[0]]],
                                "N": [[[1]], [[0]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, tree = run_json(capsys, ["check", str(path)])
    assert code == 0 and tree["all_pass"]


@pytest.mark.parametrize("F, passed, residual, pair", [
    ([[[1], [2]], [[0], [3]]], True, 0.0, None),  # M_1 F_2 = M_2 F_1 = 0
    ([[[0], [0]], [[1], [0]]], False, 1.0, [1, 2]),  # M_1 F_2 = e_1, M_2 F_1 = 0
], ids=["compatible", "incompatible"])
def test_check_with_config_forcing(capsys, tmp_path, F, passed, residual, pair):
    path = tmp_path / "with_F.json"
    path.write_text(json.dumps(dict(json.loads(Path(DEMO_DIAG).read_text()), F=F)))
    code, tree = run_json(capsys, ["check", str(path)])
    assert code == 0
    by_name = {c["condition"]: c for c in tree["conditions"]}
    assert by_name["F-compatibility (Eq. 7)"] == {
        "condition": "F-compatibility (Eq. 7)", "pass": passed,
        "max_residual": residual,
        "worst_point": None if pair is None else [0.0, 0.0],
        "worst_pair": pair}
    assert tree["all_pass"] is passed


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _assert_named_error(capsys, argv, json_mode, message):
    """`argv` exits 2 with `message` as its report, strict JSON in --json
    mode, and no RuntimeWarning recorded or written to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run((["--json"] if json_mode else []) + argv)
    captured = _assert_error_report(capsys, code, argv[0], json_mode, message)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


def _assert_error_report(capsys, code, command, json_mode, message):
    """The run exited 2 with `message` as its report, strict JSON in --json
    mode; returns the captured output."""
    captured = capsys.readouterr()
    assert code == 2
    if json_mode:
        tree = json.loads(captured.out, parse_constant=_reject_constant)
        assert tree == {"command": command, "error": message}
    else:
        assert captured.out == f"command: {command}\nerror: {message}\n"
    return captured


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("doc, t", [
    ({"m": 1, "n": 1, "k": 1, "M": [[[800]]], "N": [[[1]]]}, "1"),
    ({"m": 1, "n": 1, "k": 1, "M": [[["50*(1+t1^2)"]]], "N": [[[1]]],
      "domain": [[-100, 100]]}, "20"),
], ids=["constant", "time_varying"])
def test_overflowed_fundamental_matrix_is_a_named_error(capsys, tmp_path, doc, t,
                                                        json_mode):
    # chi = e^800 (expm) and e^(50 (20 + 20^3/3)) (RK4) overflow to inf
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    _assert_named_error(
        capsys, ["flow", str(path), "--t0", "0", "--t", t], json_mode,
        "fundamental matrix overflowed (non-finite entries) between t0 and t")


def test_flow_computes_chi_once_for_x(capsys, monkeypatch, diag_cfg):
    import mtcontrol.flow
    calls = []
    original = mtcontrol.flow.transition

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(mtcontrol.flow, "transition", counting)
    code, tree = run_json(capsys, ["flow", diag_cfg, "--t0", "0,0", "--t", "1,0.5",
                                   "--x0", "1,2", "--phi0", "3,4"])
    assert code == 0
    assert tree["x"] == pytest.approx([math.e, 2.0], rel=1e-12)
    assert len(calls) == 2  # chi(t, t0) for chi and x, chi(t0, t) for phi


def _output(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = f"SystemExit({exc.code})"
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_consecutive_calls(capsys, monkeypatch, diag_cfg):
    import mtcontrol.cli
    requests = [
        ["--json", "flow", diag_cfg, "--t0", "0,0", "--t", "1,1", "--x0", "1,0"],
        ["gramian", diag_cfg, "--t0", "0,0", "--t", "1,0", "--kind", "R"],
        ["flow", diag_cfg, "--t0", "0,0"],  # argparse rejects: --t is required
        ["check", diag_cfg],
        ["--json", "analyze", diag_cfg, "--t0", "0,0", "--t", "1,1"],
        ["kalman", diag_cfg, "--bogus"],  # argparse rejects: unknown flag
        ["--json", "flow", diag_cfg, "--t0", "0,0", "--t", "1,1", "--x0", "1,0"],
    ]
    reused = [_output(capsys, argv) for argv in requests]
    for argv, got in zip(requests, reused):
        # A parser built for this call alone gives the same answer.
        monkeypatch.setattr(mtcontrol.cli, "_PARSER", mtcontrol.cli.build_parser())
        assert _output(capsys, argv) == got
    assert [code for code, _, _ in reused] == [
        0, 0, "SystemExit(2)", 0, 0, "SystemExit(2)", 0]
    assert "the following arguments are required: --t" in reused[2][2]
    assert reused[0] == reused[-1]


@pytest.mark.parametrize("argv", [
    ["flow", "--t0", "-0.5,0", "--t", "-1,-0.25"],
    ["flow", "--t0", "0,0", "--t", "1,1", "--x0", "-1,2"],
    ["flow", "--t0", "0,0", "--t", "1,1", "--phi0", "-.5,-2"],
    ["analyze", "--t0", "-1,0", "--t", "1,1", "--x0", "1,0", "--y", "-2,0"],
    ["gramian", "--t0", "-1,0", "--t", "1,1", "--force-path", "-1,0;1,1"],
], ids=["t0-t", "x0", "phi0", "y", "force-path"])
@pytest.mark.parametrize("mode", ["text", "json"])
def test_negative_values_after_a_space(capsys, diag_cfg, argv, mode):
    command, *flags = argv
    joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    prefix = ["--json"] if mode == "json" else []
    spaced = _output(capsys, [*prefix, command, diag_cfg, *flags])
    assert spaced == _output(capsys, [*prefix, command, diag_cfg, *joined])
    assert spaced[0] == 0 and spaced[2] == ""


# sizes that numpy or Python refuses before allocating anything
@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("doc, argv", [
    ({"m": 1, "n": 1, "k": 1, "M": [[["t1"]]], "N": [[[1]]], "domain": [[0, 1]],
      "numeric": {"ode_steps_per_segment": 10**12}},
     ["flow", "--t0", "0", "--t", "1"]),
    ({"m": 1, "n": 1, "k": 1, "M": [[[1]]], "N": [[[1]]],
      "numeric": {"quad_points_per_segment": 10**12}},
     ["gramian", "--t0", "0", "--t", "1"]),
    ({"m": 2, "n": 1, "k": 1, "M": [[["t1"]], [[0]]], "N": [[[1]], [[0]]],
      "domain": [[0, 1], [0, 1]], "numeric": {"grid_samples_per_axis": 10**6}},
     ["check"]),
], ids=["ode_steps", "quad_points", "grid_samples"])
def test_out_of_memory_is_a_named_error(capsys, tmp_path, doc, argv, json_mode):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = run((["--json"] if json_mode else []) + [argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    if json_mode:
        tree = json.loads(captured.out, parse_constant=_reject_constant)
        assert tree["command"] == argv[0] and list(tree) == ["command", "error"]
        message = tree["error"]
    else:
        assert captured.out.startswith(f"command: {argv[0]}\nerror: ")
        message = captured.out.splitlines()[1][len("error: "):]
    assert message == "out of memory" or message.startswith("out of memory: ")


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_underflowed_fundamental_matrix_is_a_named_error(capsys, tmp_path, json_mode):
    # chi = e^-800 underflows to 0.0: finite, but its condition number is
    # inf; the library returns it with a warning, the report refuses it
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "k": 1, "M": [[[-800]]],
                                "N": [[[1]]]}))
    argv = ["flow", str(path), "--t0", "0", "--t", "1"]
    with pytest.warns(RuntimeWarning, match=r"ill-conditioned \(cond = inf\)"):
        code = run((["--json"] if json_mode else []) + argv)
    _assert_error_report(capsys, code, "flow", json_mode,
                         "fundamental matrix underflowed (singular to working "
                         "precision) between t0 and t")


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_unmeasurable_condition_number_is_a_named_error(capsys, tmp_path,
                                                        json_mode):
    # chi = I + (e^710.13 - 1)/3 J: entries near 8.5e307 are finite, but its
    # largest singular value e^710.13 is not, so cond is inf without underflow
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 1, "n": 3, "k": 1, "M": [[[236.71] * 3] * 3],
                                "N": [[[1], [0], [0]]]}))
    argv = ["flow", str(path), "--t0", "0", "--t", "1"]
    with pytest.warns(RuntimeWarning, match=r"ill-conditioned \(cond = inf\)"):
        code = run((["--json"] if json_mode else []) + argv)
    _assert_error_report(capsys, code, "flow", json_mode,
                         "fundamental matrix is too large for its condition "
                         "number to be computed between t0 and t")


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_overflowed_controllability_matrix_is_a_named_error(capsys, tmp_path,
                                                            json_mode):
    # M^2 = 1e400 overflows to inf; unchecked, G would reach the report
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"m": 1, "n": 3, "k": 1,
                                "M": [[[1e200, 0, 0], [0, 1, 0], [0, 0, 1]]],
                                "N": [[[1], [1], [1]]]}))
    _assert_named_error(capsys, ["kalman", str(path)], json_mode,
                        "controllability matrix overflowed (non-finite entries)")


def test_non_finite_report_value_is_an_error_in_json(capsys, monkeypatch, diag_cfg):
    # a value that no named error catches still never reaches stdout as JSON
    def infinite(system, t0, phi0, t, cfg):
        return np.array([math.inf, 0.0])

    monkeypatch.setattr(mtcontrol.flow, "solve_adjoint", infinite)
    code = run(["--json", "flow", diag_cfg, "--t0", "0,0", "--t", "1,1",
                "--phi0", "1,0"])
    captured = capsys.readouterr()
    assert code == 2
    tree = json.loads(captured.out, parse_constant=_reject_constant)
    assert tree == {"command": "flow", "error": "Out of range float values are "
                                                "not JSON compliant: inf"}
    assert captured.err == ""


# The cyclic demo fails the gramian condition, which gates these commands.
_DEMO_REFUSED = {("cyclic_three_time", c) for c in ("gramian", "analyze",
                                                    "synthesize")}


_COMMANDS = ["check", "flow", "gramian", "kalman", "analyze", "synthesize",
             "simulate"]
_DEMO_NAMES = sorted(p.stem for p in DEMOS.glob("*.json"))


def _demo_argv(demo, command, tmp_path):
    """`command` on the demo config with a unit step from the origin, a zero
    control and a first-basis-vector start."""
    path = DEMOS / f"{demo}.json"
    doc = json.loads(path.read_text())
    m, n, k = doc["m"], doc["n"], doc["k"]
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"u": [[0.0] * k for _ in range(m)]}))
    t0, t = ",".join(["0"] * m), ",".join(["1"] * m)
    x0, y = ",".join(["1"] + ["0"] * (n - 1)), ",".join(["0"] * n)
    flags = {
        "check": [],
        "flow": ["--t0", t0, "--t", t, "--x0", x0, "--phi0", x0],
        "gramian": ["--t0", t0, "--t", t],
        "kalman": [],
        "analyze": ["--t0", t0, "--t", t, "--x0", x0, "--y", y],
        "synthesize": ["--t0", t0, "--t", t, "--x0", x0, "--y", y],
        "simulate": ["--t0", t0, "--t", t, "--x0", x0, "--control", str(control)],
    }[command]
    return [command, str(path), *flags]


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("demo", _DEMO_NAMES)
def test_every_subcommand_on_the_demos_emits_strict_json(capsys, tmp_path, demo,
                                                         command):
    code = run(["--json", *_demo_argv(demo, command, tmp_path)])
    tree = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == (2 if (demo, command) in _DEMO_REFUSED else 0)
    assert tree["command"] == command


def _reference_tree(a):
    return [[float(format(float(x), ".12g")) for x in row] for row in np.atleast_2d(a)]


def _plain(value):
    """`value` with each array leaf replaced by what json.dumps is given: the
    rows of a float array, the list of dicts of a structured int array."""
    if isinstance(value, np.ndarray) and value.dtype.names:
        return [{name: record[name].tolist() for name in value.dtype.names}
                for record in value]
    if isinstance(value, np.ndarray):
        return _reference_tree(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _written(write, value):
    try:
        return write(value)
    except ValueError as exc:
        return ValueError, str(exc)


def _stdlib(value):
    return json.dumps(_plain(value), indent=2, allow_nan=False)


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320, 1e300,
                -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
                0.1, 1 / 3, -123456789.123456789, 1e-5, 1e11, 999999999999.5,
                1e12, -1e12, 123456789012.5, 1e15, 9.99999999999e15, 1e16, 2.5e16]
_ENTRIES = st.one_of(st.floats(), st.sampled_from(_EDGE_VALUES))
# few distinct values, repeated, with signed zeros: as in G, mostly zeros
_POOLS = st.one_of(st.just([0.0, -0.0, 1e12, 5e-324]),
                   st.lists(_ENTRIES, min_size=1, max_size=4))
_MATRICES = st.one_of(
    arrays(float, st.tuples(st.integers(0, 6), st.integers(0, 6)), elements=_ENTRIES),
    arrays(float, st.tuples(st.just(1), st.integers(1, 40)), elements=_ENTRIES),
    arrays(float, st.tuples(st.integers(1, 40), st.just(1)), elements=_ENTRIES),
    _POOLS.flatmap(lambda pool: arrays(
        float, st.tuples(st.integers(1, 8), st.integers(1, 12)),
        elements=st.sampled_from(pool))),
)
_TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", '"quoted"', "\x00\x1f\n\t",
                                              "caf\u00e9", "\U0001f600", "%d %s %%"]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _ENTRIES, _TEXT)
# lists of dicts, written by the generic path
_RECORDS = st.integers(0, 4).flatmap(lambda n: st.lists(st.fixed_dictionaries({
    "alpha": st.integers(-3, 10**20),
    "exponents": st.lists(st.integers(0, 9), min_size=n, max_size=n),
}), min_size=1, max_size=6))
_NEAR_RECORDS = st.lists(st.fixed_dictionaries({
    "alpha": st.one_of(st.integers(0, 3), st.booleans()),
    "exponents": st.lists(st.one_of(st.integers(0, 3), st.booleans()), max_size=3),
}), min_size=1, max_size=4)
# structured int arrays, written as lists of records (as `block_index` is)
_TABLES = st.integers(1, 3).flatmap(lambda n: arrays(
    np.dtype([("alpha", np.int64), ("exponents", np.int64, (n,))]),
    st.integers(0, 5), elements=st.tuples(st.integers(-3, 2**62),
                                          st.lists(st.integers(0, 9), min_size=n,
                                                   max_size=n).map(tuple))))
_TREES = st.recursive(
    st.one_of(_SCALARS, _MATRICES, _RECORDS, _NEAR_RECORDS, _TABLES),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.dictionaries(_TEXT, children, max_size=5)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_json_writes_what_json_dumps_writes(tree):
    # byte for byte, or the same ValueError for the first non-finite float
    assert _written(_json, tree) == _written(_stdlib, tree)


_FINITE_EDGES = [x for x in _EDGE_VALUES if math.isfinite(x)]


@pytest.mark.parametrize("a", [np.zeros((0, 4)), np.zeros((3, 0)),
                               np.resize(_FINITE_EDGES, (1, 40)),
                               np.resize(_FINITE_EDGES, (40, 1))],
                         ids=["zero_rows", "zero_columns", "row", "column"])
def test_json_matrix_edge_shapes(a):
    tree = {"command": "kalman", "G": a, "block_index": [], "rank": 0}
    assert _json(tree) == _stdlib(tree)
    assert json.loads(_json(tree))["G"] == _reference_tree(a)


def _non_finite_tree(bad, where):
    leaf = {"scalar": bad, "list": [1.0, bad, math.nan],
            "matrix": np.array([[0.5, bad], [math.nan, 1.0]]),
            "nested": [[1, {"x": [bad]}], math.nan]}[where]
    return {"command": "flow", "ok": [1.0, 2.0], "value": leaf, "after": math.nan}


_NON_FINITE_CASES = [(bad, where) for bad in (math.inf, -math.inf, math.nan)
                     for where in ("scalar", "list", "matrix", "nested")]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["scalar", "list", "matrix", "nested"])
def test_json_names_the_first_non_finite_value(bad, where):
    tree = _non_finite_tree(bad, where)
    message = f"Out of range float values are not JSON compliant: {bad!r}"
    with pytest.raises(ValueError) as stdlib:
        _stdlib(tree)
    assert str(stdlib.value) == message
    with pytest.raises(ValueError) as ours:
        _json(tree)
    assert str(ours.value) == message


def test_json_needs_no_c_accelerator(capsys, monkeypatch, tmp_path):
    """Without the stdlib's _json accelerator (e.g. on PyPy)
    json.encoder.c_make_encoder is None; every demo report is the same
    bytes and every non-finite value the same message."""
    def written():
        reports = []
        for demo in _DEMO_NAMES:
            for command in _COMMANDS:
                code = run(["--json", *_demo_argv(demo, command, tmp_path)])
                reports.append((code, capsys.readouterr().out))
        messages = []
        for bad, where in _NON_FINITE_CASES:
            with pytest.raises(ValueError) as exc:
                _json(_non_finite_tree(bad, where))
            messages.append(str(exc.value))
        return reports, messages

    accelerated = written()
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    _flat_encoder.cache_clear()  # as built where the name is None
    assert written() == accelerated


@settings(max_examples=100, deadline=None)
@given(_MATRICES)
def test_text_rows_print_each_entry_as_fmt(a):
    lines = _render({"G": a})
    if not len(a):
        assert lines == ["G: []"]
    else:
        assert lines == ["G:"] + ["  [" + ", ".join(format(float(x), ".12g") for x in row)
                                  + "]" for row in a]


def _commuting_config(m, n, k, seed):
    """Diagonal integer M_a, which commute, and integer N_a."""
    rng = np.random.default_rng(seed)
    return {"m": m, "n": n, "k": k,
            "M": [np.diag(rng.integers(-2, 3, n)).tolist() for _ in range(m)],
            "N": [rng.integers(-2, 3, (n, k)).tolist() for _ in range(m)]}


def _printed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(1, 3))
       .filter(lambda s: s[0] * s[1] ** s[0] * s[2] <= 2000),
       st.integers(0, 2**32 - 1))
def test_kalman_report_writes_block_index_as_the_record_list(tmp_path_factory, size,
                                                             seed):
    m, n, k = size
    doc = _commuting_config(m, n, k, seed)
    path = tmp_path_factory.mktemp("kalman") / "config.json"
    path.write_text(json.dumps(doc))
    system = LinearSystem.from_data(m, n, k, doc["M"], doc["N"])
    G = controllability_matrix(system)
    # the report as it was built from one dict per block
    order = sorted(itertools.product(range(n), repeat=m),
                   key=lambda ks: (sum(ks), [-x for x in ks]))
    tree = {"command": "kalman", "G": G.value,
            "block_index": [{"alpha": a, "exponents": list(ks)}
                            for a in range(1, m + 1) for ks in order],
            "rank": rank_G(G, DEFAULT_CONFIG), "state_dimension": n}
    assert _printed(["--json", "kalman", str(path)]) == (0, _stdlib(tree) + "\n")
    assert _printed(["kalman", str(path)]) == (0, "\n".join(_render(tree)) + "\n")
