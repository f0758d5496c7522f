import json
import math
from pathlib import Path

import pytest

import mtcontrol.gramian
from mtcontrol.cli import run

DEMO_DIAG = str(Path(__file__).resolve().parents[1] / "demos" / "configs"
                / "diagonal_two_time.json")

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
