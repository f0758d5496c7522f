"""Self-tests of the benchmark: seeded inputs, oracles, tracing.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

cli = run.load_program()

REPEATED_COUNTS = ("flow.expm_calls", "system.matfun_evals",
                   "pathint.integrand_evals", "kalman.G_cols", "gramian.per_request")


def _first_of_each_kind(spec):
    seen = {}
    for i, request in enumerate(spec["requests"]):
        seen.setdefault((request["argv"][0], request["expect"]["kind"]), i)
    return sorted(seen.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_request_list(workload):
    first = workloads.canonical_bytes(workloads.generate(workload, 7))
    assert first == workloads.canonical_bytes(workloads.generate(workload, 7))
    assert first != workloads.canonical_bytes(workloads.generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    spec = workloads.generate(workload, 5)
    paths = workloads.write_configs(spec, tmp_path)
    indices = _first_of_each_kind(spec)
    counts = []
    for _ in range(2):
        checker = run.Checker(spec)
        metrics = run.traced_metrics(cli, spec, paths, checker, indices)
        assert checker.failed == 0
        counts.append({name: metrics[name] for name in REPEATED_COUNTS})
    assert counts[0] == counts[1]


def test_constant_gramian_makes_16_expm_per_direction(tmp_path):
    spec = workloads.generate("const_synth", 3)
    paths = workloads.write_configs(spec, tmp_path)
    index = next(i for i, r in enumerate(spec["requests"]) if r["argv"][0] == "gramian")
    m = spec["configs"][spec["requests"][index]["config"]]["m"]
    metrics = run.traced_metrics(cli, spec, paths, run.Checker(spec), [index])
    assert metrics["flow.expm_calls"] == 16 * m
    assert metrics["gramian.calls"] == 1


def test_tracer_restores_every_binding():
    import tracing
    from mtcontrol import flow, gramian, kalman, synth
    before = (flow.transition, gramian.transition, kalman.transition,
              synth.transition, flow.expm)
    tracer = tracing.Tracer()
    tracer.install()
    assert gramian.transition is kalman.transition is synth.transition
    assert gramian.transition is not before[1]
    tracer.uninstall()
    assert (flow.transition, gramian.transition, kalman.transition,
            synth.transition, flow.expm) == before


@pytest.mark.parametrize("kind", ["const_gramian", "refusal", "synth", "tv_flow"])
def test_oracle_rejects_a_wrong_answer(kind, tmp_path):
    name = "kalman_scale" if kind == "refusal" else (
        "timevarying_mix" if kind == "tv_flow" else "const_synth")
    spec = workloads.generate(name, 2)
    paths = workloads.write_configs(spec, tmp_path)
    index = next(i for i, r in enumerate(spec["requests"])
                 if r["expect"]["kind"] == kind and r["expect"].get("feasible", True))
    request = spec["requests"][index]
    doc = spec["configs"][request["config"]]
    code, text = run.make_call(cli.run)(run.argv_for(spec, paths, index))
    oracles.check(request, doc, code, text)

    wrong = [json.loads(text) for _ in range(2)]
    if kind == "const_gramian":
        wrong[0]["value"][0][0] *= 1 + 1e-6
    elif kind == "refusal":
        wrong[0]["gate"]["condition"] = "M-commutation (Eq. 6)"
    elif kind == "synth":
        wrong[0]["verification"]["endpoint"][0] += 1e-6
        wrong[1]["v"][0] += 1e-6
    else:
        wrong[0]["chi"][0][0] *= 1 + 1e-6
    for out in wrong[:2 if kind == "synth" else 1]:
        with pytest.raises(oracles.Mismatch):
            oracles.check(request, doc, code, json.dumps(out))
    with pytest.raises(oracles.Mismatch):
        oracles.check(request, doc, 1, text)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 21))) == (50.0, 10, 10)
    assert run.tail(list(range(1, 100))) == (50.0, 50, 49)
    assert run.tail(list(range(1, 101))) == (90.0, 90, 10)
    assert run.tail(list(range(1, 1001))) == (99.0, 990, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "const_synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
