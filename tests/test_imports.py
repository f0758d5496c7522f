"""What a cold `mtcontrol` process imports: scipy only on the first
exponential of a constant family, and numpy.ma only through scipy.  Each
test starts a fresh interpreter, since the test process has both loaded."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from mtcontrol.cli import run

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(str(p) for p in (ROOT / "demos" / "configs").glob("*.json"))
DIAGONAL = str(ROOT / "demos" / "configs" / "diagonal_two_time.json")
CYCLIC = str(ROOT / "demos" / "configs" / "cyclic_three_time.json")

# M1 = diag(t1, 0), M2 = diag(0, t2): chi comes from RK4, never from expm
TIME_VARYING = {
    "m": 2, "n": 2, "k": 1,
    "M": [[["t1", 0], [0, 0]], [[0, 0], [0, "t2"]]],
    "N": [[[1], [0]], [[0], [1]]],
    "domain": [[-1, 2], [-1, 2]],
}


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`code` run by a new interpreter that imports mtcontrol from this
    checkout, with `args` as sys.argv[1:]."""
    prelude = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
    return subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=120)


def _stdout(done: subprocess.CompletedProcess) -> str:
    assert done.returncode == 0, done.stderr
    return done.stdout


# Runs each argv of the JSON list in sys.argv[1] through `cli.run` and
# prints the list of [exit code, stdout] pairs, then the names of the
# watched modules that are loaded (a blocked module is a None entry).
_RUN_ALL = """
import contextlib, io, json
from mtcontrol.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
print(json.dumps([name for name in ("numpy.ma", "scipy") if sys.modules.get(name)]))
"""
_BLOCK_SCIPY = 'sys.modules["scipy"] = None  # any import of scipy now fails\n'


def _in_process(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return [code, out.getvalue()]


def test_import_loads_neither_scipy_nor_numpy_ma():
    loaded = _stdout(_fresh_python(
        "import mtcontrol, mtcontrol.cli\n"
        "print(sorted({'scipy', 'numpy.ma'} & set(sys.modules)))"))
    assert loaded.strip() == "[]"


def test_calls_without_an_exponential_run_with_scipy_blocked(tmp_path):
    path = tmp_path / "time_varying.json"
    path.write_text(json.dumps(TIME_VARYING))
    calls = [[command, config] for config in DEMOS for command in ("check", "kalman")]
    calls.append(["flow", str(path), "--t0", "0,0", "--t", "1,0.5", "--x0", "1,-1"])
    calls += [["--json"] + argv for argv in calls]
    stdout = _stdout(_fresh_python(_BLOCK_SCIPY + _RUN_ALL, json.dumps(calls)))
    results, loaded = map(json.loads, stdout.splitlines())
    assert loaded == []
    assert results == [_in_process(argv) for argv in calls]
    assert all(code == 0 for code, _ in results)


def test_gate_refusals_run_with_scipy_blocked():
    # the cyclic demo fails the gramian gate, which refuses before any chi
    points = ["--t0", "0,0,0", "--t", "1,1,1"]
    calls = [["gramian", CYCLIC, *points], ["analyze", CYCLIC, *points],
             ["synthesize", CYCLIC, *points, "--x0", "1,0,0", "--y", "0,0,0"]]
    calls += [["--json"] + argv for argv in calls]
    stdout = _stdout(_fresh_python(_BLOCK_SCIPY + _RUN_ALL, json.dumps(calls)))
    results, loaded = map(json.loads, stdout.splitlines())
    assert loaded == []
    assert results == [_in_process(argv) for argv in calls]
    assert all(code == 2 for code, _ in results)


def test_blocking_scipy_stops_a_constant_flow():
    # the block above is real: the first exponential needs scipy
    done = _fresh_python(_BLOCK_SCIPY + "from mtcontrol.cli import run\nrun(sys.argv[1:])",
                         "flow", DIAGONAL, "--t0", "0,0", "--t", "1,1")
    assert done.returncode != 0
    assert "ModuleNotFoundError: No module named 'scipy.linalg'" in done.stderr


def test_a_constant_flow_loads_scipy():
    argv = ["flow", DIAGONAL, "--t0", "0,0", "--t", "1,1"]
    results, loaded = map(json.loads, _stdout(
        _fresh_python(_RUN_ALL, json.dumps([argv]))).splitlines())
    assert results == [_in_process(argv)]
    assert "scipy" in loaded  # scipy.linalg loads numpy.ma in turn
