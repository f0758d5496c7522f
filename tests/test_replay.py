"""Replay of recorded CLI calls against `tests/golden/replay.json.gz`.

The corpus is every seed-1 request of the three benchmark workloads
(`const_synth`, `timevarying_mix`, `kalman_scale`), in text and in
`--json`, plus every subcommand on every demo config in both modes, as
the benchmark's pre-flight calls them.  The golden file holds the config
documents by name and, for each call, its argv (config paths replaced by
those names), its exit code and its stdout.

A replay writes the configs to a temporary directory and runs
`mtcontrol.cli.run` in this process.  The exit code must match exactly;
the output must match exactly once every number in it is masked, and each
number must agree with its recorded value to `REL_TOL` relative, or both
must be at most `ABS_FLOOR` in magnitude.  The floor admits the round-off
where an answer is 0, which differs between BLAS kernels; no other
difference between them is known.

    python tests/test_replay.py --update

regenerates the golden file from this checkout's sources.  The update
reads the request generators of `bench/` without changing them; the test
itself needs nothing from `bench/`.  A change that moves an answer beyond
the tolerance regenerates the file and names the requests it changed.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "replay.json.gz"
GROUPS = ("const_synth", "timevarying_mix", "kalman_scale", "preflight")
REL_TOL = 1e-9
ABS_FLOOR = 1e-12

# A number not inside an identifier such as t1, cfg000 or M_2.
_NUMBER = re.compile(r"(?<![A-Za-z_\d.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _call(run, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def _resolve(argv: list[str], paths: dict[str, str]) -> list[str]:
    """argv with each config name, alone or as `--flag=name`, made a path."""
    out = []
    for token in argv:
        flag, eq, value = token.rpartition("=")
        if token in paths:
            token = paths[token]
        elif eq and value in paths:
            token = f"{flag}={paths[value]}"
        out.append(token)
    return out


def mismatch(want: str, got: str) -> str | None:
    """Why `got` does not replay `want`, or None when it does."""
    if want == got:
        return None
    if _NUMBER.sub("#", want) != _NUMBER.sub("#", got):
        return "text differs once numbers are masked"
    for a, b in zip(map(float, _NUMBER.findall(want)), map(float, _NUMBER.findall(got))):
        if a == b or max(abs(a), abs(b)) <= ABS_FLOOR:
            continue
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            return f"number {a!r} became {b!r}"
    return None


def _write_configs(configs: dict[str, dict], directory: Path) -> dict[str, str]:
    """Write each named config document under `directory`; map name -> path."""
    paths = {}
    for name, doc in configs.items():
        path = directory / f"{name.replace('/', '__')}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@functools.cache
def _golden() -> dict:
    with gzip.open(GOLDEN, "rt") as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", GROUPS)
def test_replay(group, tmp_path):
    from mtcontrol.cli import run

    golden = _golden()
    calls = [c for c in golden["calls"] if c["group"] == group]
    assert calls, f"no recorded calls for {group}"
    paths = _write_configs(golden["configs"], tmp_path)
    failures = []
    for recorded in calls:
        code, out = _call(run, _resolve(recorded["argv"], paths))
        why = (f"exit {code}, recorded {recorded['code']}"
               if code != recorded["code"] else mismatch(recorded["stdout"], out))
        if why is not None:
            failures.append(f"{' '.join(recorded['argv'])}: {why}")
    assert not failures, (f"{len(failures)} of {len(calls)} calls differ:\n"
                          + "\n".join(failures[:20]))


def test_mismatch_masks_numbers_only():
    assert mismatch("rank: 2\nx: [1.5, 1e-13]", "rank: 2\nx: [1.5000000000001, -3e-14]") is None
    assert mismatch("rank: 2", "rank: 3") == "number 2.0 became 3.0"
    assert mismatch("pass: True", "pass: False") is not None
    assert mismatch("t1: 1e-11", "t1: 2e-11") is not None


# --- regeneration ---------------------------------------------------------------

def _record() -> dict:
    """Every corpus call run against this checkout's sources."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import preflight
    import workloads
    from mtcontrol.cli import run

    configs: dict[str, dict] = {}
    calls: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS:
            spec = workloads.generate(workload, 1)
            named = {f"{workload}/{name}": doc for name, doc in spec["configs"].items()}
            configs.update(named)
            paths = _write_configs(named, tmp)
            for request in spec["requests"]:
                command, *flags = request["argv"]
                argv = [command, f"{workload}/{request['config']}", *flags]
                for full in (argv, ["--json", *argv]):
                    code, out = _call(run, _resolve(full, paths))
                    calls.append({"group": workload, "argv": full, "code": code,
                                  "stdout": out})

        def recorded(argv):
            """Run a pre-flight call and record it with its files as names."""
            named = []
            for token in argv:
                flag, eq, value = token.rpartition("=")
                path = Path(value if eq else token)
                if path.suffix == ".json" and path.is_file():
                    name = f"preflight/{path.stem}"
                    configs[name] = json.loads(path.read_text())
                    token = f"{flag}={name}" if eq else name
                named.append(token)
            code, out = _call(run, argv)
            calls.append({"group": "preflight", "argv": named, "code": code,
                          "stdout": out})
            return code, out

        _, problems = preflight.run(recorded, ROOT, tmp)
        if problems:
            raise SystemExit("pre-flight problems:\n" + "\n".join(problems))
    return {"configs": configs, "calls": calls}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: python tests/test_replay.py --update")
    corpus = _record()
    GOLDEN.parent.mkdir(exist_ok=True)
    # mtime=0 keeps the file's bytes a function of the corpus alone
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(corpus, sort_keys=True, separators=(",", ":")).encode())
    print(f"wrote {len(corpus['calls'])} calls on {len(corpus['configs'])} configs "
          f"to {GOLDEN.relative_to(ROOT)}")
