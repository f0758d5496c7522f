"""One SHA-256 over every report of the benchmark workloads, to show that a
change keeps each report byte for byte.

Usage (from the repository root):

    python tools/corpus_hash.py                # this checkout
    python tools/corpus_hash.py --against REV  # this checkout and REV

For each workload in `bench/workloads.py` at seeds 1-3, every request runs
through `mtcontrol.cli.run` in this process, first in text and then with
`--json`.  The digest is taken over f"{code}\\n{stdout}" of every call in
that order; the tool prints the call count, the byte count and the digest.

--against REV hashes REV's `src/` as well, extracted by `git archive` into a
temporary directory and run in a child interpreter on the same requests
(this checkout's `bench/workloads.py`).  It names the first call whose
report differs and exits 1 when the digests differ.  Nothing under `bench/`
is written.
"""

import os

# One BLAS thread, as the benchmark runs: the reports must not depend on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def corpus(directory: Path):
    """(label, argv) of every call, with the configs written under `directory`."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            spec = workloads.generate(workload, seed)
            paths = workloads.write_configs(spec, directory / f"{workload}_{seed}")
            for index, request in enumerate(spec["requests"]):
                command, *flags = request["argv"]
                argv = [command, paths[request["config"]], *flags]
                yield f"{workload} seed {seed} request {index}", argv
                yield f"{workload} seed {seed} request {index} --json", ["--json", *argv]


def summary(src: Path) -> dict:
    """Call count, byte count, SHA-256, and each call's label and digest, of
    the corpus run against the mtcontrol package under `src`."""
    sys.path.insert(0, str(src))
    import mtcontrol
    from mtcontrol.cli import run

    if Path(mtcontrol.__file__).resolve().parent != (src / "mtcontrol").resolve():
        raise SystemExit(f"corpus_hash: imported mtcontrol from {mtcontrol.__file__}")
    total, size, calls = hashlib.sha256(), 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in corpus(Path(tmp)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run(argv)
            data = f"{code}\n{buf.getvalue()}".encode()
            total.update(data)
            size += len(data)
            calls.append((label, hashlib.sha256(data).hexdigest()))
    return {"calls": calls, "bytes": size, "sha256": total.hexdigest()}


def summary_of_revision(rev: str) -> dict:
    """`summary` of REV's `src/`, in a child interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        child = subprocess.run(
            [sys.executable, __file__, "--src", str(Path(tmp) / "src")],
            check=True, capture_output=True, text=True)
    return json.loads(child.stdout)


def line(name: str, s: dict) -> str:
    return f"{name}: {len(s['calls'])} calls, {s['bytes']} bytes, sha256 {s['sha256']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also hash REV's sources and compare")
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.src is not None:  # the child of --against: JSON on stdout
        print(json.dumps(summary(args.src)))
        return 0
    here = summary(ROOT / "src")
    print(line("this checkout", here))
    if args.against is None:
        return 0
    there = summary_of_revision(args.against)
    print(line(args.against, there))
    if there["sha256"] == here["sha256"]:
        print("same reports")
        return 0
    first = next((label for (label, a), (_, b) in zip(here["calls"], there["calls"])
                  if a != b), "the calls past the shorter corpus")
    print(f"first difference: {first}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
