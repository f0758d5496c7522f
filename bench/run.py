"""The mtcontrol benchmark: seeded CLI workloads, checked against oracles.

Usage (from the repository root):

    python3 bench/run.py --workload const_synth --seed 1 --seconds 25 --trace 0

One client sends one request at a time (a closed loop) through
`mtcontrol.cli.run` in this process, with stdout captured and `--json` set.
Every answer is checked against an independent oracle (`oracles.py`), and
a pre-flight runs every subcommand on the demo configs first.

--trace 0 measures whole passes over the workload's request list until at
least --seconds of request time, and prints the end-to-end metrics.
--trace 1 runs one pass in which each request runs untraced and then with
spans around every library call (`tracing.py`), and prints the per-layer
metrics.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The exit code is 0 only when every answer was right.
"""

import os

# One client thread, and BLAS held to that thread: on matrices this small,
# BLAS threads add scheduling noise and no speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import preflight  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 7
LADDER = (50.0, 90.0, 99.0, 99.9)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import mtcontrol from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "mtcontrol" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mtcontrol sources at {src}")
    if not (ROOT / "demos" / "configs").is_dir():
        raise SystemExit(f"bench: no demo configs at {ROOT / 'demos' / 'configs'}")
    sys.path.insert(0, str(src))
    import mtcontrol
    from mtcontrol import cli
    if Path(mtcontrol.__file__).resolve().parent != (src / "mtcontrol").resolve():
        raise SystemExit(f"bench: imported mtcontrol from {mtcontrol.__file__}")
    return cli


def make_call(run):
    """`call(argv) -> (exit code, stdout)`; a crash gives code None."""
    def call(argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = run(argv)
        except SystemExit as exc:  # argparse rejected the argv; not a refusal
            code = f"SystemExit({exc.code})"
        except Exception:  # a crash is a failed request, not a failed run
            traceback.print_exc(file=sys.stderr)
            code = None
        return code, buf.getvalue()
    return call


class Checker:
    """Oracle checks, skipped for an answer already verified byte for byte."""

    def __init__(self, spec):
        self.spec = spec
        self.verified = {}
        self.failed = 0

    def __call__(self, index, code, text) -> None:
        if self.verified.get(index) == (code, text):
            return
        request = self.spec["requests"][index]
        try:
            oracles.check(request, self.spec["configs"][request["config"]],
                          code, text)
        except Exception as exc:  # any oracle error marks the answer wrong
            self.failed += 1
            print(f"FAIL request {index} {request['argv']}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return
        self.verified[index] = (code, text)


def argv_for(spec, paths, index):
    request = spec["requests"][index]
    command, *flags = request["argv"]
    return ["--json", command, paths[request["config"]], *flags]


def tail(latencies):
    """Highest ladder percentile with at least ten samples beyond it
    (nearest-rank), as (percentile, value, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10 or best is None:
            best = (p, ordered[rank - 1], n - rank)
    return best


def setup_once(paths):
    """Wall time of a fresh interpreter that imports mtcontrol and builds the
    workload's configs, as a cold CLI call pays it.

    No timeout: with one, `subprocess` polls the child at 50 ms steps and the
    time comes out rounded up to them.  The child does nothing this process
    has not already done without hanging."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "setup_child.py"),
                    *paths.values()], check=True)
    return time.perf_counter() - start


def one_pass(call, spec, paths, checker, indices, tracer=None):
    """Send the given requests once, in order; return (latencies, stdout bytes)."""
    latencies, output = [], 0
    for index in indices:
        if tracer is not None:
            tracer.request = index
        argv = argv_for(spec, paths, index)
        start = time.perf_counter()
        code, text = call(argv)
        latencies.append(time.perf_counter() - start)
        output += len(text.encode())
        checker(index, code, text)
    return latencies, output


def timed_loop(call, spec, paths, checker, seconds, setup):
    """Whole passes over the request list until at least `seconds` of request
    time; returns the latencies, pass after pass.

    Whole passes give every run the same request mix.  `setup()` runs
    SETUP_REPEATS times, at even steps of request time and outside it, so
    that the set-up samples see the same machine as the requests.
    """
    count = len(spec["requests"])
    latencies, setups = [], []
    busy = 0.0
    while busy < seconds or len(latencies) % count:
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
        latencies += one_pass(call, spec, paths, checker, [len(latencies) % count])[0]
        busy += latencies[-1]
    return latencies, setups


def median_of_passes(latencies, count):
    """Each request's median latency over the passes of a run."""
    return [statistics.median(latencies[i::count]) for i in range(count)]


def traced_metrics(cli, spec, paths, checker, indices, spans_path=None):
    """Each request untraced, then traced, back to back, so that both
    throughputs see the same machine state."""
    import tracing
    tracer = tracing.Tracer()
    plain_call = make_call(cli.run)
    traced_call = make_call(tracer.span("cli.run", cli.run))
    plain, traced, output = [], [], 0
    for index in indices:
        plain += one_pass(plain_call, spec, paths, checker, [index])[0]
        tracer.install()
        try:
            latencies, out = one_pass(traced_call, spec, paths, checker, [index],
                                      tracer)
        finally:
            tracer.uninstall()
        traced += latencies
        output += out
    metrics = tracing.layer_metrics(tracer, output)
    metrics["trace.rps_untraced"] = len(plain) / sum(plain)
    metrics["trace.rps_traced"] = len(traced) / sum(traced)
    metrics["trace.overhead"] = metrics["trace.rps_traced"] / metrics["trace.rps_untraced"]
    if spans_path is not None:
        tracer.write(spans_path)
    return metrics


def _report(name, value, unit, note=""):
    print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}".rstrip())


def end_to_end(cli, spec, paths, checker, args):
    """The timed closed loop; returns (metrics, units, attempted)."""
    count = len(spec["requests"])
    latencies, setups = timed_loop(
        make_call(cli.run), spec, paths, checker, args.seconds,
        lambda: setup_once(paths))
    attempted = len(latencies)
    per_request = median_of_passes(latencies, count)
    p, tail_value, beyond = tail(per_request)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": count / sum(per_request),
        "latency_p50_ms": statistics.median(per_request) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    passes = attempted // count
    notes = {
        "setup_s": f"(median of {len(setups)} fresh interpreters)",
        "throughput_rps": f"({count} requests / {sum(per_request):.3f} s, "
                          f"median of {passes} passes per request; mean over "
                          f"all passes: {attempted / sum(latencies):.4g} 1/s)",
        "latency_p50_ms": f"(median of {passes} passes per request; all "
                          f"{attempted} samples: "
                          f"{statistics.median(latencies) * 1e3:.4g} ms)",
        "latency_tail_ms": f"(p{p:g}, {beyond} of {count} requests beyond)",
    }
    for name, value in metrics.items():
        _report(name, value, END_TO_END_UNITS[name], notes.get(name, ""))
    _report("fail_frac", checker.failed / attempted, "1",
            f"({checker.failed} of {attempted})")
    return metrics, END_TO_END_UNITS, attempted


def per_layer(cli, spec, paths, checker, args):
    """One pass, each request untraced and traced; returns (metrics, units,
    attempted)."""
    import tracing
    indices = range(len(spec["requests"]))
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    metrics = traced_metrics(cli, spec, paths, checker, indices, spans_path)
    notes = {
        "flow.rk4_steps": "(computed: time-varying transitions x 1 segment "
                          "x ode_steps_per_segment)",
        "trace.overhead": "(traced / untraced throughput)",
    }
    units = {name: tracing.unit(name) for name in metrics}
    for name, value in metrics.items():
        _report(name, value, units[name], notes.get(name, ""))
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    return metrics, units, 2 * len(indices)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    spec = workloads.generate(args.workload, args.seed)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = workloads.write_configs(spec, workdir / "configs")
        calls, problems = preflight.run(make_call(cli.run), ROOT, workdir)
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(spec['requests'])} requests per pass, closed loop, 1 client")
        print(f"  preflight: {calls} demo-config calls, {len(problems)} problems")
        checker = Checker(spec)
        if args.trace:
            metrics, units, attempted = per_layer(cli, spec, paths, checker, args)
        else:
            metrics, units, attempted = end_to_end(cli, spec, paths, checker,
                                                   args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = checker.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
