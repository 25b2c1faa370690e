"""Benchmark of modcool: four workloads, each a closed loop of one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A human-readable record goes to standard error and to
``.perfbench-out/``.

This process imports nothing heavy.  It caps the BLAS and OpenMP threads in
the environment, then starts ``worker.py``: ``SETUP_SAMPLES - 1`` times as a
probe that stops once its first operation is ready, and once to measure.
A worker's set-up is the time from starting it to its ``ready`` line, so it
covers interpreter start, the imports of modcool, numpy and scipy, and
building the inputs.  Each worker is a fresh process, so its peak RSS and
set-up belong to the workload alone.

Times are normalised to the quiet host's speed (see ``speed.py``):
``op_norm_s_p50`` is the median normalised time of an operation and
``setup_s`` the median normalised set-up.  The raw medians, the slowdowns
and ``op_s_tail`` go to the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# One thread: the sparse LU and the 4x4 Gaussian algebra gain nothing from a
# second one, and a spinning BLAS thread doubles CPU time and noise.
THREAD_CAP = "1"
SETUP_SAMPLES = 5
# Every run, probes included, must end within this many seconds.
RUN_LIMIT_S = 170.0

# Shares of the traced operation time the seed code is predicted to show
# (README.md): the listed metrics must add up to at least the share.
PREDICTED_SHARES = {
    "oracle-point": (("fock.steady_state.full.s", "fock.steady_state.rwa.s"),
                     0.80),
    "detuning-sweep": (("gaussian.evolve.s", "gaussian.fit_cooling_rate.s"),
                       0.95),
    "relaxation": (("fock.evolve.s",), 0.85),
}
PREDICTED_ZERO = {"figures": ("fock.calls", "gaussian.calls")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _start_worker(args, extra, deadline):
    """Run one worker; return its set-up times and its last output line."""
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            ready_line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            timer.cancel()
    word, _, reading = ready_line.partition(" ")
    if word != "ready" or code != 0:
        raise BenchError(f"{'probe' if extra else 'measuring'} worker exited "
                         f"with code {code}")
    reading = json.loads(reading)
    setup = {"raw": ready, "slowdown": reading["slowdown"],
             "norm": (ready - reading["spent"]) / reading["slowdown"]}
    return setup, rest[-1] if rest else ""


def run_one(args) -> dict:
    if not (ROOT / "src" / "modcool" / "__init__.py").is_file():
        raise BenchError(f"no modcool sources under {ROOT / 'src'}")
    spec = _spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    for name in THREAD_VARS:
        os.environ[name] = THREAD_CAP
    deadline = time.perf_counter() + RUN_LIMIT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_start_worker(args, ["--probe"], deadline)[0])
    setup, line = _start_worker(args, [], deadline)
    setups.append(setup)
    raw = json.loads(line)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = raw["layers"]
    else:
        values = {
            "op_norm_s_p50": stats.median(raw["norms"]),
            "cpu_per_wall": sum(raw["cpus"]) / sum(raw["walls"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": stats.median(s["norm"] for s in setups),
        }
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result,
        "op_s_tail": stats.tail(raw["walls"]),
        "raw": {"op_s_p50": stats.median(raw["walls"]),
                "op_cpu_s_p50": stats.median(raw["cpus"]),
                "setup_s": stats.median(s["raw"] for s in setups)},
        "walls": raw["walls"], "cpus": raw["cpus"], "norms": raw["norms"],
        "slowdowns": raw["slowdowns"], "cpu_hops": raw["hops"],
        "setup": setups,
        "environment": {
            "commit": _commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "threads": {name: os.environ[name] for name in THREAD_VARS},
            **raw["environment"]},
        "spans_file": raw.get("spans_file"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    _describe(record)
    return result


def _describe(record) -> None:
    result = record["result"]
    print(f"[{record['workload']} seed={record['seed']} trace={record['trace']}]"
          f" ops_failed = {result['failed']} of ops_attempted = "
          f"{result['attempted']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:<34s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    if not record["trace"]:
        for name, value in record["raw"].items():
            print(f"  {'raw ' + name:<34s} {value:.6g} s", file=sys.stderr)
        tail = record["op_s_tail"]
        if tail is not None:
            print(f"  {'raw op_s_tail':<34s} p{tail[0]:.1f} = {tail[1]:.6g} s "
                  f"(n = {tail[2]})", file=sys.stderr)
        print(f"  {'slowdown p50':<34s} "
              f"{stats.median(record['slowdowns']):.4g} "
              f"({record['cpu_hops']} CPU hops)", file=sys.stderr)
    print(f"  environment {json.dumps(record['environment'])}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload in its own process; their records, then the shares."""
    ok = True
    for workload in [w["name"] for w in _spec()["workloads"]]:
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S + 10)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        if args.trace:
            _print_predictions(workload, result["metrics"])
    return 0 if ok else 1


def _print_predictions(workload, metrics) -> None:
    value = {name: metric["value"] for name, metric in metrics.items()}
    if workload in PREDICTED_SHARES:
        names, share = PREDICTED_SHARES[workload]
        measured = sum(value[n] for n in names) / value["trace.op_s_p50"]
        verdict = "met" if measured >= share else "NOT MET"
        print(f"{workload}: prediction {' + '.join(names)} >= {share:.0%} "
              f"of trace.op_s_p50: {measured:.1%} ({verdict})", file=sys.stderr)
    for name in PREDICTED_ZERO.get(workload, ()):
        verdict = "met" if value[name] == 0 else "NOT MET"
        print(f"{workload}: prediction {name} = 0: {value[name]:g} "
              f"({verdict})", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 gives the CLI and demo inputs")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = _spec()["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        result = run_one(args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
