"""Measuring process: one workload, one client, a closed loop for a fixed time.

Started by ``run.py``, which has already capped the BLAS and OpenMP threads
in the environment.  It starts a :class:`speed.SpeedSampler`, imports modcool
from the checkout's ``src``, builds the first operation's inputs and prints
``ready`` with the sampler's reading of the set-up; with ``--probe`` it stops
there, so that its parent can time set-up.  Otherwise it runs operations
for ``--seconds`` (at least one) and prints one JSON line of raw results,
each operation's normalised time among them.

With ``--trace 1`` every input runs twice, once plain and once with spans
recorded (alternating which goes first), and the two outputs must be bit
identical.  The spans are written to ``.perfbench-out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# Spans kept for the output file; every span still enters the metrics.
MAX_KEPT_SPANS = 50_000


def _timed(fn, inputs):
    wall, cpu = time.perf_counter(), time.process_time()
    output = fn(inputs)
    return time.perf_counter() - wall, time.process_time() - cpu, output


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # numpy comes first because the speed sampler's kernel uses it.
    import speed

    sampler = speed.SpeedSampler()
    sampler.start()
    setup_mark = sampler.mark()
    sys.path.insert(0, str(ROOT / "src"))
    import modcool

    if not Path(modcool.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"modcool imported from {modcool.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    rng = None if args.seed == 0 else random.Random(args.seed)
    inputs = workload.draw(rng)
    spent, factor = sampler.since(setup_mark)
    print("ready " + json.dumps({"spent": spent, "slowdown": factor}),
          flush=True)
    if args.probe or args.trace:
        # A traced run reports raw times, as the spans do.
        sampler.stop()
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer({
            layer: importlib.import_module(f"modcool.{layer}")
            for layer in tracing.LAYERS})
    walls, cpus, norms, slowdowns = [], [], [], []
    traced_walls, per_op, kept = [], [], []
    attempted = failed = kept_spans = 0
    xchecks: dict[str, float] = {}
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        round_start = time.perf_counter()
        expected = workload.expect(inputs)
        order = (False,) if tracer is None else (
            (False, True) if len(traced_walls) % 2 == 0 else (True, False))
        outputs = []
        problems = []
        for traced in order:
            attempted += 1
            try:
                if traced:
                    with tracer:
                        try:
                            wall, cpu, output = _timed(workload.run, inputs)
                        finally:
                            spans = tracer.take()
                    per_op.append(tracing.op_metrics(spans))
                    if kept_spans < MAX_KEPT_SPANS:
                        kept.append((len(per_op) - 1, spans))
                        kept_spans += len(spans)
                    traced_walls.append(wall)
                else:
                    mark = sampler.mark()
                    wall, cpu, output = _timed(workload.run, inputs)
                    if tracer is None:
                        spent, factor = sampler.since(mark)
                        norms.append(speed.normalised(cpu, spent, factor))
                        slowdowns.append(factor)
                    walls.append(wall)
                    cpus.append(cpu)
                found, measured = workload.check(output, expected)
                outputs.append(workload.fingerprint(output))
            except Exception as exc:  # a raising operation counts as failed
                found, measured = [f"{type(exc).__name__}: {exc}"], {}
            for key, value in measured.items():
                xchecks[key] = max(xchecks.get(key, 0.0), value)
            if found:
                failed += 1
                problems += found
        if not problems and len(outputs) == 2 and outputs[0] != outputs[1]:
            failed += 1
            problems.append("traced and untraced outputs differ")
        for problem in problems[:5]:
            print(f"{args.workload}: {problem}", file=sys.stderr)
        rounds.append(time.perf_counter() - round_start)
        # Stop when a typical round would end past the deadline, so a run
        # lasts about --seconds whatever the length of an operation.
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break
        inputs = workload.draw(rng)
    sampler.stop()

    result = {
        "attempted": attempted, "failed": failed, "walls": walls, "cpus": cpus,
        "norms": norms, "slowdowns": slowdowns, "hops": sampler.hops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "environment": _environment(),
    }
    if tracer is not None:
        layers = tracing.run_metrics(per_op, traced_walls, walls) if per_op else {}
        for key in ("xcheck.oracle_gaussian.rel_err",
                    "xcheck.relaxation.max_abs_diff",
                    "xcheck.sweep.rate_rel_err"):
            layers[key] = xchecks.get(key, 0.0)
        result["layers"] = layers
        result["spans_file"] = str(_write_spans(args, kept))
    print(json.dumps(result))
    return 0


def _write_spans(args, kept) -> Path:
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for op, spans in kept:
            for index, (name, start, end, parent, tags) in enumerate(spans):
                handle.write(json.dumps({
                    "op": op, "id": index, "name": name, "start": start,
                    "end": end, "parent": parent, "tags": tags}) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
