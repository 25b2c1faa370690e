"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload NAME [--seeds 1-10]

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric its median and its quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives them, next to a third of the
metric's bound in ``BENCHMARK.json``.  The values are also written to
``.perfbench-out/steadiness-NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={m['value']:.6g}"
                         for name, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        name = metric["name"]
        spread = stats.quartile_spread(values[name])
        print(f"{name:<14s} median {stats.median(values[name]):.6g} "
              f"{metric['unit']}  spread {spread:.4f}  "
              f"bound/3 {metric['bound'] / 3:.4f}"
              + ("" if spread < metric["bound"] / 3 else "  WIDE"))
    out = ROOT / ".perfbench-out" / f"steadiness-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "values": values}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
