"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread as a share of the median.

    python3 perfbench/spread.py --workload ou2d_api --seeds 1 2 3 4 5

A spread above a third of the metric's bound in BENCHMARK.json is marked.
``--out`` appends one JSON line per run, so sets can be compared later.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()}, flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:18s} median {med:.6g} spread {spread:.4f} "
              f"bound {m['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
