"""Entry point of the bridgesim benchmark.

    python3 perfbench/run.py --workload ou2d_api --seed 1 --seconds 30 \
        --trace 0

Each workload runs in fresh worker processes with BLAS pinned to one
thread.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  ``--workload all`` runs every
workload in turn; ``--smoke`` runs every workload at a small size, traced
and untraced, and checks that every metric is printed with its unit and
that every correctness gate ran.  The last line of standard output is one
JSON object; the exit status is 0 only if every correctness check passed.

End-to-end times are seconds at a reference machine speed: each wall
time is scaled by a fixed kernel's reference time over its time measured
next to it (calibrate.py), because the shared machine's speed drifts.
Wall times are printed beside them.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SPEC = os.path.join(HERE, "spec.json")

SETUP_REPEATS = 5
COVERAGE_FLOOR = 0.9
TIME_LIMIT_S = 170.0
SMOKE_SECONDS = 0.5


class BenchError(Exception):
    """A worker failed or the checkout cannot run the benchmark."""


def worker(name: str, seed: int, mode: str, paths: int, seconds: float,
           tmp: str, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(seed), "--mode", mode,
           "--paths", str(paths), "--seconds", str(seconds), "--tmp", tmp]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: out of time before the {mode} worker")
    t0 = time.time()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: {mode} worker exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_units(kind: str) -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench[kind]}


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f} "
            f"min={min(values):.4f} max={max(values):.4f}")


def gate_lines(name: str, checks: list[dict]) -> list[str]:
    return [f"  gate {name}.{c['quantity']}: median deviation "
            f"{c['median_dev_over_se']:.2f} SE over {c['solves']} solves "
            f"(max {c['max_dev_over_se']:.2f}), limit {c['limit_se']:g} SE "
            f"{'PASS' if c['ok'] else 'FAIL'}" for c in checks]


def run_timed(name: str, spec: dict, seed: int, seconds: float, paths: int,
              repeats: int, tmp: str, deadline: float):
    setups = [worker(name, seed, "setup", paths, 0, tmp, deadline)
              for _ in range(repeats - 1)]
    rec = worker(name, seed, "timed", paths, seconds, tmp, deadline)
    setups.append(rec)
    res, stats = rec["result"], rec["stats"]
    solve_s = statistics.median(rec["solve_ref_s"])
    values = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in setups),
        "solve_s": solve_s,
        "path_steps_per_s": res["n_attempted"] * rec["grid_steps"] / solve_s,
        "time_to_se_s":
            solve_s * stats["primary_se2"] / spec["se_target"] ** 2,
        "peak_rss_mb": rec["peak_rss_mb"],
        "ess_frac": stats["ess_frac"],
        "retained_frac": stats["retained_frac"],
    }
    lines = [f"workload {name} seed {seed} env {json.dumps(rec['env'])}",
             "  set-up wall times "
             + quartiles([r["setup_s"] for r in setups]),
             "  set-up times at reference speed "
             + quartiles([r["setup_ref_s"] for r in setups]),
             f"  solve wall times {quartiles(rec['solve_s'])}",
             f"  solve times at reference speed "
             f"{quartiles(rec['solve_ref_s'])}",
             f"  primary {res['primary']}: median se "
             f"{stats['primary_se2'] ** 0.5:.6g} over {stats['n_solves']} "
             f"solves, se_target {spec['se_target']:g}",
             "  record " + json.dumps({
                 k: res[k] for k in ("estimates", "ess", "n_attempted",
                                     "n_retained", "n_failed")})]
    lines += gate_lines(name, rec["gate"])
    ok = bool(rec["gate"]) and all(c["ok"] for c in rec["gate"])
    return values, ok, stats["n_attempted"], stats["n_failed"], lines


def run_traced(name: str, seed: int, seconds: float, paths: int, tmp: str,
               deadline: float):
    rec = worker(name, seed, "traced", paths, seconds, tmp, deadline)
    untraced = statistics.median(rec["solve_ref_s"])
    traced = statistics.median(rec["traced_solve_ref_s"])
    values = dict(rec["layers"])
    values["trace_overhead_frac"] = traced / untraced - 1.0
    values["trace.self_cover_frac"] = rec["coverage"]
    gate_ok = bool(rec["gate"]) and all(c["ok"] for c in rec["gate"])
    cover_ok = rec["coverage"] >= COVERAGE_FLOOR
    lines = [f"workload {name} seed {seed} traced env "
             f"{json.dumps(rec['env'])}",
             f"  untraced solve times at reference speed "
             f"{quartiles(rec['solve_ref_s'])}",
             f"  traced solve times at reference speed "
             f"{rec['traced_solve_ref_s']}",
             f"  layer spans cover {rec['coverage']:.3f} of the traced solve "
             f"(floor {COVERAGE_FLOOR}) {'PASS' if cover_ok else 'FAIL'}",
             f"  counts repeat between two traced solves: "
             f"{'PASS' if rec['counts_repeat'] else 'FAIL'}"]
    lines += gate_lines(name, rec["gate"])
    ok = gate_ok and cover_ok and rec["counts_repeat"]
    stats = rec["stats"]
    return values, ok, stats["n_attempted"], stats["n_failed"], lines


def run_one(name: str, spec: dict, seed: int, seconds: float, trace: bool,
            paths: int, repeats: int, deadline: float):
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if trace:
            values, ok, attempted, failed, lines = run_traced(
                name, seed, seconds, paths, tmp, deadline)
        else:
            values, ok, attempted, failed, lines = run_timed(
                name, spec, seed, seconds, paths, repeats, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        lines.append(f"  {k:30s} {m['value']!r} {m['unit']}")
    return metrics, ok, attempted, failed, lines


def smoke(specs: dict, seed: int) -> int:
    """Every workload at a small size, untraced and traced."""
    deadline = time.monotonic() + TIME_LIMIT_S
    problems = []
    for name, spec in specs.items():
        for trace in (False, True):
            try:
                _, ok, attempted, _, lines = run_one(
                    name, spec, seed, SMOKE_SECONDS, trace,
                    spec["smoke_paths"], 1, deadline)
            except BenchError as exc:
                problems.append(str(exc))
                continue
            print("\n".join(lines))
            units = metric_units("per_layer" if trace else "end_to_end")
            for key, unit in units.items():
                if not any(ln.split()[:1] == [key] and ln.split()[-1] == unit
                           for ln in lines):
                    problems.append(f"{name}: {key} not printed with {unit}")
            if not any(ln.lstrip().startswith("gate ") for ln in lines):
                problems.append(f"{name}: no correctness gate ran")
            if not ok:
                problems.append(f"{name}: a correctness check failed "
                                f"(trace={int(trace)})")
            if attempted < 1:
                problems.append(f"{name}: no paths attempted")
    for p in problems:
        print("smoke problem:", p)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": problems}))
    return 0 if not problems else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    for path in (SPEC, BENCHMARK, os.path.join(ROOT, "src", "bridgesim",
                                               "__init__.py")):
        if not os.path.isfile(path):
            print(f"perfbench: {path} is missing; run from a bridgesim "
                  "checkout", file=sys.stderr)
            return 2
    with open(SPEC, encoding="utf-8") as fh:
        specs = json.load(fh)["workloads"]
    if args.smoke:
        return smoke(specs, args.seed)
    names = list(specs) if args.workload == "all" else [args.workload]
    if any(n not in specs for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(specs)} or 'all'", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        spec = specs[name]
        try:
            metrics, ok, attempted, failed, lines = run_one(
                name, spec, args.seed, args.seconds, bool(args.trace),
                spec["n_paths"], SETUP_REPEATS, deadline)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        out["correct"] = out["correct"] and ok
        out["attempted"] += attempted
        out["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        out["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
