"""One workload in a fresh process; prints one JSON record on stdout.

Modes:
  setup   build the inputs and report the time since ``--t0``
  timed   setup, a discarded warm-up solve, then timed solves for
          ``--seconds`` with their median reported by the caller
  traced  as timed, then two solves with the layer wrappers installed

``--t0`` is the caller's ``time.time()`` just before it started this
process, so set-up includes interpreter start and ``import bridgesim``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_SOLVES = 3
GATE_SE = 4.0


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")}}


class Clock:
    """Wall times of calls, each paired with the calibration kernel's
    time around it (see calibrate.py), taken on every CPU when the
    workload runs more than one thread."""

    def __init__(self, workload):
        self.cpus = sorted(os.sched_getaffinity(0)) \
            if workload.threads > 1 else None
        self.wall: list[float] = []
        self.kernel: list[float] = []
        self._last = calibrate.kernel_seconds(self.cpus)

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.wall.append(time.perf_counter() - t0)
        k = calibrate.kernel_seconds(self.cpus)
        self.kernel.append(0.5 * (self._last + k))
        self._last = k
        return out

    def reference_seconds(self) -> list[float]:
        return [w / k * calibrate.REFERENCE_S
                for w, k in zip(self.wall, self.kernel)]


def timed_solves(workload, seconds: float,
                 first: dict) -> tuple[Clock, list[dict]]:
    """Solve until ``seconds`` have passed.

    The first timed solve repeats the warm-up's seed and must reproduce
    its estimates bit for bit.  Each later solve draws new paths, so the
    run's statistical figures and its gate rest on independent ensembles.
    """
    clock, results = Clock(workload), []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_SOLVES or time.perf_counter() < deadline:
        index = len(results)
        result = clock.time(workload.solve, index)
        results.append(result)
        if index == 0 and result["estimates"] != first["estimates"]:
            raise RuntimeError("a repeated solve changed the estimates")
    return clock, results


def gate(workload, results: list[dict]) -> list[dict]:
    """Correctness gate over a run's independent solves.

    A quantity passes when the median over the solves of its deviation
    from the exact or reference value, in standard errors, is below
    GATE_SE.  With the median a miss takes a systematic error, not one
    unlucky ensemble: each ensemble also carries the scheme's first-order
    discretization bias (about 1.7 SE for the split model's marginal
    variance at 20 000 paths), so a one-ensemble gate at 4 SE would fail
    about one run in a hundred by chance.
    """
    devs = [workload.deviations(r) for r in results]
    out = []
    for quantity in devs[0]:
        values = [d[quantity] for d in devs]
        median = statistics.median(values)
        out.append({"quantity": quantity, "median_dev_over_se": median,
                    "max_dev_over_se": max(values), "solves": len(values),
                    "limit_se": GATE_SE, "ok": median < GATE_SE})
    return out


def ensemble_stats(results: list[dict]) -> dict:
    """Statistical figures over independent solves.  Medians, because a
    single ensemble with a few dominant weights can move a mean far."""
    attempted = sum(r["n_attempted"] for r in results)
    return {
        "n_solves": len(results),
        "ess_frac": statistics.median(r["ess"] / r["n_attempted"]
                                      for r in results),
        "primary_se2": statistics.median(
            r["estimates"][r["primary"]][1] ** 2 for r in results),
        "retained_frac": sum(r["n_retained"] for r in results) / attempted,
        "n_attempted": attempted,
        "n_failed": sum(r["n_failed"] for r in results),
    }


COUNT_KEYS = (
    "sde.noise_draws", "sde.coef_calls", "observations.pull_calls",
    "observations.precision_calls", "weights.issues", "estimator.chunks",
    "estimator.retained_mb", "estimator.failed_paths", "cli.csv_bytes",
    "cli.report_bytes")


def layer_metrics(tracer, solve_s: float) -> tuple[dict, float]:
    """Per-layer figures of one traced solve, and the share of the
    solve's wall time that its top-level spans cover.  In one thread the
    self times of all spans add up to exactly that share."""
    inclusive, own = tracer.layer_times()
    c = tracer.counts
    m = {
        "sde.noise_s": own.get("sde.noise", 0.0),
        "sde.noise_draws": c["sde.noise_draws"],
        "sde.coef_calls": c["sde.coef_calls"],
        "sde.coef_s": own.get("sde.coef", 0.0),
        "observations.pull_calls": c["observations.pull_calls"],
        "observations.pull_s": own.get("observations.pull", 0.0),
        "observations.precision_calls": c["observations.precision_calls"],
        "observations.precision_s": own.get("observations.precision", 0.0),
        "bridge.simulate_s": inclusive.get("bridge.simulate", 0.0),
        "bridge.self_s": own.get("bridge.simulate", 0.0),
        "weights.breakdown_s": inclusive.get("weights.breakdown", 0.0),
        "weights.self_s": own.get("weights.breakdown", 0.0),
        "weights.issues": c["weights.issues"],
        "weights.normalize_s": own.get("weights.normalize", 0.0),
        "estimator.functional_s": own.get("estimator.functional", 0.0),
        "estimator.run_s": inclusive.get("estimator.run", 0.0),
        "estimator.self_s": own.get("estimator.run", 0.0),
        "estimator.chunks": c["estimator.chunks"],
        "estimator.retained_mb": c["estimator.retained_mb"],
        "estimator.failed_paths": c["estimator.failed_paths"],
        "oracle.s": own.get("oracle", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.csv_bytes": c["cli.csv_bytes"],
        "cli.report_bytes": c["cli.report_bytes"],
    }
    return m, tracer.top_level_seconds() / solve_s


def traced_solves(workload, first: dict, results: list[dict]) -> dict:
    """Two solves of the warm-up's seed with the layer wrappers
    installed, then the correctness gate over ``results``, also traced."""
    tracer = spans.Tracer()
    tracer.install()
    clock = Clock(workload)
    try:
        traced = []
        for _ in range(2):
            tracer.reset()
            result = clock.time(workload.solve, 0)
            if result["estimates"] != first["estimates"]:
                raise RuntimeError("tracing changed the estimates")
            tracer.counts.update(result.get("output_bytes", {}))
            traced.append(layer_metrics(tracer, clock.wall[-1]))
        tracer.reset()
        checks = gate(workload, results)
        gate_inclusive, _ = tracer.layer_times()
    finally:
        tracer.uninstall()
    layers = traced[-1][0]
    layers["oracle.s"] += gate_inclusive.get("oracle", 0.0)
    layers["sde.grid_steps"] = workload.grid.n_steps
    return {
        "traced_solve_s": clock.wall,
        "traced_solve_ref_s": clock.reference_seconds(),
        "layers": layers,
        "coverage": traced[-1][1],
        "counts_repeat": all(traced[0][0][k] == traced[1][0][k]
                             for k in COUNT_KEYS),
        "gate": checks,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"),
                   required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--tmp", required=True)
    args = p.parse_args()
    traced_mode = args.mode == "traced"

    sys.path.insert(0, SRC)
    import workloads
    import bridgesim
    if os.path.dirname(os.path.dirname(bridgesim.__file__)) != SRC:
        raise RuntimeError(f"bridgesim imported from {bridgesim.__file__}, "
                           f"not from {SRC}")

    with open(os.path.join(os.path.dirname(__file__), "spec.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"][args.workload]
    if traced_mode:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](
        spec, args.seed, args.paths, args.tmp)
    setup_s = time.time() - args.t0
    record = {"setup_s": setup_s, "setup_ref_s": setup_s
              / calibrate.kernel_seconds() * calibrate.REFERENCE_S}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0
    if traced_mode:
        tracer.uninstall()
        _, setup_own = tracer.layer_times()

    first = workload.solve(0)                # warm-up, not timed
    # the traced mode keeps half its time for the traced solves
    clock, results = timed_solves(
        workload, (0.5 if traced_mode else 1.0) * args.seconds, first)
    record.update(solve_s=clock.wall, solve_ref_s=clock.reference_seconds(),
                  stats=ensemble_stats(results), result=first,
                  grid_steps=workload.grid.n_steps)
    if traced_mode:
        record.update(traced_solves(workload, first, results))
        record["layers"].update({
            "sde.grid_s": setup_own.get("sde.grid", 0.0),
            "observations.validate_s": setup_own.get(
                "observations.validate", 0.0),
            "config.parse_s": setup_own.get("config.parse", 0.0)})
    else:
        record["gate"] = gate(workload, results)
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
