"""Command-line interface: run ensembles, print exact references for
linear models, and validate configurations."""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .errors import BridgeSimError, InvalidConfigurationError, error_kind
from .estimator import WeightedEnsemble, run_ensemble, weighted_mean_se
from .oracle import condition, joint_law, observation_selector
from .sde import build_grid
from .weights import TERM_NAMES, normalize_log_weights

THREADS_ENV = "BRIDGESIM_THREADS"


def _resolve_threads(cli_value: Optional[int],
                     config_value: Optional[int]) -> int:
    if cli_value is not None:
        return cli_value
    if config_value is not None:
        return config_value
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise InvalidConfigurationError(
                f"{THREADS_ENV} must be an integer, got {env!r}")
        if value < 1:
            raise InvalidConfigurationError(f"{THREADS_ENV} must be >= 1")
        return value
    return 1


def _functional_values(config: RunConfig, ensemble: WeightedEnsemble):
    """Raw per-path functional values, one column per functional."""
    cols = []
    for f in config.functionals:
        idx = ensemble.grid.index_of(f.time)
        cols.append(ensemble.states[:, idx, f.coordinate])
    return np.column_stack(cols) if cols else np.zeros((ensemble.size, 0))


def _estimates(config: RunConfig, ensemble: WeightedEnsemble,
               fvals: np.ndarray):
    weights, log_norm, ess = normalize_log_weights(ensemble.log_weights)
    out = []
    for i, f in enumerate(config.functionals):
        col = fvals[:, i]
        mean, mean_se = weighted_mean_se(weights, col[:, None])
        mean, mean_se = float(mean[0]), float(mean_se[0])
        if f.kind == "marginal_var":
            dev = (col - mean) ** 2
            var, var_se = weighted_mean_se(weights, dev[:, None])
            value, se = float(var[0]), float(var_se[0])
        else:
            value, se = mean, mean_se
        out.append({"type": f.kind, "time": f.time, "coordinate": f.coordinate,
                    "value": value, "std_error": se})
    return out, log_norm, ess


def _oracle_values(config: RunConfig) -> Optional[list[float]]:
    """Exact value of each functional under the conditioned Gaussian law,
    or None when the model has no closed-form reference."""
    lm = config.build_model().linear_reference(config.initial_state)
    if lm is None:
        return None
    times = {f.time for f in config.functionals if f.time > 0.0}
    times.update(float(ob.time) for ob in config.observations.items)
    times = np.array(sorted(times))
    law = joint_law(lm, times)
    sel, val = observation_selector(times, lm.dim, config.observations)
    conditioned = condition(law, sel, val)
    out = []
    for f in config.functionals:
        if f.time <= 0.0:
            # time zero is deterministic
            mean = float(config.initial_state[f.coordinate])
            var = 0.0
        else:
            block = int(np.nonzero(np.isclose(times, f.time))[0][0])
            i = block * lm.dim + f.coordinate
            mean = float(conditioned.mean[i])
            var = float(conditioned.cov[i, i])
        out.append(var if f.kind == "marginal_var" else mean)
    return out


def _oracle_entries(config: RunConfig, exact: list[float],
                    estimates) -> list[dict]:
    out = []
    for f, est, value in zip(config.functionals, estimates, exact):
        dev = abs(est["value"] - value)
        se = est["std_error"]
        out.append({"type": f.kind, "time": f.time, "coordinate": f.coordinate,
                    "oracle_value": value, "abs_deviation": dev,
                    "deviation_over_se": dev / se if se > 0 else float("inf")})
    return out


def _write_csv(path: str, config: RunConfig, ensemble: WeightedEnsemble,
               fvals: np.ndarray) -> None:
    n_obs = len(config.observations.items)
    header = ["path_id", "log_weight"]
    for k in range(n_obs):
        header += [f"log_eta_{k}", f"boundary_{k}", f"drift_{k}",
                   f"dA_{k}", f"covar_{k}"]
    header.append("girsanov")
    header += [f"f_{i}" for i in range(len(config.functionals))]
    bd = ensemble.breakdown
    cols = [ensemble.log_weights[:, None]]
    for k in range(n_obs):
        cols += [bd[name][:, k:k + 1] for name in TERM_NAMES]
    cols += [bd["girsanov"][:, None], fvals]
    values = np.hstack(cols)
    # 17 significant digits: lossless for doubles and byte-stable
    row = "%d," + ",".join(["%.17g"] * (len(header) - 1)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        # one row's floats at a time, so no list of every row is held
        fh.writelines(row % (pid, *vals.tolist()) for pid, vals
                      in zip(ensemble.path_ids.tolist(), values))


def run(config: RunConfig, threads: Optional[int] = None):
    """Execute a run configuration; returns (exit_status, report dict)."""
    built = config.build_model()
    grid = build_grid(
        config.horizon, config.observations, config.grid.dt_base,
        config.grid.dt_min, config.grid.refine_ratio,
        include_times=[f.time for f in config.functionals])
    ensemble = run_ensemble(
        built.spec, config.observations, grid, config.initial_state,
        config.n_paths, config.seed,
        threads=_resolve_threads(threads, config.threads),
        validate=config.validate_coefficients)
    fvals = _functional_values(config, ensemble)
    estimates, log_norm, ess = _estimates(config, ensemble, fvals)
    report = {
        "schema_version": 1,
        "version": __version__,
        "config_digest": config.digest,
        "seed": config.seed,
        "n_paths": ensemble.size,
        "n_failed": ensemble.n_failed,
        "ess": ess,
        "log_norm": log_norm,
        "estimates": estimates,
    }
    exact = _oracle_values(config)
    report["oracle"] = None if exact is None else {
        "comparisons": _oracle_entries(config, exact, estimates)}
    if config.ensemble_csv:
        _write_csv(config.ensemble_csv, config, ensemble, fvals)
    payload = json.dumps(report, indent=2)
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0, report


def run_oracle(config: RunConfig):
    """Exact conditional marginals for a linear model configuration."""
    exact = _oracle_values(config)
    if exact is None:
        raise InvalidConfigurationError(
            f"model '{config.model_name}' has no closed-form reference")
    values = [{"type": f.kind, "time": f.time, "coordinate": f.coordinate,
               "value": value}
              for f, value in zip(config.functionals, exact)]
    report = {"schema_version": 1, "config_digest": config.digest,
              "oracle_values": values}
    print(json.dumps(report, indent=2))
    return 0, report


def run_validate(config: RunConfig):
    report = {"ok": True, "config_digest": config.digest,
              "n_observations": len(config.observations.items),
              "n_functionals": len(config.functionals)}
    print(json.dumps(report, indent=2))
    return 0, report


def _load(path: str, overrides: argparse.Namespace) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InvalidConfigurationError("config must be a JSON object")
    # overrides are applied before digesting so reruns agree byte for byte
    if getattr(overrides, "seed", None) is not None:
        raw["seed"] = overrides.seed
    if getattr(overrides, "paths", None) is not None:
        raw["n_paths"] = overrides.paths
    return parse_config(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bridgesim",
        description="Monte Carlo estimation for diffusions conditioned on "
                    "partial linear observations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate an ensemble and report "
                                       "estimates")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--paths", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=None,
                       help="forked worker processes that run the path "
                            "chunks (default: the config's threads, then "
                            "$BRIDGESIM_THREADS, then 1, which runs them in "
                            "this process); results are bit-identical for "
                            "any count")

    p_oracle = sub.add_parser("oracle", help="print exact conditional "
                                             "marginals for linear models")
    p_oracle.add_argument("config")

    p_val = sub.add_parser("validate", help="check a configuration file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    try:
        config = _load(args.config, args)
        if args.command == "run":
            status, _ = run(config, threads=args.threads)
        elif args.command == "oracle":
            status, _ = run_oracle(config)
        else:
            status, _ = run_validate(config)
        return status
    except BridgeSimError as exc:
        payload = {"error": {"type": error_kind(exc), "message": str(exc)}}
        field = getattr(exc, "field", None)
        if field:
            payload["error"]["field"] = field
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": {"type": "io-error", "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
