"""Command-line interface: run ensembles, print exact references for
linear models, and validate configurations."""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .bridge import TERM_NAMES
from .config import RunConfig, _json_object, parse_config
from .errors import BridgeSimError, InvalidConfigurationError, error_kind
# build_grid, run_ensemble and weighted_mean_se go uncalled here; they
# stay for tracers that wrap them as bridgesim.cli names
from .estimator import (_ensemble, _moments, run_ensemble,  # noqa: F401
                        weighted_mean_se)
from .oracle import condition, joint_law, observation_selector
from .sde import NUMERICS_SCHEME, build_grid  # noqa: F401
from .weights import normalize_log_weights

def _oracle_values(config: RunConfig) -> Optional[list[float]]:
    """Exact value of each functional under the conditioned Gaussian law
    at the grid node that its estimate reads, or None when the model has
    no closed-form reference."""
    lm = config.model.linear_reference(config.initial_state)
    if lm is None:
        return None
    grid = config.time_grid
    reads = [grid.index_of(f.time) for f in config.functionals]
    nodes = sorted({*reads, *(grid.index_of(ob.time)
                              for ob in config.observations)})
    times = grid.nodes[nodes]
    conditioned = condition(joint_law(lm, times), *observation_selector(
        times, lm.dim, config.observations))
    out = []
    for f, node in zip(config.functionals, reads):
        i = nodes.index(node) * lm.dim + f.coordinate
        out.append(float(conditioned.cov[i, i] if f.kind == "marginal_var"
                         else conditioned.mean[i]))
    return out


def _csv_header(config: RunConfig) -> str:
    header = ["path_id", "log_weight"]
    for k in range(len(config.observations.items)):
        header += [f"{name.removesuffix('_term')}_{k}" for name in TERM_NAMES]
    header.append("girsanov")
    header += [f"f_{i}" for i in range(len(config.functionals))]
    return ",".join(header) + "\n"


def _csv_rows(rows: dict, fvals: np.ndarray) -> str:
    """The CSV lines of a chunk's ``rows`` (path ids, log-weights and
    weight terms) and its functional values ``fvals``."""
    cols = [rows["log_weights"][:, None]]
    for k in range(rows[TERM_NAMES[0]].shape[1]):
        cols += [rows[name][:, k:k + 1] for name in TERM_NAMES]
    cols += [rows["girsanov"][:, None], fvals]
    values = np.hstack(cols)
    # 17 significant digits: lossless for doubles and byte-stable
    row = "%d," + ",".join(["%.17g"] * values.shape[1]) + "\n"
    # one % for the whole chunk against one flat tuple: a % per row
    # took about 1.5 times as long
    table = np.empty((len(values), 1 + values.shape[1]), dtype=object)
    table[:, 0] = rows["path_ids"].tolist()
    table[:, 1:] = values
    return (row * len(values)) % tuple(table.ravel().tolist())


def _check_output(path: str, field: str) -> None:
    """Raise the ``OSError`` that writing ``path`` meets in a missing
    directory or on a directory, naming ``path`` and carrying ``field``."""
    missing = not os.path.isdir(os.path.dirname(path) or ".")
    if missing or os.path.isdir(path):
        code = errno.ENOENT if missing else errno.EISDIR
        exc = OSError(code, os.strerror(code), path)
        exc.field = field
        raise exc


@contextlib.contextmanager
def _replacing(path: str, field: str):
    """A new text file beside ``path`` that replaces it when the block
    succeeds and is removed when the block fails.  ``path`` is first
    checked as ``validate`` checks it; an error creating the file names
    ``path``, not the file beside it, and carries ``field``."""
    _check_output(path, field)
    head, name = os.path.split(path)
    part = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(part, "x", newline="", encoding="utf-8")
    except OSError as exc:
        exc.filename, exc.field = path, field
        raise
    try:
        with fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


def _outputs(config: RunConfig) -> tuple:
    """(path, field) of each output, in the order that run opens them."""
    return ((config.ensemble_csv, "outputs.ensemble_csv"),
            (config.report_path, "outputs.report"))


def run(config: RunConfig, threads: int = 1):
    """Execute a run configuration; returns the report dict.

    Each chunk's CSV rows are formatted where the chunk was weighted and
    appended, in chunk order, to a temporary file beside
    ``outputs.ensemble_csv``; the report is staged beside
    ``outputs.report`` the same way.  Both replace their targets only
    once the run has succeeded, so a failed run leaves neither.
    """
    grid = config.time_grid
    exact = _oracle_values(config)
    reads = [grid.index_of(f.time) for f in config.functionals]
    nodes = sorted(set(reads))  # the only nodes that a chunk stores
    coords = [f.coordinate for f in config.functionals]

    with contextlib.ExitStack() as stack:
        # opened before any chunk runs, so an unwritable path fails fast
        csv_out, report_out = [
            stack.enter_context(_replacing(path, field)) if path else None
            for path, field in _outputs(config)]
        if csv_out:
            csv_out.write(_csv_header(config))

        def emit(rows):
            # only the log-weights and functional values reach the parent
            fvals = rows["states"][:, np.searchsorted(nodes, reads), coords]
            return ({"log_weights": rows["log_weights"], "fvals": fvals},
                    csv_out and _csv_rows(rows, fvals))

        merged, n_failed = _ensemble(
            config.model.spec, config.observations, grid,
            config.initial_state, config.n_paths, config.seed, threads,
            config.validate_coefficients, nodes=nodes, emit=emit,
            sink=csv_out and csv_out.write)
        weights, log_norm, ess = normalize_log_weights(merged["log_weights"])
        estimates, comparisons = [], []
        for i, f in enumerate(config.functionals):
            mom = _moments(weights, merged["fvals"][:, i], ess)
            value, se = ((mom.var, mom.var_se) if f.kind == "marginal_var"
                         else (mom.mean, mom.mean_se))
            entry = dict(type=f.kind, time=f.time, coordinate=f.coordinate)
            estimates.append(dict(entry, value=value, std_error=se))
            if exact is not None:
                dev = abs(value - exact[i])
                comparisons.append(dict(
                    entry, oracle_value=exact[i], abs_deviation=dev,
                    deviation_over_se=dev / se if se > 0 else None))
        report = {
            "schema_version": 1,
            "version": __version__,
            "config_digest": config.digest,
            "numerics_scheme": NUMERICS_SCHEME,
            "seed": config.seed,
            "n_paths": len(weights),
            "n_failed": n_failed,
            "ess": ess,
            "log_norm": log_norm,
            "estimates": estimates,
            "oracle": None if exact is None else {"comparisons": comparisons},
        }
        payload = json.dumps(report, indent=2, allow_nan=False)
        if report_out:
            report_out.write(payload + "\n")
    if not config.report_path:
        print(payload)
    return report


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
    return report


def run_validate(config: RunConfig):
    for path, field in _outputs(config):
        if path:
            _check_output(path, field)
    report = {"ok": True, "config_digest": config.digest,
              "n_observations": len(config.observations.items),
              "n_functionals": len(config.functionals)}
    print(json.dumps(report, indent=2))
    return report


def _load(path: str, overrides: argparse.Namespace) -> RunConfig:
    with open(path, "rb") as fh:
        raw = _json_object(fh.read())
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
    p_run.add_argument("--threads", type=int, default=1,
                       help="forked worker processes that run the path "
                            "chunks (default 1, which runs them in this "
                            "process); results are bit-identical for any "
                            "count")

    p_oracle = sub.add_parser("oracle", help="print exact conditional "
                                             "marginals for linear models")
    p_oracle.add_argument("config")

    p_val = sub.add_parser("validate", help="check a configuration file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    try:
        config = _load(args.config, args)
        if args.command == "run":
            run(config, threads=args.threads)
        elif args.command == "oracle":
            run_oracle(config)
        else:
            run_validate(config)
        return 0
    except (BridgeSimError, OSError) as exc:
        kind = "io-error" if isinstance(exc, OSError) else error_kind(exc)
        payload = {"error": {"type": kind, "message": str(exc)}}
        field = getattr(exc, "field", None)
        if field:
            payload["error"]["field"] = field
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
