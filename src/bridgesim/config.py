"""Run configuration: JSON schema, validation, and digesting."""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import InvalidConfigurationError, InvalidObservationError
from .models import BuiltModel, build_model
from .observations import Observation, ObservationSet, validate
from .sde import TimeGrid, build_grid

SCHEMA_VERSION = 1

DEFAULT_REFINE_RATIO = 0.5
# default dt_min as a fraction of the horizon
DEFAULT_DT_MIN_FACTOR = 1e-5

FUNCTIONAL_KINDS = ("coordinate", "marginal_mean", "marginal_var")


@dataclass(frozen=True)
class FunctionalSpec:
    kind: str
    time: float
    coordinate: int


@dataclass(frozen=True)
class GridSettings:
    dt_base: float
    dt_min: float
    refine_ratio: float


@dataclass(frozen=True)
class RunConfig:
    """A parsed run; every command reads its ``model`` and ``time_grid``."""

    model_name: str
    model: BuiltModel
    observations: ObservationSet
    grid: GridSettings
    time_grid: TimeGrid
    initial_state: np.ndarray
    horizon: float
    n_paths: int
    seed: int
    validate_coefficients: bool
    functionals: tuple[FunctionalSpec, ...]
    report_path: Optional[str]
    ensemble_csv: Optional[str]
    digest: str


def _require(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise InvalidConfigurationError(f"missing required field",
                                        field=f"{path}{key}")
    return d[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfigurationError("expected a number", field=path)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = np.inf
    # json accepts Infinity and NaN literals
    if not np.isfinite(value):
        raise InvalidConfigurationError("expected a finite number",
                                        field=path)
    return value


def _integer(value, path: str) -> int:
    # not sde.integer: config_digest's json.dumps fails on a numpy int
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigurationError("expected an integer", field=path)
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise InvalidConfigurationError("expected true or false", field=path)
    return value


def _file_path(value, path: str) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise InvalidConfigurationError("expected a path string or null",
                                        field=path)
    return value


def config_digest(raw: dict) -> str:
    """Digest of the canonical JSON form of the effective configuration."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _json_object(source) -> dict:
    """``source``, JSON text (bytes are UTF-8) or an already-decoded
    value, as a JSON object."""
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source.decode() if isinstance(source, bytes)
                                else source)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InvalidConfigurationError(
                f"config is not valid JSON: {exc}") from None
    if not isinstance(source, dict):
        raise InvalidConfigurationError("config must be a JSON object")
    return source


def parse_config(source) -> RunConfig:
    """Parse and validate a run configuration.

    ``source`` is a JSON string or an already-decoded dict.  Errors
    carry a dotted ``field`` path into the offending entry.
    """
    raw = _json_object(source)

    version = _require(raw, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise InvalidConfigurationError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}",
            field="schema_version")

    model_raw = _require(raw, "model", "")
    if not isinstance(model_raw, dict):
        raise InvalidConfigurationError("model must be an object", field="model")
    name = _require(model_raw, "name", "model.")
    drift_split = model_raw.get("drift_split")
    try:  # build_model's fields, like _boolean's here, lie under model.
        built = build_model(name, model_raw.get("params"),
                            None if drift_split is None
                            else _boolean(drift_split, "drift_split"))
    except InvalidConfigurationError as exc:
        if exc.field:
            exc.field = f"model.{exc.field}"
        raise
    dim = built.spec.dim

    obs_raw = _require(raw, "observations", "")
    if not isinstance(obs_raw, list) or not obs_raw:
        raise InvalidConfigurationError(
            "observations must be a non-empty array", field="observations")
    items = []
    for k, entry in enumerate(obs_raw):
        path = f"observations[{k}]"
        if not isinstance(entry, dict):
            raise InvalidConfigurationError("expected an object", field=path)
        time = _number(_require(entry, "time", path + "."), path + ".time")
        matrix = _require(entry, "matrix", path + ".")
        value = _require(entry, "value", path + ".")
        window = entry.get("window")
        window = None if window is None else _number(window, path + ".window")
        try:
            items.append(Observation(time=time, matrix=matrix, value=value,
                                     window=window))
        except (TypeError, ValueError) as exc:
            raise InvalidConfigurationError(f"malformed observation: {exc}",
                                            field=path)
    try:
        observations = validate(items, dim=dim)
    except InvalidObservationError as exc:  # each names its entry
        raise InvalidConfigurationError(
            str(exc), field=f"observations[{exc.index}].{exc.field}") from exc

    horizon = raw.get("horizon")
    horizon = float(observations.times.max()) if horizon is None \
        else _number(horizon, "horizon")

    grid_raw = _require(raw, "grid", "")
    if not isinstance(grid_raw, dict):
        raise InvalidConfigurationError("grid must be an object", field="grid")
    dt_base = _number(_require(grid_raw, "dt_base", "grid."), "grid.dt_base")
    dt_min = grid_raw.get("dt_min")
    dt_min = DEFAULT_DT_MIN_FACTOR * horizon if dt_min is None \
        else _number(dt_min, "grid.dt_min")
    ratio = grid_raw.get("refine_ratio")
    ratio = DEFAULT_REFINE_RATIO if ratio is None \
        else _number(ratio, "grid.refine_ratio")

    init_raw = raw.get("initial_state")
    if init_raw is None:
        initial_state = np.zeros(dim)
    else:
        if not isinstance(init_raw, list) or len(init_raw) != dim:
            raise InvalidConfigurationError(
                f"initial_state must be an array of length {dim}",
                field="initial_state")
        initial_state = np.array([_number(x, f"initial_state[{i}]")
                                  for i, x in enumerate(init_raw)])

    n_paths = _integer(_require(raw, "n_paths", ""), "n_paths")
    if n_paths < 1:
        raise InvalidConfigurationError("n_paths must be >= 1", field="n_paths")
    seed = _integer(_require(raw, "seed", ""), "seed")
    validate_flag = _boolean(raw.get("validate", False), "validate")

    fun_raw = _require(raw, "functionals", "")
    if not isinstance(fun_raw, list):
        raise InvalidConfigurationError("functionals must be an array",
                                        field="functionals")
    functionals = []
    for i, entry in enumerate(fun_raw):
        path = f"functionals[{i}]"
        if not isinstance(entry, dict):
            raise InvalidConfigurationError("expected an object", field=path)
        kind = _require(entry, "type", path + ".")
        if kind not in FUNCTIONAL_KINDS:
            raise InvalidConfigurationError(
                f"unknown functional type '{kind}'; "
                f"expected one of {FUNCTIONAL_KINDS}", field=path + ".type")
        time = _number(_require(entry, "time", path + "."), path + ".time")
        if not 0.0 <= time <= horizon + 1e-12 * max(1.0, horizon):
            raise InvalidConfigurationError(
                f"functional time {time} lies outside [0, horizon]",
                field=path + ".time")
        coord = _integer(entry.get("coordinate", 0), path + ".coordinate")
        if not 0 <= coord < dim:
            raise InvalidConfigurationError(
                f"coordinate must lie in [0, {dim})", field=path + ".coordinate")
        functionals.append(FunctionalSpec(kind=kind, time=time,
                                          coordinate=coord))

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict):
        raise InvalidConfigurationError("outputs must be an object",
                                        field="outputs")
    report_path = _file_path(outputs.get("report"), "outputs.report")
    ensemble_csv = _file_path(outputs.get("ensemble_csv"),
                              "outputs.ensemble_csv")
    if report_path and ensemble_csv and \
            os.path.realpath(report_path) == os.path.realpath(ensemble_csv):
        raise InvalidConfigurationError(
            "the CSV would replace the report at the same path",
            field="outputs.ensemble_csv")

    try:
        time_grid = build_grid(horizon, observations, dt_base, dt_min, ratio,
                               include_times=[f.time for f in functionals])
    except InvalidConfigurationError as exc:
        field = {"horizon": "horizon", "dt_min": "grid.dt_min",
                 "refine_ratio": "grid.refine_ratio"}.get(exc.field, "grid")
        raise InvalidConfigurationError(str(exc), field=field) from exc

    return RunConfig(
        model_name=name, model=built, observations=observations,
        grid=GridSettings(dt_base=dt_base, dt_min=dt_min, refine_ratio=ratio),
        time_grid=time_grid, initial_state=initial_state, horizon=horizon,
        n_paths=n_paths, seed=seed,
        validate_coefficients=validate_flag,
        functionals=tuple(functionals), report_path=report_path,
        ensemble_csv=ensemble_csv, digest=config_digest(raw))
