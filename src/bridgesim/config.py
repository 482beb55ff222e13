"""Run configuration: JSON schema, validation, and digesting."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import InvalidConfigurationError, InvalidObservationError
from .models import REGISTRY, BuiltModel, build_model
from .observations import Observation, ObservationSet, validate

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
    model_name: str
    model_params: dict
    drift_split: bool
    observations: ObservationSet
    grid: GridSettings
    initial_state: np.ndarray
    horizon: float
    n_paths: int
    seed: int
    threads: Optional[int]
    validate_coefficients: bool
    functionals: tuple[FunctionalSpec, ...]
    report_path: Optional[str]
    ensemble_csv: Optional[str]
    digest: str

    def build_model(self) -> BuiltModel:
        return build_model(self.model_name, self.model_params,
                           self.drift_split)


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
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigurationError("expected an integer", field=path)
    return value


def config_digest(raw: dict) -> str:
    """Digest of the canonical JSON form of the effective configuration."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def parse_config(source) -> RunConfig:
    """Parse and validate a run configuration.

    ``source`` is a JSON string or an already-decoded dict.  Errors
    carry a dotted ``field`` path into the offending entry.
    """
    if isinstance(source, (str, bytes)):
        try:
            raw = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InvalidConfigurationError(f"config is not valid JSON: {exc}")
    else:
        raw = source
    if not isinstance(raw, dict):
        raise InvalidConfigurationError("config must be a JSON object")

    version = _require(raw, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise InvalidConfigurationError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}",
            field="schema_version")

    model_raw = _require(raw, "model", "")
    if not isinstance(model_raw, dict):
        raise InvalidConfigurationError("model must be an object", field="model")
    name = _require(model_raw, "name", "model.")
    if name not in REGISTRY:
        raise InvalidConfigurationError(
            f"unknown model '{name}'; available: {sorted(REGISTRY)}",
            field="model.name")
    params = model_raw.get("params", {})
    if not isinstance(params, dict):
        raise InvalidConfigurationError("model params must be an object",
                                        field="model.params")
    drift_split = bool(model_raw.get("drift_split", False))
    built = build_model(name, params, drift_split)
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
        try:
            items.append(Observation(
                time=time, matrix=np.asarray(matrix, dtype=float),
                value=np.asarray(value, dtype=float),
                window=None if window is None else _number(window,
                                                           path + ".window")))
        except (TypeError, ValueError) as exc:
            raise InvalidConfigurationError(f"malformed observation: {exc}",
                                            field=path)
    try:
        observations = validate(items, dim=dim)
    except InvalidObservationError as exc:
        suffix = f".{exc.field}" if exc.field else ""
        index = exc.index if exc.index is not None else 0
        raise InvalidConfigurationError(
            str(exc), field=f"observations[{index}]{suffix}") from exc

    horizon = raw.get("horizon")
    last_obs = float(observations.times.max())
    horizon = last_obs if horizon is None else _number(horizon, "horizon")
    if horizon < last_obs - 1e-12 * max(1.0, last_obs):
        raise InvalidConfigurationError(
            f"horizon {horizon} is below the last observation time {last_obs}",
            field="horizon")

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
    if not (0.0 < dt_min <= dt_base):
        raise InvalidConfigurationError("require 0 < dt_min <= dt_base",
                                        field="grid.dt_min")
    if not (0.0 < ratio < 1.0):
        raise InvalidConfigurationError("refine_ratio must lie in (0, 1)",
                                        field="grid.refine_ratio")

    init_raw = raw.get("initial_state")
    if init_raw is None:
        initial_state = np.zeros(dim)
    else:
        initial_state = np.asarray(init_raw, dtype=float)
        if initial_state.shape != (dim,):
            raise InvalidConfigurationError(
                f"initial_state must have length {dim}", field="initial_state")
        if not np.all(np.isfinite(initial_state)):
            raise InvalidConfigurationError("initial_state must be finite",
                                            field="initial_state")

    n_paths = _integer(_require(raw, "n_paths", ""), "n_paths")
    if n_paths < 1:
        raise InvalidConfigurationError("n_paths must be >= 1", field="n_paths")
    seed = _integer(_require(raw, "seed", ""), "seed")
    threads = raw.get("threads")
    if threads is not None:
        threads = _integer(threads, "threads")
        if threads < 1:
            raise InvalidConfigurationError("threads must be >= 1",
                                            field="threads")
    validate_flag = bool(raw.get("validate", False))

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
    report_path = outputs.get("report")
    ensemble_csv = outputs.get("ensemble_csv")

    return RunConfig(
        model_name=name, model_params=params, drift_split=drift_split,
        observations=observations,
        grid=GridSettings(dt_base=dt_base, dt_min=dt_min, refine_ratio=ratio),
        initial_state=initial_state, horizon=horizon, n_paths=n_paths,
        seed=seed, threads=threads, validate_coefficients=validate_flag,
        functionals=tuple(functionals), report_path=report_path,
        ensemble_csv=ensemble_csv, digest=config_digest(raw))
