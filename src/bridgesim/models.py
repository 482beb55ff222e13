"""Built-in model constructors for the command-line runner."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidConfigurationError
from .oracle import LinearModel, _sigma_matrix, _vector
from .sde import ModelSpec


@dataclass(frozen=True)
class BuiltModel:
    """A model spec plus, when the dynamics are linear with diagonal
    feedback, the ingredients of its exact Gaussian reference."""

    spec: ModelSpec
    linear: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def linear_reference(self, u) -> Optional[LinearModel]:
        if self.linear is None:
            return None
        f_diag, c, sigma = self.linear
        return LinearModel(F_diag=f_diag, c=c, sigma=sigma, u=u)


def _ellipticity_of(sigma: np.ndarray) -> float:
    sv = np.linalg.svd(sigma, compute_uv=False)
    return float(max(sv.max() ** 2, 1.0 / sv.min() ** 2) * (1.0 + 1e-9))


def brownian(dim: int = 1, sigma=1.0, drift_split: bool = False) -> BuiltModel:
    return ou(dim, f_diag=0.0, sigma=sigma, drift_split=drift_split)


def drifted_brownian(dim: int = 1, drift=0.0, sigma=1.0,
                     drift_split: bool = False) -> BuiltModel:
    return ou(dim, f_diag=0.0, offset=drift, sigma=sigma,
              drift_split=drift_split)


def ou(dim: int = 1, f_diag=-1.0, offset=0.0, sigma=1.0,
       drift_split: bool = False) -> BuiltModel:
    """Linear drift x * f_diag + offset; its split simulates bridges
    under a zero drift and corrects for all of it."""
    sig = _sigma_matrix(dim, sigma)
    f = _vector(dim, f_diag, "f_diag")
    c = _vector(dim, offset, "offset")

    def drift(t, x):
        return x * f + c

    def zero(t, x):
        return np.zeros_like(x)

    return BuiltModel(spec=ModelSpec(
        dim=dim, drift=drift, diffusion=sig,
        guided_drift=zero if drift_split else None,
        ellipticity_bound=_ellipticity_of(sig)), linear=(f, c, sig))


def double_well(dim: int = 1, sigma=1.0, bound: float = 10.0) -> BuiltModel:
    """Gradient flow of a double-well potential, b(x) = x - x^3.

    The drift is unbounded, so the model always ships with a split:
    bridges are simulated under b clamped to [-bound, bound], and the
    path correction handles the remainder.
    """
    if not bound > 0:
        raise InvalidConfigurationError("bound must be positive")
    sig = _sigma_matrix(dim, sigma)

    def drift(t, x):
        return x - x ** 3

    def bounded(t, x):
        return np.clip(x - x ** 3, -bound, bound)

    return BuiltModel(spec=ModelSpec(
        dim=dim, drift=drift, diffusion=sig, guided_drift=bounded,
        ellipticity_bound=_ellipticity_of(sig)))


REGISTRY = {
    "brownian": brownian,
    "drifted_brownian": drifted_brownian,
    "ou": ou,
    "double_well": double_well,
}


def build_model(name: str, params: dict | None = None,
                drift_split: Optional[bool] = None) -> BuiltModel:
    """Instantiate a built-in model by name.  ``drift_split`` None takes
    the model's default: no split, except for double_well, which always
    splits and so rejects ``False``.  An error in the name, the params
    or the split names it in ``field``."""
    if not isinstance(name, str) or name not in REGISTRY:
        raise InvalidConfigurationError(
            f"unknown model '{name}'; available: {sorted(REGISTRY)}",
            field="name")
    if not isinstance(params, (dict, type(None))):
        raise InvalidConfigurationError("model params must be an object",
                                        field="params")
    if name == "double_well" and drift_split is False:
        raise InvalidConfigurationError(
            "double_well always splits its drift", field="drift_split")
    split = {} if name == "double_well" else {
        "drift_split": bool(drift_split)}
    try:
        return REGISTRY[name](**split, **(params or {}))
    except InvalidConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidConfigurationError(
            f"bad parameters for model '{name}': {exc}") from exc
