"""Closed-form Gaussian laws for linear models with diagonal state
feedback, used as an independent reference for the sampler."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConditioningError,
    InvalidConfigurationError,
)
from .observations import ObservationSet
from .sde import TimeGrid, integer


def _vector(dim: int, value, name: str) -> np.ndarray:
    """``value``, a scalar or a length-``dim`` vector, as a finite
    length-``dim`` vector."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise InvalidConfigurationError(f"{name} must have length {dim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidConfigurationError(f"{name} must be finite")
    return arr


def _sigma_matrix(dim: int, sigma) -> np.ndarray:
    """``sigma``, a scalar, a length-``dim`` vector (the diagonal) or a
    (dim, dim) matrix, as a finite nonsingular (dim, dim) matrix."""
    dim = integer(dim, "dim must be a positive integer", least=1)
    arr = np.asarray(sigma, dtype=float)
    if arr.ndim == 0:
        out = float(arr) * np.eye(dim)
    elif arr.ndim == 1:
        out = np.diag(_vector(dim, arr, "sigma"))
    elif arr.shape == (dim, dim):
        out = arr.copy()
    else:
        raise InvalidConfigurationError(
            f"sigma must be a scalar, a length-{dim} vector, or "
            f"a {dim}x{dim} matrix")
    if not np.all(np.isfinite(out)):
        raise InvalidConfigurationError("sigma must be finite")
    if np.linalg.svd(out, compute_uv=False).min() <= 0:
        raise InvalidConfigurationError("sigma must be nonsingular")
    return out


@dataclass(frozen=True)
class LinearModel:
    """dx = (F x + c) dt + Sigma dW with diagonal F, constant Sigma,
    deterministic initial state u."""

    F_diag: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        n = np.size(self.F_diag)
        for name in ("F_diag", "c", "u"):
            object.__setattr__(self, name, _vector(n, getattr(self, name),
                                                   name))
        object.__setattr__(self, "sigma", _sigma_matrix(n, self.sigma))

    @property
    def dim(self) -> int:
        return self.F_diag.shape[0]


@dataclass(frozen=True)
class GaussianLaw:
    mean: np.ndarray
    cov: np.ndarray


def _phi(rates: np.ndarray, t: float) -> np.ndarray:
    """(exp(r t) - 1) / r, continuously extended at r = 0."""
    out = np.full_like(rates, t, dtype=float)
    nz = np.abs(rates) > 1e-12
    out[nz] = np.expm1(rates[nz] * t) / rates[nz]
    return out


def _marginal_cov(lm: LinearModel, t: float) -> np.ndarray:
    q = lm.sigma @ lm.sigma.T
    rsum = lm.F_diag[:, None] + lm.F_diag[None, :]
    return q * _phi(rsum, t)


def joint_law(lm: LinearModel, times) -> GaussianLaw:
    """Joint Gaussian law of the state at strictly increasing times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise InvalidConfigurationError("at least one time is required")
    if np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise InvalidConfigurationError(
            "times must be nonnegative and strictly increasing")
    n = lm.dim
    q_count = times.size
    mean = np.empty(q_count * n)
    cov = np.empty((q_count * n, q_count * n))
    vs = [_marginal_cov(lm, t) for t in times]
    for p, t in enumerate(times):
        mean[p * n:(p + 1) * n] = np.exp(lm.F_diag * t) * lm.u \
            + lm.c * _phi(lm.F_diag, t)
    for p in range(q_count):
        for q in range(p, q_count):
            lag = times[q] - times[p]
            block = vs[p] * np.exp(lm.F_diag[None, :] * lag)
            cov[p * n:(p + 1) * n, q * n:(q + 1) * n] = block
            cov[q * n:(q + 1) * n, p * n:(p + 1) * n] = block.T
    cov = 0.5 * (cov + cov.T)
    return GaussianLaw(mean=mean, cov=cov)


def condition(law: GaussianLaw, selector, value) -> GaussianLaw:
    """Gaussian conditioning on selector @ x = value.

    Solves through a Cholesky factor of the innovation covariance.
    A singular innovation is admitted only when the requested value is
    already implied by the law (so conditioning is idempotent); a
    singular innovation carrying new information is an error.
    """
    sel = np.atleast_2d(np.asarray(selector, dtype=float))
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if sel.shape[1] != law.mean.shape[0] or value.shape[0] != sel.shape[0]:
        raise InvalidConfigurationError(
            "selector or value dimensions do not match the law")
    gain_in = law.cov @ sel.T
    innov = sel @ gain_in
    innov = 0.5 * (innov + innov.T)
    resid = value - sel @ law.mean
    rhs = np.column_stack([resid, gain_in.T])
    if not (np.isfinite(innov).all() and np.isfinite(rhs).all()):
        raise InvalidConfigurationError(
            "conditioning needs a finite law and value")
    try:
        low = np.linalg.cholesky(innov)
        sol = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
        mean = law.mean + gain_in @ sol[:, 0]
        cov = law.cov - gain_in @ sol[:, 1:]
    except np.linalg.LinAlgError:
        lam, vec = np.linalg.eigh(innov)
        keep = lam > 1e-12 * max(float(lam.max(initial=0.0)), 1.0)
        dropped = vec[:, ~keep].T @ resid
        if dropped.size and float(np.abs(dropped).max()) > \
                1e-8 * (1.0 + float(np.abs(value).max())):
            raise DegenerateConditioningError(
                "conditioning on a degenerate direction with inconsistent "
                "value") from None
        vk = vec[:, keep]
        inv = vk @ np.diag(1.0 / lam[keep]) @ vk.T
        mean = law.mean + gain_in @ (inv @ resid)
        cov = law.cov - gain_in @ inv @ gain_in.T
    cov = 0.5 * (cov + cov.T)
    return GaussianLaw(mean=mean, cov=cov)


def observation_selector(times, dim: int, obs: ObservationSet):
    """Selector matrix and stacked values picking the observed
    combinations out of the joint law over the increasing ``times``;
    each observation reads its nearest time, as ``TimeGrid.index_of``."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    law_times = TimeGrid(times)
    rows = []
    vals = []
    for ob in obs.items:
        try:
            j = law_times.index_of(ob.time)
        except InvalidConfigurationError:
            raise InvalidConfigurationError(
                f"observation time {ob.time} is not among the law's "
                "times") from None
        block = np.zeros((ob.m, times.size * dim))
        block[:, j * dim:(j + 1) * dim] = ob.matrix
        rows.append(block)
        vals.append(ob.value)
    if not rows:
        raise InvalidConfigurationError("observation set is empty")
    return np.vstack(rows), np.concatenate(vals)
