"""Partial linear observations and the projection algebra of the guided
bridge construction."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

import numpy as np

from .errors import (
    EllipticityViolationError,
    InvalidObservationError,
)
from .sde import dot, product, vecmat

ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True)
class Observation:
    """One linear observation L x(time) = value.

    ``matrix`` is (m, n) with orthonormal rows, ``value`` is (m,).
    ``window`` is the length of the correction interval before ``time``
    during which the guiding pull acts; validation defaults it to the
    gap since the previous observation.
    """

    time: float
    matrix: np.ndarray
    value: np.ndarray
    window: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "matrix",
                           np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "value",
                           np.atleast_1d(np.asarray(self.value, dtype=float)))
        if self.window is not None:
            object.__setattr__(self, "window", float(self.window))

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ObservationSet:
    """Ordered collection of observations.

    Validation (see :func:`validate`) fills defaults and checks the
    invariants; simulation entry points require a validated set.
    """

    items: tuple[Observation, ...] = ()
    validated: bool = False

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def times(self) -> np.ndarray:
        return np.array([ob.time for ob in self.items])

    @property
    def min_window(self) -> float:
        """Smallest window length, infinity for an empty set."""
        if not self.validated:
            raise InvalidObservationError(
                "min_window requires a validated observation set")
        if not self.items:
            return np.inf
        return min(ob.window for ob in self.items)


def validate(obs: Union[ObservationSet, Iterable[Observation]],
             dim: Optional[int] = None) -> ObservationSet:
    """Check observation invariants and fill defaults.

    Requires strictly increasing positive times, orthonormal rows of
    each matrix and windows that stay within the gap to the previous
    observation.  Returns a new validated set.
    """
    items = tuple(obs.items if isinstance(obs, ObservationSet) else obs)
    n = dim
    checked = []
    prev_time = 0.0
    for k, ob in enumerate(items):
        mat = ob.matrix
        if mat.ndim != 2:
            raise InvalidObservationError(
                "observation matrix must be two-dimensional", index=k,
                field="matrix")
        m, cols = mat.shape
        if n is None:
            n = cols
        if cols != n:
            raise InvalidObservationError(
                f"observation matrix has {cols} columns, expected {n}",
                index=k, field="matrix")
        if not 1 <= m <= n:
            raise InvalidObservationError(
                f"observation matrix must have between 1 and {n} rows",
                index=k, field="matrix")
        if not np.all(np.isfinite(mat)):
            raise InvalidObservationError("observation matrix must be finite",
                                          index=k, field="matrix")
        if ob.value.shape != (m,) or not np.all(np.isfinite(ob.value)):
            raise InvalidObservationError(
                f"observed value must be a finite vector of length {m}",
                index=k, field="value")
        dev = float(np.abs(mat @ mat.T - np.eye(m)).max())
        if dev > ORTHONORMAL_TOL:
            raise InvalidObservationError(
                f"rows of the observation matrix are not orthonormal "
                f"(Gram deviation {dev:.3e})", index=k, field="matrix")
        if not np.isfinite(ob.time) or ob.time <= prev_time:
            raise InvalidObservationError(
                "observation times must be strictly increasing and positive",
                index=k, field="time")
        gap = ob.time - prev_time
        window = gap if ob.window is None else ob.window
        if not (0.0 < window <= gap * (1.0 + 1e-12) + 1e-15):
            raise InvalidObservationError(
                f"correction window {window} must lie in (0, {gap}]; it may "
                "not reach past the previous observation time", index=k,
                field="window")
        checked.append(replace(ob, window=window))
        prev_time = ob.time
    return ObservationSet(items=tuple(checked), validated=True)


# ---------------------------------------------------------------------------
# projection algebra

@dataclass(frozen=True)
class Channel:
    """Algebra of one observation channel under a shared (n, n) or a
    batched (..., n, n) ``a``.

    ``A = (L a L*)^-1``, ``logdet = log det A`` and the gain
    ``gain = A L a``, (..., m, n).  Built once, a shared channel serves
    every step and node at which ``a`` is the same.
    """

    A: np.ndarray
    logdet: Union[float, np.ndarray]
    gain: np.ndarray

    def pull(self, resid: np.ndarray) -> np.ndarray:
        """a L* (L a L*)^-1 resid = resid G for residuals (..., m): the
        guiding pull and, for resid = v - L z, the terminal projection."""
        return vecmat(resid, self.gain)


@dataclass(frozen=True)
class ChannelRecord:
    """Channel algebra of a batch along every observation window.

    ``precision[k]`` is (P, J + 1, m, m): A = (L a L*)^-1 at each of the
    J + 1 nodes of window k, the last one at the state before the
    terminal projection.  ``logdet[k]`` is (P,): log det A at the
    projected state.  The bridge kernel fills it as it pulls and
    projects; the weights read it instead of factoring again.
    """

    precision: list
    logdet: list

    def rows(self, mask: np.ndarray) -> "ChannelRecord":
        """The record of the paths selected by ``mask``."""
        return ChannelRecord([p[mask] for p in self.precision],
                             [d[mask] for d in self.logdet])


def channel(a: np.ndarray, L: np.ndarray) -> Channel:
    """The one factorization of L a L*, for a shared (n, n) or batched
    (..., n, n) ``a``; every pull, projection and precision uses it.

    A comes from the inverted Cholesky factor, never from inverting an
    unfactorized matrix.  Every product is summed in a fixed order (see
    :func:`bridgesim.sde.product`), so a row's bits do not depend on the
    batch it is factored in.
    """
    La = product(L, a)
    mat = product(La, L.T)
    mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise EllipticityViolationError(
            f"L a L* is not positive definite: {exc}") from exc
    # forward substitution, one row of the inverse factor at a time
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    inv = np.zeros_like(chol)
    for i in range(chol.shape[-1]):
        inv[..., i, i] = 1.0 / diag[..., i]
        if i:
            inv[..., i, :i] = -vecmat(chol[..., i, :i], inv[..., :i, :i]) \
                * inv[..., i, i, None]
    prec = product(np.swapaxes(inv, -1, -2), inv)
    # the logs summed in a fixed order; a reduction's order varies
    logdet = -2.0 * dot(np.log(diag), np.ones_like(diag))
    return Channel(A=prec, logdet=logdet, gain=product(prec, La))


def channel_precision(a: np.ndarray, L: np.ndarray):
    """(L a L*)^-1 and its log-determinant, for shared or batched ``a``."""
    ch = channel(a, L)
    return ch.A, ch.logdet


def guide_pull(a: np.ndarray, L: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """a L* (L a L*)^-1 resid for batched residuals of shape (..., m)."""
    return channel(a, L).pull(resid)
