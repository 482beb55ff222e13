"""Partial linear observations and the projection algebra of the guided
bridge construction."""
from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
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
    during which the guiding pull acts; an :class:`ObservationSet`
    defaults it to the gap since the previous observation.
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
    """Ordered collection of observations, checked when it is built.

    Requires strictly increasing positive times, orthonormal rows of
    each matrix, ``dim`` columns (when given, else as many as the first
    matrix has) and windows that stay within the gap to the previous
    observation; an unset window becomes that gap.
    """

    items: tuple[Observation, ...] = ()
    dim: InitVar[Optional[int]] = None

    def __post_init__(self, dim: Optional[int]):
        n = dim
        checked = []
        prev_time = 0.0
        for k, ob in enumerate(self.items):
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
                raise InvalidObservationError(
                    "observation matrix must be finite", index=k,
                    field="matrix")
            if ob.value.shape != (m,) or not np.all(np.isfinite(ob.value)):
                raise InvalidObservationError(
                    f"observed value must be a finite vector of length {m}",
                    index=k, field="value")
            dev = float(np.abs(product(mat, mat.T) - np.eye(m)).max())
            if dev > ORTHONORMAL_TOL:
                raise InvalidObservationError(
                    f"rows of the observation matrix are not orthonormal "
                    f"(Gram deviation {dev:.3e})", index=k, field="matrix")
            if not np.isfinite(ob.time) or ob.time <= prev_time:
                raise InvalidObservationError(
                    "observation times must be strictly increasing and "
                    "positive", index=k, field="time")
            gap = ob.time - prev_time
            window = gap if ob.window is None else ob.window
            if not (0.0 < window <= gap * (1.0 + 1e-12) + 1e-15):
                raise InvalidObservationError(
                    f"correction window {window} must lie in (0, {gap}]; it "
                    "may not reach past the previous observation time",
                    index=k, field="window")
            checked.append(replace(ob, window=window))
            prev_time = ob.time
        object.__setattr__(self, "items", tuple(checked))

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
        if not self.items:
            return np.inf
        return min(ob.window for ob in self.items)


def validate(obs: Union[ObservationSet, Iterable[Observation]],
             dim: Optional[int] = None) -> ObservationSet:
    """The checked set of ``obs``, its matrices ``dim`` columns wide when
    ``dim`` is given (see :class:`ObservationSet`)."""
    return ObservationSet(
        tuple(obs.items if isinstance(obs, ObservationSet) else obs), dim)


# ---------------------------------------------------------------------------
# projection algebra

@dataclass(frozen=True)
class Channel:
    """Algebra of one observation channel under a shared (n, n) or a
    batched (..., n, n) diffusion matrix sigma, with a = sigma sigma*.

    ``A = (L a L*)^-1``, ``logdet = log det A`` and the gain
    ``gain = A L a``, (..., m, n).  Built once, a shared channel serves
    every step and node at which sigma is the same.
    """

    A: np.ndarray
    logdet: Union[float, np.ndarray]
    gain: np.ndarray

    def pull(self, resid: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """a L* (L a L*)^-1 resid = resid G for residuals (..., m): the
        guiding pull and, for resid = v - L z, the terminal projection;
        into ``out`` if given."""
        return vecmat(resid, self.gain, out)


def _not_elliptic(detail: str) -> EllipticityViolationError:
    return EllipticityViolationError(
        f"L a L* is not positive definite: {detail}")


def _cholesky_precision(S: np.ndarray):
    """(S^-1, log det S^-1) from the Cholesky factor of S, m >= 3."""
    if np.isnan(S).any():
        raise _not_elliptic("NaN")
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise _not_elliptic(str(exc)) from exc
    # forward substitution, one row of the inverse factor at a time
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    inv = np.zeros_like(chol)
    for i in range(chol.shape[-1]):
        inv[..., i, i] = 1.0 / diag[..., i]
        if i:
            inv[..., i, :i] = -vecmat(chol[..., i, :i], inv[..., :i, :i]) \
                * inv[..., i, i, None]
    # the logs summed in a fixed order; a reduction's order varies
    return (product(np.swapaxes(inv, -1, -2), inv),
            -2.0 * dot(np.log(diag), np.ones_like(diag)))


def channel(sig: np.ndarray, L: np.ndarray) -> Channel:
    """The channel of L for a shared (n, n) or batched (..., n, n)
    diffusion matrix ``sig``; every pull, projection and precision uses
    it.

    With ``B = L sigma``, ``S = B B* = L a L*`` is symmetric by
    construction.  For m = 1, ``A = 1 / S``; for m = 2, A is the
    adjugate of S over its determinant; log det A is minus the log of S
    or of the determinant.  For m >= 3, A comes from the inverted
    Cholesky factor of S.  Every product is summed in a fixed order (see
    :func:`bridgesim.sde.product`) and every closed form is evaluated in
    one fixed order, so a row's bits do not depend on the batch it is
    computed in.  S <= 0, a determinant <= 0 or a NaN raises
    :class:`EllipticityViolationError`.
    """
    B = product(L, sig)
    La = product(B, np.swapaxes(sig, -1, -2))
    S = product(B, np.swapaxes(B, -1, -2))
    m = S.shape[-1]
    if m == 1:
        s = S[..., 0, 0]
        if not np.all(s > 0):
            raise _not_elliptic("L a L* <= 0 or NaN")
        A = 1.0 / S
        logdet = -np.log(s)
    elif m == 2:
        s00, s01, s11 = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
        det = s00 * s11 - s01 * s01
        if not np.all(det > 0):
            raise _not_elliptic("det(L a L*) <= 0 or NaN")
        A = np.empty_like(S)
        np.divide(s11, det, out=A[..., 0, 0])
        np.divide(-s01, det, out=A[..., 0, 1])
        A[..., 1, 0] = A[..., 0, 1]
        np.divide(s00, det, out=A[..., 1, 1])
        logdet = -np.log(det)
    else:
        A, logdet = _cholesky_precision(S)
    return Channel(A=A, logdet=logdet, gain=product(A, La))


def _factor(a: np.ndarray) -> np.ndarray:
    """A Cholesky factor sigma of ``a``, so that a = sigma sigma*."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise EllipticityViolationError(
            f"a is not positive definite: {exc}") from exc


def channel_precision(a: np.ndarray, L: np.ndarray):
    """(L a L*)^-1 and its log-determinant, for shared or batched ``a``,
    from the channel of a's Cholesky factor."""
    ch = channel(_factor(a), L)
    return ch.A, ch.logdet


def guide_pull(a: np.ndarray, L: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """a L* (L a L*)^-1 resid for batched residuals of shape (..., m),
    from the channel of a's Cholesky factor."""
    return channel(_factor(a), L).pull(resid)
