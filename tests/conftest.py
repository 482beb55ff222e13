"""Shared helpers for the test suite."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim.observations import shared_channel


def rand_orthonormal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Random (m, n) matrix with orthonormal rows, m <= n."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:m, :]


def rand_spd(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Random SPD matrix with condition number at most ``cond``."""
    if n == 1:
        lam = np.array([np.exp(rng.uniform(-1.0, 1.0))])
    else:
        lam = np.exp(np.linspace(0.0, np.log(cond), n))
        lam = lam / lam[rng.integers(n)]
        rng.shuffle(lam)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * lam) @ q.T


def channel_bundle(sigma: np.ndarray, L: np.ndarray):
    """The kernel's channel for a = sigma sigma* with the matrices derived
    from it: beta = sigma* L* A maps channel residuals to noise
    coordinates and P = a L* A L is the oblique projection onto the
    pulled directions."""
    ch = shared_channel(sigma @ sigma.T, L)
    return ch, sigma.T @ L.T @ ch.A, ch.La.T @ ch.A @ L


def single_full_obs(time: float, value, dim: int,
                    window=None) -> bs.ObservationSet:
    """Validated set with one identity observation of the whole state."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    ob = bs.Observation(time=time, matrix=np.eye(dim), value=value,
                        window=window)
    return bs.validate(bs.ObservationSet((ob,)), dim=dim)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
