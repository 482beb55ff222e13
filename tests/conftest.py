"""Shared helpers for the test suite."""
import dataclasses

import numpy as np
import pytest

import bridgesim as bs
from bridgesim.observations import channel
from bridgesim.sde import diffusion_values, drift_values, vecmat


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
    """The kernel's channel for sigma, a = sigma sigma*, with the matrices
    derived from it: beta = sigma* L* A maps channel residuals to noise
    coordinates and P = a L* A L = G* L, with the gain G = A L a, is the
    oblique projection onto the pulled directions."""
    ch = channel(sigma, L)
    return ch, sigma.T @ L.T @ ch.A, ch.gain.T @ L


def rebuilt_channels(model, obs, batch):
    """``batch`` with its channel ``precision`` and ``logdet`` and its
    ``observed_drift`` recomputed from its states, apart from the bridge
    kernel, for an array or a callable sigma.

    Per observation: A = (L a L*)^-1 at each window node, the last one
    at the state before the terminal projection, log det A at the
    projected state, and L b, the guiding drift b at the left node of
    every window step seen through L.
    """
    grid, states = batch.grid, batch.states
    p_count, n = states.shape[0], model.dim

    def factor(j, x, L):
        ch = channel(diffusion_values(model.diffusion, grid.nodes[j], x, n), L)
        return ch.A, ch.logdet

    precision, logdet, observed = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, ob in enumerate(obs.items):
            j0 = grid.index_of(ob.time - ob.window)
            j1 = grid.index_of(ob.time)
            window = states[:, j0:j1 + 1].copy(order="K")
            if k in batch.preclamp:
                window[:, -1] = batch.preclamp[k]
            prec = np.empty((p_count, j1 - j0 + 1, ob.m, ob.m))
            for j in range(j1 - j0 + 1):
                prec[:, j] = factor(j0 + j, window[:, j], ob.matrix)[0]
            precision.append(prec)
            logdet.append(np.empty(p_count))
            logdet[-1][:] = factor(j1, states[:, j1], ob.matrix)[1]
            lb = np.empty((p_count, j1 - j0, ob.m))
            for j in range(j0, j1):
                b = drift_values(model.effective_drift, grid.nodes[j],
                                 states[:, j], n)
                vecmat(b, ob.matrix.T, out=lb[:, j - j0])
            observed.append(lb)
    return dataclasses.replace(batch, precision=precision, logdet=logdet,
                               observed_drift=observed)


def single_full_obs(time: float, value, dim: int,
                    window=None) -> bs.ObservationSet:
    """Validated set with one identity observation of the whole state."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    ob = bs.Observation(time=time, matrix=np.eye(dim), value=value,
                        window=window)
    return bs.validate(bs.ObservationSet((ob,)), dim=dim)


def nondiagonal_sigma_setup():
    """Drift -x and the constant non-diagonal sigma [[1, 0], [0.4, 0.9]]
    in two dimensions, the first coordinate observed at t = 1."""
    sigma = np.array([[1.0, 0.0], [0.4, 0.9]])
    model = bs.ModelSpec(dim=2, drift=lambda t, x: -x, diffusion=sigma)
    obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.3])], dim=2)
    grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
    return model, obs, grid, np.array([0.5, -0.3])


def state_dependent_setup(blowup_at=None, dt_base=0.05, dt_min=1e-3):
    """Drift sin x and sigma = diag(1 + 0.25 cos x) in three dimensions,
    observed through a dense rank-1 matrix at t = 0.4 and a dense rank-2
    one at t = 1.  With ``blowup_at`` the drift explodes on reaching
    x_0 > blowup_at, so the paths that get there fail."""
    rng = np.random.default_rng(7)
    u = np.array([0.3, -0.2, 0.1])
    items = []
    for time, rank in ((0.4, 1), (1.0, 2)):
        L = rand_orthonormal(rng, rank, 3)
        items.append(bs.Observation(
            time, L, L @ (u + 0.5 * rng.standard_normal(3))))
    obs = bs.validate(items, dim=3)

    def drift(t, x):
        if blowup_at is None:
            return np.sin(x)
        return np.where(x[..., :1] > blowup_at, 1e12 * x, np.sin(x))

    def diffusion(t, x):
        return (1.0 + 0.25 * np.cos(x))[..., :, None] * np.eye(3)

    model = bs.ModelSpec(dim=3, drift=drift, diffusion=diffusion)
    grid = bs.build_grid(1.0, obs, dt_base=dt_base, dt_min=dt_min,
                         include_times=[0.55])
    return model, obs, grid, u


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
