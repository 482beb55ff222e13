"""Shared helpers for the test suite."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim import estimator
from bridgesim.observations import channel
from bridgesim.sde import diffusion_values, dot, drift_values, vecmat
from bridgesim.bridge import TERM_NAMES


# The chunk the multi-chunk tests are built around: pinned as the cap by
# the ``chunk_cap`` fixture, it gives a run chunks of exactly this many
# paths at any worker count, and forks one worker per chunk at most.
CHUNK = 2048


@pytest.fixture
def chunk_cap(monkeypatch):
    monkeypatch.setattr(estimator, "CHUNK_SIZE", CHUNK)


def forbid_noise(monkeypatch):
    """Fail the test if any noise is drawn from here on, for checks that
    an input is rejected before the kernel draws."""
    def drawn(*args):
        pytest.fail("noise was drawn")
    for module in (bs.sde, bs.bridge):
        monkeypatch.setattr(module, "noise_drawer", drawn)


def chunk_count(n_paths: int, threads: int = 1) -> int:
    """Chunks that a run of ``n_paths`` at ``threads`` splits into, by the
    estimator's rule at the current cap."""
    rows = estimator._chunk_rows(
        n_paths, estimator._worker_count(threads, n_paths))
    return -(-n_paths // rows)


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


def two_pass_breakdown(model, obs, batch):
    """The weight terms of a kernel ``batch`` formed apart from the
    kernel, in a second pass over its states and pre-projection states
    that evaluates every drift, sigma and channel again, with every
    row's per-step pieces.

    Per observation: the residuals ``r = L z - v`` over the window, the
    last one at the state before the terminal projection; the precision
    ``A = (L a L*)^-1`` at each of those states and ``log det A`` at the
    projected state; and ``L b``, the guiding drift at each window step's
    left node seen through L.  The Girsanov term of ``drift -
    guided_drift`` runs over every step between stored nodes.  Returns
    ``(terms, steps)``: ``terms`` as ``batch_breakdown`` returns them,
    each step sum summed along its steps by numpy, and ``steps[term, k]
    = (j0, pieces)``, the (P, J) pieces of a step sum from grid step
    ``j0`` on, or (P, 1) with ``j0`` None for a per-path term; the
    Girsanov term is under observation -1.
    """
    grid, states = batch.grid, batch.states
    nodes = grid.nodes
    p_count, n = states.shape[0], model.dim

    def chan(j, x, L):
        return channel(diffusion_values(model.diffusion, nodes[j], x, n), L)

    steps = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k, ob in enumerate(obs.items):
            L = ob.matrix
            j0 = grid.index_of(ob.time - ob.window)
            j1 = grid.index_of(ob.time)
            window = states[:, j0:j1 + 1].copy()
            window[:, -1] = batch.preclamp[k]
            prec = np.stack([chan(j0 + i, window[:, i], L).A
                             * np.ones((p_count, 1, 1))
                             for i in range(j1 - j0 + 1)], axis=1)
            lb = np.stack([vecmat(drift_values(model.effective_drift,
                                               nodes[j], states[:, j], n),
                                  L.T) for j in range(j0, j1)], axis=1)
            resid = vecmat(window, L.T) - ob.value
            r = resid[:, :-1]
            tt = nodes[j0:j1 + 1]
            denom = nodes[j1] - tt[:-1]
            q0 = dot(vecmat(resid[:, 0], prec[:, 0]), resid[:, 0])
            steps["boundary", k] = (None, (-q0 / (2.0 * ob.window))[:, None])
            qd = dot(vecmat(r, prec[:, :-1]), lb)
            steps["drift_term", k] = (j0, -qd * np.diff(tt) / denom)
            dprec = np.diff(prec, axis=1)
            qa = dot(vecmat(r, dprec), r)
            steps["dA_term", k] = (j0, -qa / (2.0 * denom))
            qc = np.zeros_like(qa)
            for a, c in np.ndindex(ob.m, ob.m):
                qc += (resid[:, 1:, a] * resid[:, 1:, c]
                       - r[..., a] * r[..., c]) * dprec[..., a, c]
            steps["covar_term", k] = (j0, -qc / (2.0 * denom))
            logdet = chan(j1, states[:, j1], L).logdet * np.ones(p_count)
            steps["log_eta", k] = (None, 0.5 * logdet[:, None])
        girsanov = np.zeros((p_count, grid.n_steps))
        if model.guided_drift is not None:
            for j in range(grid.n_steps):
                x, t = states[:, j], nodes[j]
                bc = drift_values(model.drift, t, x, n) \
                    - drift_values(model.guided_drift, t, x, n)
                ainv = chan(j, x, np.eye(n)).A
                xa = vecmat(bc, ainv)
                girsanov[:, j] = dot(xa, states[:, j + 1] - x) \
                    - 0.5 * dot(xa, bc) * (nodes[j + 1] - t)
        steps["girsanov", -1] = (0, girsanov)
    terms = {name: np.zeros((p_count, len(obs.items))) for name in TERM_NAMES}
    for (name, k), (_, pieces) in steps.items():
        if k >= 0:
            terms[name][:, k] = pieces.sum(axis=1)
    terms["girsanov"] = girsanov.sum(axis=1)
    return terms, steps


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
