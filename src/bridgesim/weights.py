"""Path log-weights for guided bridge samples.

For each observation the weight collects: a log-determinant factor of
the observed-channel precision at the observation time, a boundary term
penalizing the residual at the window opening, a time integral coupling
the residual to the drift through the channel precision, and two
correction sums picking up the variation of the precision along the path
(both vanish identically for constant diffusion).  A Girsanov term
accounts for the remainder ``drift - guided_drift`` when the model
simulates bridges under a ``guided_drift``.  All arithmetic stays in
the log domain, and additive constants shared by every path are dropped
since self-normalization cancels them.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .bridge import BatchPaths
from .errors import DegenerateEnsembleError, InvalidConfigurationError
# channel_precision is no longer called here; it stays in this namespace
# for tracers that wrap bridgesim.weights.<name>
from .observations import (  # noqa: F401
    ObservationSet,
    channel,
    channel_precision,
)
from .sde import (
    ModelSpec,
    TimeGrid,
    batch_innermost,
    diffusion_values,
    dot,
    drift_values,
    vecmat,
)

TERM_NAMES = ("log_eta", "boundary", "drift_term", "dA_term", "covar_term")


def _girsanov_batch(model: ModelSpec, grid: TimeGrid,
                    states: np.ndarray) -> np.ndarray:
    """Correction for the drift part excluded from simulation,
    b_check = drift - guided_drift.

    Left-point discretization of  int b_check* a^-1 dy
    - 0.5 int b_check* a^-1 b_check dt  over the whole horizon.
    """
    p_count = states.shape[0]
    if model.guided_drift is None:
        return np.zeros(p_count)
    n = model.dim
    eye = np.eye(n)
    nodes = grid.nodes.tolist()
    total = np.zeros(p_count)
    sig_c = model.constant_sigma
    # a^-1 is the channel precision of the full observation L = I
    a_inv = None if sig_c is None else channel(sig_c, eye).A
    # each step's terms are formed in these
    dy = batch_innermost((p_count,), (n,))
    bc = batch_innermost((p_count,), (n,))
    x = batch_innermost((p_count,), (n,))
    step = np.empty(p_count)
    half = np.empty(p_count)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.n_steps):
            t = nodes[j]
            dt = nodes[j + 1] - nodes[j]
            cur = states[:, j]
            np.subtract(states[:, j + 1], cur, out=dy)
            np.subtract(drift_values(model.drift, t, cur, n),
                        drift_values(model.guided_drift, t, cur, n), out=bc)
            if sig_c is None:
                a_inv = channel(
                    diffusion_values(model.diffusion, t, cur, n), eye).A
            vecmat(bc, a_inv, out=x)
            # total += x . dy - 0.5 (x . bc) dt
            dot(x, dy, out=step)
            dot(x, bc, out=half)
            half *= 0.5
            half *= dt
            step -= half
            total += step
    return total


def batch_breakdown(model: ModelSpec, obs: ObservationSet,
                    batch: BatchPaths):
    """Weight terms for a batch of full bridges.

    The terms read the batch's states and, per observation, the
    unprojected states of its terminal projection, and the channel
    ``precision`` and ``logdet`` and the guiding ``drift`` the bridge
    kernel kept for these rows; a batch without them (cut-off or built
    by hand) cannot be weighted.  The window sums run over the grid steps
    of each correction window, left points included; the final step up
    to the observation time uses the state before terminal projection
    and keeps the left node in its denominator.  A row's terms do not
    depend on the other rows of the batch.

    Returns a dict of term arrays, each (P, K) with K the number of
    observations (``girsanov`` is (P,)), and a list of
    ``(path_row, term, observation, step)`` tuples for non-finite
    contributions.
    """
    if obs.items and (batch.precision is None or batch.drift is None):
        raise InvalidConfigurationError(
            "weights need the channel precision and guiding drift that "
            "simulate_batch keeps for full bridges")
    states = batch.states
    p_count = states.shape[0]
    n_obs = len(obs.items)
    terms = {name: np.zeros((p_count, n_obs)) for name in TERM_NAMES}
    issues: list[tuple[int, str, int, int | None]] = []

    def put(term: str, k: int, values: np.ndarray,
            j0: Optional[int] = None):
        """Store ``term`` of observation ``k`` (-1: of the whole path):
        per path (P,), or per step (P, J) from step ``j0``, summed over
        the steps.  Non-finite entries are reported."""
        steps = values if values.ndim == 2 else values[:, None]
        sums = steps.sum(axis=1)
        if k < 0:
            terms[term] = sums
        else:
            terms[term][:, k] = sums
        # a non-finite step makes its row's sum non-finite, so finite
        # sums spare the scan of every step
        if np.isfinite(sums).all():
            return
        for r, c in zip(*np.nonzero(~np.isfinite(steps))):
            issues.append((int(r), term, k,
                           None if j0 is None else int(j0 + c)))

    with np.errstate(over="ignore", invalid="ignore"):
        for k, ob in enumerate(obs.items):
            _observation_terms(model, batch, k, ob, put)
    put("girsanov", -1, _girsanov_batch(model, batch.grid, states))
    return terms, issues


def _observation_terms(model: ModelSpec, batch: BatchPaths, k: int,
                       ob, put) -> None:
    """Store the window terms of observation ``k`` through ``put``."""
    grid = batch.grid
    j0 = grid.index_of(ob.time - ob.window)
    j1 = grid.index_of(ob.time)
    tt = grid.nodes[j0:j1 + 1]
    L = ob.matrix
    denom = grid.nodes[j1] - tt[:-1]
    resid = vecmat(batch.states[:, j0:j1 + 1], L.T) - ob.value  # (P,J+1,m)
    pre = batch.preclamp.get(k)
    if pre is not None:
        # the state before the terminal projection feeds the final
        # step's terms; the projected state enters only through log_eta
        resid[:, -1] = vecmat(pre, L.T) - ob.value
    r0, r = resid[:, 0], resid[:, :-1]

    prec = batch.precision[k]
    put("boundary", k, -dot(vecmat(r0, prec[:, 0]), r0) / (2.0 * ob.window))
    qd = dot(vecmat(r, prec[:, :-1]), vecmat(batch.drift[:, j0:j1], L.T))
    put("drift_term", k, -qd * np.diff(tt) / denom, j0)

    # constant sigma: the precision never moves, so dA_term and
    # covar_term are exactly 0
    if model.constant_sigma is None:
        dprec = prec[:, 1:] - prec[:, :-1]
        qa = dot(vecmat(r, dprec), r)
        put("dA_term", k, -qa / (2.0 * denom), j0)
        outer = resid[..., :, None] * resid[..., None, :]
        douter = outer[:, 1:] - outer[:, :-1]
        flat = dprec.shape[:2] + (ob.m ** 2,)
        qc = dot(dprec.reshape(flat), douter.reshape(flat))
        put("covar_term", k, -qc / (2.0 * denom), j0)
    put("log_eta", k, 0.5 * batch.logdet[k])


def normalize_log_weights(logw):
    """Normalized weights, log of the unnormalized sum, and effective
    sample size 1 / sum w_i^2.

    Entries of -inf are admitted and map to zero weight; an ensemble of
    only -inf entries is degenerate.
    """
    logw = np.asarray(logw, dtype=float)
    if logw.size == 0:
        raise DegenerateEnsembleError("empty log-weight array")
    if np.isnan(logw).any() or np.isposinf(logw).any():
        raise ValueError("log-weights must be finite or -inf")
    top = logw.max()
    if np.isneginf(top):
        raise DegenerateEnsembleError("all log-weights are -inf")
    w = np.exp(logw - top)
    total = w.sum()
    w /= total
    ess = 1.0 / float(np.sum(w * w))
    log_norm = float(top + np.log(total))
    return w, log_norm, ess
