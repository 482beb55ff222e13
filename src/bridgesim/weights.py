"""Path log-weights for guided bridge samples.

For each observation the weight collects: a log-determinant factor of
the observed-channel precision at the observation time, a boundary term
penalizing the residual at the window opening, a time integral coupling
the residual to the drift through the channel precision, and two
correction sums picking up the variation of the precision along the path
(both vanish identically for constant diffusion).  A Girsanov term
accounts for a drift component excluded from simulation when the model
carries a drift split.  All arithmetic stays in the log domain, and
additive constants shared by every path are dropped since
self-normalization cancels them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .bridge import BatchPaths
from .errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    InvalidObservationError,
    WeightOverflowError,
)
from .observations import (
    ChannelRecord,
    ObservationSet,
    channel,
    channel_precision,
)
from .sde import (
    ModelSpec,
    PathSample,
    TimeGrid,
    diffusion_values,
    dot,
    drift_values,
    gram,
    vecmat,
)

TERM_NAMES = ("log_eta", "boundary", "drift_term", "dA_term", "covar_term")


@dataclass(frozen=True)
class LogWeightBreakdown:
    """Per-observation weight terms of a single path.

    Each array holds one entry per observation; ``girsanov_term`` is a
    single number for the whole path.
    """

    log_eta: np.ndarray
    boundary: np.ndarray
    drift_term: np.ndarray
    dA_term: np.ndarray
    covar_term: np.ndarray
    girsanov_term: float

    @property
    def total(self) -> float:
        return float(self.log_eta.sum() + self.boundary.sum()
                     + self.drift_term.sum() + self.dA_term.sum()
                     + self.covar_term.sum() + self.girsanov_term)


def _window_states(states: np.ndarray, preclamp: dict[int, np.ndarray],
                   k: int, j0: int, j1: int) -> np.ndarray:
    """States at the nodes of window ``k``, (P, J+1, n), with the state
    before the terminal projection at the observation node when known."""
    sl = states[:, j0:j1 + 1, :].copy()
    pre = preclamp.get(k)
    if pre is not None:
        # pre-projection state feeds the final step's terms; the
        # projected state enters only through the eta factor
        sl[:, -1, :] = pre
    return sl


def channel_record(model: ModelSpec, obs: ObservationSet,
                   batch: BatchPaths) -> ChannelRecord:
    """The channel record of a callable-sigma batch, rebuilt from its
    states: the record the bridge kernel keeps while it simulates."""
    grid, states, preclamp = batch.grid, batch.states, batch.preclamp

    def factor(j, x, L):
        return channel_precision(gram(diffusion_values(
            model.diffusion, grid.nodes[j], x, model.dim)), L)

    precision, logdet = [], []
    for k, ob in enumerate(obs.items):
        j0 = grid.window_start_indices[k]
        j1 = grid.obs_indices[k]
        sl = _window_states(states, preclamp, k, j0, j1)
        prec = np.empty(sl.shape[:2] + (ob.m, ob.m))
        for j in range(j1 - j0 + 1):
            prec[:, j] = factor(j0 + j, sl[:, j], ob.matrix)[0]
        precision.append(prec)
        logdet.append(np.empty(states.shape[0]))
        logdet[-1][:] = factor(j1, states[:, j1], ob.matrix)[1]
    return ChannelRecord(precision, logdet)


def _girsanov_batch(model: ModelSpec, grid: TimeGrid,
                    states: np.ndarray) -> np.ndarray:
    """Correction for the drift part excluded from simulation.

    Left-point discretization of  int b_check* a^-1 dy
    - 0.5 int b_check* a^-1 b_check dt  over the whole horizon.
    """
    p_count = states.shape[0]
    if model.drift_split is None:
        return np.zeros(p_count)
    rough = model.rough_drift
    n = model.dim
    eye = np.eye(n)
    nodes = grid.nodes
    total = np.zeros(p_count)
    sig_c = model.constant_sigma
    # a^-1 is the channel precision of the full observation L = I
    a_inv = None if sig_c is None else channel_precision(gram(sig_c), eye)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.n_steps):
            t = nodes[j]
            dt = nodes[j + 1] - nodes[j]
            cur = states[:, j]
            dy = states[:, j + 1] - cur
            bc = drift_values(rough, t, cur, n)
            if sig_c is None:
                a_inv = channel_precision(
                    gram(diffusion_values(model.diffusion, t, cur, n)),
                    eye)[0]
            x = vecmat(bc, a_inv)
            total += dot(x, dy) - 0.5 * dot(x, bc) * dt
    return total


def batch_breakdown(model: ModelSpec, obs: ObservationSet,
                    batch: BatchPaths):
    """Weight terms for a batch of full bridges.

    The terms read the batch's states and, per observation, the
    unprojected states of its terminal projection.  Under a callable
    sigma they read the channel precision from the batch's
    ``channel_record`` and the guiding drift from its ``drift``, the
    ones the bridge kernel kept for these rows; without them both are
    rebuilt from the states.  Returns a dict of term arrays, each
    (P, K) with K the number of observations (``girsanov`` is (P,)),
    and a list of ``(path_row, term, observation, step)`` tuples for
    non-finite contributions.
    """
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
        if k < 0:
            terms[term] = steps.sum(axis=1)
        else:
            terms[term][:, k] = steps.sum(axis=1)
        for r, c in zip(*np.nonzero(~np.isfinite(steps))):
            issues.append((int(r), term, k,
                           None if j0 is None else int(j0 + c)))

    with np.errstate(over="ignore", invalid="ignore"):
        if batch.channel_record is None and model.constant_sigma is None:
            batch = replace(batch,
                            channel_record=channel_record(model, obs, batch))
        for k, ob in enumerate(obs.items):
            _observation_terms(model, batch, k, ob, put)
    put("girsanov", -1, _girsanov_batch(model, batch.grid, states))
    return terms, issues


def _observation_terms(model: ModelSpec, batch: BatchPaths, k: int,
                       ob, put) -> None:
    """Store the window terms of observation ``k`` through ``put``."""
    grid, states, record = batch.grid, batch.states, batch.channel_record
    p_count = states.shape[0]
    j0 = grid.window_start_indices[k]
    j1 = grid.obs_indices[k]
    n_steps = j1 - j0
    tt = grid.nodes[j0:j1 + 1]
    sl = _window_states(states, batch.preclamp, k, j0, j1)
    L = ob.matrix
    denom = grid.nodes[j1] - tt[:-1]
    resid = vecmat(sl, L.T) - ob.value               # (P, J+1, m)
    r0, r = resid[:, 0], resid[:, :-1]

    sig_c = model.constant_sigma
    if sig_c is None:
        prec = record.precision[k]
    else:
        ch = channel(gram(sig_c), L)
        prec = np.broadcast_to(ch.A, (p_count, n_steps + 1) + ch.A.shape)
    put("boundary", k, -dot(vecmat(r0, prec[:, 0]), r0) / (2.0 * ob.window))

    if batch.drift is None:
        drift = np.empty((p_count, n_steps, model.dim))
        for j in range(n_steps):
            drift[:, j] = drift_values(model.effective_drift, tt[j],
                                       states[:, j0 + j], model.dim)
    else:
        drift = batch.drift[:, j0:j1]
    qd = dot(vecmat(r, prec[:, :-1]), vecmat(drift, L.T))
    put("drift_term", k, -qd * np.diff(tt) / denom, j0)

    if sig_c is None:
        dprec = prec[:, 1:] - prec[:, :-1]
        qa = dot(vecmat(r, dprec), r)
        put("dA_term", k, -qa / (2.0 * denom), j0)
        outer = resid[..., :, None] * resid[..., None, :]
        douter = outer[:, 1:] - outer[:, :-1]
        flat = dprec.shape[:2] + (ob.m ** 2,)
        qc = dot(dprec.reshape(flat), douter.reshape(flat))
        put("covar_term", k, -qc / (2.0 * denom), j0)
        put("log_eta", k, 0.5 * record.logdet[k])
    else:
        # constant precision: dA_term and covar_term are exactly 0, and
        # log det A is the same for every path
        put("log_eta", k, np.full(p_count, 0.5 * ch.logdet))


def log_weight(path: PathSample, model: ModelSpec,
               obs: ObservationSet) -> LogWeightBreakdown:
    """Log-weight breakdown of one bridge path.

    The window sums run over the grid steps of each correction window,
    left points included; the final partial step up to the observation
    time uses the state before terminal projection and keeps the left
    node in its denominator.
    """
    if obs.items and not obs.validated:
        raise InvalidObservationError(
            "observation set must be validated before weighting")
    batch = BatchPaths(
        grid=path.grid, path_ids=np.array([path.seed_id]),
        states=path.states[None, ...],
        preclamp={k: v[None, ...] for k, v in path.preclamp.items()})
    terms, issues = batch_breakdown(model, obs, batch)
    if issues:
        _, term, k, step = issues[0]
        raise WeightOverflowError(
            f"non-finite weight contribution in term '{term}'"
            + (f" of observation {k}" if k >= 0 else "")
            + (f" at step {step}" if step is not None else ""),
            term=term, observation=None if k < 0 else k, step_index=step)
    return LogWeightBreakdown(
        **{name: terms[name][0] for name in TERM_NAMES},
        girsanov_term=float(terms["girsanov"][0]))


def girsanov_correction(path: PathSample, model: ModelSpec) -> float:
    """Path correction for the drift remainder of a split model."""
    if model.drift_split is None:
        raise InvalidConfigurationError(
            "girsanov_correction requires a model with drift_split")
    return float(_girsanov_batch(model, path.grid, path.states[None, ...])[0])


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
    log_norm = float(logsumexp(logw))
    return w, log_norm, ess
