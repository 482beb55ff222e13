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

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from .errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    InvalidObservationError,
    WeightOverflowError,
)
from .observations import (
    ChannelRecord,
    ObservationSet,
    channel_precision,
    shared_channel,
)
from .sde import (
    ModelSpec,
    PathSample,
    TimeGrid,
    diffusion_values,
    drift_values,
    gram,
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


def channel_record(model: ModelSpec, obs: ObservationSet, grid: TimeGrid,
                   states: np.ndarray,
                   preclamp: dict[int, np.ndarray]) -> ChannelRecord:
    """The channel record of a callable-sigma batch, rebuilt from its
    states: the record the bridge kernel keeps while it simulates."""
    n = model.dim
    p_count = states.shape[0]
    precision, logdet = [], []
    for k, ob in enumerate(obs.items):
        j0 = grid.window_start_indices[k]
        j1 = grid.obs_indices[k]
        sl = _window_states(states, preclamp, k, j0, j1)
        prec = np.empty(sl.shape[:2] + (ob.m, ob.m))
        for j in range(j1 - j0 + 1):
            sig = diffusion_values(model.diffusion, grid.nodes[j0 + j],
                                   sl[:, j], n)
            prec[:, j] = channel_precision(gram(sig), ob.matrix)[0]
        sig = diffusion_values(model.diffusion, grid.nodes[j1],
                               states[:, j1], n)
        post = np.empty(p_count)
        post[:] = channel_precision(gram(sig), ob.matrix)[1]
        precision.append(prec)
        logdet.append(post)
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
    rough = model.drift_split[1]
    n = model.dim
    nodes = grid.nodes
    total = np.zeros(p_count)

    def factor(a):
        return scipy.linalg.cho_factor(0.5 * (a + a.T), lower=True)

    sig_c = model.constant_sigma
    chol_c = None if sig_c is None else factor(gram(sig_c))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.n_steps):
            t = nodes[j]
            dt = nodes[j + 1] - nodes[j]
            cur = states[:, j]
            dy = states[:, j + 1] - cur
            bc = drift_values(rough, t, cur, n)
            if chol_c is not None:
                x = scipy.linalg.cho_solve(chol_c, bc.T).T
            else:
                a = gram(diffusion_values(model.diffusion, t, cur, n))
                if a.ndim == 2:
                    x = scipy.linalg.cho_solve(factor(a), bc.T).T
                else:
                    x = np.linalg.solve(a, bc[..., None])[..., 0]
            total += np.einsum("pi,pi->p", x, dy) \
                - 0.5 * np.einsum("pi,pi->p", x, bc) * dt
    return total


def batch_breakdown(model: ModelSpec, obs: ObservationSet, grid: TimeGrid,
                    states: np.ndarray, preclamp: dict[int, np.ndarray],
                    record: Optional[ChannelRecord] = None):
    """Weight terms for a batch of paths.

    ``states`` is (P, M+1, n); ``preclamp[k]`` holds the unprojected
    states at observation k when the simulator applied a terminal
    projection.  Under a callable sigma the terms read the channel
    precision from ``record``, the one the bridge kernel kept for these
    rows; without it the record is rebuilt from the states.  Returns a
    dict of term arrays, each (P, K) with K the number of observations
    (``girsanov`` is (P,)), and a list of ``(path_row, term,
    observation, step)`` tuples for non-finite contributions.
    """
    p_count = states.shape[0]
    n_obs = len(obs.items)
    terms = {name: np.zeros((p_count, n_obs)) for name in TERM_NAMES}
    issues: list[tuple[int, str, int, int | None]] = []

    def scan(values: np.ndarray, term: str, k: int, j_offset: int):
        bad = ~np.isfinite(values)
        if bad.any():
            rows, cols = np.nonzero(np.atleast_2d(bad))
            for r, c in zip(rows, cols):
                issues.append((int(r), term, k,
                               None if j_offset < 0 else int(j_offset + c)))

    with np.errstate(over="ignore", invalid="ignore"):
        if record is None and model.constant_sigma is None:
            record = channel_record(model, obs, grid, states, preclamp)
        for k, ob in enumerate(obs.items):
            _observation_terms(model, grid, states, preclamp, record, k, ob,
                               terms, scan)

    girs = _girsanov_batch(model, grid, states)
    scan(girs[:, None], "girsanov", -1, -1)
    terms["girsanov"] = girs
    return terms, issues


def _observation_terms(model, grid, states, preclamp, record, k, ob, terms,
                       scan) -> None:
    """Fill the window terms of observation ``k`` into ``terms``."""
    p_count = states.shape[0]
    j0 = grid.window_start_indices[k]
    j1 = grid.obs_indices[k]
    n_steps = j1 - j0
    tt = grid.nodes[j0:j1 + 1]
    sl = _window_states(states, preclamp, k, j0, j1)
    L = ob.matrix
    t_obs = grid.nodes[j1]
    denom = t_obs - tt[:-1]
    dt = np.diff(tt)
    resid = sl @ L.T - ob.value                      # (P, J+1, m)

    sig_c = model.constant_sigma
    if sig_c is None:
        prec = record.precision[k]
    else:
        # filled rather than broadcast, so that the einsums below take
        # the same summation order as for a callable sigma
        ch = shared_channel(gram(sig_c), L)
        prec = np.empty((p_count, n_steps + 1) + ch.A.shape)
        prec[...] = ch.A

    q0 = np.einsum("pi,pij,pj->p", resid[:, 0], prec[:, 0], resid[:, 0])
    boundary = -q0 / (2.0 * ob.window)
    terms["boundary"][:, k] = boundary
    scan(boundary[:, None], "boundary", k, -1)

    bvals = np.empty((p_count, n_steps, model.dim))
    for j in range(n_steps):
        bvals[:, j] = drift_values(model.effective_drift, tt[j],
                                   states[:, j0 + j], model.dim)
    lb = bvals @ L.T
    qd = np.einsum("pji,pjik,pjk->pj", resid[:, :-1], prec[:, :-1], lb)
    drift_steps = -qd * dt / denom
    terms["drift_term"][:, k] = drift_steps.sum(axis=1)
    scan(drift_steps, "drift_term", k, j0)

    if sig_c is None:
        dprec = prec[:, 1:] - prec[:, :-1]
        qa = np.einsum("pji,pjik,pjk->pj", resid[:, :-1], dprec,
                       resid[:, :-1])
        da_steps = -qa / (2.0 * denom)
        terms["dA_term"][:, k] = da_steps.sum(axis=1)
        scan(da_steps, "dA_term", k, j0)

        outer = resid[..., :, None] * resid[..., None, :]
        douter = outer[:, 1:] - outer[:, :-1]
        qc = np.einsum("pjik,pjik->pj", dprec, douter)
        covar_steps = -qc / (2.0 * denom)
        terms["covar_term"][:, k] = covar_steps.sum(axis=1)
        scan(covar_steps, "covar_term", k, j0)

        log_eta = 0.5 * record.logdet[k]
    else:
        # constant precision: dA_term and covar_term are exactly 0, and
        # log det A is the same for every path
        log_eta = np.full(p_count, 0.5 * ch.logdet)
    terms["log_eta"][:, k] = log_eta
    scan(log_eta[:, None], "log_eta", k, -1)


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
    states = path.states[None, ...]
    preclamp = {k: v[None, ...] for k, v in path.preclamp.items()}
    terms, issues = batch_breakdown(model, obs, path.grid, states, preclamp)
    if issues:
        _, term, k, step = issues[0]
        raise WeightOverflowError(
            f"non-finite weight contribution in term '{term}'"
            + (f" of observation {k}" if k >= 0 else "")
            + (f" at step {step}" if step is not None else ""),
            term=term, observation=None if k < 0 else k, step_index=step)
    return LogWeightBreakdown(
        log_eta=terms["log_eta"][0],
        boundary=terms["boundary"][0],
        drift_term=terms["drift_term"][0],
        dA_term=terms["dA_term"][0],
        covar_term=terms["covar_term"][0],
        girsanov_term=float(terms["girsanov"][0]),
    )


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
