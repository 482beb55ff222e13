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

# Window terms are formed for this many rows of a chunk at a time, so
# their per-step temporaries stay small; a row's terms do not depend on
# the other rows, so the block size moves no bit.
ROW_BLOCK = 256


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
    ``precision`` and ``logdet`` and the ``observed_drift`` L b the
    bridge kernel kept for these rows; a batch without them (cut-off or
    built by hand) cannot be weighted.  The window sums run over the
    grid steps of each correction window, left points included; the
    final step up to the observation time uses the state before terminal
    projection and keeps the left node in its denominator.  A row's
    terms do not depend on the other rows of the batch, so the window
    terms are formed ``ROW_BLOCK`` rows at a time.

    Returns a dict of term arrays, each (P, K) with K the number of
    observations (``girsanov`` is (P,)), and a list of
    ``(path_row, term, observation, step)`` tuples for non-finite
    contributions, by observation, then term, then row and step.
    """
    if obs.items and None in (batch.precision, batch.observed_drift):
        raise InvalidConfigurationError(
            "weights need the channel precision and guiding drift that "
            "simulate_batch keeps for full bridges")
    states = batch.states
    p_count = states.shape[0]
    n_obs = len(obs.items)
    terms = {name: np.zeros((p_count, n_obs)) for name in TERM_NAMES}
    issues: list[tuple[int, str, int, int | None]] = []

    with np.errstate(over="ignore", invalid="ignore"):
        for k, ob in enumerate(obs.items):
            found: dict[str, list] = {}  # issues by term, then by row
            for start in range(0, p_count, ROW_BLOCK):
                for term, steps, j0 in _observation_terms(
                        model, batch, k, ob, slice(start, start + ROW_BLOCK)):
                    sums = steps.sum(axis=1)
                    terms[term][start:start + len(sums), k] = sums
                    # a non-finite step makes its row's sum non-finite,
                    # so finite sums spare the scan of every step
                    bad = () if np.isfinite(sums).all() else \
                        zip(*np.nonzero(~np.isfinite(steps)))
                    found.setdefault(term, []).extend(
                        (start + int(r), term, k,
                         None if j0 is None else int(j0 + c))
                        for r, c in bad)
            issues += sum(found.values(), [])
    terms["girsanov"] = g = _girsanov_batch(model, batch.grid, states)
    issues += [(int(r), "girsanov", -1, None)
               for r in np.flatnonzero(~np.isfinite(g))]
    return terms, issues


def _observation_terms(model: ModelSpec, batch: BatchPaths, k: int,
                       ob, rows: slice):
    """Yield ``(term, steps, j0)`` for the window terms of observation
    ``k`` on ``rows``: (R, 1) per path, or (R, J) per step from step
    ``j0``."""
    grid = batch.grid
    j0 = grid.index_of(ob.time - ob.window)
    j1 = grid.index_of(ob.time)
    tt = grid.nodes[j0:j1 + 1]
    L = ob.matrix
    denom = grid.nodes[j1] - tt[:-1]
    resid = vecmat(batch.states[rows, j0:j1 + 1], L.T) - ob.value
    pre = batch.preclamp.get(k)
    if pre is not None:
        # the state before the terminal projection feeds the final
        # step's terms; the projected state enters only through log_eta
        resid[:, -1] = vecmat(pre[rows], L.T) - ob.value
    r0, r = resid[:, 0], resid[:, :-1]  # (R, J+1, m) residuals

    prec = batch.precision[k][rows]
    q0 = dot(vecmat(r0, prec[:, 0]), r0)
    yield "boundary", (-q0 / (2.0 * ob.window))[:, None], None
    qd = dot(vecmat(r, prec[:, :-1]), batch.observed_drift[k][rows])
    yield "drift_term", -qd * np.diff(tt) / denom, j0

    # constant sigma: the precision never moves, so dA_term and
    # covar_term are exactly 0
    if model.constant_sigma is None:
        dprec = np.diff(prec, axis=1)
        qa = dot(vecmat(r, dprec), r)
        yield "dA_term", -qa / (2.0 * denom), j0
        # dA : d(r r*) summed as dot sums the flattened entries, one entry
        # at a time, so no (R, J, m, m) outer product is formed
        qc = None
        for a, c in np.ndindex(ob.m, ob.m):
            dr = np.multiply(resid[:, 1:, a], resid[:, 1:, c], order="C")
            dr -= r[..., a] * r[..., c]
            dr *= dprec[..., a, c]
            qc = dr if qc is None else np.add(qc, dr, out=qc)
        yield "covar_term", -qc / (2.0 * denom), j0
    yield "log_eta", 0.5 * batch.logdet[k][rows, None], None


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
