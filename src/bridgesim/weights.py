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
since self-normalization cancels them.  Every term is a sum of per-step
pieces, which the bridge kernel adds as it steps (numerics scheme 7).
"""
from __future__ import annotations

import numpy as np

from .bridge import BatchPaths
from .errors import DegenerateEnsembleError, InvalidConfigurationError
# drift_values, diffusion_values and channel_precision are no longer
# called here; they stay in this namespace for tracers that wrap
# bridgesim.weights.<name>
from .observations import ObservationSet, channel_precision  # noqa: F401
from .sde import ModelSpec, diffusion_values, drift_values  # noqa: F401


def batch_breakdown(model: ModelSpec, obs: ObservationSet,
                    batch: BatchPaths):
    """Weight terms of a batch of full bridges, which the bridge kernel
    summed as it simulated the batch; a batch without them (cut-off,
    free or built by hand) cannot be weighted.

    The window sums run over the grid steps of each correction window,
    left points included; the final step up to the observation time
    uses the state before terminal projection and keeps the left node
    in its denominator.  The Girsanov sum runs over every step, between
    stored (projected) nodes.

    Returns a dict of term arrays, each (P, K) with K the number of
    observations (``girsanov`` is (P,)), and a list of
    ``(path_row, term, observation, step)`` tuples, one for each row,
    term and observation whose sum is not finite.  ``step`` is the grid
    step at which the row's sum first turned non-finite, None for the
    per-path ``boundary`` and ``log_eta``.  They are listed by
    observation, then term (boundary, drift_term, dA_term, covar_term,
    log_eta), then row; ``girsanov`` comes last, as observation -1.
    """
    if batch.terms is None or \
            batch.terms["log_eta"].shape[1] != len(obs.items):
        raise InvalidConfigurationError(
            "only a full bridge that simulate_batch weighted for these "
            "observations carries weight terms")
    return batch.terms, batch.issues


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
