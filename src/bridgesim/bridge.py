"""Euler-Maruyama simulation: the one integration kernel, used for guided
bridges (observation pull and terminal projection onto each observed
value) and, with no observations and the full drift, for unconditioned
paths."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfigurationError
# guide_pull and normal_increments are no longer called here; they stay
# in this namespace for tracers that wrap bridgesim.bridge.<name>
from .observations import (  # noqa: F401
    ObservationSet,
    channel,
    guide_pull,
)
from .sde import (  # noqa: F401
    Coefficient,
    ModelSpec,
    TimeGrid,
    batch_innermost,
    block_normals,
    check_coefficients,
    diffusion_values,
    dot,
    drift_values,
    matvec,
    normal_increments,
    path_id_array,
    vecmat,
)

# A path is declared blown up once its norm exceeds this multiple of the
# initial scale, or any entry stops being finite.
BLOWUP_FACTOR = 1e8


@dataclass
class BatchPaths:
    """Simulation output for a batch of paths sharing one grid."""

    grid: TimeGrid
    path_ids: np.ndarray                     # int64, else Python ints
    states: np.ndarray                       # (P, M+1, n)
    preclamp: dict[int, np.ndarray] = field(default_factory=dict)
    failed_step: np.ndarray = None           # (P,), -1 where clean
    # full bridges only, per observation k: A = (L a L*)^-1 at the J + 1
    # nodes of window k, (P, J + 1, m, m), the last one at the state
    # before the terminal projection, and log det A at the projected
    # state, (P,); under an array sigma, read-only views of one channel
    precision: Optional[list] = None
    logdet: Optional[list] = None
    # full bridges only, per observation k: L b, the guiding drift b at
    # the left node of each of the J steps of window k seen through L,
    # (P, J, m)
    observed_drift: Optional[list] = None


def _prepare_initial(u, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (dim,):
        raise InvalidConfigurationError(
            f"initial state has shape {u.shape}, expected {(dim,)}")
    if not np.all(np.isfinite(u)):
        raise InvalidConfigurationError("initial state must be finite")
    return u


def _window_step_table(grid: TimeGrid, obs: ObservationSet,
                       cutoff: Optional[float]):
    """Per observation: (first guided step, one past last guided step,
    observation node index, observation)."""
    table = []
    for k, ob in enumerate(obs.items):
        j0 = grid.index_of(ob.time - ob.window)
        j1 = grid.index_of(ob.time)
        if cutoff is None:
            js = j1
        else:
            try:
                js = grid.index_of(ob.time - cutoff)
            except InvalidConfigurationError as exc:
                raise InvalidConfigurationError(
                    f"grid has no node at T_k - epsilon = {ob.time - cutoff!r} "
                    f"for observation {k}") from exc
        table.append((j0, js, j1, ob))
    return table


def _euler(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
           seed: int, path_ids, drift_fn: Coefficient,
           cutoff: Optional[float], validate: bool,
           out: Optional[np.ndarray] = None) -> BatchPaths:
    """Euler-Maruyama with drift ``drift_fn`` plus the pull and terminal
    projection of every observation in ``obs`` (none for free paths);
    ``cutoff`` selects the epsilon cut-off variant."""
    n = model.dim
    u = _prepare_initial(u, n)
    if any(ob.matrix.shape[1] != n for ob in obs.items):
        raise InvalidConfigurationError(
            f"observation matrices must have {n} columns, the model dimension")
    if cutoff is not None and obs.items:
        if not (0.0 < cutoff < obs.min_window):
            raise InvalidConfigurationError(
                "epsilon_cutoff must lie strictly between 0 and the "
                "smallest window length")
    table = _window_step_table(grid, obs, cutoff)
    clamp_nodes = {} if cutoff is not None else {
        j1: k for k, (_, _, j1, _) in enumerate(table)}

    nodes = grid.nodes.tolist()
    m_steps = grid.n_steps
    ids = path_id_array(path_ids)
    p_count = len(ids)
    # every per-chunk array keeps the path axis innermost in memory; the
    # public shapes stay (P, ...)
    paths = (p_count,)
    states = batch_innermost(paths, (m_steps + 1, n)) if out is None else out
    if states.shape != (p_count, m_steps + 1, n) or states.dtype != float:
        raise InvalidConfigurationError("out must be float (P, M+1, n)")
    # each step is formed in one of two compact rows, then stored in its
    # row of ``states``, which may be a strided slice of a larger array
    cur, nxt = batch_innermost(paths, (n,)), batch_innermost(paths, (n,))
    cur[...] = states[:, 0] = u
    # each step's noise is drawn into the row that the step then stores,
    # one (P, n) block read before it is overwritten
    block_normals(seed, ids, m_steps, n, out=states[:, 1:])
    failed = np.full(p_count, -1, dtype=int)
    keep = None  # the paths not failed, once some path has failed
    preclamp: dict[int, np.ndarray] = {}
    cap = BLOWUP_FACTOR * (1.0 + float(np.linalg.norm(u)))
    # the check compares squares; a square that overflows fails it even
    # where the squared cap overflows too
    cap2 = min(cap * cap, np.finfo(float).max)
    # a state whose entries all lie within +-calm has squares of at most
    # cap2 / 4n (1 + eps), so its squared norm cannot reach cap2
    calm = 0.5 * np.sqrt(cap2 / n)
    # each step's terms are formed in these
    term = batch_innermost(paths, (n,))  # a pull, a projection or noise
    resids = [batch_innermost(paths, (ob.m,)) for ob in obs.items]
    # constant sigma: one channel per observation serves the pull at
    # every step and the terminal projection
    sig_c = model.constant_sigma
    channels = None if sig_c is None else \
        [channel(sig_c, ob.matrix) for ob in obs.items]
    # full bridges keep L b and the channel algebra the weights read:
    # under an array sigma as views of the one channel per observation,
    # under a callable sigma filled from the channel behind each pull
    precision = logdet = observed = None
    if clamp_nodes:
        observed = [batch_innermost(paths, (j1 - j0, ob.m))
                    for j0, _, j1, ob in table]
    if clamp_nodes and channels is not None:
        precision = [np.broadcast_to(ch.A, (p_count, j1 - j0 + 1) + ch.A.shape)
                     for ch, (j0, _, j1, _) in zip(channels, table)]
        logdet = [np.full(p_count, ch.logdet) for ch in channels]
    elif clamp_nodes:
        precision = [batch_innermost(paths, (j1 - j0 + 1, ob.m, ob.m))
                     for j0, _, j1, ob in table]
        logdet = [np.empty(p_count) for _ in table]

    def chan(k, sig, node=None):
        """Observation k's channel under the diffusion values ``sig``,
        kept in ``precision`` at window node ``node``."""
        if channels is not None:
            return channels[k]
        ch = channel(sig, obs.items[k].matrix)
        if precision is not None and node is not None:
            precision[k][:, node] = ch.A
        return ch

    # sigma at each node's state, evaluated once: at a projected node it
    # serves both log det A and the next step
    sig = diffusion_values(model.diffusion, nodes[0], cur, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m_steps):
            t = nodes[j]
            dt = nodes[j + 1] - nodes[j]
            b = drift = drift_values(drift_fn, t, cur, n)
            if validate:
                check_coefficients(model, t, sig)
            # nxt = cur + (b - sum of pull / (T_k - t)) dt + noise
            for k, (j0, js, j1, ob) in enumerate(table):
                if j0 <= j < js:
                    if observed is not None:
                        vecmat(b, ob.matrix.T, out=observed[k][:, j - j0])
                    resid = vecmat(cur, ob.matrix.T, out=resids[k])
                    resid -= ob.value
                    pull = chan(k, sig, j - j0).pull(resid, out=term)
                    pull /= nodes[j1] - t
                    drift = np.subtract(drift, pull, out=nxt)
            # the noise drawn into row j + 1 is read before it is stored
            noise = matvec(sig, states[:, j + 1], out=term)
            noise *= np.sqrt(dt)
            np.multiply(drift, dt, out=nxt)
            nxt += cur
            nxt += noise
            # until a path fails, a step within +-calm needs no exact
            # check; a NaN fails both comparisons
            if keep is not None or not (
                    -calm <= nxt.min(initial=np.inf)
                    and nxt.max(initial=-np.inf) <= calm):
                # a non-finite entry fails the exact check too
                within = dot(nxt, nxt) <= cap2
                if keep is not None or not within.all():
                    failed[(failed < 0) & ~within] = j
                    keep = failed < 0
                    np.copyto(nxt, cur, where=~keep[:, None])
            cur, nxt = nxt, cur

            t = nodes[j + 1]
            k0 = clamp_nodes.get(j + 1)
            if k0 is not None:
                ob = obs.items[k0]
                preclamp[k0] = cur.copy(order="K")
                resid = vecmat(cur, ob.matrix.T, out=resids[k0])
                np.subtract(ob.value, resid, out=resid)
                pre_sig = diffusion_values(model.diffusion, t, cur, n)
                move = chan(k0, pre_sig, node=-1).pull(resid, out=term)
                np.add(cur, move, out=cur,
                       where=True if keep is None else keep[:, None])
            states[:, j + 1] = cur
            if j + 1 < m_steps or k0 is not None:
                sig = diffusion_values(model.diffusion, t, cur, n)
            if k0 is not None and channels is None:
                logdet[k0][:] = chan(k0, sig).logdet

    return BatchPaths(grid=grid, path_ids=ids, states=states,
                      preclamp=preclamp, failed_step=failed,
                      precision=precision, logdet=logdet,
                      observed_drift=observed)


def simulate_batch(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
                   seed: int, path_ids, epsilon_cutoff: Optional[float] = None,
                   validate: bool = False,
                   out: Optional[np.ndarray] = None) -> BatchPaths:
    """Euler-Maruyama for a batch of guided bridges.

    Each step adds the guiding pull of every window containing the left
    node (windows are closed on the left, open at the observation time).
    In full-bridge mode the state is projected onto the observed value
    when a step lands on an observation time.  For the weights a full
    bridge keeps, per observation, the unprojected state, the channel
    ``precision`` along the window and its ``logdet`` at the projected
    state, all from the channels behind the pulls and projections, and
    the guiding drift through L along the window, ``observed_drift``.
    Failed paths freeze at their last admissible state and are reported
    through ``failed_step``.  ``out``, a float (P, M+1, n) array of any
    strides, such as a slice of an ensemble's states, becomes the batch's
    ``states`` if given.

    ``epsilon_cutoff`` stops every guiding window a distance epsilon
    before its observation time and disables the terminal projection;
    it serves the study of the cut-off approximation.  With a matching
    (seed, path_id) a cut-off path shares its driving noise with the
    full bridge, so the two coincide up to the first cut-off node.  The
    weights assume the full bridge, so cut-off paths are never weighted
    and keep no ``precision``, ``logdet`` or ``observed_drift``.
    """
    return _euler(model, obs, grid, u, seed, path_ids, model.effective_drift,
                  epsilon_cutoff, validate, out)


def simulate_free_batch(model: ModelSpec, grid: TimeGrid, u, seed: int,
                        path_ids, validate: bool = False) -> BatchPaths:
    """Euler-Maruyama for a batch of unconditioned paths under the full
    drift.  ``failed_step[p]`` is -1 for a clean path, else the step
    index at which the path blew up; a failed path holds its last
    admissible state from there on."""
    return _euler(model, ObservationSet(), grid, u, seed, path_ids,
                  model.drift, None, validate)
