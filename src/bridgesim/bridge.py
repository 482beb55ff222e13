"""Euler-Maruyama simulation: the one integration kernel, used for guided
bridges (observation pull and terminal projection onto each observed
value) and, with no observations and the full drift, for unconditioned
paths."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    InvalidConfigurationError,
    InvalidObservationError,
    NumericalBlowupError,
)
# guide_pull and normal_increments are no longer called here; they stay
# in this namespace for tracers that wrap bridgesim.bridge.<name>
from .observations import (  # noqa: F401
    ChannelRecord,
    ObservationSet,
    channel,
    guide_pull,
)
from .sde import (  # noqa: F401
    Coefficient,
    ModelSpec,
    PathSample,
    TimeGrid,
    block_normals,
    check_coefficients,
    diffusion_values,
    drift_values,
    gram,
    matvec,
    normal_increments,
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
    # full bridges under a callable sigma only
    channel_record: Optional[ChannelRecord] = None
    # bridges only: the guiding drift at each step's left node, (P, M, n)
    drift: Optional[np.ndarray] = None

    def rows(self, mask: np.ndarray) -> "BatchPaths":
        """The paths selected by the boolean ``mask``; the batch itself
        when every path is selected."""
        if mask.all():
            return self
        record = self.channel_record
        return replace(
            self, path_ids=self.path_ids[mask], states=self.states[mask],
            preclamp={k: v[mask] for k, v in self.preclamp.items()},
            failed_step=self.failed_step[mask],
            channel_record=None if record is None else record.rows(mask),
            drift=None if self.drift is None else self.drift[mask])


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
        j0 = grid.window_start_indices[k]
        j1 = grid.obs_indices[k]
        if cutoff is None:
            js = j1
        else:
            try:
                js = grid.index_of(ob.time - cutoff)
            except InvalidConfigurationError as exc:
                raise InvalidConfigurationError(
                    f"grid has no node at T_k - epsilon = {ob.time - cutoff!r} "
                    f"for observation {k}") from exc
            if not j0 <= js <= j1:
                raise InvalidConfigurationError(
                    f"epsilon cutoff leaves the window of observation {k}")
        table.append((j0, js, j1, ob))
    return table


def _euler(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
           seed: int, path_ids, drift_fn: Coefficient,
           cutoff: Optional[float], validate: bool) -> BatchPaths:
    """Euler-Maruyama with drift ``drift_fn`` plus the pull and terminal
    projection of every observation in ``obs`` (none for free paths);
    ``cutoff`` selects the epsilon cut-off variant."""
    n = model.dim
    u = _prepare_initial(u, n)
    if obs.items and not obs.validated:
        raise InvalidObservationError(
            "observation set must be validated before simulation")
    if cutoff is not None and obs.items:
        if not (0.0 < cutoff < obs.min_window):
            raise InvalidConfigurationError(
                "epsilon_cutoff must lie strictly between 0 and the "
                "smallest window length")
    table = _window_step_table(grid, obs, cutoff)
    clamp_nodes = {} if cutoff is not None else {
        grid.obs_indices[k]: k for k in range(len(obs.items))}

    nodes = grid.nodes
    m_steps = grid.n_steps
    ids = [int(p) for p in path_ids]
    try:
        ids = np.array(ids, dtype=np.int64)
    except OverflowError:  # the noise streams take any integer id
        ids = np.array(ids, dtype=object)
    p_count = len(ids)
    xi = block_normals(seed, ids, m_steps, n)
    states = np.empty((p_count, m_steps + 1, n))
    states[:, 0] = u
    failed = np.full(p_count, -1, dtype=int)
    drift = np.empty((p_count, m_steps, n)) if obs.items else None
    preclamp: dict[int, np.ndarray] = {}
    cap = BLOWUP_FACTOR * (1.0 + float(np.linalg.norm(u)))
    cur = np.broadcast_to(u, (p_count, n)).copy()
    # constant sigma: one factorization per observation serves the pull
    # at every step and the terminal projection
    sig_c = model.constant_sigma
    channels = None if sig_c is None else \
        [channel(gram(sig_c), ob.matrix) for ob in obs.items]
    # callable sigma: the factorization behind each pull also yields the
    # precision the weights read at that node; keep it for full bridges
    record = None
    if channels is None and clamp_nodes:
        record = ChannelRecord(
            precision=[np.empty((p_count, j1 - j0 + 1, ob.m, ob.m))
                       for j0, _, j1, ob in table],
            logdet=[np.empty(p_count) for _ in table])

    def chan(k, t, x, sig=None, node=None):
        """Observation k's channel at time t and states x, kept in the
        record at window node ``node``."""
        if channels is not None:
            return channels[k]
        if sig is None:
            sig = diffusion_values(model.diffusion, t, x, n)
        ch = channel(gram(sig), obs.items[k].matrix)
        if record is not None and node is not None:
            record.precision[k][:, node] = ch.A
        return ch

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m_steps):
            t = nodes[j]
            dt = nodes[j + 1] - nodes[j]
            b = drift_values(drift_fn, t, cur, n)
            if drift is not None:
                drift[:, j] = b
            sig = diffusion_values(model.diffusion, t, cur, n)
            if validate:
                check_coefficients(model, t, cur, sig)
            total = b
            for k, (j0, js, j1, ob) in enumerate(table):
                if j0 <= j < js:
                    resid = vecmat(cur, ob.matrix.T) - ob.value
                    ch = chan(k, t, cur, sig, j - j0)
                    total = total - ch.pull(resid) / (nodes[j1] - t)
            nxt = cur + total * dt + matvec(sig, xi[:, j]) * np.sqrt(dt)
            # a non-finite entry fails the comparison too
            bad = (failed < 0) & ~(np.linalg.norm(nxt, axis=1) <= cap)
            failed[bad] = j
            keep = failed < 0
            cur = np.where(keep[:, None], nxt, cur)

            k0 = clamp_nodes.get(j + 1)
            if k0 is not None:
                ob = obs.items[k0]
                preclamp[k0] = cur.copy()
                resid = ob.value - vecmat(cur, ob.matrix.T)
                move = chan(k0, nodes[j + 1], cur, node=-1).pull(resid)
                cur = np.where(keep[:, None], cur + move, cur)
                if record is not None:
                    record.logdet[k0][:] = chan(k0, nodes[j + 1], cur).logdet
            states[:, j + 1] = cur

    return BatchPaths(grid=grid, path_ids=ids, states=states,
                      preclamp=preclamp, failed_step=failed,
                      channel_record=record, drift=drift)


def _single_path(batch: BatchPaths, path_id: int) -> PathSample:
    """The one path of a single-path batch; raises if it blew up."""
    step = int(batch.failed_step[0])
    if step >= 0:
        raise NumericalBlowupError(
            f"path {path_id} blew up at step {step} "
            f"(t={batch.grid.nodes[step]:.6g})", step_index=step)
    return PathSample(
        grid=batch.grid, states=batch.states[0], seed_id=int(path_id),
        preclamp={k: v[0] for k, v in batch.preclamp.items()})


def simulate_batch(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
                   seed: int, path_ids, epsilon_cutoff: Optional[float] = None,
                   validate: bool = False) -> BatchPaths:
    """Euler-Maruyama for a batch of guided bridges.

    Each step adds the guiding pull of every window containing the left
    node (windows are closed on the left, open at the observation time).
    In full-bridge mode the state is projected onto the observed value
    when a step lands on an observation time; the unprojected state is
    retained per observation for the weight computation, as is, under
    a callable sigma, the channel record of the factorizations behind
    the pulls and projections.  Failed paths freeze at their last
    admissible state and are reported through ``failed_step``.

    ``epsilon_cutoff`` stops every guiding window a distance epsilon
    before its observation time and disables the terminal projection;
    it serves the study of the cut-off approximation.  With a matching
    (seed, path_id) a cut-off path shares its driving noise with the
    full bridge, so the two coincide up to the first cut-off node.  The
    weights assume the full bridge, so cut-off paths are never weighted.
    """
    return _euler(model, obs, grid, u, seed, path_ids, model.effective_drift,
                  epsilon_cutoff, validate)


def simulate_bridge(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
                    seed: int, path_id: int,
                    epsilon_cutoff: Optional[float] = None,
                    validate: bool = False) -> PathSample:
    """Simulate one guided bridge path; the returned path satisfies
    L y(T_k) = v_k exactly at every observation unless
    ``epsilon_cutoff`` selects the cut-off variant."""
    return _single_path(simulate_batch(
        model, obs, grid, u, seed, [path_id], epsilon_cutoff=epsilon_cutoff,
        validate=validate), path_id)


def simulate_free_batch(model: ModelSpec, grid: TimeGrid, u, seed: int,
                        path_ids, validate: bool = False) -> BatchPaths:
    """Euler-Maruyama for a batch of unconditioned paths under the full
    drift.  ``failed_step[p]`` is -1 for a clean path, else the step
    index at which the path blew up; a failed path holds its last
    admissible state from there on."""
    return _euler(model, ObservationSet(), grid, u, seed, path_ids,
                  model.drift, None, validate)


def simulate_unconditioned(model: ModelSpec, grid: TimeGrid, u, seed: int,
                           path_id: int, validate: bool = False) -> PathSample:
    """Simulate one unconditioned path; raises on numerical blowup."""
    return _single_path(simulate_free_batch(model, grid, u, seed, [path_id],
                                            validate=validate), path_id)
