"""Euler-Maruyama simulation: the one integration kernel, used for guided
bridges (observation pull and terminal projection onto each observed
value), whose weight terms it sums as it steps, and, with no
observations and the full drift, for unconditioned paths."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    check_coefficients,
    diffusion_values,
    dot,
    drift_values,
    integer,
    matvec,
    noise_drawer,
    normal_increments,
    path_id_array,
    vecmat,
)

# A path is declared blown up once its norm exceeds this multiple of the
# initial scale, or any entry stops being finite.
BLOWUP_FACTOR = 1e8
# Steps per noise draw; a draw in slices has the bits of one draw.
NOISE_SLICE = 16

TERM_NAMES = ("log_eta", "boundary", "drift_term", "dA_term", "covar_term")
# the order of a row's issues within one observation
_ISSUE_ORDER = ("boundary", "drift_term", "dA_term", "covar_term", "log_eta")


@dataclass
class BatchPaths:
    """Simulation output for a batch of paths sharing one grid."""

    grid: TimeGrid
    path_ids: np.ndarray                     # int64, else Python ints
    states: np.ndarray                       # (P, stored nodes, n)
    preclamp: dict[int, np.ndarray] = field(default_factory=dict)
    failed_step: np.ndarray = None           # (P,), -1 where clean
    # full bridges only: each term of TERM_NAMES, (P, K), and girsanov,
    # (P,), and the (row, term, observation, step) of non-finite terms
    terms: Optional[dict] = None
    issues: Optional[list] = None


class _Terms:
    """A chunk's weight terms, summed piece by piece as the kernel steps,
    with the step at which each row's sum of a term first turned
    non-finite."""

    def __init__(self, p_count: int, n_obs: int):
        # column k of each (P, K) array is one contiguous run
        self.arrays = {name: np.zeros((n_obs, p_count)).T
                       for name in TERM_NAMES}
        self.arrays["girsanov"] = np.zeros(p_count)
        self.first: dict[tuple, np.ndarray] = {}

    def add(self, name: str, k: int, piece, step: Optional[int]) -> None:
        """Add the pieces of grid step ``step`` (None for a per-path
        term) to observation ``k``'s term ``name`` (-1: girsanov)."""
        acc = self.arrays[name] if k < 0 else self.arrays[name][:, k]
        acc += piece
        # a non-finite sum never turns finite again, and makes the
        # column's sum non-finite
        if not math.isfinite(acc.sum()):
            # -2 where the sum is finite, -1 for a per-path term
            first = self.first.setdefault((name, k), np.full(len(acc), -2))
            first[(first == -2) & ~np.isfinite(acc)] = \
                -1 if step is None else step

    def issues(self) -> list:
        """``(row, term, observation, step)`` of each non-finite sum."""
        keys = [(name, k) for k in range(self.arrays["log_eta"].shape[1])
                for name in _ISSUE_ORDER] + [("girsanov", -1)]
        found = []
        for key in filter(self.first.__contains__, keys):
            first = self.first[key]
            found += [(int(r), *key, None if first[r] < 0 else int(first[r]))
                      for r in np.flatnonzero(first > -2)]
        return found


def _euler(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
           seed: int, path_ids, drift_fn: Coefficient,
           cutoff: Optional[float], validate: bool, weigh: bool,
           out: Optional[np.ndarray], nodes: Optional[list]) -> BatchPaths:
    """Euler-Maruyama with drift ``drift_fn`` plus the pull and terminal
    projection of every observation in ``obs`` (none for free paths);
    ``cutoff`` selects the epsilon cut-off variant, ``weigh`` sums the
    weight terms of full bridges, and the grid ``nodes`` are stored."""
    n = model.dim
    u = np.asarray(u, dtype=float)
    if u.shape != (n,) or not np.all(np.isfinite(u)):
        raise InvalidConfigurationError(
            f"initial state must be {n} finite numbers, got shape {u.shape}")
    if any(ob.matrix.shape[1] != n for ob in obs.items):
        raise InvalidConfigurationError(
            f"observation matrices must have {n} columns, the model dimension")
    if cutoff is not None and obs.items:
        if not (0.0 < cutoff < obs.min_window):
            raise InvalidConfigurationError(
                "epsilon_cutoff must lie strictly between 0 and the "
                "smallest window length")

    times = grid.nodes.tolist()
    m_steps = grid.n_steps
    stored = range(m_steps + 1) if nodes is None else \
        [integer(j, "nodes must be increasing node indices") for j in nodes]
    row = dict(zip(stored, range(len(stored))))  # of states, per node
    if sorted(row) != list(stored) or not set(row) <= set(range(m_steps + 1)):
        raise InvalidConfigurationError("nodes must be increasing node indices")
    # per step, the observation whose window holds it, and per node, the
    # one projected there; window k opens at T_k - w_k but no earlier
    # than the node of T_{k-1}, as ObservationSet keeps it, so at most
    # one window is open at any step of any grid
    guided, projected = [None] * m_steps, [None] * (m_steps + 1)
    j1, ends = 0, []  # each observation's node
    for k, ob in enumerate(obs.items):
        j0 = max(grid.index_of(ob.time - ob.window), j1)
        j1 = js = grid.index_of(ob.time)
        ends.append(j1)
        if cutoff is None:
            projected[js] = k
        else:
            try:
                js = grid.index_of(ob.time - cutoff)
            except InvalidConfigurationError as exc:
                raise InvalidConfigurationError(
                    f"grid has no node at T_k - epsilon = {ob.time - cutoff!r} "
                    f"for observation {k}") from exc
        guided[j0:js] = [k] * (js - j0)

    ids = path_id_array(path_ids)
    p_count = len(ids)
    # every per-chunk array keeps the path axis innermost in memory; the
    # public shapes stay (P, ...)
    paths = (p_count,)
    states = batch_innermost(paths, (len(stored), n)) if out is None else out
    if states.shape != (p_count, len(stored), n) or states.dtype != float:
        raise InvalidConfigurationError("out must be float (P, nodes, n)")
    # each step is formed in one of two compact rows, then stored in its
    # row of ``states``, which may be a strided slice of a larger array
    cur, nxt = batch_innermost(paths, (n,)), batch_innermost(paths, (n,))
    cur[...] = u
    if 0 in row:
        states[:, 0] = u
    # NOISE_SLICE steps of noise at a time: into the state rows that they
    # store, each read first, or into one buffer if a node goes unstored
    draw = noise_drawer(seed, ids, n)
    slab = None if len(stored) == m_steps + 1 else \
        batch_innermost(paths, (min(NOISE_SLICE, m_steps), n))
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

    def check(new, old, j):
        """Fail at step ``j`` the rows of ``new`` that blew up, and
        freeze every failed row at its state in ``old``."""
        nonlocal keep
        # until a path fails, a state within +-calm needs no exact
        # check; a NaN fails both comparisons
        if keep is None and -calm <= new.min(initial=np.inf) \
                and new.max(initial=-np.inf) <= calm:
            return
        # a non-finite entry fails the exact check too
        within = dot(new, new) <= cap2
        if keep is not None or not within.all():
            failed[(failed < 0) & ~within] = j
            keep = failed < 0
            np.copyto(new, old, where=~keep[:, None])

    # each step's terms are formed in these
    term = batch_innermost(paths, (n,))  # a pull, a projection or noise
    # constant sigma: one channel per observation serves the pull at
    # every step and the terminal projection
    sig_c = model.constant_sigma
    channels = None if sig_c is None else \
        [channel(sig_c, ob.matrix) for ob in obs.items]

    def chan(k, sig):
        return channel(sig, obs.items[k].matrix) if channels is None \
            else channels[k]

    terms = _Terms(p_count, len(obs.items)) if weigh else None
    # the open window's end time, the buffer its next residual fills,
    # and its residual L z - v and precision A at the previous window
    # node, set when it opens
    t_end = spare = kept = prec = None

    def variation(k, i, r, A):
        """Add the dA and covar pieces of step ``i``, from window node i
        (kept) to i + 1 (residual ``r``, precision ``A``); under a
        constant sigma they are exactly 0."""
        if channels is not None:
            return
        r0, dA = kept, A - prec
        denom = -2.0 * (t_end - times[i])
        qa = dot(vecmat(r0, dA), r0)
        qa /= denom
        terms.add("dA_term", k, qa, i)
        # dA : d(r r*), one entry at a time
        qc = np.zeros(p_count)
        for a, c in np.ndindex(dA.shape[-2:]):
            dr = r[:, a] * r[:, c]
            dr -= r0[:, a] * r0[:, c]
            dr *= dA[..., a, c]
            qc += dr
        qc /= denom
        terms.add("covar_term", k, qc, i)

    # the Girsanov term of b_check = drift - guided_drift: each step adds
    # x . dy - 0.5 (x . b_check) dt with x = b_check a^-1, where a^-1 is
    # the channel precision of the full observation L = I
    split = weigh and model.guided_drift is not None
    eye = np.eye(n)
    a_inv = None if sig_c is None or not split else channel(sig_c, eye).A

    # sigma at each node's state, evaluated once: at a projected node it
    # serves both log det A and the next step
    sig = diffusion_values(model.diffusion, times[0], cur, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m_steps):
            if j % NOISE_SLICE == 0:
                size = min(NOISE_SLICE, m_steps - j)
                xi = (states[:, j + 1:] if slab is None else slab)[:, :size]
                draw(xi.transpose(1, 2, 0))
            t = times[j]
            dt = times[j + 1] - times[j]
            b = drift = drift_values(drift_fn, t, cur, n)
            if validate:
                check_coefficients(model, t, sig)
            if split:
                bc = drift_values(model.drift, t, cur, n) - b
                x = vecmat(bc, channel(sig, eye).A if a_inv is None else a_inv)
                half = dot(x, bc)
                half *= 0.5
                half *= dt
            # nxt = cur + (b - pull / (T_k - t)) dt + noise
            k = guided[j]
            if k is not None:
                ob = obs.items[k]
                if opens := j == 0 or guided[j - 1] != k:
                    t_end = times[ends[k]]
                    spare, kept = (batch_innermost(paths, (ob.m,))
                                   for _ in range(2))
                resid = vecmat(cur, ob.matrix.T, out=spare)
                resid -= ob.value
                ch = chan(k, sig)
                pull = ch.pull(resid, out=term)
                pull /= t_end - t
                drift = np.subtract(drift, pull, out=nxt)
                if weigh:
                    rA = vecmat(resid, ch.A)
                    if opens:
                        q = dot(rA, resid)
                        q /= -2.0 * ob.window
                        terms.add("boundary", k, q, None)
                    else:
                        variation(k, j - 1, resid, ch.A)
                    q = dot(rA, vecmat(b, ob.matrix.T))
                    q *= -dt
                    q /= t_end - t
                    terms.add("drift_term", k, q, j)
                    spare, kept, prec = kept, resid, ch.A
            noise = matvec(sig, xi[:, j % NOISE_SLICE], out=term)
            noise *= np.sqrt(dt)
            np.multiply(drift, dt, out=nxt)
            nxt += cur
            nxt += noise
            check(nxt, cur, j)
            cur, nxt = nxt, cur

            t = times[j + 1]
            k0 = projected[j + 1]
            if k0 is not None:
                # the state before the projection ends the window's
                # terms, if the step into it was in the window
                ob = obs.items[k0]
                preclamp[k0] = cur.copy(order="K")
                lz = vecmat(cur, ob.matrix.T)
                to_value = ob.value - lz
                lz -= ob.value
                ch = chan(k0, diffusion_values(model.diffusion, t, cur, n))
                if guided[j] == k0:
                    variation(k0, j, lz, ch.A)
                cur += ch.pull(to_value, out=term)
                # an overflowing L a L* makes a projected state NaN; the
                # check also puts back every row failed before
                check(cur, nxt, j)
            if j + 1 in row:
                states[:, row[j + 1]] = cur
            if split:
                # nxt still holds the state of node j
                g = dot(x, np.subtract(cur, nxt, out=term))
                g -= half
                terms.add("girsanov", -1, g, j)
            if j + 1 < m_steps or k0 is not None:
                sig = diffusion_values(model.diffusion, t, cur, n)
            if k0 is not None:
                terms.add("log_eta", k0, 0.5 * chan(k0, sig).logdet, None)

    return BatchPaths(grid=grid, path_ids=ids, states=states,
                      preclamp=preclamp, failed_step=failed,
                      terms=None if terms is None else terms.arrays,
                      issues=None if terms is None else terms.issues())


def simulate_batch(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
                   seed: int, path_ids, epsilon_cutoff: Optional[float] = None,
                   validate: bool = False, out: Optional[np.ndarray] = None,
                   nodes: Optional[Sequence[int]] = None) -> BatchPaths:
    """Euler-Maruyama for a batch of guided bridges.

    Each step adds the guiding pull of every window containing the left
    node (windows are closed on the left, open at the observation time).
    In full-bridge mode the state is projected onto the observed value
    when a step lands on an observation time, and the batch carries,
    per observation, the state before that projection (``preclamp``)
    and its weight ``terms`` and ``issues`` (see
    :func:`bridgesim.weights.batch_breakdown`), summed as it steps from
    the drift, sigma and channels that the steps evaluate.
    Failed paths freeze at their last admissible state and are reported
    through ``failed_step``.  The batch's ``states`` hold the grid
    ``nodes`` (increasing indices, every node by default), (P, nodes, n);
    ``out``, a float array of that shape and any strides, such as a
    slice of an ensemble's states, becomes them if given.

    ``epsilon_cutoff`` stops every guiding window a distance epsilon
    before its observation time and disables the terminal projection;
    it serves the study of the cut-off approximation.  With a matching
    (seed, path_id) a cut-off path shares its driving noise with the
    full bridge, so the two coincide up to the first cut-off node.  The
    weights assume the full bridge, so cut-off paths are never weighted
    and carry no ``terms``.
    """
    return _euler(model, obs, grid, u, seed, path_ids, model.effective_drift,
                  epsilon_cutoff, validate, epsilon_cutoff is None, out, nodes)


def simulate_free_batch(model: ModelSpec, grid: TimeGrid, u, seed: int,
                        path_ids, validate: bool = False) -> BatchPaths:
    """Euler-Maruyama for a batch of unconditioned paths under the full
    drift.  ``failed_step[p]`` is -1 for a clean path, else the step
    index at which the path blew up; a failed path holds its last
    admissible state from there on."""
    return _euler(model, ObservationSet(), grid, u, seed, path_ids,
                  model.drift, None, validate, False, None, None)
