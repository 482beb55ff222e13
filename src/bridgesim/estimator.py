"""Self-normalized importance-sampling ensembles and estimates."""
from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .bridge import TERM_NAMES, simulate_batch
from .errors import InvalidConfigurationError, UnstableRunError
from .observations import ObservationSet
from .sde import (NOISE_BLOCK, ModelSpec, PathSample, TimeGrid,
                  batch_innermost, integer)
from .weights import batch_breakdown, normalize_log_weights

# The cap on a chunk, which bounds its working set; ``_chunk_rows`` sizes
# each run's chunks, and a path's bits depend on neither size nor workers.
CHUNK_SIZE = 8192

FAILURE_CEILING = 0.01


@dataclass
class WeightedEnsemble:
    """Bridge paths with per-path log-weights and term breakdowns.

    ``states`` stacks the retained (non-failed) paths; ``breakdown``
    maps each weight term to a (K, N_obs) array plus ``girsanov`` (K,).
    """

    grid: TimeGrid
    states: np.ndarray
    path_ids: np.ndarray
    log_weights: np.ndarray
    breakdown: dict[str, np.ndarray]
    preclamp: dict[int, np.ndarray]
    n_failed: int

    @property
    def size(self) -> int:
        return len(self.path_ids)

    def state_at(self, time: float) -> np.ndarray:
        """Every retained path's state at grid time ``time``, (K, n)."""
        return self.states[:, self.grid.index_of(time)]

    @property
    def paths(self) -> Iterator[PathSample]:
        """The retained paths as ``PathSample``s, built while iterated;
        no estimate reads them, only ``perfbench/make_reference.py``."""
        return (PathSample(self.grid, self.states[i], int(self.path_ids[i]))
                for i in range(self.size))


@dataclass(frozen=True)
class EstimateReport:
    """A self-normalized estimate with its standard error."""

    value: np.ndarray
    std_error: np.ndarray
    ess: float
    n_paths: int
    n_failed: int


@dataclass(frozen=True)
class MomentEstimate:
    """Conditional mean and variance of a scalar functional."""

    mean: float
    mean_se: float
    var: float
    var_se: float
    ess: float


# ---------------------------------------------------------------------------
# worker processes

def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int, n_paths: int) -> int:
    """Worker processes to fork for ``n_paths`` paths: at most
    ``threads``, the usable CPUs and one per 2048 paths (or per cap, if
    lower).  1 means the chunks run in the calling process, as they do
    where ``os.fork`` is missing."""
    most = min(threads, -(-n_paths // min(CHUNK_SIZE, 2048)))
    if most <= 1 or not hasattr(os, "fork"):
        return 1
    return min(most, _usable_cpus())


def _chunk_rows(n_paths: int, n_workers: int) -> int:
    """Paths per chunk: all of them at one worker, and at least two
    chunks per worker when forking, rounded up to whole noise blocks,
    then held between 2048 and ``CHUNK_SIZE``, the cap winning."""
    rows = -(-n_paths // (2 * n_workers)) if n_workers > 1 else n_paths
    return min(CHUNK_SIZE, max(2048, -(-rows // NOISE_BLOCK) * NOISE_BLOCK))


def _pickled(work: Callable, index: int) -> bytes:
    """``(True, work(index))`` pickled, else ``(False, its exception)``,
    as a RuntimeError of its type and message if it cannot be rebuilt."""
    try:
        return pickle.dumps((True, work(index)), -1)
    except BaseException as exc:
        try:
            return pickle.dumps((False, pickle.loads(pickle.dumps(exc))), -1)
        except Exception:
            return pickle.dumps((False, RuntimeError(
                f"{type(exc).__qualname__}: {exc}")), -1)


def _map_in_workers(work: Callable, n_chunks: int, n_workers: int):
    """``work(i) for i in range(n_chunks)`` in chunk order, over forked
    workers, which fork hands the ``work`` closure (models may hold
    lambdas) unpickled.  Worker ``w`` runs chunks ``w, w + W, ...`` and
    sends each result down its own pipe, read in chunk order: the parent
    holds one result at a time.  A worker's exception, or a pipe that
    closes early, is raised here; every worker is killed and reaped."""
    pids, pipes = [], []
    try:
        for w in range(n_workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            # the parent closes its write end here, also if fork raises
            with open(write, "wb") as out:
                if (pid := os.fork()) == 0:
                    try:
                        for pipe in pipes:
                            os.close(pipe.fileno())
                        for index in range(w, n_chunks, n_workers):
                            out.write(_pickled(work, index))
                            out.flush()
                    finally:  # past the parent's exit handlers and buffers
                        os._exit(0)
            pids.append(pid)
        for index in range(n_chunks):
            try:
                ok, value = pickle.load(pipes[index % n_workers])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"a worker ended before chunk {index}") \
                    from None
            if not ok:
                raise value
            yield value
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _ensemble(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
              n_paths: int, seed: int, threads: int, validate: bool,
              nodes: Optional[list] = None, emit: Optional[Callable] = None,
              sink: Optional[Callable] = None) -> tuple[dict, int]:
    """Simulate and weight ``n_paths`` bridges chunk by chunk and merge
    each chunk's retained rows, in chunk order, into one array per key;
    returns those arrays and the count of failed paths.

    A chunk stores the grid ``nodes`` (all by default).  Its rows are its
    retained paths' ``path_ids``, ``log_weights``, every weight term and
    ``("preclamp", k)``; each chunk simulates into its rows of the one
    ``states`` array, which sheds failed rows as the chunks merge.
    ``emit(rows)``, given the chunk's own ``states`` too, runs in the
    process that weighted the chunk, a forked worker when there are
    several, and returns the rows to merge and a payload that ``sink``
    receives in chunk order; it replaces ``states``.  After the last
    chunk, raises ``UnstableRunError`` if over 1% of paths failed.
    """
    integer(seed, "seed must be an integer")  # before any worker forks
    for name, value in (("n_paths", n_paths), ("threads", threads)):
        integer(value, f"{name} must be >= 1", least=1)

    # chunk i holds path ids [starts[i], stop(i))
    n_workers = _worker_count(threads, n_paths)
    per_chunk = _chunk_rows(n_paths, n_workers)
    starts = range(0, n_paths, per_chunk)
    shape = (grid.n_steps + 1 if nodes is None else len(nodes), model.dim,
             n_paths)
    if emit:
        states = None
    elif n_workers > 1:  # forked workers write into a shared mapping
        import mmap
        states = np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape)))
                               ).reshape(shape).transpose(2, 0, 1)
    else:
        states = batch_innermost((n_paths,), shape[:2])

    def stop(index: int) -> int:
        return min(starts[index] + per_chunk, n_paths)

    def work(index: int):
        ids = np.arange(starts[index], stop(index))
        sim = simulate_batch(
            model, obs, grid, u, seed, ids, validate=validate, nodes=nodes,
            out=None if states is None else states[ids[0]:ids[-1] + 1])
        # a row's terms do not depend on the other rows, so the failed
        # paths are weighted with the rest and dropped afterwards
        terms, issues = batch_breakdown(model, obs, sim)
        ok = sim.failed_step < 0
        for row, _, _, _ in issues:
            ok[row] = False
        pick = slice(None) if ok.all() else ok
        rows = {"path_ids": sim.path_ids[pick]}
        if states is None:
            rows["states"] = sim.states[pick]
        rows.update({name: arr[pick] for name, arr in terms.items()})
        rows["log_weights"] = np.asarray(
            sum(rows[name].sum(axis=1) for name in TERM_NAMES)
            + rows["girsanov"], dtype=float)
        rows.update({("preclamp", k): v[pick]
                     for k, v in sim.preclamp.items()})
        return emit(rows) if emit else (rows, None)

    results = _map_in_workers(work, len(starts), n_workers) \
        if n_workers > 1 else (work(i) for i in range(len(starts)))
    # each chunk's rows are copied into place as it arrives and dropped
    # before the next chunk is read, so one chunk's result at most is held
    merged: dict = {} if states is None else {"states": states}
    size = 0
    try:
        for index, (rows, emitted) in enumerate(results):
            if sink:
                sink(emitted)
            count = len(rows["log_weights"])
            for key, arr in rows.items():
                if key not in merged:
                    merged[key] = batch_innermost((n_paths,), arr.shape[1:],
                                                  arr.dtype)
                merged[key][size:size + count] = arr
            if states is not None and size + count < stop(index):
                # a path's row is its id; a node at a time keeps copies small
                for j in range(states.shape[1]):
                    states[size:size + count, j] = states[rows["path_ids"], j]
            size += count
            del rows, emitted
    finally:  # an abandoned run's workers stop now, not when freed
        results.close()
    n_failed = n_paths - size
    if n_failed > FAILURE_CEILING * n_paths:
        raise UnstableRunError(
            f"{n_failed} of {n_paths} paths failed, above the "
            f"{FAILURE_CEILING:.0%} ceiling")

    return {key: arr[:size] for key, arr in merged.items()}, n_failed


def run_ensemble(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
                 n_paths: int, seed: int, *, threads: int = 1,
                 validate: bool = False) -> WeightedEnsemble:
    """Simulate and weight ``n_paths`` independent bridges.

    Work proceeds in chunks of path indices.  With ``threads > 1`` the
    chunks run in up to that many forked worker processes, never more
    than one per 2048 paths or the usable CPUs; each run sizes its chunks
    from the workers it uses (``_chunk_rows``).  Neither changes any
    result.  One worker, or a platform without ``os.fork``, runs the
    chunks in this process.  Failed paths are dropped and
    counted, and the run aborts once more than 1% of paths fail.
    """
    rows, n_failed = _ensemble(model, obs, grid, u, n_paths, seed, threads,
                               validate)
    return WeightedEnsemble(
        grid=grid, states=rows["states"], path_ids=rows["path_ids"],
        log_weights=rows["log_weights"],
        breakdown={name: rows[name] for name in (*TERM_NAMES, "girsanov")},
        preclamp={k: rows["preclamp", k] for k in range(len(obs.items))},
        n_failed=n_failed)


# ---------------------------------------------------------------------------
# estimation

def weighted_mean_se(weights: np.ndarray, fvals: np.ndarray):
    """Self-normalized mean and standard error along axis 0: pairwise
    sums along the paths of one C-order (d, K) copy, with no BLAS call,
    so neither the layout of ``fvals`` nor BLAS threads move a bit.
    Each column is summed about its first value, so a column that is
    the same on every path reads that value with SE 0."""
    fvals = np.asarray(fvals, dtype=float)
    # np.array always copies, so writing in place below spares fvals
    cols = np.array(fvals.reshape(len(weights), -1).T, order="C")
    first = cols[:, :1].copy()
    cols -= first
    value = np.sum(cols * weights, axis=-1)
    # w^2 (f - value)^2 in the one (d, K) buffer
    cols -= value[:, None]
    cols *= cols
    cols *= weights * weights
    se = np.sqrt(np.sum(cols, axis=-1))
    value += first[:, 0]
    return value.reshape(fvals.shape[1:]), se.reshape(fvals.shape[1:])


def _values(ensemble: WeightedEnsemble, f, scalar=False) -> np.ndarray:
    """``f(ensemble)`` as (K, q), one row per path; q = 1 if ``scalar``."""
    k = ensemble.size
    values = np.asarray(f(ensemble), dtype=float)
    if values.ndim not in (1, 2) or len(values) != k or (
            scalar and values.size != k):
        raise InvalidConfigurationError(
            f"a functional f(ensemble) returns one row per retained path, "
            f"({k},) or ({k}, {1 if scalar else 'q'}), not {values.shape}")
    return values.reshape(k, -1)


def estimate(ensemble: WeightedEnsemble, f) -> EstimateReport:
    """Estimate E[f | observations] from a weighted ensemble.

    ``f(ensemble)`` returns one row per retained path, ``(K,)`` or
    ``(K, q)``; the report has a value and SE per column.
    """
    # an empty ensemble fails here, before f is called
    weights, _, ess = normalize_log_weights(ensemble.log_weights)
    fvals = _values(ensemble, f)
    value, se = weighted_mean_se(weights, fvals)
    return EstimateReport(value=value, std_error=se, ess=ess,
                          n_paths=ensemble.size, n_failed=ensemble.n_failed)


def conditional_moments(ensemble: WeightedEnsemble, f) -> MomentEstimate:
    """Conditional mean and variance of a one-value-per-path functional.

    The variance estimate is the weighted second moment about the
    estimated mean; its standard error treats the mean as fixed.
    """
    weights, _, ess = normalize_log_weights(ensemble.log_weights)
    return _moments(weights, _values(ensemble, f, scalar=True), ess)


def _moments(weights: np.ndarray, fv: np.ndarray,
             ess: float) -> MomentEstimate:
    """Mean and variance of the one-column values ``fv`` under the
    normalized ``weights``: the one formula behind
    ``conditional_moments`` and ``bridgesim run``'s estimates."""
    mean, mean_se = weighted_mean_se(weights, fv)
    var, var_se = weighted_mean_se(weights, (fv - mean) ** 2)
    return MomentEstimate(mean=mean.item(), mean_se=mean_se.item(),
                          var=var.item(), var_se=var_se.item(), ess=ess)


@dataclass(frozen=True)
class CoordinateAt:
    """Coordinate ``index`` at grid time ``time`` of every path of an
    ensemble, a view of its states."""

    time: float
    index: int

    def __call__(self, ens: WeightedEnsemble) -> np.ndarray:
        return ens.state_at(self.time)[:, self.index]


coordinate_at = CoordinateAt
