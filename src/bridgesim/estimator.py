"""Self-normalized importance-sampling ensembles and estimates."""
from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .bridge import simulate_batch
from .errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    UnstableRunError,
)
from .observations import ObservationSet
from .sde import ModelSpec, PathSample, TimeGrid
from .weights import TERM_NAMES, batch_breakdown, normalize_log_weights

# Paths are simulated and weighted this many at a time; a path's bits
# depend on neither the chunk size nor the worker count.
CHUNK_SIZE = 1024

FAILURE_CEILING = 0.01


@dataclass
class WeightedEnsemble:
    """Bridge paths with per-path log-weights and term breakdowns.

    ``states`` stacks the retained (non-failed) paths; ``breakdown``
    maps each weight term to a (K, N_obs) array plus ``girsanov`` (K,).
    ``kept_nodes`` lists a thinned ensemble's grid nodes, else None.
    """

    grid: TimeGrid
    states: np.ndarray
    path_ids: np.ndarray
    log_weights: np.ndarray
    breakdown: dict[str, np.ndarray]
    preclamp: dict[int, np.ndarray]
    n_failed: int
    kept_nodes: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.path_ids)

    def _thinned(self, need: str) -> InvalidConfigurationError:
        kept = self.grid.nodes[self.kept_nodes].tolist()
        return InvalidConfigurationError(
            f"{need}, but the ensemble kept only times {kept}")

    def state_at(self, time: float) -> np.ndarray:
        """Every retained path's state at grid time ``time``, (K, n)."""
        node = self.grid.index_of(time)
        if self.kept_nodes is not None:
            if node not in self.kept_nodes:
                raise self._thinned(f"time {time!r} was not kept")
            node = int(np.searchsorted(self.kept_nodes, node))
        return self.states[:, node]

    @property
    def paths(self) -> Iterator[PathSample]:
        """The retained paths, built as ``PathSample``s while iterated."""
        if self.kept_nodes is not None:
            raise self._thinned("a per-path functional needs every node")
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


def _worker_count(threads: int, n_chunks: int) -> int:
    """Worker processes to fork for ``n_chunks`` chunks: at most
    ``threads``, the chunk count and the usable CPUs.  1 means the chunks
    run in the calling process, as they do where ``fork`` is missing.
    A one-worker run never imports ``multiprocessing``."""
    if min(threads, n_chunks) <= 1:
        return 1
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(threads, n_chunks, _usable_cpus())


# Set by the pool initializer in each forked worker, never in the caller,
# so concurrent runs in one process do not share it.
_chunk_work: Optional[Callable] = None


def _install_work(work: Callable) -> None:
    global _chunk_work
    _chunk_work = work


def _run_chunk(index: int):
    try:
        return _chunk_work(index)
    except BaseException as exc:
        # An exception the parent cannot rebuild would break the pool;
        # send its type and message in one that it can.
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(
                f"{type(exc).__qualname__}: {exc}") from exc
        raise


def _map_in_workers(work: Callable, n_chunks: int, n_workers: int):
    """``work(i) for i in range(n_chunks)`` over forked workers.

    Fork hands each worker the ``work`` closure (models may hold lambdas)
    without pickling it; workers receive chunk indices and send back
    each chunk's arrays, which are yielded in chunk order.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            n_workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_install_work, initargs=(work,)) as pool:
        yield from pool.map(_run_chunk, range(n_chunks))


def run_ensemble(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
                 n_paths: int, seed: int, *, threads: int = 1,
                 validate: bool = False,
                 keep_times: Optional[Sequence[float]] = None
                 ) -> WeightedEnsemble:
    """Simulate and weight ``n_paths`` independent bridges.

    Work proceeds in fixed-size chunks of path indices.  With
    ``threads > 1`` the chunks run in up to that many forked worker
    processes (never more than the chunks or the usable CPUs); the count
    only schedules chunks and never changes any result.  One worker, one
    chunk, or a platform without the ``fork`` start method runs the
    chunks in this process.  Failed paths are dropped and counted, and
    the run aborts once more than 1% of paths fail.
    ``keep_times`` keeps only those grid times' states of each weighted
    chunk; only array functionals read such a thinned ensemble.
    """
    if n_paths < 1:
        raise InvalidConfigurationError("n_paths must be >= 1")
    if threads < 1:
        raise InvalidConfigurationError("threads must be >= 1")

    chunks = [np.arange(s, min(s + CHUNK_SIZE, n_paths))
              for s in range(0, n_paths, CHUNK_SIZE)]
    kept = None if keep_times is None else np.unique(
        np.array([grid.index_of(t) for t in keep_times], dtype=np.intp))

    def work(index: int):
        ids = chunks[index]
        sim = simulate_batch(model, obs, grid, u, seed, ids,
                             validate=validate)
        # a row's terms do not depend on the other rows, so the failed
        # paths are weighted with the rest and dropped afterwards
        terms, issues = batch_breakdown(model, obs, sim)
        st = sim.states if kept is None else sim.states[:, kept]  # a copy
        ok = sim.failed_step < 0
        for row, _, _, _ in issues:
            ok[row] = False
        rows = {"path_ids": sim.path_ids[ok], "states": st[ok]}
        rows.update({name: arr[ok] for name, arr in terms.items()})
        rows.update({("preclamp", k): v[ok] for k, v in sim.preclamp.items()})
        return rows, int(len(ids) - ok.sum())

    n_workers = _worker_count(threads, len(chunks))
    if n_workers > 1:
        results = _map_in_workers(work, len(chunks), n_workers)
    else:
        results = map(work, range(len(chunks)))
    # each chunk's rows are copied into place as it arrives, so no more
    # than one chunk's result is held besides the merged arrays
    merged: dict = {}
    size = n_failed = 0
    for rows, n_bad in results:
        count = len(rows["path_ids"])
        for key, arr in rows.items():
            if key not in merged:
                merged[key] = np.empty((n_paths,) + arr.shape[1:], arr.dtype)
            merged[key][size:size + count] = arr
        size += count
        n_failed += n_bad
    if n_failed > FAILURE_CEILING * n_paths:
        raise UnstableRunError(
            f"{n_failed} of {n_paths} paths failed, above the "
            f"{FAILURE_CEILING:.0%} ceiling")

    merged = {key: arr[:size] for key, arr in merged.items()}
    breakdown = {name: merged[name] for name in (*TERM_NAMES, "girsanov")}
    preclamp = {k: merged["preclamp", k] for k in range(len(obs.items))}
    log_weights = sum(breakdown[name].sum(axis=1) for name in TERM_NAMES) \
        + breakdown["girsanov"]
    return WeightedEnsemble(
        grid=grid, states=merged["states"], path_ids=merged["path_ids"],
        kept_nodes=kept,
        log_weights=np.asarray(log_weights, dtype=float),
        breakdown=breakdown, preclamp=preclamp, n_failed=n_failed)


# ---------------------------------------------------------------------------
# estimation

def weighted_mean_se(weights: np.ndarray, fvals: np.ndarray):
    """Self-normalized mean and standard error along axis 0: pairwise
    sums along the paths of one C-order (d, K) copy, with no BLAS call,
    so neither the layout of ``fvals`` nor BLAS threads move a bit."""
    fvals = np.asarray(fvals, dtype=float)
    # np.array always copies, so writing in place below spares fvals
    cols = np.array(fvals.reshape(len(weights), -1).T, order="C")
    value = np.sum(cols * weights, axis=-1)
    # w^2 (f - value)^2 in the one (d, K) buffer
    cols -= value[:, None]
    cols *= cols
    cols *= weights * weights
    se = np.sqrt(np.sum(cols, axis=-1))
    return value.reshape(fvals.shape[1:]), se.reshape(fvals.shape[1:])


def _values(ensemble: WeightedEnsemble, f) -> np.ndarray:
    """(K, ...) values of ``f``: its array map, else one call a path."""
    if ensemble.size == 0:
        raise DegenerateEnsembleError("ensemble retained no paths")
    array_map = getattr(f, "array_map", None)
    if array_map is not None:
        return array_map(ensemble).reshape(ensemble.size, -1)
    return np.asarray([np.atleast_1d(np.asarray(f(p), dtype=float))
                       for p in ensemble.paths])


def estimate(ensemble: WeightedEnsemble, f) -> EstimateReport:
    """Estimate E[f | observations] from a weighted ensemble.

    ``f``, an array functional or a per-path callable, may return a
    scalar or a vector; the report has a value and SE per component.
    """
    fvals = _values(ensemble, f)
    weights, _, ess = normalize_log_weights(ensemble.log_weights)
    value, se = weighted_mean_se(weights, fvals)
    return EstimateReport(value=value, std_error=se, ess=ess,
                          n_paths=ensemble.size, n_failed=ensemble.n_failed)


def conditional_moments(ensemble: WeightedEnsemble, f) -> MomentEstimate:
    """Conditional mean and variance of a scalar functional.

    The variance estimate is the weighted second moment about the
    estimated mean; its standard error treats the mean as fixed.
    """
    fv = _values(ensemble, f)
    weights, _, ess = normalize_log_weights(ensemble.log_weights)
    mean, mean_se = weighted_mean_se(weights, fv)
    var, var_se = weighted_mean_se(weights, (fv - mean) ** 2)
    return MomentEstimate(mean=mean.item(), mean_se=mean_se.item(),
                          var=var.item(), var_se=var_se.item(), ess=ess)


@dataclass(frozen=True)
class CoordinateAt:
    """Coordinate ``index`` at grid time ``time``, of one ``PathSample``
    or, through ``array_map``, of every path of an ensemble."""

    time: float
    index: int

    def __call__(self, path: PathSample) -> float:
        return float(path.state_at(self.time)[self.index])

    def array_map(self, ens: WeightedEnsemble) -> np.ndarray:
        return ens.state_at(self.time)[:, self.index]


coordinate_at = CoordinateAt
