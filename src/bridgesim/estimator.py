"""Self-normalized importance-sampling ensembles and estimates."""
from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bridge import BridgeConfig, simulate_batch
from .errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    UnstableRunError,
)
from .observations import ObservationSet
from .sde import ModelSpec, PathSample, TimeGrid
from .weights import TERM_NAMES, batch_breakdown, normalize_log_weights

# Paths are simulated in fixed-size chunks regardless of the worker
# count, so ensembles are bit-identical however the chunks are scheduled
# over processes.
CHUNK_SIZE = 1024

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
    _paths: Optional[list[PathSample]] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.path_ids)

    @property
    def paths(self) -> list[PathSample]:
        if self._paths is None:
            self._paths = [
                PathSample(
                    grid=self.grid, states=self.states[i],
                    seed_id=int(self.path_ids[i]),
                    preclamp={k: v[i] for k, v in self.preclamp.items()})
                for i in range(self.size)]
        return self._paths


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
    run in the calling process, as they do where ``fork`` is missing."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(threads, n_chunks, _usable_cpus()))


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


def _map_in_workers(work: Callable, n_chunks: int, n_workers: int) -> list:
    """``[work(i) for i in range(n_chunks)]`` over forked workers.

    Fork hands each worker the ``work`` closure (models may hold lambdas)
    without pickling it; workers receive chunk indices and send back
    each chunk's arrays, in chunk order.
    """
    with ProcessPoolExecutor(
            n_workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_install_work, initargs=(work,)) as pool:
        return list(pool.map(_run_chunk, range(n_chunks)))


def run_ensemble(model: ModelSpec, obs: ObservationSet, grid: TimeGrid, u,
                 n_paths: int, seed: int, *, threads: int = 1,
                 cfg: Optional[BridgeConfig] = None,
                 validate: bool = False) -> WeightedEnsemble:
    """Simulate and weight ``n_paths`` independent bridges.

    Work proceeds in fixed-size chunks of path indices.  With
    ``threads > 1`` the chunks run in up to that many forked worker
    processes (never more than the chunks or the usable CPUs); the count
    only schedules chunks and never changes any result.  One worker, one
    chunk, or a platform without the ``fork`` start method runs the
    chunks in this process.  Failed paths are dropped and counted, and
    the run aborts once more than 1% of paths fail.
    ``cfg.epsilon_cutoff`` is rejected: the weights assume guidance over
    the full window and the terminal projection.
    """
    if n_paths < 1:
        raise InvalidConfigurationError("n_paths must be >= 1")
    if threads < 1:
        raise InvalidConfigurationError("threads must be >= 1")
    if cfg is not None and cfg.epsilon_cutoff is not None:
        raise InvalidConfigurationError(
            "run_ensemble does not weight epsilon-cutoff bridges; the "
            "weights assume full guidance and the terminal projection "
            "(simulate cut-off paths with simulate_batch)")

    chunks = [np.arange(s, min(s + CHUNK_SIZE, n_paths))
              for s in range(0, n_paths, CHUNK_SIZE)]

    def work(index: int):
        ids = chunks[index]
        sim = simulate_batch(model, obs, grid, u, seed, ids, cfg=cfg,
                             validate=validate)
        st, pc, record = sim.states, sim.preclamp, sim.channel_record
        alive = sim.failed_step < 0
        if not alive.all():
            st = st[alive]
            pc = {k: v[alive] for k, v in pc.items()}
            record = None if record is None else record.rows(alive)
        terms, issues = batch_breakdown(model, obs, grid, st, pc, record)
        ok = np.ones(st.shape[0], dtype=bool)
        for row, _, _, _ in issues:
            ok[row] = False
        n_bad = int(len(ids) - ok.sum())
        return (ids[alive][ok], st[ok], {k: v[ok] for k, v in pc.items()},
                {name: arr[ok] for name, arr in terms.items()}, n_bad)

    n_workers = _worker_count(threads, len(chunks))
    if n_workers > 1:
        results = _map_in_workers(work, len(chunks), n_workers)
    else:
        results = [work(i) for i in range(len(chunks))]

    n_failed = sum(r[4] for r in results)
    if n_failed > FAILURE_CEILING * n_paths:
        raise UnstableRunError(
            f"{n_failed} of {n_paths} paths failed, above the "
            f"{FAILURE_CEILING:.0%} ceiling")

    path_ids = np.concatenate([r[0] for r in results])
    states = np.concatenate([r[1] for r in results])
    n_obs = len(obs.items)
    breakdown = {}
    for name in TERM_NAMES:
        breakdown[name] = np.concatenate([r[3][name] for r in results]) \
            if results else np.zeros((0, n_obs))
    breakdown["girsanov"] = np.concatenate([r[3]["girsanov"] for r in results])
    preclamp = {}
    for k in range(n_obs):
        parts = [r[2][k] for r in results if k in r[2]]
        if parts:
            preclamp[k] = np.concatenate(parts)
    log_weights = sum(breakdown[name].sum(axis=1) for name in TERM_NAMES) \
        + breakdown["girsanov"]
    return WeightedEnsemble(
        grid=grid, states=states, path_ids=path_ids,
        log_weights=np.asarray(log_weights, dtype=float),
        breakdown=breakdown, preclamp=preclamp, n_failed=n_failed)


# ---------------------------------------------------------------------------
# estimation

def weighted_mean_se(weights: np.ndarray, fvals: np.ndarray):
    """Self-normalized mean and standard error along axis 0."""
    fvals = np.asarray(fvals, dtype=float)
    flat = fvals.reshape(len(weights), -1)
    value = weights @ flat
    se = np.sqrt(((weights ** 2)[:, None] * (flat - value) ** 2).sum(axis=0))
    return value.reshape(fvals.shape[1:]), se.reshape(fvals.shape[1:])


def estimate(ensemble: WeightedEnsemble,
             f: Callable[[PathSample], float | np.ndarray]) -> EstimateReport:
    """Estimate E[f | observations] from a weighted ensemble.

    ``f`` may return a scalar or a vector of functionals; the report
    carries one value and standard error per component.
    """
    if ensemble.size == 0:
        raise DegenerateEnsembleError("ensemble retained no paths")
    weights, _, ess = normalize_log_weights(ensemble.log_weights)
    fvals = np.asarray([np.atleast_1d(np.asarray(f(p), dtype=float))
                        for p in ensemble.paths])
    value, se = weighted_mean_se(weights, fvals)
    return EstimateReport(value=value, std_error=se, ess=ess,
                          n_paths=ensemble.size, n_failed=ensemble.n_failed)


def conditional_moments(ensemble: WeightedEnsemble,
                        f: Callable[[PathSample], float]) -> MomentEstimate:
    """Conditional mean and variance of a scalar functional.

    The variance estimate is the weighted second moment about the
    estimated mean; its standard error treats the mean as fixed.
    """
    if ensemble.size == 0:
        raise DegenerateEnsembleError("ensemble retained no paths")
    weights, _, ess = normalize_log_weights(ensemble.log_weights)
    fv = np.asarray([float(f(p)) for p in ensemble.paths])
    mean = float(weights @ fv)
    mean_se = float(np.sqrt(np.sum(weights ** 2 * (fv - mean) ** 2)))
    dev = (fv - mean) ** 2
    var = float(weights @ dev)
    var_se = float(np.sqrt(np.sum(weights ** 2 * (dev - var) ** 2)))
    return MomentEstimate(mean=mean, mean_se=mean_se, var=var, var_se=var_se,
                          ess=ess)


def coordinate_at(time: float, index: int) -> Callable[[PathSample], float]:
    """Functional extracting one state coordinate at a grid time."""
    def f(path: PathSample) -> float:
        return float(path.state_at(time)[index])
    return f
