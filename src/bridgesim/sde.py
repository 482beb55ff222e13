"""Model coefficients, time grids and reproducible noise streams.

Simulation lives in :mod:`bridgesim.bridge`, whose one Euler-Maruyama
kernel integrates both guided bridges and unconditioned paths."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import (
    EllipticityViolationError,
    InvalidConfigurationError,
    InvalidObservationError,
)

Coefficient = Callable[[float, np.ndarray], np.ndarray]

_MASK64 = (1 << 64) - 1

# Version of the arithmetic behind a run's bits, reported by ``bridgesim
# run``.  Scheme 2: one numpy Cholesky route, products summed in a fixed
# order, so a path's bits depend on (seed, path_id) and not its batch.
NUMERICS_SCHEME = 2


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients of dx = b(t, x) dt + sigma(t, x) dW on R^n.

    ``drift`` maps (t, states) to vectors and ``diffusion`` to n x n
    matrices; both must accept states of shape (n,) or (..., n) and
    broadcast over leading axes.  A callable ``diffusion`` may return a
    single (n, n) matrix when it does not depend on the state.

    ``diffusion`` may instead be an (n, n) array: sigma then depends on
    neither t nor x, and the simulator and the weights factor the
    observation channels once per chunk instead of at every step.  The
    array is stored as a read-only copy.

    ``drift_split`` optionally decomposes the drift into a bounded part,
    used when simulating guided bridges, and a remainder that is
    accounted for by a separate path correction; the two parts must sum
    to ``drift``.  ``ellipticity_bound`` is the constant rho with
    rho^-1 I <= sigma sigma* <= rho I; it is only checked when a
    simulation runs with validation enabled.  Smoothness of the
    coefficients is the caller's obligation and is not checked.
    """

    dim: int
    drift: Coefficient
    diffusion: Union[Coefficient, np.ndarray]
    drift_split: Optional[tuple[Coefficient, Coefficient]] = None
    ellipticity_bound: float = 100.0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidConfigurationError("model dimension must be >= 1")
        if not self.ellipticity_bound > 0:
            raise InvalidConfigurationError("ellipticity_bound must be positive")
        if not callable(self.diffusion):
            sig = np.array(self.diffusion, dtype=float)
            if sig.shape != (self.dim, self.dim):
                raise InvalidConfigurationError(
                    f"constant diffusion has shape {sig.shape}, expected "
                    f"{(self.dim, self.dim)}")
            sig.flags.writeable = False
            object.__setattr__(self, "diffusion", sig)

    @property
    def constant_sigma(self) -> Optional[np.ndarray]:
        """The (n, n) diffusion matrix when it is given as an array."""
        return None if callable(self.diffusion) else self.diffusion

    @property
    def effective_drift(self) -> Coefficient:
        """Drift used for bridge simulation: the bounded part if split."""
        return self.drift_split[0] if self.drift_split is not None else self.drift

    @property
    def rough_drift(self) -> Optional[Coefficient]:
        """Drift remainder handled by the path correction, if any."""
        return self.drift_split[1] if self.drift_split is not None else None


@dataclass(frozen=True)
class TimeGrid:
    """Integration grid with bookkeeping for observation nodes.

    ``obs_indices[k]`` is the node index of the k-th observation time and
    ``window_start_indices[k]`` the node index where its correction
    window opens.  Both times are grid nodes by construction.
    """

    nodes: np.ndarray
    obs_indices: dict[int, int] = field(default_factory=dict)
    window_start_indices: dict[int, int] = field(default_factory=dict)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    def index_of(self, time: float, tol: float = 1e-9) -> int:
        """Index of the grid node equal to ``time`` (within ``tol``)."""
        return _index_near(self.nodes, time, tol)


@dataclass
class PathSample:
    """A single simulated trajectory on a grid.

    ``preclamp`` maps an observation index to the state reached at the
    observation time before the terminal projection was applied; it is
    populated by the bridge simulator and consumed by the weight
    computation.
    """

    grid: TimeGrid
    states: np.ndarray
    seed_id: int
    preclamp: dict[int, np.ndarray] = field(default_factory=dict)

    def state_at(self, time: float) -> np.ndarray:
        return self.states[self.grid.index_of(time)]


# ---------------------------------------------------------------------------
# coefficient evaluation helpers (shared with the bridge and weight modules)

def drift_values(fn: Coefficient, t: float, states: np.ndarray,
                 dim: int) -> np.ndarray:
    out = np.asarray(fn(t, states), dtype=float)
    if out.shape == states.shape:
        return out
    if out.shape == (dim,):
        return np.broadcast_to(out, states.shape)
    raise InvalidConfigurationError(
        f"drift returned shape {out.shape}, expected {states.shape} or {(dim,)}")


def diffusion_values(fn: Union[Coefficient, np.ndarray], t: float,
                     states: np.ndarray, dim: int) -> np.ndarray:
    """sigma at (t, states) from a callable or a constant (n, n) array."""
    if not callable(fn):
        return fn
    out = np.asarray(fn(t, states), dtype=float)
    if out.shape == (dim, dim):
        return out
    if out.shape == states.shape[:-1] + (dim, dim):
        return out
    raise InvalidConfigurationError(
        f"diffusion returned shape {out.shape}, expected "
        f"{states.shape[:-1] + (dim, dim)} or {(dim, dim)}")


def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for shared or batched operands, broadcast over leading axes.

    The inner axis is summed term by term in a fixed order, so the bits
    of a row do not depend on how many rows share the call; a BLAS
    product over a whole batch rounds differently by row count.
    """
    out = np.empty(np.broadcast(x[..., 0, 0], y[..., 0, 0]).shape
                   + (x.shape[-2], y.shape[-1]))
    # one entry at a time: the loops then run over the long batch axes
    for r in range(x.shape[-2]):
        for c in range(y.shape[-1]):
            acc = out[..., r, c]
            np.multiply(x[..., r, 0], y[..., 0, c], out=acc)
            for i in range(1, x.shape[-1]):
                acc += x[..., r, i] * y[..., i, c]
    return out


def vecmat(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x @ mat for row vectors x (..., k), summed as in :func:`product`."""
    return product(x[..., None, :], mat)[..., 0, :]


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products of the rows of x and y, summed as in :func:`product`."""
    return product(x[..., None, :], y[..., :, None])[..., 0, 0]


def matvec(sig: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """sigma @ v for a shared (n, n) or batched (..., n, n) matrix."""
    return vecmat(vec, np.swapaxes(sig, -1, -2))


def gram(sig: np.ndarray) -> np.ndarray:
    """a = sigma sigma* for shared or batched sigma."""
    return product(sig, np.swapaxes(sig, -1, -2))


def check_coefficients(model: ModelSpec, t: float, states: np.ndarray,
                       sig: np.ndarray) -> None:
    """Validation-mode checks at the sampled points of one step."""
    rho = model.ellipticity_bound
    ev = np.linalg.eigvalsh(gram(sig))
    tol = 1e-9 * max(rho, 1.0)
    if ev.min() < 1.0 / rho - tol or ev.max() > rho + tol:
        raise EllipticityViolationError(
            f"diffusion eigenvalues escape [1/rho, rho] at t={t:.6g} "
            f"(range [{ev.min():.6g}, {ev.max():.6g}], rho={rho:.6g})")
    if model.drift_split is not None:
        total = drift_values(model.drift, t, states, model.dim)
        parts = (drift_values(model.drift_split[0], t, states, model.dim)
                 + drift_values(model.drift_split[1], t, states, model.dim))
        scale = 1.0 + float(np.abs(total).max(initial=0.0))
        if float(np.abs(parts - total).max(initial=0.0)) > 1e-12 * scale:
            raise InvalidConfigurationError(
                f"drift_split parts do not sum to the drift at t={t:.6g}")


# ---------------------------------------------------------------------------
# grid construction

def _index_near(values, x: float, tol: float) -> int:
    """Index of the entry of the sorted grid times ``values`` within
    ``tol`` of ``x``."""
    i = int(np.searchsorted(values, x))
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(values) and abs(values[j] - x) <= tol:
            return j
    raise InvalidConfigurationError(f"time {x!r} is not a grid node")


def _fill_uniform(s: float, e: float, dt_base: float) -> list[float]:
    out = []
    i = 1
    while s + i * dt_base < e - 1e-9 * dt_base:
        out.append(s + i * dt_base)
        i += 1
    out.append(e)
    return out


def _fill_window(s: float, e: float, target: float, ends_at_obs: bool,
                 dt_base: float, dt_min: float, ratio: float) -> list[float]:
    """Nodes after ``s`` up to ``e`` inside a window refining toward ``target``."""
    out: list[float] = []
    t = s
    if ends_at_obs:
        while True:
            d = target - t
            step = min(dt_base, max(ratio * d, dt_min))
            if d - step <= dt_min * (1.0 + 1e-9):
                break
            t = t + step
            out.append(t)
        # last interior node must sit within dt_min of the observation time
        if target - t > dt_min * (1.0 + 1e-9):
            out.append(target - dt_min)
        out.append(e)
    else:
        while True:
            step = min(dt_base, max(ratio * (target - t), dt_min))
            if e - t <= step * (1.0 + 1e-9):
                break
            t = t + step
            out.append(t)
        out.append(e)
    return out


def build_grid(horizon: float, obs, dt_base: float, dt_min: float,
               refine_ratio: float = 0.5,
               include_times: Iterable[float] = ()) -> TimeGrid:
    """Build an integration grid over [0, horizon].

    Outside observation windows the grid advances in uniform steps of
    ``dt_base`` (the last step of a span may be shorter).  Inside a
    window the step size additionally obeys
    ``dt <= max(refine_ratio * (T_k - t), dt_min)`` so that steps shrink
    geometrically toward the observation time, down to ``dt_min``.
    Every observation time and window opening is a grid node, as is each
    entry of ``include_times``.
    """
    horizon = float(horizon)
    if not 0 < horizon < np.inf:
        raise InvalidConfigurationError("horizon must be positive and finite")
    if not (0 < dt_min <= dt_base < np.inf):
        raise InvalidConfigurationError(
            "require 0 < dt_min <= dt_base, both finite")
    if not (0 < refine_ratio < 1):
        raise InvalidConfigurationError("refine_ratio must lie in (0, 1)")

    items = () if obs is None else obs.items
    if items:
        if not obs.validated:
            raise InvalidObservationError(
                "observation set must be validated before grid construction")
        last = max(ob.time for ob in items)
        if horizon < last - 1e-12 * max(1.0, last):
            raise InvalidConfigurationError(
                f"horizon {horizon} is below the last observation time {last}")
        if dt_min >= obs.min_window:
            raise InvalidConfigurationError(
                "dt_min must be smaller than every observation window")

    tol = 1e-12 * max(1.0, horizon)
    # rank 0: observation time, 1: window opening, 2: other anchor
    pts = [(0.0, 2), (horizon, 2)]
    for ob in items:
        pts.append((float(ob.time), 0))
        pts.append((float(ob.time - ob.window), 1))
    for t in include_times:
        t = float(t)
        if t < -tol or t > horizon + tol:
            raise InvalidConfigurationError(
                f"include time {t} lies outside [0, horizon]")
        pts.append((min(max(t, 0.0), horizon), 2))
    pts.sort(key=lambda p: (p[0], p[1]))

    keys: list[float] = []
    for time, rank in pts:
        if keys and abs(time - keys[-1]) <= tol:
            if rank == 0:
                keys[-1] = time  # snap merged anchors onto exact obs times
            continue
        keys.append(time)

    def key_at(x: float) -> float:
        return keys[_index_near(keys, x, tol)]

    windows = [(key_at(ob.time - ob.window), key_at(ob.time)) for ob in items]

    nodes: list[float] = [keys[0]]
    for s, e in zip(keys, keys[1:]):
        governor = None
        for ws, te in windows:
            if ws <= s + tol and e <= te + tol:
                governor = (te, abs(e - te) <= tol)
                break
        if governor is not None:
            nodes += _fill_window(s, e, governor[0], governor[1],
                                  dt_base, dt_min, refine_ratio)
        else:
            nodes += _fill_uniform(s, e, dt_base)

    arr = np.asarray(nodes, dtype=float)
    if np.any(np.diff(arr) <= 0):
        raise InvalidConfigurationError("grid construction produced a non-increasing node sequence")

    obs_indices = {k: _index_near(arr, windows[k][1], tol)
                   for k in range(len(items))}
    window_start_indices = {k: _index_near(arr, windows[k][0], tol)
                            for k in range(len(items))}
    return TimeGrid(arr, obs_indices, window_start_indices)


# ---------------------------------------------------------------------------
# noise streams

def noise_stream(seed: int, path_id: int) -> np.random.Generator:
    """Counter-based generator for one path.

    Streams are keyed by (seed, path_id), so any path can be regenerated
    in isolation and results do not depend on scheduling order.
    """
    key = np.array([int(seed) & _MASK64, int(path_id) & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_increments(seed: int, path_id: int, n_steps: int,
                      dim: int) -> np.ndarray:
    """The (n_steps, dim) block of standard normals driving one path."""
    return noise_stream(seed, path_id).standard_normal((n_steps, dim))


def block_normals(seed: int, path_ids, n_steps: int, dim: int) -> np.ndarray:
    """The (P, n_steps, dim) noise of a batch of paths.

    Row p equals ``normal_increments(seed, path_ids[p], n_steps, dim)``
    bit for bit: one Philox generator is re-keyed to (seed, path_id) at
    counter 0 with an empty buffer, which is the state a freshly keyed
    generator starts in, so no generator is built per path.  Each call
    owns its generator, so concurrent calls are safe.
    """
    ids = list(path_ids)
    out = np.empty((len(ids), n_steps, dim))
    zeros = np.zeros(4, dtype=np.uint64)
    bitgen = np.random.Philox(key=zeros[:2])
    gen = np.random.Generator(bitgen)
    for p, pid in enumerate(ids):
        key = np.array([int(seed) & _MASK64, int(pid) & _MASK64],
                       dtype=np.uint64)
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"key": key, "counter": zeros},
                        "buffer": zeros, "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        gen.standard_normal((n_steps, dim), out=out[p])
    return out
