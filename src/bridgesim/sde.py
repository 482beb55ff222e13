"""Model coefficients, time grids and reproducible noise streams.

Simulation lives in :mod:`bridgesim.bridge`, whose one Euler-Maruyama
kernel integrates both guided bridges and unconditioned paths."""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import (
    EllipticityViolationError,
    InvalidConfigurationError,
)

Coefficient = Callable[[float, np.ndarray], np.ndarray]

_MASK64 = (1 << 64) - 1

# Version of the arithmetic behind a run's bits, reported by ``bridgesim
# run`` and described under the README's "Numerics scheme".  Scheme 8
# draws each noise block from its own SFC64 generator keyed by
# (seed, block).
NUMERICS_SCHEME = 8

# Paths per noise block: path p reads column p % NOISE_BLOCK of the
# block keyed (seed, p // NOISE_BLOCK).
NOISE_BLOCK = 64


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients of dx = b(t, x) dt + sigma(t, x) dW on R^n.

    ``drift`` maps (t, states) to vectors and ``diffusion`` to n x n
    matrices; both must accept states of shape (n,) or (..., n) and
    broadcast over leading axes.  A callable ``diffusion`` may return a
    single (n, n) matrix when it does not depend on the state.  The
    simulator keeps the path axis innermost in memory, so the (..., n)
    states a callable receives need not be C-contiguous: elementwise
    arithmetic gives the same bits for any layout, while a BLAS ``@``
    inside a callable may round differently by layout.

    ``diffusion`` may instead be an (n, n) array: sigma then depends on
    neither t nor x, and the simulator and the weights factor the
    observation channels once per chunk instead of at every step.  The
    array is stored as a read-only copy.

    ``guided_drift`` optionally replaces ``drift`` when simulating guided
    bridges, for example by a bounded part of it; the remainder
    ``drift - guided_drift`` is accounted for by a path correction.
    ``ellipticity_bound`` is the constant rho with
    rho^-1 I <= sigma sigma* <= rho I; it is only checked when a
    simulation runs with validation enabled.  Smoothness of the
    coefficients is the caller's obligation and is not checked.
    """

    dim: int
    drift: Coefficient
    diffusion: Union[Coefficient, np.ndarray]
    guided_drift: Optional[Coefficient] = None
    ellipticity_bound: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "dim", integer(
            self.dim, "model dimension must be an integer >= 1", least=1))
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
        """Drift used for bridge simulation: ``guided_drift`` if given."""
        return self.drift if self.guided_drift is None else self.guided_drift


@dataclass(frozen=True)
class TimeGrid:
    """Integration grid: its increasing times ``nodes`` and nothing else.

    An observation's time and window opening are found with
    :meth:`index_of`, which rejects a grid that lacks either.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or not np.isfinite(nodes).all() \
                or (np.diff(nodes) <= 0).any():
            raise InvalidConfigurationError("nodes must be finite, increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    def index_of(self, time: float) -> int:
        """Index of the grid node nearest ``time``, within 1e-9 of it or,
        past horizon 1000, within the 1e-12 horizon by which
        :func:`build_grid` merges anchors into one node."""
        horizon = float(self.nodes[-1]) if len(self.nodes) else 0.0
        return _index_near(self.nodes, time, max(1e-9, 1e-12 * horizon))


@dataclass
class PathSample:
    """One path's grid, states and id, as ``WeightedEnsemble.paths``
    yields it for ``perfbench/make_reference.py``; no estimate reads it."""

    grid: TimeGrid
    states: np.ndarray
    seed_id: int

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
        f"drift returned shape {out.shape}, expected (..., {dim}) or {(dim,)}")


def diffusion_values(fn: Union[Coefficient, np.ndarray], t: float,
                     states: np.ndarray, dim: int) -> np.ndarray:
    """sigma at (t, states) from a callable or a constant (n, n) array."""
    if not callable(fn):
        return fn
    out = np.asarray(fn(t, states), dtype=float)
    if out.shape in ((dim, dim), states.shape[:-1] + (dim, dim)):
        return out
    raise InvalidConfigurationError(
        f"diffusion returned shape {out.shape}, expected "
        f"(..., {dim}, {dim}) or {(dim, dim)}")


def batch_innermost(batch: tuple, shape: tuple,
                    dtype=float) -> np.ndarray:
    """An empty ``batch + shape`` array whose batch axes are innermost in
    memory, so an operation on one entry per row, such as ``[..., i]``,
    runs over contiguous memory instead of striding by the row length."""
    nb, ns = len(batch), len(shape)
    return np.empty(shape + batch, dtype).transpose(*range(ns, ns + nb),
                                                    *range(ns))


def product(x: np.ndarray, y: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ y for shared or batched operands, broadcast over leading axes.

    The inner axis is summed term by term in a fixed order, so the bits
    of a row do not depend on how many rows share the call; a BLAS
    product over a whole batch rounds differently by row count.

    A shared (2-D) operand is read once, and a term whose factor from it
    is an exact zero is not added; an entry with no other term is +0.0.
    Against the sum of every term, an entry can differ only in the sign
    of a zero result (a -0.0 partial sum no longer meets a skipped +0.0
    term, and an all-zero entry is +0.0) or where a skipped term's other
    factor is not finite (numerics scheme 6).

    The result has the batch axes innermost in memory: each entry
    ``out[..., r, c]`` is one contiguous run over the batch.  A given
    ``out`` of the result's shape receives the same bits in its own
    layout.
    """
    if out is None:
        # against a shared matrix the batch is the other operand's
        if y.ndim == 2:
            batch = x.shape[:-2]
        elif x.ndim == 2:
            batch = y.shape[:-2]
        else:
            batch = np.broadcast(x[..., 0, 0], y[..., 0, 0]).shape
        out = batch_innermost(batch, (x.shape[-2], y.shape[-1]))
    xs = x.tolist() if x.ndim == 2 else None
    ys = y.tolist() if y.ndim == 2 else None
    # one entry at a time: the loops then run over the long batch axes
    for r in range(x.shape[-2]):
        for c in range(y.shape[-1]):
            acc = out[..., r, c]
            empty = True
            for i in range(x.shape[-1]):
                # an exact zero of a shared operand adds no term
                if (xs is not None and xs[r][i] == 0.0) or \
                        (ys is not None and ys[i][c] == 0.0):
                    continue
                if empty:
                    np.multiply(x[..., r, i], y[..., i, c], out=acc)
                    empty = False
                else:
                    acc += x[..., r, i] * y[..., i, c]
            if empty:
                acc.fill(0.0)
    return out


def vecmat(x: np.ndarray, mat: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ mat for row vectors x (..., k), summed as in :func:`product`,
    into ``out`` if given."""
    return product(x[..., None, :], mat,
                   None if out is None else out[..., None, :])[..., 0, :]


def dot(x: np.ndarray, y: np.ndarray,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inner products of the rows of x and y, summed as in :func:`product`
    and, as there, C-ordered over the leading axes, into ``out`` if
    given."""
    out = np.multiply(x[..., 0], y[..., 0], out=out, order="C")
    for i in range(1, x.shape[-1]):
        out += x[..., i] * y[..., i]
    return out


def matvec(sig: np.ndarray, vec: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """sigma @ v for a shared (n, n) or batched (..., n, n) matrix."""
    return vecmat(vec, np.swapaxes(sig, -1, -2), out)


def gram(sig: np.ndarray) -> np.ndarray:
    """a = sigma sigma* for shared or batched sigma."""
    return product(sig, np.swapaxes(sig, -1, -2))


def check_coefficients(model: ModelSpec, t: float, sig: np.ndarray) -> None:
    """Validation-mode check of one step's diffusion values ``sig``."""
    rho = model.ellipticity_bound
    ev = np.linalg.eigvalsh(gram(sig))
    tol = 1e-9 * max(rho, 1.0)
    if ev.min() < 1.0 / rho - tol or ev.max() > rho + tol:
        raise EllipticityViolationError(
            f"diffusion eigenvalues escape [1/rho, rho] at t={t:.6g} "
            f"(range [{ev.min():.6g}, {ev.max():.6g}], rho={rho:.6g})")


# ---------------------------------------------------------------------------
# grid construction

def _index_near(values, x: float, tol: float) -> int:
    """Index of the sorted grid time in ``values`` nearest ``x``, the
    earlier of two as near; it must lie within ``tol`` of ``x``."""
    i = bisect.bisect_left(values, x)
    # values[i - 1] < x <= values[i]: the nearest is one of the two
    if i == len(values) or (i and x - values[i - 1] <= values[i] - x):
        i -= 1
    # written so that a NaN time fails
    if i < 0 or not abs(values[i] - x) <= tol:
        raise InvalidConfigurationError(f"time {x!r} is not a grid node")
    return i


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
    entry of ``include_times``; such anchors within 1e-12 horizon of each
    other share one node at the time of an observation among them, else
    of a window opening.  Errors name a bad ``horizon``,
    ``dt_min`` or ``refine_ratio`` in ``field``.
    """
    horizon = float(horizon)
    if not 0 < horizon < np.inf:
        raise InvalidConfigurationError("horizon must be positive and finite",
                                        field="horizon")
    if not (0 < dt_min <= dt_base < np.inf):
        raise InvalidConfigurationError(
            "require 0 < dt_min <= dt_base, both finite", field="dt_min")
    if not (0 < refine_ratio < 1):
        raise InvalidConfigurationError("refine_ratio must lie in (0, 1)",
                                        field="refine_ratio")

    items = () if obs is None else obs.items
    if items:
        last = max(ob.time for ob in items)
        if horizon < last - 1e-12 * max(1.0, last):
            raise InvalidConfigurationError(
                f"horizon {horizon} is below the last observation time {last}",
                field="horizon")
        if dt_min >= obs.min_window:
            raise InvalidConfigurationError(
                "dt_min must be smaller than every observation window",
                field="dt_min")

    tol = 1e-12 * max(1.0, horizon)
    # rank 0: observation time, 1: window opening, 2: other anchor
    pts = [(0.0, 2), (horizon, 2)]
    for ob in items:
        pts.append((float(ob.time), 0))
        pts.append((float(ob.time - ob.window), 1))
    for t in include_times:
        t = float(t)
        if not -tol <= t <= horizon + tol:  # a NaN fails too
            raise InvalidConfigurationError(
                f"include time {t} lies outside [0, horizon]")
        pts.append((min(max(t, 0.0), horizon), 2))
    pts.sort(key=lambda p: (p[0], p[1]))

    # anchors within tol merge into one node at the time of the most
    # binding of them, so index_of finds every observation's two nodes
    keys: list[float] = []
    ranks: list[int] = []
    for time, rank in pts:
        if keys and abs(time - keys[-1]) <= tol:
            if rank < ranks[-1]:
                keys[-1], ranks[-1] = time, rank
            continue
        keys.append(time)
        ranks.append(rank)

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

    return TimeGrid(nodes)


# ---------------------------------------------------------------------------
# noise streams

def integer(value, message: str, least: float = -np.inf) -> int:
    """``value`` as an int if it is an int or a numpy integer (a bool is
    not one) of at least ``least``; else InvalidConfigurationError."""
    if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)) or value < least:
        raise InvalidConfigurationError(message)
    return int(value)


def noise_drawer(seed: int, path_ids, dim: int):
    """A function ``draw(buf)`` that fills the (s, dim, P) buffer ``buf``
    with the next ``s`` steps of noise of the paths ``path_ids``.

    Path p reads column ``p % NOISE_BLOCK`` of the step-major standard
    normals of an SFC64 generator built from ``SeedSequence(seed,
    spawn_key=(p // NOISE_BLOCK,))``, both modulo 2^64 (an entropy list
    ``[seed, b]`` would merge some pairs).  Each block keeps its one
    generator across draws, so any slicing of the steps gives the bits
    of one draw.  Contiguous ids, such as every chunk of ``run_ensemble``,
    find their columns by arithmetic; other ids are grouped by block.
    """
    ids = path_id_array(path_ids)
    count = len(ids)
    first = int(ids[0]) if count else 0
    # (block, columns of buf, columns of the block's draw)
    groups = []
    # the end points in Python ints: a step of 1 in int64 can wrap
    if not count or (int(ids[-1]) - first == count - 1
                     and (np.diff(ids) == 1).all()):
        for block in range(first // NOISE_BLOCK,
                           -(-(first + count) // NOISE_BLOCK)):
            base = block * NOISE_BLOCK
            lo, hi = max(base, first), min(base + NOISE_BLOCK, first + count)
            groups.append((block, slice(lo - first, hi - first),
                           slice(lo - base, hi - base)))
    else:
        ids = ids.tolist()
        rows: dict[int, list[int]] = {}
        for p, pid in enumerate(ids):
            rows.setdefault(pid // NOISE_BLOCK, []).append(p)
        groups = [(block, ps, [ids[p] % NOISE_BLOCK for p in ps])
                  for block, ps in rows.items()]
    seed = integer(seed, "seed must be an integer") & _MASK64
    gens = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        seed, spawn_key=(block & _MASK64,)))) for block, _, _ in groups]

    def draw(buf: np.ndarray) -> np.ndarray:
        scratch = np.empty((len(buf), dim, NOISE_BLOCK))
        for gen, (_, cols, src) in zip(gens, groups):
            buf[:, :, cols] = gen.standard_normal(out=scratch)[:, :, src]
        return buf

    return draw


def normal_increments(seed: int, path_id: int, n_steps: int,
                      dim: int) -> np.ndarray:
    """The (n_steps, dim) standard normals driving one path, drawn from
    its block's key alone (see :func:`noise_drawer`): any path can be
    regenerated from (seed, path_id), at the cost of its block, and a
    longer request extends the same noise."""
    return block_normals(seed, [path_id], n_steps, dim)[0].copy()


def path_id_array(path_ids) -> np.ndarray:
    """A copy of ``path_ids`` as an int64 array, or as an object array
    of Python ints when an id lies past int64.  A 1-D signed-integer
    array is cast by numpy; other ids are read one by one through
    :func:`integer`."""
    if isinstance(path_ids, np.ndarray) and path_ids.ndim == 1 \
            and path_ids.dtype.kind == "i":
        return path_ids.astype(np.int64)
    ids = [integer(p, "path ids must be integers") for p in path_ids]
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:  # the noise streams take any integer id
        return np.array(ids, dtype=object)


def block_normals(seed: int, path_ids, n_steps: int, dim: int) -> np.ndarray:
    """The (P, n_steps, dim) noise of a batch of paths, one draw of
    :func:`noise_drawer`, paths innermost in memory: a transposed view
    of an (n_steps, dim, P) buffer.  Row p equals ``normal_increments(
    seed, path_ids[p], n_steps, dim)`` bit for bit."""
    ids = path_id_array(path_ids)
    buf = np.empty((n_steps, dim, len(ids)))
    return noise_drawer(seed, ids, dim)(buf).transpose(2, 0, 1)
