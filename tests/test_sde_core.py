"""Noise streams, coefficient plumbing, and the unconditioned integrator."""
import itertools

import numpy as np
import pytest

import bridgesim as bs
from bridgesim.errors import (
    EllipticityViolationError,
    InvalidConfigurationError,
)
from bridgesim.bridge import NOISE_SLICE, simulate_batch, simulate_free_batch
from bridgesim.estimator import CHUNK_SIZE
from bridgesim.sde import (
    NOISE_BLOCK,
    batch_innermost,
    block_normals,
    check_coefficients,
    diffusion_values,
    dot,
    drift_values,
    gram,
    matvec,
    noise_drawer,
    normal_increments,
    product,
    vecmat,
)
from conftest import state_dependent_setup


class TestNoise:
    def test_streams_are_reproducible(self):
        a = normal_increments(7, 3, 50, 2)
        b = normal_increments(7, 3, 50, 2)
        assert a.shape == (50, 2)
        assert np.array_equal(a, b)

    def test_streams_separate_by_path_and_seed(self):
        base = normal_increments(7, 3, 50, 2)
        assert not np.array_equal(base, normal_increments(7, 4, 50, 2))
        assert not np.array_equal(base, normal_increments(8, 3, 50, 2))

    def test_prefix_property(self):
        """A longer request extends the same stream."""
        short = normal_increments(11, 0, 20, 3)
        long = normal_increments(11, 0, 40, 3)
        assert np.array_equal(long[:20], short)

    def test_moments(self):
        pid = 0
        draws = normal_increments(123, pid, 100_000, 1)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02
        # path p reads column p % 64 of the step-major draw of SFC64
        # keyed (seed, p // 64)
        key = np.random.SeedSequence(123, spawn_key=(pid // 64,))
        gen = np.random.Generator(np.random.SFC64(key))
        ref = gen.standard_normal((100_000, 1, 64))[:, :, pid % 64]
        assert draws.tobytes() == ref.tobytes()

    def test_negative_and_huge_ids_accepted(self):
        """Any integer seed and id keys the stream through the low 64
        bits of the seed and of the id's block."""
        pid = 2 ** 70
        got = normal_increments(-5, pid, 4, 2)
        key = np.random.SeedSequence(-5 & (2 ** 64 - 1),
                                     spawn_key=((pid // 64) & (2 ** 64 - 1),))
        gen = np.random.Generator(np.random.SFC64(key))
        ref = gen.standard_normal((4, 2, 64))[:, :, pid % 64]
        assert got.tobytes() == ref.tobytes()

    def test_block_key_is_injective(self):
        """Keys that one SeedSequence entropy list [seed, block] would
        merge into one state stay apart."""
        merged = [np.random.SeedSequence(k).generate_state(4)
                  for k in ([2 ** 32 + 5, 7], [5, 1 + 7 * 2 ** 32])]
        assert np.array_equal(*merged)
        a = normal_increments(2 ** 32 + 5, 7 * 64, 4, 1)
        b = normal_increments(5, (1 + 7 * 2 ** 32) * 64, 4, 1)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("ids", [
        [9, 2, 40, 3],                              # non-contiguous
        [2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, -1],    # through the 64-bit mask
        [],                                         # empty batch
        [62, 63, 64, 65],                           # across a block boundary
        list(range(100, 1100)),                     # unaligned range
        [130, 5, 129],                              # blocks out of order
        np.arange(100, 1100),                       # an integer array
        np.array([62, 63, 64, 65], dtype=np.int32),
        np.array([2 ** 63 - 1, -2 ** 63]),          # steps 1 in int64
    ])
    def test_block_equals_stacked_streams(self, ids):
        """Also when drawn into a given paths-innermost buffer, as the
        kernel draws into its state rows."""
        block = block_normals(-5, ids, 30, 2)
        ref = np.stack([normal_increments(-5, pid, 30, 2) for pid in ids]) \
            if len(ids) else np.zeros((0, 30, 2))
        assert block.shape == ref.shape
        assert block.tobytes() == ref.tobytes()
        into = batch_innermost((len(ids),), (30, 2))
        block_normals(-5, ids, 30, 2, out=into)
        assert into.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("ids", [
        np.arange(100, 1100),                       # partial first/last block
        [9, 2, 40, 3, 130],                         # non-contiguous
        [12, 2 ** 63 + 1, 0],                       # an id past int64
    ], ids=["range", "scattered", "past-int64"])
    @pytest.mark.parametrize("n_steps", [2 * NOISE_SLICE + 5, NOISE_SLICE,
                                         3])
    def test_slices_equal_one_draw(self, ids, n_steps):
        """Drawn slice by slice as the kernel draws it, into one reused
        buffer, each path's noise is ``block_normals``' and
        ``normal_increments``' bit for bit, also for a step count that
        is not a multiple of the slice."""
        draw = noise_drawer(-5, ids, 2)
        buf = np.empty((NOISE_SLICE, 2, len(ids)))
        slices = [draw(buf[:min(NOISE_SLICE, n_steps - j)]).copy()
                  for j in range(0, n_steps, NOISE_SLICE)]
        got = np.concatenate(slices).transpose(2, 0, 1)
        ref = np.stack([normal_increments(-5, pid, n_steps, 2)
                        for pid in ids])
        assert got.shape == (len(ids), n_steps, 2)
        assert got.tobytes() == ref.tobytes()
        assert block_normals(-5, ids, n_steps, 2).tobytes() == ref.tobytes()

    def test_chunks_hold_whole_noise_blocks(self):
        """No run_ensemble chunk shares a noise block with another, so
        none draws a block twice."""
        assert CHUNK_SIZE % NOISE_BLOCK == 0

    def test_free_batch_noise_equals_stacked_streams(self):
        """Replaying the zero-drift Euler recursion on the per-path
        streams reproduces the free batch bit for bit."""
        model = bs.brownian(dim=2).spec
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        ids = [12, 0, 2 ** 63 + 1]
        batch = simulate_free_batch(model, grid, np.zeros(2), 4, ids)
        ref = np.stack([normal_increments(4, pid, grid.n_steps, 2)
                        for pid in ids])
        x = np.zeros((len(ids), 2))
        for j, dt in enumerate(grid.steps):
            x = x + matvec(model.diffusion, ref[:, j]) * np.sqrt(dt)
            assert batch.states[:, j + 1].tobytes() == x.tobytes()
        assert list(batch.path_ids) == ids


class TestCoefficientHelpers:
    def test_drift_shape_normalization(self):
        fn = lambda t, x: np.array([1.0, 2.0])
        states = np.zeros((5, 2))
        out = drift_values(fn, 0.0, states, 2)
        assert out.shape == (5, 2)
        assert np.allclose(out, [1.0, 2.0])

    def test_drift_shape_mismatch(self):
        fn = lambda t, x: np.zeros(3)
        with pytest.raises(InvalidConfigurationError):
            drift_values(fn, 0.0, np.zeros((5, 2)), 2)

    def test_diffusion_shared_and_batched(self):
        shared = lambda t, x: np.eye(2)
        assert diffusion_values(shared, 0.0, np.zeros((5, 2)), 2).shape == (2, 2)
        batched = lambda t, x: np.broadcast_to(np.eye(2), (5, 2, 2))
        assert diffusion_values(batched, 0.0, np.zeros((5, 2)), 2).shape \
            == (5, 2, 2)
        bad = lambda t, x: np.zeros((3, 3))
        with pytest.raises(InvalidConfigurationError):
            diffusion_values(bad, 0.0, np.zeros((5, 2)), 2)

    def test_matvec_and_gram_match_loops(self, rng):
        sig = rng.standard_normal((4, 3, 3))
        vec = rng.standard_normal((4, 3))
        direct = np.stack([sig[i] @ vec[i] for i in range(4)])
        assert np.allclose(matvec(sig, vec), direct)
        grams = np.stack([sig[i] @ sig[i].T for i in range(4)])
        assert np.allclose(gram(sig), grams)
        shared = rng.standard_normal((3, 3))
        assert np.allclose(matvec(shared, vec), vec @ shared.T)
        assert np.allclose(gram(shared), shared @ shared.T)

    def test_check_coefficients_ellipticity(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: np.eye(1) * 3.0,
                             ellipticity_bound=2.0)
        with pytest.raises(EllipticityViolationError):
            check_coefficients(model, 0.0, np.eye(1) * 3.0)


def paths_innermost(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` whose leading (path) axis is innermost in memory."""
    return np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)


class TestLayout:
    """The fixed-order sums give the same bytes whatever the memory
    layout of their operands; the kernel keeps the path axis innermost."""

    @pytest.mark.parametrize("fn, shapes", [
        (gram, [(64, 3, 3)]),                           # batched sigma
        (product, [(64, 1, 2), (2, 2)]),                # shared matrix
        (product, [(64, 5, 1, 2), (64, 5, 2, 2)]),      # window quadratics
        (vecmat, [(64, 2), (2, 2)]),
        (vecmat, [(64, 5, 2), (64, 5, 2, 2)]),
        (dot, [(64, 3), (64, 3)]),
        (dot, [(64, 5, 2), (64, 5, 2)]),
    ], ids=["gram", "product-shared", "product-window", "vecmat-shared",
            "vecmat-window", "dot", "dot-window"])
    def test_sums_do_not_depend_on_layout(self, rng, fn, shapes):
        ops = [rng.standard_normal(s) for s in shapes]
        ref = fn(*ops)
        # each entry of the result is one contiguous run over the batch
        n_batch = len(shapes[0]) - (1 if fn in (vecmat, dot) else 2)
        entry = ref[(...,) + (0,) * (ref.ndim - n_batch)]
        assert entry.flags.c_contiguous
        batched = [i for i, s in enumerate(shapes) if s[0] == 64]
        for flip in itertools.product((False, True), repeat=len(batched)):
            args = list(ops)
            for i, f in zip(batched, flip):
                if f:
                    args[i] = paths_innermost(ops[i])
                    assert args[i].strides[0] == args[i].itemsize
            out = fn(*args)
            assert out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(64, 3), (64, 5, 2), (3,)])
    def test_dot_sums_as_product(self, rng, shape):
        """``dot`` gives the bytes of ``product`` of a row and a column."""
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        ref = product(x[..., None, :], y[..., :, None])[..., 0, 0]
        assert np.asarray(dot(x, y)).tobytes() == ref.tobytes()

    def test_product_into_given_out(self, rng):
        """A given ``out`` of either layout receives the bytes of the
        result ``product`` allocates itself."""
        x = rng.standard_normal((64, 5, 1, 2))
        y = rng.standard_normal((2, 2))
        ref = product(x, y)
        for out in (np.empty(ref.shape), paths_innermost(np.empty(ref.shape))):
            assert product(x, y, out=out) is out
            assert out.tobytes() == ref.tobytes()

    def test_kernel_arrays_keep_paths_innermost(self):
        model, obs, grid, u = state_dependent_setup()
        batch = simulate_batch(model, obs, grid, u, 3, np.arange(16))
        arrays = [batch.states, *batch.preclamp.values(),
                  *batch.terms.values()]
        for arr in arrays:
            assert arr.shape[0] == 16
            assert arr.strides[0] == arr.itemsize


def dense_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y summed term by term in order over every term, exact zeros
    included, as numerics schemes up to 5 summed it."""
    xb, yb = np.broadcast_arrays(x[..., :, :, None], y[..., None, :, :])
    out = xb[..., 0, :] * yb[..., 0, :]
    for i in range(1, x.shape[-1]):
        out = out + xb[..., i, :] * yb[..., i, :]
    return out


def _zero_column(rng):
    mat = rng.standard_normal((3, 3))
    mat[:, 1] = 0.0
    return mat


SHARED_WITH_ZEROS = {
    "coordinate_rows": lambda rng: np.array([[1.0, 0.0, 0.0],
                                             [0.0, 0.0, 1.0]]).T,
    "diagonal": lambda rng: np.diag([1.0, 1.5, 0.5]),
    "lower_triangular": lambda rng: np.linalg.cholesky(
        np.eye(3) + 0.3 * np.ones((3, 3))),
    "zero_column": _zero_column,
}


class TestZeroTerms:
    """A shared matrix's exact zeros add no term (numerics scheme 6)."""

    @pytest.mark.parametrize("name", sorted(SHARED_WITH_ZEROS))
    def test_shared_zeros_match_dense_sum(self, rng, name):
        """Against shared matrices with exact zeros, on either side, the
        products of random finite rows have the bytes of the sum over
        every term; an entry with no non-zero term is +0.0."""
        mat = SHARED_WITH_ZEROS[name](rng)                 # (3, c)
        live = mat.any(axis=0)
        x = rng.standard_normal((64, 2, 3))
        cases = [
            (product(x, mat), dense_product(x, mat), (..., live)),
            (vecmat(x[:, 0], mat), dense_product(x[:, :1], mat)[:, 0],
             (..., live)),
            # the transpose on the left: a dead column is a dead row
            (product(mat.T, x.swapaxes(-1, -2)),
             dense_product(mat.T, x.swapaxes(-1, -2)),
             (..., live, slice(None))),
        ]
        for got, want, keep in cases:
            assert got.shape == want.shape
            assert got[keep].tobytes() == want[keep].tobytes()
            dead = np.ones(got.shape, dtype=bool)
            dead[keep] = False
            assert (got[dead] == 0.0).all()
            assert not np.signbit(got[dead]).any()
            assert (want[dead] == 0.0).all()
        if not live.all():
            # the full sum of zero terms is -0.0 somewhere: the rule moved
            # the sign of that zero, and nothing else
            assert np.signbit(cases[0][1][..., ~live]).any()

    def test_only_zero_signs_and_non_finite_factors_differ(self):
        """A -0.0 partial sum no longer meets the skipped +0.0 term, so
        it stays -0.0; and a skipped zero times a non-finite factor no
        longer adds a NaN."""
        mat = np.array([[3.0], [0.0]])
        x = np.array([[[-0.0, 1.0]], [[2.0, np.inf]]])
        with np.errstate(invalid="ignore"):
            want = dense_product(x, mat)[:, 0, 0]
        got = product(x, mat)[:, 0, 0]
        assert got[0] == want[0] == 0.0
        assert np.signbit(got[0]) and not np.signbit(want[0])
        assert got[1] == 6.0 and np.isnan(want[1])


class TestModelSpec:
    def test_effective_and_guided_drift(self):
        bounded = lambda t, x: np.tanh(x)
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x,
                             diffusion=lambda t, x: np.eye(1),
                             guided_drift=bounded)
        assert model.effective_drift is bounded
        plain = bs.ModelSpec(dim=1, drift=lambda t, x: x,
                             diffusion=lambda t, x: np.eye(1))
        assert plain.effective_drift is plain.drift
        assert plain.guided_drift is None

    def test_bad_dimension(self):
        with pytest.raises(InvalidConfigurationError):
            bs.ModelSpec(dim=0, drift=lambda t, x: x,
                         diffusion=lambda t, x: np.eye(1))


class TestIntegrator:
    def test_brownian_terminal_moments(self):
        model = bs.brownian(dim=1).spec
        grid = bs.build_grid(1.0, None, dt_base=0.01, dt_min=0.01)
        batch = simulate_free_batch(
            model, grid, np.zeros(1), 17, np.arange(20_000))
        states, failed = batch.states, batch.failed_step
        assert not (failed >= 0).any()
        terminal = states[:, -1, 0]
        assert abs(terminal.mean()) < 0.02
        assert abs(terminal.var() - 1.0) < 0.03

    def test_ou_mean_decay(self):
        built = bs.ou(dim=1, f_diag=-1.0)
        grid = bs.build_grid(1.0, None, dt_base=1e-3, dt_min=1e-3)
        batch = simulate_free_batch(
            built.spec, grid, np.array([1.0]), 23, np.arange(40_000))
        states, failed = batch.states, batch.failed_step
        assert not (failed >= 0).any()
        mean = states[:, -1, 0].mean()
        assert abs(mean - np.exp(-1.0)) < 0.01

    def test_weak_error_decreases_with_step(self):
        """Second moment of an endpoint of a linear SDE: the deterministic
        part of the Euler bias shrinks as the step shrinks.

        The mean of X^2 over 100k paths has an SE of about 2.07e-3, so
        the mean is taken over 8 batches of 100k paths, where the 3e-3
        bound is about 4 SE."""
        built = bs.ou(dim=1, f_diag=-1.0)
        exact = (1.0 - np.exp(-2.0)) / 2.0
        batches, size = 8, 100_000

        def run(dt, seed):
            grid = bs.build_grid(1.0, None, dt_base=dt, dt_min=dt)
            total = 0.0
            for start in range(0, batches * size, size):
                batch = simulate_free_batch(
                    built.spec, grid, np.zeros(1), seed,
                    np.arange(start, start + size))
                assert not (batch.failed_step >= 0).any()
                total += float((batch.states[:, -1, 0] ** 2).sum())
            return total / (batches * size)

        coarse = run(0.1, 31)
        fine = run(0.0125, 31)
        err_coarse = abs(coarse - exact)
        err_fine = abs(fine - exact)
        # deterministic recursion for the Euler second moment
        def biased(dt):
            v, t = 0.0, 0.0
            while t < 1.0 - dt / 2:
                v = (1.0 - dt) ** 2 * v + dt
                t += dt
            return v
        assert abs(coarse - biased(0.1)) < 3e-3
        assert abs(fine - biased(0.0125)) < 3e-3
        assert err_fine < err_coarse

    def test_determinism(self):
        model = bs.brownian(dim=2).spec
        grid = bs.build_grid(0.5, None, dt_base=0.05, dt_min=0.05)
        a = simulate_free_batch(model, grid, np.zeros(2), 5, np.arange(64))
        b = simulate_free_batch(model, grid, np.zeros(2), 5, np.arange(64))
        assert np.array_equal(a.states, b.states)

    def test_path_states_independent_of_batch_layout(self):
        model = bs.brownian(dim=1).spec
        grid = bs.build_grid(0.5, None, dt_base=0.05, dt_min=0.05)
        alone = simulate_free_batch(model, grid, np.zeros(1), 5, [7])
        grouped = simulate_free_batch(model, grid, np.zeros(1), 5,
                                      [3, 7, 12])
        assert np.array_equal(alone.states[0], grouped.states[1])

    def test_blowup_fails_single_path(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x ** 3,
                             diffusion=lambda t, x: np.eye(1))
        grid = bs.build_grid(5.0, None, dt_base=0.5, dt_min=0.5)
        batch = simulate_free_batch(model, grid, np.array([3.0]), 1, [0])
        assert batch.failed_step[0] >= 0

    def test_blowup_freezes_in_batch(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x ** 3,
                             diffusion=lambda t, x: np.eye(1))
        grid = bs.build_grid(5.0, None, dt_base=0.5, dt_min=0.5)
        batch = simulate_free_batch(
            model, grid, np.array([3.0]), 1, np.arange(8))
        states, failed = batch.states, batch.failed_step
        assert (failed >= 0).all()
        assert np.isfinite(states).all()
        for p in range(8):
            j = failed[p]
            frozen = states[p, j]
            assert np.array_equal(states[p, j:], np.broadcast_to(
                frozen, states[p, j:].shape))

    def test_nan_drift_fails_at_first_bad_state(self):
        """A drift that is NaN above x = 1 fails each path at the first
        node past 1 that a step leaves from, which no norm bound alone
        would catch; the path stays frozen there."""
        model = bs.ModelSpec(
            dim=1, drift=lambda t, x: np.where(x > 1.0, np.nan, 0.0),
            diffusion=lambda t, x: np.eye(1))
        grid = bs.build_grid(4.0, None, dt_base=0.05, dt_min=0.05)
        batch = simulate_free_batch(model, grid, np.zeros(1), 2,
                                    np.arange(64))
        states, failed = batch.states, batch.failed_step
        assert 0 < (failed >= 0).sum() < 64
        for p in range(64):
            over = np.nonzero(states[p, :-1, 0] > 1.0)[0]
            if over.size == 0:
                assert failed[p] == -1
                continue
            j = over[0]
            assert failed[p] == j
            assert np.array_equal(states[p, j:], np.broadcast_to(
                states[p, j], states[p, j:].shape))

    def test_failed_paths_stay_frozen_once_steps_recover(self):
        """A drift that is NaN above x = 1 before t = 2 only: paths that
        failed stay frozen after t = 2, when every step is finite."""
        model = bs.ModelSpec(
            dim=1,
            drift=lambda t, x: np.where((x > 1.0) & (t < 2.0), np.nan, 0.0),
            diffusion=lambda t, x: np.eye(1))
        grid = bs.build_grid(4.0, None, dt_base=0.05, dt_min=0.05)
        batch = simulate_free_batch(model, grid, np.zeros(1), 2,
                                    np.arange(64))
        states, failed = batch.states, batch.failed_step
        assert 0 < (failed >= 0).sum() < 64
        for p in np.flatnonzero(failed >= 0):
            frozen = states[p, failed[p]:]
            assert (frozen == frozen[0]).all()

    @pytest.mark.parametrize("start, target, step", [
        (0.0, 1e200, 3),                # finite, but its squared norm is inf
        (1e150, 1e200, 3),              # and so is the squared cap
        (0.0, 1e8 * (1 + 1e-12), 6),    # just above the cap of 1e8
        (0.0, 1e8 * (1 - 1e-12), None),  # just below it
    ], ids=["square-overflows", "cap-square-overflows", "above-cap",
            "below-cap"])
    def test_large_state_fails_at_its_step(self, start, target, step):
        """A step landing on a state of norm ``target`` fails the path at
        that step exactly when the norm exceeds the cap, 1e8 (1 + |u|);
        the path stays frozen at the state it left from."""
        grid = bs.build_grid(0.5, None, dt_base=0.05, dt_min=0.05)
        jump = 4 if step is None else step
        t_jump, dt = grid.nodes[jump], grid.steps[jump]

        def drift(t, x):
            out = np.zeros_like(x)
            if t == t_jump:
                out[..., 0] = (target - x[..., 0]) / dt
            return out

        # sigma small enough that the jump lands on ``target`` to a few ulps
        model = bs.ModelSpec(dim=2, drift=drift, diffusion=1e-30 * np.eye(2))
        batch = simulate_free_batch(model, grid, np.array([start, 0.0]), 2,
                                    np.arange(8))
        states, failed = batch.states, batch.failed_step
        if step is None:
            assert (failed == -1).all()
            assert np.allclose(states[:, jump + 1, 0], target, rtol=1e-14)
            return
        assert (failed == step).all()
        assert np.array_equal(states[:, step:], np.broadcast_to(
            states[:, step:step + 1], states[:, step:].shape))

    def test_bad_initial_state(self):
        model = bs.brownian(dim=2).spec
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        with pytest.raises(InvalidConfigurationError):
            simulate_free_batch(model, grid, np.zeros(3), 1, [0])
        with pytest.raises(InvalidConfigurationError):
            simulate_free_batch(model, grid, np.array([np.nan, 0.0]), 1, [0])

    def test_validate_flag_checks_ellipticity(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: np.eye(1) * 4.0,
                             ellipticity_bound=2.0)
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        with pytest.raises(EllipticityViolationError):
            simulate_free_batch(model, grid, np.zeros(1), 1, [0],
                                validate=True)
        # without the flag the run proceeds
        simulate_free_batch(model, grid, np.zeros(1), 1, [0])
