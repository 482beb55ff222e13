"""Noise streams, coefficient plumbing, and the unconditioned integrator."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim.errors import (
    EllipticityViolationError,
    InvalidConfigurationError,
    NumericalBlowupError,
)
from bridgesim.bridge import simulate_free_batch
from bridgesim.sde import (
    block_normals,
    check_coefficients,
    diffusion_values,
    drift_values,
    gram,
    matvec,
)


class TestNoise:
    def test_streams_are_reproducible(self):
        a = bs.normal_increments(7, 3, 50, 2)
        b = bs.normal_increments(7, 3, 50, 2)
        assert a.shape == (50, 2)
        assert np.array_equal(a, b)

    def test_streams_separate_by_path_and_seed(self):
        base = bs.normal_increments(7, 3, 50, 2)
        assert not np.array_equal(base, bs.normal_increments(7, 4, 50, 2))
        assert not np.array_equal(base, bs.normal_increments(8, 3, 50, 2))

    def test_prefix_property(self):
        """A longer request extends the same stream."""
        short = bs.normal_increments(11, 0, 20, 3)
        long = bs.normal_increments(11, 0, 40, 3)
        assert np.array_equal(long[:20], short)

    def test_moments(self):
        draws = bs.noise_stream(123, 0).standard_normal(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_negative_and_huge_ids_accepted(self):
        bs.noise_stream(-5, 2 ** 70)

    @pytest.mark.parametrize("ids", [
        [9, 2, 40, 3],                              # non-contiguous
        [2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, -1],    # through the 64-bit mask
        [],                                         # empty batch
    ])
    def test_block_equals_stacked_streams(self, ids):
        block = block_normals(-5, ids, 30, 2)
        ref = np.stack([bs.normal_increments(-5, pid, 30, 2) for pid in ids]) \
            if ids else np.zeros((0, 30, 2))
        assert block.shape == ref.shape
        assert block.tobytes() == ref.tobytes()

    def test_free_batch_noise_equals_stacked_streams(self):
        """Replaying the zero-drift Euler recursion on the per-path
        streams reproduces the free batch bit for bit."""
        model = bs.brownian(dim=2).spec
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        ids = [12, 0, 2 ** 63 + 1]
        batch = simulate_free_batch(model, grid, np.zeros(2), 4, ids)
        ref = np.stack([bs.normal_increments(4, pid, grid.n_steps, 2)
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
            check_coefficients(model, 0.0, np.zeros((1, 1)),
                               np.eye(1) * 3.0)

    def test_check_coefficients_split_sum(self):
        model = bs.ModelSpec(
            dim=1, drift=lambda t, x: x,
            diffusion=lambda t, x: np.eye(1),
            drift_split=(lambda t, x: 0.4 * x, lambda t, x: 0.7 * x))
        with pytest.raises(InvalidConfigurationError):
            check_coefficients(model, 0.0, np.ones((1, 1)), np.eye(1))


class TestModelSpec:
    def test_effective_and_rough_drift(self):
        bounded = lambda t, x: np.tanh(x)
        rest = lambda t, x: x - np.tanh(x)
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x,
                             diffusion=lambda t, x: np.eye(1),
                             drift_split=(bounded, rest))
        assert model.effective_drift is bounded
        assert model.rough_drift is rest
        plain = bs.ModelSpec(dim=1, drift=lambda t, x: x,
                             diffusion=lambda t, x: np.eye(1))
        assert plain.effective_drift is plain.drift
        assert plain.rough_drift is None

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
        part of the Euler bias shrinks as the step shrinks."""
        built = bs.ou(dim=1, f_diag=-1.0)
        exact = (1.0 - np.exp(-2.0)) / 2.0

        def run(dt, seed):
            grid = bs.build_grid(1.0, None, dt_base=dt, dt_min=dt)
            batch = simulate_free_batch(
                built.spec, grid, np.zeros(1), seed, np.arange(100_000))
            states, failed = batch.states, batch.failed_step
            assert not (failed >= 0).any()
            return states[:, -1, 0] ** 2

        coarse = run(0.1, 31)
        fine = run(0.0125, 31)
        err_coarse = abs(coarse.mean() - exact)
        err_fine = abs(fine.mean() - exact)
        # deterministic recursion for the Euler second moment
        def biased(dt):
            v, t = 0.0, 0.0
            while t < 1.0 - dt / 2:
                v = (1.0 - dt) ** 2 * v + dt
                t += dt
            return v
        assert abs(coarse.mean() - biased(0.1)) < 3e-3
        assert abs(fine.mean() - biased(0.0125)) < 3e-3
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

    def test_blowup_raises_for_single_path(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x ** 3,
                             diffusion=lambda t, x: np.eye(1))
        grid = bs.build_grid(5.0, None, dt_base=0.5, dt_min=0.5)
        with pytest.raises(NumericalBlowupError):
            bs.simulate_unconditioned(model, grid, np.array([3.0]), 1, 0)

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

    def test_bad_initial_state(self):
        model = bs.brownian(dim=2).spec
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        with pytest.raises(InvalidConfigurationError):
            bs.simulate_unconditioned(model, grid, np.zeros(3), 1, 0)
        with pytest.raises(InvalidConfigurationError):
            bs.simulate_unconditioned(model, grid,
                                      np.array([np.nan, 0.0]), 1, 0)

    def test_validate_flag_checks_ellipticity(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: np.eye(1) * 4.0,
                             ellipticity_bound=2.0)
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        with pytest.raises(EllipticityViolationError):
            bs.simulate_unconditioned(model, grid, np.zeros(1), 1, 0,
                                      validate=True)
        # without the flag the run proceeds
        bs.simulate_unconditioned(model, grid, np.zeros(1), 1, 0)
