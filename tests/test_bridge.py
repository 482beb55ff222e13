"""Guided bridge simulation: pinning, reductions, cutoff variants."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim.errors import (
    EllipticityViolationError,
    InvalidConfigurationError,
    InvalidObservationError,
    NumericalBlowupError,
)
from bridgesim.observations import channel
from bridgesim.sde import gram
from conftest import (nondiagonal_sigma_setup, rand_orthonormal,
                      single_full_obs, state_dependent_setup)


def scalar_obs(time=1.0, value=1.0, window=None):
    return bs.validate([bs.Observation(time, [[1.0]], [value],
                                       window=window)], dim=1)


class TestReduction:
    def test_matches_hand_coded_brownian_bridge(self):
        """With b = 0, sigma = 1 and a full-span window the guided step is
        the classical bridge recursion; replay it by hand on the same
        noise."""
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        path = bs.simulate_bridge(model, obs, grid, np.zeros(1), 41, 6)

        xi = bs.normal_increments(41, 6, grid.n_steps, 1)
        nodes = grid.nodes
        y = 0.0
        manual = [y]
        for j in range(grid.n_steps):
            dt = nodes[j + 1] - nodes[j]
            y = y + (1.0 - y) / (1.0 - nodes[j]) * dt + np.sqrt(dt) * xi[j, 0]
            if j + 1 == grid.n_steps:
                y = 1.0  # exact projection at the observation time
            manual.append(y)
        assert np.allclose(path.states[:, 0], manual, atol=1e-13)

    def test_free_motion_outside_window(self):
        """Before the window opens the bridge moves like the plain SDE."""
        from bridgesim.bridge import simulate_free_batch

        model = bs.brownian(dim=1).spec
        obs = scalar_obs(window=0.25)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        bridge = bs.simulate_bridge(model, obs, grid, np.zeros(1), 9, 2)
        free = simulate_free_batch(model, grid, np.zeros(1), 9, [2]).states
        j0 = grid.window_start_indices[0]
        assert np.array_equal(bridge.states[:j0 + 1], free[0, :j0 + 1])
        assert not np.allclose(bridge.states[-1], free[0, -1])


class TestPinning:
    def test_exact_pinning_scalar(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs(value=1.0)
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(1), 3,
                                  np.arange(64))
        assert np.abs(batch.states[:, -1, 0] - 1.0).max() <= 1e-12

    def test_exact_pinning_partial_dense(self, rng):
        """Partial observation of a three-dimensional process with a
        dense, non-diagonal diffusion matrix."""
        n, m = 3, 2
        chol = np.linalg.cholesky(np.array([
            [1.0, 0.3, 0.1], [0.3, 0.8, 0.2], [0.1, 0.2, 1.2]]))
        model = bs.ModelSpec(dim=n, drift=lambda t, x: -0.5 * x,
                             diffusion=lambda t, x: chol)
        L = rand_orthonormal(rng, m, n)
        v = np.array([0.4, -0.1])
        obs = bs.validate([bs.Observation(1.0, L, v)], dim=n)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-4)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(n), 8,
                                  np.arange(128))
        resid = batch.states[:, -1] @ L.T - v
        assert np.abs(resid).max() <= 1e-12

    def test_every_observation_is_pinned(self):
        model = bs.brownian(dim=2).spec
        obs = bs.validate([
            bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
        ], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-4)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 3,
                                  np.arange(64))
        for k, ob in enumerate(obs.items):
            j = grid.obs_indices[k]
            resid = batch.states[:, j] @ ob.matrix.T - ob.value
            assert np.abs(resid).max() <= 1e-12

    def test_preclamp_miss_shrinks_with_dt_min(self):
        """The residual before terminal projection is an Euler leftover of
        size sqrt(dt_min); refining the grid shrinks it."""
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()

        def mean_miss(dt_min):
            grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=dt_min)
            batch = bs.simulate_batch(model, obs, grid, np.zeros(1), 12,
                                      np.arange(256))
            pre = batch.preclamp[0][:, 0]
            return np.abs(pre - 1.0).mean()

        coarse = mean_miss(1e-2)
        fine = mean_miss(1e-4)
        assert fine < coarse / 3.0


class TestClamp:
    def test_clamp_satisfies_constraint(self, rng):
        n, m = 4, 2
        sigma = np.linalg.cholesky(np.eye(n) + 0.2 * np.ones((n, n)))
        model = bs.ModelSpec(dim=n, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: sigma)
        L = rand_orthonormal(rng, m, n)
        v = rng.standard_normal(m)
        obs = bs.validate([bs.Observation(1.0, L, v)], dim=n)
        z = rng.standard_normal(n)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        batch = bs.simulate_batch(model, obs, grid, z, 13, np.arange(16))
        out = batch.states[:, grid.obs_indices[0]]
        assert np.abs(out @ L.T - v).max() <= 1e-12
        # the projected state is the preclamp state moved by the
        # explicit oblique-projection formula
        a = sigma @ sigma.T
        for pre, y in zip(batch.preclamp[0], out):
            direct = pre + a @ L.T @ np.linalg.solve(L @ a @ L.T, v - L @ pre)
            assert np.allclose(y, direct, atol=1e-12)

    def test_clamp_is_a_no_op_on_satisfied_states(self):
        """Projecting the kernel's pinned states again leaves them put."""
        model = bs.brownian(dim=2).spec
        obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.4])], dim=2)
        z = np.array([0.4, 1.7])
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        batch = bs.simulate_batch(model, obs, grid, z, 14, np.arange(16))
        y = batch.states[:, grid.obs_indices[0]]
        ob = obs.items[0]
        ch = channel(gram(model.constant_sigma), ob.matrix)
        again = y + ch.pull(ob.value - y @ ob.matrix.T)
        assert np.allclose(again, y, atol=1e-14)

    def test_clamp_tolerance_skips_projection(self):
        """The state the kernel keeps from before the terminal
        projection has not been projected."""
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(1), 3,
                                  np.arange(16))
        miss = np.abs(batch.preclamp[0][:, 0] - 1.0)
        assert miss.max() > 1e-6          # nothing was projected
        assert miss.max() < 0.5           # but the guiding already converged


class TestCutoffVariant:
    def test_shares_noise_prefix_with_full_bridge(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        eps = 0.125
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3,
                             include_times=[1.0 - eps])
        full = bs.simulate_bridge(model, obs, grid, np.zeros(1), 77, 5)
        cut = bs.simulate_bridge(model, obs, grid, np.zeros(1), 77, 5,
                                 epsilon_cutoff=eps)
        js = grid.index_of(1.0 - eps)
        assert np.array_equal(full.states[:js + 1], cut.states[:js + 1])
        assert not np.isclose(cut.states[-1, 0], 1.0, atol=1e-6)
        assert np.isclose(full.states[-1, 0], 1.0, atol=1e-12)

    def test_cutoff_disables_terminal_projection(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        eps = 0.25
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3,
                             include_times=[1.0 - eps])
        cut = bs.simulate_bridge(model, obs, grid, np.zeros(1), 1, 0,
                                 epsilon_cutoff=eps)
        assert not cut.preclamp

    def test_cutoff_must_fit_in_windows(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs(window=0.2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        with pytest.raises(InvalidConfigurationError):
            bs.simulate_bridge(model, obs, grid, np.zeros(1), 1, 0,
                               epsilon_cutoff=0.2)

    def test_cutoff_requires_a_grid_node(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        with pytest.raises(InvalidConfigurationError) as e:
            bs.simulate_bridge(model, obs, grid, np.zeros(1), 1, 0,
                               epsilon_cutoff=0.1234)
        assert "node" in str(e.value)


class TestBatchBehavior:
    def test_unvalidated_observations_rejected(self):
        model = bs.brownian(dim=1).spec
        raw = bs.ObservationSet((bs.Observation(1.0, [[1.0]], [1.0]),))
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.01)
        with pytest.raises(InvalidObservationError):
            bs.simulate_batch(model, raw, grid, np.zeros(1), 1, [0])

    def test_path_ids_beyond_int64(self):
        """Ids the noise streams accept, including ones past int64, run
        through the batch kernel and are kept exactly."""
        model = bs.brownian(dim=2, sigma=[1.0, 1.5]).spec
        obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.3])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        ids = [3, 9, 2 ** 63 + 1]
        batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 21, ids)
        assert list(batch.path_ids) == ids
        for p, pid in enumerate(ids):
            path = bs.simulate_bridge(model, obs, grid, np.zeros(2), 21, pid)
            assert batch.states[p].tobytes() == path.states.tobytes()
            assert batch.preclamp[0][p].tobytes() == \
                path.preclamp[0].tobytes()

    @pytest.mark.parametrize("case", ["dense_row", "nondiagonal_sigma"])
    def test_dense_row_bits_do_not_depend_on_batch(self, case):
        """A path regenerated alone from (seed, path_id) is byte-equal to
        its row of a larger batch, for an observation row with two
        non-zero entries, and for a non-diagonal constant sigma observed
        through a coordinate row."""
        model, obs, grid, u = nondiagonal_sigma_setup()
        if case == "dense_row":
            model = bs.brownian(dim=2).spec
            obs = bs.validate([bs.Observation(1.0, [[0.6, 0.8]], [0.3])],
                              dim=2)
        batch = bs.simulate_batch(model, obs, grid, u, 4, [3, 9, 11])
        path = bs.simulate_bridge(model, obs, grid, u, 4, 9)
        assert batch.states[1].tobytes() == path.states.tobytes()
        assert batch.preclamp[0][1].tobytes() == path.preclamp[0].tobytes()

    def test_rows_select_every_field(self):
        """``rows`` keeps the selected paths of every per-path field, and
        hands back the batch itself when it keeps them all."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.0)
        batch = bs.simulate_batch(model, obs, grid, u, 5, np.arange(64))
        alive = batch.failed_step < 0
        assert 0 < alive.sum() < len(alive)
        assert batch.rows(np.ones(len(alive), dtype=bool)) is batch
        sub = batch.rows(alive)
        assert sub.grid is batch.grid
        for name in ("path_ids", "states", "failed_step", "drift"):
            assert np.array_equal(getattr(sub, name),
                                  getattr(batch, name)[alive]), name
        assert sorted(sub.preclamp) == sorted(batch.preclamp)
        for k, v in batch.preclamp.items():
            assert np.array_equal(sub.preclamp[k], v[alive])
        got, want = sub.channel_record, batch.channel_record
        for x, y in zip(got.precision + got.logdet,
                        want.precision + want.logdet):
            assert np.array_equal(x, y[alive])

    def test_blowup_raises_for_single_bridge(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x ** 3,
                             diffusion=lambda t, x: np.eye(1))
        obs = bs.validate([bs.Observation(5.0, [[1.0]], [0.0])], dim=1)
        grid = bs.build_grid(5.0, obs, dt_base=0.5, dt_min=0.1)
        with pytest.raises(NumericalBlowupError):
            bs.simulate_bridge(model, obs, grid, np.array([3.0]), 1, 0)

    def test_validate_flag(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: np.eye(1) * 4.0,
                             ellipticity_bound=2.0)
        obs = scalar_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.01)
        with pytest.raises(EllipticityViolationError):
            bs.simulate_bridge(model, obs, grid, np.zeros(1), 1, 0,
                               validate=True)

    def test_full_observation_of_two_dims(self):
        model = bs.brownian(dim=2).spec
        obs = single_full_obs(1.0, [0.3, -0.2], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 2,
                                  np.arange(32))
        assert np.abs(batch.states[:, -1] - [0.3, -0.2]).max() <= 1e-12
