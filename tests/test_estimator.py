"""Ensemble runner and self-normalized estimation."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim.errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    UnstableRunError,
)
from bridgesim.estimator import CHUNK_SIZE, weighted_mean_se
from bridgesim.weights import batch_breakdown
from conftest import state_dependent_setup


def brownian_setup(dt_base=0.02, dt_min=1e-3, value=1.0):
    model = bs.brownian(dim=1).spec
    obs = bs.validate([bs.Observation(1.0, [[1.0]], [value])], dim=1)
    grid = bs.build_grid(1.0, obs, dt_base=dt_base, dt_min=dt_min,
                         include_times=[0.5])
    return model, obs, grid


class TestRunEnsemble:
    def test_single_path(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 1, seed=4)
        assert ens.size == 1
        w, _, ess = bs.normalize_log_weights(ens.log_weights)
        assert np.allclose(w, [1.0])
        assert np.isclose(ess, 1.0)

    def test_repeat_runs_are_bitwise_identical(self):
        model, obs, grid = brownian_setup()
        a = bs.run_ensemble(model, obs, grid, np.zeros(1), 300, seed=9)
        b = bs.run_ensemble(model, obs, grid, np.zeros(1), 300, seed=9)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.log_weights, b.log_weights)
        assert np.array_equal(a.path_ids, b.path_ids)

    def test_thread_count_does_not_change_results(self):
        model, obs, grid = brownian_setup(dt_base=0.05)
        n = CHUNK_SIZE + 700    # forces two chunks
        serial = bs.run_ensemble(model, obs, grid, np.zeros(1), n, seed=2,
                                 threads=1)
        threaded = bs.run_ensemble(model, obs, grid, np.zeros(1), n, seed=2,
                                   threads=4)
        assert np.array_equal(serial.states, threaded.states)
        assert np.array_equal(serial.log_weights, threaded.log_weights)
        for name, arr in serial.breakdown.items():
            assert np.array_equal(arr, threaded.breakdown[name])

    def test_brownian_ess_is_full(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 500, seed=3)
        _, _, ess = bs.normalize_log_weights(ens.log_weights)
        assert ess / ens.size >= 0.999

    def test_breakdown_totals_match_log_weights(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 64, seed=6)
        total = sum(ens.breakdown[name].sum(axis=1)
                    for name in ("log_eta", "boundary", "drift_term",
                                 "dA_term", "covar_term"))
        total = total + ens.breakdown["girsanov"]
        assert np.allclose(total, ens.log_weights, atol=1e-12)

    def test_unstable_run_raises(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x ** 3,
                             diffusion=lambda t, x: np.eye(1))
        obs = bs.validate([bs.Observation(5.0, [[1.0]], [0.0])], dim=1)
        grid = bs.build_grid(5.0, obs, dt_base=0.5, dt_min=0.1)
        with pytest.raises(UnstableRunError):
            bs.run_ensemble(model, obs, grid, np.array([2.5]), 100, seed=1)

    def test_argument_validation(self):
        model, obs, grid = brownian_setup()
        with pytest.raises(InvalidConfigurationError):
            bs.run_ensemble(model, obs, grid, np.zeros(1), 0, seed=1)
        with pytest.raises(InvalidConfigurationError):
            bs.run_ensemble(model, obs, grid, np.zeros(1), 10, seed=1,
                            threads=0)

    def test_epsilon_cutoff_rejected(self):
        """The weights assume full guidance and the terminal projection,
        so cut-off bridges cannot be weighted."""
        model, obs, grid = brownian_setup()
        cfg = bs.BridgeConfig(epsilon_cutoff=0.1)
        with pytest.raises(InvalidConfigurationError, match="cutoff"):
            bs.run_ensemble(model, obs, grid, np.zeros(1), 10, seed=1,
                            cfg=cfg)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_array_sigma_matches_callable(self, threads):
        """An array diffusion takes the factor-once route; it must give
        the bits of the equivalent callable, which factors per step."""
        sigma = np.array([[1.0, 0.0], [0.4, 0.9]])
        f_diag = np.array([-1.0, -0.5])

        def drift(t, x):
            return x * f_diag

        def bounded(t, x):
            return np.tanh(x * f_diag)

        def remainder(t, x):
            return x * f_diag - np.tanh(x * f_diag)

        def spec(diffusion):
            return bs.ModelSpec(dim=2, drift=drift, diffusion=diffusion,
                                drift_split=(bounded, remainder))

        obs = bs.validate([bs.Observation(0.5, [[0.6, 0.8]], [0.3]),
                           bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
        u = np.array([0.5, -0.3])
        n_paths = CHUNK_SIZE + 100
        const = bs.run_ensemble(spec(sigma), obs, grid, u, n_paths, seed=3,
                                threads=threads)
        ref = bs.run_ensemble(spec(lambda t, x: sigma), obs, grid, u,
                              n_paths, seed=3, threads=threads)
        assert const.states.tobytes() == ref.states.tobytes()
        assert const.log_weights.tobytes() == ref.log_weights.tobytes()
        assert sorted(const.preclamp) == sorted(ref.preclamp) == [0, 1]
        for k in ref.preclamp:
            assert const.preclamp[k].tobytes() == ref.preclamp[k].tobytes()
        assert sorted(const.breakdown) == sorted(ref.breakdown)
        for name, arr in ref.breakdown.items():
            assert const.breakdown[name].tobytes() == arr.tobytes(), name
        assert np.any(ref.breakdown["girsanov"] != 0.0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_kernel_record_matches_rebuilt_weights(self, threads):
        """Chunks weighted from the kernel's channel record, with failed
        paths masked out of it, give the bytes of weighting each chunk's
        retained states with a record rebuilt from them."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
        n_paths = CHUNK_SIZE + 100
        ens = bs.run_ensemble(model, obs, grid, u, n_paths, seed=5,
                              threads=threads)
        assert 0 < ens.n_failed <= 0.01 * n_paths
        parts = []
        for start in range(0, n_paths, CHUNK_SIZE):
            ids = np.arange(start, min(start + CHUNK_SIZE, n_paths))
            sim = bs.simulate_batch(model, obs, grid, u, 5, ids)
            alive = sim.failed_step < 0
            terms, issues = batch_breakdown(
                model, obs, grid, sim.states[alive],
                {k: v[alive] for k, v in sim.preclamp.items()})
            assert not issues
            parts.append(terms)
        assert sorted(ens.breakdown) == sorted(parts[0])
        for name, arr in ens.breakdown.items():
            want = np.concatenate([t[name] for t in parts])
            assert arr.tobytes() == want.tobytes(), name

    def test_array_sigma_is_stored_read_only(self):
        sigma = np.eye(2)
        model = bs.ModelSpec(dim=2, drift=lambda t, x: np.zeros_like(x),
                             diffusion=sigma)
        assert not model.diffusion.flags.writeable
        sigma[0, 0] = 5.0
        assert model.diffusion[0, 0] == 1.0
        with pytest.raises(InvalidConfigurationError):
            bs.ModelSpec(dim=2, drift=lambda t, x: x, diffusion=np.eye(3))

    def test_paths_view_shares_data(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 8, seed=5)
        paths = ens.paths
        assert len(paths) == 8
        assert paths[3].state_at(1.0)[0] == ens.states[3, -1, 0]
        assert 0 in paths[0].preclamp


class TestEstimate:
    def test_constant_functional(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 128, seed=8)
        rep = bs.estimate(ens, lambda p: 1.0)
        assert np.isclose(rep.value[0], 1.0)
        assert np.isclose(rep.std_error[0], 0.0, atol=1e-12)
        assert rep.n_paths == 128
        assert rep.n_failed == 0

    def test_bridge_midpoint_mean(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 4000, seed=12)
        rep = bs.estimate(ens, bs.coordinate_at(0.5, 0))
        assert abs(rep.value[0] - 0.5) < 3.0 * rep.std_error[0]
        assert rep.std_error[0] < 0.02

    def test_vector_functional(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 256, seed=13)
        rep = bs.estimate(ens, lambda p: np.array([p.state_at(0.5)[0],
                                                   p.state_at(1.0)[0]]))
        assert rep.value.shape == (2,)
        assert np.isclose(rep.value[1], 1.0, atol=1e-12)
        assert rep.std_error[1] < 1e-12

    def test_matches_direct_weighted_mean(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 200, seed=14)
        w, _, _ = bs.normalize_log_weights(ens.log_weights)
        idx = grid.index_of(0.5)
        direct = float(w @ ens.states[:, idx, 0])
        rep = bs.estimate(ens, bs.coordinate_at(0.5, 0))
        assert np.isclose(rep.value[0], direct, atol=1e-12)

    def test_weighted_mean_se_frozen_example(self):
        w = np.array([0.75, 0.25])
        f = np.array([[2.0], [6.0]])
        value, se = weighted_mean_se(w, f)
        assert np.isclose(value[0], 3.0)
        # sqrt(0.75^2 1^2 + 0.25^2 3^2) = sqrt(1.125)
        assert np.isclose(se[0], np.sqrt(1.125))


class TestConditionalMoments:
    def test_bridge_variance_matches_oracle(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 4000, seed=21)
        mom = bs.conditional_moments(ens, bs.coordinate_at(0.5, 0))
        assert abs(mom.mean - 0.5) < 3.0 * mom.mean_se
        assert abs(mom.var - 0.25) < 3.0 * mom.var_se
        assert mom.ess > 3999.0

    def test_degenerate_functional(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 64, seed=22)
        mom = bs.conditional_moments(ens, bs.coordinate_at(1.0, 0))
        assert np.isclose(mom.mean, 1.0, atol=1e-12)
        assert np.isclose(mom.var, 0.0, atol=1e-20)


class TestStateDependentSigmaCrossRoute:
    def test_agrees_with_conditioning_by_rejection(self):
        """For a state-dependent diffusion no closed form exists, so
        compare against brute force: keep unconditioned paths landing in
        a narrow band around the observed value.  The band bias is
        O(band^2), well inside the combined tolerance."""
        from bridgesim.bridge import simulate_free_batch

        def diffusion(t, x):
            return (1.0 + 0.25 * np.sin(x))[..., None]

        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=diffusion)
        target = 0.5
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [target])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                             include_times=[0.5])
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 4000, seed=31)
        rep = bs.estimate(ens, bs.coordinate_at(0.5, 0))

        free_grid = bs.build_grid(1.0, None, dt_base=0.01, dt_min=0.01,
                                  include_times=[0.5])
        idx = free_grid.index_of(0.5)
        band = 0.05
        kept = []
        for start in range(0, 200_000, 50_000):
            batch = simulate_free_batch(
                model, free_grid, np.zeros(1), 77,
                np.arange(start, start + 50_000))
            states, failed = batch.states, batch.failed_step
            assert not (failed >= 0).any()
            hit = np.abs(states[:, -1, 0] - target) < band
            kept.append(states[hit, idx, 0])
        kept = np.concatenate(kept)
        assert kept.size > 5000
        ref = kept.mean()
        ref_se = kept.std() / np.sqrt(kept.size)
        combined = np.hypot(rep.std_error[0], ref_se)
        assert abs(rep.value[0] - ref) < 3.0 * combined + 0.01


class TestStateDependentSigmaDiscretization:
    def test_halving_the_steps_moves_the_estimate_little(self):
        """dA_term and covar_term are first-order sums; under a
        state-dependent sigma and partial observations, halving dt_base
        and dt_min must move E[x(0.55)] by less than 3 combined SEs in
        every coordinate (two independent estimates differ by under 1 SE
        only about half the time)."""
        estimates = []
        for (dt_base, dt_min), seed in (((0.02, 2e-3), 101),
                                        ((0.01, 1e-3), 202)):
            model, obs, grid, u = state_dependent_setup(dt_base=dt_base,
                                                        dt_min=dt_min)
            ens = bs.run_ensemble(model, obs, grid, u, 4000, seed=seed)
            estimates.append(bs.estimate(ens, lambda p: p.state_at(0.55)))
        coarse, fine = estimates
        combined = np.hypot(coarse.std_error, fine.std_error)
        assert np.all(np.abs(coarse.value - fine.value) < 3.0 * combined)
