"""Path weights: degenerate cases, a loop-based reference implementation,
the drift-remainder correction, and normalization."""
import dataclasses

import numpy as np
import pytest

import bridgesim as bs
from bridgesim.errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    InvalidObservationError,
    WeightOverflowError,
)
from bridgesim.sde import diffusion_values, drift_values
from bridgesim.weights import batch_breakdown, channel_record
from conftest import state_dependent_setup


def reference_breakdown(model, obs, grid, states, preclamp):
    """Plain-loop reimplementation of the per-observation weight terms
    for one path, kept deliberately close to the defining sums."""
    out = {}
    for k, ob in enumerate(obs.items):
        L = ob.matrix
        j0 = grid.window_start_indices[k]
        j1 = grid.obs_indices[k]
        t_obs = grid.nodes[j1]

        def precision(t, state):
            sig = diffusion_values(model.diffusion, t, state[None, :],
                                   model.dim)
            if sig.ndim == 3:
                sig = sig[0]
            a = sig @ sig.T
            return np.linalg.inv(L @ a @ L.T)

        zs = [states[j] for j in range(j0, j1)]
        zs.append(preclamp[k] if k in preclamp else states[j1])
        prec = [precision(grid.nodes[j0 + i], zs[i]) for i in range(len(zs))]
        resid = [L @ z - ob.value for z in zs]

        boundary = -resid[0] @ prec[0] @ resid[0] / (2.0 * ob.window)
        drift = 0.0
        d_prec = 0.0
        covar = 0.0
        for i in range(j1 - j0):
            t = grid.nodes[j0 + i]
            dt = grid.nodes[j0 + i + 1] - t
            denom = t_obs - t
            bhat = drift_values(model.effective_drift, t,
                                states[j0 + i][None, :], model.dim)[0]
            drift += -resid[i] @ prec[i] @ (L @ bhat) * dt / denom
            dmat = prec[i + 1] - prec[i]
            d_prec += -resid[i] @ dmat @ resid[i] / (2.0 * denom)
            douter = np.outer(resid[i + 1], resid[i + 1]) \
                - np.outer(resid[i], resid[i])
            covar += -float(np.sum(dmat * douter)) / (2.0 * denom)

        post = precision(t_obs, states[j1])
        log_eta = 0.5 * float(np.log(np.linalg.det(post)))
        out[k] = dict(log_eta=log_eta, boundary=float(boundary),
                      drift_term=float(drift), dA_term=float(d_prec),
                      covar_term=float(covar))
    return out


def state_dependent_scalar():
    def diffusion(t, x):
        return (1.0 + 0.25 * np.sin(x))[..., None]

    return bs.ModelSpec(dim=1, drift=lambda t, x: 0.5 - 0.3 * x,
                        diffusion=diffusion)


def state_dependent_planar():
    def diffusion(t, x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + 0.2 * np.tanh(x[..., 0])
        out[..., 0, 1] = 0.1
        out[..., 1, 1] = 1.5
        return out

    def drift(t, x):
        return np.stack([-x[..., 0], 0.3 - 0.5 * x[..., 1]], axis=-1)

    return bs.ModelSpec(dim=2, drift=drift, diffusion=diffusion)


class TestDegenerateCases:
    def test_brownian_weights_are_constant(self):
        """Identity diffusion, zero drift, full-span window: every term
        except the boundary vanishes and the boundary is path-free."""
        model = bs.brownian(dim=2).spec
        v = np.array([0.3, -0.2])
        obs = bs.validate([bs.Observation(1.0, np.eye(2), v)], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 5,
                                  np.arange(32))
        for i in range(32):
            path = bs.PathSample(grid=grid, states=batch.states[i], seed_id=i,
                                 preclamp={0: batch.preclamp[0][i]})
            bd = bs.log_weight(path, model, obs)
            assert bd.log_eta[0] == 0.0
            assert np.isclose(bd.boundary[0], -float(v @ v) / 2.0, atol=1e-14)
            assert bd.drift_term[0] == 0.0
            assert bd.dA_term[0] == 0.0
            assert bd.covar_term[0] == 0.0
            assert bd.girsanov_term == 0.0
            assert np.isclose(bd.total, -float(v @ v) / 2.0, atol=1e-14)

    def test_constant_diffusion_kills_variation_terms(self, rng):
        """Any constant sigma: the precision never moves, so both
        variation terms are exactly zero while drift terms are not."""
        sigma = np.array([[1.0, 0.2], [0.0, 0.8]])
        model = bs.ModelSpec(dim=2, drift=lambda t, x: -x,
                             diffusion=lambda t, x: sigma)
        obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.5])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        path = bs.simulate_bridge(model, obs, grid, np.zeros(2), 19, 3)
        bd = bs.log_weight(path, model, obs)
        assert bd.dA_term[0] == 0.0
        assert bd.covar_term[0] == 0.0
        assert bd.drift_term[0] != 0.0


class TestReferenceAgreement:
    def test_scalar_state_dependent_sigma(self, rng):
        model = state_dependent_scalar()
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.8],
                                          window=0.5)], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.02)
        path = bs.simulate_bridge(model, obs, grid, np.array([0.2]), 7, 11)
        bd = bs.log_weight(path, model, obs)
        ref = reference_breakdown(model, obs, grid, path.states,
                                  path.preclamp)[0]
        assert np.isclose(bd.log_eta[0], ref["log_eta"], atol=1e-12)
        assert np.isclose(bd.boundary[0], ref["boundary"], atol=1e-12)
        assert np.isclose(bd.drift_term[0], ref["drift_term"], atol=1e-12)
        assert np.isclose(bd.dA_term[0], ref["dA_term"], atol=1e-12)
        assert np.isclose(bd.covar_term[0], ref["covar_term"], atol=1e-12)
        # the variation terms are genuinely active here
        assert abs(bd.dA_term[0]) > 0.0
        assert abs(bd.covar_term[0]) > 0.0

    def test_planar_two_observations(self, rng):
        model = state_dependent_planar()
        obs = bs.validate([
            bs.Observation(0.5, [[1.0, 0.0]], [0.3], window=0.3),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2], window=0.4),
        ], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.02)
        path = bs.simulate_bridge(model, obs, grid, np.zeros(2), 13, 4)
        bd = bs.log_weight(path, model, obs)
        ref = reference_breakdown(model, obs, grid, path.states,
                                  path.preclamp)
        for k in (0, 1):
            assert np.isclose(bd.log_eta[k], ref[k]["log_eta"], atol=1e-12)
            assert np.isclose(bd.boundary[k], ref[k]["boundary"], atol=1e-12)
            assert np.isclose(bd.drift_term[k], ref[k]["drift_term"],
                              atol=1e-12)
            assert np.isclose(bd.dA_term[k], ref[k]["dA_term"], atol=1e-12)
            assert np.isclose(bd.covar_term[k], ref[k]["covar_term"],
                              atol=1e-12)

    def test_hand_built_states(self, rng):
        """The weight is a pure path functional: feed synthetic states."""
        model = state_dependent_scalar()
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.8],
                                          window=0.5)], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.25, dt_min=0.05)
        states = rng.standard_normal((len(grid.nodes), 1))
        states[-1, 0] = 0.8
        pre = rng.standard_normal(1) * 0.1 + 0.8
        path = bs.PathSample(grid=grid, states=states, seed_id=0,
                             preclamp={0: pre})
        bd = bs.log_weight(path, model, obs)
        ref = reference_breakdown(model, obs, grid, states, {0: pre})[0]
        for name in ("log_eta", "boundary", "drift_term", "dA_term",
                     "covar_term"):
            assert np.isclose(getattr(bd, name)[0], ref[name], atol=1e-12)


def assert_same_record(got, want):
    assert len(got.precision) == len(want.precision) == len(want.logdet)
    for x, y in zip(got.precision + got.logdet,
                    want.precision + want.logdet):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestChannelRecord:
    """The kernel keeps the channel precision behind each pull and
    projection; it must be, byte for byte, the record the weights
    rebuild from the states, and weight the paths identically.  So must
    the guiding drift the kernel evaluated at each step."""

    def check(self, model, obs, grid, u, ids, rows=None):
        batch = bs.simulate_batch(model, obs, grid, u, 5, ids)
        if rows is not None:
            batch = batch.rows(rows)
        record = batch.channel_record
        assert_same_record(record, channel_record(model, obs, batch))
        kept, _ = batch_breakdown(model, obs, batch)
        rebuilt, _ = batch_breakdown(model, obs, dataclasses.replace(
            batch, channel_record=None, drift=None))
        for name, arr in rebuilt.items():
            assert kept[name].tobytes() == arr.tobytes(), name
        return record

    def test_state_dependent_sigma(self):
        model, obs, grid, u = state_dependent_setup()
        record = self.check(model, obs, grid, u, np.arange(40))
        assert [p.shape[-1] for p in record.precision] == [1, 2]

    def test_callable_shared_sigma(self):
        """A callable returning one (n, n) sigma factors one shared
        channel per step."""
        sigma = np.array([[1.0, 0.2], [0.0, 1.3]])
        model = bs.ModelSpec(dim=2, drift=lambda t, x: np.sin(x),
                             diffusion=lambda t, x: sigma)
        obs = bs.validate([bs.Observation(0.5, [[0.6, 0.8]], [0.2]),
                           bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        self.check(model, obs, grid, np.array([0.5, -0.3]), np.arange(40))

    def test_rows_of_blown_up_batch(self):
        model, obs, grid, u = state_dependent_setup(blowup_at=3.0)
        ids = np.arange(64)
        failed = bs.simulate_batch(model, obs, grid, u, 5, ids).failed_step
        alive = failed < 0
        assert 0 < alive.sum() < len(ids)
        self.check(model, obs, grid, u, ids, rows=alive)

    def test_kept_only_for_full_bridges_under_callable_sigma(self):
        model, obs, grid, u = state_dependent_setup()
        cut = grid.nodes[-1] - grid.nodes[-2]
        assert bs.simulate_batch(model, obs, grid, u, 5, [0],
                                 epsilon_cutoff=cut).channel_record is None
        array = bs.ou(dim=3).spec
        assert bs.simulate_batch(array, obs, grid, u, 5, [0]) \
            .channel_record is None


class TestGirsanov:
    def test_requires_split(self):
        model = bs.brownian(dim=1).spec
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        path = bs.PathSample(grid=grid, states=np.zeros((11, 1)), seed_id=0)
        with pytest.raises(InvalidConfigurationError):
            bs.girsanov_correction(path, model)

    def test_zero_remainder_gives_zero(self):
        model = bs.ModelSpec(
            dim=1, drift=lambda t, x: -x,
            diffusion=lambda t, x: np.eye(1),
            drift_split=(lambda t, x: -x, lambda t, x: np.zeros_like(x)))
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        path = bs.PathSample(grid=grid,
                             states=np.linspace(0, 1, 11)[:, None],
                             seed_id=0)
        assert bs.girsanov_correction(path, model) == 0.0

    def test_constant_remainder_telescopes(self):
        """b_check = c constant along a straight line: the left-point sums
        collapse to c* a^-1 (z - u) - T c* a^-1 c / 2 exactly."""
        sigma = np.diag([0.5, 2.0])
        c = np.array([0.7, -0.4])
        model = bs.ModelSpec(
            dim=2, drift=lambda t, x: np.broadcast_to(c, x.shape),
            diffusion=lambda t, x: sigma,
            drift_split=(lambda t, x: np.zeros_like(x),
                         lambda t, x: np.broadcast_to(c, x.shape)))
        grid = bs.build_grid(2.0, None, dt_base=0.1, dt_min=0.1)
        u = np.array([0.1, 0.3])
        z = np.array([1.4, -0.9])
        line = u + np.linspace(0.0, 1.0, len(grid.nodes))[:, None] * (z - u)
        path = bs.PathSample(grid=grid, states=line, seed_id=0)
        ainv = np.linalg.inv(sigma @ sigma.T)
        expect = c @ ainv @ (z - u) - 0.5 * c @ ainv @ c * 2.0
        assert np.isclose(bs.girsanov_correction(path, model), expect,
                          atol=1e-12)

    def test_double_well_weights_finite(self):
        built = bs.double_well(dim=1, bound=0.3)
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [1.6])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
        path = bs.simulate_bridge(built.spec, obs, grid, np.array([-1.0]),
                                  3, 8)
        bd = bs.log_weight(path, built.spec, obs)
        assert np.isfinite(bd.total)
        assert bd.girsanov_term != 0.0


class TestOverflowDetection:
    def test_nonfinite_state_in_window(self):
        model = bs.brownian(dim=1).spec
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.5])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.25, dt_min=0.05)
        states = np.zeros((len(grid.nodes), 1))
        states[len(grid.nodes) // 2, 0] = np.inf
        path = bs.PathSample(grid=grid, states=states, seed_id=0)
        with pytest.raises(WeightOverflowError) as e:
            bs.log_weight(path, model, obs)
        assert e.value.term in ("boundary", "drift_term", "dA_term",
                                "covar_term", "log_eta")

    def test_unvalidated_observations_rejected(self):
        model = bs.brownian(dim=1).spec
        raw = bs.ObservationSet((bs.Observation(1.0, [[1.0]], [0.5]),))
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        path = bs.PathSample(grid=grid, states=np.zeros((11, 1)), seed_id=0)
        with pytest.raises(InvalidObservationError):
            bs.log_weight(path, model, raw)


class TestNormalize:
    def test_two_point_example(self):
        w, log_norm, ess = bs.normalize_log_weights(np.log([3.0, 1.0]))
        assert np.allclose(w, [0.75, 0.25])
        assert np.isclose(log_norm, np.log(4.0))
        assert np.isclose(ess, 1.0 / (0.75 ** 2 + 0.25 ** 2))

    def test_minus_infinity_is_admitted(self):
        w, log_norm, ess = bs.normalize_log_weights([0.0, -np.inf])
        assert np.allclose(w, [1.0, 0.0])
        assert np.isclose(log_norm, 0.0)
        assert np.isclose(ess, 1.0)

    def test_all_minus_infinity_rejected(self):
        with pytest.raises(DegenerateEnsembleError):
            bs.normalize_log_weights([-np.inf, -np.inf])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateEnsembleError):
            bs.normalize_log_weights([])

    def test_nan_and_plus_infinity_rejected(self):
        with pytest.raises(ValueError):
            bs.normalize_log_weights([0.0, np.nan])
        with pytest.raises(ValueError):
            bs.normalize_log_weights([0.0, np.inf])

    def test_shift_invariance(self, rng):
        logw = rng.standard_normal(50)
        w1, n1, e1 = bs.normalize_log_weights(logw)
        w2, n2, e2 = bs.normalize_log_weights(logw + 123.5)
        assert np.allclose(w1, w2, atol=1e-12)
        assert np.isclose(e1, e2, atol=1e-9)
        assert np.isclose(n2 - n1, 123.5, atol=1e-9)

    def test_extreme_magnitudes_stay_stable(self):
        w, log_norm, ess = bs.normalize_log_weights([-1e6, -1e6 + 1.0])
        assert np.isclose(w.sum(), 1.0)
        assert np.isclose(w[1] / w[0], np.e)
        assert np.isfinite(log_norm)
