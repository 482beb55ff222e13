"""Closed-form Gaussian reference: marginals, joint laws, conditioning."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim.errors import (
    DegenerateConditioningError,
    InvalidConfigurationError,
)


def brownian_lm(dim=1, u=0.0):
    return bs.LinearModel(F_diag=np.zeros(dim), c=np.zeros(dim),
                          sigma=1.0, u=np.full(dim, float(u)))


class TestJointLaw:
    def test_brownian_covariance_is_min(self):
        lm = brownian_lm()
        times = np.array([0.3, 0.7, 1.9])
        law = bs.joint_law(lm, times)
        expect = np.minimum.outer(times, times)
        assert np.allclose(law.cov, expect, atol=1e-14)
        assert np.allclose(law.mean, 0.0)

    def test_drifted_brownian_mean_is_linear(self):
        lm = bs.LinearModel(F_diag=[0.0], c=[2.0], sigma=0.5, u=[1.0])
        law = bs.joint_law(lm, [0.5, 2.0])
        assert np.allclose(law.mean, [1.0 + 2.0 * 0.5, 1.0 + 2.0 * 2.0])
        assert np.allclose(law.cov[0, 0], 0.25 * 0.5)
        assert np.allclose(law.cov[0, 1], 0.25 * 0.5)

    def test_ou_marginal_variance_closed_form(self):
        lm = bs.LinearModel(F_diag=[-1.0], c=[0.0], sigma=1.0, u=[1.0])
        law = bs.joint_law(lm, [0.5, 1.0])
        v = lambda t: (1.0 - np.exp(-2.0 * t)) / 2.0
        assert np.allclose(law.mean, [np.exp(-0.5), np.exp(-1.0)])
        assert np.allclose(law.cov[0, 0], v(0.5))
        assert np.allclose(law.cov[1, 1], v(1.0))
        # lag covariance decays with the state feedback
        assert np.allclose(law.cov[0, 1], v(0.5) * np.exp(-0.5))

    def test_ou_with_offset_mean(self):
        # dx = (-x + 2) dt + dw from 0 relaxes toward 2
        lm = bs.LinearModel(F_diag=[-1.0], c=[2.0], sigma=1.0, u=[0.0])
        law = bs.joint_law(lm, [0.7])
        assert np.allclose(law.mean[0], 2.0 * (1.0 - np.exp(-0.7)))

    def test_matches_moment_propagation_on_fine_grid(self):
        """Independent check: propagate mean and covariance of the linear
        SDE with explicit Euler recursions on a fine grid."""
        f = np.array([-1.0, -0.5])
        c = np.array([0.3, -0.1])
        sigma = np.diag([1.0, 1.5])
        u = np.array([0.4, -0.2])
        lm = bs.LinearModel(F_diag=f, c=c, sigma=sigma, u=u)
        times = [0.5, 1.0]
        law = bs.joint_law(lm, times)

        dt = 1e-4
        q = sigma @ sigma.T
        fmat = np.diag(f)
        m = u.copy()
        # V: Cov(x_t, x_t), C: Cov(x_{0.5}, x_t) once t passes 0.5
        v = np.zeros((2, 2))
        cross = None
        v_half = None
        m_half = None
        t = 0.0
        while t < 1.0 - dt / 2:
            m = m + (fmat @ m + c) * dt
            v = v + (fmat @ v + v @ fmat.T + q) * dt
            if cross is not None:
                cross = cross + cross @ fmat.T * dt
            t += dt
            if abs(t - 0.5) < dt / 2 and cross is None:
                v_half, m_half, cross = v.copy(), m.copy(), v.copy()
        assert np.allclose(law.mean[:2], m_half, atol=1e-3)
        assert np.allclose(law.mean[2:], m, atol=1e-3)
        assert np.allclose(law.cov[:2, :2], v_half, atol=1e-3)
        assert np.allclose(law.cov[2:, 2:], v, atol=1e-3)
        assert np.allclose(law.cov[:2, 2:], cross, atol=1e-3)

    def test_monte_carlo_agreement(self):
        """Unconditioned Euler simulation matches the law's marginals."""
        from bridgesim.bridge import simulate_free_batch

        built = bs.ou(dim=1, f_diag=-1.0, offset=0.5)
        lm = built.linear_reference(np.array([1.0]))
        law = bs.joint_law(lm, [1.0])
        grid = bs.build_grid(1.0, None, dt_base=1e-3, dt_min=1e-3)
        batch = simulate_free_batch(
            built.spec, grid, np.array([1.0]), 99, np.arange(4000))
        states, failed = batch.states, batch.failed_step
        assert not (failed >= 0).any()
        samples = states[:, -1, 0]
        se_mean = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean() - law.mean[0]) < 4 * se_mean
        assert abs(samples.var() - law.cov[0, 0]) < 0.05

    def test_time_validation(self):
        lm = brownian_lm()
        with pytest.raises(InvalidConfigurationError):
            bs.joint_law(lm, [])
        with pytest.raises(InvalidConfigurationError):
            bs.joint_law(lm, [0.5, 0.5])
        with pytest.raises(InvalidConfigurationError):
            bs.joint_law(lm, [-0.1, 0.5])

    def test_singular_sigma_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            bs.LinearModel(F_diag=[0.0, 0.0], c=[0.0, 0.0],
                           sigma=np.array([[1.0, 0.0], [1.0, 0.0]]),
                           u=[0.0, 0.0])


class TestCondition:
    def test_full_observation_pins_exactly(self):
        lm = brownian_lm(dim=2)
        law = bs.joint_law(lm, [1.0])
        target = np.array([0.3, -0.2])
        cond = bs.condition(law, np.eye(2), target)
        assert np.allclose(cond.mean, target, atol=1e-12)
        assert np.allclose(cond.cov, 0.0, atol=1e-12)

    def test_brownian_bridge_formulas(self):
        """Conditioning Brownian motion on its endpoint yields the bridge:
        mean v t / T, variance t (T - t) / T."""
        lm = brownian_lm()
        times = np.array([0.25, 0.5, 0.75, 1.0])
        law = bs.joint_law(lm, times)
        sel = np.zeros((1, 4))
        sel[0, 3] = 1.0
        cond = bs.condition(law, sel, [1.0])
        assert np.allclose(cond.mean, times, atol=1e-12)
        expect_var = times * (1.0 - times)
        assert np.allclose(np.diag(cond.cov), expect_var, atol=1e-12)

    def test_partial_observation_two_dim_example(self):
        """Planar Brownian motion with one coordinate observed midway and
        the other at the end: each coordinate is an independent bridge."""
        lm = brownian_lm(dim=2)
        times = np.array([0.25, 0.5, 1.0])
        law = bs.joint_law(lm, times)
        obs = bs.validate(bs.ObservationSet((
            bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
        )), dim=2)
        sel, val = bs.observation_selector(times, 2, obs)
        cond = bs.condition(law, sel, val)
        # first coordinate at t=0.25 bridges 0 -> 0.3 over [0, 0.5]
        assert abs(cond.mean[0] - 0.15) < 1e-12
        # second coordinate at t=0.5 bridges 0 -> -0.2 over [0, 1]
        assert abs(cond.mean[3] - (-0.1)) < 1e-12
        # pinned combinations have zero residual variance
        assert abs(cond.mean[2] - 0.3) < 1e-12
        assert abs(cond.cov[2, 2]) < 1e-12
        assert abs(cond.cov[5, 5]) < 1e-12
        # unobserved coordinate variances follow the bridge profile
        assert abs(cond.cov[0, 0] - 0.25 * 0.25 / 0.5) < 1e-12
        assert abs(cond.cov[3, 3] - 0.5 * 0.5) < 1e-12

    def test_conditioning_is_idempotent(self):
        lm = brownian_lm(dim=2)
        law = bs.joint_law(lm, [1.0])
        sel = np.array([[1.0, 0.0]])
        once = bs.condition(law, sel, [0.7])
        twice = bs.condition(once, sel, [0.7])
        assert np.allclose(once.mean, twice.mean, atol=1e-9)
        assert np.allclose(once.cov, twice.cov, atol=1e-9)

    def test_degenerate_direction_with_new_value_rejected(self):
        lm = brownian_lm(dim=2)
        law = bs.joint_law(lm, [1.0])
        sel = np.array([[1.0, 0.0]])
        once = bs.condition(law, sel, [0.7])
        with pytest.raises(DegenerateConditioningError):
            bs.condition(once, sel, [0.9])

    def test_nonfinite_value_rejected(self):
        law = bs.joint_law(brownian_lm(dim=2), [1.0])
        with pytest.raises(InvalidConfigurationError, match="finite"):
            bs.condition(law, [[1.0, 0.0]], [np.nan])

    # inf * 0 in the law's products warns before the check raises
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
    def test_nonfinite_covariance_rejected(self, entry):
        """An inf in the innovation, or in the gain of an unobserved
        coordinate, is rejected rather than spread into the result."""
        law = bs.joint_law(brownian_lm(dim=2), [1.0])
        cov = law.cov.copy()
        cov[entry] = cov[entry[::-1]] = np.inf
        with pytest.raises(InvalidConfigurationError, match="finite"):
            bs.condition(bs.GaussianLaw(law.mean, cov), [[1.0, 0.0]], [0.3])

    def test_dimension_mismatch(self):
        lm = brownian_lm()
        law = bs.joint_law(lm, [1.0])
        with pytest.raises(InvalidConfigurationError):
            bs.condition(law, np.eye(3), [0.0, 0.0, 0.0])


class TestObservationSelector:
    def test_stacks_rows_at_matching_blocks(self):
        obs = bs.validate(bs.ObservationSet((
            bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
        )), dim=2)
        sel, val = bs.observation_selector([0.5, 1.0], 2, obs)
        assert sel.shape == (2, 4)
        assert np.allclose(sel[0], [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(sel[1], [0.0, 0.0, 0.0, 1.0])
        assert np.allclose(val, [0.3, -0.2])

    def test_missing_time_is_an_error(self):
        obs = bs.validate(bs.ObservationSet((
            bs.Observation(0.75, [[1.0]], [0.3]),)), dim=1)
        with pytest.raises(InvalidConfigurationError):
            bs.observation_selector([0.5, 1.0], 1, obs)
