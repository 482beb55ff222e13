"""Observation validation and the projection algebra."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgesim as bs
from bridgesim.errors import EllipticityViolationError, InvalidObservationError
from bridgesim.observations import channel, channel_precision, guide_pull
from bridgesim.sde import (block_normals, diffusion_values, drift_values,
                           matvec, product)
from conftest import channel_bundle, rand_orthonormal, rand_spd


def step_pulls(model, obs, grid, u, seed, ids):
    """Guiding pull of every kernel step, recovered from the Euler update
    as (x_{j+1} - x_j - sigma xi_j sqrt(dt)) / dt - b(t_j, x_j).

    A step that lands on an observation node also carries the terminal
    projection.
    """
    batch = bs.simulate_batch(model, obs, grid, u, seed, ids)
    xi = block_normals(seed, ids, grid.n_steps, model.dim)
    pulls = np.empty_like(batch.states[:, 1:])
    for j in range(grid.n_steps):
        t = grid.nodes[j]
        dt = grid.nodes[j + 1] - t
        x = batch.states[:, j]
        sig = diffusion_values(model.diffusion, t, x, model.dim)
        noise = matvec(sig, xi[:, j]) * np.sqrt(dt)
        b = drift_values(model.effective_drift, t, x, model.dim)
        pulls[:, j] = (batch.states[:, j + 1] - x - noise) / dt - b
    return batch, pulls


class TestValidate:
    def test_defaults_fill_window(self):
        obs = bs.validate(bs.ObservationSet((
            bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
        )), dim=2)
        assert obs.items[0].window == 0.5
        assert obs.items[1].window == 0.5
        assert obs.min_window == 0.5

    def test_accepts_plain_iterable(self):
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.5])])
        assert obs.items[0].window == 1.0
        assert len(obs) == 1

    def test_min_window_requires_validation(self):
        """min_window reads only checked windows: a set whose window
        reaches past the gap is rejected when it is built."""
        with pytest.raises(InvalidObservationError) as e:
            bs.ObservationSet((bs.Observation(1.0, [[1.0]], [0.5],
                                              window=1.5),))
        assert e.value.field == "window"
        assert bs.ObservationSet((bs.Observation(
            1.0, [[1.0]], [0.5]),)).min_window == 1.0

    def test_empty_set_min_window_is_infinite(self):
        assert bs.validate([]).min_window == np.inf

    def test_dim_mismatch(self):
        with pytest.raises(InvalidObservationError) as e:
            bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.5])], dim=3)
        assert e.value.index == 0
        assert e.value.field == "matrix"

    def test_too_many_rows(self):
        with pytest.raises(InvalidObservationError):
            bs.validate([bs.Observation(
                1.0, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                [0.1, 0.2, 0.3])], dim=2)

    def test_rows_must_be_orthonormal(self):
        with pytest.raises(InvalidObservationError) as e:
            bs.validate([bs.Observation(1.0, [[1.0, 1.0]], [0.5])], dim=2)
        assert "Gram deviation" in str(e.value)

    def test_value_shape(self):
        with pytest.raises(InvalidObservationError) as e:
            bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.1, 0.2])],
                        dim=2)
        assert e.value.field == "value"

    def test_times_strictly_increasing_and_positive(self):
        with pytest.raises(InvalidObservationError):
            bs.validate([bs.Observation(0.0, [[1.0]], [0.5])])
        with pytest.raises(InvalidObservationError) as e:
            bs.validate([bs.Observation(1.0, [[1.0]], [0.5]),
                         bs.Observation(1.0, [[1.0]], [0.7])])
        assert e.value.index == 1
        assert e.value.field == "time"

    def test_window_cannot_reach_past_previous_observation(self):
        with pytest.raises(InvalidObservationError) as e:
            bs.validate([bs.Observation(0.5, [[1.0]], [0.3]),
                         bs.Observation(1.0, [[1.0]], [0.7], window=1.0)])
        assert e.value.index == 1
        assert e.value.field == "window"

    def test_window_must_be_positive(self):
        with pytest.raises(InvalidObservationError):
            bs.validate([bs.Observation(1.0, [[1.0]], [0.5], window=0.0)])

    def test_window_equal_to_gap_is_allowed(self):
        obs = bs.validate([bs.Observation(0.5, [[1.0]], [0.3]),
                           bs.Observation(1.0, [[1.0]], [0.7], window=0.5)])
        assert obs.items[1].window == 0.5

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidObservationError):
            bs.validate([bs.Observation(1.0, [[np.inf]], [0.5])])
        with pytest.raises(InvalidObservationError):
            bs.validate([bs.Observation(1.0, [[1.0]], [np.nan])])


class TestProjectionAlgebra:
    def test_bundle_frozen_example(self):
        """Anisotropic diagonal noise, second coordinate observed."""
        sigma = bs.brownian(dim=2, sigma=[1.0, 2.0]).spec.constant_sigma
        ch, beta, P = channel_bundle(sigma, np.array([[0.0, 1.0]]))
        assert np.allclose(ch.A, [[0.25]], atol=1e-14)
        assert np.allclose(beta, [[0.0], [0.5]], atol=1e-14)
        assert np.allclose(P, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)
        assert np.isclose(0.5 * ch.logdet, 0.5 * np.log(0.25), atol=1e-14)

    def test_identities_random_instances(self, rng):
        """L P = L, P^2 = P, beta* beta = A, L sigma beta = I, and the
        pull solves L pull(r) = r."""
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            a = rand_spd(rng, n, 1e3)
            L = rand_orthonormal(rng, m, n)
            sigma = np.linalg.cholesky(a)
            ch, beta, P = channel_bundle(sigma, L)
            r = np.linspace(-1.0, 2.0, m)
            assert np.abs(L @ P - L).max() <= 1e-10
            assert np.abs(P @ P - P).max() <= 1e-10
            assert np.abs(beta.T @ beta - ch.A).max() <= 1e-10
            assert np.abs(L @ sigma @ beta - np.eye(m)).max() <= 1e-10
            assert np.abs(L @ ch.pull(r) - r).max() <= 1e-10

    def test_channel_precision_batched_matches_shared(self, rng):
        n, m, P = 4, 2, 6
        L = rand_orthonormal(rng, m, n)
        a = np.stack([rand_spd(rng, n, 50.0) for _ in range(P)])
        prec_b, logdet_b = channel_precision(a, L)
        for p in range(P):
            prec_s, logdet_s = channel_precision(a[p], L)
            assert np.allclose(prec_b[p], prec_s, atol=1e-12)
            assert np.isclose(logdet_b[p], logdet_s, atol=1e-12)

    def test_channel_precision_logdet(self, rng):
        n, m = 5, 3
        a = rand_spd(rng, n, 100.0)
        L = rand_orthonormal(rng, m, n)
        prec, logdet = channel_precision(a, L)
        assert np.allclose(prec, np.linalg.inv(L @ a @ L.T), atol=1e-10)
        assert np.isclose(logdet, np.log(np.linalg.det(prec)), atol=1e-10)

    def test_channel_precision_rejects_indefinite(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(EllipticityViolationError):
            channel_precision(a, np.eye(2))

    def test_guide_pull_matches_direct_formula(self, rng):
        n, m = 4, 2
        a = rand_spd(rng, n, 30.0)
        L = rand_orthonormal(rng, m, n)
        resid = rng.standard_normal((7, m))
        direct = resid @ np.linalg.inv(L @ a @ L.T).T @ (L @ a)
        assert np.allclose(guide_pull(a, L, resid), direct, atol=1e-12)
        # batched metric, one residual per slice
        ab = np.stack([rand_spd(rng, n, 30.0) for _ in range(7)])
        out = guide_pull(ab, L, resid)
        for p in range(7):
            d = ab[p] @ L.T @ np.linalg.solve(L @ ab[p] @ L.T, resid[p])
            assert np.allclose(out[p], d, atol=1e-12)

    def test_guide_pull_single_vector(self, rng):
        a = rand_spd(rng, 3, 10.0)
        L = rand_orthonormal(rng, 1, 3)
        r = np.array([0.8])
        out = guide_pull(a, L, r)
        assert out.shape == (3,)
        assert np.allclose(L @ out, r, atol=1e-12)


class TestSchemeThreeChannel:
    """``channel(sigma, L)`` in closed form for m = 1 and m = 2 and by
    Cholesky for m = 3, on batched non-diagonal sigma and dense L."""

    @staticmethod
    def inputs(rng, m, n=4, p_count=6):
        sig = np.eye(n) + 0.3 * rng.standard_normal((p_count, n, n))
        return sig, rand_orthonormal(rng, m, n)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_inverts_the_channel(self, rng, m):
        """A (L a L*) = I, log det A = -log det(L a L*) and G = A L a."""
        sig, L = self.inputs(rng, m)
        ch = channel(sig, L)
        assert ch.A.shape == (len(sig), m, m)
        assert ch.gain.shape == (len(sig), m, L.shape[1])
        for p, s in enumerate(sig):
            a = s @ s.T
            S = L @ a @ L.T
            assert np.abs(ch.A[p] @ S - np.eye(m)).max() <= 1e-12
            sign, ref = np.linalg.slogdet(S)
            assert sign == 1.0 and abs(ch.logdet[p] + ref) <= 1e-12
            assert np.abs(ch.gain[p] - ch.A[p] @ L @ a).max() <= 1e-12
            assert ch.A[p].tobytes() == ch.A[p].T.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_row_bytes_do_not_depend_on_batch(self, rng, m):
        """Each row of a batched call has the bytes of a one-row call and
        of a call with that row's sigma shared."""
        sig, L = self.inputs(rng, m)
        ch = channel(sig, L)
        for p in range(len(sig)):
            for one, row in ((channel(sig[p:p + 1], L), 0),
                             (channel(sig[p], L), ...)):
                assert same_bytes(one.A[row], ch.A[p])
                assert same_bytes(one.logdet[row], ch.logdet[p])
                assert same_bytes(one.gain[row], ch.gain[p])

    @pytest.mark.parametrize("L,bad", [
        # every column of sigma orthogonal to L
        ([[0.6, 0.8, 0.0]],
         [[0.8, 0.0, -0.8], [-0.6, 0.0, 0.6], [0.0, 0.0, 0.0]]),
        # rank 1 along L: the second row of L sigma vanishes
        ([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]],
         [[1.0, 0.2, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.0]]),
    ], ids=["m1", "m2"])
    def test_singular_along_L_rejected(self, rng, L, bad):
        """L sigma is rank-deficient in one row of a batch, exactly in
        the fixed-order sums: L a L* is 0 for m = 1 and has determinant
        0 for m = 2."""
        L = np.array(L)
        sig = np.eye(3) + 0.1 * rng.standard_normal((3, 3, 3))
        sig[1] = bad
        assert np.linalg.matrix_rank(product(L, sig[1])) < len(L)
        with pytest.raises(EllipticityViolationError):
            channel(sig, L)
        with pytest.raises(EllipticityViolationError):
            channel(sig[1], L)
        channel(sig[[0, 2]], L)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nan_sigma_rejected(self, rng, m):
        sig, L = self.inputs(rng, m, n=3)
        sig[2, 1, 1] = np.nan
        with pytest.raises(EllipticityViolationError):
            channel(sig, L)


@st.composite
def channel_inputs(draw):
    """A batch of SPD ``a`` with condition number at most 50, orthonormal
    ``L`` and residuals, drawn from a hypothesis-chosen numpy seed."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    p_count = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.stack([rand_spd(rng, n, 50.0) for _ in range(p_count)])
    L = rand_orthonormal(rng, m, n)
    return a, L, rng.standard_normal((p_count, m))


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestProjectionProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(channel_inputs())
    def test_identities(self, inputs):
        """For a shared a and for a batch of them: the pull solves
        L pull(r) = r, the precision is symmetric and inverts L a L*, its
        log-determinant matches slogdet, the batched factorization
        matches the per-row shared one, and the channel of a's Cholesky
        factor gives the bytes of guide_pull and channel_precision."""
        ab, L, resid = inputs
        m = L.shape[0]
        eye = np.eye(m)
        prec_b, logdet_b = channel_precision(ab, L)
        pull_b = guide_pull(ab, L, resid)
        for p, a in enumerate(ab):
            prec, logdet = channel_precision(a, L)
            pulls = guide_pull(a, L, resid)
            for A, ld, pull, r in ((prec, logdet, pulls[p], resid[p]),
                                   (prec_b[p], logdet_b[p], pull_b[p],
                                    resid[p])):
                gram_l = L @ a @ L.T
                scale = np.abs(A).max()
                assert np.abs(L @ pull - r).max() <= 1e-10
                assert np.abs(A - A.T).max() <= 1e-13 * scale
                assert np.abs(A @ gram_l - eye).max() <= 1e-10
                sign, ref = np.linalg.slogdet(A)
                assert sign == 1.0 and abs(ld - ref) <= 1e-10
            assert np.allclose(prec_b[p], prec, rtol=1e-12, atol=1e-12)
            assert abs(logdet_b[p] - logdet) <= 1e-12
            assert np.allclose(pull_b[p], pulls[p], rtol=1e-12, atol=1e-12)
            ch = channel(np.linalg.cholesky(a), L)
            assert same_bytes(ch.pull(resid), pulls)
            assert same_bytes(ch.A, prec) and same_bytes(ch.logdet, logdet)
        ch = channel(np.linalg.cholesky(ab), L)
        assert same_bytes(ch.pull(resid), pull_b)
        assert same_bytes(ch.A, prec_b) and same_bytes(ch.logdet, logdet_b)


class TestGuidingDrift:
    """The pull as the simulation kernel applies it, step by step."""

    def test_zero_outside_windows(self):
        model = bs.brownian(dim=1).spec
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [1.0],
                                          window=0.25)], dim=1)
        # the horizon runs past the observation, so a step leaves T; a
        # window closed at T would divide by T - t = 0 there
        grid = bs.build_grid(1.5, obs, dt_base=0.05, dt_min=1e-3,
                             include_times=[0.5])
        batch, pulls = step_pulls(model, obs, grid, np.zeros(1), 4,
                                  np.arange(8))
        j_open = grid.index_of(0.75)
        j_obs = grid.index_of(1.0)
        assert np.allclose(pulls[:, :j_open], 0.0)
        # the window is closed on the left ...
        at_open = (1.0 - batch.states[:, j_open]) / 0.25
        assert np.allclose(pulls[:, j_open], at_open)
        # ... and open at the observation time itself
        assert np.abs(batch.preclamp[0][:, 0] - 1.0).min() > 1e-6
        assert np.allclose(pulls[:, j_obs:], 0.0)

    def test_matches_manual_formula(self, rng):
        n, m = 3, 2
        sigma = rand_spd(rng, n, 10.0)
        a = sigma @ sigma.T
        L = rand_orthonormal(rng, m, n)
        v = rng.standard_normal(m)
        model = bs.ModelSpec(dim=n, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: sigma)
        obs = bs.validate([bs.Observation(1.0, L, v)], dim=n)
        z = rng.standard_normal(n)
        t = 0.6
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3,
                             include_times=[t])
        j = grid.index_of(t)
        batch, pulls = step_pulls(model, obs, grid, z, 6, np.arange(4))
        for x, pull in zip(batch.states[:, j], pulls[:, j]):
            manual = -a @ L.T @ np.linalg.solve(L @ a @ L.T, L @ x - v) \
                / (1.0 - grid.nodes[j])
            assert np.allclose(pull, manual, atol=1e-12)

    def test_overlapping_windows_sum(self):
        """Windows never overlap: a set whose second window reaches past
        the first observation is rejected when it is built, so it never
        reaches the kernel."""
        items = (
            bs.Observation(0.5, np.array([[1.0, 0.0]]), np.array([0.3]),
                           window=0.5),
            bs.Observation(1.0, np.array([[0.0, 1.0]]), np.array([-0.2]),
                           window=1.0),
        )
        with pytest.raises(InvalidObservationError) as e:
            bs.ObservationSet(items=items)
        assert e.value.field == "window"
        assert e.value.index == 1

    def test_pull_strengthens_near_observation(self):
        """Brownian motion is autonomous, so the pull at time t depends
        on t only through T - t: put the state at t = 0 and move T from
        0.5 to 0.01 time units ahead."""
        model = bs.brownian(dim=1).spec

        def first_pull(time_to_go):
            obs = bs.validate([bs.Observation(time_to_go, [[1.0]], [1.0])],
                              dim=1)
            grid = bs.build_grid(time_to_go, obs, dt_base=0.05, dt_min=1e-4)
            _, pulls = step_pulls(model, obs, grid, np.zeros(1), 3, [0])
            return pulls[0, 0, 0]

        early = first_pull(0.5)
        late = first_pull(0.01)
        assert late > early > 0.0
