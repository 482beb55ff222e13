"""Path weights: degenerate cases, a loop-based reference implementation,
the drift-remainder correction, and normalization."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim.bridge import TERM_NAMES
from bridgesim.errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    InvalidObservationError,
)
from bridgesim.sde import diffusion_values, drift_values
from bridgesim.weights import batch_breakdown
from conftest import (
    nondiagonal_sigma_setup,
    state_dependent_setup,
    two_pass_breakdown,
)


def reference_breakdown(model, obs, grid, states, preclamp):
    """Plain-loop reimplementation of the per-observation weight terms
    for one path, kept deliberately close to the defining sums."""
    out = {}
    for k, ob in enumerate(obs.items):
        L = ob.matrix
        j0 = grid.index_of(ob.time - ob.window)
        j1 = grid.index_of(ob.time)
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


def one_path(grid, states):
    """A hand-built one-row batch of one path's states."""
    return bs.BatchPaths(grid=grid, path_ids=np.array([0]),
                         states=states[None])


def row_terms(model, obs, batch):
    """The weight terms of a one-row ``batch``, none of them
    non-finite."""
    terms, issues = batch_breakdown(model, obs, batch)
    assert not issues
    return {name: arr[0] for name, arr in terms.items()}


def total(bd) -> float:
    """A row's log-weight: the sum of its terms."""
    return float(sum(np.sum(arr) for arr in bd.values()))


def girsanov_terms(model, grid, u, ids):
    """The Girsanov terms of bridges conditioned on no observation."""
    batch = bs.simulate_batch(model, bs.validate([]), grid, u, 3, ids)
    terms, issues = batch_breakdown(model, bs.validate([]), batch)
    assert not issues
    return terms["girsanov"], batch.states


def assert_close_terms(got, want, tol=1e-12):
    """Every term within ``tol`` relative to max(|value|, 1)."""
    assert sorted(got) == sorted(want)
    for name, arr in want.items():
        assert got[name].shape == arr.shape, name
        scale = np.maximum(np.abs(arr), 1.0)
        assert (np.abs(got[name] - arr) <= tol * scale).all(), name


def log_weights(terms):
    return sum(terms[name].sum(axis=1) for name in TERM_NAMES) \
        + terms["girsanov"]


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
        terms, issues = batch_breakdown(model, obs, batch)
        assert not issues
        for i in range(32):
            bd = {name: arr[i] for name, arr in terms.items()}
            assert bd["log_eta"][0] == 0.0
            assert np.isclose(bd["boundary"][0], -float(v @ v) / 2.0,
                              atol=1e-14)
            assert bd["drift_term"][0] == 0.0
            assert bd["dA_term"][0] == 0.0
            assert bd["covar_term"][0] == 0.0
            assert bd["girsanov"] == 0.0
            assert np.isclose(total(bd), -float(v @ v) / 2.0, atol=1e-14)

    def test_constant_diffusion_kills_variation_terms(self, rng):
        """Any constant sigma: the precision never moves, so both
        variation terms are exactly zero while drift terms are not."""
        sigma = np.array([[1.0, 0.2], [0.0, 0.8]])
        model = bs.ModelSpec(dim=2, drift=lambda t, x: -x,
                             diffusion=lambda t, x: sigma)
        obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.5])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 19, [3])
        bd = row_terms(model, obs, batch)
        assert bd["dA_term"][0] == 0.0
        assert bd["covar_term"][0] == 0.0
        assert bd["drift_term"][0] != 0.0


class TestReferenceAgreement:
    def test_scalar_state_dependent_sigma(self, rng):
        model = state_dependent_scalar()
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.8],
                                          window=0.5)], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.02)
        batch = bs.simulate_batch(model, obs, grid, np.array([0.2]), 7, [11])
        bd = row_terms(model, obs, batch)
        ref = reference_breakdown(model, obs, grid, batch.states[0],
                                  {0: batch.preclamp[0][0]})[0]
        assert np.isclose(bd["log_eta"][0], ref["log_eta"], atol=1e-12)
        assert np.isclose(bd["boundary"][0], ref["boundary"], atol=1e-12)
        assert np.isclose(bd["drift_term"][0], ref["drift_term"], atol=1e-12)
        assert np.isclose(bd["dA_term"][0], ref["dA_term"], atol=1e-12)
        assert np.isclose(bd["covar_term"][0], ref["covar_term"], atol=1e-12)
        # the variation terms are genuinely active here
        assert abs(bd["dA_term"][0]) > 0.0
        assert abs(bd["covar_term"][0]) > 0.0

    def test_planar_two_observations(self, rng):
        model = state_dependent_planar()
        obs = bs.validate([
            bs.Observation(0.5, [[1.0, 0.0]], [0.3], window=0.3),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2], window=0.4),
        ], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.02)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 13, [4])
        bd = row_terms(model, obs, batch)
        ref = reference_breakdown(
            model, obs, grid, batch.states[0],
            {k: v[0] for k, v in batch.preclamp.items()})
        for k in (0, 1):
            for name in ("log_eta", "boundary", "drift_term", "dA_term",
                         "covar_term"):
                assert np.isclose(bd[name][k], ref[k][name], atol=1e-12)


class TestChannelRecord:
    """The kernel adds each weight term as it steps, from the channel
    behind each pull and projection and the drift it evaluated; its
    terms and log-weights must be those of the two-pass reference, which
    rebuilds every channel and drift from the states, to 1e-12 relative
    to max(|value|, 1)."""

    def check(self, model, obs, grid, u, ids):
        batch = bs.simulate_batch(model, obs, grid, u, 5, ids)
        kept, issues = batch_breakdown(model, obs, batch)
        assert not issues
        again, _ = two_pass_breakdown(model, obs, batch)
        assert_close_terms(kept, again)
        assert_close_terms({"log_w": log_weights(kept)},
                           {"log_w": log_weights(again)})
        return batch

    def test_state_dependent_sigma(self):
        model, obs, grid, u = state_dependent_setup()
        batch = self.check(model, obs, grid, u, np.arange(40))
        assert [arr.shape for arr in batch.terms.values()] == \
            [(40, 2)] * len(TERM_NAMES) + [(40,)]
        assert (batch.terms["dA_term"] != 0.0).all()

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

    def test_array_sigma(self):
        """An array sigma's one channel per observation never moves, so
        the variation terms are exactly 0."""
        model, obs, grid, u = nondiagonal_sigma_setup()
        batch = self.check(model, obs, grid, u, np.arange(40))
        assert not batch.terms["dA_term"].any()
        assert not batch.terms["covar_term"].any()

    def test_rows_of_blown_up_batch(self):
        """Every row of a batch with failed paths, the failed ones
        included."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.0)
        batch = self.check(model, obs, grid, u, np.arange(64))
        alive = batch.failed_step < 0
        assert 0 < alive.sum() < len(alive)

    @pytest.mark.parametrize("setup", ["ou2d", "ou2d_split",
                                       "state_dependent"])
    def test_whole_chunk(self, setup):
        """A whole 2048-path chunk of the criterion-06 model, plain and
        split, and of a state-dependent sigma."""
        def ou2d(split):
            built = bs.ou(dim=2, f_diag=[-1.0, -0.5], sigma=[1.0, 1.5],
                          drift_split=split)
            obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.7])],
                              dim=2)
            grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                                 include_times=[0.5])
            return built.spec, obs, grid, np.array([0.5, -0.3])

        model, obs, grid, u = {
            "ou2d": lambda: ou2d(False), "ou2d_split": lambda: ou2d(True),
            "state_dependent": state_dependent_setup}[setup]()
        batch = self.check(model, obs, grid, u, np.arange(2048))
        assert (batch.terms["girsanov"] != 0.0).any() == \
            (setup == "ou2d_split")

    def test_kept_for_full_bridges_only(self):
        """Every full bridge carries its terms, under an array sigma too;
        cut-off and free batches carry none."""
        model, obs, grid, u = state_dependent_setup()
        array = bs.ou(dim=3).spec
        for spec in (model, array):
            full = bs.simulate_batch(spec, obs, grid, u, 5, [0, 1])
            assert sorted(full.terms) == sorted([*TERM_NAMES, "girsanov"])
            assert full.terms["girsanov"].shape == (2,)
            assert all(full.terms[name].shape == (2, 2)
                       for name in TERM_NAMES)
            assert full.issues == []
        cut = grid.nodes[-1] - grid.nodes[-2]
        cutoff = bs.simulate_batch(model, obs, grid, u, 5, [0],
                                   epsilon_cutoff=cut)
        free = bs.simulate_free_batch(model, grid, u, 5, [0])
        for batch in (cutoff, free):
            assert batch.terms is None and batch.issues is None

    def test_cutoff_batch_rejected(self):
        """The weights assume the full bridge: a cut-off batch, a free
        one, one built by hand, or a full bridge read against other
        observations, carries no terms and is not weighted."""
        model, obs, grid, u = state_dependent_setup()
        cut = grid.nodes[-1] - grid.nodes[-2]
        batch = bs.simulate_batch(model, obs, grid, u, 5, [0],
                                  epsilon_cutoff=cut)
        free = bs.simulate_free_batch(model, grid, u, 5, [0])
        full = bs.simulate_batch(model, obs, grid, u, 5, [0])
        for unweighted, against in ((batch, obs), (free, obs),
                                    (one_path(grid, batch.states[0]), obs),
                                    (full, bs.validate(obs.items[:1]))):
            with pytest.raises(InvalidConfigurationError):
                batch_breakdown(model, against, unweighted)


class TestGirsanov:
    def test_requires_split(self):
        """The Girsanov term needs a drift split: without one its column
        is exactly 0, even along paths under a non-zero drift."""
        model = bs.ou(dim=1).spec
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        assert model.guided_drift is None
        g, _ = girsanov_terms(model, grid, np.array([0.5]), np.arange(8))
        assert (g == 0.0).all()

    def test_zero_remainder_gives_zero(self):
        model = bs.ModelSpec(
            dim=1, drift=lambda t, x: -x,
            diffusion=lambda t, x: np.eye(1),
            guided_drift=lambda t, x: -x)
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        g, _ = girsanov_terms(model, grid, np.array([0.5]), np.arange(8))
        assert (g == 0.0).all()

    def test_constant_remainder_telescopes(self):
        """b_check = c constant: along any path the left-point sums
        collapse to c* a^-1 (z - u) - T c* a^-1 c / 2, with z the end
        state, under an array sigma and a callable one."""
        sigma = np.diag([0.5, 2.0])
        c = np.array([0.7, -0.4])
        u = np.array([0.1, 0.3])
        grid = bs.build_grid(2.0, None, dt_base=0.1, dt_min=0.1)
        ainv = np.linalg.inv(sigma @ sigma.T)
        for diffusion in (sigma, lambda t, x: sigma):
            model = bs.ModelSpec(
                dim=2, drift=lambda t, x: np.broadcast_to(c, x.shape),
                diffusion=diffusion,
                guided_drift=lambda t, x: np.zeros_like(x))
            g, states = girsanov_terms(model, grid, u, np.arange(16))
            expect = (states[:, -1] - u) @ ainv @ c \
                - 0.5 * c @ ainv @ c * 2.0
            assert np.allclose(g, expect, rtol=0.0, atol=1e-12)

    def test_double_well_weights_finite(self):
        built = bs.double_well(dim=1, bound=0.3)
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [1.6])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
        batch = bs.simulate_batch(built.spec, obs, grid, np.array([-1.0]),
                                  3, [8])
        bd = row_terms(built.spec, obs, batch)
        assert np.isfinite(total(bd))
        assert bd["girsanov"] != 0.0


def first_nonfinite_steps(steps, n_obs):
    """The issues that a scan of every step piece of ``steps`` (as
    ``two_pass_breakdown`` returns them) finds: the first non-finite step
    per row, term and observation, by observation, then term, then
    row, with the Girsanov term last."""
    found = []
    order = [(name, k) for k in range(n_obs) for name in (
        "boundary", "drift_term", "dA_term", "covar_term", "log_eta")]
    for name, k in order + [("girsanov", -1)]:
        j0, pieces = steps[name, k]
        bad = ~np.isfinite(pieces)
        found += [(int(r), name, k, None if j0 is None
                   else j0 + int(np.argmax(bad[r])))
                  for r in np.flatnonzero(bad.any(axis=1))]
    return found


class TestOverflowDetection:
    def test_nonfinite_state_in_window(self):
        """A drift that turns infinite inside the window makes the path's
        drift term non-finite from that step on; the issue names the
        step."""
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.5])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.25, dt_min=0.05)
        mid = grid.n_steps // 2
        model = bs.ModelSpec(
            dim=1, diffusion=np.eye(1),
            drift=lambda t, x: np.full_like(
                x, np.inf if t == grid.nodes[mid] else 0.0))
        batch = bs.simulate_batch(model, obs, grid, np.zeros(1), 5, [0])
        _, issues = batch_breakdown(model, obs, batch)
        assert issues == [(0, "drift_term", 0, mid)]
        assert batch.failed_step[0] == mid

    def test_issues_match_a_scan_of_every_step(self):
        """A batch whose guided drift turns infinite or NaN for some rows
        inside each window, and whose full drift turns infinite for
        others, lists the issues that a scan of every step of every term
        of the two-pass reference finds, in that order."""
        base, obs, grid, u = state_dependent_setup()
        t_a = grid.nodes[grid.index_of(0.4) // 2]
        t_b = grid.nodes[(grid.index_of(0.4) + grid.index_of(1.0)) // 2]
        t_c = grid.nodes[grid.index_of(0.55)]

        def guided(t, x):
            out = np.sin(x)
            if t == t_a:
                out = np.where(x[..., :1] > 0.5, np.inf, out)
            if t == t_b:
                out = np.where(x[..., 1:2] < -0.9, np.nan, out)
            return out

        def drift(t, x):
            out = guided(t, x)
            if t == t_c:
                out = np.where(x[..., 2:] > 0.8, np.inf, out)
            return out

        model = bs.ModelSpec(dim=3, drift=drift, diffusion=base.diffusion,
                             guided_drift=guided)
        batch = bs.simulate_batch(model, obs, grid, u, 5, np.arange(512))
        _, issues = batch_breakdown(model, obs, batch)
        _, steps = two_pass_breakdown(model, obs, batch)
        assert issues == first_nonfinite_steps(steps, len(obs.items))
        assert {k for _, _, k, _ in issues} == {0, 1, -1}
        assert {term for _, term, _, _ in issues} == {"drift_term",
                                                      "girsanov"}
        failed = set(np.flatnonzero(batch.failed_step >= 0).tolist())
        assert failed and failed < {row for row, _, _, _ in issues}

    def test_unvalidated_observations_rejected(self):
        """No set reaches the weights unchecked: a window past the gap
        is rejected when the set is built."""
        with pytest.raises(InvalidObservationError) as e:
            bs.ObservationSet((bs.Observation(1.0, [[1.0]], [0.5],
                                              window=1.5),))
        assert e.value.field == "window"


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
