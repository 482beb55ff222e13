"""Path weights: degenerate cases, a loop-based reference implementation,
the drift-remainder correction, and normalization."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim import weights
from bridgesim.errors import (
    DegenerateEnsembleError,
    InvalidConfigurationError,
    InvalidObservationError,
)
from bridgesim.sde import diffusion_values, drift_values
from bridgesim.weights import batch_breakdown
from conftest import (
    nondiagonal_sigma_setup,
    rebuilt_channels,
    state_dependent_setup,
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


def one_path(grid, states, preclamp=None):
    """A hand-built one-row batch: one path's states and, per
    observation, its state before the terminal projection."""
    return bs.BatchPaths(
        grid=grid, path_ids=np.array([0]), states=states[None],
        preclamp={k: v[None] for k, v in (preclamp or {}).items()})


def row_terms(model, obs, batch):
    """The weight terms of a one-row ``batch``, none of them
    non-finite."""
    terms, issues = batch_breakdown(model, obs, batch)
    assert not issues
    return {name: arr[0] for name, arr in terms.items()}


def total(bd) -> float:
    """A row's log-weight: the sum of its terms."""
    return float(sum(np.sum(arr) for arr in bd.values()))


def girsanov(model, grid, states) -> float:
    """The Girsanov term of one path, weighted without observations."""
    return row_terms(model, bs.validate([]), one_path(grid, states))[
        "girsanov"]


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

    def test_hand_built_states(self, rng):
        """The weight is a pure path functional: feed synthetic states."""
        model = state_dependent_scalar()
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.8],
                                          window=0.5)], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.25, dt_min=0.05)
        states = rng.standard_normal((len(grid.nodes), 1))
        states[-1, 0] = 0.8
        pre = rng.standard_normal(1) * 0.1 + 0.8
        batch = rebuilt_channels(model, obs, one_path(grid, states, {0: pre}))
        bd = row_terms(model, obs, batch)
        ref = reference_breakdown(model, obs, grid, states, {0: pre})[0]
        for name in ("log_eta", "boundary", "drift_term", "dA_term",
                     "covar_term"):
            assert np.isclose(bd[name][0], ref[name], atol=1e-12)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestChannelRecord:
    """The kernel keeps the channel precision behind each pull and
    projection, its log-determinant and, through each observation's L,
    the guiding drift it evaluated at each window step; they must be,
    byte for byte, the ones rebuilt from the states, and weight the
    paths identically."""

    def check(self, model, obs, grid, u, ids):
        batch = bs.simulate_batch(model, obs, grid, u, 5, ids)
        rebuilt = rebuilt_channels(model, obs, batch)
        assert_same_arrays(batch.precision, rebuilt.precision)
        assert_same_arrays(batch.logdet, rebuilt.logdet)
        assert_same_arrays(batch.observed_drift, rebuilt.observed_drift)
        kept, _ = batch_breakdown(model, obs, batch)
        again, _ = batch_breakdown(model, obs, rebuilt)
        for name, arr in again.items():
            assert kept[name].tobytes() == arr.tobytes(), name
        return batch

    def test_state_dependent_sigma(self):
        model, obs, grid, u = state_dependent_setup()
        batch = self.check(model, obs, grid, u, np.arange(40))
        assert [p.shape[-1] for p in batch.precision] == [1, 2]

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
        """An array sigma keeps read-only views of its one channel per
        observation, which add no memory per path."""
        model, obs, grid, u = nondiagonal_sigma_setup()
        batch = self.check(model, obs, grid, u, np.arange(40))
        prec = batch.precision[0]
        assert not prec.flags.writeable and prec.strides[:2] == (0, 0)

    def test_rows_of_blown_up_batch(self):
        """Every row of a batch with failed paths, the failed ones
        included."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.0)
        batch = self.check(model, obs, grid, u, np.arange(64))
        alive = batch.failed_step < 0
        assert 0 < alive.sum() < len(alive)

    def test_kept_for_full_bridges_only(self):
        """Every full bridge keeps the channel arrays and the guiding
        drift through L per window, under an array sigma too; cut-off and
        free batches keep none of them."""
        model, obs, grid, u = state_dependent_setup()
        array = bs.ou(dim=3).spec
        steps = [grid.index_of(ob.time) - grid.index_of(ob.time - ob.window)
                 for ob in obs.items]
        shapes = [(2, j + 1, ob.m, ob.m) for j, ob in zip(steps, obs.items)]
        for spec in (model, array):
            full = bs.simulate_batch(spec, obs, grid, u, 5, [0, 1])
            assert [p.shape for p in full.precision] == shapes
            assert [d.shape for d in full.logdet] == [(2,), (2,)]
            assert [d.shape for d in full.observed_drift] == \
                [(2, j, ob.m) for j, ob in zip(steps, obs.items)]
        cut = grid.nodes[-1] - grid.nodes[-2]
        cutoff = bs.simulate_batch(model, obs, grid, u, 5, [0],
                                   epsilon_cutoff=cut)
        free = bs.simulate_free_batch(model, grid, u, 5, [0])
        for batch in (cutoff, free):
            assert batch.precision is None and batch.logdet is None
            assert batch.observed_drift is None

    def test_cutoff_batch_rejected(self):
        """The weights assume the full bridge: a cut-off batch, or one
        built by hand, carries no channel precision and is not
        weighted."""
        model, obs, grid, u = state_dependent_setup()
        cut = grid.nodes[-1] - grid.nodes[-2]
        batch = bs.simulate_batch(model, obs, grid, u, 5, [0],
                                  epsilon_cutoff=cut)
        for unweighted in (batch, one_path(grid, batch.states[0])):
            with pytest.raises(InvalidConfigurationError):
                batch_breakdown(model, obs, unweighted)


class TestGirsanov:
    def test_requires_split(self):
        """The Girsanov term needs a drift split: without one its column
        is exactly 0, even along a path under a non-zero drift."""
        model = bs.ou(dim=1).spec
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        assert model.guided_drift is None
        assert girsanov(model, grid, np.linspace(0, 1, 11)[:, None]) == 0.0

    def test_zero_remainder_gives_zero(self):
        model = bs.ModelSpec(
            dim=1, drift=lambda t, x: -x,
            diffusion=lambda t, x: np.eye(1),
            guided_drift=lambda t, x: -x)
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        assert girsanov(model, grid, np.linspace(0, 1, 11)[:, None]) == 0.0

    def test_constant_remainder_telescopes(self):
        """b_check = c constant along a straight line: the left-point sums
        collapse to c* a^-1 (z - u) - T c* a^-1 c / 2 exactly."""
        sigma = np.diag([0.5, 2.0])
        c = np.array([0.7, -0.4])
        model = bs.ModelSpec(
            dim=2, drift=lambda t, x: np.broadcast_to(c, x.shape),
            diffusion=lambda t, x: sigma,
            guided_drift=lambda t, x: np.zeros_like(x))
        grid = bs.build_grid(2.0, None, dt_base=0.1, dt_min=0.1)
        u = np.array([0.1, 0.3])
        z = np.array([1.4, -0.9])
        line = u + np.linspace(0.0, 1.0, len(grid.nodes))[:, None] * (z - u)
        ainv = np.linalg.inv(sigma @ sigma.T)
        expect = c @ ainv @ (z - u) - 0.5 * c @ ainv @ c * 2.0
        assert np.isclose(girsanov(model, grid, line), expect, atol=1e-12)

    def test_double_well_weights_finite(self):
        built = bs.double_well(dim=1, bound=0.3)
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [1.6])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
        batch = bs.simulate_batch(built.spec, obs, grid, np.array([-1.0]),
                                  3, [8])
        bd = row_terms(built.spec, obs, batch)
        assert np.isfinite(total(bd))
        assert bd["girsanov"] != 0.0


class TestOverflowDetection:
    def test_nonfinite_state_in_window(self):
        model = bs.brownian(dim=1).spec
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.5])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.25, dt_min=0.05)
        states = np.zeros((len(grid.nodes), 1))
        states[len(grid.nodes) // 2, 0] = np.inf
        batch = rebuilt_channels(model, obs, one_path(grid, states))
        _, issues = batch_breakdown(model, obs, batch)
        assert issues
        assert issues[0][1] in ("boundary", "drift_term", "dA_term",
                                "covar_term", "log_eta")

    def test_issues_match_a_scan_of_every_step(self, monkeypatch):
        """``put`` scans only terms with a non-finite row sum, yet a
        batch with failed paths and a few poisoned rows lists the issues
        that a scan of every step of every term finds, in that order."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
        batch = bs.simulate_batch(model, obs, grid, u, 5, np.arange(1024))
        # failed paths hold a finite state, so poison a few rows' windows
        for row, k, value in ((3, 0, np.inf), (700, 1, np.nan),
                              (701, 1, -np.inf)):
            ob = obs.items[k]
            mid = (grid.index_of(ob.time - ob.window)
                   + grid.index_of(ob.time)) // 2
            batch.states[row, mid, row % 3] = value
        batch.preclamp[1][900, 0] = np.inf
        scanned = []

        def scan(term, k, values, j0=None):
            steps = values if values.ndim == 2 else values[:, None]
            scanned.extend((int(r), term, k, None if j0 is None
                            else int(j0 + c))
                           for r, c in zip(*np.nonzero(~np.isfinite(steps))))

        observation_terms = weights._observation_terms
        girsanov_batch = weights._girsanov_batch

        def scanned_terms(model, batch, k, ob, rows):
            # the whole batch once, so the scan sees every row in order
            if rows.start == 0:
                for term, values, j0 in observation_terms(
                        model, batch, k, ob, slice(0, len(batch.states))):
                    scan(term, k, values, j0)
            yield from observation_terms(model, batch, k, ob, rows)

        def scanned_girsanov(*args):
            values = girsanov_batch(*args)
            scan("girsanov", -1, values)
            return values

        monkeypatch.setattr(weights, "_observation_terms", scanned_terms)
        monkeypatch.setattr(weights, "_girsanov_batch", scanned_girsanov)
        _, issues = batch_breakdown(model, obs, batch)
        assert (batch.failed_step >= 0).any()
        assert {row for row, _, _, _ in issues} == {3, 700, 701, 900}
        assert issues == scanned

    def test_row_blocks_move_no_bit(self, monkeypatch):
        """Window terms formed a few rows at a time give the bytes and
        the issues, in order and with chunk rows, of one pass over every
        row, for non-finite rows in two blocks of both windows."""
        model, obs, grid, u = state_dependent_setup()
        p_count = 2 * weights.ROW_BLOCK + 37
        batch = bs.simulate_batch(model, obs, grid, u, 5, np.arange(p_count))
        poisoned = (5, 2 * weights.ROW_BLOCK + 10)
        for row in poisoned:
            for ob in obs.items:
                mid = (grid.index_of(ob.time - ob.window)
                       + grid.index_of(ob.time)) // 2
                batch.states[row, mid, 0] = np.inf
        runs = []
        for size in (p_count + 1, 1, 3, weights.ROW_BLOCK):
            monkeypatch.setattr(weights, "ROW_BLOCK", size)
            terms, issues = batch_breakdown(model, obs, batch)
            runs.append(({name: arr.tobytes() for name, arr in terms.items()},
                         issues))
        whole = runs[0][1]
        assert {row for row, _, _, _ in whole} == set(poisoned)
        assert {k for _, _, k, _ in whole} == {0, 1}
        for run in runs[1:]:
            assert run == runs[0]

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
