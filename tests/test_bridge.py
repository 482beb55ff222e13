"""Guided bridge simulation: pinning, reductions, cutoff variants."""
import numpy as np
import pytest

import bridgesim as bs
from bridgesim.errors import (
    EllipticityViolationError,
    InvalidConfigurationError,
    InvalidObservationError,
    UnstableRunError,
)
from bridgesim.bridge import BLOWUP_FACTOR
from bridgesim.observations import channel
from bridgesim.sde import normal_increments
from conftest import (forbid_noise, nondiagonal_sigma_setup,
                      rand_orthonormal, single_full_obs,
                      state_dependent_setup)


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
        states = bs.simulate_batch(model, obs, grid, np.zeros(1), 41,
                                   [6]).states[0]

        xi = normal_increments(41, 6, grid.n_steps, 1)
        nodes = grid.nodes
        y = 0.0
        manual = [y]
        for j in range(grid.n_steps):
            dt = nodes[j + 1] - nodes[j]
            y = y + (1.0 - y) / (1.0 - nodes[j]) * dt + np.sqrt(dt) * xi[j, 0]
            if j + 1 == grid.n_steps:
                y = 1.0  # exact projection at the observation time
            manual.append(y)
        assert np.allclose(states[:, 0], manual, atol=1e-13)

    def test_free_motion_outside_window(self):
        """Before the window opens the bridge moves like the plain SDE."""
        model = bs.brownian(dim=1).spec
        obs = scalar_obs(window=0.25)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        bridge = bs.simulate_batch(model, obs, grid, np.zeros(1), 9,
                                   [2]).states[0]
        free = bs.simulate_free_batch(model, grid, np.zeros(1), 9,
                                      [2]).states[0]
        j0 = grid.index_of(1.0 - 0.25)
        assert np.array_equal(bridge[:j0 + 1], free[:j0 + 1])
        assert not np.allclose(bridge[-1], free[-1])


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
            j = grid.index_of(ob.time)
            resid = batch.states[:, j] @ ob.matrix.T - ob.value
            assert np.abs(resid).max() <= 1e-12

    @pytest.mark.parametrize("hand_built", [False, True])
    def test_window_past_the_gap_opens_at_the_previous_observation(
            self, hand_built):
        """A second window of 0.5 (1 + 1e-12), which ObservationSet
        admits, reaches a node before the first observation's on a grid
        with dt_min 1e-13, or with one node 1e-13 before it.  It opens at
        the first observation's node, as a window of exactly 0.5 does:
        the paths and drift terms keep their bytes, and the boundary term
        moves only by the window's length."""
        model = bs.ou(dim=2).spec

        def run(window):
            obs = bs.validate([
                bs.Observation(0.5, [[0.6, 0.8]], [0.3]),
                bs.Observation(1.0, [[0.0, 1.0]], [-0.2], window=window),
            ], dim=2)
            grid = bs.TimeGrid(np.sort(np.append(
                np.linspace(0.0, 1.0, 41), 0.5 - 1e-13))) if hand_built \
                else bs.build_grid(1.0, obs, 0.05, 1e-13)
            return bs.simulate_batch(model, obs, grid, np.zeros(2), 3,
                                     np.arange(64))

        exact, wide = run(0.5), run(0.5 * (1.0 + 1e-12))
        assert wide.states.tobytes() == exact.states.tobytes()
        assert wide.terms["drift_term"].tobytes() == \
            exact.terms["drift_term"].tobytes()
        assert np.abs(wide.terms["boundary"][:, 1]
                      - exact.terms["boundary"][:, 1]).max() <= 1e-11

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
        out = batch.states[:, grid.index_of(1.0)]
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
        y = batch.states[:, grid.index_of(1.0)]
        ob = obs.items[0]
        ch = channel(model.constant_sigma, ob.matrix)
        again = y + ch.pull(ob.value - y @ ob.matrix.T)
        assert np.allclose(again, y, atol=1e-14)

    def test_preclamp_is_unprojected(self):
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
        full = bs.simulate_batch(model, obs, grid, np.zeros(1), 77,
                                 [5]).states[0]
        cut = bs.simulate_batch(model, obs, grid, np.zeros(1), 77, [5],
                                epsilon_cutoff=eps).states[0]
        js = grid.index_of(1.0 - eps)
        assert np.array_equal(full[:js + 1], cut[:js + 1])
        assert not np.isclose(cut[-1, 0], 1.0, atol=1e-6)
        assert np.isclose(full[-1, 0], 1.0, atol=1e-12)

    def test_cutoff_disables_terminal_projection(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        eps = 0.25
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3,
                             include_times=[1.0 - eps])
        cut = bs.simulate_batch(model, obs, grid, np.zeros(1), 1, [0],
                                epsilon_cutoff=eps)
        assert not cut.preclamp

    def test_cutoff_keeps_no_guiding_drift(self):
        """A cut-off batch is never weighted, so it carries no weight
        terms; the full bridge on the same grid carries them."""
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3,
                             include_times=[0.75])
        cut = bs.simulate_batch(model, obs, grid, np.zeros(1), 1, [0, 1],
                                epsilon_cutoff=0.25)
        assert cut.terms is None and cut.issues is None
        full = bs.simulate_batch(model, obs, grid, np.zeros(1), 1, [0, 1])
        assert full.terms["drift_term"].shape == (2, 1)
        assert full.issues == []

    def test_cutoff_must_fit_in_windows(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs(window=0.2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        with pytest.raises(InvalidConfigurationError):
            bs.simulate_batch(model, obs, grid, np.zeros(1), 1, [0],
                              epsilon_cutoff=0.2)

    def test_cutoff_requires_a_grid_node(self):
        model = bs.brownian(dim=1).spec
        obs = scalar_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        with pytest.raises(InvalidConfigurationError) as e:
            bs.simulate_batch(model, obs, grid, np.zeros(1), 1, [0],
                              epsilon_cutoff=0.1234)
        assert "node" in str(e.value)


class TestBatchBehavior:
    def test_unvalidated_observations_rejected(self):
        """No set reaches the kernel unchecked: a window past the gap is
        rejected when the set is built."""
        with pytest.raises(InvalidObservationError) as e:
            bs.ObservationSet((bs.Observation(1.0, [[1.0]], [1.0],
                                              window=1.5),))
        assert e.value.field == "window"

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
            alone = bs.simulate_batch(model, obs, grid, np.zeros(2), 21,
                                      [pid])
            assert batch.states[p].tobytes() == alone.states[0].tobytes()
            assert batch.preclamp[0][p].tobytes() == \
                alone.preclamp[0][0].tobytes()

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
        alone = bs.simulate_batch(model, obs, grid, u, 4, [9])
        assert batch.states[1].tobytes() == alone.states[0].tobytes()
        assert batch.preclamp[0][1].tobytes() == \
            alone.preclamp[0][0].tobytes()

    def test_sigma_evaluated_once_per_node_and_state(self):
        """The kernel asks a callable sigma for each (t, states) pair
        once: at every node it steps from, at each observation's state
        before projection, and at the projected end state."""
        model, obs, grid, u = state_dependent_setup()
        calls = []

        def recording(t, x):
            calls.append((t, x.tobytes()))
            return model.diffusion(t, x)

        spec = bs.ModelSpec(dim=3, drift=model.drift, diffusion=recording)
        bs.simulate_batch(spec, obs, grid, u, 6, np.arange(40))
        assert len(set(calls)) == len(calls)
        assert len(calls) == grid.n_steps + len(obs.items) + 1

    def test_blowup_raises_for_single_bridge(self):
        """A one-path batch reports the blow-up in ``failed_step``; a
        one-path ensemble raises on it."""
        model = bs.ModelSpec(dim=1, drift=lambda t, x: x ** 3,
                             diffusion=lambda t, x: np.eye(1))
        obs = bs.validate([bs.Observation(5.0, [[1.0]], [0.0])], dim=1)
        grid = bs.build_grid(5.0, obs, dt_base=0.5, dt_min=0.1)
        batch = bs.simulate_batch(model, obs, grid, np.array([3.0]), 1, [0])
        assert batch.failed_step[0] >= 0
        with pytest.raises(UnstableRunError):
            bs.run_ensemble(model, obs, grid, np.array([3.0]), 1, seed=1)

    def test_failure_after_a_projection_keeps_rows_alone(self):
        """In a batch whose first failure comes after its first
        projection, every row, failed or not, holds the bytes of its path
        simulated alone, and a failed path stays frozen from its failed
        step on."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.0)
        batch = bs.simulate_batch(model, obs, grid, u, 5, np.arange(200))
        failed = batch.failed_step
        bad = np.flatnonzero(failed >= 0)
        first, second = (grid.index_of(ob.time) for ob in obs)
        assert first < failed[bad].min()
        assert failed.max() < second
        for p in [*bad, *np.flatnonzero(failed < 0)[:4]]:
            alone = bs.simulate_batch(model, obs, grid, u, 5, [p])
            assert alone.failed_step[0] == failed[p]
            assert batch.states[p].tobytes() == alone.states[0].tobytes()
            for k in range(len(obs.items)):
                assert batch.preclamp[k][p].tobytes() == \
                    alone.preclamp[k][0].tobytes()
            for name, arr in batch.terms.items():
                assert arr[p].tobytes() == alone.terms[name][0].tobytes()
        for p in bad:
            frozen = batch.states[p, failed[p]:]
            assert (frozen == frozen[0]).all()

    def test_projection_that_blows_up_fails_the_row(self):
        """Where sigma is 1e200 at the observation, L a L* overflows and
        the projection would leave a NaN state.  Such a row fails at the
        step that landed on the observation and keeps its state of the
        node before; every other row is pinned, and a run with that many
        failures raises."""
        def sigma(t, x):
            big = (t >= 1.0) & (x[..., 0] > 0.3)
            return np.where(big, 1e200, 1.0)[..., None, None] * np.eye(1)

        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=sigma)
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.3])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        u = np.zeros(1)
        batch = bs.simulate_batch(model, obs, grid, u, 3, np.arange(64))
        bad = batch.preclamp[0][:, 0] > 0.3
        assert bad.sum() == 30
        assert not np.isnan(batch.states).any()
        assert (batch.failed_step[bad] == grid.n_steps - 1).all()
        assert (batch.failed_step[~bad] == -1).all()
        assert (batch.states[bad, -1] == batch.states[bad, -2]).all()
        assert np.allclose(batch.states[~bad, -1, 0], 0.3,
                           rtol=0.0, atol=1e-12)
        for p in np.flatnonzero(bad)[:3]:
            alone = bs.simulate_batch(model, obs, grid, u, 3, [p])
            assert alone.failed_step[0] == batch.failed_step[p]
            assert batch.states[p].tobytes() == alone.states[0].tobytes()
        with pytest.raises(UnstableRunError, match="30 of 64"):
            bs.run_ensemble(model, obs, grid, u, 64, seed=3)

    def test_blowup_check_rows_alone(self):
        """One batch holds paths that step beyond the short-circuit bound
        of the blow-up check but stay within the cap, paths whose norm
        crosses the cap with every entry inside it, paths with an entry
        beyond the cap, and paths that meet a NaN drift.  Every row,
        failed or not, holds the bytes of its path simulated alone."""
        obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0, 0.0]], [0.0])],
                          dim=3)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=1e-3)
        cap = BLOWUP_FACTOR  # the initial state is 0
        calm = 0.5 * cap / np.sqrt(3.0)
        t_near, t_far = grid.nodes[1], grid.nodes[3]
        dt_near, dt_far = grid.steps[1], grid.steps[3]

        def drift(t, x):
            out = np.zeros_like(x)
            s = x[..., 2]
            if t == t_near:
                # near: to 0.5 cap, past the bound, inside the cap
                out[..., 1] = np.where(s > 0.2, 0.5 * cap / dt_near, 0.0)
            elif t == t_far:
                quiet = np.abs(x[..., 1]) < 1e3
                # entry: one entry to 2 cap
                out[..., 1] = np.where(quiet & (s < -0.25),
                                       2.0 * cap / dt_far, 0.0)
                # norm: two entries to 0.8 cap, a norm of 1.13 cap
                norm = quiet & (s >= -0.25) & (s < 0.0)
                out[..., 1] += np.where(norm, 0.8 * cap / dt_far, 0.0)
                out[..., 2] = np.where(norm, 0.8 * cap / dt_far, 0.0)
                out[quiet & (s >= 0.0) & (s < 0.05)] = np.nan
            return out

        model = bs.ModelSpec(dim=3, drift=drift, diffusion=np.eye(3))
        u = np.zeros(3)
        batch = bs.simulate_batch(model, obs, grid, u, 9, np.arange(96))
        failed, states = batch.failed_step, batch.states
        near = np.abs(states[:, 2, 1]) > calm
        assert near.any()
        assert (np.linalg.norm(states[near, 2:], axis=-1) < cap).all()
        assert (failed[near] == -1).all()
        at_far = states[:, 3]
        kinds = [
            (at_far[:, 2] < -0.25),                        # an entry
            (at_far[:, 2] >= -0.25) & (at_far[:, 2] < 0),  # only the norm
            (at_far[:, 2] >= 0) & (at_far[:, 2] < 0.05),   # a NaN drift
        ]
        for kind in kinds:
            kind &= ~near
            assert kind.any() and (failed[kind] == 3).all()
        assert (failed[~near & ~np.any(kinds, axis=0)] == -1).all()
        for p in range(96):
            alone = bs.simulate_batch(model, obs, grid, u, 9, [p])
            assert alone.failed_step[0] == failed[p]
            assert batch.states[p].tobytes() == alone.states[0].tobytes()
            assert batch.preclamp[0][p].tobytes() == \
                alone.preclamp[0][0].tobytes()

    def test_out_receives_the_states(self):
        """``out``, here a strided slice of a paths-innermost ensemble
        with failed rows, receives the bytes of the default states and
        becomes the batch's ``states``; the other arrays are unchanged,
        and an ``out`` of the wrong shape or dtype is rejected before
        anything is written."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.0)
        ids = np.arange(40, 240)
        own = bs.simulate_batch(model, obs, grid, u, 5, ids)
        assert (own.failed_step >= 0).any()
        ens = bs.sde.batch_innermost((500,), (grid.n_steps + 1, 3))
        ens[...] = 7.0
        out = ens[40:240]
        got = bs.simulate_batch(model, obs, grid, u, 5, ids, out=out)
        assert got.states is out
        assert out.tobytes() == own.states.tobytes()
        assert (ens[:40] == 7.0).all() and (ens[240:] == 7.0).all()
        for k in range(len(obs.items)):
            assert got.preclamp[k].tobytes() == own.preclamp[k].tobytes()
        for name, arr in own.terms.items():
            assert got.terms[name].tobytes() == arr.tobytes()
        assert got.issues == own.issues
        assert got.failed_step.tobytes() == own.failed_step.tobytes()
        for bad in (ens[40:239], ens[40:240, :, :2],
                    np.zeros((200, grid.n_steps + 1, 3), dtype=np.float32)):
            with pytest.raises(InvalidConfigurationError, match="out must be"):
                bs.simulate_batch(model, obs, grid, u, 5, ids, out=bad)
        assert (ens[:40] == 7.0).all()

    def test_stored_nodes_keep_the_bits(self, monkeypatch):
        """A batch that stores some nodes holds those nodes' states of
        the batch that stores every node, into an ``out`` of its shape
        too, with the same terms, issues, failed steps and
        pre-projection states, also for nodes in an int32 array; nodes
        that are not increasing integer indices of the grid (by
        ``sde.integer``: no float or bool, whatever it would truncate
        to) are rejected before any noise is drawn."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.0)
        ids = np.arange(40, 240)
        full = bs.simulate_batch(model, obs, grid, u, 5, ids)
        assert (full.failed_step >= 0).any()
        m = grid.n_steps
        for nodes in ([0], [3, m], [m // 2], [], list(range(m + 1)),
                      np.array([0, 5], dtype=np.int32)):
            out = bs.sde.batch_innermost((len(ids),), (len(nodes), 3))
            for got in (bs.simulate_batch(model, obs, grid, u, 5, ids,
                                          nodes=nodes),
                        bs.simulate_batch(model, obs, grid, u, 5, ids,
                                          nodes=nodes, out=out)):
                assert got.states.shape == (len(ids), len(nodes), 3)
                assert got.states.tobytes() == \
                    np.ascontiguousarray(full.states[:, nodes]).tobytes()
                for k in range(len(obs.items)):
                    assert got.preclamp[k].tobytes() == \
                        full.preclamp[k].tobytes()
                for name, arr in full.terms.items():
                    assert got.terms[name].tobytes() == arr.tobytes()
                assert got.issues == full.issues
                assert got.failed_step.tobytes() == \
                    full.failed_step.tobytes()
            assert got.states is out
        forbid_noise(monkeypatch)
        for bad in ([3, 3], [5, 2], [-1], [m + 1], [0, 1.7], [True],
                    np.array([0.0, 5.0])):
            with pytest.raises(InvalidConfigurationError,
                               match="nodes must be increasing"):
                bs.simulate_batch(model, obs, grid, u, 5, ids, nodes=bad)
        with pytest.raises(InvalidConfigurationError, match="out must be"):
            bs.simulate_batch(model, obs, grid, u, 5, ids, nodes=[1, 2],
                              out=full.states)

    def test_validate_flag(self):
        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: np.eye(1) * 4.0,
                             ellipticity_bound=2.0)
        obs = scalar_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.01)
        with pytest.raises(EllipticityViolationError):
            bs.simulate_batch(model, obs, grid, np.zeros(1), 1, [0],
                              validate=True)

    def test_full_observation_of_two_dims(self):
        model = bs.brownian(dim=2).spec
        obs = single_full_obs(1.0, [0.3, -0.2], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 2,
                                  np.arange(32))
        assert np.abs(batch.states[:, -1] - [0.3, -0.2]).max() <= 1e-12
