"""Ensemble runner and self-normalized estimation."""
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgesim as bs
import bridgesim.estimator as estimator
from bridgesim.errors import (
    ERROR_KIND,
    DegenerateEnsembleError,
    InvalidConfigurationError,
    UnstableRunError,
)
from bridgesim.estimator import CHUNK_SIZE, weighted_mean_se
from bridgesim.sde import NOISE_BLOCK
from bridgesim.weights import batch_breakdown
from conftest import (
    CHUNK,
    chunk_count,
    nondiagonal_sigma_setup,
    state_dependent_setup,
    two_pass_breakdown,
)


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
        """One chunk in process and two over two workers give the same
        bits."""
        model, obs, grid = brownian_setup(dt_base=0.05)
        n = CHUNK + 700
        assert chunk_count(n, 1) == 1
        assert chunk_count(n, 4) == (
            2 if estimator._worker_count(4, n) > 1 else 1)
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
        for n_paths in (0, True, 10.0, "100"):
            with pytest.raises(InvalidConfigurationError,
                               match="n_paths must be >= 1"):
                bs.run_ensemble(model, obs, grid, np.zeros(1), n_paths, seed=1)
        for n_paths, threads in ((10, 0), (100, 1.5), (5000, 1.5),
                                 (10, True), (10, "2")):
            with pytest.raises(InvalidConfigurationError,
                               match="threads must be >= 1"):
                bs.run_ensemble(model, obs, grid, np.zeros(1), n_paths,
                                seed=1, threads=threads)
        # numpy integers are integers
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), np.int64(10),
                              seed=1, threads=np.int32(2))
        assert len(ens.path_ids) == 10

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

        def spec(diffusion):
            return bs.ModelSpec(dim=2, drift=drift, diffusion=diffusion,
                                guided_drift=bounded)

        obs = bs.validate([bs.Observation(0.5, [[0.6, 0.8]], [0.3]),
                           bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
        u = np.array([0.5, -0.3])
        n_paths = CHUNK + 100
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
    def test_kernel_record_matches_rebuilt_weights(self, threads,
                                                   chunk_cap):
        """The ensemble's terms are the bytes of the retained rows of each
        whole chunk's own batch, failed paths included, whose terms agree
        with the two-pass reference rebuilt from its states to 1e-12
        relative to max(|value|, 1)."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
        n_paths = CHUNK + 100
        assert chunk_count(n_paths, threads) == 2
        ens = bs.run_ensemble(model, obs, grid, u, n_paths, seed=5,
                              threads=threads)
        assert 0 < ens.n_failed <= 0.01 * n_paths
        parts = []
        for start in range(0, n_paths, CHUNK):
            ids = np.arange(start, min(start + CHUNK, n_paths))
            sim = bs.simulate_batch(model, obs, grid, u, 5, ids)
            alive = sim.failed_step < 0
            terms, issues = batch_breakdown(model, obs, sim)
            assert not issues
            rebuilt, _ = two_pass_breakdown(model, obs, sim)
            for name, arr in rebuilt.items():
                assert (np.abs(terms[name] - arr)
                        <= 1e-12 * np.maximum(np.abs(arr), 1.0)).all(), name
            parts.append({name: arr[alive] for name, arr in terms.items()})
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
        at_end = ens.state_at(1.0)
        assert np.shares_memory(at_end, ens.states)
        values = bs.coordinate_at(1.0, 0)(ens)
        assert len(values) == 8
        assert values[3] == ens.states[3, -1, 0]
        assert at_end[3, 0] == ens.states[3, -1, 0]
        assert 0 in ens.preclamp
        assert len(ens.preclamp[0]) == 8

    def test_state_at_observation_time_is_the_observed_value(self):
        """A node 5e-10 before the observation time does not shadow it:
        ``state_at(T)`` reads the projected node, ``v`` on every path."""
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.4])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                             include_times=[1.0 - 5e-10])
        ens = bs.run_ensemble(bs.ou(dim=1).spec, obs, grid, np.zeros(1),
                              500, seed=1)
        assert (ens.state_at(1.0) == 0.4).all()
        assert np.ptp(ens.state_at(1.0 - 5e-10)) > 1e-3


class TestGridAgreement:
    """A run conditions on the observations it is given: their nodes are
    looked up on the grid, and a grid without them is rejected."""

    model = bs.ou(dim=2, f_diag=[-1.0, -0.5], sigma=[1.0, 1.5]).spec
    u = np.array([0.5, -0.3])

    @staticmethod
    def grid(include_times):
        """The grid of x1(1) = 0.7, whose uniform part has no node at 0.5
        or 0.6, plus ``include_times``."""
        built_for = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.7])],
                                dim=2)
        return bs.build_grid(1.0, built_for, dt_base=0.07, dt_min=1e-4,
                             include_times=include_times)

    def test_run_pins_the_observation_it_is_given(self):
        """A grid built for x1(1) = 0.7 with a node at 0.6 serves the
        observation x1(0.6) = 0.7: every path is pinned at 0.6."""
        obs = bs.validate([bs.Observation(0.6, [[1.0, 0.0]], [0.7])], dim=2)
        ens = bs.run_ensemble(self.model, obs, self.grid([0.6]), self.u, 300,
                              seed=3)
        assert np.abs(ens.state_at(0.6)[:, 0] - 0.7).max() <= 1e-12
        assert np.ptp(ens.state_at(1.0)[:, 0]) > 0.1

    @pytest.mark.parametrize("times", [[0.6], [0.5, 1.0]])
    def test_grid_without_the_nodes_rejected(self, times):
        obs = bs.validate([bs.Observation(t, [[1.0, 0.0]], [0.7])
                           for t in times], dim=2)
        with pytest.raises(InvalidConfigurationError):
            bs.run_ensemble(self.model, obs, self.grid([]), self.u, 10,
                            seed=3)

    @pytest.mark.parametrize("matrix", [[[1.0]], [[1.0, 0.0, 0.0]],
                                        [[0.0, 0.0, 1.0]]])
    def test_observation_width_must_match_the_model(self, matrix):
        """simulate_batch and run_ensemble reject an observation that is
        not ``model.dim`` columns wide, zero columns included."""
        obs = bs.validate([bs.Observation(1.0, matrix, [0.7])])
        grid = self.grid([])
        with pytest.raises(InvalidConfigurationError):
            bs.simulate_batch(self.model, obs, grid, self.u, 3, [0])
        with pytest.raises(InvalidConfigurationError):
            bs.run_ensemble(self.model, obs, grid, self.u, 10, seed=3)


def ensemble_bytes(ens) -> dict:
    """Every array of an ensemble as bytes, plus its failure count."""
    out = {"states": ens.states.tobytes(), "path_ids": ens.path_ids.tobytes(),
           "log_weights": ens.log_weights.tobytes(), "n_failed": ens.n_failed}
    out.update({f"breakdown.{k}": v.tobytes()
                for k, v in ens.breakdown.items()})
    out.update({f"preclamp.{k}": v.tobytes() for k, v in ens.preclamp.items()})
    return out


ERROR_ATTRIBUTES = {
    "InvalidConfigurationError": {"field": "observations[1].window"},
    "InvalidObservationError": {"index": 2, "field": "matrix"},
}


class TestChunkLayout:
    """A path's bits depend on (seed, path_id) alone, not on the chunk
    it is simulated and weighted in."""

    @staticmethod
    def drift_split():
        """Split drift under a state-dependent sigma, so the Girsanov
        term inverts a batched a at every step."""
        def diffusion(t, x):
            return (1.0 + 0.25 * np.cos(x))[..., :, None] * np.eye(2)

        model = bs.ModelSpec(
            dim=2, drift=lambda t, x: -x, diffusion=diffusion,
            guided_drift=lambda t, x: -np.tanh(x))
        obs = bs.validate([bs.Observation(0.5, [[0.6, 0.8]], [0.2]),
                           bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3)
        return model, obs, grid, np.array([0.5, -0.3])

    @pytest.mark.parametrize("setup", ["dense_L", "nondiagonal_sigma",
                                       "drift_split"])
    def test_bits_do_not_depend_on_chunk_size(self, setup, monkeypatch):
        model, obs, grid, u = {
            "dense_L": state_dependent_setup,
            "nondiagonal_sigma": nondiagonal_sigma_setup,
            "drift_split": self.drift_split}[setup]()
        runs = []
        for size, chunks in ((1, 7), (3, 3), (1024, 1)):
            monkeypatch.setattr(estimator, "CHUNK_SIZE", size)
            assert chunk_count(7) == chunks
            runs.append(ensemble_bytes(bs.run_ensemble(model, obs, grid, u,
                                                       7, seed=8)))
        assert runs[0]["n_failed"] == 0
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_weights_reuse_the_kernel_drift(self, chunk_cap):
        """The weights read the drift the kernel evaluated: one drift
        call per step per chunk."""
        calls = []

        def drift(t, x):
            calls.append(t)
            return np.sin(x)

        model = bs.ModelSpec(dim=2, drift=drift, diffusion=np.eye(2))
        obs = bs.validate([bs.Observation(0.5, [[0.6, 0.8]], [0.2]),
                           bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3)
        assert chunk_count(CHUNK + 1) == 2
        bs.run_ensemble(model, obs, grid, np.zeros(2), CHUNK + 1, seed=2)
        assert len(calls) == 2 * grid.n_steps


class TestNonFiniteWeights:
    def test_path_with_a_non_finite_weight_is_dropped(self, chunk_cap):
        """A 1-D Brownian bridge simulated under a zero ``guided_drift``
        whose full drift is NaN beyond |x| = 1.7: every path simulates
        cleanly, and the paths that pass 1.7 before the last step (8 of
        ``CHUNK + 100``, in both chunks) get a NaN Girsanov term.
        Those, and only those, are dropped and counted, with the same
        bytes in one process and over two workers."""
        bound = 1.7
        model = bs.ModelSpec(
            dim=1, diffusion=np.eye(1),
            drift=lambda t, x: np.where(np.abs(x) > bound, np.nan, 0.0),
            guided_drift=lambda t, x: np.zeros_like(x))
        _, obs, grid = brownian_setup(value=0.0)
        n_paths = CHUNK + 100
        assert chunk_count(n_paths, 1) == chunk_count(n_paths, 2) == 2
        sim = bs.simulate_batch(model, obs, grid, np.zeros(1), 13,
                                np.arange(n_paths))
        assert (sim.failed_step < 0).all()
        past = (np.abs(sim.states[:, :-1, 0]) > bound).any(axis=1)
        assert 0 < past[:CHUNK].sum() and 0 < past[CHUNK:].sum()
        assert past.sum() <= 0.01 * n_paths
        runs = [bs.run_ensemble(model, obs, grid, np.zeros(1), n_paths,
                                seed=13, threads=threads)
                for threads in (1, 2)]
        for ens in runs:
            assert ens.n_failed == past.sum()
            assert ens.path_ids.tolist() == np.flatnonzero(~past).tolist()
            assert np.isfinite(ens.log_weights).all()
            assert np.isfinite(ens.breakdown["girsanov"]).all()
        assert ensemble_bytes(runs[1]) == ensemble_bytes(runs[0])


def owned_bytes(arrays) -> int:
    """Bytes of the memory behind ``arrays``, each buffer counted once
    as the span its strides reach, so a broadcast view counts only the
    entries it repeats."""
    spans = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        spans[id(arr)] = arr.itemsize + sum(
            (n - 1) * abs(s) for n, s in zip(arr.shape, arr.strides))
    return sum(spans.values())


# the one-pass working set of a 2048-row chunk above its states: the
# kernel's per-step rows and its terms, never an array per window step;
# it grows in proportion to the rows
CHUNK_BUDGET_MB = {"ou2d": 1.0, "state_dependent": 2.5}


class TestChunkWorkingSet:
    """A chunk holds no second state-sized buffer and nothing per window
    step: the noise is drawn into the state rows, and the kernel adds
    the weight terms as it steps."""

    @staticmethod
    def ou2d():
        model = bs.ou(dim=2, f_diag=[-1.0, -0.5], sigma=[1.0, 1.5]).spec
        obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                             include_times=[0.5])
        return model, obs, grid, np.array([0.5, -0.3])

    @pytest.mark.parametrize("setup", ["ou2d", "state_dependent"])
    def test_simulate_and_breakdown_transients(self, setup):
        """The kernel peaks under the chunk budget above its states (for a
        state-dependent sigma, 2.5 MB at 2048 rows), and handing back its
        terms allocates nothing."""
        self.check_transients(setup, 2048)

    def test_transients_grow_with_the_rows(self):
        """At the cap, 8192 rows, a state-dependent chunk peaks under 4
        times the 2048-row budget."""
        assert CHUNK_SIZE == 4 * 2048
        self.check_transients("state_dependent", CHUNK_SIZE)

    def check_transients(self, setup, rows):
        model, obs, grid, u = {
            "ou2d": self.ou2d,
            "state_dependent": lambda: state_dependent_setup(
                dt_base=0.01, dt_min=1e-4)}[setup]()
        ids = np.arange(rows)
        # a first run of one noise block fills any one-off caches before
        # memory is traced
        batch_breakdown(model, obs, bs.simulate_batch(model, obs, grid, u,
                                                      3, ids[:64]))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch = bs.simulate_batch(model, obs, grid, u, 3, ids)
            held, sim_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            batch_breakdown(model, obs, batch)
            weigh_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = owned_bytes([batch.states, batch.failed_step, batch.path_ids,
                            *batch.preclamp.values(),
                            *batch.terms.values()])
        assert held - base >= kept
        assert sim_peak - base - batch.states.nbytes \
            < CHUNK_BUDGET_MB[setup] * rows / 2048 * 2 ** 20
        assert weigh_peak - held < 4096


class TestEnsembleBuffer:
    """Chunks are simulated straight into the ensemble's states."""

    def test_run_holds_each_state_once(self, chunk_cap):
        """A one-process run of three chunks under a callable sigma peaks
        no more than one chunk's working set and the rows it hands back
        above the ensemble it returns: no chunk's states are held
        besides it."""
        model, obs, grid, u = state_dependent_setup(dt_base=0.01,
                                                    dt_min=1e-4)
        n_paths = 3 * CHUNK - 100
        assert chunk_count(n_paths) == 3
        # the first run fills any one-off caches before memory is traced
        bs.run_ensemble(model, obs, grid, u, 10, seed=3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ens = bs.run_ensemble(model, obs, grid, u, n_paths, seed=3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.size == n_paths
        assert held - base >= ens.states.nbytes
        rows = sum(arr.nbytes for arr in (
            ens.path_ids, ens.log_weights, *ens.breakdown.values(),
            *ens.preclamp.values())) * CHUNK // n_paths
        assert peak - held < CHUNK_BUDGET_MB["state_dependent"] * 2 ** 20 \
            + rows

    def test_chunks_are_bounds_not_id_lists(self, monkeypatch):
        """A run of 10^6 paths holds its chunks as bounds: up to the
        first chunk's simulation it allocates under 1 MB, not an id
        array per chunk."""
        model, obs, grid, u = TestChunkWorkingSet.ou2d()

        def first_call(*args, **kwargs):
            raise RuntimeError("first chunk")

        monkeypatch.setattr(estimator, "simulate_batch", first_call)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(RuntimeError, match="first chunk"):
                estimator._ensemble(model, obs, grid, u, 10 ** 6, 3, 1,
                                    False, emit=lambda rows: (rows, None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 2 ** 20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_rows_squeezed_out_in_chunk_order(self, threads,
                                                     monkeypatch):
        """With failed paths in the first, a middle and a partial tail
        chunk, the states, ids and unprojected states are the surviving
        rows of each chunk's own ``simulate_batch``, in chunk order, and
        no chunk result that a worker sends carries states."""
        monkeypatch.setattr(estimator, "CHUNK_SIZE", 400)
        model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
        n_paths, seed = 1100, 4
        assert chunk_count(n_paths, threads) == 3
        sent = []
        mapped = estimator._map_in_workers

        def recording(work, n_chunks, n_workers):
            for rows, emitted in mapped(work, n_chunks, n_workers):
                sent.append({key: np.shape(arr) for key, arr in rows.items()})
                yield rows, emitted

        monkeypatch.setattr(estimator, "_map_in_workers", recording)
        ens = bs.run_ensemble(model, obs, grid, u, n_paths, seed=seed,
                              threads=threads)
        states, ids, pre = [], [], {k: [] for k in range(len(obs.items))}
        for start in range(0, n_paths, 400):
            chunk = np.arange(start, min(start + 400, n_paths))
            sim = bs.simulate_batch(model, obs, grid, u, seed, chunk)
            _, issues = batch_breakdown(model, obs, sim)
            ok = sim.failed_step < 0
            ok[[row for row, _, _, _ in issues]] = False
            assert not ok.all()
            states.append(sim.states[ok])
            ids.append(sim.path_ids[ok])
            for k in pre:
                pre[k].append(sim.preclamp[k][ok])
        assert ens.n_failed == n_paths - ens.size
        assert ens.states.tobytes() == np.concatenate(states).tobytes()
        assert ens.path_ids.tobytes() == np.concatenate(ids).tobytes()
        for k in pre:
            assert ens.preclamp[k].tobytes() == \
                np.concatenate(pre[k]).tobytes()
        if estimator._worker_count(threads, n_paths) > 1:
            assert len(sent) == 3
        else:
            assert sent == []
        for shapes in sent:
            assert "states" not in shapes
            assert all(len(shape) < 3 for shape in shapes.values())


class TestChunkRows:
    """Each run sizes its chunks from its path count and the workers it
    actually uses."""

    @settings(max_examples=300, deadline=None)
    @given(n_paths=st.integers(1, 10 ** 6), workers=st.integers(1, 4))
    def test_rule(self, n_paths, workers):
        # a run forks at most one worker per 2048 paths
        workers = min(workers, -(-n_paths // 2048))
        rows = estimator._chunk_rows(n_paths, workers)
        n_chunks = -(-n_paths // rows)
        assert rows % NOISE_BLOCK == 0
        assert rows <= CHUNK_SIZE
        assert min(rows, n_paths) >= min(2048, n_paths)
        if workers == 1:
            assert n_chunks == -(-n_paths // CHUNK_SIZE)
        else:
            # two chunks per worker, unless 2048-path chunks are fewer
            assert n_chunks >= min(2 * workers, -(-n_paths // 2048))
            assert n_chunks >= workers

    def test_sizes(self, monkeypatch):
        """20k paths over two workers are four chunks of 5056, even at
        threads=64; at one worker, 9000 are a cap-sized chunk and an
        808-path tail."""
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
        if estimator._worker_count(2, 20000) < 2:
            pytest.skip("needs fork")
        for threads in (2, 64):
            workers = estimator._worker_count(threads, 20000)
            assert workers == 2
            assert estimator._chunk_rows(20000, workers) == 5056
        assert estimator._chunk_rows(9000, 1) == CHUNK_SIZE == 8192
        assert estimator._chunk_rows(9000, 2) == 2304
        assert estimator._chunk_rows(4200, 2) == 2048
        assert estimator._worker_count(64, 2048) == 1


@pytest.mark.filterwarnings("error")
class TestWorkerPool:
    """Chunks in forked worker processes: bits, worker count, errors.

    Warnings are errors here, so a fork warning (Python 3.12+ warns on
    fork from a multi-threaded process) fails these tests."""

    @pytest.mark.parametrize("cls", list(ERROR_KIND),
                             ids=lambda c: c.__name__)
    def test_errors_survive_pickling(self, cls):
        attrs = ERROR_ATTRIBUTES.get(cls.__name__, {})
        exc = cls("something went wrong", **attrs)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == "something went wrong"
        assert back.args == exc.args
        assert vars(back) == vars(exc) == attrs

    def test_bits_do_not_depend_on_workers(self, chunk_cap):
        """2 chunks plus a one-path chunk, with failed paths in two
        chunks: every array is byte-equal at 1, 2 and 3 workers."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
        n_paths = 2 * CHUNK + 1
        assert [chunk_count(n_paths, t) for t in (1, 2, 3)] == [3, 3, 3]
        runs = [ensemble_bytes(bs.run_ensemble(model, obs, grid, u, n_paths,
                                               seed=5, threads=threads))
                for threads in (1, 2, 3)]
        failed = np.setdiff1d(np.arange(n_paths),
                              np.frombuffer(runs[0]["path_ids"], dtype=int))
        assert len(np.unique(failed // CHUNK)) >= 2
        assert runs[0]["n_failed"] == len(failed)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_worker_count_is_capped(self, monkeypatch):
        """threads=64 on 2048 paths or fewer forks no worker, and on two
        chunks' worth at most two."""
        usable = estimator._usable_cpus()
        assert estimator._worker_count(64, 2 * CHUNK) == min(2, usable)
        assert estimator._worker_count(64, CHUNK) == 1
        assert estimator._worker_count(1, 50 * CHUNK) == 1
        assert 1 <= estimator._worker_count(64, 50 * CHUNK) <= usable

        started = []
        fork_map = estimator._map_in_workers

        def recording(work, n_chunks, n_workers):
            started.append(n_workers)
            return fork_map(work, n_chunks, n_workers)

        monkeypatch.setattr(estimator, "_map_in_workers", recording)
        model, obs, grid = brownian_setup(dt_base=0.05)
        n = CHUNK + 10
        serial = bs.run_ensemble(model, obs, grid, np.zeros(1), n, seed=2)
        wide = bs.run_ensemble(model, obs, grid, np.zeros(1), n, seed=2,
                               threads=64)
        assert ensemble_bytes(wide) == ensemble_bytes(serial)
        assert started == ([2] if usable > 1 else [])

    def test_worker_error_matches_in_process(self):
        """A diffusion of the wrong shape raises the same error type and
        message from a worker, whose chunks are smaller, as in process."""
        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: np.ones((2, 2)))
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.0])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.01)
        assert chunk_count(CHUNK + 1, 1) == 1
        errors = []
        for threads in (1, 2):
            with pytest.raises(InvalidConfigurationError) as info:
                bs.run_ensemble(model, obs, grid, np.zeros(1),
                                CHUNK + 1, seed=1, threads=threads)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert "diffusion returned shape (2, 2)" in errors[0][1]

    def test_unpicklable_worker_error_does_not_hang(self):
        """An exception that pickles but cannot be rebuilt in the parent
        reaches it with its type name and message, without hanging."""
        if estimator._worker_count(2, 4096) < 2:
            pytest.skip("needs fork and two usable CPUs")
        script = """
import numpy as np
import bridgesim as bs

class Unrebuildable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")

def drift(t, x):
    raise Unrebuildable("user", "error")

model = bs.ModelSpec(dim=1, drift=drift, diffusion=np.eye(1))
obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.0])], dim=1)
grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.01)
bs.run_ensemble(model, obs, grid, np.zeros(1), 4096, seed=1, threads=2)
"""
        src = os.path.dirname(os.path.dirname(estimator.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        last = proc.stderr.strip().splitlines()[-1]
        assert last == "RuntimeError: Unrebuildable: user error"
        assert "BrokenProcessPool" not in proc.stderr

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_dies_raises(self):
        """A worker that exits in the middle of a chunk ends the run with
        an error instead of a hang, and no worker is left behind, after
        that run as after a clean one."""
        if estimator._worker_count(2, 2 * CHUNK) < 2:
            pytest.skip("needs fork and two usable CPUs")
        parent = os.getpid()

        def drift(t, x):
            if os.getpid() != parent and t > 0.5:
                os._exit(3)
            return np.zeros_like(x)

        model = bs.ModelSpec(dim=1, drift=drift, diffusion=np.eye(1))
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.0])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.01)
        clean = bs.run_ensemble(bs.brownian(dim=1).spec, obs, grid,
                                np.zeros(1), 2 * CHUNK, seed=1, threads=2)
        assert clean.size == 2 * CHUNK
        self.assert_no_child_left()
        with pytest.raises(RuntimeError, match="a worker ended before chunk"):
            bs.run_ensemble(model, obs, grid, np.zeros(1), 2 * CHUNK,
                            seed=1, threads=2)
        self.assert_no_child_left()

    @pytest.mark.parametrize("how", ["sink", "worker"])
    def test_abandoned_run_leaves_no_worker(self, how, chunk_cap):
        """A run the parent stops early, because its ``sink`` raises after
        the first chunk or a worker raises, has killed and reaped every
        worker by the time the error reaches the caller, while the
        error and its frames are still alive."""
        if estimator._worker_count(2, 4 * CHUNK) < 2:
            pytest.skip("needs fork and two usable CPUs")
        model, obs, grid = brownian_setup(dt_base=0.05)
        assert chunk_count(4 * CHUNK, 2) == 4
        parent = os.getpid()
        sunk = []

        def emit(rows):
            if how == "worker" and os.getpid() != parent \
                    and rows["path_ids"][0] >= CHUNK:
                raise ValueError("second chunk")
            return rows, len(rows["path_ids"])

        def sink(count):
            sunk.append(count)
            if how == "sink":
                raise OSError("disk full")

        error = OSError if how == "sink" else ValueError
        with pytest.raises(error) as info:
            estimator._ensemble(model, obs, grid, np.zeros(1), 4 * CHUNK, 2,
                                2, False, emit=emit, sink=sink)
        assert info.traceback
        self.assert_no_child_left()
        assert sunk == [CHUNK]


class TestEstimate:
    def test_constant_functional(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 128, seed=8)
        rep = bs.estimate(ens, lambda e: np.ones(e.size))
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
        rep = bs.estimate(ens, lambda e: np.column_stack(
            [e.state_at(0.5)[:, 0], e.state_at(1.0)[:, 0]]))
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

    @pytest.mark.parametrize("shape", [(20000, 1), (8192, 3), (20000, 2),
                                       (5, 7), (20000,)])
    def test_weighted_mean_se_bytes(self, shape):
        """The one-buffer sums have the bytes of the written-out formulas
        f0 + c and sqrt(sum(w^2 (f - f0 - c)^2)) with c = sum(w (f - f0))
        and f0 each column's first value, each a pairwise sum along the
        paths of a C-order (d, K) array."""
        rng = np.random.default_rng(shape[0] + len(shape))
        w, _, _ = bs.normalize_log_weights(
            1.5 * rng.standard_normal(shape[0]))
        f = 2.0 - 3.0 * rng.standard_normal(shape)
        value, se = weighted_mean_se(w, f)
        cols = np.array(f.reshape(shape[0], -1).T, order="C")
        cols = cols - cols[:, :1]
        centre = np.sum(cols * w, axis=-1)
        want_value = centre + f.reshape(shape[0], -1)[0]
        want_se = np.sqrt(np.sum(
            w ** 2 * (cols - centre[:, None]) ** 2, axis=-1))
        assert value.shape == se.shape == shape[1:]
        assert value.tobytes() == want_value.tobytes()
        assert se.tobytes() == want_se.tobytes()

    def test_weighted_mean_se_ignores_layout(self):
        """C-order, Fortran-order, strided and per-path-list values give
        the same bytes, and the caller's values are left as they were."""
        rng = np.random.default_rng(8)
        w, _, _ = bs.normalize_log_weights(rng.standard_normal(5000))
        wide = 1.0 + 2.0 * rng.standard_normal((5000, 7))
        f = np.ascontiguousarray(wide[:, 1::2])
        want = [a.tobytes() for a in weighted_mean_se(w, f)]
        for fv in (np.asfortranarray(f), wide[:, 1::2], list(f)):
            got = [a.tobytes() for a in weighted_mean_se(w, fv)]
            assert got == want
        for j in range(3):
            col = wide[:, 1 + 2 * j:2 + 2 * j]
            want_j = [a[j:j + 1].tobytes() for a in weighted_mean_se(w, f)]
            for fv in (col, np.ascontiguousarray(col), col[:, 0]):
                kept = np.array(fv)
                got = weighted_mean_se(w, fv)
                assert [a.reshape(-1).tobytes() for a in got] == want_j
                assert np.array(fv).tobytes() == kept.tobytes()

    def test_weighted_mean_se_ignores_blas_threads(self):
        """Two processes, one with every BLAS library at one thread and
        one at two, give the same bytes."""
        script = """
import numpy as np
from bridgesim.estimator import weighted_mean_se
rng = np.random.default_rng(2)
w = np.exp(rng.standard_normal(20000))
w /= w.sum()
f = 1.0 + 3.0 * rng.standard_normal((20000, 1))
value, se = weighted_mean_se(w, f)
print(value.tobytes().hex(), se.tobytes().hex())
"""
        src = os.path.dirname(os.path.dirname(estimator.__file__))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS"):
                env[name] = threads
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=120, check=True)
            out.append(proc.stdout)
        assert out[0] and out[0] == out[1]


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


def ou_setup():
    """The criterion-06 model: 2-D OU, first coordinate observed at 1."""
    model = bs.ou(dim=2, f_diag=[-1.0, -0.5], sigma=[1.0, 1.5]).spec
    obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
    grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3,
                         include_times=[0.5])
    return model, obs, grid, np.array([0.5, -0.3])


def moment_bytes(mom) -> bytes:
    return np.array([mom.mean, mom.mean_se, mom.var, mom.var_se,
                     mom.ess]).tobytes()


def per_path_gather(node, index=slice(None)):
    """A functional that copies each path's state at grid node ``node``
    one path at a time into a new contiguous array."""
    return lambda e: np.array([e.states[i, node, index]
                               for i in range(e.size)])


class TestArrayFunctionals:
    """``coordinate_at`` maps the ensemble's state array in one slice; a
    functional that gathers the same values one path at a time gives the
    same bytes."""

    @pytest.mark.parametrize("time,index", [(0.5, 0), (1.0, 1), (0.0, 1)])
    def test_array_map_matches_per_path_callable(self, time, index):
        model, obs, grid, u = ou_setup()
        ens = bs.run_ensemble(model, obs, grid, u, 1500, seed=17)
        f = bs.coordinate_at(time, index)
        per_path = per_path_gather(grid.index_of(time), index)

        rep, ref = bs.estimate(ens, f), bs.estimate(ens, per_path)
        assert rep.value.shape == rep.std_error.shape == (1,)
        assert ref.value.shape == ref.std_error.shape == (1,)
        assert rep.value.tobytes() == ref.value.tobytes()
        assert rep.std_error.tobytes() == ref.std_error.tobytes()
        assert rep.ess == ref.ess
        assert moment_bytes(bs.conditional_moments(ens, f)) == \
            moment_bytes(bs.conditional_moments(ens, per_path))
        assert f(ens)[0] == ens.states[0, grid.index_of(time), index]

    def test_vector_array_map(self):
        """Any callable of the ensemble is evaluated through one call."""
        class EndState:
            def __call__(self, ensemble):
                return np.ascontiguousarray(ensemble.state_at(1.0))

        class StridedEndState:
            """The ensemble's own strided (K, 2) view of the end states."""

            def __call__(self, ensemble):
                return ensemble.state_at(1.0)

        model, obs, grid, u = ou_setup()
        ens = bs.run_ensemble(model, obs, grid, u, 300, seed=4)
        ref = bs.estimate(ens, per_path_gather(grid.index_of(1.0)))
        for f in (EndState(), StridedEndState()):
            rep = bs.estimate(ens, f)
            assert rep.value.shape == (2,)
            assert rep.value.tobytes() == ref.value.tobytes()
            assert rep.std_error.tobytes() == ref.std_error.tobytes()
        with pytest.raises(InvalidConfigurationError,
                           match=r"one row per retained path, \(300,\) or "
                                 r"\(300, 1\), not \(300, 2\)"):
            bs.conditional_moments(ens, EndState())

    def test_moments_formula_is_weighted_mean_se(self):
        """One column through weighted_mean_se gives the bytes of the
        vector formulas f0 + c and sqrt(sum(w^2 (f - f0 - c)^2)), with
        c = sum(w (f - f0)) and f0 the first value, each a pairwise sum
        along the paths."""
        rng = np.random.default_rng(11)
        for n in rng.integers(1000, 30001, size=25):
            w, _, _ = bs.normalize_log_weights(2.0 * rng.standard_normal(n))
            f = 1.0 + 3.0 * rng.standard_normal(n)
            mean, se = weighted_mean_se(w, f[:, None])
            centre = np.sum((f - f[0]) * w)
            assert mean.tobytes() == np.array([centre + f[0]]).tobytes()
            want = np.sqrt(np.sum(w ** 2 * (f - f[0] - centre) ** 2))
            assert se.tobytes() == np.array([want]).tobytes()


class TestFunctionalContract:
    """A functional is a callable ``f(ensemble)`` returning one row per
    retained path, called once per estimate."""

    def test_each_estimate_calls_the_functional_once(self):
        model, obs, grid, u = ou_setup()
        ens = bs.run_ensemble(model, obs, grid, u, 200, seed=6)
        calls = []

        def f(e):
            calls.append(e)
            return e.state_at(0.5)[:, 0]

        bs.estimate(ens, f)
        bs.conditional_moments(ens, f)
        assert len(calls) == 2 and all(e is ens for e in calls)

    def test_per_path_callables_are_rejected(self):
        """Criterion 05's former per-path functional reads row 0 of the
        ensemble's states, two values in all, not one row per path."""
        model = bs.brownian(dim=2).spec
        obs = bs.validate([
            bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
        ], dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3,
                             include_times=[0.25])
        ens = bs.run_ensemble(model, obs, grid, np.zeros(2), 100, seed=5)
        for f in (lambda p: np.array([p.state_at(0.25)[0],
                                      p.state_at(0.5)[1]]),
                  lambda p: 1.0):
            for call in (bs.estimate, bs.conditional_moments):
                with pytest.raises(InvalidConfigurationError,
                                   match=r"f\(ensemble\) returns one row "
                                         r"per retained path"):
                    call(ens, f)


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
            estimates.append(bs.estimate(ens, lambda e: e.state_at(0.55)))
        coarse, fine = estimates
        combined = np.hypot(coarse.std_error, fine.std_error)
        assert np.all(np.abs(coarse.value - fine.value) < 3.0 * combined)
