"""Ensemble runner and self-normalized estimation."""
import concurrent.futures
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import bridgesim as bs
import bridgesim.estimator as estimator
from bridgesim.errors import (
    ERROR_KIND,
    DegenerateEnsembleError,
    InvalidConfigurationError,
    UnstableRunError,
)
from bridgesim.estimator import CHUNK_SIZE, weighted_mean_se
from bridgesim.weights import batch_breakdown
from conftest import (
    nondiagonal_sigma_setup,
    rebuilt_channels,
    state_dependent_setup,
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
        """The ensemble's terms, weighted from the kernel's channel
        precision, log-determinant and drift, are the bytes of the
        retained rows of each whole chunk, failed paths included,
        weighted with those arrays rebuilt from its states."""
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
                model, obs, rebuilt_channels(model, obs, sim))
            assert not issues
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
        values = bs.coordinate_at(1.0, 0).array_map(ens)
        assert len(values) == 8
        assert values[3] == ens.states[3, -1, 0]
        assert at_end[3, 0] == ens.states[3, -1, 0]
        assert 0 in ens.preclamp
        assert len(ens.preclamp[0]) == 8


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
            drift_split=(lambda t, x: -np.tanh(x),
                         lambda t, x: np.tanh(x) - x))
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
        for size in (1, 3, 1024):
            monkeypatch.setattr(estimator, "CHUNK_SIZE", size)
            runs.append(ensemble_bytes(bs.run_ensemble(model, obs, grid, u,
                                                       7, seed=8)))
        assert runs[0]["n_failed"] == 0
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_weights_reuse_the_kernel_drift(self):
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
        bs.run_ensemble(model, obs, grid, np.zeros(2), CHUNK_SIZE + 1, seed=2)
        assert len(calls) == 2 * grid.n_steps


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

    def test_bits_do_not_depend_on_workers(self):
        """2 chunks plus a one-path chunk, with failed paths in two
        chunks: every array is byte-equal at 1, 2 and 3 workers."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
        n_paths = 2 * CHUNK_SIZE + 1
        runs = [ensemble_bytes(bs.run_ensemble(model, obs, grid, u, n_paths,
                                               seed=5, threads=threads))
                for threads in (1, 2, 3)]
        failed = np.setdiff1d(np.arange(n_paths),
                              np.frombuffer(runs[0]["path_ids"], dtype=int))
        assert len(np.unique(failed // CHUNK_SIZE)) >= 2
        assert runs[0]["n_failed"] == len(failed)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_worker_count_is_capped(self, monkeypatch):
        """threads=64 on two chunks forks at most two workers."""
        usable = estimator._usable_cpus()
        assert estimator._worker_count(64, 2) == min(2, usable)
        assert estimator._worker_count(64, 1) == 1
        assert estimator._worker_count(1, 50) == 1
        assert 1 <= estimator._worker_count(64, 50) <= usable

        started = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        # the estimator imports the pool only when it forks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        model, obs, grid = brownian_setup(dt_base=0.05)
        n = CHUNK_SIZE + 10
        serial = bs.run_ensemble(model, obs, grid, np.zeros(1), n, seed=2)
        wide = bs.run_ensemble(model, obs, grid, np.zeros(1), n, seed=2,
                               threads=64)
        assert ensemble_bytes(wide) == ensemble_bytes(serial)
        assert started == ([2] if usable > 1 else [])

    def test_worker_error_matches_in_process(self):
        """A diffusion of the wrong shape raises the same error type and
        message from a worker as in process."""
        model = bs.ModelSpec(dim=1, drift=lambda t, x: np.zeros_like(x),
                             diffusion=lambda t, x: np.ones((2, 2)))
        obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.0])], dim=1)
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.01)
        errors = []
        for threads in (1, 2):
            with pytest.raises(InvalidConfigurationError) as info:
                bs.run_ensemble(model, obs, grid, np.zeros(1),
                                CHUNK_SIZE + 1, seed=1, threads=threads)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert "diffusion returned shape (2, 2)" in errors[0][1]

    def test_unpicklable_worker_error_does_not_hang(self):
        """An exception that pickles but cannot be rebuilt in the parent
        reaches it with its type name and message, without hanging."""
        if estimator._worker_count(2, 2) < 2:
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
bs.run_ensemble(model, obs, grid, np.zeros(1), 2 * 1024, seed=1, threads=2)
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

    @pytest.mark.parametrize("shape", [(20000, 1), (8192, 3), (20000, 2),
                                       (5, 7), (20000,)])
    def test_weighted_mean_se_bytes(self, shape):
        """The one-buffer sums have the bytes of the written-out formulas
        sum(w f) and sqrt(sum(w^2 (f - value)^2)), each a pairwise sum
        along the paths of a C-order (d, K) array."""
        rng = np.random.default_rng(shape[0] + len(shape))
        w, _, _ = bs.normalize_log_weights(
            1.5 * rng.standard_normal(shape[0]))
        f = 2.0 - 3.0 * rng.standard_normal(shape)
        value, se = weighted_mean_se(w, f)
        cols = np.array(f.reshape(shape[0], -1).T, order="C")
        want_value = np.sum(cols * w, axis=-1)
        want_se = np.sqrt(np.sum(
            w ** 2 * (cols - want_value[:, None]) ** 2, axis=-1))
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


class TestArrayFunctionals:
    """``coordinate_at`` maps the ensemble's state array in one slice; a
    plain callable runs once per path.  Both give the same bytes."""

    @pytest.mark.parametrize("time,index", [(0.5, 0), (1.0, 1), (0.0, 1)])
    def test_array_map_matches_per_path_callable(self, time, index):
        model, obs, grid, u = ou_setup()
        ens = bs.run_ensemble(model, obs, grid, u, 1500, seed=17)
        f = bs.coordinate_at(time, index)

        def per_path(path):
            return path.state_at(time)[index]

        rep, ref = bs.estimate(ens, f), bs.estimate(ens, per_path)
        assert rep.value.shape == rep.std_error.shape == (1,)
        assert ref.value.shape == ref.std_error.shape == (1,)
        assert rep.value.tobytes() == ref.value.tobytes()
        assert rep.std_error.tobytes() == ref.std_error.tobytes()
        assert rep.ess == ref.ess
        assert moment_bytes(bs.conditional_moments(ens, f)) == \
            moment_bytes(bs.conditional_moments(ens, per_path))
        assert f(next(ens.paths)) == ens.states[0, grid.index_of(time), index]

    def test_vector_array_map(self):
        """Any object with an ``array_map`` is evaluated through it."""
        class EndState:
            def array_map(self, ensemble):
                return np.ascontiguousarray(ensemble.state_at(1.0))

        class StridedEndState:
            """The ensemble's own strided (K, 2) view of the end states."""

            def array_map(self, ensemble):
                return ensemble.state_at(1.0)

        model, obs, grid, u = ou_setup()
        ens = bs.run_ensemble(model, obs, grid, u, 300, seed=4)
        ref = bs.estimate(ens, lambda p: p.state_at(1.0))
        for f in (EndState(), StridedEndState()):
            rep = bs.estimate(ens, f)
            assert rep.value.shape == (2,)
            assert rep.value.tobytes() == ref.value.tobytes()
            assert rep.std_error.tobytes() == ref.std_error.tobytes()
        with pytest.raises(ValueError, match="size 1"):
            bs.conditional_moments(ens, EndState())

    def test_moments_formula_is_weighted_mean_se(self):
        """One column through weighted_mean_se gives the bytes of the
        vector formulas sum(w f) and sqrt(sum(w^2 (f - mean)^2)), each a
        pairwise sum along the paths."""
        rng = np.random.default_rng(11)
        for n in rng.integers(1000, 30001, size=25):
            w, _, _ = bs.normalize_log_weights(2.0 * rng.standard_normal(n))
            f = 1.0 + 3.0 * rng.standard_normal(n)
            mean, se = weighted_mean_se(w, f[:, None])
            direct = np.sum(f * w)
            assert mean.tobytes() == np.array([direct]).tobytes()
            want = np.sqrt(np.sum(w ** 2 * (f - direct) ** 2))
            assert se.tobytes() == np.array([want]).tobytes()


class TestThinnedEnsemble:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_keep_times_matches_full_ensemble(self, threads):
        """Two chunks with failed paths: a thinned run holds the full
        run's bytes in every array, and in its kept state columns."""
        model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
        n_paths = CHUNK_SIZE + 100
        full = bs.run_ensemble(model, obs, grid, u, n_paths, seed=5,
                               threads=threads)
        thin = bs.run_ensemble(model, obs, grid, u, n_paths, seed=5,
                               threads=threads, keep_times=[1.0, 0.55, 1.0])
        nodes = [grid.index_of(0.55), grid.index_of(1.0)]
        assert thin.kept_nodes.tolist() == nodes
        assert thin.states.shape == (full.size, 2, 3)
        assert thin.states.flags.c_contiguous
        assert thin.states.tobytes() == full.states[:, nodes].tobytes()
        assert 0 < thin.n_failed == full.n_failed
        want = ensemble_bytes(full)
        got = ensemble_bytes(thin)
        del want["states"], got["states"]
        assert got == want
        for time in (0.55, 1.0):
            assert thin.state_at(time).tobytes() == \
                full.state_at(time).tobytes()
            f = bs.coordinate_at(time, 2)
            a, b = bs.estimate(thin, f), bs.estimate(full, f)
            assert a.value.tobytes() == b.value.tobytes()
            assert a.std_error.tobytes() == b.std_error.tobytes()
            assert moment_bytes(bs.conditional_moments(thin, f)) == \
                moment_bytes(bs.conditional_moments(full, f))

    def test_rejects_what_it_did_not_keep(self):
        model, obs, grid = brownian_setup()
        ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 16, seed=3,
                              keep_times=[0.5])
        assert ens.states.shape == (16, 1, 1)
        with pytest.raises(InvalidConfigurationError,
                           match="per-path functional.*kept only times"):
            bs.estimate(ens, lambda p: p.state_at(0.5)[0])
        with pytest.raises(InvalidConfigurationError,
                           match="kept only times"):
            bs.conditional_moments(ens, lambda p: p.state_at(0.5)[0])
        with pytest.raises(InvalidConfigurationError,
                           match="time 1.0 was not kept"):
            bs.estimate(ens, bs.coordinate_at(1.0, 0))
        with pytest.raises(InvalidConfigurationError,
                           match="not a grid node"):
            bs.run_ensemble(model, obs, grid, np.zeros(1), 16, seed=3,
                            keep_times=[0.123])


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
