"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the
measured margin (visible with ``pytest -s`` or on failure) and also
surfaces as one verbose pytest line.
"""
import json

import numpy as np

import bridgesim as bs
from bridgesim.cli import main
from conftest import channel_bundle, rand_orthonormal, rand_spd


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_projection_algebra():
    """200 random channel geometries satisfy the projection identities
    to 1e-10."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        a = rand_spd(rng, n, 1e3)
        L = rand_orthonormal(rng, m, n)
        sigma = np.linalg.cholesky(a)
        ch, beta, P = channel_bundle(sigma, L)
        r = np.linspace(-1.0, 2.0, m)
        worst = max(
            worst,
            float(np.abs(L @ P - L).max()),
            float(np.abs(P @ P - P).max()),
            float(np.abs(beta.T @ beta - ch.A).max()),
            float(np.abs(L @ sigma @ beta - np.eye(m)).max()),
            float(np.abs(L @ ch.pull(r) - r).max()))
    report(1, worst <= 1e-10,
           f"max identity residual {worst:.3e} over 200 instances "
           "(tolerance 1e-10)")


def test_criterion_02_exact_pinning():
    """Every bridge path hits each observed combination to 1e-12."""
    model = bs.brownian(dim=2).spec
    obs = bs.validate([
        bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
        bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
    ], dim=2)
    grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4)
    batch = bs.simulate_batch(model, obs, grid, np.zeros(2), 2001,
                              np.arange(1000))
    assert not (batch.failed_step >= 0).any()
    worst = 0.0
    for k, ob in enumerate(obs.items):
        j = grid.obs_indices[k]
        resid = batch.states[:, j] @ ob.matrix.T - ob.value
        worst = max(worst, float(np.abs(resid).max()))
    report(2, worst <= 1e-12,
           f"max pinning residual {worst:.3e} over 1000 paths x 2 "
           "observations (tolerance 1e-12)")


def test_criterion_03_constant_weight_degenerate_case():
    """Driftless unit-noise model, full observation, full-span window:
    the weights carry no path dependence at all."""
    model = bs.brownian(dim=2).spec
    obs = bs.validate([bs.Observation(
        1.0, np.eye(2), [0.3, -0.2], window=1.0)], dim=2)
    grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4)
    ens = bs.run_ensemble(model, obs, grid, np.zeros(2), 1000, seed=2002)
    spread = float(ens.log_weights.std())
    _, _, ess = bs.normalize_log_weights(ens.log_weights)
    ok = spread <= 1e-10 and ess / ens.size >= 0.999
    report(3, ok,
           f"log-weight stddev {spread:.3e} (tolerance 1e-10), "
           f"ESS/N {ess / ens.size:.6f} (required >= 0.999)")


def test_criterion_04_brownian_bridge_mean():
    """Midpoint mean of the standard bridge from 0 to 1."""
    model = bs.brownian(dim=1).spec
    obs = bs.validate([bs.Observation(1.0, [[1.0]], [1.0])], dim=1)
    grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                         include_times=[0.5])
    ens = bs.run_ensemble(model, obs, grid, np.zeros(1), 10_000, seed=2003)
    rep = bs.estimate(ens, bs.coordinate_at(0.5, 0))
    value, se = float(rep.value[0]), float(rep.std_error[0])
    dev = abs(value - 0.5)
    ok = dev < 3.0 * se and se < 0.02
    report(4, ok,
           f"E[y(1/2)] = {value:.5f}, |dev| = {dev:.5f} < 3 SE = {3 * se:.5f},"
           f" SE = {se:.5f} < 0.02")


def test_criterion_05_partial_observation_example():
    """Planar motion with one coordinate observed midway, the other at
    the end; marginal means match the exact values and the coordinate
    increments stay uncorrelated."""
    model = bs.brownian(dim=2).spec
    obs = bs.validate([
        bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
        bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
    ], dim=2)
    grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                         include_times=[0.25])
    ens = bs.run_ensemble(model, obs, grid, np.zeros(2), 10_000, seed=2005)
    rep = bs.estimate(ens, lambda p: np.array(
        [p.state_at(0.25)[0], p.state_at(0.5)[1]]))
    dev1 = abs(float(rep.value[0]) - 0.15)
    dev2 = abs(float(rep.value[1]) - (-0.1))
    inc = np.diff(ens.states, axis=1)
    r = float(np.corrcoef(inc[:, :, 0].ravel(), inc[:, :, 1].ravel())[0, 1])
    ok = (dev1 < 3.0 * float(rep.std_error[0])
          and dev2 < 3.0 * float(rep.std_error[1])
          and abs(r) < 0.03)
    report(5, ok,
           f"E[y1(0.25)] dev {dev1:.5f} < {3 * float(rep.std_error[0]):.5f}, "
           f"E[y2(0.5)] dev {dev2:.5f} < {3 * float(rep.std_error[1]):.5f}, "
           f"increment correlation |r| = {abs(r):.5f} < 0.03")


def _relaxation_setup():
    built = bs.ou(dim=2, f_diag=[-1.0, -0.5], sigma=[1.0, 1.5])
    u = np.array([0.5, -0.3])
    obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
    lm = built.linear_reference(u)
    law = bs.joint_law(lm, [0.5, 1.0])
    sel, val = bs.observation_selector([0.5, 1.0], 2, obs)
    cond = bs.condition(law, sel, val)
    targets = {
        "mean_y1_half": float(cond.mean[0]),
        "var_y1_half": float(cond.cov[0, 0]),
        "mean_y2_end": float(cond.mean[3]),
        "var_y2_end": float(cond.cov[3, 3]),
    }
    return built, u, obs, targets


def _relaxation_estimates(built, u, obs, seed, dt_min):
    grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=dt_min,
                         include_times=[0.5])
    ens = bs.run_ensemble(built.spec, obs, grid, u, 20_000, seed=seed)
    m1 = bs.conditional_moments(ens, bs.coordinate_at(0.5, 0))
    m2 = bs.conditional_moments(ens, bs.coordinate_at(1.0, 1))
    return {
        "mean_y1_half": (m1.mean, m1.mean_se),
        "var_y1_half": (m1.var, m1.var_se),
        "mean_y2_end": (m2.mean, m2.mean_se),
        "var_y2_end": (m2.var, m2.var_se),
    }


def test_criterion_06_partial_observation_vs_oracle():
    """Two-dimensional linear model with one observed coordinate: the
    conditional mean and variance of both an unobserved coordinate and
    an intermediate time match the Gaussian reference, across 20
    replications."""
    built, u, obs, targets = _relaxation_setup()
    passes = 0
    total = 0
    for rep_idx in range(20):
        est = _relaxation_estimates(built, u, obs, seed=3000 + rep_idx,
                                    dt_min=1e-4)
        for key, (value, se) in est.items():
            total += 1
            if abs(value - targets[key]) < 3.0 * se:
                passes += 1
    rate = passes / total
    report(6, rate >= 0.95,
           f"{passes}/{total} oracle comparisons within 3 SE "
           f"(rate {rate:.3f}, required >= 0.95)")


def test_criterion_07_cutoff_convergence():
    """Stopping the guidance a distance eps early: the matched-noise
    mean-square gap at the endpoint decreases along eps."""
    model = bs.brownian(dim=1).spec
    obs = bs.validate([bs.Observation(1.0, [[1.0]], [1.0])], dim=1)
    eps_values = (0.1, 0.05, 0.025)
    grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                         include_times=[1.0 - e for e in eps_values])
    ids = np.arange(1000)
    full = bs.simulate_batch(model, obs, grid, np.zeros(1), 2007, ids)
    gaps = []
    for eps in eps_values:
        cut = bs.simulate_batch(model, obs, grid, np.zeros(1), 2007, ids,
                                epsilon_cutoff=eps)
        gaps.append(float(np.mean(
            (cut.states[:, -1] - full.states[:, -1]) ** 2)))
    ok = gaps[0] > gaps[1] > gaps[2]
    report(7, ok,
           "E|y_eps(T) - y(T)|^2 = "
           + ", ".join(f"{g:.5f}" for g in gaps)
           + f" along eps = {eps_values} (strictly decreasing)")


def test_criterion_08_drift_split_self_consistency():
    """b(x) = -x handled inside the guided drift versus moved entirely
    into the path correction: both routes agree on the conditional mean."""
    obs = bs.validate([bs.Observation(1.0, [[1.0]], [0.4])], dim=1)
    grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                         include_times=[0.5])
    results = []
    for split in (False, True):
        built = bs.ou(dim=1, f_diag=-1.0, drift_split=split)
        ens = bs.run_ensemble(built.spec, obs, grid, np.zeros(1), 20_000,
                              seed=2008)
        rep = bs.estimate(ens, bs.coordinate_at(0.5, 0))
        results.append((float(rep.value[0]), float(rep.std_error[0])))
    (v1, s1), (v2, s2) = results
    combined = float(np.hypot(s1, s2))
    dev = abs(v1 - v2)
    report(8, dev < 3.0 * combined,
           f"bounded route {v1:.5f} +/- {s1:.5f}, split route {v2:.5f} "
           f"+/- {s2:.5f}, |dev| = {dev:.5f} < 3 combined SE = "
           f"{3 * combined:.5f}")


def test_criterion_09_discretization_stability():
    """Halving the smallest step of the refined grid moves every
    reported estimate by less than one standard error."""
    built, u, obs, targets = _relaxation_setup()
    coarse = _relaxation_estimates(built, u, obs, seed=3100, dt_min=1e-4)
    fine = _relaxation_estimates(built, u, obs, seed=3100, dt_min=5e-5)
    ok = True
    details = []
    for key in coarse:
        delta = abs(coarse[key][0] - fine[key][0])
        se = coarse[key][1]
        details.append(f"{key}: |delta| = {delta:.2e} vs SE {se:.2e}")
        ok = ok and delta < se
    report(9, ok, "; ".join(details))


def test_criterion_10_thread_determinism(tmp_path):
    """The per-path CSV of a run is byte-identical across thread counts."""
    results = {}
    for threads in (1, 4):
        csv_path = tmp_path / f"ensemble_t{threads}.csv"
        cfg = {
            "schema_version": 1,
            "model": {"name": "brownian", "params": {"dim": 1}},
            "observations": [
                {"time": 1.0, "matrix": [[1.0]], "value": [1.0]},
            ],
            "grid": {"dt_base": 0.01, "dt_min": 1e-4},
            "n_paths": 10_000,
            "seed": 2010,
            "functionals": [
                {"type": "coordinate", "time": 0.5, "coordinate": 0},
            ],
            "outputs": {"report": str(tmp_path / f"report_t{threads}.json"),
                        "ensemble_csv": str(csv_path)},
        }
        cfg_path = tmp_path / f"config_t{threads}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path), "--threads", str(threads)]) == 0
        results[threads] = csv_path.read_bytes()
    identical = results[1] == results[4]
    report(10, identical,
           f"per-path CSV identical across 1 and 4 threads "
           f"({len(results[1])} bytes)")
