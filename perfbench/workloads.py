"""The benchmark's workloads: inputs, one solve, and the deviations of a
solve's estimates from their exact or reference values.

Inputs are built from the workload seed alone; bridgesim receives only
the generated model, observations, grid, initial state and simulation
seed.  A solve returns a summary that holds no paths, so consecutive
solves do not keep two ensembles alive.
"""
from __future__ import annotations

import json
import os

import numpy as np

import bridgesim as bs
import bridgesim.cli


def simulation_seed(seed: int, name: str, solve: int) -> int:
    """Library seed of solve number ``solve`` of workload ``name`` under
    benchmark seed ``seed``."""
    tag = int.from_bytes(name.encode(), "little") % 2 ** 32
    return int(np.random.SeedSequence([seed, tag, solve]).generate_state(1)[0])


def _deviation(value: float, target: float, se: float) -> float:
    return float(abs(value - target) / se) if se > 0 else float("inf")


class Ou2dApi:
    """Criterion-06 model through the Python API at one thread."""

    name = "ou2d_api"

    def __init__(self, spec: dict, seed: int, n_paths: int, tmp: str):
        self.n_paths = n_paths
        self.threads = spec["threads"]
        self.seed = seed
        self.built = bs.ou(dim=2, f_diag=[-1.0, -0.5], sigma=[1.0, 1.5])
        self.exact = None
        self.u = np.array([0.5, -0.3])
        self.obs = bs.validate(
            [bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
        self.grid = bs.build_grid(1.0, self.obs, dt_base=0.01, dt_min=1e-4,
                                  include_times=[0.5])

    def solve(self, index: int) -> dict:
        seed = simulation_seed(self.seed, self.name, index)
        ens = bs.run_ensemble(self.built.spec, self.obs, self.grid, self.u,
                              self.n_paths, seed=seed, threads=self.threads)
        m1 = bs.conditional_moments(ens, bs.coordinate_at(0.5, 0))
        m2 = bs.conditional_moments(ens, bs.coordinate_at(1.0, 1))
        return {
            "estimates": {
                "mean_y1_half": [m1.mean, m1.mean_se],
                "var_y1_half": [m1.var, m1.var_se],
                "mean_y2_end": [m2.mean, m2.mean_se],
                "var_y2_end": [m2.var, m2.var_se],
            },
            "primary": "mean_y1_half",
            "ess": m1.ess, "n_attempted": self.n_paths,
            "n_retained": ens.size, "n_failed": ens.n_failed,
        }

    def deviations(self, result: dict) -> dict:
        """|estimate - Gaussian oracle| / SE per estimate."""
        if self.exact is None:
            law = bs.joint_law(self.built.linear_reference(self.u),
                               [0.5, 1.0])
            sel, val = bs.observation_selector([0.5, 1.0], 2, self.obs)
            cond = bs.condition(law, sel, val)
            self.exact = {
                "mean_y1_half": cond.mean[0], "var_y1_half": cond.cov[0, 0],
                "mean_y2_end": cond.mean[3], "var_y2_end": cond.cov[3, 3]}
        return {key: _deviation(value, self.exact[key], se)
                for key, (value, se) in result["estimates"].items()}


def statesig3d_geometry(geometry_seed: int):
    """Observation matrices (ranks 1, 2, 1) and values, plus the start."""
    rng = np.random.default_rng(geometry_seed)
    u = np.array([0.3, -0.2, 0.1])
    items = []
    for time, rank in ((0.4, 1), (0.7, 2), (1.0, 1)):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        L = q[:rank]
        items.append((time, L, L @ (u + 0.5 * rng.standard_normal(3))))
    return u, items


def statesig3d_model() -> bs.ModelSpec:
    """Drift sin x, diffusion diag(1 + 0.25 cos x), in three dimensions."""
    eye = np.eye(3)

    def drift(t, x):
        return np.sin(x)

    def diffusion(t, x):
        return (1.0 + 0.25 * np.cos(x))[..., :, None] * eye

    return bs.ModelSpec(dim=3, drift=drift, diffusion=diffusion)


def statesig3d_functional(path) -> np.ndarray:
    return path.state_at(0.55)


class StateSig3dMultiObs:
    """State-dependent diffusion, three partial observations, ``estimate``."""

    name = "statesig3d_multiobs"

    def __init__(self, spec: dict, seed: int, n_paths: int, tmp: str):
        self.spec = spec
        self.n_paths = n_paths
        self.threads = spec["threads"]
        self.seed = seed
        self.model = statesig3d_model()
        self.u, items = statesig3d_geometry(spec["geometry_seed"])
        self.obs = bs.validate(
            [bs.Observation(t, L, v) for t, L, v in items], dim=3)
        self.grid = bs.build_grid(1.0, self.obs, dt_base=0.01, dt_min=1e-4,
                                  include_times=[0.55])

    def solve(self, index: int) -> dict:
        seed = simulation_seed(self.seed, self.name, index)
        ens = bs.run_ensemble(self.model, self.obs, self.grid, self.u,
                              self.n_paths, seed=seed, threads=self.threads)
        rep = bs.estimate(ens, statesig3d_functional)
        return {
            "estimates": {f"x{i}_055": [float(rep.value[i]),
                                        float(rep.std_error[i])]
                          for i in range(3)},
            "primary": "x0_055",
            "ess": rep.ess, "n_attempted": self.n_paths,
            "n_retained": ens.size, "n_failed": ens.n_failed,
        }

    def deviations(self, result: dict) -> dict:
        """|estimate - stored reference| / combined SE per estimate."""
        ref = self.spec["reference"]["estimates"]
        return {key: _deviation(value, ref[key][0],
                                float(np.hypot(se, ref[key][1])))
                for key, (value, se) in result["estimates"].items()}


class Ou2dSplitCli:
    """``bridgesim run`` on the ou2d model with the Girsanov split."""

    name = "ou2d_split_cli"

    def __init__(self, spec: dict, seed: int, n_paths: int, tmp: str):
        self.n_paths = n_paths
        self.seed = seed
        # never more pool threads than cores
        self.threads = min(spec["threads"], len(os.sched_getaffinity(0)))
        self.report = os.path.join(tmp, "report.json")
        self.csv = os.path.join(tmp, "paths.csv")
        self.config = os.path.join(tmp, "config.json")
        raw = {
            "schema_version": 1,
            "model": {"name": "ou", "drift_split": True,
                      "params": {"dim": 2, "f_diag": [-1.0, -0.5],
                                 "sigma": [1.0, 1.5]}},
            "observations": [{"time": 1.0, "matrix": [[1.0, 0.0]],
                              "value": [0.7]}],
            "initial_state": [0.5, -0.3],
            "grid": {"dt_base": 0.01, "dt_min": 1e-4},
            "n_paths": n_paths,
            "seed": simulation_seed(seed, self.name, 0),
            "functionals": [
                {"type": "coordinate", "time": 0.5, "coordinate": 0},
                {"type": "marginal_var", "time": 0.5, "coordinate": 0}],
            "outputs": {"report": self.report, "ensemble_csv": self.csv},
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        cfg = bs.parse_config(raw)
        self.grid = bs.build_grid(
            cfg.horizon, cfg.observations, cfg.grid.dt_base, cfg.grid.dt_min,
            cfg.grid.refine_ratio,
            include_times=[f.time for f in cfg.functionals])

    def solve(self, index: int) -> dict:
        seed = simulation_seed(self.seed, self.name, index)
        status = bridgesim.cli.main(["run", self.config, "--threads",
                                     str(self.threads), "--seed", str(seed)])
        if status != 0:
            raise RuntimeError(f"bridgesim run exited with status {status}")
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        estimates = report["estimates"]
        return {
            "estimates": {
                "mean_y1_half": [estimates[0]["value"],
                                 estimates[0]["std_error"]],
                "var_y1_half": [estimates[1]["value"],
                                estimates[1]["std_error"]]},
            "primary": "mean_y1_half",
            "oracle": report["oracle"]["comparisons"],
            "ess": report["ess"], "n_attempted": self.n_paths,
            "n_retained": report["n_paths"], "n_failed": report["n_failed"],
            "output_bytes": {
                "cli.csv_bytes": os.path.getsize(self.csv),
                "cli.report_bytes": os.path.getsize(self.report)},
        }

    def deviations(self, result: dict) -> dict:
        """``deviation_over_se`` from the report's oracle block."""
        return {key: comp["deviation_over_se"]
                for key, comp in zip(result["estimates"], result["oracle"])}


WORKLOADS = {cls.name: cls for cls in (Ou2dApi, StateSig3dMultiObs,
                                       Ou2dSplitCli)}
