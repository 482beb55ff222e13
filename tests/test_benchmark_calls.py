"""The benchmark's calls into the package run: each workload of
``perfbench/workloads.py`` solves once and scores its deviations at its
``smoke_paths``, and the statesig3d functional reads the paths as
``perfbench/make_reference.py`` does.  A library change that breaks
them fails here, not only in ``pytest perfbench``."""
import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

import bridgesim as bs
from bridgesim.estimator import weighted_mean_se

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_solve_and_deviations(name, tmp_path):
    entry = SPEC["workloads"][name]
    n_paths = entry["smoke_paths"]
    workload = workloads.WORKLOADS[name](entry, 3, n_paths, str(tmp_path))
    result = workload.solve(0)
    assert result["primary"] in result["estimates"]
    assert result["n_attempted"] == n_paths
    assert result["n_retained"] + result["n_failed"] == n_paths
    assert 0 < result["ess"] <= n_paths
    deviations = workload.deviations(result)
    assert sorted(deviations) == sorted(result["estimates"])
    assert all(math.isfinite(d) and 0 <= d < 4
               for d in deviations.values()), deviations


def test_reference_reads_the_paths_as_the_estimate_does():
    """``make_reference.py`` evaluates ``statesig3d_functional`` on each of
    ``ens.paths``; those rows are the ensemble's own, and give the
    estimate's bytes."""
    entry = SPEC["workloads"]["statesig3d_multiobs"]
    n_paths = entry["smoke_paths"]
    wl = workloads.StateSig3dMultiObs(entry, 0, n_paths, "")
    ens = bs.run_ensemble(wl.model, wl.obs, wl.grid, wl.u, n_paths, seed=11)
    fvals = np.array([workloads.statesig3d_functional(p)
                      for p in ens.paths])
    assert fvals.shape == (ens.size, 3)
    assert fvals.tobytes() == np.ascontiguousarray(
        workloads.statesig3d_functional(ens)).tobytes()
    weights, _, _ = bs.normalize_log_weights(ens.log_weights)
    value, se = weighted_mean_se(weights, fvals)
    rep = bs.estimate(ens, workloads.statesig3d_functional)
    assert rep.value.tobytes() == value.tobytes()
    assert rep.std_error.tobytes() == se.tobytes()
