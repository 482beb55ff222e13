"""The digest table: SHA-256 of every array of a few small fixed runs,
per numerics scheme.

Run ``PYTHONPATH=src python tests/make_digests.py`` to recompute the runs
and write ``tests/digests.json``'s entry for the current
``NUMERICS_SCHEME``; entries of other schemes are kept.  The entry also
records the environment that made it and a few values of each array in
17 significant digits, which ``tests/test_digests.py`` checks where the
environment differs and the bits may differ by an ulp.  Rewriting the
table is a declared change: it comes with a scheme bump or a stated
reason, and the script prints which digests moved against the previous
scheme's entry.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import tempfile

import numpy as np

import bridgesim as bs
import bridgesim.cli
from bridgesim import estimator
from bridgesim.sde import NUMERICS_SCHEME

from conftest import chunk_count, state_dependent_setup

TABLE = pathlib.Path(__file__).resolve().with_name("digests.json")
BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

CLI_CONFIG = {
    "schema_version": 1,
    "model": {"name": "ou", "drift_split": True,
              "params": {"dim": 2, "f_diag": [-1.0, -0.5],
                         "sigma": [1.0, 1.5]}},
    "observations": [{"time": 1.0, "matrix": [[1.0, 0.0]], "value": [0.7]}],
    "initial_state": [0.5, -0.3],
    "grid": {"dt_base": 0.02, "dt_min": 1e-3},
    "n_paths": 300, "seed": 7,
    "functionals": [
        {"type": "coordinate", "time": 0.5, "coordinate": 0},
        {"type": "marginal_var", "time": 0.5, "coordinate": 0}],
    "outputs": {"report": "report.json", "ensemble_csv": "paths.csv"},
}


def environment() -> dict:
    """What the bits of a run may depend on besides the package."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on)}


def _entry(data: bytes, values: np.ndarray) -> dict:
    flat = np.asarray(values, dtype=float).ravel()
    picks = sorted({0, len(flat) // 3, 2 * len(flat) // 3, len(flat) - 1}) \
        if len(flat) else []
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "shape": list(np.shape(values)),
            "values": {str(i): "%.17g" % flat[i] for i in picks}}


def array_entry(arr) -> dict:
    arr = np.ascontiguousarray(arr)
    return _entry(arr.dtype.str.encode() + arr.tobytes(), arr)


def _numbers(node) -> list:
    """The numeric leaves of a decoded JSON document, in order."""
    if isinstance(node, dict):
        return [x for v in node.values() for x in _numbers(v)]
    if isinstance(node, list):
        return [x for v in node for x in _numbers(v)]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [node]
    return []


@contextlib.contextmanager
def _chunk_size(size: int):
    old, estimator.CHUNK_SIZE = estimator.CHUNK_SIZE, size
    try:
        yield
    finally:
        estimator.CHUNK_SIZE = old


def _ensemble_arrays(name: str, ens, moments) -> dict:
    out = {f"{name}.states": ens.states, f"{name}.path_ids": ens.path_ids,
           f"{name}.log_weights": ens.log_weights,
           f"{name}.estimate": moments}
    out.update({f"{name}.{term}": arr for term, arr in ens.breakdown.items()})
    out.update({f"{name}.preclamp{k}": arr for k, arr in ens.preclamp.items()})
    return out


def _ou2d(split: bool):
    built = bs.ou(dim=2, f_diag=[-1.0, -0.5], sigma=[1.0, 1.5],
                  drift_split=split)
    obs = bs.validate([bs.Observation(1.0, [[1.0, 0.0]], [0.7])], dim=2)
    grid = bs.build_grid(1.0, obs, dt_base=0.02, dt_min=1e-3,
                         include_times=[0.5])
    return built.spec, obs, grid, np.array([0.5, -0.3])


def _statesig3d():
    """The benchmark's statesig3d workload: ranks 1, 2 and 1."""
    spec = importlib.util.spec_from_file_location(
        "_digest_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    entry = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))[
        "workloads"]["statesig3d_multiobs"]
    wl = workloads.StateSig3dMultiObs(entry, 0, 0, "")
    return wl.model, wl.obs, wl.grid, wl.u


def _cli_outputs(threads: int) -> tuple[bytes, bytes]:
    """The CSV and report of ``bridgesim run`` on ``CLI_CONFIG``, run in
    a new directory so that the config digest sees the same paths."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pathlib.Path("run.json").write_text(json.dumps(CLI_CONFIG))
            status = bridgesim.cli.main(["run", "run.json",
                                         "--threads", str(threads)])
            assert status == 0, status
            return (pathlib.Path("paths.csv").read_bytes(),
                    pathlib.Path("report.json").read_bytes())
        finally:
            os.chdir(cwd)


def compute() -> dict:
    """Every array's entry, by name."""
    arrays = {}
    for name, split in (("ou2d", False), ("ou2d_split", True)):
        model, obs, grid, u = _ou2d(split)
        ens = bs.run_ensemble(model, obs, grid, u, 100, seed=7)
        mom = bs.conditional_moments(ens, bs.coordinate_at(0.5, 0))
        arrays.update(_ensemble_arrays(name, ens, [
            mom.mean, mom.mean_se, mom.var, mom.var_se, mom.ess]))

    model, obs, grid, u = _statesig3d()
    ens = bs.run_ensemble(model, obs, grid, u, 64, seed=7)
    rep = bs.estimate(ens, lambda e: e.state_at(0.55))
    arrays.update(_ensemble_arrays("statesig3d", ens, [
        *rep.value, *rep.std_error, rep.ess]))

    # failed paths in each of three chunks, the last a partial one
    model, obs, grid, u = state_dependent_setup(blowup_at=3.3)
    with _chunk_size(400):
        assert chunk_count(1100) == 3
        ens = bs.run_ensemble(model, obs, grid, u, 1100, seed=4)
    kept = np.bincount(ens.path_ids // 400, minlength=3)
    assert (kept < [400, 400, 300]).all(), kept
    rep = bs.estimate(ens, lambda e: e.state_at(0.55))
    arrays.update(_ensemble_arrays("blowup", ens, [
        *rep.value, *rep.std_error, rep.ess, ens.n_failed]))
    # both failed and surviving rows
    batch = bs.simulate_batch(model, obs, grid, u, 4, np.arange(400))
    assert 0 < (batch.failed_step >= 0).sum() < 400
    terms, _ = bs.batch_breakdown(model, obs, batch)
    arrays["blowup_chunk.states"] = batch.states
    arrays["blowup_chunk.failed_step"] = batch.failed_step
    arrays.update({f"blowup_chunk.preclamp{k}": arr
                   for k, arr in batch.preclamp.items()})
    arrays.update({f"blowup_chunk.{term}": arr
                   for term, arr in terms.items()})

    table = {name: array_entry(arr) for name, arr in arrays.items()}
    # three chunks of 128 paths, split over two workers
    with _chunk_size(128):
        for threads in (1, 2):
            assert chunk_count(CLI_CONFIG["n_paths"], threads) == 3
            csv, report = _cli_outputs(threads)
            table[f"cli.csv.t{threads}"] = _entry(
                csv, np.loadtxt(io.BytesIO(csv), delimiter=",", skiprows=1))
            table[f"cli.report.t{threads}"] = _entry(
                report, np.array(_numbers(json.loads(report)), dtype=float))
    return table


def main() -> None:
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    entry = {"environment": environment(), "digests": compute()}
    older = [int(s) for s in table if int(s) < NUMERICS_SCHEME]
    if older:
        before = table[str(max(older))]["digests"]
        moved = sorted(name for name, e in entry["digests"].items()
                       if before.get(name, {}).get("sha256") != e["sha256"])
        print(f"moved since scheme {max(older)}: {', '.join(moved) or 'none'}")
    table[str(NUMERICS_SCHEME)] = entry
    TABLE.write_text(json.dumps(dict(sorted(table.items(),
                                            key=lambda kv: int(kv[0]))),
                                indent=1) + "\n")
    print(f"wrote scheme {NUMERICS_SCHEME} to {TABLE.name}")


if __name__ == "__main__":
    main()
