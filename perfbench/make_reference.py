"""Compute the stored reference of ``statesig3d_multiobs`` and write it
into spec.json.

    PYTHONPATH=src python3 perfbench/make_reference.py

The reference pools ``REFERENCE_MULTIPLE`` independent batches of the
workload's path count, each under its own simulation seed drawn from a
seed sequence that the benchmark's ``--seed`` never produces, and
estimates the functional self-normalized over all of them.  It is run
once, when the workload's model, geometry or functional changes.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

import bridgesim as bs
from bridgesim.estimator import weighted_mean_se

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")
REFERENCE_MULTIPLE = 16
REFERENCE_ENTROPY = 0x5EED_0F_12EF


def main() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    entry = spec["workloads"]["statesig3d_multiobs"]
    wl = workloads.StateSig3dMultiObs(entry, 0, entry["n_paths"], "")
    seeds = np.random.SeedSequence(REFERENCE_ENTROPY).generate_state(
        REFERENCE_MULTIPLE)
    logw, fvals, failed = [], [], 0
    for seed in seeds:
        ens = bs.run_ensemble(wl.model, wl.obs, wl.grid, wl.u, wl.n_paths,
                              seed=int(seed))
        logw.append(ens.log_weights)
        fvals.append(np.array([workloads.statesig3d_functional(p)
                               for p in ens.paths]))
        failed += ens.n_failed
    weights, _, ess = bs.normalize_log_weights(np.concatenate(logw))
    value, se = weighted_mean_se(weights, np.concatenate(fvals))
    entry["reference"] = {
        "n_paths": REFERENCE_MULTIPLE * wl.n_paths,
        "seeds": [int(s) for s in seeds],
        "ess": ess, "n_failed": failed,
        "estimates": {f"x{i}_055": [float(value[i]), float(se[i])]
                      for i in range(3)},
    }
    with open(SPEC, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")
    print(json.dumps(entry["reference"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
