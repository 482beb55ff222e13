"""Configuration parsing and the command-line entry points."""
import csv
import json
import tracemalloc

import numpy as np
import pytest

import bridgesim as bs
import bridgesim.estimator
from bridgesim import models
from bridgesim.cli import _csv_header, _csv_rows, main
from bridgesim.errors import InvalidConfigurationError
from conftest import CHUNK, chunk_count, state_dependent_setup


def base_config(**updates):
    cfg = {
        "schema_version": 1,
        "model": {"name": "brownian", "params": {"dim": 1}},
        "observations": [
            {"time": 1.0, "matrix": [[1.0]], "value": [1.0]},
        ],
        "grid": {"dt_base": 0.02, "dt_min": 1e-3},
        "n_paths": 400,
        "seed": 42,
        "functionals": [
            {"type": "coordinate", "time": 0.5, "coordinate": 0},
        ],
    }
    cfg.update(updates)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def moment_estimates(cfg, ens):
    """The report's estimate entries for ``cfg``, read from
    ``conditional_moments`` on ``ens``."""
    out = []
    for f in cfg.functionals:
        mom = bs.conditional_moments(ens, bs.coordinate_at(f.time,
                                                           f.coordinate))
        var = f.kind == "marginal_var"
        out.append({"type": f.kind, "time": f.time,
                    "coordinate": f.coordinate,
                    "value": mom.var if var else mom.mean,
                    "std_error": mom.var_se if var else mom.mean_se})
    return out


def blowup_config(monkeypatch, blowup_at, **updates):
    """A config of conftest's state-dependent model, registered as
    ``blowup``, whose paths fail once x_0 passes ``blowup_at``; forked
    workers inherit the registry entry."""
    def blowup(drift_split=False, blowup_at=None):
        return models.BuiltModel(
            spec=state_dependent_setup(blowup_at=blowup_at)[0])

    monkeypatch.setitem(models.REGISTRY, "blowup", blowup)
    _, obs, _, u = state_dependent_setup()
    return base_config(
        model={"name": "blowup", "params": {"blowup_at": blowup_at}},
        observations=[{"time": ob.time, "matrix": ob.matrix.tolist(),
                       "value": ob.value.tolist()} for ob in obs.items],
        initial_state=u.tolist(), grid={"dt_base": 0.05, "dt_min": 1e-3},
        functionals=[{"type": "coordinate", "time": 0.55, "coordinate": 0},
                     {"type": "marginal_var", "time": 1.0,
                      "coordinate": 2}],
        **updates)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = bs.parse_config(base_config())
        assert cfg.model_name == "brownian"
        assert cfg.horizon == 1.0                      # last observation
        assert cfg.observations.items[0].window == 1.0  # gap default
        assert np.allclose(cfg.initial_state, [0.0])
        assert not hasattr(cfg, "threads")
        assert cfg.functionals[0].kind == "coordinate"
        assert len(cfg.digest) == 64

    def test_dt_min_defaults_to_horizon_fraction(self):
        raw = base_config()
        del raw["grid"]["dt_min"]
        cfg = bs.parse_config(raw)
        assert np.isclose(cfg.grid.dt_min, 1e-5)

    def test_accepts_json_string(self):
        cfg = bs.parse_config(json.dumps(base_config()))
        assert cfg.n_paths == 400

    def test_digest_tracks_content(self):
        a = bs.parse_config(base_config()).digest
        b = bs.parse_config(base_config(seed=43)).digest
        assert a != b

    @pytest.mark.parametrize("mutate,field", [
        (lambda c: c.pop("n_paths"), "n_paths"),
        (lambda c: c.pop("seed"), "seed"),
        (lambda c: c.pop("observations"), "observations"),
        (lambda c: c["model"].update(name="unknown"), "model.name"),
        (lambda c: c["grid"].update(dt_min=1.0), "grid.dt_min"),
        (lambda c: c.update(schema_version=2), "schema_version"),
        (lambda c: c.update(initial_state=[0.0, 0.0]), "initial_state"),
        (lambda c: c.update(horizon=0.5), "horizon"),
        (lambda c: c["functionals"][0].update(type="median"),
         "functionals[0].type"),
        (lambda c: c["functionals"][0].update(time=2.5),
         "functionals[0].time"),
        (lambda c: c["functionals"][0].update(coordinate=4),
         "functionals[0].coordinate"),
        (lambda c: c["observations"][0].pop("time"),
         "observations[0].time"),
        (lambda c: c["observations"][0].update(window=2.0),
         "observations[0].window"),
        (lambda c: c["observations"][0].update(matrix=[[1.0, 1.0]]),
         "observations[0].matrix"),
        (lambda c: c["model"].update(drift_split="no"), "model.drift_split"),
        (lambda c: c["model"].update(drift_split=1), "model.drift_split"),
        (lambda c: c.update(validate="yes"), "validate"),
        (lambda c: c.update(validate=1), "validate"),
        (lambda c: c.update(outputs={"report": 7}), "outputs.report"),
        (lambda c: c.update(outputs={"ensemble_csv": ["a"]}),
         "outputs.ensemble_csv"),
        pytest.param(lambda c: c.update(outputs={
            "report": "out.json", "ensemble_csv": "./out.json"}),
            "outputs.ensemble_csv", id="outputs-collide"),
        pytest.param(lambda c: c["observations"][0].update(window=5e-4),
                     "grid.dt_min", id="window-not-above-dt_min"),
        pytest.param(lambda c: c["observations"][0].update(window="abc"),
                     "observations[0].window", id="window-not-a-number"),
        pytest.param(lambda c: c["model"].update(name=["ou"]), "model.name",
                     id="unhashable-model-name"),
    ])
    def test_field_paths_in_errors(self, mutate, field):
        raw = base_config()
        mutate(raw)
        with pytest.raises(InvalidConfigurationError) as e:
            bs.parse_config(raw)
        assert e.value.field == field

    @pytest.mark.parametrize("value,field", [
        (["a"], "initial_state[0]"),
        ([True], "initial_state[0]"),
        ([[0.0]], "initial_state[0]"),
        ([float("nan")], "initial_state[0]"),
        ("x", "initial_state"),
        ({"0": 0.0}, "initial_state"),
    ])
    def test_bad_initial_state_entries(self, value, field):
        with pytest.raises(InvalidConfigurationError) as e:
            bs.parse_config(base_config(initial_state=value))
        assert e.value.field == field

    def test_double_well_always_splits(self):
        """double_well ships with a split; the parsed model says so, and
        an explicit ``false`` is rejected instead of ignored."""
        raw = base_config(model={"name": "double_well",
                                 "params": {"dim": 1}})
        assert bs.parse_config(raw).model.spec.guided_drift is not None
        raw["model"]["drift_split"] = True
        cfg = bs.parse_config(raw)
        assert cfg.model.spec.guided_drift is not None
        raw["model"]["drift_split"] = False
        with pytest.raises(InvalidConfigurationError) as e:
            bs.parse_config(raw)
        assert e.value.field == "model.drift_split"
        assert bs.parse_config(base_config()).model.spec.guided_drift is None

    @pytest.mark.parametrize("entry", ["build_model", "parse_config"])
    def test_model_rules_hold_at_both_entries(self, entry):
        """``build_model`` owns the registry lookup, the params rule and
        double_well's split rule; ``parse_config`` reaches them through
        it and only prefixes the field with ``model.``."""
        def build(name, split=None, params=None):
            params = {"dim": 1} if params is None else params
            if entry == "build_model":
                return bs.build_model(name, params, split)
            model = {"name": name, "params": params}
            if split is not None:
                model["drift_split"] = split
            return bs.parse_config(base_config(model=model)).model

        prefix = "" if entry == "build_model" else "model."
        with pytest.raises(InvalidConfigurationError,
                           match="unknown model 'nope'") as e:
            build("nope")
        assert e.value.field == prefix + "name"
        with pytest.raises(InvalidConfigurationError,
                           match="model params must be an object") as e:
            build("ou", params=[["dim", 1]])
        assert e.value.field == prefix + "params"
        with pytest.raises(InvalidConfigurationError,
                           match="double_well always splits") as e:
            build("double_well", False)
        assert e.value.field == prefix + "drift_split"
        for split in (None, True):
            assert build("double_well", split).spec.guided_drift is not None
        assert build("ou").spec.guided_drift is None
        assert build("ou", True).spec.guided_drift is not None

    def test_invalid_json_string(self):
        with pytest.raises(InvalidConfigurationError):
            bs.parse_config("{not json")

    @pytest.mark.parametrize("source", [b"\xff\xfe{", b"\xc3("],
                             ids=["utf16-bom", "bad-utf8"])
    def test_undecodable_json_bytes(self, source):
        with pytest.raises(InvalidConfigurationError,
                           match="config is not valid JSON"):
            bs.parse_config(source)

    def test_observation_anchor_key_is_ignored(self):
        """An observation's ``anchor``, even an inconsistent one, is an
        unknown key like any other."""
        raw = base_config()
        raw["observations"][0]["anchor"] = [5.0]
        ob = bs.parse_config(raw).observations.items[0]
        assert np.array_equal(ob.value, [1.0]) and ob.window == 1.0

    def test_model_params_flow_through(self):
        raw = base_config(model={"name": "ou",
                                 "params": {"dim": 1, "f_diag": -2.0}})
        cfg = bs.parse_config(raw)
        built = cfg.model
        assert built.linear is not None
        assert np.allclose(built.linear[0], [-2.0])


class TestRunCommand:
    def test_end_to_end_report_and_csv(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "ensemble.csv"
        cfg = base_config(outputs={"report": str(report_path),
                                   "ensemble_csv": str(csv_path)})
        status = main(["run", write_config(tmp_path, cfg)])
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert report["numerics_scheme"] == 8
        assert report["n_paths"] == 400
        assert report["n_failed"] == 0
        assert report["ess"] > 399.0
        est = report["estimates"][0]
        assert est["type"] == "coordinate"
        assert abs(est["value"] - 0.5) < 5.0 * est["std_error"]
        comp = report["oracle"]["comparisons"][0]
        assert np.isclose(comp["oracle_value"], 0.5)
        assert comp["deviation_over_se"] < 5.0

        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        assert set(rows[0]) == {"path_id", "log_weight", "log_eta_0",
                                "boundary_0", "drift_0", "dA_0", "covar_0",
                                "girsanov", "f_0"}

    def test_csv_reproduces_report_estimates(self, tmp_path):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "ensemble.csv"
        cfg = base_config(outputs={"report": str(report_path),
                                   "ensemble_csv": str(csv_path)})
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        report = json.loads(report_path.read_text())
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        logw = np.array([float(r["log_weight"]) for r in rows])
        fv = np.array([float(r["f_0"]) for r in rows])
        w, _, _ = bs.normalize_log_weights(logw)
        assert np.isclose(float(w @ fv), report["estimates"][0]["value"],
                          atol=1e-12)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("kind", ["coordinate", "marginal_mean",
                                      "marginal_var"])
    def test_report_equals_conditional_moments(self, tmp_path, kind,
                                               threads):
        """Each kind's estimate and SE, and the ESS, are the bytes of
        conditional_moments on the ensemble of the same config."""
        report_path = tmp_path / "report.json"
        raw = base_config(
            model={"name": "ou", "drift_split": True,
                   "params": {"dim": 2, "f_diag": [-1.0, -0.5],
                              "sigma": [1.0, 1.5]}},
            observations=[{"time": 1.0, "matrix": [[1.0, 0.0]],
                           "value": [0.7]}],
            initial_state=[0.5, -0.3], n_paths=2100,
            functionals=[{"type": kind, "time": 0.5, "coordinate": 0}],
            outputs={"report": str(report_path)})
        assert main(["run", write_config(tmp_path, raw),
                     "--threads", threads]) == 0
        report = json.loads(report_path.read_text())

        cfg = bs.parse_config(raw)
        grid = bs.build_grid(cfg.horizon, cfg.observations, cfg.grid.dt_base,
                             cfg.grid.dt_min, cfg.grid.refine_ratio,
                             include_times=[0.5])
        ens = bs.run_ensemble(cfg.model.spec, cfg.observations,
                              grid, cfg.initial_state, cfg.n_paths, cfg.seed)
        mom = bs.conditional_moments(ens, bs.coordinate_at(0.5, 0))
        want = ([mom.var, mom.var_se] if kind == "marginal_var"
                else [mom.mean, mom.mean_se])
        (est,) = report["estimates"]
        assert np.array([est["value"], est["std_error"],
                         report["ess"]]).tobytes() == \
            np.array(want + [mom.ess]).tobytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        cfg_a = base_config(outputs={"ensemble_csv": str(csv_a)})
        cfg_b = base_config(outputs={"ensemble_csv": str(csv_b)})
        path_a = write_config(tmp_path, cfg_a, "a.json")
        path_b = write_config(tmp_path, cfg_b, "b.json")
        assert main(["run", path_a]) == 0
        assert main(["run", path_b, "--threads", "4"]) == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_csv_bytes_match_per_field_rendering(self, tmp_path):
        """The row template writes the bytes of formatting every field on
        its own, for signed zeros, non-finite terms, subnormals, the
        largest double and path ids past 2**62."""
        cfg = bs.parse_config(base_config(
            observations=[{"time": 0.5, "matrix": [[1.0]], "value": [0.2]},
                          {"time": 1.0, "matrix": [[1.0]], "value": [1.0]}],
            functionals=[{"type": "coordinate", "time": 0.5,
                          "coordinate": 0},
                         {"type": "marginal_var", "time": 1.0,
                          "coordinate": 0}]))
        special = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                            np.finfo(float).max, 0.1, 1.0 / 3.0, 0.0, 1e22])
        rng = np.random.default_rng(3)
        n = 4

        def pick(*shape):
            return rng.choice(special, size=shape)

        ids = np.array([0, 2 ** 62 + 3, 2 ** 63 - 1, 17], dtype=np.int64)
        breakdown = {name: pick(n, 2) for name in (
            "log_eta", "boundary", "drift_term", "dA_term", "covar_term")}
        breakdown["girsanov"] = pick(n)
        log_weights = pick(n)
        fvals = pick(n, 2)
        fvals[0] = [-0.0, np.nan]
        path = tmp_path / "paths.csv"
        rows = dict(breakdown, path_ids=ids, log_weights=log_weights)
        path.write_bytes((_csv_header(cfg) + _csv_rows(rows, fvals)).encode())

        def fmt(x):
            return format(float(x), ".17g")

        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter=",", lineterminator="\n")
            header = ["path_id", "log_weight"]
            for k in range(2):
                header += [f"log_eta_{k}", f"boundary_{k}", f"drift_{k}",
                           f"dA_{k}", f"covar_{k}"]
            writer.writerow(header + ["girsanov", "f_0", "f_1"])
            for i in range(n):
                row = [str(int(ids[i])), fmt(log_weights[i])]
                for k in range(2):
                    row += [fmt(breakdown[name][i, k]) for name in (
                        "log_eta", "boundary", "drift_term", "dA_term",
                        "covar_term")]
                row.append(fmt(breakdown["girsanov"][i]))
                row += [fmt(v) for v in fvals[i]]
                writer.writerow(row)
        assert path.read_bytes() == ref.read_bytes()
        text = path.read_text()
        assert "-0," in text and "nan" in text and "inf" in text
        assert str(2 ** 62 + 3) in text

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_run_matches_full_ensemble(self, tmp_path, threads, chunk_cap):
        """The run's CSV and report estimates are the bytes built from
        the ensemble of ``run_ensemble``, which keeps every state."""
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "paths.csv"
        raw = base_config(
            model={"name": "ou", "drift_split": True,
                   "params": {"dim": 2, "f_diag": [-1.0, -0.5],
                              "sigma": [1.0, 1.5]}},
            observations=[{"time": 1.0, "matrix": [[1.0, 0.0]],
                           "value": [0.7]}],
            initial_state=[0.5, -0.3], n_paths=CHUNK + 100,
            functionals=[
                {"type": "coordinate", "time": 0.5, "coordinate": 0},
                {"type": "marginal_var", "time": 0.5, "coordinate": 0},
                {"type": "coordinate", "time": 1.0, "coordinate": 1}],
            outputs={"report": str(report_path),
                     "ensemble_csv": str(csv_path)})
        assert chunk_count(raw["n_paths"], int(threads)) == 2
        assert main(["run", write_config(tmp_path, raw),
                     "--threads", threads]) == 0

        cfg = bs.parse_config(raw)
        times = [f.time for f in cfg.functionals]
        grid = bs.build_grid(cfg.horizon, cfg.observations, cfg.grid.dt_base,
                             cfg.grid.dt_min, cfg.grid.refine_ratio,
                             include_times=times)
        full = bs.run_ensemble(cfg.model.spec, cfg.observations,
                               grid, cfg.initial_state, cfg.n_paths, cfg.seed)
        assert full.states.shape[1] == grid.n_steps + 1
        fvals = np.column_stack(
            [full.states[:, grid.index_of(f.time), f.coordinate]
             for f in cfg.functionals])
        rows = dict(full.breakdown, path_ids=full.path_ids,
                    log_weights=full.log_weights)
        ref = (_csv_header(cfg) + _csv_rows(rows, fvals)).encode()
        assert csv_path.read_bytes() == ref
        assert json.loads(report_path.read_text())["estimates"] == \
            moment_estimates(cfg, full)

    def test_chunk_stores_only_the_nodes_it_reads(self, tmp_path,
                                                  monkeypatch):
        """A one-process run of two functionals at different nodes and
        coordinates simulates its one chunk into the states of those two
        nodes alone, never a (P, M+1, n) array: its traced peak stays
        under one chunk's full states.  Its CSV holds the bytes built
        from ``run_ensemble``'s ensemble, which keeps every state."""
        stored = []
        simulate = bridgesim.estimator.simulate_batch

        def recording(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            stored.append(batch.states.shape)
            return batch

        csv_path = tmp_path / "paths.csv"
        raw = base_config(
            model={"name": "ou", "drift_split": True,
                   "params": {"dim": 2, "f_diag": [-1.0, -0.5],
                              "sigma": [1.0, 1.5]}},
            observations=[{"time": 1.0, "matrix": [[1.0, 0.0]],
                           "value": [0.7]}],
            initial_state=[0.5, -0.3], n_paths=CHUNK,
            grid={"dt_base": 0.01, "dt_min": 1e-4},
            functionals=[
                {"type": "coordinate", "time": 0.25, "coordinate": 1},
                {"type": "marginal_var", "time": 0.75, "coordinate": 0}],
            outputs={"report": str(tmp_path / "report.json"),
                     "ensemble_csv": str(csv_path)})
        path = write_config(tmp_path, raw)
        cfg = bs.parse_config(raw)
        grid = cfg.time_grid
        assert chunk_count(cfg.n_paths) == 1
        full_chunk = 8 * cfg.n_paths * (grid.n_steps + 1) * 2
        # a first run fills any one-off caches before memory is traced
        assert main(["run", path, "--paths", "64"]) == 0
        monkeypatch.setattr(bridgesim.estimator, "simulate_batch", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["run", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stored == [(cfg.n_paths, 2, 2)]
        assert peak - base < full_chunk

        full = bs.run_ensemble(cfg.model.spec, cfg.observations, grid,
                               cfg.initial_state, cfg.n_paths, cfg.seed)
        fvals = np.column_stack([full.state_at(0.25)[:, 1],
                                 full.state_at(0.75)[:, 0]])
        rows = dict(full.breakdown, path_ids=full.path_ids,
                    log_weights=full.log_weights)
        ref = (_csv_header(cfg) + _csv_rows(rows, fvals)).encode()
        assert csv_path.read_bytes() == ref

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_paths_dropped_per_chunk(self, tmp_path, monkeypatch,
                                            threads, chunk_cap):
        """With failed paths in several chunks, under the 1% ceiling,
        each chunk's CSV rows and the report's estimates, ESS and
        ``log_norm`` are the bytes built from the ensemble of
        ``run_ensemble`` at the same worker count."""
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "paths.csv"
        raw = blowup_config(monkeypatch, 3.3, n_paths=2 * CHUNK + 100,
                            outputs={"report": str(report_path),
                                     "ensemble_csv": str(csv_path)})
        assert chunk_count(raw["n_paths"], int(threads)) == 3
        assert main(["run", write_config(tmp_path, raw),
                     "--threads", threads]) == 0

        cfg = bs.parse_config(raw)
        grid = bs.build_grid(cfg.horizon, cfg.observations, cfg.grid.dt_base,
                             cfg.grid.dt_min, cfg.grid.refine_ratio,
                             include_times=[0.55, 1.0])
        full = bs.run_ensemble(cfg.model.spec, cfg.observations,
                               grid, cfg.initial_state, cfg.n_paths, cfg.seed,
                               threads=int(threads))
        failed = np.setdiff1d(np.arange(cfg.n_paths), full.path_ids)
        assert len(np.unique(failed // CHUNK)) >= 2
        assert 0 < full.n_failed <= 0.01 * cfg.n_paths
        fvals = np.column_stack([full.state_at(0.55)[:, 0],
                                 full.state_at(1.0)[:, 2]])
        rows = dict(full.breakdown, path_ids=full.path_ids,
                    log_weights=full.log_weights)
        ref = (_csv_header(cfg) + _csv_rows(rows, fvals)).encode()
        assert csv_path.read_bytes() == ref
        report = json.loads(report_path.read_text())
        assert report["estimates"] == moment_estimates(cfg, full)
        assert report["n_paths"] == full.size
        assert report["n_failed"] == full.n_failed
        _, log_norm, ess = bs.normalize_log_weights(full.log_weights)
        assert np.array([report["ess"], report["log_norm"]]).tobytes() == \
            np.array([ess, log_norm]).tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_parent_merges_only_weights_and_values(self, tmp_path,
                                                   monkeypatch, threads,
                                                   chunk_cap):
        """Each chunk reaches the parent as its log-weights (K,) and its
        functional values (K, q) alone, no states, ids or weight terms,
        and those arrays hold the bytes of the CSV's ``log_weight`` and
        ``f_*`` columns."""
        merged = []
        ensemble = bridgesim.cli._ensemble

        def recording(*args, **kwargs):
            merged.append(ensemble(*args, **kwargs))
            return merged[-1]

        monkeypatch.setattr(bridgesim.cli, "_ensemble", recording)
        csv_path = tmp_path / "paths.csv"
        raw = blowup_config(monkeypatch, 3.3, n_paths=CHUNK + 100,
                            outputs={"ensemble_csv": str(csv_path)})
        assert chunk_count(raw["n_paths"], int(threads)) == 2
        q = len(raw["functionals"])
        assert main(["run", write_config(tmp_path, raw),
                     "--threads", threads]) == 0

        ((arrays, n_failed),) = merged
        assert sorted(arrays) == ["fvals", "log_weights"]
        k = raw["n_paths"] - n_failed
        assert 0 < n_failed and arrays["log_weights"].shape == (k,)
        assert arrays["fvals"].shape == (k, q)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert arrays["log_weights"].tobytes() == np.array(
            [float(r["log_weight"]) for r in rows]).tobytes()
        assert np.ascontiguousarray(arrays["fvals"]).tobytes() == np.array(
            [[float(r[f"f_{i}"]) for i in range(q)] for r in rows]).tobytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["run", path]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["run", path, "--seed", "99"]) == 0
        other = json.loads(capsys.readouterr().out)
        assert other["seed"] == 99
        assert other["config_digest"] != base["config_digest"]
        assert other["estimates"][0]["value"] != base["estimates"][0]["value"]

    def test_paths_override(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["run", path, "--paths", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_paths"] == 50

    def test_threads_key_is_ignored(self, tmp_path, chunk_cap):
        """The worker count is an argument of the call only; a config's
        ``threads`` is an unknown key like any other and changes no
        byte."""
        csv_key, csv_ref = tmp_path / "key.csv", tmp_path / "ref.csv"
        with_key = base_config(threads=2, n_paths=CHUNK + 100,
                               outputs={"ensemble_csv": str(csv_key)})
        without = base_config(n_paths=CHUNK + 100,
                              outputs={"ensemble_csv": str(csv_ref)})
        assert chunk_count(CHUNK + 100, 2) == 2
        assert main(["run", write_config(tmp_path, with_key, "k.json")]) == 0
        assert main(["run", write_config(tmp_path, without, "r.json")]) == 0
        assert csv_key.read_bytes() == csv_ref.read_bytes()

    def test_report_is_strict_json(self, tmp_path):
        """The state at time 0 is the initial state on every path, so
        its SE is 0; its deviation ratio is null, not a non-standard
        Infinity token."""
        report_path = tmp_path / "report.json"
        cfg = base_config(
            functionals=[{"type": "coordinate", "time": 0.0,
                          "coordinate": 0}],
            outputs={"report": str(report_path)})
        assert main(["run", write_config(tmp_path, cfg)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(report_path.read_text(), parse_constant=reject)
        (comp,) = report["oracle"]["comparisons"]
        assert report["estimates"][0]["std_error"] == 0.0
        assert comp["deviation_over_se"] is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_answer_reports_se_zero(self, tmp_path, seed):
        """A functional that is the same on every path, the state at time
        0 under the drift split, reads that value exactly with SE 0, not
        a rounding residue of the normalized weights' sum."""
        report_path = tmp_path / "report.json"
        cfg = base_config(
            model={"name": "ou", "drift_split": True,
                   "params": {"dim": 2, "f_diag": [-1.0, -0.5],
                              "sigma": [1.0, 1.5]}},
            observations=[{"time": 1.0, "matrix": [[1.0, 0.0]],
                           "value": [0.7]}],
            initial_state=[0.5, -0.3], n_paths=2000, seed=seed,
            functionals=[{"type": "coordinate", "time": 0.0,
                          "coordinate": 1}],
            outputs={"report": str(report_path)})
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        report = json.loads(report_path.read_text())
        (est,), (comp,) = report["estimates"], report["oracle"]["comparisons"]
        assert est["value"] == -0.3 and est["std_error"] == 0.0
        assert comp["oracle_value"] == -0.3
        assert comp["deviation_over_se"] is None

    def test_functionals_a_hair_before_an_observation(self, tmp_path,
                                                      capsys):
        """Functionals at T - 5e-10 and T each read their own node: the
        run reports v at T, and the oracle conditions the law at exactly
        those two times."""
        times = [0.9999999995, 1.0]
        cfg = base_config(
            model={"name": "ou", "params": {"dim": 1, "f_diag": -1.0}},
            observations=[{"time": 1.0, "matrix": [[1.0]], "value": [0.4]}],
            grid={"dt_base": 0.01, "dt_min": 1e-4},
            functionals=[{"type": "coordinate", "time": t, "coordinate": 0}
                         for t in times])
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        near, at = report["estimates"]
        assert abs(at["value"] - 0.4) <= 1e-15
        assert at["std_error"] <= 1e-15
        assert near["std_error"] > 1e-6
        parsed = bs.parse_config(cfg)
        lm = parsed.model.linear_reference(parsed.initial_state)
        law = bs.condition(bs.joint_law(lm, times), *bs.observation_selector(
            times, 1, parsed.observations))
        assert [c["oracle_value"] for c in
                report["oracle"]["comparisons"]] == law.mean.tolist()

    def test_nonlinear_model_reports_no_oracle(self, tmp_path, capsys):
        cfg = base_config(model={"name": "double_well",
                                 "params": {"dim": 1, "bound": 2.0}})
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"] is None

    def test_marginal_var_functional(self, tmp_path, capsys):
        cfg = base_config(functionals=[
            {"type": "marginal_var", "time": 0.5, "coordinate": 0}])
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        est = report["estimates"][0]
        assert abs(est["value"] - 0.25) < 5.0 * est["std_error"]
        comp = report["oracle"]["comparisons"][0]
        assert np.isclose(comp["oracle_value"], 0.25)


class TestErrorReporting:
    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        raw = base_config()
        del raw["n_paths"]
        status = main(["run", write_config(tmp_path, raw)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"
        assert err["error"]["field"] == "n_paths"
        assert err["error"]["message"]

    @pytest.mark.parametrize("name, params, needle", [
        pytest.param("ou", {"bogus": 1}, "bogus", id="ou"),
        pytest.param("double_well", {"bogus": 1}, "bogus", id="double_well"),
        pytest.param("ou", {"dim": -1}, "dim", id="negative_dim"),
        pytest.param("double_well", {"dim": 0}, "dim", id="zero_dim"),
        pytest.param("ou", {"sigma": "abc"}, "abc", id="text_sigma"),
    ])
    def test_bad_model_parameter_reported(self, tmp_path, capsys, name,
                                          params, needle):
        cfg = base_config(model={"name": name, "params": params})
        status = main(["validate", write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"
        assert needle in err["error"]["message"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("grid", [{"dt_base": 0.02, "dt_min": 1e-3},
                                      {"dt_base": 0.02}])
    def test_non_finite_horizon_rejected(self, tmp_path, capsys, command,
                                         grid):
        """json reads Infinity; an infinite horizon would collapse the
        grid to one node and run to a confident wrong answer."""
        cfg = base_config(horizon=float("inf"), grid=grid)
        status = main([command, write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"
        assert err["error"]["field"] == "horizon"
        assert "finite" in err["error"]["message"]

    @pytest.mark.parametrize("name, params, bad", [
        ("ou", {"dim": 1, "f_diag": float("inf")}, "f_diag"),
        ("ou", {"dim": 1, "sigma": float("nan")}, "sigma"),
        ("double_well", {"sigma": float("inf")}, "sigma")])
    def test_non_finite_model_parameter_reported(self, tmp_path, capsys,
                                                 name, params, bad):
        cfg = base_config(model={"name": name, "params": params})
        status = main(["validate", write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"
        assert err["error"]["message"] == f"{bad} must be finite"

    def test_missing_file(self, tmp_path, capsys):
        status = main(["run", str(tmp_path / "nope.json")])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "io-error"

    def test_unstable_run_reported(self, tmp_path, capsys):
        cfg = base_config(
            model={"name": "ou", "params": {"dim": 1, "f_diag": 40.0}},
            observations=[{"time": 5.0, "matrix": [[1.0]], "value": [0.0]}],
            initial_state=[2.0],
            grid={"dt_base": 0.5, "dt_min": 0.1},
            functionals=[{"type": "coordinate", "time": 2.5,
                          "coordinate": 0}])
        status = main(["run", write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "unstable-run"

    @pytest.mark.parametrize("missing", ["csv", "report"],
                             ids=["csv-dir-missing", "report-dir-missing"])
    def test_unwritable_csv_fails_before_simulating(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   missing):
        """A CSV or report path in a missing directory is an io-error
        before any chunk is simulated, and the other output's directory
        is left without a file, temporary or not."""
        calls = []
        simulate = bridgesim.estimator.simulate_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(bridgesim.estimator, "simulate_batch", counting)
        out = tmp_path / "out"
        out.mkdir()
        paths = {"csv": out / "paths.csv", "report": out / "report.json"}
        paths[missing] = tmp_path / "missing" / paths[missing].name
        cfg = base_config(outputs={"ensemble_csv": str(paths["csv"]),
                                   "report": str(paths["report"])})
        status = main(["run", write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "io-error"
        assert calls == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["report", "ensemble_csv"])
    def test_missing_directory_error_names_the_output(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      key):
        """The io-error names the output path the config gave, not the
        file staged beside it, and carries that output's field."""
        monkeypatch.chdir(tmp_path)
        cfg = base_config(outputs={key: "missing/out.file"})
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {
            "type": "io-error", "field": f"outputs.{key}",
            "message": "[Errno 2] No such file or directory: "
                       "'missing/out.file'"}

    @pytest.mark.parametrize("key", ["report", "ensemble_csv"])
    def test_directory_output_fails_before_simulating(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      key):
        """An output path that is an existing directory is an io-error
        naming that path and its field before any chunk runs; no staging
        file is left and the directory keeps its contents."""
        calls = []
        monkeypatch.setattr(bridgesim.cli, "_ensemble",
                            lambda *a, **k: calls.append(1))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        (tmp_path / "outdir" / "kept.txt").write_text("kept")
        path = write_config(tmp_path, base_config(outputs={key: "outdir"}))
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["run", path]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "io-error", "field": f"outputs.{key}",
                       "message": "[Errno 21] Is a directory: 'outdir'"}
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert [p.name for p in (tmp_path / "outdir").iterdir()] == \
            ["kept.txt"]
        assert (tmp_path / "outdir" / "kept.txt").read_text() == "kept"

    @pytest.mark.parametrize("outputs", [
        {"report": "outdir"},
        {"ensemble_csv": "missing/paths.csv"},
        {"report": "outdir", "ensemble_csv": "missing/paths.csv"}],
        ids=["report-is-directory", "csv-directory-missing", "both"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, monkeypatch,
                                               capsys, outputs):
        """validate fails an output path that run fails, with the same
        io-error naming the first path that run opens and its field, and
        creates no file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        path = write_config(tmp_path, base_config(outputs=outputs))
        before = sorted(map(str, tmp_path.rglob("*")))
        errors = []
        for command in ("validate", "run"):
            assert main([command, path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(json.loads(captured.err)["error"])
            assert sorted(map(str, tmp_path.rglob("*"))) == before
        assert errors[0] == errors[1] == (
            {"type": "io-error", "field": "outputs.ensemble_csv",
             "message": "[Errno 2] No such file or directory: "
                        "'missing/paths.csv'"}
            if "ensemble_csv" in outputs else
            {"type": "io-error", "field": "outputs.report",
             "message": "[Errno 21] Is a directory: 'outdir'"})

    def test_zero_threads_writes_nothing(self, tmp_path, capsys):
        """``--threads 0`` is an invalid-configuration error that leaves
        no CSV, report or staging file."""
        out = tmp_path / "out"
        out.mkdir()
        cfg = base_config(outputs={"report": str(out / "report.json"),
                                   "ensemble_csv": str(out / "paths.csv")})
        assert main(["run", write_config(tmp_path, cfg),
                     "--threads", "0"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "invalid-configuration"
        assert err["message"] == "threads must be >= 1"
        assert list(out.iterdir()) == []

    def test_colliding_outputs_write_nothing(self, tmp_path, capsys):
        """A report and CSV on one path would leave only the CSV; the run
        is rejected before it writes either."""
        out = tmp_path / "out"
        out.mkdir()
        cfg = base_config(outputs={"report": str(out / "both"),
                                   "ensemble_csv": str(out / "both")})
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "invalid-configuration"
        assert err["field"] == "outputs.ensemble_csv"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("content, message", [
        pytest.param(b'{"schema_version": 1,', "config is not valid JSON: ",
                     id="truncated"),
        pytest.param(b"\xff\xfe{}", "config is not valid JSON: ",
                     id="not-utf8"),
        pytest.param(b"[1, 2]", "config must be a JSON object",
                     id="not-an-object")])
    def test_malformed_config_file_reported(self, tmp_path, capsys,
                                            content, message):
        """A config file that is not JSON, not UTF-8 or not a JSON object
        is an invalid-configuration error, not a traceback, with the
        message that ``parse_config`` gives the same bytes."""
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "invalid-configuration"
        assert err["message"].startswith(message)
        with pytest.raises(InvalidConfigurationError) as e:
            bs.parse_config(content)
        assert err["message"] == str(e.value)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("existing", [None, b"kept,bytes\n"])
    def test_unstable_run_leaves_csv_untouched(self, tmp_path, monkeypatch,
                                               capsys, threads, existing,
                                               chunk_cap):
        """An unstable run, whose rows were streamed chunk by chunk,
        leaves no CSV where there was none, keeps the bytes of one that
        was there, and leaves no temporary file."""
        out = tmp_path / "out"
        out.mkdir()
        csv_path = out / "paths.csv"
        if existing is not None:
            csv_path.write_bytes(existing)
        raw = blowup_config(monkeypatch, 2.5, n_paths=CHUNK + 100,
                            outputs={"ensemble_csv": str(csv_path)})
        assert chunk_count(raw["n_paths"], int(threads)) == 2
        status = main(["run", write_config(tmp_path, raw),
                       "--threads", threads])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "unstable-run"
        if existing is None:
            assert list(out.iterdir()) == []
        else:
            assert list(out.iterdir()) == [csv_path]
            assert csv_path.read_bytes() == existing


class TestOtherCommands:
    def test_validate_command(self, tmp_path, capsys):
        status = main(["validate", write_config(tmp_path, base_config())])
        assert status == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["n_observations"] == 1

    @pytest.mark.parametrize("mutate,field", [
        (lambda c: c.update(initial_state=["a"]), "initial_state[0]"),
        (lambda c: c.update(initial_state="x"), "initial_state"),
        (lambda c: c.update(model={"name": "double_well",
                                   "drift_split": False,
                                   "params": {"dim": 1}}),
         "model.drift_split"),
        pytest.param(lambda c: c["observations"][0].update(window=5e-4),
                     "grid.dt_min", id="window-not-above-dt_min"),
    ])
    def test_validate_rejects_bad_config(self, tmp_path, capsys, mutate,
                                         field):
        cfg = base_config()
        mutate(cfg)
        assert main(["validate", write_config(tmp_path, cfg)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "invalid-configuration"
        assert err["field"] == field

    def test_oracle_command(self, tmp_path, capsys):
        status = main(["oracle", write_config(tmp_path, base_config())])
        assert status == 0
        out = json.loads(capsys.readouterr().out)
        assert np.isclose(out["oracle_values"][0]["value"], 0.5)

    def test_oracle_command_matches_run_comparisons(self, tmp_path, capsys):
        cfg = base_config(
            model={"name": "ou", "params": {"dim": 2,
                                            "f_diag": [-1.0, -0.5]}},
            observations=[{"time": 1.0, "matrix": [[1.0, 0.0]],
                           "value": [0.7]}],
            initial_state=[0.5, -0.3], n_paths=50,
            functionals=[
                {"type": "coordinate", "time": 0.0, "coordinate": 1},
                {"type": "coordinate", "time": 0.5, "coordinate": 1},
                {"type": "marginal_var", "time": 0.5, "coordinate": 0}])
        path = write_config(tmp_path, cfg)
        assert main(["oracle", path]) == 0
        oracle = json.loads(capsys.readouterr().out)["oracle_values"]
        assert main(["run", path]) == 0
        run = json.loads(capsys.readouterr().out)["oracle"]["comparisons"]
        assert [o["value"] for o in oracle] == \
            [c["oracle_value"] for c in run]
        assert oracle[0]["value"] == -0.3

    def test_oracle_command_tells_close_times_apart(self, tmp_path, capsys):
        """Functionals 8e-6 apart each get the conditioning at their own
        time, not the value at the first time within a tolerance."""
        times = [0.9, 0.900008]
        cfg = base_config(
            model={"name": "ou", "params": {"dim": 1, "f_diag": -1.0}},
            observations=[{"time": 1.0, "matrix": [[1.0]], "value": [0.4]}],
            functionals=[{"type": "marginal_var", "time": t, "coordinate": 0}
                         for t in times])
        assert main(["oracle", write_config(tmp_path, cfg)]) == 0
        got = [o["value"] for o in
               json.loads(capsys.readouterr().out)["oracle_values"]]
        parsed = bs.parse_config(cfg)
        lm = parsed.model.linear_reference(parsed.initial_state)
        for t, value in zip(times, got):
            law = bs.joint_law(lm, [t, 1.0])
            sel, val = bs.observation_selector([t, 1.0], 1,
                                               parsed.observations)
            want = bs.condition(law, sel, val).cov[0, 0]
            assert np.isclose(value, want, rtol=1e-12, atol=0.0)
        assert not np.isclose(got[0], got[1], rtol=1e-6, atol=0.0)

    def test_oracle_command_needs_linear_model(self, tmp_path, capsys):
        cfg = base_config(model={"name": "double_well",
                                 "params": {"dim": 1}})
        status = main(["oracle", write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"
