"""Configuration parsing and the command-line entry points."""
import csv
import json

import numpy as np
import pytest

import bridgesim as bs
from bridgesim.cli import _estimates, _write_csv, main
from bridgesim.errors import InvalidConfigurationError
from bridgesim.estimator import CHUNK_SIZE, WeightedEnsemble


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


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = bs.parse_config(base_config())
        assert cfg.model_name == "brownian"
        assert cfg.horizon == 1.0                      # last observation
        assert cfg.observations.items[0].window == 1.0  # gap default
        assert np.allclose(cfg.initial_state, [0.0])
        assert cfg.threads is None
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
        (lambda c: c.update(threads=0), "threads"),
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
    ])
    def test_field_paths_in_errors(self, mutate, field):
        raw = base_config()
        mutate(raw)
        with pytest.raises(InvalidConfigurationError) as e:
            bs.parse_config(raw)
        assert e.value.field == field

    def test_invalid_json_string(self):
        with pytest.raises(InvalidConfigurationError):
            bs.parse_config("{not json")

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
        built = cfg.build_model()
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
        assert report["numerics_scheme"] == 2
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
        grid = bs.build_grid(1.0, cfg.observations, 0.25, 0.25)
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
        ens = WeightedEnsemble(
            grid=grid, states=np.zeros((n, grid.n_steps + 1, 1)),
            path_ids=ids, log_weights=pick(n), breakdown=breakdown,
            preclamp={}, n_failed=0)
        fvals = pick(n, 2)
        fvals[0] = [-0.0, np.nan]
        path = tmp_path / "paths.csv"
        _write_csv(str(path), cfg, ens, fvals)

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
                row = [str(int(ids[i])), fmt(ens.log_weights[i])]
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
    def test_thinned_run_matches_full_state_run(self, tmp_path, threads):
        """The run keeps only its functionals' nodes; its CSV and report
        estimates are the bytes of a run that keeps every state."""
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "paths.csv"
        raw = base_config(
            model={"name": "ou", "drift_split": True,
                   "params": {"dim": 2, "f_diag": [-1.0, -0.5],
                              "sigma": [1.0, 1.5]}},
            observations=[{"time": 1.0, "matrix": [[1.0, 0.0]],
                           "value": [0.7]}],
            initial_state=[0.5, -0.3], n_paths=CHUNK_SIZE + 100,
            functionals=[
                {"type": "coordinate", "time": 0.5, "coordinate": 0},
                {"type": "marginal_var", "time": 0.5, "coordinate": 0},
                {"type": "coordinate", "time": 1.0, "coordinate": 1}],
            outputs={"report": str(report_path),
                     "ensemble_csv": str(csv_path)})
        assert main(["run", write_config(tmp_path, raw),
                     "--threads", threads]) == 0

        cfg = bs.parse_config(raw)
        times = [f.time for f in cfg.functionals]
        grid = bs.build_grid(cfg.horizon, cfg.observations, cfg.grid.dt_base,
                             cfg.grid.dt_min, cfg.grid.refine_ratio,
                             include_times=times)
        full = bs.run_ensemble(cfg.build_model().spec, cfg.observations,
                               grid, cfg.initial_state, cfg.n_paths, cfg.seed)
        assert full.states.shape[1] == grid.n_steps + 1
        fvals = np.column_stack(
            [full.states[:, grid.index_of(f.time), f.coordinate]
             for f in cfg.functionals])
        ref = tmp_path / "ref.csv"
        _write_csv(str(ref), cfg, full, fvals)
        assert csv_path.read_bytes() == ref.read_bytes()
        estimates, _, _ = _estimates(cfg, full, fvals)
        assert json.loads(report_path.read_text())["estimates"] == estimates

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

    def test_threads_env_default(self, tmp_path, monkeypatch, capsys):
        csv_env = tmp_path / "env.csv"
        csv_ref = tmp_path / "ref.csv"
        cfg_env = base_config(outputs={"ensemble_csv": str(csv_env)})
        cfg_ref = base_config(outputs={"ensemble_csv": str(csv_ref)})
        monkeypatch.setenv("BRIDGESIM_THREADS", "3")
        assert main(["run", write_config(tmp_path, cfg_env, "e.json")]) == 0
        monkeypatch.delenv("BRIDGESIM_THREADS")
        assert main(["run", write_config(tmp_path, cfg_ref, "r.json")]) == 0
        assert csv_env.read_bytes() == csv_ref.read_bytes()

    def test_bad_threads_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BRIDGESIM_THREADS", "many")
        status = main(["run", write_config(tmp_path, base_config())])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"

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

    @pytest.mark.parametrize("name", ["ou", "double_well"])
    def test_bad_model_parameter_reported(self, tmp_path, capsys, name):
        cfg = base_config(model={"name": name, "params": {"bogus": 1}})
        status = main(["validate", write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"
        assert "bogus" in err["error"]["message"]

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


class TestOtherCommands:
    def test_validate_command(self, tmp_path, capsys):
        status = main(["validate", write_config(tmp_path, base_config())])
        assert status == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["n_observations"] == 1

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

    def test_oracle_command_needs_linear_model(self, tmp_path, capsys):
        cfg = base_config(model={"name": "double_well",
                                 "params": {"dim": 1}})
        status = main(["oracle", write_config(tmp_path, cfg)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid-configuration"
