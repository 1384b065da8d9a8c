import json
import os
import stat

import pytest

import gibbscache.gibbs
import gibbscache.sim
from gibbscache.cli import main
from gibbscache.gibbs import state_rates

REF_CONFIG = "configs/two_station_line.json"


def write_cfg(tmp_path, name="exp.json", **over):
    data = {
        "topology": {"intervals": [[0, 6], [1, 10]]},
        "catalog": {"intensities": [0.055, 0.045]},
        "cache": {"capacity": 1},
        "gibbs": {"mode": "fixed", "beta": 2.0},
        "sim": {"horizon": 2000, "seed": 1},
    }
    data.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestOptimal:
    def test_json_stdout(self, capsys):
        assert main(["optimal", "--config", REF_CONFIG]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["h_max"] == pytest.approx(0.765)
        assert data["h_min"] == pytest.approx(0.45)
        assert data["most_popular"] == pytest.approx(0.55)
        assert data["independent_opt"] == pytest.approx(0.63, abs=1e-6)
        assert data["independent_r_star"] == pytest.approx(0.6, abs=1e-3)
        assert data["unique_argmax"] is True
        assert data["argmax"] == [[[2], [1]]]

    def test_csv_stdout(self, capsys):
        assert main(["optimal", "--config", REF_CONFIG, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "quantity,value"
        assert any(line.startswith("h_max,0.765") for line in out.splitlines())

    def test_out_dir(self, tmp_path, capsys):
        out = tmp_path / "nested" / "results"
        assert main(["optimal", "--config", REF_CONFIG, "--out-dir", str(out)]) == 0
        data = json.loads((out / "optimal.json").read_text())
        assert data["h_max"] == pytest.approx(0.765)

    def test_out_file_mode_follows_umask(self, tmp_path, capsys):
        umask = os.umask(0o022)
        try:
            assert main(["optimal", "--config", REF_CONFIG, "--out-dir", str(tmp_path)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "optimal.json").stat().st_mode) == 0o644


class TestSimulate:
    def test_stdout_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["replications"] == 1
        run = data["runs"][0]
        assert run["seed"] == 1
        assert run["hits"] + run["misses"] == run["requests"]
        assert 0.4 < run["hit_rate_time_avg"] < 0.77

    def test_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        main(["simulate", "--config", cfg, "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", "--config", cfg, "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_replications_and_out_dir(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "res"
        assert (
            main(
                [
                    "simulate", "--config", cfg, "--replications", "3",
                    "--out-dir", str(out), "--format", "csv",
                ]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["replications"] == 3
        assert len({r["seed"] for r in summary["runs"]}) == 3
        lines = (out / "simulate.csv").read_text().splitlines()
        assert len(lines) == 4  # header + one row per replication

    def test_horizon_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["simulate", "--config", cfg, "--horizon", "500"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["runs"][0]["slots"] == 500

    def test_event_logs_written(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            sim={"horizon": 300, "seed": 1, "record_events": True, "record_slots": True},
        )
        out = tmp_path / "logs"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        events = (out / "seed_1" / "events.csv").read_text().splitlines()
        slots = (out / "seed_1" / "slots.csv").read_text().splitlines()
        assert events[0] == "tau,content,segment,bs,action"
        assert slots[0] == "slot,bs,beta,placement"
        assert len(slots) == 301  # header + one row per update


class TestSweeps:
    def test_sweep_beta_exact_column(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sim={"horizon": 1000, "seed": 1})
        assert main(["sweep-beta", "--config", cfg, "--betas", "0,2"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_beta = {e["beta"]: e for e in data["sweep"]}
        assert by_beta[0.0]["exact"] == pytest.approx(0.625, abs=1e-12)
        assert by_beta[2.0]["exact"] == pytest.approx(0.6575141525969972, abs=1e-9)
        for e in data["sweep"]:
            assert 0.4 < e["simulated"] < 0.77

    def test_reproduce_fig2(self, capsys):
        assert main(["reproduce-fig2", "--config", REF_CONFIG, "--betas", "1,5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["h_max"] == pytest.approx(0.765)
        for entry in data["curves"]:
            assert entry["independent"] == pytest.approx(0.63, abs=1e-6)
            assert entry["most_popular"] == pytest.approx(0.55)
        gibbs_vals = [e["gibbs"] for e in data["curves"]]
        assert gibbs_vals[0] < gibbs_vals[1]  # increasing in beta

    def test_reproduce_fig2_csv(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert (
            main(
                [
                    "reproduce-fig2", "--config", REF_CONFIG,
                    "--betas", "1,2", "--out-dir", str(out), "--format", "csv",
                ]
            )
            == 0
        )
        lines = (out / "reproduce_fig2.csv").read_text().splitlines()
        assert lines[0] == "beta,gibbs,independent,most_popular"
        assert len(lines) == 3

    @pytest.mark.parametrize("command, scans", [("sweep-beta", 1), ("reproduce-fig2", 1)])
    def test_one_scan_for_all_betas(self, command, scans, tmp_path, monkeypatch, capsys):
        # Every scan of the states is one gibbs.state_rates call.
        calls = []

        def counting(top, cat, cache_size):
            calls.append((top, cat, cache_size))
            return state_rates(top, cat, cache_size)

        monkeypatch.setattr(gibbscache.gibbs, "state_rates", counting)
        cfg = write_cfg(tmp_path, sim={"horizon": 200, "seed": 1})
        assert main([command, "--config", cfg, "--betas", "0,1,2"]) == 0
        assert len(calls) == scans


class TestFlags:
    def test_run_flags_only_on_simulating_commands(self, capsys):
        for command in ("optimal", "reproduce-fig2"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", REF_CONFIG, "--replications", "3"])
            assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--horizon", "-5"),
            ("simulate", "--horizon", "0"),
            ("simulate", "--replications", "0"),
            ("sweep-beta", "--replications", "0"),
            ("sweep-beta", "--betas", "abc"),
            ("sweep-beta", "--betas", "-1"),
            ("reproduce-fig2", "--betas", "-1"),
            ("simulate", "--seed", "-1"),
        ],
    )
    def test_bad_value_is_config_error(self, command, flag, value, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main([command, "--config", cfg, flag, value]) == 2
        assert f"config error: {flag}: " in capsys.readouterr().err


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "over, field",
        [
            ({"sim": {"horizon": float("nan")}}, "sim.horizon"),
            ({"sim": {"horizon": float("inf")}}, "sim.horizon"),
            ({"sim": {"seed": -1}}, "sim.seed"),
            ({"sim": {"seed": 1.5}}, "sim.seed"),
            ({"cache": {"capacity": True}}, "cache.capacity"),
            ({"gibbs": {"beta": "2.0"}}, "gibbs.beta"),
            ({"gibbs": {"learning": "false"}}, "gibbs.learning"),
            ({"gibbs": [1]}, "gibbs"),
            (
                {"topology": {"segments": {"n_bs": 2.0, "areas": [{"subset": [1], "area": 1}]}}},
                "topology.segments",
            ),
            (
                {"topology": {"discs": {"centers": [[0, 0]], "radii": [float("inf")],
                                        "grid_step": 0.1}}},
                "topology.discs",
            ),
            ({"sim": {"horizn": 5}}, "sim.horizn"),
            (
                {"topology": {"segments": {"n_bs": 1, "areas": [
                    {"subset": [1], "area": 2.0, "aera": 5.0}]}}},
                "topology.segments.areas.aera",
            ),
            (
                {"topology": {"discs": {"centers": [[0, 0]], "radii": [1.0],
                                        "grid_step": 1e-308}}},
                "topology.discs",
            ),
            (
                {"topology": {"discs": {"centers": [[0, 0]], "radii": [1.0],
                                        "grid_step": 1e-6}}},
                "topology.discs",
            ),
            (
                {"topology": {"discs": {"centers": [[0, 0], [0.05, 0]], "radii": [1.0, 0.001],
                                        "grid_step": 0.1}}},
                "topology.discs",
            ),
        ],
    )
    def test_bad_config_value(self, over, field, tmp_path, capsys):
        cfg = write_cfg(tmp_path, **over)
        assert main(["simulate", "--config", cfg]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["optimal", "--config", "no/such/file.json"]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config(self, kind, tmp_path, capsys):
        path = tmp_path
        if kind == "not-utf8":
            path = tmp_path / "latin1.json"
            path.write_bytes('{"catalog": "caf\xe9"}'.encode("latin-1"))
        assert main(["optimal", "--config", str(path)]) == 2
        assert f"config error: {path}: cannot be read" in capsys.readouterr().err

    def test_out_dir_under_a_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path)
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(gibbscache.sim, "run", lambda *a: pytest.fail("the run started"))
        out = tmp_path / "file" / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "config error: --out-dir: cannot be created" in capsys.readouterr().err

    def test_capacity_error_on_huge_count(self, tmp_path, capsys):
        # 4060**1300 states: the count has about 4,700 digits.
        cfg = write_cfg(
            tmp_path,
            topology={"intervals": [[3 * j, 3 * j + 5] for j in range(1300)]},
            catalog={"intensities": [0.1 / i for i in range(1, 31)]},
            cache={"capacity": 3},
        )
        assert main(["optimal", "--config", cfg]) == 3
        assert "capacity error: 4060**1300 configurations" in capsys.readouterr().err

    def test_capacity_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            catalog={"intensities": [0.01] * 60},
            cache={"capacity": 30},
        )
        assert main(["optimal", "--config", cfg]) == 3
        assert "capacity error" in capsys.readouterr().err
