import csv
import subprocess
import sys
from pathlib import Path

import pytest

from transit_equity import experiment
from transit_equity.cli import main
from transit_equity.geo import (
    GeoHousehold,
    PovertyGuideline,
    TransitStop,
    generate_routes,
    write_geo_households,
    write_poverty_guideline,
    write_transit_stops,
)
from transit_equity.instance_io import write_instance
from transit_equity.model import Household, Instance, Program


@pytest.fixture
def instance_dir(tmp_path, singletons):
    path = tmp_path / "inst"
    write_instance(singletons, path)
    return str(path)


def run_cli(args):
    return main(args)


class TestSolveLp:
    def test_prints_lp_value(self, instance_dir, capsys):
        assert run_cli(["solve-lp", "--instance", instance_dir]) == 0
        out = capsys.readouterr().out
        assert "lp_value 0.500000000" in out
        assert "violations 0" in out

    def test_dump_lp(self, instance_dir, tmp_path, capsys):
        dump = tmp_path / "model.lp"
        run_cli(["solve-lp", "--instance", instance_dir, "--dump-lp", str(dump)])
        assert dump.read_text().startswith("\\ benchmark LP")


class TestAlgorithms:
    def test_ras_summary_and_log(self, instance_dir, tmp_path, capsys):
        log = tmp_path / "trials.csv"
        code = run_cli(
            [
                "ras",
                "--instance",
                instance_dir,
                "--seed",
                "9",
                "--trials",
                "50",
                "--trial-log",
                str(log),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trials 50" in out
        with log.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51

    def test_greedy(self, instance_dir, capsys):
        assert run_cli(["greedy", "--instance", instance_dir]) == 0
        out = capsys.readouterr().out
        assert "equity 0.000000000" in out

    def test_uniform(self, instance_dir, capsys):
        assert run_cli(["uniform", "--instance", instance_dir, "--trials", "10"]) == 0
        assert "mean_cost" in capsys.readouterr().out

    def test_oracle_triple(self, instance_dir, tmp_path, capsys):
        out_csv = tmp_path / "oracle.csv"
        assert run_cli(["oracle", "--instance", instance_dir, "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "opt_deterministic 0.000000000" in out
        assert "opt_randomized 0.500000000" in out
        with out_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["opt_deterministic", "opt_randomized", "lp_value"]
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-9)

    def test_combined_scenario_flag(self, tmp_path, capsys, small_instance):
        path = tmp_path / "inst"
        write_instance(small_instance, path)
        run_cli(["greedy", "--instance", str(path), "--scenario", "combined", "--budget", "3"])
        out = capsys.readouterr().out
        assert "ride-hail:" in out


class TestIngest:
    def test_synthetic_ingest_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst"
        code = run_cli(
            [
                "ingest",
                "--synthetic",
                "--budget",
                "5000000",
                "--routes",
                "3",
                "--out",
                str(out),
                "--dump-geo",
                str(tmp_path / "geo"),
            ]
        )
        assert code == 0
        assert (out / "households.csv").exists()
        assert (out / "programs.csv").exists()
        assert (out / "meta.csv").exists()
        assert (tmp_path / "geo" / "geo_households.csv").exists()

    def test_missing_inputs_rejected(self, capsys, tmp_path):
        code = run_cli(["ingest", "--budget", "1", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_zero_guideline_threshold_is_one_line_error(self, capsys, tmp_path):
        geo = tmp_path / "geo"
        assert run_cli(
            ["ingest", "--synthetic", "--budget", "1", "--routes", "3", "--dump-geo", str(geo),
             "--out", str(tmp_path / "inst")]
        ) == 0
        (geo / "poverty_guideline.csv").write_text("household_size,fpl_100\n1,0.0\n2,20000.0\n")
        capsys.readouterr()
        out_dir = tmp_path / "from_csv"
        code = run_cli(
            ["ingest", "--households", str(geo / "geo_households.csv"),
             "--stops", str(geo / "transit_stops.csv"),
             "--guideline", str(geo / "poverty_guideline.csv"),
             "--budget", "1", "--out", str(out_dir)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {geo / 'poverty_guideline.csv'}: ") and err.count("\n") == 1
        assert "must be finite and > 0" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "routes, message",
        [("3", "could only generate 0 of 3 requested routes"),
         ("0", "route count must be >= 1, got 0")],
    )
    def test_route_shortfall_is_one_line_error(self, routes, message, capsys, tmp_path):
        # twelve households a few yards apart make one stop site: no route of ten stops
        lat, lon = 41.8, -87.7
        households = [
            GeoHousehold(id=f"h{k}", lat=lat + 1e-5 * k, lon=lon, income=20000.0,
                         household_size=2, race="x")
            for k in range(12)
        ]
        stops = [TransitStop(id="b", kind="bus", lat=lat, lon=lon + 0.02),
                 TransitStop(id="r", kind="rail", lat=lat, lon=lon - 0.02)]
        write_geo_households(households, tmp_path / "h.csv")
        write_transit_stops(stops, tmp_path / "s.csv")
        write_poverty_guideline(PovertyGuideline(((2, 17000.0),)), tmp_path / "g.csv")
        out_dir = tmp_path / "inst"
        code = run_cli(
            ["ingest", "--households", str(tmp_path / "h.csv"), "--stops", str(tmp_path / "s.csv"),
             "--guideline", str(tmp_path / "g.csv"), "--budget", "1", "--routes", routes,
             "--out", str(out_dir)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not out_dir.exists()


class TestExperimentCommand:
    ARGS = [
        "experiment",
        "--budgets",
        "1",
        "--scenarios",
        "bus_only",
        "--trials",
        "25",
        "--seed",
        "4",
    ]

    def test_runs_on_instance_dir(self, instance_dir, tmp_path, capsys):
        code = run_cli(self.ARGS + ["--instance", instance_dir, "--out", str(tmp_path / "exp")])
        assert code == 0
        results = tmp_path / "exp" / "results.csv"
        with results.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + 3 algorithms

    def test_config_file_with_flag_override(self, instance_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# sweep configuration\n"
            f"instance={instance_dir}\n"
            "budgets=1\n"
            "scenarios=bus_only\n"
            "trials=5\n"
            "seed=123\n"
        )
        code = run_cli(
            [
                "experiment",
                "--config",
                str(config),
                "--trials",
                "10",
                "--out",
                str(tmp_path / "exp"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "results" in out

    def test_budgets_required(self, tmp_path, capsys):
        assert run_cli(["experiment", "--out", str(tmp_path / "e")]) == 2

    def test_unknown_config_key_rejected(self, instance_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"instance={instance_dir}\nbudgets=1\ntrails=5\n")
        out_dir = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config), "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'trails'" in err
        assert not out_dir.exists()

    def test_repeated_algorithm_is_one_line_error(self, tmp_path, capsys):
        # rejected by the config, before the default synthetic city is built
        out_dir = tmp_path / "exp"
        argv = ["experiment", "--budgets", "5e6", "--algorithms", "uniform,uniform",
                "--out", str(out_dir)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repeated algorithms ['uniform']\n"
        assert not out_dir.exists()

    def test_route_shortfall_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        # the default city chains about 270 routes; one attempt each for 400 falls short
        def four_hundred(sites, stops, count, rng, params):
            return generate_routes(sites, stops, 400, rng, params, max_attempts_per_route=1)

        monkeypatch.setattr(experiment, "generate_routes", four_hundred)
        out_dir = tmp_path / "exp"
        assert run_cli(["experiment", "--budgets", "5e6", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: could only generate ")
        assert " of 400 requested routes" in captured.err and captured.err.count("\n") == 1
        assert not out_dir.exists()


class TestInputErrors:
    def test_small_budget_is_one_line_error(self, instance_dir, capsys):
        code = run_cli(["solve-lp", "--instance", instance_dir, "--budget", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: normalized budget 0.5 < 1")
        assert captured.err.count("\n") == 1

    def test_small_budget_error_names_the_cli_flag(self, instance_dir, capsys):
        code = run_cli(["solve-lp", "--instance", instance_dir, "--budget", "0.5"])
        assert code == 2
        assert "--allow-small-budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ras", "uniform"])
    def test_zero_trials_is_one_line_error(self, instance_dir, capsys, command):
        code = run_cli([command, "--instance", instance_dir, "--trials", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trials must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ras", "--instance", "{inst}", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["uniform", "--instance", "{inst}", "--seed", "-2"], "--seed must be >= 0, got -2"),
            (["ingest", "--synthetic", "--budget", "1", "--seed", "-1", "--out", "{out}"],
             "--seed must be >= 0, got -1"),
            (["ingest", "--synthetic", "--budget", "1", "--synthetic-seed", "-1",
              "--out", "{out}"], "--synthetic-seed must be >= 0, got -1"),
            (["experiment", "--budgets", "5e5", "--seed", "-1", "--out", "{out}"],
             "seed must be >= 0, got -1"),
            (["experiment", "--budgets", "5e5", "--synthetic-seed", "-1", "--out", "{out}"],
             "synthetic_seed must be >= 0, got -1"),
        ],
    )
    def test_negative_seed_is_one_line_error(self, instance_dir, tmp_path, capsys, argv, message):
        # rejected before any city is built or instance read
        out_dir = tmp_path / "out"
        argv = [a.format(inst=instance_dir, out=out_dir) for a in argv]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_negative_rides_per_quarter_names_the_parameter(self, tmp_path, capsys):
        out_dir = tmp_path / "inst"
        argv = ["ingest", "--synthetic", "--budget", "1", "--rides-per-quarter", "-3",
                "--out", str(out_dir)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: rides_per_quarter must be finite and >= 0, got -3\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "line, message",
        [("trials=abc", "trials: invalid literal for int() with base 10: 'abc'"),
         ("budgets=1,x", "budgets: could not convert string to float: 'x'"),
         ("rides_per_quarter=-3", "rides_per_quarter: rides_per_quarter must be finite")],
    )
    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        budgets = "" if line.startswith("budgets") else "budgets=1\n"
        config.write_text(f"scenarios=bus_only\n{budgets}{line}\n")
        out_dir = tmp_path / "exp"
        assert run_cli(["experiment", "--config", str(config), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: {message}") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_oracle_on_too_many_programs(self, tmp_path, capsys):
        households = (Household(id="a", group_ids=frozenset({"g"})),)
        programs = tuple(
            Program(id=f"p{k}", cost=1.0, covers=frozenset({"a"})) for k in range(21)
        )
        inst = Instance(
            households=households,
            programs=programs,
            budget=2.0,
        )
        write_instance(inst, tmp_path / "inst")
        code = run_cli(["oracle", "--instance", str(tmp_path / "inst")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: enumeration supports at most 20 programs, got 21\n"

    def test_oracle_over_the_coverage_cap(self, tmp_path, capsys):
        # every one of the 2**20 selections of 20 unit-cost programs is
        # feasible, and 9 households make 9 * 2**20 > MAX_COVERAGE_CELLS = 2**23
        households = tuple(Household(id=f"h{i}", group_ids=frozenset({"g"})) for i in range(9))
        programs = tuple(
            Program(id=f"p{k}", cost=1.0, covers=frozenset({f"h{k % 9}"})) for k in range(20)
        )
        inst = Instance(
            households=households,
            programs=programs,
            budget=20.0,
        )
        write_instance(inst, tmp_path / "inst")
        code = run_cli(["oracle", "--instance", str(tmp_path / "inst")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: the exact oracles score at most 8388608 selection x household cells,"
            " got 1048576 x 9\n"
        )

    def test_missing_instance_dir(self, tmp_path, capsys):
        code = run_cli(["greedy", "--instance", str(tmp_path / "absent")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_short_row_is_one_line_error(self, instance_dir, capsys):
        path = Path(instance_dir) / "programs.csv"
        with path.open("a", newline="", encoding="utf-8") as fh:
            fh.write("p9,1.0,bus_line\r\n")
        code = run_cli(["solve-lp", "--instance", instance_dir])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 4 has 3 fields, expected 4\n"

    @pytest.mark.parametrize(
        "line, old, new, message",
        [(3, ",1.0,", ",abc,", "could not convert string to float: 'abc'"),
         (2, "virtual_ride_hail", "bus", "'bus' is not a valid ProgramKind")],
    )
    def test_bad_program_value_names_file_and_line(
        self, instance_dir, capsys, line, old, new, message
    ):
        path = Path(instance_dir) / "programs.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[line - 1] = lines[line - 1].replace(old.encode(), new.encode())
        path.write_bytes(b"\r\n".join(lines))
        code = run_cli(["solve-lp", "--instance", instance_dir])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line {line}: {message}\n"

    def test_bad_household_size_names_file_and_line(self, tmp_path, capsys):
        geo = tmp_path / "geo"
        assert run_cli(
            ["ingest", "--synthetic", "--budget", "1", "--routes", "3", "--dump-geo", str(geo),
             "--out", str(tmp_path / "inst")]
        ) == 0
        path = geo / "geo_households.csv"
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[2][4] = "2.5"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        code = run_cli(
            ["ingest", "--households", str(path), "--stops", str(geo / "transit_stops.csv"),
             "--guideline", str(geo / "poverty_guideline.csv"), "--budget", "1",
             "--out", str(tmp_path / "from_csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: invalid literal for int() with base 10: '2.5'\n"
        )

    def test_nul_in_instance_file_is_one_line_error(self, instance_dir, capsys):
        # Python 3.10's csv reader rejects the line, 3.11's the household id
        path = Path(instance_dir) / "households.csv"
        path.write_text(path.read_text(encoding="utf-8").replace("a,", "a\x00,"), encoding="utf-8")
        code = run_cli(["solve-lp", "--instance", instance_dir])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "transit_equity.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "solve-lp" in proc.stdout and "experiment" in proc.stdout
