import json
import shutil
import subprocess
import sys

import pytest

from erl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResistanceCommand:
    def test_csv_output_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "resistance", "--gen", "line:9",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bag_bitmask,gamma"
        values = {int(m): int(g) for m, g in
                  (line.split(",") for line in lines[1:])}
        assert values[0] == 0
        multi = [v for m, v in values.items() if bin(m).count("1") >= 2]
        assert set(multi) == {1}
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "resistance"
        assert str(out) in manifest["outputs"]

    def test_binary_output_loads(self, tmp_path, capsys):
        out = tmp_path / "t.rgt"
        code, _, _ = run(capsys, "resistance", "--gen", "cycle:5",
                         "--out", str(out))
        assert code == 0
        from erl import ResistanceTable, generate, resistance_table
        import numpy as np
        loaded = ResistanceTable.load_binary(out.read_bytes())
        fresh = resistance_table(generate("cycle", (5,)))
        assert np.array_equal(loaded.values, fresh.values)

    def test_witness_emitted_and_valid(self, capsys):
        code, out, _ = run(capsys, "resistance", "--gen", "complete:4",
                           "--witness", "all")
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["gamma"] == 4
        assert doc["width"] == 4
        assert doc["crusade"][0] == [0, 1, 2, 3]
        assert doc["crusade"][-1] == []

    def test_capacity_error_exit_2(self, capsys):
        code, _, err = run(capsys, "resistance", "--gen", "line:25")
        assert code == 2
        assert "capped" in err

    def test_missing_graph_exit_2(self, capsys):
        code, _, err = run(capsys, "resistance")
        assert code == 2


class TestCutwidthCommand:
    @pytest.mark.parametrize("gen,expected", [
        ("line:9", "1"), ("cycle:6", "2"), ("star:3", "2")])
    def test_values(self, capsys, gen, expected):
        code, out, _ = run(capsys, "cutwidth", "--gen", gen)
        assert code == 0
        assert out.strip() == expected

    def test_graph_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 2\n")
        code, out, _ = run(capsys, "cutwidth", "--graph", str(path))
        assert code == 0
        assert out.strip() == "1"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 0\n")
        code, _, err = run(capsys, "cutwidth", "--graph", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "cutwidth", "--graph", "/nonexistent/g.txt")
        assert code == 3


class TestSimulateCommand:
    def test_single_run_json(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gen", "line:1",
                           "--initial", "all", "--budget", "2", "--seed", "1")
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["final"] == []
        assert doc["extinction_time"] > 0
        assert doc["censored"] is None

    def test_replicated_mean(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gen", "line:1",
                           "--initial", "all", "--budget", "2",
                           "--replications", "4000", "--seed", "1")
        assert code == 0
        doc = json.loads(out.strip())
        assert abs(doc["mean_tau"] - 0.5) <= 3 * doc["stderr"]
        assert doc["censored"] == 0

    def test_replicated_censoring_counted(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gen", "line:2",
                           "--initial", "all", "--budget", "0.001",
                           "--horizon", "0.01", "--replications", "5",
                           "--seed", "4")
        assert code == 0
        doc = json.loads(out.strip())
        assert (doc["censored"], doc["mean_tau"]) == (5, None)

    def test_events_csv(self, tmp_path, capsys):
        out = tmp_path / "ev.csv"
        code, _, _ = run(capsys, "simulate", "--gen", "cycle:5",
                         "--initial", "all", "--budget", "6", "--seed", "2",
                         "--events-csv", str(out))
        assert code == 0
        assert out.read_text().startswith("time,kind,node")

    def test_initial_forms(self, capsys):
        for spec in ("0x1", "0"):
            code, out, _ = run(capsys, "simulate", "--gen", "line:3",
                               "--initial", spec, "--budget", "5",
                               "--seed", "3")
            assert code == 0

    def test_horizon_censors(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gen", "line:2",
                           "--initial", "all", "--budget", "0.001",
                           "--horizon", "0.01", "--seed", "4")
        assert code == 0
        assert json.loads(out.strip())["censored"] == "HORIZON"

    def test_missing_graph_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--budget", "1")
        assert code == 2

    def test_missing_budget_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--gen", "line:3")
        assert code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--gen", "line:3", "--budget", "abc"),
        ("simulate", "--gen", "line:3", "--budget", "1", "--initial", "x,y"),
        ("cutwidth", "--gen", "line:1,2"),
        ("cutwidth", "--gen", "grid:3"),
        ("cutwidth", "--gen", "complete:1000"),
        ("verify", "--gen", "random_regular:12,3", "--mode", "sampled",
         "--samples", "-5"),
        ("verify", "--gen", "line:4", "--trajectories", "-2"),
        ("simulate", "--gen", "line:6", "--budget", "2", "--infection-rate",
         "nan"),
        ("simulate", "--gen", "line:6", "--budget", "2", "--infection-rate",
         "inf"),
        ("simulate", "--gen", "line:6", "--budget", "2", "--horizon", "nan"),
        ("simulate", "--gen", "line:6", "--budget", "2", "--replications",
         "-1"),
    ], ids=["budget", "initial", "line_arity", "grid_arity", "size_cap",
            "negative_samples", "negative_trajectories", "nan_rate",
            "infinite_rate", "nan_horizon", "negative_replications"])
    def test_bad_argument_exit_2_one_line(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "1000000\n",
        '{"n": "3", "edges": [[0, 1]]}',
        '{"n": 3.5, "edges": [[0, 1]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [[0, 1]], "degree_bound": "x"}',
    ], ids=["node_cap", "n_str", "n_float", "n_bool", "edges_int", "edge_bool",
            "bound_str"])
    def test_bad_graph_file_exit_2_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, _, err = run(capsys, "cutwidth", "--graph", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestVerifyCommand:
    def test_clean_graph_exit_0(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "verify", "--gen", "random_regular:10,3",
                              "--seed", "5", "--mode", "exhaustive",
                              "--out", str(out))
        assert code == 0
        assert "0 violations" in stdout
        doc = json.loads(out.read_text())
        assert doc["ok"] is True

    def test_trajectories_audited(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--gen", "line:9",
                              "--trajectories", "25", "--seed", "6")
        assert code == 0
        assert "0 violations" in stdout

    def test_inject_fault_exit_1_with_witness(self, capsys):
        code, stdout, err = run(capsys, "verify", "--gen", "line:6",
                                "--inject-fault")
        assert code == 1
        assert "violation" in err
        assert "FAIL" in stdout


class TestSweepCommand:
    SPEC = {"family": "line", "sizes": [4, 6], "budget": 3,
            "policy": "max_cut_drop", "replications": 25, "seed": 9}

    def test_runs_and_reproduces(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(capsys, "sweep", "--spec", str(spec_path),
                   "--out", str(out1))[0] == 0
        assert run(capsys, "sweep", "--spec", str(spec_path),
                   "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.manifest.json").exists()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("family,n,r,policy")

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(self.SPEC, budget="lots")))
        code, _, err = run(capsys, "sweep", "--spec", str(spec_path))
        assert code == 2
        assert "budget" in err

    def test_missing_spec_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "sweep", "--spec", "/nonexistent.json")
        assert code == 3


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "erl.cli", "cutwidth", "--gen", "line:5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_console_script(self):
        if shutil.which("erl") is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(["erl", "cutwidth", "--gen", "cycle:4"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"
