import hashlib
import json
import math
import shutil
import subprocess
import sys
import tracemalloc

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

    @pytest.mark.parametrize("bad", [(1, 1), (1, -1, 1), (1, 1.0, 1)])
    def test_bad_weights_exit_2(self, capsys, monkeypatch, tmp_path, bad):
        """A policy's bad weights are its contract broken, an ``ErlError``
        like any allocation it breaks: exit 2 with one ``error:`` line and
        no output written."""
        import erl.epidemic
        monkeypatch.setattr(erl.epidemic.DegreeProportionalPolicy, "weights",
                            lambda self, graph: bad)
        out = tmp_path / "r.json"
        code, stdout, err = run(capsys, "simulate", "--gen", "line:3",
                                "--budget", "2", "--policy",
                                "degree_proportional", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(
            "error: policy 'degree_proportional' violated: weight")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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

    def test_events_csv_refused_with_replications(self, tmp_path, capsys):
        """Only a single run has one event log: asked for one alongside
        several replications, the command writes nothing and exits 2."""
        out, csv = tmp_path / "res.json", tmp_path / "ev.csv"
        code, stdout, err = run(capsys, "simulate", "--gen", "cycle:5",
                                "--budget", "6", "--replications", "3",
                                "--events-csv", str(csv), "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and "--events-csv" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("replications", ["1", "4"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_event_cap_below_one_refused(self, tmp_path, capsys, cap,
                                         replications):
        out = tmp_path / "res.json"
        code, stdout, err = run(capsys, "simulate", "--gen", "line:3",
                                "--budget", "1", "--max-events", cap,
                                "--replications", replications,
                                "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and "max_events" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

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
        ("simulate", "--gen", "line:3", "--seed", "-1", "--budget", "1"),
        ("verify", "--gen", "line:3", "--seed", "-1", "--trajectories", "1"),
        ("cutwidth", "--gen", "random_regular:6,3", "--seed", "-1"),
        ("simulate", "--gen", "line:3", "--budget", "1" + "0" * 400),
        ("simulate", "--gen", "line:3", "--budget", "1" + "0" * 400,
         "--replications", "3"),
    ], ids=["budget", "initial", "line_arity", "grid_arity", "size_cap",
            "negative_samples", "negative_trajectories", "nan_rate",
            "infinite_rate", "nan_horizon", "negative_replications",
            "negative_seed_simulate", "negative_seed_verify",
            "negative_seed_generate", "huge_budget", "huge_budget_replicated"])
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


class TestBagIds:
    """``--witness`` and ``--initial`` refuse an id outside the graph before
    any mask is built, naming the id."""

    HUGE = "99999999999999999999"

    @pytest.mark.parametrize("argv,node", [
        (("resistance", "--gen", "line:5", "--witness", HUGE), HUGE),
        (("simulate", "--gen", "line:5", "--budget", "2", "--initial", HUGE),
         HUGE),
        (("resistance", "--gen", "line:5", "--witness", "4000000000"),
         "4000000000"),
        (("resistance", "--gen", "line:5", "--witness", "0x20"), "5"),
        (("simulate", "--gen", "line:5", "--budget", "2", "--initial",
          "0x" + "f" * 1000), "3999"),
        (("resistance", "--gen", "line:5", "--witness", "1,-2"), "-2"),
    ], ids=["huge_witness", "huge_initial", "witness_4e9", "mask_one_wide",
            "mask_4000_bits", "negative"])
    def test_out_of_range_exit_2_one_line(self, capsys, argv, node):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"node {node} is not in 0..4" in err
        # 1 << 4000000000 alone would take 500 MB
        assert peak < 1 << 20

    def test_highest_node_accepted(self, capsys):
        for spec in ("4", "0x10", "0,4"):
            code, out, _ = run(capsys, "resistance", "--gen", "line:5",
                               "--witness", spec)
            assert code == 0
            assert 4 in json.loads(out)["bag"]


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

    @pytest.mark.parametrize("samples", ["10000000000000", "10000001"])
    def test_samples_above_cap_exit_2_one_line(self, capsys, samples):
        code, out, err = run(capsys, "verify", "--gen", "line:6", "--mode",
                             "sampled", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"got {samples}" in err

    @pytest.mark.parametrize("source", [["--gen", "line:1"],
                                        ["--gen", "star:0"], ["--graph"]])
    def test_degree_zero_graph_audited(self, source, capsys, tmp_path):
        # degree bound 0: every cut and gamma is 0, and the halving window
        # is vacuous
        if source == ["--graph"]:
            path = tmp_path / "g.json"
            path.write_text('{"n": 1, "edges": []}')
            source = ["--graph", str(path)]
        code, stdout, err = run(capsys, "verify", *source,
                                "--trajectories", "2")
        assert (code, stdout, err) == (0, "ok: 0 violations\n", "")


# SHA-256 of the --out report (not its manifest) of each ``erl verify`` run,
# with its exit code, recorded while the command replayed every simulated
# log once per audit.
VERIFY_DIGESTS = {
    "--gen random_regular:12,3 --seed 4 --mode sampled --samples 500 "
    "--trajectories 12": (
        0, "a9c585ea1fbc5f67753ca1d90d3b363fc5315f59c0f6b278ea8447e9c588e27d"),
    "--gen random_regular:12,3 --seed 4 --mode sampled --samples 500 "
    "--trajectories 12 --inject-fault": (
        1, "db7f0c7de5d95da471472305bb4267b878d4f2b574be2c3b014eef6f0e9d3c17"),
    "--gen line:9 --trajectories 25 --seed 6": (
        0, "635a46aa8cab8c09df2781e27789ac8a9748c11c578247bb3bfcf3a40ac66852"),
    "--gen complete:10 --trajectories 6 --seed 2 --budget 5 --inject-fault": (
        1, "62d3635ec7810483da23e7dc9895f55fc5dc17a1625dbb0b5368c9ff81a7e1f7"),
    "--gen hypercube:4 --trajectories 8 --seed 1 --policy uniform --budget 3": (
        0, "609ef1649484595db3fff15890e5d24dcec461d7f9040cadaefaf8c816fa56d7"),
    # every trajectory audit fails against the faulty table
    "--gen line:6 --trajectories 10 --seed 3 --inject-fault": (
        1, "bb1450508b929847845e4374e6b3661b45e713528216db6d7247983a0f27157c"),
}


class TestVerifyGolden:
    @pytest.mark.parametrize("args", sorted(VERIFY_DIGESTS))
    def test_report_digest(self, args, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", *args.split(), "--out", str(out))
        assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == \
            VERIFY_DIGESTS[args]


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

    # json writes and reads NaN and Infinity; a float of integral value is
    # an integer to JSON Schema, but not to the spec check
    @pytest.mark.parametrize("field,value,where", [
        ("sizes", [4.0], "sizes/0"), ("replications", 3.0, "replications"),
        ("seed", 1.0, "seed"), ("seed", -1, "seed"),
        ("max_events", 5.0, "max_events"), ("graph_seed", 2.0, "graph_seed"),
        ("degree", 2.0, "degree"), ("budget", math.nan, "budget"),
        ("budget", math.inf, "budget"),
        ("budget", {"per_node": math.nan}, "budget/per_node"),
        ("budget", {"per_node": math.inf}, "budget/per_node"),
        pytest.param("budget", 10**400, "budget", id="budget-huge-budget"),
        pytest.param("budget", {"per_node": 10**400}, "budget/per_node",
                     id="budget-huge_per_node-budget/per_node"),
        ("horizon", -1, "horizon"), ("horizon", 0, "horizon"),
        ("horizon", math.nan, "horizon")])
    def test_malformed_number_refused_before_any_point(self, field, value,
                                                       where, tmp_path,
                                                       capsys):
        spec = dict(self.SPEC, family="random_regular", degree=2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(spec, **{field: value})))
        out = tmp_path / "a.csv"
        code, stdout, err = run(capsys, "sweep", "--spec", str(spec_path),
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: sweep spec invalid at {where}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [spec_path]

    def test_missing_spec_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "sweep", "--spec", "/nonexistent.json")
        assert code == 3

    def test_malformed_erl_threads_refused_by_sweep(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("ERL_THREADS", "two")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        code, stdout, err = run(capsys, "sweep", "--spec", str(spec_path))
        assert code == 2
        assert "--threads" in err and "'two'" in err
        assert stdout == ""

    @pytest.mark.parametrize("argv,env", [(["--threads", "-4"], None),
                                          ([], "0")])
    def test_threads_below_one_refused(self, tmp_path, capsys, monkeypatch,
                                       argv, env):
        if env is not None:
            monkeypatch.setenv("ERL_THREADS", env)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out = tmp_path / "a.csv"
        code, stdout, err = run(capsys, "sweep", "--spec", str(spec_path),
                                "--out", str(out), *argv)
        assert code == 2
        assert err.startswith("error: ") and "threads" in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_malformed_erl_threads_ignored_elsewhere(self, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("ERL_THREADS", "two")
        code, stdout, _ = run(capsys, "cutwidth", "--gen", "line:4")
        assert (code, stdout) == (0, "1\n")

    def test_erl_threads_sets_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ERL_THREADS", "2")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out = tmp_path / "a.csv"
        assert run(capsys, "sweep", "--spec", str(spec_path),
                   "--out", str(out))[0] == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["threads"] == 2


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
