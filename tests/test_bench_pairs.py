import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(throughput: float, rss: float, correct: bool = True) -> dict:
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {"throughput": {"value": throughput, "unit": "work/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_last_result_reads_the_final_line():
    stdout = ("# tables seed=0\n  throughput 1.0 work/s\n"
              + json.dumps(result(12.5, 50.0)) + "\n")
    assert bench_pairs.last_result(stdout) == result(12.5, 50.0)


def test_summary_medians_and_ratios():
    pairs = [{"first": "parent", "parent": result(10, 50),
              "change": result(12, 50)},
             {"first": "change", "parent": result(20, 40),
              "change": result(10, 60)},
             {"first": "parent", "parent": result(0, 45),
              "change": result(30, 45)}]
    summary = bench_pairs.summarize(pairs, RULES)
    verdicts = summary.pop("verdicts")
    assert summary == {
        "all_correct": True,
        "medians": {"parent": {"throughput": 10, "peak_rss_mb": 45},
                    "change": {"throughput": 12, "peak_rss_mb": 50}},
        "ratios": {"throughput": [1.2, 0.5, None],
                   "peak_rss_mb": [1.0, 1.5, 1.0]}}
    assert set(verdicts) == {"throughput", "peak_rss_mb"}
    pairs[1]["change"] = result(10, 60, correct=False)
    assert bench_pairs.summarize(pairs, RULES)["all_correct"] is False


RULES = bench_pairs.metric_rules()


def test_rules_come_from_the_benchmark_spec():
    assert RULES["throughput"] == {"better": "higher", "bound": 0.25}
    assert RULES["peak_rss_mb"] == {"better": "lower", "bound": 0.25}
    assert RULES["graph.cut_table.n20_s"] == {"better": "lower",
                                              "bound": None}


def test_verdict_reads_quartiles_wins_and_direction():
    """Ten canned pairs: the change wins nine on throughput, by more than
    the parent's interquartile range, and its peak RSS, where lower is
    better, is up 2% with a spread well inside the bound."""
    parent = [(100 + i, 50.0) for i in range(10)]
    change = [(112 + i, 51.0) for i in range(9)] + [(90, 51.0)]
    pairs = [{"first": "parent", "parent": result(*p), "change": result(*c)}
             for p, c in zip(parent, change)]
    verdicts = bench_pairs.summarize(pairs, RULES)["verdicts"]
    up = verdicts["throughput"]
    assert up["parent_quartiles"] == [102.25, 104.5, 106.75]
    assert up["parent_iqr"] == 4.5
    assert up["change_median"] == 115.5
    assert (up["wins"], up["pairs"]) == (9, 10)
    assert up["gain"] == 11.0 > up["parent_iqr"]
    assert up["relative"] == 115.5 / 104.5 - 1
    assert up["resolved"] is True
    rss = verdicts["peak_rss_mb"]
    assert rss["better"] == "lower"
    assert (rss["wins"], rss["gain"]) == (0, -1.0)
    assert rss["relative"] == 51.0 / 50.0 - 1
    assert rss["resolved"] is True


def test_verdict_flags_spread_beyond_the_bound():
    v = bench_pairs.verdict([10.0, 20.0, 30.0], [20.0, 20.0, 20.0],
                            "higher", 0.25)
    assert v["parent_quartiles"] == [15.0, 20.0, 25.0]
    assert v["resolved"] is False
    assert v["wins"] == 1 and v["gain"] == 0
    one = bench_pairs.verdict([4.0], [2.0], "lower", None)
    assert one["parent_quartiles"] == [4.0, 4.0, 4.0]
    assert one["wins"] == 1 and one["gain"] == 2.0
    assert "resolved" not in one
    text = bench_pairs.table("sweep", {"throughput": v})
    assert "unresolved: parent spread exceeds bound 0.25" in text
    assert "1/3" in text and "+0.0%" in text


def test_pairs_alternate_and_file_holds_every_run(tmp_path, monkeypatch):
    calls = []

    def canned(root, workload, seed, seconds, trace=0):
        calls.append((root.name, workload, seed, seconds, trace))
        if trace:
            return {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"graph.cut_table.n20_s": {
                        "value": 2.0 if root.name == "parent" else 1.0,
                        "unit": "s"}}}
        return result(2.0 if root.name == "change" else 1.0, 50.0)

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda root: root.name)
    args = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--label", "t", "--workload", "sweep", "--pairs", "3",
            "--seed", "7", "--seconds", "1.5", "--out", str(tmp_path)]
    assert bench_pairs.main(args) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change"]
    assert {c[1:] for c in calls} == {("sweep", 7, 1.5, 0)}
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["commits"] == {"parent": "parent", "change": "change"}
    assert set(record["machine"]) == {"python", "numpy", "cores", "platform"}
    sweep = record["workloads"]["sweep"]
    assert [p["first"] for p in sweep["runs"]] == ["parent", "change",
                                                  "parent"]
    assert sweep["ratios"]["throughput"] == [2.0, 2.0, 2.0]
    assert sweep["medians"]["change"]["throughput"] == 2.0
    assert sweep["verdicts"]["throughput"]["wins"] == 3
    assert "traced" not in sweep


def test_trace_adds_one_traced_run_per_side(tmp_path, monkeypatch):
    calls = []

    def canned(root, workload, seed, seconds, trace=0):
        calls.append((root.name, trace))
        if trace:
            return {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"graph.cut_table.n20_s": {
                        "value": 2.0 if root.name == "parent" else 1.0,
                        "unit": "s"}}}
        return result(1.0, 50.0)

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda root: root.name)
    args = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--label", "t", "--workload", "tables", "--pairs", "2",
            "--trace", "--out", str(tmp_path)]
    assert bench_pairs.main(args) == 0
    assert calls == [("parent", 0), ("change", 0), ("change", 0),
                     ("parent", 0), ("parent", 1), ("change", 1)]
    tables = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["tables"]
    assert tables["traced"] == {
        "correct": {"parent": True, "change": True},
        "parent": {"graph.cut_table.n20_s": 2.0},
        "change": {"graph.cut_table.n20_s": 1.0},
        "ratios": {"graph.cut_table.n20_s": 0.5}}


def no_run(*args, **kwargs):
    raise AssertionError("a bench run started")


def test_out_directory_made_before_any_run(tmp_path, monkeypatch):
    made = []

    def canned(root, workload, seed, seconds, trace=0):
        made.append(out.is_dir())
        return result(1.0, 50.0)

    out = tmp_path / "a" / "b"
    monkeypatch.setattr(bench_pairs, "run_once", canned)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda root: root.name)
    assert bench_pairs.main([str(tmp_path / "p"), str(tmp_path / "c"),
                             "--label", "t", "--workload", "sweep",
                             "--pairs", "1", "--out", str(out)]) == 0
    assert made == [True, True]
    assert (out / "BENCH_t.json").is_file()


def test_unusable_out_refused_before_any_run(tmp_path, monkeypatch, capsys):
    """An --out that names a file, or lies under one, exits 2 at once."""
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    for out in (taken, taken / "sub"):
        assert bench_pairs.main([str(tmp_path), str(tmp_path), "--label",
                                 "t", "--workload", "sweep", "--out",
                                 str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot use --out {out}: ")
