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
    assert bench_pairs.summarize(pairs) == {
        "all_correct": True,
        "medians": {"parent": {"throughput": 10, "peak_rss_mb": 45},
                    "change": {"throughput": 12, "peak_rss_mb": 50}},
        "ratios": {"throughput": [1.2, 0.5, None],
                   "peak_rss_mb": [1.0, 1.5, 1.0]}}
    pairs[1]["change"] = result(10, 60, correct=False)
    assert bench_pairs.summarize(pairs)["all_correct"] is False


def test_pairs_alternate_and_file_holds_every_run(tmp_path, monkeypatch):
    calls = []

    def canned(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        return result(2.0 if root.name == "change" else 1.0, 50.0)

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda root: root.name)
    args = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--label", "t", "--workload", "sweep", "--pairs", "3",
            "--seed", "7", "--seconds", "1.5", "--out", str(tmp_path)]
    assert bench_pairs.main(args) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change"]
    assert {c[1:] for c in calls} == {("sweep", 7, 1.5)}
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["commits"] == {"parent": "parent", "change": "change"}
    assert set(record["machine"]) == {"python", "numpy", "cores", "platform"}
    sweep = record["workloads"]["sweep"]
    assert [p["first"] for p in sweep["runs"]] == ["parent", "change",
                                                  "parent"]
    assert sweep["ratios"]["throughput"] == [2.0, 2.0, 2.0]
    assert sweep["medians"]["change"]["throughput"] == 2.0
