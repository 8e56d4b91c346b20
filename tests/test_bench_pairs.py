"""Smoke test of `scripts/bench_pairs.py` on perfbench's tiny classify
configuration: this tree against itself, and a copy whose predictions are
wrong."""

import importlib.util
import json
import os
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs",
                                              REPO / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

PLANT = '''

def svm_predict_batch(model, x):  # planted: every row gets the first class
    return np.full(np.atleast_2d(x).shape[0], model.class_ids[0])
'''


def test_tree_against_itself_passes(tmp_path, capsys):
    record = tmp_path / "record.json"
    assert bench_pairs.main([str(REPO), str(REPO), "--workload", "classify", "--pairs", "1",
                             "--smoke", "--record", str(record)]) == 0
    out = capsys.readouterr().out
    assert "== classify: 1 pair(s)" in out
    for name in ("unit_s", "setup_s", "peak_rss_mb", "success_rate"):
        assert f"\n{name} (" in out
    assert "lower in " in out and " of 1" in out
    assert "CPU per wall second: " in out
    runs = json.loads(record.read_text())["workloads"]["classify"]["runs"]
    assert [r["side"] for r in runs] == ["parent", "change"]
    assert all(0.0 < r["cpu_per_wall"] < 2 * os.cpu_count() for r in runs)


def test_wrong_predictions_exit_1(tmp_path, capsys):
    planted = tmp_path / "planted"
    shutil.copytree(REPO / "src", planted / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    with open(planted / "src" / "spdhgr" / "svm.py", "a") as fh:
        fh.write(PLANT)
    # the planted tree runs first, so the run stops after one perfbench run
    assert bench_pairs.main([str(planted), str(REPO), "--workload", "classify", "--pairs", "1",
                             "--smoke"]) == 1
    assert "classify: parent seed 1 not correct" in capsys.readouterr().out


def test_gain_rule_needs_nine_of_ten_and_more_than_the_parent_iqr():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    clear = [p - 1.0 for p in parent]
    assert bench_pairs.verdict(parent, clear, "lower")["gain_holds"]
    eight = clear[:8] + parent[8:]
    assert not bench_pairs.verdict(parent, eight, "lower")["gain_holds"]
    small = [p - 0.2 for p in parent]  # lower in all 10, but inside the parent's IQR
    found = bench_pairs.verdict(parent, small, "lower")
    assert found["lower_in"] == 10 and not found["gain_holds"]
    assert bench_pairs.verdict(clear, parent, "higher")["gain_holds"]
