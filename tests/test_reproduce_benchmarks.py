"""Smoke test of `scripts/reproduce_benchmarks.py` on a tiny root at the
default paper-scale network. The script runs each command as a child
process, so the commands' output is read at the file descriptors."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from spdhgr.skeleton import write_synthetic_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_benchmarks.py"


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_synthetic_dataset(root, n_classes=2, train_per_class=3, test_per_class=2,
                            n_frames=40, seed=0)
    return root


def reproduce(monkeypatch, data_root, out, epochs):
    """The script's exit code, run as ``__main__`` in this process."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(data_root), str(out),
                                      "--classes", "2", "--epochs", str(epochs)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return done.value.code


def test_one_epoch_end_to_end(monkeypatch, capfd, data_root, tmp_path):
    assert reproduce(monkeypatch, data_root, tmp_path / "out", 1) == 0
    assert "ACCURACY 1.0000" in capfd.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (report["accuracy"], report["n_train"], report["n_test"]) == (1.0, 6, 4)
    commands = json.loads((tmp_path / "out" / "timings.json").read_text())["commands"]
    assert [(c["command"], c["argv"][0]) for c in commands] == [
        ("train", "train"), ("extract train", "extract"), ("extract test", "extract"),
        ("classify", "classify")]
    for command in commands:
        assert command["exit_code"] == 0
        assert command["wall_s"] > 0 and command["max_rss_kib"] > 0


def test_stops_at_the_first_failing_command(monkeypatch, capfd, tmp_path):
    """A train split whose index names a missing file: train exits 2, the
    run stops there with its code, and the timings file records it."""
    root = tmp_path / "data"
    root.mkdir()
    (root / "train.txt").write_text("sequences/missing.txt 0 0 1\n")
    assert reproduce(monkeypatch, root, tmp_path / "out", 1) == 2
    assert "missing.txt" in capfd.readouterr().err
    commands = json.loads((tmp_path / "out" / "timings.json").read_text())["commands"]
    assert [(c["command"], c["exit_code"]) for c in commands] == [("train", 2)]


@pytest.mark.parametrize("epochs", [0, -1])
def test_epochs_below_1_refused_before_anything_is_written(monkeypatch, capsys, data_root,
                                                           tmp_path, epochs):
    assert reproduce(monkeypatch, data_root, tmp_path / "out", epochs) == 2
    assert capsys.readouterr().err == f"--epochs must be >= 1, got {epochs}\n"
    assert not (tmp_path / "out").exists()
