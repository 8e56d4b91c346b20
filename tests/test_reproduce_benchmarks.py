"""Smoke tests of `scripts/reproduce_benchmarks.py`: a plain run on a tiny
root at the paper-scale network, and ablations at a tiny network. The
script runs each command as a child process, so the commands' output is
read at the file descriptors."""

import json
import os
import runpy
import sys
from pathlib import Path

import pytest

from spdhgr.network import NetworkConfig, save_config
from spdhgr.skeleton import write_synthetic_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_benchmarks.py"
CHAIN = ["train", "extract train", "extract test", "classify"]


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_synthetic_dataset(root, n_classes=2, train_per_class=3, test_per_class=2,
                            n_frames=40, seed=0)
    return root


@pytest.fixture(scope="module")
def paper_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "paper.cfg"
    save_config(path, NetworkConfig(n_classes=2))
    return path


@pytest.fixture(scope="module")
def roomy_config(tmp_path_factory):
    # thirds of 15 frames hold windows up to t0=2
    path = tmp_path_factory.mktemp("cfg") / "roomy.cfg"
    save_config(path, NetworkConfig(n_classes=2, d_out_c=2, d_out_s=8,
                                    n_frames=15, t0=1, n_chunks=2))
    return path


def small_root(root, test_per_class):
    write_synthetic_dataset(root, n_classes=2, train_per_class=2,
                            test_per_class=test_per_class, n_frames=15, seed=5)
    return root


def reproduce(monkeypatch, data_root, out, *args):
    """The script's exit code, run as ``__main__`` in this process."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(data_root), str(out),
                                      *map(str, args)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return done.value.code


def commands_run(run_dir):
    return json.loads((run_dir / "timings.json").read_text())["commands"]


def test_one_epoch_end_to_end(monkeypatch, capfd, data_root, paper_config, tmp_path):
    out = tmp_path / "out"
    assert reproduce(monkeypatch, data_root, out, "--config", paper_config,
                     "--epochs", 1) == 0
    assert "ACCURACY 1.0000" in capfd.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert (report["accuracy"], report["n_train"], report["n_test"]) == (1.0, 6, 4)
    assert (out / "net.cfg").read_bytes() == (out / "config.snapshot").read_bytes()
    assert (out / "epoch_01.ckpt").is_file() and (out / "manifest.json").is_file()
    commands = commands_run(out)
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
    (root / "test.txt").write_text("")
    assert reproduce(monkeypatch, root, tmp_path / "out", "--epochs", 1) == 2
    assert "missing.txt" in capfd.readouterr().err
    assert [(c["command"], c["exit_code"]) for c in commands_run(tmp_path / "out")] == [
        ("train", 2)]


@pytest.mark.parametrize("epochs", [0, -1])
def test_epochs_below_1_refused_before_anything_is_written(monkeypatch, capsys, data_root,
                                                           tmp_path, epochs):
    assert reproduce(monkeypatch, data_root, tmp_path / "out", "--epochs", epochs) == 2
    assert capsys.readouterr().err == f"error: --epochs must be >= 1, got {epochs}\n"
    assert not (tmp_path / "out").exists()


def test_negative_seed_refused_before_anything_is_written(monkeypatch, capsys, data_root,
                                                          tmp_path):
    spawned = []
    monkeypatch.setattr(os, "posix_spawn", lambda *args: spawned.append(args))
    assert reproduce(monkeypatch, data_root, tmp_path / "out", "--seed", -1) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists() and not spawned


@pytest.mark.parametrize("index", ["train.txt", "test.txt"])
def test_missing_index_file_refused_before_anything_runs(monkeypatch, capsys, tmp_path,
                                                          index):
    """Both splits are checked up front, so a root without test.txt costs
    no training run."""
    data, out = small_root(tmp_path / "data", 1), tmp_path / "out"
    (data / index).unlink()
    spawned = []
    monkeypatch.setattr(os, "posix_spawn", lambda *args: spawned.append(args))
    assert reproduce(monkeypatch, data, out, "--epochs", 1) == 2
    assert capsys.readouterr().err == (f"error: no {index} under {data}; convert the dataset "
                                       "first (layout: docs/formats.md)\n")
    assert not out.exists() and not spawned


def test_t0_ablation_table(monkeypatch, capfd, roomy_config, tmp_path):
    data, out = small_root(tmp_path / "data", 1), tmp_path / "ablate"
    assert reproduce(monkeypatch, data, out, "--config", roomy_config, "--knob", "t0",
                     "--values", 1, 2, "--epochs", 1) == 0
    rows = [line for line in capfd.readouterr().out.splitlines()
            if line.startswith("ABLATE ")]
    accuracies = [json.loads((out / f"t0_{t0}" / "report.json").read_text())["accuracy"]
                  for t0 in (1, 2)]
    assert rows == [f"ABLATE t0={t0} acc={acc:.4f}" for t0, acc in zip((1, 2), accuracies)]
    assert json.loads((out / "ablation.json").read_text()) == {"knob": "t0", "rows": [
        {"value": "1", "accuracy": accuracies[0]}, {"value": "2", "accuracy": accuracies[1]}]}
    for t0 in (1, 2):
        run_dir = out / f"t0_{t0}"
        assert (run_dir / "config.snapshot").read_text() == \
            roomy_config.read_text().replace("t0=1", f"t0={t0}")
        assert [(c["command"], c["exit_code"]) for c in commands_run(run_dir)] == [
            (name, 0) for name in CHAIN]


@pytest.mark.parametrize("args, message", [
    (("--knob", "N_S", "--values", 1), "error: override: n_chunks must be >= 2, got 1"),
    (("--knob", "t0", "--values", 1, 0), "error: override: t0 must be >= 1, got 0"),
    (("--knob", "t0", "--values", 1, 2, 1), "error: --values repeats 1;"),
    (("--knob", "t0", "--values", 1, "01"), "error: --values repeats 1 (as 01);"),
    (("--knob", "epsilon", "--values", 1), "argument --knob: invalid choice: 'epsilon'"),
], ids=["N_S-1", "t0-0", "repeated-value", "same-value-spelled-twice", "unknown-knob"])
def test_ablation_refused_before_anything_is_written(monkeypatch, capsys, data_root,
                                                     roomy_config, tmp_path, args, message):
    """N_S is the chunk count, named as in the paper's tables."""
    out = tmp_path / "ablate"
    assert reproduce(monkeypatch, data_root, out, "--config", roomy_config, *args,
                     "--epochs", 1) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--config", "net.cfg", "--knob", "t0"), "--knob and --values go together"),
    (("--values", 1), "--knob and --values go together"),
    (("--knob", "t0", "--values", 1), "--knob needs --config"),
])
def test_knob_values_and_config_go_together(monkeypatch, capsys, data_root, tmp_path,
                                             args, message):
    assert reproduce(monkeypatch, data_root, tmp_path / "out", *args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_test_split_writes_null_accuracy(monkeypatch, capfd, roomy_config, tmp_path):
    data, out = small_root(tmp_path / "data", 0), tmp_path / "ablate"
    assert reproduce(monkeypatch, data, out, "--config", roomy_config, "--knob", "t0",
                     "--values", 1, "--epochs", 1) == 0
    assert "ABLATE t0=1 acc=nan" in capfd.readouterr().out
    assert json.loads((out / "ablation.json").read_text())["rows"] == [
        {"value": "1", "accuracy": None}]
    assert json.loads((out / "t0_1" / "report.json").read_text())["accuracy"] is None


def test_one_frame_test_sequence_exits_2_naming_it(monkeypatch, capfd, roomy_config,
                                                   tmp_path):
    """The test split is first read by `extract test`, so the value's run
    has trained by the time the file is refused."""
    data, out = small_root(tmp_path / "data", 1), tmp_path / "ablate"
    seq = data / "sequences" / "test_c1_00.txt"
    seq.write_bytes(seq.read_bytes().splitlines(keepends=True)[0])
    assert reproduce(monkeypatch, data, out, "--config", roomy_config, "--knob", "t0",
                     "--values", 1, "--epochs", 1) == 2
    err = capfd.readouterr().err
    assert "test_c1_00.txt: cannot resample a sequence with fewer than 2 frames" in err
    assert "Traceback" not in err
    assert [(c["command"], c["exit_code"]) for c in commands_run(out / "t0_1")] == [
        ("train", 0), ("extract train", 0), ("extract test", 2)]
    assert not (out / "ablation.json").exists()


@pytest.mark.parametrize("knob", [(), ("--knob", "t0", "--values", 1)],
                         ids=["plain", "ablation"])
@pytest.mark.parametrize("under", [False, True])
def test_output_directory_blocked_by_a_file_exits_2(monkeypatch, capsys, data_root,
                                                    roomy_config, tmp_path, knob, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "run" if under else blocker
    assert reproduce(monkeypatch, data_root, out, "--config", roomy_config, *knob,
                     "--epochs", 1) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"
