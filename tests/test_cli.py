import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spdhgr
from spdhgr import cli, gradcheck, network, svm, training
from spdhgr.cli import main
from spdhgr.network import (PARAM_TENSORS, NetworkConfig, extract_features, init_params,
                            save_config, save_params)
from spdhgr.skeleton import SkeletonSequence, write_synthetic_dataset
from spdhgr.optim import load_checkpoint, save_checkpoint
from spdhgr.svm import load_features, save_features
from spdhgr.training import train_network

TINY = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=8, n_frames=12, t0=1, n_chunks=2)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    write_synthetic_dataset(data, n_classes=2, train_per_class=3, test_per_class=2,
                            n_frames=15, seed=5)
    config = root / "net.cfg"
    save_config(config, TINY)
    return root, data, config


def run(*argv):
    return main([str(a) for a in argv])


def python(*args, env=None):
    """Run this interpreter on ``args`` with the package's source first on
    the path; return its stdout."""
    src = str(Path(spdhgr.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity, which JSON does not have."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


class TestTrain:
    def test_train_writes_manifest_and_checkpoints(self, workspace, capsys):
        root, data, config = workspace
        out = root / "run1"
        code = run("train", "--config", config, "--data-root", data, "--out", out,
                   "--epochs", 2, "--seed", 0)
        assert code == 0
        captured = capsys.readouterr().out
        assert "EPOCH 1 loss=" in captured and "FINAL" in captured
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["epochs"]) == 2
        assert (manifest["batch_size"], manifest["learning_rate"]) == (30, 0.01)
        assert (out / "epoch_02.ckpt").is_file()
        assert (out / "config.snapshot").is_file()

    def test_missing_data_root(self, workspace, capsys):
        root, _, config = workspace
        code = run("train", "--config", config, "--data-root", root / "absent",
                   "--out", root / "x")
        assert code == 2
        assert "absent" in capsys.readouterr().err

    def test_deterministic_rerun_identical_losses(self, workspace):
        root, data, config = workspace
        manifests = []
        for name in ("detA", "detB"):
            out = root / name
            assert run("train", "--config", config, "--data-root", data, "--out", out,
                       "--epochs", 2, "--seed", 3) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        losses = [[e["mean_loss"] for e in m["epochs"]] for m in manifests]
        assert losses[0] == losses[1]

    def test_bad_config_value(self, workspace, tmp_path):
        root, data, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_classes=2\nt0=0\n")
        assert run("train", "--config", bad, "--data-root", data,
                   "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("fault", ["missing_sequence", "index_not_utf8",
                                       "sequence_not_utf8", "one_frame"])
    def test_malformed_dataset_exits_2(self, workspace, tmp_path, capsys, fault):
        _, _, config = workspace
        data = tmp_path / "data"
        write_synthetic_dataset(data, n_classes=2, train_per_class=2, n_frames=15, seed=5)
        index, seq = data / "train.txt", data / "sequences" / "train_c1_00.txt"
        if fault == "missing_sequence":
            seq.unlink()
            want = f"missing sequence file: {seq}"
        elif fault == "one_frame":
            seq.write_bytes(seq.read_bytes().splitlines(keepends=True)[0])
            want = "sequences/train_c1_00.txt: cannot resample a sequence with fewer than 2 frames"
        else:
            path = index if fault == "index_not_utf8" else seq
            lines = path.read_bytes().splitlines(keepends=True)
            lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
            path.write_bytes(b"".join(lines))
            want = f"{path}:3: not UTF-8 text (byte 0xff)"
        code = run("train", "--config", config, "--data-root", data,
                   "--out", tmp_path / "run", "--epochs", 1)
        err = capsys.readouterr().err
        assert code == 2
        assert want in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_non_finite_loss_names_the_sequence_file(self, workspace, tmp_path, monkeypatch,
                                                     capsys):
        """A NaN loss exits 1 and names the file of the sequence it came
        from, and no other."""
        _, data, config = workspace
        bad = "sequences/train_c1_01.txt"
        current = []
        forward, cross_entropy = training.forward, training.cross_entropy

        def tracked_forward(seq, *args):
            current.append(seq.source)
            return forward(seq, *args)

        monkeypatch.setattr(training, "forward", tracked_forward)
        monkeypatch.setattr(training, "cross_entropy", lambda probs, label: (
            float("nan") if current[-1] == bad else cross_entropy(probs, label)))
        code = run("train", "--config", config, "--data-root", data,
                   "--out", tmp_path / "run", "--epochs", 1)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"numerical failure: {bad}, epoch 1: non-finite loss in a batch of 6\n"
        assert bad in current and not (tmp_path / "run" / "epoch_01.ckpt").exists()

    def test_config_snapshot_is_written_before_the_first_epoch(self, workspace, tmp_path,
                                                              monkeypatch):
        """An interrupted run's checkpoints can be extracted with its snapshot."""
        _, data, config = workspace
        out = tmp_path / "run"
        found = []

        def log(line):
            if line.startswith("EPOCH 1 "):
                found.append((out / "config.snapshot").read_bytes())

        monkeypatch.setattr(cli, "print", log, raising=False)
        assert run("train", "--config", config, "--data-root", data, "--out", out,
                   "--epochs", 2) == 0
        assert found == [config.read_bytes()] == [(out / "config.snapshot").read_bytes()]

    def test_sequences_reach_the_network_at_their_file_frame_counts(self, workspace, trained,
                                                                    tmp_path, monkeypatch):
        """train and extract hand the loaded 15-frame sequences on; the
        network resamples each one to the config's 12 frames."""
        _, data, config = workspace
        frames = {}

        def spy(command, fn):
            def wrapped(sequence_or_list, *args, **kwargs):
                seqs = (sequence_or_list if isinstance(sequence_or_list, list)
                        else [sequence_or_list])
                frames.setdefault(command, set()).update(s.n_frames for s in seqs)
                return fn(sequence_or_list, *args, **kwargs)
            return wrapped

        for command, argv in (
            ("train", ("--config", config, "--out", tmp_path / "run")),
            ("extract", ("--checkpoint", trained, "--config", config,
                         "--out", tmp_path / "x.features")),
        ):
            monkeypatch.setattr(training, "train_network", spy(command, train_network))
            monkeypatch.setattr(network, "extract_features", spy(command, extract_features))
            extra = () if command == "extract" else ("--epochs", 1)
            assert run(command, "--data-root", data, *argv, *extra) == 0
        assert frames == {"train": {15}, "extract": {15}}

    def test_key_set_twice_exits_2(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_classes=2\nt0=1\nd_out_s=8\nt0=2\n")
        assert run("train", "--config", bad, "--data-root", data,
                   "--out", tmp_path / "o", "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert f"{bad}:4: 't0' set again, first at {bad}:2" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_unparsable_config_value_exits_2(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_classes=2\nt0=abc\n")
        assert run("train", "--config", bad, "--data-root", data,
                   "--out", tmp_path / "o", "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: t0: invalid literal for int() with base 10: 'abc'" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", ["missing", "not_utf8"])
    def test_unreadable_config_exits_2(self, workspace, tmp_path, capsys, fault):
        _, data, _ = workspace
        bad = tmp_path / "bad.cfg"
        if fault == "missing":
            want = f"config file does not exist: {bad}"
        else:
            bad.write_bytes(b"n_classes=2\n# caf\xff\n")
            want = f"{bad}:2: not UTF-8 text (byte 0xff)"
        assert run("train", "--config", bad, "--data-root", data,
                   "--out", tmp_path / "o", "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert want in err and "Traceback" not in err

    def test_old_config_with_a_ridge_line_exits_2(self, workspace, tmp_path, capsys):
        """The covariance ridge is a constant of the branch layers; a config
        file saved when it was a field names it as an unknown key."""
        _, data, config = workspace
        old = tmp_path / "old.cfg"
        old.write_text(config.read_text() + "ridge=1e-06\n")
        line = len(old.read_text().splitlines())
        assert run("train", "--config", old, "--data-root", data,
                   "--out", tmp_path / "o", "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert f"{old}:{line}: unknown config key 'ridge'" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ("train",))
    @pytest.mark.parametrize("under", (False, True))
    def test_output_directory_blocked_by_a_file_exits_2(self, workspace, tmp_path, capsys,
                                                        command, under):
        _, data, config = workspace
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "run" if under else blocker
        assert run(command, "--config", config, "--data-root", data, "--out", out,
                   "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(blocker) in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"


@pytest.fixture(scope="module")
def trained(workspace):
    root, data, config = workspace
    out = root / "trained"
    assert run("train", "--config", config, "--data-root", data, "--out", out,
               "--epochs", 1, "--seed", 0) == 0
    return out / "epoch_01.ckpt"


class TestExtract:

    def test_feature_file_shape(self, workspace, trained, capsys):
        root, data, config = workspace
        out = root / "train.features"
        assert run("extract", "--checkpoint", trained, "--config", config,
                   "--data-root", data, "--split", "train", "--out", out) == 0
        assert f"wrote 6 feature rows to {out}" in capsys.readouterr().out
        labels, feats = load_features(out)
        assert labels.shape == (6,)
        assert feats.shape == (6, TINY.feature_dim)
        raw = load_checkpoint(out)
        assert {name: t.shape for name, t in raw.items()} == {
            "labels": (6,), "features": (6, TINY.feature_dim)}

    def test_rerun_bitwise_identical(self, workspace, trained):
        root, data, config = workspace
        out1, out2 = root / "f1.features", root / "f2.features"
        for out in (out1, out2):
            assert run("extract", "--checkpoint", trained, "--config", config,
                       "--data-root", data, "--split", "test", "--out", out) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_split(self, workspace, trained, tmp_path):
        root, data, config = workspace
        empty_data = tmp_path / "empty"
        write_synthetic_dataset(empty_data, n_classes=2, train_per_class=1,
                                test_per_class=0, n_frames=15)
        out = tmp_path / "empty.features"
        assert run("extract", "--checkpoint", trained, "--config", config,
                   "--data-root", empty_data, "--split", "test", "--out", out) == 0
        assert out.is_file()
        labels, feats = load_features(out)
        assert labels.shape == (0,)
        assert feats.shape == (0, TINY.feature_dim)

    @staticmethod
    def _stub_rows(monkeypatch, dim):
        """Make `network.extract_features` return a new row of ``dim`` values
        from ``default_rng(0)`` per call, keeping none of them."""
        rng = np.random.default_rng(0)
        monkeypatch.setattr(network, "extract_features",
                            lambda seq, params, config: rng.standard_normal(dim))

    @pytest.mark.parametrize("n", [0, 7])
    def test_write_features_bytes_equal_the_stacked_rows(self, tmp_path, monkeypatch, n):
        self._stub_rows(monkeypatch, TINY.feature_dim)
        seqs = [SkeletonSequence(frames=np.zeros((2, 20, 3)), label=k % 3) for k in range(n)]
        cli._write_features(tmp_path / "a.features", seqs, None, TINY)
        rng = np.random.default_rng(0)
        rows = [rng.standard_normal(TINY.feature_dim) for _ in range(n)]
        save_features(tmp_path / "b.features", [s.label for s in seqs],
                      np.stack(rows) if rows else np.zeros((0, TINY.feature_dim)))
        assert (tmp_path / "a.features").read_bytes() == (tmp_path / "b.features").read_bytes()

    def test_write_features_peak_is_the_matrix_and_a_few_rows(self, tmp_path, monkeypatch):
        """Rows go straight into one (n, feature_dim) matrix; a list of rows
        and its `np.stack` copy took twice the matrix."""
        config = NetworkConfig(n_classes=14)
        n, row_bytes = 60, config.feature_dim * 8
        self._stub_rows(monkeypatch, config.feature_dim)
        seqs = [SkeletonSequence(frames=np.zeros((2, 20, 3)), label=0)] * n
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cli._write_features(tmp_path / "x.features", seqs, None, config)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= (n + 4) * row_bytes, f"peak {peak / row_bytes:.1f} rows"

    def test_checkpoint_config_mismatch(self, workspace, trained, tmp_path):
        root, data, _ = workspace
        other = tmp_path / "other.cfg"
        save_config(other, NetworkConfig(n_classes=2, d_out_c=3, d_out_s=8,
                                         n_frames=12, n_chunks=2))
        assert run("extract", "--checkpoint", trained, "--config", other,
                   "--data-root", data, "--split", "train",
                   "--out", tmp_path / "x.features") == 2

    def test_variant_and_grid_mode_come_from_the_config_file(self, workspace, tmp_path,
                                                             capsys, monkeypatch):
        root, data, config = workspace
        ts_config = tmp_path / "ts.cfg"
        save_config(ts_config, dataclasses.replace(TINY, variant="ts_only",
                                                   grid_mode="physical"))
        monkeypatch.setenv("SPDHGR_VARIANT", "st_only")  # sets nothing
        run_dir = tmp_path / "ts_physical"
        assert run("train", "--config", ts_config, "--data-root", data, "--out", run_dir,
                   "--epochs", 1) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["variant"] == "ts_only"
        assert manifest["config"]["grid_mode"] == "physical"
        ckpt = run_dir / "epoch_01.ckpt"
        out = tmp_path / "ts.features"
        assert run("extract", "--checkpoint", ckpt, "--config", run_dir / "config.snapshot",
                   "--data-root", data, "--split", "test", "--out", out) == 0
        assert load_features(out)[1].shape == (4, TINY.feature_dim)
        capsys.readouterr()
        # the config file's st_ts weight is twice as wide as the checkpoint's
        assert run("extract", "--checkpoint", ckpt, "--config", config,
                   "--data-root", data, "--split", "test",
                   "--out", tmp_path / "st_ts.features") == 2
        err = capsys.readouterr().err
        assert "tensor 'spdagg_w_hat' has shape (8, 210), config expects (8, 420)" in err
        assert not (tmp_path / "st_ts.features").exists()

    def test_one_frame_sequence_exits_2_naming_it_once(self, workspace, trained, tmp_path,
                                                       capsys):
        _, _, config = workspace
        data = tmp_path / "data"
        write_synthetic_dataset(data, n_classes=2, train_per_class=2, n_frames=15, seed=5)
        seq = data / "sequences" / "train_c0_01.txt"
        seq.write_bytes(seq.read_bytes().splitlines(keepends=True)[0])
        out = tmp_path / "x.features"
        assert run("extract", "--checkpoint", trained, "--config", config,
                   "--data-root", data, "--split", "train", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == ("error: sequences/train_c0_01.txt: cannot resample a sequence "
                       "with fewer than 2 frames\n")
        assert not out.exists()

    def test_output_in_missing_directory(self, workspace, trained, tmp_path, capsys):
        root, data, config = workspace
        out = tmp_path / "nodir" / "x.features"
        assert run("extract", "--checkpoint", trained, "--config", config,
                   "--data-root", data, "--split", "test", "--out", out) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []


GAUSSIAN = "window Gaussian has non-finite entries"
CONV = "lattice convolution has non-finite entries"
RESAMPLE = f"resampling 2 frames to {TINY.n_frames} forms non-finite coordinates"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, epochs, where, scale, failure", [
    ("train", 1, "sequences/train_c0_01.txt, epoch 1: ", 1e160, GAUSSIAN),
    ("train", 0, "sequences/train_c0_01.txt, final evaluation: ", 1e160, GAUSSIAN),
    ("extract", None, "sequences/train_c0_01.txt: ", 1e160, GAUSSIAN),
    ("train", 1, "sequences/train_c0_01.txt, epoch 1: ", 1e308, CONV),
    ("extract", None, "sequences/train_c0_01.txt: ", 1e308, CONV),
    ("train", 1, "sequences/train_c0_01.txt, epoch 1: ", None, RESAMPLE),
    ("extract", None, "sequences/train_c0_01.txt: ", None, RESAMPLE),
], ids=["train", "train_epochs_0", "extract", "train_conv", "extract_conv",
        "train_resample", "extract_resample"])
def test_failure_in_a_pass_names_the_sequence_file(workspace, trained, tmp_path, capsys,
                                                   command, epochs, where, scale, failure):
    """A sequence whose values are finite but overflow inside the network
    fails the run with its own file named once. At 1e308 the file has the
    config's frame count, so no resample runs before the convolution;
    without a scale it is two frames, 1.5e308 then -1.5e308, whose
    difference overflows in the resample."""
    _, _, config = workspace
    data = tmp_path / "data"
    write_synthetic_dataset(data, n_classes=2, train_per_class=2, seed=5,
                            n_frames=TINY.n_frames if scale == 1e308 else 15)
    seq = data / "sequences" / "train_c0_01.txt"
    if scale is None:
        n_values = len(seq.read_text().split("\n", 1)[0].split())
        seq.write_text("".join(" ".join([repr(v)] * n_values) + "\n" for v in (1.5e308, -1.5e308)))
    else:
        seq.write_text("".join(" ".join(repr(float(v) * scale) for v in line.split()) + "\n"
                               for line in seq.read_text().splitlines()))
    out = tmp_path / "out"
    if command == "train":
        argv = ("--config", config, "--out", out, "--epochs", epochs)
    else:
        argv = ("--checkpoint", trained, "--config", config, "--out", out)
    assert run(command, "--data-root", data, *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {where}{failure}" in err
    assert err.count("train_c0_01.txt") == 1
    assert "Traceback" not in err


def test_singular_aggregate_exits_1_naming_the_sequence_file(tmp_path, capsys):
    """A checkpoint whose aggregation weight has a zero row makes every Y
    singular: extract stops at the first sequence with exit 1 and one
    `numerical failure` line that names its file once (no traceback), and
    writes nothing."""
    data = tmp_path / "data"
    write_synthetic_dataset(data, n_classes=2, train_per_class=2, test_per_class=1,
                            n_frames=40, seed=5)
    config = tmp_path / "net.cfg"
    save_config(config, NetworkConfig(n_classes=2, d_out_c=3, d_out_s=8, n_frames=40,
                                      n_chunks=4))
    run_dir = tmp_path / "run"
    assert run("train", "--config", config, "--data-root", data, "--out", run_dir,
               "--epochs", 1, "--seed", 0) == 0
    checkpoint = run_dir / "epoch_01.ckpt"
    tensors = load_checkpoint(checkpoint)
    tensors["spdagg_w_hat"][1] = 0.0
    save_checkpoint(checkpoint, tensors)
    capsys.readouterr()
    out = tmp_path / "train.features"
    assert run("extract", "--checkpoint", checkpoint, "--config", config,
               "--data-root", data, "--split", "train", "--out", out) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: sequences/train_c0_00\.txt: spd_agg_forward "
                        r"output: min eigenvalue \S+ <= floor \S+\n", err), err
    assert not out.exists()


def test_eigh_that_does_not_converge_exits_1_naming_the_sequence_file(
        workspace, trained, tmp_path, capsys, monkeypatch):
    """An `eigh` that does not converge, at a pass's first decomposition:
    extract stops at the first sequence with exit 1 and one `numerical
    failure` line naming its file (no traceback), and writes nothing."""
    _, data, config = workspace

    def no_convergence(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    out = tmp_path / "train.features"
    assert run("extract", "--checkpoint", trained, "--config", config,
               "--data-root", data, "--split", "train", "--out", out) == 1
    assert capsys.readouterr().err == (
        "numerical failure: sequences/train_c0_00.txt: eigendecomposition did not "
        "converge: Eigenvalues did not converge\n")
    assert not out.exists()


class TestClassify:
    def test_separable_self_classification(self, tmp_path, capsys, rng):
        feats = np.vstack([np.ones((3, 4)), -np.ones((3, 4))])
        labels = np.array([0, 0, 0, 1, 1, 1])
        path = tmp_path / "f.features"
        save_features(path, labels, feats)
        report = tmp_path / "report.json"
        assert run("classify", "--train-features", path, "--test-features", path,
                   "--out", report) == 0
        out = capsys.readouterr().out
        assert out == ("ACCURACY 1.0000\n"
                       "CONFUSION rows=truth cols=predicted classes=0,1\n"
                       "3 0\n0 3\n")
        payload = json.loads(report.read_text())
        assert payload["accuracy"] == 1.0
        assert np.trace(np.array(payload["confusion"])) == 6
        assert len(payload["svm"]["passes"]) == 2
        assert all(p >= 1 for p in payload["svm"]["passes"])
        assert all(0.0 <= v <= 0.1 for v in payload["svm"]["violation"])
        assert (payload["c"], payload["tol"]) == (1.0, 0.1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.features", "report.json"]

    def test_report_is_the_same_at_any_blas_thread_count(self, tmp_path):
        """135 rows of 45 classes: the fit's products give other bits on two
        OpenBLAS threads than on one unless the fit holds one thread."""
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(45), 3)
        feats = rng.standard_normal((45, 40))[labels] + 2.0 * rng.standard_normal((135, 40))
        save_features(tmp_path / "f.features", labels, feats)
        reports = []
        for threads in ("1", "2"):
            report = tmp_path / f"report{threads}.json"
            python("-m", "spdhgr", "classify", "--train-features", tmp_path / "f.features",
                   "--test-features", tmp_path / "f.features", "--out", report,
                   env={"OPENBLAS_NUM_THREADS": threads})
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_report_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "f.features"
        save_features(path, [0, 1], np.eye(2))
        report = tmp_path / "nodir" / "r.json"
        assert run("classify", "--train-features", path, "--test-features", path,
                   "--out", report) == 2
        assert f"cannot write {report}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["f.features"]

    def test_blobs_heldout(self, tmp_path, rng):
        centers = rng.standard_normal((3, 5)) * 10
        train = np.vstack([c + rng.standard_normal((10, 5)) for c in centers])
        test = np.vstack([c + rng.standard_normal((6, 5)) for c in centers])
        save_features(tmp_path / "tr.features", np.repeat(range(3), 10), train)
        save_features(tmp_path / "te.features", np.repeat(range(3), 6), test)
        report = tmp_path / "r.json"
        assert run("classify", "--train-features", tmp_path / "tr.features",
                   "--test-features", tmp_path / "te.features", "--out", report) == 0
        assert json.loads(report.read_text())["accuracy"] >= 0.95

    def test_empty_test_file_writes_null_accuracy(self, tmp_path, capsys):
        save_features(tmp_path / "train.features", [0, 1], np.eye(2))
        save_features(tmp_path / "test.features", [], np.zeros((0, 2)))
        report = tmp_path / "report.json"
        assert run("classify", "--train-features", tmp_path / "train.features",
                   "--test-features", tmp_path / "test.features", "--out", report) == 0
        assert capsys.readouterr().out.startswith("ACCURACY nan\n")
        payload = strict_json(report)
        assert payload["accuracy"] is None and payload["n_test"] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad, message", [
        ("test", "features contain non-finite values"),
        ("train", "features overflow: their Gram matrix is not finite"),
    ])
    def test_non_finite_or_overflowing_features_exit_2_naming_the_file(
            self, tmp_path, capsys, monkeypatch, bad, message):
        """A NaN column in the test file, or finite train features whose
        squares overflow: one error line naming the file, no report, and
        no dual pass on a train file the fit refuses."""
        labels = np.repeat([0, 1], 3)
        feats = np.random.default_rng(0).standard_normal((6, 4)) + 4.0 * labels[:, None]
        train, test = feats.copy(), feats.copy()
        if bad == "train":
            train *= 1e160
        else:
            test[:, 1] = np.nan
        files = {split: tmp_path / f"{split}.features" for split in ("train", "test")}
        save_features(files["train"], labels, train)
        save_features(files["test"], labels, test)
        solves, dual_cd = [], svm._dual_cd

        def counted(*args):
            solves.append(args)
            return dual_cd(*args)

        monkeypatch.setattr(svm, "_dual_cd", counted)
        report = tmp_path / "report.json"
        assert run("classify", "--train-features", files["train"],
                   "--test-features", files["test"], "--out", report) == 2
        assert capsys.readouterr().err == f"error: {files[bad]}: {message}\n"
        assert not report.exists()
        assert len(solves) == (bad == "test")

    def test_dim_mismatch(self, tmp_path, rng, capsys):
        train, test = tmp_path / "a.features", tmp_path / "b.features"
        save_features(train, [0, 1], rng.standard_normal((2, 3)))
        save_features(test, [0, 1], rng.standard_normal((2, 4)))
        assert run("classify", "--train-features", train, "--test-features", test) == 2
        assert capsys.readouterr().err == (f"error: {test}: feature dim 4 differs from "
                                           f"{train}'s 3\n")

    def _classify_error(self, tmp_path, capsys, bad_file):
        save_features(tmp_path / "good.features", [0, 1], np.eye(2))
        assert run("classify", "--train-features", tmp_path / "good.features",
                   "--test-features", bad_file) == 2
        return capsys.readouterr().err

    def test_missing_feature_file(self, tmp_path, capsys):
        err = self._classify_error(tmp_path, capsys, tmp_path / "absent.features")
        assert str(tmp_path / "absent.features") in err

    def test_text_feature_file(self, tmp_path, capsys):
        old = tmp_path / "old.features"
        old.write_text("0 1.0 0.0\n1 0.0 1.0\n")
        err = self._classify_error(tmp_path, capsys, old)
        assert f"{old} is not a feature file" in err and "extract" in err

    def test_network_checkpoint_as_features(self, tmp_path, capsys, trained):
        err = self._classify_error(tmp_path, capsys, trained)
        assert f"{trained} is not a feature file" in err


class TestGradcheck:
    def test_passes_quick(self, capsys):
        assert run("gradcheck", "--trials", 2, "--no-end-to-end") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 9

    def test_failing_layer_exits_1_and_is_named(self, capsys, monkeypatch):
        monkeypatch.setitem(gradcheck.LAYER_CHECKS, "gauss_agg", lambda rng: 1.0)
        assert run("gradcheck", "--trials", 1, "--no-end-to-end") == 1
        out = capsys.readouterr().out
        assert any("gauss_agg" in line and "FAIL" in line
                   for line in out.splitlines())


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--epochs", "-2", "epochs must be >= 0, got -2"),
    ("gradcheck", "--trials", "0", "trials must be >= 1, got 0"),
    ("train", "--seed", "-1", "--seed must be >= 0, got -1"),
    ("classify", "--seed", "-1", "--seed must be >= 0, got -1"),
])
def test_malformed_numeric_argument_exits_2(workspace, tmp_path, capsys,
                                            command, flag, value, message):
    """The message is the whole of stderr: a bad ``--seed`` to classify is
    not blamed on its (sound) feature files."""
    _, data, config = workspace
    if command == "train":
        argv = ["--config", config, "--data-root", data, "--out", tmp_path / "run"]
    elif command == "classify":
        features = tmp_path / "two.features"
        save_features(features, [0, 1], np.eye(2))
        argv = ["--train-features", features, "--test-features", features,
                "--out", tmp_path / "run"]
    else:
        argv = ["--no-end-to-end"]
    assert run(command, *argv, flag, value) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "PASS" not in captured.out
    assert not (tmp_path / "run").exists()


def _empty_train_split(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    (root / "train.txt").write_text("")
    return ["train", "--data-root", root], f"split 'train' of {root} is empty"


def _zero_widths(tmp_path):
    cfg = tmp_path / "zero.cfg"
    save_config(cfg, dataclasses.replace(TINY, d_out_c=0, d_out_s=0))
    return (["train", "--config", cfg],
            f"{cfg}:2: d_out_c must be >= 1, got 0; {cfg}:3: d_out_s must be >= 1, got 0")


def _zero_t0(tmp_path):
    cfg = tmp_path / "t0.cfg"
    save_config(cfg, dataclasses.replace(TINY, t0=0))
    return ["train", "--config", cfg], f"{cfg}:5: t0 must be >= 1, got 0"


def _d_out_s_wider_than_the_aggregation(tmp_path):
    cfg = tmp_path / "wide.cfg"
    save_config(cfg, dataclasses.replace(TINY, d_out_s=8000))
    return (["train", "--config", cfg],
            f"{cfg}:3: d_out_s 8000 exceeds the aggregation width 60 * 7 = 420")


def _labels_beyond_the_config_classes(tmp_path):
    root = tmp_path / "three"
    write_synthetic_dataset(root, n_classes=3, train_per_class=4, n_frames=15, seed=5)
    names = ", ".join(f"sequences/train_c2_{k:02d}.txt" for k in range(3))
    return (["train", "--data-root", root],
            f"{names} and 1 more: labels [2] out of range for n_classes=2")


def _key_without_value(tmp_path):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text("n_classes=2\nd_out_c\n")
    return ["train", "--config", cfg], f"{cfg}:2: expected key=value, got 'd_out_c'"


def _leave_one_subject_out_split(tmp_path):
    ckpt = tmp_path / "init.ckpt"
    save_params(ckpt, init_params(TINY, 0))
    return (["extract", "--checkpoint", ckpt, "--split", "loso-test:2"],
            "unknown split 'loso-test:2'; expected train or test")


def _index_names_a_directory(tmp_path):
    root = tmp_path / "data"
    (root / "sequences" / "dir.txt").mkdir(parents=True)
    (root / "train.txt").write_text("sequences/dir.txt 0 0 1\n")
    return (["train", "--data-root", root],
            f"cannot read sequence file {root / 'sequences' / 'dir.txt'}: ")


def _checkpoint_without_fc_bias(tmp_path):
    ckpt = tmp_path / "partial.ckpt"
    params = init_params(TINY, 0)
    save_checkpoint(ckpt, {name: getattr(params, field)
                           for field, (name, _) in PARAM_TENSORS.items() if name != "fc_bias"})
    return ["extract", "--checkpoint", ckpt], f"checkpoint {ckpt} is missing tensor 'fc_bias'"


@pytest.mark.parametrize("case", [_empty_train_split, _zero_widths, _zero_t0,
                                  _d_out_s_wider_than_the_aggregation, _key_without_value,
                                  _leave_one_subject_out_split, _index_names_a_directory,
                                  _labels_beyond_the_config_classes,
                                  _checkpoint_without_fc_bias],
                         ids=lambda case: case.__name__.lstrip("_"))
def test_malformed_input_exits_2_naming_it(workspace, tmp_path, capsys, case):
    """Each error branch a user reaches through `main`; later flags override
    the workspace defaults put before them."""
    _, data, config = workspace
    (command, *argv), message = case(tmp_path)
    out = tmp_path / "out"
    assert run(command, "--config", config, "--data-root", data, "--out", out, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not out.exists()


def test_train_reads_the_28_class_labels(workspace, tmp_path):
    _, data, config = workspace
    out = tmp_path / "run"
    assert run("train", "--config", config, "--data-root", data, "--out", out,
               "--dataset", "dhg28", "--epochs", 1) == 0
    assert strict_json(out / "manifest.json")["dataset"]["id"] == "dhg28:train"


def test_fpha_extract_matches_the_dhg_file_it_was_written_from(workspace, trained, tmp_path):
    """A frame index before, and no palm joint: the lattice an FPHA file
    holds is the DHG file's, so the features are bitwise the same."""
    _, data, config = workspace
    fpha = tmp_path / "fpha"
    (fpha / "sequences").mkdir(parents=True)
    index = []
    for line in (data / "train.txt").read_text().splitlines():
        rel, label, _, subject = line.split()
        rows = [row.split() for row in (data / rel).read_text().splitlines()]
        (fpha / rel).write_text("".join(" ".join([str(t), *row[:3], *row[6:]]) + "\n"
                                        for t, row in enumerate(rows)))
        index.append(f"{rel} {label} {subject}\n")
    (fpha / "train.txt").write_text("".join(index))
    features = {}
    for dataset, root in (("dhg14", data), ("fpha", fpha)):
        features[dataset] = tmp_path / f"{dataset}.features"
        assert run("extract", "--checkpoint", trained, "--config", config, "--data-root", root,
                   "--dataset", dataset, "--out", features[dataset]) == 0
    assert features["fpha"].read_bytes() == features["dhg14"].read_bytes()


class TestImports:
    @staticmethod
    def _loaded(statement):
        """The modules a fresh interpreter holds after ``statement``."""
        return set(python("-c", f"import sys; {statement}; print(*sys.modules)").split())

    def test_package_root_loads_no_submodule(self):
        assert {m for m in self._loaded("import spdhgr") if m.startswith("spdhgr")} == {"spdhgr"}

    def test_cli_loads_no_network_module_until_a_command_needs_it(self):
        loaded = self._loaded("import spdhgr.cli")
        assert "spdhgr.svm" in loaded
        assert not loaded & {"concurrent.futures", *(f"spdhgr.{m}" for m in (
            "network", "layers", "skeleton", "training", "gradcheck", "blas"))}

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_cli_starts_openblas_without_a_thread_pool_unless_told(self, preset):
        """Unset, OPENBLAS_NUM_THREADS is 1 before numpy loads, so no
        OpenBLAS worker thread starts; a count the caller set is kept."""
        unset = "os.environ.pop('OPENBLAS_NUM_THREADS', None); " if preset is None else ""
        out = python("-c", f"import os, sys; {unset}import spdhgr.cli; "
                           "print(os.environ['OPENBLAS_NUM_THREADS'], sys.platform, "
                           "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1)",
                     env=preset and {"OPENBLAS_NUM_THREADS": preset}).split()
        assert out[0] == (preset or "1")
        if preset is None and out[1] == "linux":
            assert out[2] == "1"


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("fit")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("classify", "--train-features", "a", "--test-features", "b", "--model-out", "m"),
        ("train", "--config", "c", "--data-root", "d", "--out", "o", "--deterministic"),
        ("gradcheck", "--corrupt", "gauss_agg"),
        ("extract", "--checkpoint", "c", "--config", "c", "--data-root", "d",
         "--out", "o", "--seed", "1"),
        ("train", "--config", "c", "--data-root", "d", "--out", "o", "--variant", "ts_only"),
        ("train", "--config", "c", "--data-root", "d", "--out", "o", "--grid-mode", "physical"),
        ("extract", "--checkpoint", "c", "--config", "c", "--data-root", "d",
         "--out", "o", "--variant", "ts_only"),
        ("extract", "--checkpoint", "c", "--config", "c", "--data-root", "d",
         "--out", "o", "--grid-mode", "physical"),
        ("ablate", "--config", "c", "--data-root", "d", "--out", "o", "--knob", "t0",
         "--values", "1"),
        ("train", "--config", "c", "--data-root", "d", "--out", "o", "--workers", "2"),
        ("train", "--config", "c", "--data-root", "d", "--out", "o", "--batch-size", "30"),
        ("train", "--config", "c", "--data-root", "d", "--out", "o", "--lr", "0.01"),
        ("classify", "--train-features", "a", "--test-features", "b", "-C", "1"),
        ("classify", "--train-features", "a", "--test-features", "b", "--tol", "0.1"),
        ("train", "--config", "c", "--data-root", "d", "--out", "o", "--split", "train"),
        ("gradcheck", "--seed", "1"),
    ])
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        removed = [token for token in argv if token.startswith("-")][-1]
        assert ("invalid choice: 'ablate'" if argv[0] == "ablate"
                else f"unrecognized arguments: {removed}") in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("train", "--config", "c", "--data-root", "d", "--out", "o"),
        ("extract", "--checkpoint", "c", "--config", "c", "--data-root", "d", "--out", "o"),
    ])
    def test_unknown_dataset_refused_by_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--dataset", "dhg99")
        assert exc.value.code == 2
        assert "argument --dataset: invalid choice: 'dhg99'" in capsys.readouterr().err
