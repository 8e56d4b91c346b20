"""Smoke test of `scripts/compare_trees.py` on a tiny config: this tree
against itself, and against a copy with a planted one-bit difference."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("compare_trees",
                                              REPO / "scripts" / "compare_trees.py")
compare_trees = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_trees)

TINY = {"n_classes": 2, "d_out_c": 2, "d_out_s": 8, "n_frames": 12, "t0": 1, "n_chunks": 2}
PLANT = '''

_forward = forward


def forward(*args):  # planted: the last bit of the first returned probability flips
    probs, ctx, y = _forward(*args)
    probs = probs.copy()  # the backward's own copy keeps its bits
    probs.view(np.int64)[0] ^= 1
    return probs, ctx, y
'''


@pytest.fixture(scope="module")
def own_tensors():
    return compare_trees.tensors_of(REPO, one_cpu=True, config=TINY)


def test_tree_against_itself_is_bitwise_equal_on_one_cpu_and_all(own_tensors):
    rows = compare_trees.compare_tensors(
        own_tensors, compare_trees.tensors_of(REPO, one_cpu=False, config=TINY))
    assert len(rows) == 3 * 7
    assert all(equal and verdict == "bitwise equal" for _, equal, verdict in rows)


def test_planted_one_bit_difference_is_reported(own_tensors, tmp_path):
    planted = tmp_path / "planted"
    shutil.copytree(REPO / "src", planted / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    with open(planted / "src" / "spdhgr" / "network.py", "a") as fh:
        fh.write(PLANT)
    rows = compare_trees.compare_tensors(
        own_tensors, compare_trees.tensors_of(planted, one_cpu=True, config=TINY))
    differing = {name: verdict for name, equal, verdict in rows if not equal}
    assert sorted(differing) == [f"{v}/probs" for v in sorted(compare_trees.VARIANTS)]
    for verdict in differing.values():
        assert verdict.startswith("max |diff| / max |x| = ")
        assert 0.0 < float(verdict.rsplit(" ", 1)[1]) < 1e-15


def test_compare_dirs_ignores_only_manifest_wall_times(tmp_path):
    blob = np.arange(4.0).tobytes()
    flipped = bytearray(blob)
    flipped[9] ^= 1
    sides = {
        "parent": ("t0=1\nridge=1e-06\n", blob,
                   {"config": {"t0": 1, "ridge": 1e-06}, "total_wall_time_s": 1.0,
                    "epochs": [{"epoch": 1, "mean_loss": 0.25, "wall_time_s": 0.5}]}),
        "change": ("t0=1\n", bytes(flipped),
                   {"config": {"t0": 1}, "total_wall_time_s": 1.5,
                    "epochs": [{"epoch": 1, "mean_loss": 0.25, "wall_time_s": 0.7}]}),
    }
    for side, (snapshot, ckpt, manifest) in sides.items():
        run = tmp_path / side / "run"
        run.mkdir(parents=True)
        (run / "config.snapshot").write_text(snapshot)
        (run / "epoch_01.ckpt").write_bytes(ckpt)
        (run / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / side / "same.ckpt").write_bytes(blob)
    (tmp_path / "change" / "extra.txt").write_text("new\n")
    assert compare_trees.compare_dirs(tmp_path / "parent", tmp_path / "change") == [
        ("extra.txt", ["only in change"]),
        ("run/config.snapshot", ["-ridge=1e-06"]),
        ("run/epoch_01.ckpt", ["bytes differ from offset 9 (32 -> 32 bytes)"]),
        ("run/manifest.json", ["config.ridge: 1e-06 -> '(absent)'"]),
        ("same.ckpt", []),
    ]


def test_diff_lines_names_the_changed_gradcheck_line():
    parent = "GRADCHECK conv max_rel_err=3.6e-11 PASS\nGRADCHECK head max_rel_err=7.1e-09 PASS\n"
    change = "GRADCHECK conv max_rel_err=2.9e-11 PASS\nGRADCHECK head max_rel_err=7.1e-09 PASS\n"
    assert compare_trees.diff_lines(parent, parent) == []
    assert compare_trees.diff_lines(parent, change) == [
        "-GRADCHECK conv max_rel_err=3.6e-11 PASS", "+GRADCHECK conv max_rel_err=2.9e-11 PASS"]


def test_timings_compare_on_command_names_and_exit_codes_alone(tmp_path):
    """Each run's own argv paths, wall times and peak RSS always differ."""
    def timings(side, exit_code):
        return {"commands": [
            {"command": "train", "argv": ["train", "--out", f"/{side}/t0_1"], "exit_code": 0,
             "wall_s": len(side) / 3, "max_rss_kib": 1000 + len(side)},
            {"command": "classify", "argv": ["classify", "--out", f"/{side}/r.json"],
             "exit_code": exit_code, "wall_s": 0.1, "max_rss_kib": 2000}]}

    for side, code in (("parent", 0), ("change", 0), ("failed", 2)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "timings.json").write_text(json.dumps(timings(side, code)))
    assert compare_trees.compare_dirs(tmp_path / "parent", tmp_path / "change") == [
        ("timings.json", [])]
    assert compare_trees.compare_dirs(tmp_path / "parent", tmp_path / "failed") == [
        ("timings.json", ["[1].exit_code: 0 -> 2"])]
