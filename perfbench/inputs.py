"""Seeded synthetic inputs for the benchmark workloads.

Inputs are written to a work directory in the program's documented
on-disk formats (docs/formats.md): a DHG-style dataset split, a
parameter checkpoint, and feature files. The values come from the
benchmark's own random generator, never from program code, so a change
to the program cannot change its inputs; only the file writers that
define a program format (``save_params``, ``save_features``) are the
program's.

Run as a script in a child process, so the memory this takes does not
count towards the measured process's peak RSS:

    python3 perfbench/inputs.py WORKLOAD SCALE POOL_INDEX WORKDIR
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Inputs are drawn from POOL_SIZE seeded input sets (input set = seed %
# POOL_SIZE); reference outputs of the seed commit are stored for each.
POOL_SIZE = 16

WORKLOADS = ("train", "extract", "classify")


@dataclass(frozen=True)
class Scale:
    name: str
    n_frames: int  # frames after resampling
    d_out_c: int  # convolution output dimension
    d_out_s: int  # side of the aggregated SPD matrix
    n_chunks: int  # temporal chunks per ts branch
    n_classes: int  # gesture classes of the DHG splits
    train_seqs: int
    batch_size: int
    epochs: int
    extract_seqs: int
    raw_frames: tuple[int, int]  # [low, high) raw frames per DHG sequence
    fpha_classes: int
    fpha_train_per_class: int
    fpha_test_per_class: int
    setup_reps: int  # set-ups per run; setup_s is their median

    @property
    def feature_dim(self) -> int:
        return self.d_out_s * (self.d_out_s + 1) // 2

    @property
    def branch_dim(self) -> int:
        d = self.d_out_c + 1
        return d * (d + 1) // 2 + 1

    def sizes(self) -> dict:
        return {
            "n_frames": self.n_frames, "d_out_c": self.d_out_c, "d_out_s": self.d_out_s,
            "branch_descriptor": [self.branch_dim, self.branch_dim],
            "w_hat": [self.d_out_s, 60 * self.branch_dim],
            "feature_dim": self.feature_dim, "n_classes": self.n_classes,
            "train_seqs": self.train_seqs, "batch_size": self.batch_size,
            "epochs": self.epochs, "extract_seqs": self.extract_seqs,
            "raw_frames": list(self.raw_frames), "fpha_classes": self.fpha_classes,
            "fpha_train_rows": self.fpha_classes * self.fpha_train_per_class,
            "fpha_test_rows": self.fpha_classes * self.fpha_test_per_class,
            "setup_reps": self.setup_reps,
        }


# Paper scale: 500 frames, d_out_c=9, 56x56 branch descriptors, a
# 200x3360 w_hat and 20100-dim features; 14 DHG classes, batch 30;
# FPHA-shaped classification with 45 classes. FPHA itself has 600 train
# and 575 test rows; classify keeps its shape at 135 + 135 rows, so a
# unit takes a few seconds and a run holds several: the dual solver
# needs 3 passes per class there too, and with as many test rows as
# train rows reading the two files takes about two thirds of the unit,
# as on FPHA (7.6 s per 600 rows read, 7.7 s to fit 600 rows on a
# 2-core VM).
PAPER = Scale(name="paper", n_frames=500, d_out_c=9, d_out_s=200, n_chunks=15,
              n_classes=14, train_seqs=30, batch_size=30, epochs=1, extract_seqs=20,
              raw_frames=(100, 160), fpha_classes=45, fpha_train_per_class=3,
              fpha_test_per_class=3, setup_reps=11)

# Tiny configuration for the harness's own tests; timings mean nothing here.
SMOKE = Scale(name="smoke", n_frames=30, d_out_c=2, d_out_s=5, n_chunks=3,
              n_classes=3, train_seqs=6, batch_size=3, epochs=1, extract_seqs=4,
              raw_frames=(12, 20), fpha_classes=4, fpha_train_per_class=3,
              fpha_test_per_class=2, setup_reps=2)

SCALES = {s.name: s for s in (PAPER, SMOKE)}


def input_rng(workload: str, scale: Scale, pool_index: int) -> np.random.Generator:
    tags = {"train": 1, "extract": 2, "classify": 3}
    return np.random.default_rng([tags[workload], pool_index, 1 if scale is SMOKE else 0])


def pool_index(seed: int) -> int:
    return seed % POOL_SIZE


# ---------------------------------------------------------------------------
# DHG-style skeleton sequences


def _hand_sequence(rng: np.random.Generator, cls: int, n_raw: int) -> np.ndarray:
    """(n_raw, 22, 3) joints: a rest pose, a drifting hand and a moving finger.

    The moving finger, its tempo and its sway depend on the class; the
    hand drift and sensor noise are random per sequence.
    """
    frames = np.zeros((n_raw, 22, 3))
    frames[:, 1, 2] = 0.4  # palm above the wrist
    for finger in range(5):
        for level in range(4):
            joint = 2 + 4 * finger + level
            frames[:, joint, 0] = 0.3 * (finger - 2)
            frames[:, joint, 2] = 0.4 + 0.25 * (level + 1)
    t = np.linspace(0.0, 1.0, n_raw)
    drift = np.zeros((n_raw, 3))
    for k in range(1, 4):
        amp = rng.normal(scale=0.05 / k, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        drift += amp * np.sin(2.0 * np.pi * k * t[:, None] + phase)
    frames += drift[:, None, :]
    finger = cls % 5
    tempo = 1.0 + 0.5 * (cls // 5) + rng.uniform(-0.1, 0.1)
    sway = 0.1 * (1.0 + cls % 3) * rng.uniform(0.8, 1.2)
    angle = 2.0 * np.pi * tempo * t
    for level in range(4):
        joint = 2 + 4 * finger + level
        reach = sway * (level + 1) / 4.0
        frames[:, joint, 0] += reach * np.sin(angle + 0.4 * level)
        frames[:, joint, 1] += reach * np.cos(angle) * (1.0 if cls % 2 == 0 else -1.0)
    frames += rng.normal(scale=0.005, size=frames.shape)
    return frames


def write_dhg_split(root: Path, split: str, n_seqs: int, scale: Scale,
                    rng: np.random.Generator) -> None:
    """Write ``n_seqs`` sequences and the ``<split>.txt`` index."""
    (root / "sequences").mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(n_seqs):
        cls = i % scale.n_classes
        n_raw = int(rng.integers(*scale.raw_frames))
        frames = _hand_sequence(rng, cls, n_raw)
        rel = f"sequences/{split}_{i:03d}.txt"
        with open(root / rel, "w") as fh:
            for frame in frames:
                fh.write(" ".join(f"{v:.6f}" for v in frame.ravel()) + "\n")
        lines.append(f"{rel} {cls} {cls} {i % 5 + 1}\n")
    with open(root / f"{split}.txt", "w") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# workload inputs


def generate(workload: str, scale: Scale, pool: int, workdir: Path) -> None:
    rng = input_rng(workload, scale, pool)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "train":
        write_dhg_split(workdir / "dhg", "train", scale.train_seqs, scale, rng)
    elif workload == "extract":
        write_dhg_split(workdir / "dhg", "test", scale.extract_seqs, scale, rng)
        _write_checkpoint(workdir / "model.ckpt", scale, rng)
    elif workload == "classify":
        _write_fpha_features(workdir, scale, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _write_checkpoint(path: Path, scale: Scale, rng: np.random.Generator) -> None:
    """A checkpoint with seeded filters and a row-orthonormal w_hat."""
    from spdhgr.network import NetworkParams, save_params

    bound = np.sqrt(1.0 / scale.d_out_c)
    conv = rng.uniform(-bound, bound, size=(9, scale.d_out_c, 3))
    q, r = np.linalg.qr(rng.standard_normal((60 * scale.branch_dim, scale.d_out_s)))
    w_hat = (q * np.sign(np.diagonal(r))).T
    params = NetworkParams(
        conv=conv,
        w_hat=np.ascontiguousarray(w_hat),
        fc_weight=rng.normal(scale=0.01, size=(scale.n_classes, scale.d_out_s ** 2)),
        fc_bias=np.zeros(scale.n_classes),
    )
    save_params(path, params)


def _write_fpha_features(workdir: Path, scale: Scale, rng: np.random.Generator) -> None:
    """FPHA-shaped train/test feature files: class means plus row noise."""
    from spdhgr.svm import save_features

    dim = scale.feature_dim
    means = rng.normal(scale=0.2, size=(scale.fpha_classes, dim))
    for name, per_class in (("train", scale.fpha_train_per_class),
                            ("test", scale.fpha_test_per_class)):
        labels = np.repeat(np.arange(scale.fpha_classes), per_class)
        feats = means[labels] + rng.normal(scale=1.0, size=(labels.size, dim))
        save_features(workdir / f"{name}.features", labels, feats)


def flush_to_disk(workdir: Path) -> None:
    """fsync every input file, so their write-back does not run during timing."""
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())


def main(argv: list[str]) -> int:
    workload, scale_name, pool, workdir = argv
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    generate(workload, SCALES[scale_name], int(pool), Path(workdir))
    flush_to_disk(Path(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
