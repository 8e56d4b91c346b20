#!/usr/bin/env python3
"""Full-scale benchmark run: train, extract features, classify.

Long-running (hours on CPU at the default 500-frame / 200x3360
configuration). Expects a dataset root already converted to the layout
in docs/formats.md; see the README for the reference accuracy targets
and the ±2-point tolerance discussion.

Usage:
  python3 scripts/reproduce_benchmarks.py DATA_ROOT OUT_DIR \
      [--dataset dhg14|dhg28|fpha] [--classes N] [--epochs 15] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

from spdhgr.cli import main
from spdhgr.network import NetworkConfig, save_config

CLASS_COUNTS = {"dhg14": 14, "dhg28": 28, "fpha": 45}


def run(args) -> int:
    if args.epochs < 1:  # extraction reads the last epoch's checkpoint
        print(f"--epochs must be >= 1, got {args.epochs}", file=sys.stderr)
        return 2
    data = Path(args.data_root)
    if not (data / "train.txt").is_file():
        print(f"no train.txt under {data}; convert the dataset first "
              "(layout: docs/formats.md)", file=sys.stderr)
        return 2
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "net.cfg"
    n_classes = args.classes or CLASS_COUNTS[args.dataset]
    save_config(config_path, NetworkConfig(n_classes=n_classes))

    code = main([
        "train", "--config", str(config_path), "--data-root", str(data),
        "--out", str(out / "run"), "--dataset", args.dataset,
        "--epochs", str(args.epochs), "--batch-size", "30", "--lr", "0.01",
        "--seed", str(args.seed),
    ])
    if code != 0:
        return code
    checkpoint = out / "run" / f"epoch_{args.epochs:02d}.ckpt"
    for split in ("train", "test"):
        code = main([
            "extract", "--checkpoint", str(checkpoint),
            "--config", str(config_path), "--data-root", str(data),
            "--dataset", args.dataset, "--split", split,
            "--out", str(out / f"{split}.features"),
        ])
        if code != 0:
            return code
    return main([
        "classify", "--train-features", str(out / "train.features"),
        "--test-features", str(out / "test.features"),
        "-C", "1.0", "--tol", "0.1",
        "--out", str(out / "report.json"),
    ])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data_root")
    parser.add_argument("out_dir")
    parser.add_argument("--dataset", choices=sorted(CLASS_COUNTS), default="dhg14")
    parser.add_argument("--classes", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    sys.exit(run(parser.parse_args()))
