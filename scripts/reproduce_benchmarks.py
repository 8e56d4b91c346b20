#!/usr/bin/env python3
"""Full-scale benchmark run: train, extract features, classify.

Long-running (hours on CPU at the default 500-frame / 200x3360
configuration). Expects a dataset root already converted to the layout
in docs/formats.md; see the README for the reference accuracy targets
and the ±2-point tolerance discussion.

Each command runs as its own child process (`python -m spdhgr ...`),
finding the package this script imported. After each one,
OUT_DIR/timings.json records every command run so far: its name, argv,
exit code, wall seconds and the child's peak resident set (KiB). The run
stops at the first command that exits nonzero and exits with its code.

Usage:
  python3 scripts/reproduce_benchmarks.py DATA_ROOT OUT_DIR \
      [--dataset dhg14|dhg28|fpha] [--classes N] [--epochs 15] [--seed 0]
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import spdhgr
from spdhgr.network import NetworkConfig, save_config
from spdhgr.optim import write_atomic

CLASS_COUNTS = {"dhg14": 14, "dhg28": 28, "fpha": 45}


def _child_env() -> dict:
    """This process's environment, with the directory holding the imported
    package first on PYTHONPATH."""
    env = dict(os.environ)
    root = str(Path(spdhgr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _run_child(name: str, argv: list, timings: list, out: Path) -> int:
    """Run ``python -m spdhgr argv`` to its end, add its record to
    ``timings`` and rewrite OUT/timings.json; returns its exit code."""
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "spdhgr", *argv], _child_env())
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    timings.append({"command": name, "argv": argv, "exit_code": code,
                    "wall_s": time.perf_counter() - start, "max_rss_kib": usage.ru_maxrss})
    text = json.dumps({"commands": timings}, indent=2) + "\n"
    write_atomic(out / "timings.json", lambda fh: fh.write(text))
    return code


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

    checkpoint = out / "run" / f"epoch_{args.epochs:02d}.ckpt"
    commands = [("train", [
        "train", "--config", str(config_path), "--data-root", str(data),
        "--out", str(out / "run"), "--dataset", args.dataset,
        "--epochs", str(args.epochs), "--batch-size", "30", "--lr", "0.01",
        "--seed", str(args.seed),
    ])]
    commands += [(f"extract {split}", [
        "extract", "--checkpoint", str(checkpoint),
        "--config", str(config_path), "--data-root", str(data),
        "--dataset", args.dataset, "--split", split,
        "--out", str(out / f"{split}.features"),
    ]) for split in ("train", "test")]
    commands.append(("classify", [
        "classify", "--train-features", str(out / "train.features"),
        "--test-features", str(out / "test.features"),
        "-C", "1.0", "--tol", "0.1",
        "--out", str(out / "report.json"),
    ]))
    timings = []
    for name, argv in commands:
        code = _run_child(name, argv, timings, out)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data_root")
    parser.add_argument("out_dir")
    parser.add_argument("--dataset", choices=sorted(CLASS_COUNTS), default="dhg14")
    parser.add_argument("--classes", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    sys.exit(run(parser.parse_args()))
