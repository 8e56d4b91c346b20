#!/usr/bin/env python3
"""Train on a synthetic two-class fixture until it is memorized.

Writes the fixture, a config and a training run under the given work
directory, then prints the per-epoch losses and the final metrics.

Usage: python3 scripts/overfit_synthetic.py WORKDIR
"""

import sys
from pathlib import Path

from spdhgr.cli import main
from spdhgr.network import NetworkConfig, save_config
from spdhgr.skeleton import write_synthetic_dataset


def run(workdir: Path) -> int:
    data = workdir / "data"
    write_synthetic_dataset(data, n_classes=2, train_per_class=10,
                            test_per_class=5, n_frames=20, seed=7)
    config_path = workdir / "net.cfg"
    save_config(config_path, NetworkConfig(n_classes=2, d_out_c=2, d_out_s=210,
                                           n_frames=16, t0=1, n_chunks=2))
    return main([
        "train",
        "--config", str(config_path),
        "--data-root", str(data),
        "--out", str(workdir / "run"),
        "--epochs", "15",
    ])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    workdir = Path(sys.argv[1])
    workdir.mkdir(parents=True, exist_ok=True)
    sys.exit(run(workdir))
