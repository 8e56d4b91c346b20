#!/usr/bin/env python3
"""Small ablation demo on the synthetic fixture: window half-width 1 vs 2,
run by scripts/reproduce_benchmarks.py into WORKDIR/ablation.

Usage: python3 scripts/ablate_synthetic.py WORKDIR
"""

import sys
from pathlib import Path

from reproduce_benchmarks import main  # this script's own directory
from spdhgr.network import NetworkConfig, save_config
from spdhgr.skeleton import write_synthetic_dataset


def run(workdir: Path) -> int:
    data = workdir / "data"
    write_synthetic_dataset(data, n_classes=3, train_per_class=6,
                            test_per_class=4, n_frames=24, seed=11)
    config_path = workdir / "net.cfg"
    save_config(config_path, NetworkConfig(n_classes=3, d_out_c=2, d_out_s=32,
                                           n_frames=18, t0=1, n_chunks=2))
    return main([
        str(data), str(workdir / "ablation"),
        "--config", str(config_path),
        "--knob", "t0",
        "--values", "1", "2",
        "--epochs", "5",
        "--seed", "0",
    ])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    workdir = Path(sys.argv[1])
    workdir.mkdir(parents=True, exist_ok=True)
    sys.exit(run(workdir))
