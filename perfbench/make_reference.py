"""Record the reference outputs the benchmark checks every unit against.

    python3 perfbench/make_reference.py --scale paper|smoke --workload NAME

Runs one unit of the workload on each of the POOL_SIZE input sets and
writes ``reference/<scale>_<workload>.npz``. Run it only on a commit
whose outputs are the reference (the references in the repository come
from the seed commit of the benchmark); a later change that moves
outputs beyond the check tolerances is a change of results, not of the
reference.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from inputs import POOL_SIZE, SCALES, WORKLOADS, generate  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOAD_TYPES, reference_path, sketch_matrix  # noqa: E402


def reference_outputs(workload, output) -> dict[str, np.ndarray]:
    if workload.name == "train":
        return {"train_epoch_loss": np.array([r.mean_loss for r in output.epochs]),
                "train_final_loss": np.array(output.final_loss)}
    if workload.name == "extract":
        feats, _ = output
        return {"extract_sketch": feats @ sketch_matrix(feats.shape[1]).T,
                "extract_norm": np.linalg.norm(feats, axis=1)}
    return {"classify_pred": np.asarray(output, dtype=np.int64)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", required=True, choices=sorted(SCALES))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    rows: dict[str, list] = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        for pool in range(POOL_SIZE):
            workdir = Path(tmp) / str(pool)
            generate(args.workload, scale, pool, workdir)
            workload = WORKLOAD_TYPES[args.workload](scale=scale, workdir=workdir, pool=pool)
            workload.setup()
            for key, value in reference_outputs(workload, workload.unit()).items():
                rows.setdefault(key, []).append(value)
            print(f"{args.scale} {args.workload} input set {pool} done", flush=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez(reference_path(scale, args.workload), **{k: np.stack(v) for k, v in rows.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
