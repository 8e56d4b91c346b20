"""Command-line harness: train, extract, classify, gradcheck.

Exit codes: 0 success, 1 numerical or check failure, 2 usage/config/data
error. All commands are deterministic for a given seed, at any core count.
Each command imports the modules it runs when it runs, so ``classify``
starts without loading the network.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# no command multiplies on more than one BLAS thread (blas.py): OpenBLAS needs no pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (OpenBLAS reads the thread count as it loads)

from .errors import ConfigError, InvalidInput, NumericalFailure, ParseError, named
from .optim import write_atomic
from .svm import load_features, save_features, svm_predict_batch, svm_train

DATASETS = ("dhg14", "dhg28", "fpha")


def _load_dataset(data_root, dataset: str, split: str):
    """``dataset`` is one of `DATASETS`; argparse's ``choices`` refuses any other."""
    from .skeleton import load_dhg, load_fpha

    if dataset == "fpha":
        return load_fpha(data_root, split)
    return load_dhg(data_root, split, classes={"dhg14": 14, "dhg28": 28}[dataset])


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    write_atomic(path, lambda fh: fh.write(text))


def _check_seed(seed: int) -> None:
    """Refuse a negative ``--seed``, which numpy's generators do not take."""
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def cmd_train(args) -> int:
    from .network import init_params, load_config
    from .training import train_network

    _check_seed(args.seed)
    config = load_config(args.config)
    sequences = _load_dataset(args.data_root, args.dataset, "train")
    if not sequences:
        raise ConfigError(f"split 'train' of {args.data_root} is empty")
    out_dir = Path(args.out)
    params = init_params(config, args.seed)
    t_start = time.perf_counter()
    result = train_network(
        sequences, params, config,
        epochs=args.epochs, seed=args.seed, out_dir=out_dir, log=print,
    )
    manifest = result.manifest(
        config=config, seed=args.seed, dataset_id=f"{args.dataset}:train",
        n_sequences=len(sequences), total_wall_time_s=time.perf_counter() - t_start,
    )
    _write_json(out_dir / "manifest.json", manifest)
    print(f"FINAL loss={result.final_loss!r} acc={result.final_accuracy!r}")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def _write_features(path, sequences, params, config) -> None:
    """Extract every sequence's features into one matrix and write it as one
    feature file. A package error from one sequence names its file."""
    from .network import extract_features

    feats = np.empty((len(sequences), config.feature_dim))
    for row, seq in zip(feats, sequences):
        with named(seq.source):
            row[:] = extract_features(seq, params, config)
    save_features(path, [s.label for s in sequences], feats)


def cmd_extract(args) -> int:
    from .network import load_config, load_params

    config = load_config(args.config)
    params = load_params(args.checkpoint, config)
    sequences = _load_dataset(args.data_root, args.dataset, args.split)
    _write_features(args.out, sequences, params, config)
    print(f"wrote {len(sequences)} feature rows to {args.out}")
    return 0


def cmd_classify(args) -> int:
    from . import blas

    _check_seed(args.seed)
    train_labels, train_x = load_features(args.train_features)
    test_labels, test_x = load_features(args.test_features)
    if train_x.shape[1] != test_x.shape[1]:
        raise InvalidInput(f"{args.test_features}: feature dim {test_x.shape[1]} differs from "
                           f"{args.train_features}'s {train_x.shape[1]}")
    # the fit's products give other bits on two OpenBLAS threads than on one
    blas.hold_one_thread()
    with named(str(args.train_features)):
        model = svm_train(train_x, train_labels, seed=args.seed)
    with named(str(args.test_features)):
        predictions = svm_predict_batch(model, test_x)
    accuracy = float(np.mean(predictions == test_labels)) if test_labels.size else float("nan")
    classes = np.union1d(model.class_ids, test_labels).tolist()
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    np.add.at(confusion, (np.searchsorted(classes, test_labels),
                          np.searchsorted(classes, predictions)), 1)

    print(f"ACCURACY {accuracy:.4f}")
    print("CONFUSION rows=truth cols=predicted classes=" + ",".join(map(str, classes)))
    for row in confusion:
        print(" ".join(str(v) for v in row))
    if args.out:
        _write_json(args.out, {
            "accuracy": accuracy if test_labels.size else None,
            "n_train": int(train_labels.size),
            "n_test": int(test_labels.size),
            "classes": classes,
            "confusion": confusion.tolist(),
            "c": model.c,
            "tol": model.tol,
            "svm": {"passes": list(model.passes), "violation": list(model.violation)},
        })
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_all

    results = run_all(trials=args.trials, include_end_to_end=args.end_to_end)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"GRADCHECK {res.name} max_rel_err={res.max_rel_err:.3e} "
              f"tol={res.tol:.0e} {status}")
        failed = failed or not res.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdhgr",
        description="Skeleton-based hand-gesture recognition with SPD aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the network, writing checkpoints + manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--dataset", choices=DATASETS, default="dhg14")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="write log-Euclidean features for a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", choices=DATASETS, default="dhg14")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("classify", help="train/evaluate the linear SVM on feature files")
    p.add_argument("--train-features", required=True)
    p.add_argument("--test-features", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every layer")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--no-end-to-end", dest="end_to_end", action="store_false",
                   help="skip the (slow) whole-network finite-difference sweep")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
