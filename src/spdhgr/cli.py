"""Command-line harness: train, extract, classify, gradcheck, ablate.

Exit codes: 0 success, 1 numerical or check failure, 2 usage/config/data
error. All commands are deterministic for a given seed, at any core count.
Each command imports the modules it runs when it runs, so ``classify``
starts without loading the network.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInput, NumericalFailure, ParseError, named
from .optim import write_atomic
from .svm import load_features, save_features, svm_predict_batch, svm_train

DATASETS = ("dhg14", "dhg28", "fpha")
ABLATION_KNOBS = {"t0": "t0", "N_S": "n_chunks", "grid_mode": "grid_mode",
                  "variant": "variant"}


def _load_dataset(data_root, dataset: str, split: str):
    from .skeleton import load_dhg, load_fpha

    if dataset == "dhg14":
        return load_dhg(data_root, split, classes=14)
    if dataset == "dhg28":
        return load_dhg(data_root, split, classes=28)
    if dataset == "fpha":
        return load_fpha(data_root, split)
    raise ConfigError(f"unknown dataset {dataset!r}; choices: {DATASETS}")


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    write_atomic(path, lambda fh: fh.write(text))


def cmd_train(args) -> int:
    from .network import init_params, load_config
    from .training import train_network

    config = load_config(args.config)
    sequences = _load_dataset(args.data_root, args.dataset, args.split)
    if not sequences:
        raise ConfigError(f"split {args.split!r} of {args.data_root} is empty")
    out_dir = Path(args.out)
    params = init_params(config, args.seed)
    t_start = time.perf_counter()
    result = train_network(
        sequences, params, config,
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        seed=args.seed, out_dir=out_dir, log=print,
    )
    manifest = result.manifest(
        config=config, seed=args.seed, dataset_id=f"{args.dataset}:{args.split}",
        n_sequences=len(sequences), batch_size=args.batch_size, lr=args.lr,
        total_wall_time_s=time.perf_counter() - t_start,
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


def _classify(train_file, test_file, c: float, tol: float, seed: int,
              report_path=None):
    from . import blas

    train_labels, train_x = load_features(train_file)
    test_labels, test_x = load_features(test_file)
    if train_x.shape[1] != test_x.shape[1]:
        raise InvalidInput(
            f"feature dims differ: train {train_x.shape[1]} vs test {test_x.shape[1]}"
        )
    # the fit's products give other bits on two OpenBLAS threads than on one
    blas.hold_one_thread()
    model = svm_train(train_x, train_labels, c=c, tol=tol, seed=seed)
    if test_labels.size:
        predictions = svm_predict_batch(model, test_x)
        accuracy = float(np.mean(predictions == test_labels))
    else:  # printed as nan, written as null
        predictions = np.zeros(0, dtype=np.int64)
        accuracy = float("nan")
    classes = sorted(set(model.class_ids.tolist()) | set(test_labels.tolist()))
    index = {cls: k for k, cls in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for truth, pred in zip(test_labels, predictions):
        confusion[index[int(truth)], index[int(pred)]] += 1

    print(f"ACCURACY {accuracy:.4f}")
    print("CONFUSION rows=truth cols=predicted classes=" + ",".join(map(str, classes)))
    for row in confusion:
        print(" ".join(str(v) for v in row))
    report = {
        "accuracy": accuracy if test_labels.size else None,
        "n_train": int(train_labels.size),
        "n_test": int(test_labels.size),
        "classes": classes,
        "confusion": confusion.tolist(),
        "c": c,
        "tol": tol,
        "svm": {"passes": list(model.passes), "violation": list(model.violation)},
    }
    if report_path:
        _write_json(report_path, report)
    return accuracy


def cmd_classify(args) -> int:
    _classify(args.train_features, args.test_features, args.C, args.tol, args.seed,
              report_path=args.out)
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_all

    results = run_all(seed=args.seed, trials=args.trials,
                      include_end_to_end=args.end_to_end)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"GRADCHECK {res.name} max_rel_err={res.max_rel_err:.3e} "
              f"tol={res.tol:.0e} {status}")
        failed = failed or not res.passed
    return 1 if failed else 0


def cmd_ablate(args) -> int:
    from .network import init_params, load_config
    from .training import train_network

    field = ABLATION_KNOBS.get(args.knob)
    if field is None:
        raise ConfigError(
            f"unknown ablation knob {args.knob!r}; choices: {sorted(ABLATION_KNOBS)}"
        )
    repeated = sorted({value for value in args.values if args.values.count(value) > 1})
    if repeated:
        raise ConfigError(f"--values repeats {', '.join(repeated)}; each value's run "
                          f"writes its own {args.knob}_<value> directory")
    out_root = Path(args.out)
    # every value's config is checked before the first run writes anything
    configs = [load_config(args.config, overrides={field: value}) for value in args.values]
    splits = {split: _load_dataset(args.data_root, args.dataset, split)
              for split in ("train", "test")}
    rows = []
    for value, config in zip(args.values, configs):
        run_dir = out_root / f"{args.knob}_{value}"
        result = train_network(
            splits["train"], init_params(config, args.seed), config,
            epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
            seed=args.seed, out_dir=run_dir, log=None,
        )
        for split, sequences in splits.items():
            _write_features(run_dir / f"{split}.features", sequences, result.params,
                            config)
        accuracy = _classify(run_dir / "train.features", run_dir / "test.features",
                             args.C, args.tol, args.seed,
                             report_path=run_dir / "report.json")
        rows.append((value, accuracy))

    print(f"ABLATION knob={args.knob}")
    print(f"{args.knob:>12}  accuracy")
    for value, accuracy in rows:
        print(f"{value:>12}  {accuracy:.4f}")
    for value, accuracy in rows:
        print(f"ABLATE {args.knob}={value} acc={accuracy:.4f}")
    _write_json(out_root / "ablation.json", {"knob": args.knob, "rows": [
        {"value": v, "accuracy": None if np.isnan(a) else a} for v, a in rows]})
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--batch-size", type=int, default=30)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--dataset", choices=DATASETS, default="dhg14")


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
    p.add_argument("--split", default="train")
    _add_common(p)
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
    p.add_argument("-C", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every layer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--no-end-to-end", dest="end_to_end", action="store_false",
                   help="skip the (slow) whole-network finite-difference sweep")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train/extract/classify per knob value")
    p.add_argument("--config", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--knob", required=True)
    p.add_argument("--values", nargs="+", required=True)
    p.add_argument("-C", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

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
