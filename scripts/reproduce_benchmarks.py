#!/usr/bin/env python3
"""The paper's protocol: train, extract features, classify; once, or once
per value of one ablation knob.

Long-running (hours on CPU at the default 500-frame / 200x3360
configuration). Expects a dataset root already converted to the layout
in docs/formats.md; see the README for the reference accuracy targets
and the ±2-point tolerance discussion.

A run directory gets the network's config as `net.cfg`, then each
command runs into it as its own child process (`python -m spdhgr ...`),
finding the package this script imported. After each one,
RUN_DIR/timings.json records every command run so far: its name, argv,
exit code, wall seconds and the child's peak resident set (KiB). A run
stops at the first command that exits nonzero, and the script exits
with its code.

A plain run's directory is OUT_DIR; its network is `--config FILE`, or
the paper network at the dataset's class count. With `--knob K --values
V ...`, each value runs into OUT_DIR/K_V/ with FILE's config and K set
to V; after the last value the script prints the accuracy table and one
`ABLATE K=V acc=...` line per value, and writes OUT_DIR/ablation.json.
`--epochs` (at least 1), `--seed` (at least 0), both split index files
(DATA_ROOT/train.txt and test.txt), the knob, the values and every
value's config are checked before anything is written; two values that
load to the same network (`1` and `01`) are refused.

Usage:
  python3 scripts/reproduce_benchmarks.py DATA_ROOT OUT_DIR
      [--dataset dhg14|dhg28|fpha] [--config FILE] [--epochs 15] [--seed 0]
      [--knob t0|N_S|grid_mode|variant --values V1 V2 ...]
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import spdhgr
from spdhgr.errors import ConfigError, ParseError
from spdhgr.network import NetworkConfig, load_config, save_config
from spdhgr.optim import write_atomic

CLASS_COUNTS = {"dhg14": 14, "dhg28": 28, "fpha": 45}
ABLATION_KNOBS = {"t0": "t0", "N_S": "n_chunks", "grid_mode": "grid_mode",
                  "variant": "variant"}


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


def run_chain(out: Path, config: NetworkConfig, args) -> int:
    """Write ``config`` as OUT/net.cfg and run train, extract train,
    extract test and classify into OUT; returns the first nonzero exit
    code, or 0."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror or exc}") from None
    config_path = out / "net.cfg"
    save_config(config_path, config)
    data = str(args.data_root)
    commands = [("train", [
        "train", "--config", str(config_path), "--data-root", data,
        "--out", str(out), "--dataset", args.dataset,
        "--epochs", str(args.epochs), "--seed", str(args.seed),
    ])]
    commands += [(f"extract {split}", [
        "extract", "--checkpoint", str(out / f"epoch_{args.epochs:02d}.ckpt"),
        "--config", str(config_path), "--data-root", data,
        "--dataset", args.dataset, "--split", split,
        "--out", str(out / f"{split}.features"),
    ]) for split in ("train", "test")]
    commands.append(("classify", [
        "classify", "--train-features", str(out / "train.features"),
        "--test-features", str(out / "test.features"),
        "--seed", str(args.seed),
        "--out", str(out / "report.json"),
    ]))
    timings = []
    for name, argv in commands:
        code = _run_child(name, argv, timings, out)
        if code != 0:
            return code
    return 0


def planned_runs(args) -> list:
    """(run directory, config) per run, every config loaded and validated."""
    out = Path(args.out_dir)
    if args.knob is None:
        config = (load_config(args.config) if args.config
                  else NetworkConfig(n_classes=CLASS_COUNTS[args.dataset]))
        return [(out, config)]
    field = ABLATION_KNOBS[args.knob]
    configs = [load_config(args.config, overrides={field: value}) for value in args.values]
    repeats = []  # "1" for a value given twice, "1 (as 01)" for another spelling of it
    for i, config in enumerate(configs):
        first = configs.index(config)  # the first value that loads to this network
        if first < i:
            value, earlier = args.values[i], args.values[first]
            repeat = earlier if earlier == value else f"{earlier} (as {value})"
            if repeat not in repeats:
                repeats.append(repeat)
    if repeats:
        raise ConfigError(f"--values repeats {', '.join(repeats)}; each value's run "
                          "would train the same network")
    return [(out / f"{args.knob}_{value}", config)
            for value, config in zip(args.values, configs)]


def report_ablation(out: Path, knob: str, values: list) -> None:
    """Print the accuracy table and write OUT/ablation.json from each
    value's report.json."""
    rows = [(value, json.loads((out / f"{knob}_{value}" / "report.json").read_text())
             ["accuracy"]) for value in values]
    printed = [(value, float("nan") if accuracy is None else accuracy)
               for value, accuracy in rows]
    print(f"ABLATION knob={knob}")
    print(f"{knob:>12}  accuracy")
    for value, accuracy in printed:
        print(f"{value:>12}  {accuracy:.4f}")
    for value, accuracy in printed:
        print(f"ABLATE {knob}={value} acc={accuracy:.4f}")
    text = json.dumps({"knob": knob, "rows": [{"value": value, "accuracy": accuracy}
                                              for value, accuracy in rows]},
                      indent=2, sort_keys=True, allow_nan=False) + "\n"
    write_atomic(out / "ablation.json", lambda fh: fh.write(text))


def run(args) -> int:
    if args.epochs < 1:  # extraction reads the last epoch's checkpoint
        print(f"error: --epochs must be >= 1, got {args.epochs}", file=sys.stderr)
        return 2
    if args.seed < 0:  # numpy's generators take no negative seed
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    data = Path(args.data_root)
    for index in ("train.txt", "test.txt"):  # both splits are read, the test one last
        if not (data / index).is_file():
            print(f"error: no {index} under {data}; convert the dataset first "
                  "(layout: docs/formats.md)", file=sys.stderr)
            return 2
    try:
        for out, config in planned_runs(args):
            code = run_chain(out, config, args)
            if code != 0:
                return code
        if args.knob is not None:
            report_ablation(Path(args.out_dir), args.knob, args.values)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data_root")
    parser.add_argument("out_dir")
    parser.add_argument("--dataset", choices=sorted(CLASS_COUNTS), default="dhg14")
    parser.add_argument("--config", default=None)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--knob", choices=sorted(ABLATION_KNOBS), default=None)
    parser.add_argument("--values", nargs="+", default=None)
    args = parser.parse_args(argv)
    if (args.knob is None) != (args.values is None):
        parser.error("--knob and --values go together")
    if args.knob is not None and args.config is None:
        parser.error("--knob needs --config, the network each value changes")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
