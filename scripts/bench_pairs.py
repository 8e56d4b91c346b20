#!/usr/bin/env python3
"""Run the benchmark on a parent and a change in interleaved pairs.

PARENT and CHANGE are source trees (checkouts holding `src/spdhgr`).
Each tree's `src/` is copied into a temporary directory of its own, next
to the same `perfbench/` and `BENCHMARK.json`, both taken from CHANGE, so
the benchmark code is identical on both sides and both run in the same
kind of directory (a run inside a git checkout reads a higher peak
memory than one in a plain copy). Both copies are byte-compiled first,
since classify's set-up times a fresh interpreter's imports.

Then `perfbench/run.py`, unchanged, runs once per tree and pair, with a
fresh seed per pair, alternating which tree goes first, for
BENCHMARK.json's `run_seconds` (or `--smoke --seconds 1` with
`--smoke`). Each run must report `correct` true and no failed
operation. Beside each run the script records the host's CPU steal
(from /proc/stat) during it, and a two-thread sample taken before it:
`eigh` of two halves of 2,530 10x10 matrices on two threads against in
series, which shows whether the second core is there (a one-thread
kernel cannot see it go away), and the CPU seconds the run used per
wall second (`getrusage` of the children, user plus system): about 1.0
when no second thread ran alongside the first in that run, above 1 when
one did (in train and extract, the network's table threads). That
figure also counts the run's own children, the input writer and the
host-speed sampler.

Per end-to-end metric it prints each tree's median and quartiles,
"lower in k of n" pairs, and whether a gain holds: the change better in
at least nine of ten pairs, and its median better than the parent's by
more than the parent's interquartile range.

`--record PATH` also runs one traced run per tree and workload, and
writes the revisions, `nproc`, numpy and the BLAS, per workload the
medians and IQRs (host-normalised, and raw wall times), every run, and
the traced per-layer `self_ms`, as JSON.

It exits 0 when every run was correct, 1 when one was not (it stops
there), and 2 when a run cannot start or prints no result.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W [W ...]
           --pairs N [--smoke] [--record PATH]
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
IGNORED = shutil.ignore_patterns("__pycache__", "*.egg-info", ".perfbench_work")
EIGH_STACK = 2530  # 10x10 window matrices, as in one paper-scale st table
GAIN_SHARE = 0.9  # pairs in which the change must be better


class RunFailed(Exception):
    """A benchmark run could not start or printed no result."""


def prepare(tree: Path, bench: Path, dest: Path) -> Path:
    """``dest`` holding ``tree``'s src and ``bench``'s perfbench/ and
    BENCHMARK.json, byte-compiled."""
    shutil.copytree(tree / "src", dest / "src", ignore=IGNORED)
    shutil.copytree(bench / "perfbench", dest / "perfbench", ignore=IGNORED)
    shutil.copy2(bench / "BENCHMARK.json", dest / "BENCHMARK.json")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True,
                   stdout=subprocess.DEVNULL)
    return dest


def revision(tree: Path):
    if not (tree / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() or None


def steal_ticks():
    """Cumulative CPU steal of the host, in clock ticks (None if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def children_cpu_s() -> float:
    """User plus system CPU seconds of the waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def eigh_sample(stack) -> dict:
    """Milliseconds for `eigh` of the two halves of ``stack`` in series
    and on two threads (each the best of 3)."""
    halves = np.array_split(stack, 2)

    def on_threads():
        threads = [threading.Thread(target=np.linalg.eigh, args=(h,)) for h in halves]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    best = {}
    for name, fn in (("series_ms", lambda: [np.linalg.eigh(h) for h in halves]),
                     ("threads_ms", on_threads)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(1e3 * (time.perf_counter() - t0))
        best[name] = min(times)
    best["ratio"] = best["threads_ms"] / best["series_ms"]
    return best


def run_once(side_dir: Path, workload: str, seed: int, seconds: float, smoke: bool,
             trace: int = 0):
    """(run information, result line, steal seconds, CPU seconds per wall
    second) of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before, cpu_before = steal_ticks(), children_cpu_s()
    t_start = time.perf_counter()
    done = subprocess.run(argv, cwd=side_dir, env=env, capture_output=True, text=True)
    cpu_per_wall = (children_cpu_s() - cpu_before) / (time.perf_counter() - t_start)
    after = steal_ticks()
    lines = done.stdout.strip().splitlines()
    try:
        info, result = json.loads(lines[-2])["run_info"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        raise RunFailed(f"{side_dir.name} seed {seed}: exit {done.returncode}, no result:\n"
                        f"{done.stderr.strip()}") from None
    steal = (None if None in (before, after)
             else (after - before) / os.sysconf("SC_CLK_TCK"))
    return info, result, steal, cpu_per_wall


def stats(values) -> dict:
    q1, med, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent, change, better: str) -> dict:
    """The pair counts and the gain rule for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = stats(parent), stats(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    gain = (wins >= math.ceil(GAIN_SHARE * len(parent))
            and sign * (p["median"] - c["median"]) > p["iqr"])
    return {"parent": p, "change": c, "n": len(parent),
            "lower_in": sum(b < a for a, b in zip(parent, change)), "gain_holds": bool(gain)}


def bench_workload(sides, workload, pairs, seconds, smoke, metrics, stack):
    """Run the pairs of one workload; returns its record, or None after
    printing the first run that is not correct."""
    runs = []
    for pair in range(pairs):
        seed = pair + 1
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            sample = eigh_sample(stack)
            info, result, steal, cpu_per_wall = run_once(sides[side], workload, seed,
                                                         seconds, smoke)
            runs.append({"pair": pair, "side": side, "seed": seed, "first": side == order[0],
                         "steal_s": steal, "cpu_per_wall": cpu_per_wall,
                         "eigh_two_threads": sample, "info": info,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            if not (result["correct"] is True and result["failed"] == 0):
                print(f"{workload}: {side} seed {seed} not correct "
                      f"(failed {result['failed']} of {result['attempted']})")
                return None
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    record = {"seeds": list(range(1, pairs + 1)), "metrics": {}, "raw": {},
              "environment": {key: runs[0]["info"][key] for key in ("nproc", "numpy", "blas")}}
    print(f"== {workload}: {pairs} pair(s)")
    for metric in metrics:
        name = metric["name"]
        series = [[r["metrics"][name] for r in by_side[side]] for side in SIDES]
        v = verdict(*series, metric["better"])
        record["metrics"][name] = {"unit": metric["unit"], "better": metric["better"], **v}
        print(f"{name} ({metric['better']} is better): "
              + "  ".join(f"{side} {v[side]['median']:.4g} [{v[side]['q1']:.4g}, "
                          f"{v[side]['q3']:.4g}]" for side in SIDES)
              + f"  lower in {v['lower_in']} of {v['n']}"
              + f"  gain holds: {'yes' if v['gain_holds'] else 'no'}")
    for key in ("unit_wall_s", "setup_wall_s"):
        record["raw"][key] = {side: stats([float(np.median(r["info"][key]))
                                           for r in by_side[side]]) for side in SIDES}
    steals = [r["steal_s"] for r in runs if r["steal_s"] is not None]
    ratios = [r["eigh_two_threads"]["ratio"] for r in runs]
    cpu = [r["cpu_per_wall"] for r in runs]
    print(f"steal per run: max {max(steals, default=0.0):.2f} s; two-thread eigh / series: "
          f"{min(ratios):.2f}-{max(ratios):.2f}; CPU per wall second: "
          f"{min(cpu):.2f}-{max(cpu):.2f}")
    for r in runs:
        info = r.pop("info")
        r["unit_wall_s"] = float(np.median(info["unit_wall_s"]))
        r["setup_wall_s"] = float(np.median(info["setup_wall_s"]))
    record["runs"] = runs
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's tiny configuration, one second per run")
    parser.add_argument("--record", type=Path, help="write the record as JSON here")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in trees.items():
        if not (tree / "src" / "spdhgr").is_dir():
            parser.error(f"{name} {tree} holds no src/spdhgr")
    if not (trees["change"] / "perfbench" / "run.py").is_file():
        parser.error(f"change {trees['change']} holds no perfbench/run.py")
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {names}")
    seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((EIGH_STACK, 10, 10))
    stack = stack @ stack.transpose(0, 2, 1) + np.eye(10)

    record = {"revision": {side: revision(tree) for side, tree in trees.items()},
              "pairs": args.pairs, "smoke": args.smoke, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {side: prepare(tree, trees["change"], Path(tmp) / side)
                 for side, tree in trees.items()}
        try:
            for workload in args.workload:
                found = bench_workload(sides, workload, args.pairs, seconds, args.smoke,
                                       bench["end_to_end"], stack)
                if found is None:
                    return 1
                record["workloads"][workload] = found
                record.update(found.pop("environment"))
                if args.record:
                    found["per_layer_self_ms"] = {}
                    for side in SIDES:
                        info, result, *_ = run_once(sides[side], workload, 1, seconds,
                                                    args.smoke, trace=1)
                        found["per_layer_self_ms"][side] = {
                            k: v["value"] for k, v in result["metrics"].items()
                            if k.endswith(".self_ms")}
                        record.setdefault("src_sha256", {})[side] = info["src_sha256"]
        except RunFailed as error:
            print(f"bench_pairs: {error}", file=sys.stderr)
            return 2
    if args.record:
        record["python"] = platform.python_version()
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
