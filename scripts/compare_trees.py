#!/usr/bin/env python3
"""Check that a change keeps the numbers of its parent, bit for bit.

PARENT and CHANGE are source trees (checkouts holding `src/spdhgr` and
`scripts/`). Each tree runs in child processes of its own, with
PYTHONPATH set to its `src` alone, and the script compares:

- tensors: at paper scale with fixed seeds, for `st_ts`, `st_only` and
  `ts_only`, the probabilities, the final SPD matrix Y, the feature
  vector and the four `network.backward` gradients at a nonzero FC
  weight, computed once pinned to one CPU (`os.sched_setaffinity`) and
  once on all cores. Per tensor it prints "bitwise equal", or the
  largest element difference over the tensor's largest element.
- gradcheck: the lines `spdhgr gradcheck --trials 5` prints.
- scripts: every file `scripts/overfit_synthetic.py` and
  `scripts/ablate_synthetic.py` write, byte for byte, except that
  `manifest.json` is compared as JSON without its wall times.

It exits 0 when everything is equal, 1 on any difference and 2 when a
tree cannot run.

Usage: python3 scripts/compare_trees.py PARENT CHANGE
"""

import argparse
import dataclasses
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# numpy is imported inside the functions that use it, so that a tensor
# child pins its CPU before numpy starts any thread

PAPER = {"n_classes": 14, "d_out_c": 9, "d_out_s": 200, "n_frames": 500, "t0": 1,
         "n_chunks": 15}
VARIANTS = ("st_ts", "st_only", "ts_only")
SEED = 0
SCRIPTS = ("overfit_synthetic.py", "ablate_synthetic.py")
GRADCHECK = ("-m", "spdhgr", "gradcheck", "--trials", "5")


class TreeFailed(Exception):
    """A child process of one tree exited nonzero."""


def _run(tree: Path, *args: str, codes=(0,)) -> str:
    """Run ``python ARGS`` with the tree's package alone on PYTHONPATH;
    returns its standard output, or raises TreeFailed for an exit code
    not in ``codes``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    done = subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True)
    if done.returncode not in codes:
        raise TreeFailed(f"{tree}: {' '.join(map(str, args))} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return done.stdout


def _tensor_child(tree: str, out: str, one_cpu: str, config: str) -> None:
    """Write the compared tensors of every variant to ``out`` (.npz)."""
    if one_cpu == "1":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy as np
    from spdhgr import network

    src = Path(tree).resolve() / "src"
    if src not in Path(network.__file__).resolve().parents:
        raise SystemExit(f"imported {network.__file__}, not the package under {src}")
    tensors = {}
    for variant in VARIANTS:
        cfg = network.NetworkConfig(**json.loads(config), variant=variant).validate()
        rng = np.random.default_rng(SEED)
        params = network.init_params(cfg, SEED)
        params.fc_weight = 0.1 * rng.standard_normal(params.fc_weight.shape)
        coords = rng.standard_normal((cfg.n_frames, 20, 3))
        probs, ctx, y = network.forward(coords, params, cfg)
        grads = network.backward(ctx, int(rng.integers(cfg.n_classes)))
        tensors.update({f"{variant}/probs": probs, f"{variant}/Y": y,
                        f"{variant}/features": network.extract_features(coords, params, cfg)})
        for field in dataclasses.fields(grads):
            tensors[f"{variant}/grad_{field.name}"] = getattr(grads, field.name)
    np.savez(out, **tensors)


def tensors_of(tree, one_cpu: bool, config=None) -> dict:
    """The compared tensors of ``tree`` (name -> array), from a child
    process pinned to one CPU or on all cores; ``config`` holds the
    `NetworkConfig` fields (default: paper scale)."""
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "tensors.npz"
        _run(tree, __file__, "--tensor-child", tree, out, int(one_cpu),
             json.dumps(config or PAPER))
        with np.load(out) as stored:
            return {name: stored[name] for name in stored.files}


def compare_tensors(parent: dict, change: dict) -> list[tuple[str, bool, str]]:
    """(name, equal, verdict) per tensor of either side, in sorted order."""
    import numpy as np

    rows = []
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            rows.append((name, False, f"only in {'parent' if name in parent else 'change'}"))
            continue
        a, b = parent[name], change[name]
        if a.shape != b.shape:
            rows.append((name, False, f"shape {a.shape} -> {b.shape}"))
        elif a.tobytes() == b.tobytes():
            rows.append((name, True, "bitwise equal"))
        else:
            scale = float(np.max(np.abs([a, b]), initial=0.0))
            diff = float(np.max(np.abs(a - b)))
            rows.append((name, False,
                         f"max |diff| / max |x| = {diff / scale if scale else diff:.3e}"))
    return rows


def diff_lines(parent: str, change: str) -> list[str]:
    """The differing lines of two texts, as '-' (parent) and '+' (change)."""
    return [line for line in difflib.unified_diff(parent.splitlines(), change.splitlines(),
                                                  lineterm="", n=0)
            if line[:1] in "-+" and line[:3] not in ("---", "+++")]


def _drop_wall_times(value):
    if isinstance(value, dict):
        return {k: _drop_wall_times(v) for k, v in value.items() if not k.endswith("wall_time_s")}
    if isinstance(value, list):
        return [_drop_wall_times(v) for v in value]
    return value


def _json_diff(parent, change, path="") -> list[str]:
    """Key paths whose values differ between two JSON values."""
    if isinstance(parent, dict) and isinstance(change, dict):
        return [line for key in sorted(set(parent) | set(change))
                for line in _json_diff(parent.get(key, "(absent)"), change.get(key, "(absent)"),
                                       f"{path}.{key}" if path else key)]
    if (isinstance(parent, list) and isinstance(change, list)
            and len(parent) == len(change)):
        return [line for i, (a, b) in enumerate(zip(parent, change))
                for line in _json_diff(a, b, f"{path}[{i}]")]
    return [] if parent == change else [f"{path or '(root)'}: {parent!r} -> {change!r}"]


def compare_dirs(parent, change) -> list[tuple[str, list[str]]]:
    """(relative path, differences) per file under either directory, in
    sorted order; no differences means equal. A `manifest.json` is
    compared as JSON without its wall times, a text file by line."""
    parent, change = Path(parent), Path(change)
    files = {p.relative_to(root) for root in (parent, change) for p in root.rglob("*")
             if p.is_file()}
    rows = []
    for rel in sorted(files):
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            rows.append((str(rel), [f"only in {'parent' if a.is_file() else 'change'}"]))
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if rel.name == "manifest.json":
            found = _json_diff(*(_drop_wall_times(json.loads(d)) for d in (data_a, data_b)))
        elif data_a == data_b:
            found = []
        else:
            try:
                found = diff_lines(data_a.decode("utf-8"), data_b.decode("utf-8"))
            except UnicodeDecodeError:
                found = []
            if not found:
                at = next((i for i, (x, y) in enumerate(zip(data_a, data_b)) if x != y),
                          min(len(data_a), len(data_b)))
                found = [f"bytes differ from offset {at} ({len(data_a)} -> {len(data_b)} bytes)"]
        rows.append((str(rel), found))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    for name, tree in trees.items():
        if not (tree / "src" / "spdhgr").is_dir():
            parser.error(f"{name} {tree} holds no src/spdhgr")
    differences = 0
    try:
        for one_cpu in (True, False):
            print(f"== tensors, {'one CPU' if one_cpu else 'all cores'}")
            rows = compare_tensors(*(tensors_of(t, one_cpu) for t in trees.values()))
            for name, equal, verdict in rows:
                print(f"{name}: {verdict}")
                differences += not equal

        print("== spdhgr gradcheck --trials 5")
        # gradcheck exits 1 when a check fails, which the diff then shows
        found = diff_lines(*(_run(t, *GRADCHECK, codes=(0, 1)) for t in trees.values()))
        print("\n".join(found) if found else "same output")
        differences += bool(found)

        with tempfile.TemporaryDirectory() as workdir:
            for script in SCRIPTS:
                print(f"== scripts/{script}")
                outs = [Path(workdir) / name / Path(script).stem for name in trees]
                for tree, out in zip(trees.values(), outs):
                    _run(tree, tree / "scripts" / script, out)
                rows = compare_dirs(*outs)
                for rel, found in rows:
                    if found:
                        differences += 1
                        print(f"{rel}: differs")
                        print("\n".join(f"    {line}" for line in found))
                print(f"{len(rows)} files compared")
    except TreeFailed as error:
        print(f"compare_trees: {error}", file=sys.stderr)
        return 2
    print("SAME" if differences == 0 else f"DIFFERENT: {differences} item(s) differ")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--tensor-child"]:
        _tensor_child(*sys.argv[2:])
    else:
        sys.exit(main())
