"""Smoke tests that keep the benchmark harness from rotting.

    python3 -m pytest perfbench -q

Every test runs the tiny ``--smoke`` configuration; no timing is
asserted anywhere.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from inputs import SMOKE, WORKLOADS, generate  # noqa: E402
from probes import PER_LAYER_METRICS, layer_metrics  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402
from workloads import WORKLOAD_TYPES, load_reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 21):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["run_info"], json.loads(lines[-1]))
    return out


def test_spec_names_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in PER_LAYER_METRICS]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_follows_the_spec(runs, workload, trace):
    _, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] != 0


def test_run_info_records_the_environment(runs):
    info, _ = runs["extract", 0]
    for key in ("git_revision", "src_sha256", "nproc", "python", "numpy", "blas", "seed",
                "sizes", "samples"):
        assert key in info
    assert set(info["blas"]) == {"name", "version", "threads"}
    assert info["samples"]["units"] >= 1
    # the host's speed is sampled before the first call and after each call
    steps = SMOKE.extract_seqs + 1
    assert info["samples"]["setup_host_speed"] == 1 + SMOKE.setup_reps
    assert info["samples"]["unit_host_speed"] == 1 + steps * info["samples"]["units"]
    assert info["derived"]["extract_seq_per_s"] > 0
    # train_network is one call; its pause points sample the host inside it
    info, _ = runs["train", 0]
    assert info["pause_points_absent"] == []
    assert info["samples"]["unit_host_speed"] > 1 + info["samples"]["units"]


def test_traced_train_reports_every_layer_and_accounts_for_its_time(runs):
    info, result = runs["train", 1]
    trace = info["tracing"]
    assert trace["absent"] == []
    metrics = result["metrics"]
    for layer in ("layers.st_branch_forward", "layers.ts_branch_forward", "layers.conv_forward",
                  "layers.spd_agg_forward", "symmat.assert_spd", "layers.head_forward",
                  "layers.branch_backward.st", "layers.branch_backward.ts",
                  "layers.conv_backward", "layers.spd_agg_backward", "layers.head_backward",
                  "network.backward", "optim.stiefel_step", "symmat.qr_orthonormalize",
                  "optim.euclid_sgd_step", "training.train_network"):
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    assert metrics["skeleton.load_dhg.calls"]["value"] == 1
    # train_network is wrapped, so the layers' self times cover the
    # traced units' wall time but for the wrappers' own cost
    unaccounted = metrics["trace.unaccounted_frac"]["value"]
    assert 0.0 <= unaccounted < 0.02
    assert trace["layer_self_s"] == pytest.approx(trace["traced_wall_s"] * (1 - unaccounted))


def test_traced_classify_and_extract_see_their_layers(runs):
    _, classify = runs["classify", 1]
    m = classify["metrics"]
    assert m["svm.dual_cd.passes"]["value"] >= 1
    assert m["svm.load_features.calls"]["value"] == 2
    assert m["svm.load_features.mb_per_s"]["value"] > 0
    assert m["layers.st_branch_forward.calls"]["value"] == 0
    _, extract = runs["extract", 1]
    m = extract["metrics"]
    assert m["network.extract_features.calls"]["value"] == 1
    assert m["svm.save_features.mb_per_s"]["value"] > 0
    assert m["optim.stiefel_step.calls"]["value"] == 0


def test_missing_layer_is_reported_absent_and_the_run_completes():
    def layer(x):
        return x + 1

    module = type(sys)("fake_layers")
    module.layer = layer
    sys.modules["fake_layers"] = module
    try:
        tracer = Tracer([Probe("fake_layers", "layer", "fake.layer"),
                         Probe("fake_layers", "batched_away", "fake.gone"),
                         Probe("no_such_module", "layer", "fake.nomodule")]).install()
        tracer.start("unit")
        assert module.layer(1) == 2
        tracer.stop()
        tracer.remove()
        assert module.layer is layer
        assert tracer.absent == ["fake_layers.batched_away", "no_such_module.layer"]
        assert tracer.stats("unit")["fake.layer"].calls == 1
        wall = tracer.stats("unit")["fake.layer"].total_s
        values, _ = layer_metrics(tracer, traced_units=1, items_per_unit=1, setups=1,
                                  traced_wall_s=4 * wall, overhead_frac=0.0)
        assert values["trace.absent_layers"] == 2
        assert values["trace.unaccounted_frac"] == pytest.approx(0.75)
        assert values["layers.st_branch_forward.calls"] == 0
    finally:
        del sys.modules["fake_layers"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_wrong_outputs(tmp_path, workload):
    generate(workload, SMOKE, 5, tmp_path)
    reference = load_reference(SMOKE, workload)
    wl = WORKLOAD_TYPES[workload](scale=SMOKE, workdir=tmp_path, pool=5, reference=reference)
    wl.setup()
    output = wl.unit()
    assert wl.check(output) == 0
    if workload == "train":
        reference["train_final_loss"] = reference["train_final_loss"] * (1 + 1e-7)
        assert wl.check(output) == wl.items_per_unit
    elif workload == "extract":
        feats, path = output
        feats = feats.copy()
        feats[1] *= 1 + 1e-6
        assert wl.check((feats, path)) == wl.items_per_unit  # file no longer matches
        reference["extract_sketch"] = reference["extract_sketch"].copy()
        reference["extract_sketch"][5, 2] += 1e-6 * reference["extract_norm"][5, 2]
        assert wl.check(output) == 1
    else:
        wrong = np.array(output)
        wrong[0] = wrong[0] + 1
        assert wl.check(wrong) == 1


def test_same_seed_same_inputs(tmp_path):
    generate("train", SMOKE, 3, tmp_path / "a")
    generate("train", SMOKE, 3, tmp_path / "b")
    generate("train", SMOKE, 4, tmp_path / "c")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.txt"))
    assert len(files) == SMOKE.train_seqs + 1
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    seq = files[0]
    assert seq.parts[-2] == "sequences"
    assert (tmp_path / "a" / seq).read_bytes() != (tmp_path / "c" / seq).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
