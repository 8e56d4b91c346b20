"""Which program functions the traced run wraps, and the per-layer metrics.

Network layers are reported per item (one sequence trained or
extracted): ``<layer>.calls`` in count/item and ``<layer>.self_ms`` in
ms/item. SVM, feature I/O and set-up layers are reported per call:
``.calls`` per traced unit (or per set-up for ``skeleton.*``) and
``.self_ms`` in ms/call. A layer the workload does not run reads 0.

The end-to-end metric each layer should move, and on which workload, is
recorded in BENCHMARK.json (the ``why`` of each workload) and in
README.md next to this file.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import LayerStats, Probe, Tracer


def _branch_kind(args):
    return getattr(args[0], "kind", None) if args else None


def _file_bytes(args, _result):
    return os.path.getsize(args[0])


def _dual_cd_passes(_args, result):
    return len(result[2])  # per-pass dual objectives


PROBES = (
    # forward layers, bound in spdhgr.network by forward()
    Probe("spdhgr.network", "conv_forward", "layers.conv_forward"),
    Probe("spdhgr.network", "st_branch_forward", "layers.st_branch_forward"),
    Probe("spdhgr.network", "ts_branch_forward", "layers.ts_branch_forward"),
    Probe("spdhgr.network", "spd_agg_forward", "layers.spd_agg_forward"),
    Probe("spdhgr.layers", "assert_spd", "symmat.assert_spd"),
    Probe("spdhgr.network", "head_forward", "layers.head_forward"),
    # forward() itself: called by extract_features and by the training loop
    Probe("spdhgr.network", "forward", "network.forward"),
    Probe("spdhgr.training", "forward", "network.forward"),
    # backward layers
    Probe("spdhgr.training", "backward", "network.backward"),
    Probe("spdhgr.network", "branch_backward", "layers.branch_backward", split=_branch_kind),
    Probe("spdhgr.network", "conv_backward", "layers.conv_backward"),
    Probe("spdhgr.network", "spd_agg_backward", "layers.spd_agg_backward"),
    Probe("spdhgr.network", "head_backward", "layers.head_backward"),
    # optimizer and training loop
    Probe("spdhgr.training", "stiefel_step", "optim.stiefel_step"),
    Probe("spdhgr.optim", "qr_orthonormalize", "symmat.qr_orthonormalize"),
    Probe("spdhgr.training", "euclid_sgd_step", "optim.euclid_sgd_step"),
    Probe("spdhgr.training", "train_network", "training.train_network"),
    # feature extraction
    Probe("spdhgr.network", "extract_representation", "layers.extract_representation"),
    Probe("spdhgr.network", "extract_features", "network.extract_features"),
    # SVM and feature files; _dual_cd is the only private name wrapped
    Probe("spdhgr.svm", "save_features", "svm.save_features", count=_file_bytes),
    Probe("spdhgr.svm", "load_features", "svm.load_features", count=_file_bytes),
    Probe("spdhgr.svm", "svm_train", "svm.svm_train"),
    Probe("spdhgr.svm", "_dual_cd", "svm.dual_cd", count=_dual_cd_passes),
    Probe("spdhgr.svm", "svm_predict_batch", "svm.svm_predict_batch"),
    # set-up
    Probe("spdhgr.skeleton", "load_dhg", "skeleton.load_dhg"),
    Probe("spdhgr.skeleton", "resample", "skeleton.resample"),
)

PER_ITEM_LAYERS = (
    "layers.st_branch_forward",
    "layers.ts_branch_forward",
    "layers.conv_forward",
    "layers.spd_agg_forward",
    "symmat.assert_spd",
    "layers.head_forward",
    "network.forward",
    "layers.branch_backward.st",
    "layers.branch_backward.ts",
    "layers.conv_backward",
    "layers.spd_agg_backward",
    "layers.head_backward",
    "network.backward",
    "optim.stiefel_step",
    "symmat.qr_orthonormalize",
    "optim.euclid_sgd_step",
    "training.train_network",
    "layers.extract_representation",
    "network.extract_features",
)
PER_CALL_LAYERS = (
    "svm.save_features",
    "svm.load_features",
    "svm.svm_train",
    "svm.dual_cd",
    "svm.svm_predict_batch",
)
SETUP_LAYERS = ("skeleton.load_dhg", "skeleton.resample")
IO_LAYERS = ("svm.save_features", "svm.load_features")

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER_METRICS = (
    [m for layer in PER_ITEM_LAYERS for m in (
        (f"{layer}.calls", "count/item", "lower"),
        (f"{layer}.self_ms", "ms/item", "lower"),
    )]
    + [
        ("network.extract_features.ms_p50", "ms", "lower"),
        ("network.extract_features.ms_p_hi", "ms", "lower"),
        ("network.extract_features.p_hi", "%", "higher"),
    ]
    + [m for layer in PER_CALL_LAYERS + SETUP_LAYERS for m in (
        (f"{layer}.calls", "count/unit" if layer in PER_CALL_LAYERS else "count/setup", "lower"),
        (f"{layer}.self_ms", "ms/call", "lower"),
    )]
    + [(f"{layer}.mb_per_s", "MB/s", "higher") for layer in IO_LAYERS]
    + [
        ("svm.dual_cd.passes", "count/call", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.unaccounted_frac", "frac", "lower"),
        ("trace.absent_layers", "count", "lower"),
    ]
)

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (50 at least)."""
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def layer_metrics(tracer: Tracer, *, traced_units: int, items_per_unit: int,
                  setups: int, traced_wall_s: float,
                  overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metric values and the sample counts behind them.

    ``trace.unaccounted_frac`` is the share of the traced units' wall
    time that no layer's self time covers: time outside every wrapped
    call, or spent in a layer whose name has gone absent.
    """
    units = tracer.stats("unit")
    setup = tracer.stats("setup")
    items = traced_units * items_per_unit
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def get(stats, name):
        return stats.get(name, LayerStats())

    for layer in PER_ITEM_LAYERS:
        st = get(units, layer)
        values[f"{layer}.calls"] = st.calls / items
        values[f"{layer}.self_ms"] = 1e3 * st.self_s / items
        samples[layer] = st.calls

    durations = np.array(get(units, "network.extract_features").durations) * 1e3
    p_hi = tail_percentile(durations.size)
    values["network.extract_features.ms_p50"] = (
        float(np.percentile(durations, 50)) if durations.size else 0.0)
    values["network.extract_features.ms_p_hi"] = (
        float(np.percentile(durations, p_hi)) if durations.size else 0.0)
    values["network.extract_features.p_hi"] = p_hi
    samples["network.extract_features.percentiles"] = int(durations.size)

    for layer, stats, per in ([(n, units, traced_units) for n in PER_CALL_LAYERS]
                              + [(n, setup, setups) for n in SETUP_LAYERS]):
        st = get(stats, layer)
        values[f"{layer}.calls"] = st.calls / per
        values[f"{layer}.self_ms"] = 1e3 * st.self_s / st.calls if st.calls else 0.0
        samples[layer] = st.calls
    for layer in IO_LAYERS:
        st = get(units, layer)
        values[f"{layer}.mb_per_s"] = st.counted / 1e6 / st.total_s if st.total_s else 0.0
    st = get(units, "svm.dual_cd")
    values["svm.dual_cd.passes"] = st.counted / st.calls if st.calls else 0.0
    values["trace.overhead_frac"] = overhead_frac
    layer_self_s = sum(st.self_s for st in units.values())
    values["trace.unaccounted_frac"] = (
        1.0 - layer_self_s / traced_wall_s if traced_wall_s > 0 else 0.0)
    values["trace.absent_layers"] = len(tracer.absent)
    return values, samples
