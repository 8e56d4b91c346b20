import dataclasses
import multiprocessing
import os
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdhgr import blas, layers, network, optim, symmat
from spdhgr.errors import ConfigError, InvalidInput, NumericalFailure
from spdhgr.gradcheck import TINY_CONFIG, rel_error
from spdhgr.layers import cross_entropy
from spdhgr.network import (
    NetworkConfig,
    NetworkParams,
    PARAM_TENSORS,
    VARIANTS,
    backward,
    extract_features,
    forward,
    init_params,
    load_config,
    load_params,
    save_config,
    save_params,
)
from spdhgr.optim import load_checkpoint, save_checkpoint, stiefel_error
from spdhgr.skeleton import N_GRID_NODES, SkeletonSequence, build_branch_plan, resample
from spdhgr.symmat import spd_log, spectral_grad, sym_vectorize

TINY = TINY_CONFIG


def tiny_coords(rng, config=TINY):
    return rng.standard_normal((config.n_frames, N_GRID_NODES, 3))


class TestConfig:
    def test_derived_dims_default(self):
        config = NetworkConfig(n_classes=14)
        assert config.d_in_s == 56
        assert config.n_inputs == 60
        assert config.feature_dim == 20100
        config.validate()
        st = NetworkConfig(n_classes=14, variant="st_only")
        assert st.n_inputs * st.d_in_s == 1680
        st.validate()

    def test_tiny_dims(self):
        assert TINY.d_in_s == 7
        assert TINY.n_inputs == 60
        TINY.validate()

    def test_width_constraint(self):
        with pytest.raises(ConfigError, match="aggregation width"):
            NetworkConfig(n_classes=2, d_out_c=2, d_out_s=421, n_frames=12,
                          n_chunks=2).validate()
        # 30-branch variants halve the width
        NetworkConfig(n_classes=2, d_out_c=2, d_out_s=210, n_frames=12,
                      n_chunks=2, variant="st_only").validate()
        with pytest.raises(ConfigError):
            NetworkConfig(n_classes=2, d_out_c=2, d_out_s=211, n_frames=12,
                          n_chunks=2, variant="st_only").validate()

    def test_invalid_fields(self):
        for kwargs in (
            dict(n_classes=1),
            dict(n_classes=2, t0=0),
            dict(n_classes=2, n_chunks=1),
            dict(n_classes=2, epsilon=0.0),
            dict(n_classes=2, variant="both"),
            dict(n_classes=2, grid_mode="mesh"),
            dict(n_classes=2, n_frames=5),
        ):
            with pytest.raises(ConfigError):
                NetworkConfig(**kwargs).validate()

    @pytest.mark.parametrize("key", ["epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_epsilon(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            NetworkConfig(n_classes=2, **{key: value}).validate()

    def test_branch_feasibility(self):
        # the shortest plan branch (a third) must hold the window and the chunks
        with pytest.raises(ConfigError, match="window"):
            NetworkConfig(n_classes=2, n_frames=12, t0=3, n_chunks=2).validate()
        with pytest.raises(ConfigError, match="chunks"):
            NetworkConfig(n_classes=2, n_frames=12, t0=1, n_chunks=3).validate()

    @settings(max_examples=60, deadline=None)
    @given(n_frames=st.integers(6, 40), t0=st.integers(1, 7), n_chunks=st.integers(2, 8),
           variant=st.sampled_from(VARIANTS))
    def test_validate_accepts_exactly_what_every_branch_holds(self, n_frames, t0, n_chunks,
                                                            variant):
        """validate() accepts a config exactly when every branch of the plan
        holds a 2*t0+1 window (st) and n_chunks chunks of at least 2 frames
        (ts), and every config it accepts runs a forward pass."""
        config = NetworkConfig(n_classes=2, d_out_c=1, d_out_s=2, n_frames=n_frames,
                               t0=t0, n_chunks=n_chunks, variant=variant)
        lengths = [stop - start for start, stop, _ in build_branch_plan(n_frames)]
        fits = all((variant == "ts_only" or n >= 2 * t0 + 1)
                   and (variant == "st_only" or n >= 2 * n_chunks) for n in lengths)
        try:
            config.validate()
        except ConfigError:
            assert not fits
            return
        assert fits
        coords = np.random.default_rng(n_frames).standard_normal((n_frames, N_GRID_NODES, 3))
        probs, _, _ = forward(coords, init_params(config, 0), config)
        assert probs.shape == (2,) and np.all(np.isfinite(probs))

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "net.cfg"
        save_config(path, TINY)
        assert load_config(path) == TINY

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text(
            "# comment line\n"
            "n_classes = 3\n"
            "d_out_c=2  # trailing comment\n"
            "d_out_s=4\nn_frames=12\nn_chunks=2\n"
        )
        config = load_config(path)
        assert config.n_classes == 3 and config.d_out_c == 2

    def test_env_and_cli_overrides(self, tmp_path, monkeypatch):
        """The environment sets nothing; an explicit override (the
        benchmark driver's `--knob`) replaces the file's value."""
        path = tmp_path / "net.cfg"
        save_config(path, TINY)
        monkeypatch.setenv("SPDHGR_T0", "2")
        monkeypatch.setenv("SPDHGR_EPSILON", "0.5")
        assert load_config(path) == TINY
        config = load_config(path, overrides={"t0": "3", "n_frames": "24"})
        assert config == dataclasses.replace(TINY, t0=3, n_frames=24)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("n_classes=2\nwidth=9\n")
        with pytest.raises(ConfigError, match="width"):
            load_config(path)

    def test_missing_n_classes(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("d_out_c=3\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: config must set n_classes"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.cfg")

    @pytest.mark.parametrize("text, env, overrides, want", [
        ("n_classes=2\nt0=abc\n", {}, {},
         "{cfg}:2: t0: invalid literal for int() with base 10: 'abc'"),
        ("n_classes=2\n\nwidth=9\n", {}, {}, "{cfg}:3: unknown config key 'width'"),
        ("n_classes=2\n", {"SPDHGR_EPSILON": "x"}, {"epsilon": "y"},
         "override: epsilon: could not convert string to float: 'y'"),
        ("n_classes=2\nt0=abc\n", {"SPDHGR_T0": "2.5"}, {},
         "{cfg}:2: t0: invalid literal for int() with base 10: 'abc'"),
        ("n_classes=2\n", {}, {"n_chunks": "many"},
         "override: n_chunks: invalid literal for int() with base 10: 'many'"),
        ("n_classes=2\nt0=1\nt0=2\n", {}, {}, "{cfg}:3: 't0' set again, first at {cfg}:2"),
        ("n_classes=2\nepsilon=1e-4  # a comment\n\n epsilon = 1e-4\n", {}, {},
         "{cfg}:4: 'epsilon' set again, first at {cfg}:2"),
    ])
    def test_unparsable_value_names_key_and_source(self, tmp_path, monkeypatch, text, env,
                                                   overrides, want):
        """``env`` is set in the process environment, which sets no
        config value: the error names the file line or the override."""
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path, overrides=overrides)
        assert str(info.value) == want.format(cfg=path)

    @pytest.mark.parametrize("text, overrides, want", [
        ("n_classes=2\nn_frames=12\nt0=6\n", {},
         "{cfg}:3: branch of 4 frames is shorter than the window 13; "
         "{cfg}: branch of 4 frames cannot give 15 chunks of >= 2 frames"),
        ("n_classes=2\nt0=2\nn_chunks=2\n", {"t0": "0"}, "override: t0 must be >= 1, got 0"),
        ("n_classes=1\nd_out_c=2\nd_out_s=8000\n", {},
         "{cfg}:1: n_classes must be >= 2, got 1; "
         "{cfg}:3: d_out_s 8000 exceeds the aggregation width 60 * 7 = 420"),
    ])
    def test_invalid_value_names_where_its_key_was_set(self, tmp_path, text, overrides, want):
        """A key left at its default is named by the file alone; a config
        validated in code keeps the bare problems."""
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path, overrides=overrides)
        assert str(info.value) == want.format(cfg=path)
        values = {**dict(line.split("=") for line in text.split()), **overrides}
        with pytest.raises(ConfigError) as info:
            NetworkConfig(**{key: int(value) for key, value in values.items()}).validate()
        assert str(info.value) == re.sub(r"(override|\{cfg\}(:\d+)?): ", "", want)

    def test_unparsable_mapping_value_names_key(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("n_classes=2\nepsilon=tiny\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:2: epsilon: could not convert string to float")


class TestInitParams:
    def test_shapes_and_invariants(self):
        params = init_params(TINY, seed=0)
        assert params.conv.shape == (9, 2, 3)
        assert params.w_hat.shape == (4, 420)
        assert stiefel_error(params.w_hat) <= 1e-8
        assert params.fc_weight.shape == (2, 16)
        np.testing.assert_array_equal(params.fc_weight, 0.0)
        np.testing.assert_array_equal(params.fc_bias, 0.0)
        bound = np.sqrt(3.0 / (3.0 * TINY.d_out_c))
        assert np.max(np.abs(params.conv)) <= bound

    def test_deterministic(self):
        p1, p2 = init_params(TINY, seed=5), init_params(TINY, seed=5)
        assert np.array_equal(p1.conv, p2.conv)
        assert np.array_equal(p1.w_hat, p2.w_hat)

    def test_seed_changes_params(self):
        p1, p2 = init_params(TINY, seed=1), init_params(TINY, seed=2)
        assert not np.array_equal(p1.conv, p2.conv)

    @pytest.mark.parametrize("config", [
        NetworkConfig(n_classes=14),
        NetworkConfig(n_classes=2, d_out_c=2, d_out_s=210, n_frames=16, t0=1, n_chunks=2),
    ], ids=["200x3360", "210x420"])
    def test_same_bits_at_any_openblas_threads_and_after_a_pass(self, config,
                                                                  draw_in_subprocess):
        """The paper's weight and the overfit fixture's: the draws at one
        OpenBLAS thread and at two, before and after a network pass, and
        in this process are bitwise equal."""
        draws = [*draw_in_subprocess(config, 0, threads=1, pass_between=True),
                 *draw_in_subprocess(config, 0, threads=2, pass_between=True),
                 init_params(config, 0)]
        assert draws[0].w_hat.shape == (config.d_out_s, config.n_inputs * config.d_in_s)
        for draw in draws[1:]:
            for field in PARAM_TENSORS:
                assert getattr(draw, field).tobytes() == getattr(draws[0], field).tobytes()


class TestForward:
    def test_shapes_and_normalization(self, rng):
        params = init_params(TINY, 0)
        probs, ctx, y_final = forward(tiny_coords(rng), params, TINY)
        assert probs.shape == (2,)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert y_final.shape == (4, 4)
        assert ctx.agg.xs.shape[0] == 60

    def test_deterministic(self, rng):
        params = init_params(TINY, 0)
        coords = tiny_coords(rng)
        p1, _, y1 = forward(coords, params, TINY)
        p2, _, y2 = forward(coords, params, TINY)
        assert np.array_equal(p1, p2)
        assert np.array_equal(y1, y2)

    def test_accepts_sequences(self, rng):
        params = init_params(TINY, 0)
        seq = SkeletonSequence(frames=rng.standard_normal((TINY.n_frames, 20, 3)),
                               label=1)
        probs, _, _ = forward(seq, params, TINY)
        assert probs.shape == (2,)

    def test_wrong_frame_count(self, rng):
        params = init_params(TINY, 0)
        with pytest.raises(InvalidInput, match="resample"):
            forward(rng.standard_normal((9, N_GRID_NODES, 3)), params, TINY)

    def test_sequence_of_any_length_is_resampled_bitwise(self, rng):
        params = init_params(TINY, 0)
        seq = SkeletonSequence(frames=rng.standard_normal((20, 20, 3)), label=1)
        probs, _, y = forward(seq, params, TINY)
        want_probs, _, want_y = forward(resample(seq, TINY.n_frames), params, TINY)
        assert probs.tobytes() == want_probs.tobytes()
        assert y.tobytes() == want_y.tobytes()
        one_frame = SkeletonSequence(frames=seq.frames[:1], label=1, source="s.txt")
        with pytest.raises(InvalidInput, match="s.txt: cannot resample"):
            forward(one_frame, params, TINY)

    def test_variant_input_counts(self, rng):
        coords = tiny_coords(rng)
        for variant, n in (("st_only", 30), ("ts_only", 30)):
            config = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=4, n_frames=12,
                                   n_chunks=2, variant=variant)
            params = init_params(config, 0)
            assert params.w_hat.shape == (4, 210)
            _, ctx, _ = forward(coords, params, config)
            assert ctx.agg.xs.shape[0] == n

    def test_variant_consistency(self, rng):
        """Zeroing the temporal-spatial weight blocks of the combined model
        reproduces the spatial-only model exactly."""
        coords = tiny_coords(rng)
        st_cfg = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=4, n_frames=12,
                               n_chunks=2, variant="st_only")
        both_cfg = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=4, n_frames=12,
                                 n_chunks=2, variant="st_ts")
        st_params = init_params(st_cfg, 3)
        both_params = init_params(both_cfg, 3)
        both_params.conv = st_params.conv
        both_params.fc_weight = st_params.fc_weight
        both_params.fc_bias = st_params.fc_bias
        both_params.w_hat = np.hstack([st_params.w_hat, np.zeros_like(st_params.w_hat)])
        _, _, y_st = forward(coords, st_params, st_cfg)
        _, _, y_both = forward(coords, both_params, both_cfg)
        assert np.max(np.abs(y_st - y_both)) <= 1e-10


class TestBackward:
    def test_saturated_probs_zero_gradients(self, rng):
        params = init_params(TINY, 0)
        params.fc_bias = np.array([500.0, -500.0])
        _, ctx, _ = forward(tiny_coords(rng), params, TINY)
        grads = backward(ctx, 0)
        for tensor in (grads.conv, grads.w_hat, grads.fc_weight, grads.fc_bias):
            assert np.max(np.abs(tensor)) <= 1e-10

    def test_w_hat_block_decomposition(self, rng):
        """The combined weight gradient concatenates the per-block
        gradients 2 G W_i X_i in declaration order."""
        params = init_params(TINY, 1)
        _, ctx, _ = forward(tiny_coords(rng), params, TINY)
        grads = backward(ctx, 1)
        d_in = TINY.d_in_s
        g = ctx.head.probs.copy()
        g[1] -= 1.0
        grad_log = (params.fc_weight.T @ g).reshape(4, 4)
        vals = ctx.head.eig.vals
        grad_y = spectral_grad(ctx.head.eig.vecs, vals, np.log(vals), 1.0 / vals, grad_log)
        for i in range(60):
            w_i = params.w_hat[:, i * d_in : (i + 1) * d_in]
            expected = 2.0 * grad_y @ w_i @ ctx.agg.xs[i]
            block = grads.w_hat[:, i * d_in : (i + 1) * d_in]
            assert np.max(np.abs(block - expected)) <= 1e-12

    def test_total_with_into_is_the_in_order_sum_of_standalone_gradients(self, rng):
        """Each layer adding into a running total gives byte for byte the
        total of standalone gradient sets summed in order."""
        params = init_params(TINY, 2)
        params.fc_weight = rng.standard_normal(params.fc_weight.shape)
        items = [(forward(tiny_coords(rng), params, TINY)[1], label) for label in (0, 1, 1)]
        want = params.zeros_like()
        for ctx, label in items:
            grads = backward(ctx, label)
            for field in dataclasses.fields(NetworkParams):
                getattr(want, field.name)[...] += getattr(grads, field.name)
        total = params.zeros_like()
        for ctx, label in items:
            assert backward(ctx, label, into=total) is total
        for field in dataclasses.fields(NetworkParams):
            got, ref = getattr(total, field.name), getattr(want, field.name)
            assert got.tobytes() == ref.tobytes(), field.name

    @pytest.mark.parametrize("seed", range(5))
    def test_end_to_end_fd_sampled_entries(self, seed):
        """Loss gradient matches finite differences on sampled entries,
        across seeds, at a nonzero FC weight (at init's zero FC weight the
        conv and W_hat gradients are exactly zero)."""
        rng = np.random.default_rng(1000 + seed)
        params = init_params(TINY, seed)
        coords = rng.standard_normal((TINY.n_frames, N_GRID_NODES, 3))
        label = int(rng.integers(2))
        params.fc_weight = 0.1 * rng.standard_normal(params.fc_weight.shape)
        _, ctx, _ = forward(coords, params, TINY)
        grads = backward(ctx, label)

        def loss(p):
            probs, _, _ = forward(coords, p, TINY)
            return cross_entropy(probs, label)

        for name in ("conv", "w_hat", "fc_weight", "fc_bias"):
            base = getattr(params, name)
            grad = getattr(grads, name)
            flat_idx = rng.choice(base.size, size=min(12, base.size), replace=False)
            h = 1e-5 * max(1.0, np.max(np.abs(base)))
            analytic, fd = [], []
            for k in flat_idx:
                pert = base.copy().reshape(-1)
                pert[k] += h
                plus = loss(NetworkParams(**{**params.__dict__, name: pert.reshape(base.shape)}))
                pert[k] -= 2 * h
                minus = loss(NetworkParams(**{**params.__dict__, name: pert.reshape(base.shape)}))
                fd.append((plus - minus) / (2 * h))
                analytic.append(grad.reshape(-1)[k])
            err = rel_error(np.array(analytic), np.array(fd))
            assert err <= 1e-4, f"{name}: rel err {err:.2e} at seed {seed}"


class TestFeaturesAndIo:
    def test_feature_length_and_determinism(self, rng):
        params = init_params(TINY, 0)
        seq = SkeletonSequence(frames=rng.standard_normal((TINY.n_frames, 20, 3)),
                               label=0)
        f1 = extract_features(seq, params, TINY)
        f2 = extract_features(seq, params, TINY)
        assert f1.shape == (TINY.feature_dim,)
        assert np.array_equal(f1, f2)

    def test_features_reuse_forward_eigendecomposition(self, rng):
        """Features built from the forward's eigendecomposition of Y equal
        a fresh log-map of Y bitwise."""
        params = init_params(TINY, 2)
        coords = tiny_coords(rng)
        _, _, y_final = forward(coords, params, TINY)
        features = extract_features(coords, params, TINY)
        assert np.array_equal(features, sym_vectorize(spd_log(y_final)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_extraction_log_maps_y_once(self, variant, rng, monkeypatch):
        """The features are the head's log map of Y, vectorized: byte for
        byte `extract_representation` of Y, with one `assert_spd` call."""
        config = dataclasses.replace(TINY, variant=variant).validate()
        params = init_params(config, 4)
        coords = tiny_coords(rng, config)
        _, _, y_final = forward(coords, params, config)
        calls = []
        assert_spd = layers.assert_spd

        def counting(*args):
            calls.append(args)
            return assert_spd(*args)

        monkeypatch.setattr(layers, "assert_spd", counting)
        features = extract_features(coords, params, config)
        assert len(calls) == 1
        want = layers.extract_representation(y_final)
        assert features.tobytes() == want.tobytes()

    def test_params_roundtrip(self, tmp_path):
        params = init_params(TINY, 9)
        path = tmp_path / "p.ckpt"
        save_params(path, params)
        loaded = load_params(path, TINY)
        for name in ("conv", "w_hat", "fc_weight", "fc_bias"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_checkpoint_tensor_names_and_bytes(self, tmp_path):
        """The checkpoint format of docs/formats.md: four named tensors in
        this order, byte for byte the container of the same dict."""
        params = init_params(TINY, 9)
        path, by_hand = tmp_path / "p.ckpt", tmp_path / "by_hand.ckpt"
        save_params(path, params)
        save_checkpoint(by_hand, {
            "conv_weights": params.conv,
            "spdagg_w_hat": params.w_hat,
            "fc_weight": params.fc_weight,
            "fc_bias": params.fc_bias,
        })
        assert list(load_checkpoint(path)) == [
            "conv_weights", "spdagg_w_hat", "fc_weight", "fc_bias"]
        assert path.read_bytes() == by_hand.read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", list(PARAM_TENSORS))
    def test_load_rejects_non_finite_tensor(self, tmp_path, field, value):
        params = init_params(TINY, 9)
        getattr(params, field).flat[1] = value
        path = tmp_path / "p.ckpt"
        save_params(path, params)
        name = PARAM_TENSORS[field][0]
        want = f"checkpoint {path}: tensor '{name}' has non-finite entries"
        with pytest.raises(ConfigError, match=re.escape(want)):
            load_params(path, TINY)

    def test_load_with_mismatched_config(self, tmp_path):
        params = init_params(TINY, 9)
        path = tmp_path / "p.ckpt"
        save_params(path, params)
        other = NetworkConfig(n_classes=2, d_out_c=3, d_out_s=4, n_frames=12,
                              n_chunks=2)
        with pytest.raises(ConfigError, match="shape"):
            load_params(path, other)


def _owned_arrays(obj, params, seen):
    """Bytes of the arrays under ``obj`` (dataclasses, lists, tuples), each
    memory block counted once, skipping blocks shared with ``params``."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen or any(np.shares_memory(obj, p) for p in params):
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, field.name) for field in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return sum(_owned_arrays(item, params, seen) for item in obj)
    return 0


def test_paper_scale_context_stays_slim(rng):
    """A paper-scale forward context keeps inputs and eigendecompositions
    but no sample copies or W_i X_i (22.9 MB when it kept them)."""
    config = NetworkConfig(n_classes=14).validate()
    params = init_params(config, 0)
    _, ctx, _ = forward(rng.standard_normal((500, N_GRID_NODES, 3)), params, config)
    tensors = [getattr(params, field.name) for field in dataclasses.fields(params)]
    assert _owned_arrays(ctx, tensors, set()) <= 12e6


def _usable_cores(monkeypatch, n):
    monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: set(range(n)))


class TestTableThreads:
    """Window tables and aggregation blocks shared by the caller and one worker."""

    @staticmethod
    def _outputs(coords, params, config=TINY):
        probs, ctx, y_final = forward(coords, params, config)
        grads = backward(ctx, 1)
        return [probs, y_final, extract_features(coords, params, config),
                grads.conv, grads.w_hat, grads.fc_weight, grads.fc_bias]

    @pytest.mark.parametrize("variant", ["st_ts", "st_only", "ts_only"])
    def test_two_threads_and_one_bitwise_equal(self, rng, monkeypatch, variant):
        config = NetworkConfig(n_classes=3, d_out_c=2, d_out_s=4, n_frames=12,
                               n_chunks=2, variant=variant)
        params = init_params(config, 4)
        params.fc_weight = 0.1 * rng.standard_normal(params.fc_weight.shape)
        coords = tiny_coords(rng, config)
        ran_on = []
        rows = layers._rect_log_vec_rows

        def recording(*args, **kwargs):
            ran_on.append(threading.current_thread())
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.01)  # leave the worker pieces to take
            return rows(*args, **kwargs)

        monkeypatch.setattr(layers, "_rect_log_vec_rows", recording)
        _usable_cores(monkeypatch, 2)
        assert layers.table_threads() == 2
        two = self._outputs(coords, params, config)
        assert threading.main_thread() in ran_on
        assert any(t is not threading.main_thread() for t in ran_on)
        _usable_cores(monkeypatch, 1)
        assert layers.table_threads() == 1
        ran_on.clear()
        one = self._outputs(coords, params, config)
        assert ran_on and set(ran_on) == {threading.main_thread()}
        for a, b in zip(two, one):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_two_threads_and_one_bitwise_equal_at_the_overfit_shape(self, rng, monkeypatch):
        """At the overfit fixture's 210x420 weight, row pieces of the
        aggregation product give other bits than one product, so only the
        same pieces at any thread count keep one thread and two equal."""
        config = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=210, n_frames=16, t0=1,
                               n_chunks=2).validate()
        params = init_params(config, 4)
        assert params.w_hat.shape == (210, 420)
        params.fc_weight = 0.1 * rng.standard_normal(params.fc_weight.shape)
        coords = tiny_coords(rng, config)
        ran_on = []
        agg_rows = layers._agg_rows

        def recording(w_rows, **kwargs):
            if w_rows.shape[0]:
                ran_on.append(threading.current_thread())
                if threading.current_thread() is threading.main_thread():
                    time.sleep(0.01)  # leave the worker pieces to take
            return agg_rows(w_rows, **kwargs)

        monkeypatch.setattr(layers, "_agg_rows", recording)
        _usable_cores(monkeypatch, 2)
        two = self._outputs(coords, params, config)
        assert any(t is not threading.main_thread() for t in ran_on)
        _usable_cores(monkeypatch, 1)
        ran_on.clear()
        one = self._outputs(coords, params, config)
        assert ran_on and set(ran_on) == {threading.main_thread()}
        for a, b in zip(two, one):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 210])
    def test_one_thread_takes_the_same_pieces(self, monkeypatch, n):
        _usable_cores(monkeypatch, 1)
        seen = []

        def piece(x):
            seen.append((threading.current_thread(), x.tolist()))
            return 2 * x

        stack = np.arange(n)
        assert layers._split_stack(piece, stack).tolist() == (2 * stack).tolist()
        count = min(n, layers.STACK_PIECES)
        bounds = [n * k // count for k in range(count + 1)] if n else []
        assert seen[0][1] == []  # the output shapes, before any piece
        assert [rows for _, rows in seen[1:]] == [
            list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        assert {thread for thread, _ in seen} == {threading.main_thread()}

    def test_core_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(layers.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(layers.os, "cpu_count", lambda: 4)
        assert layers.table_threads() == 2
        monkeypatch.setattr(layers.os, "cpu_count", lambda: None)
        assert layers.table_threads() == 1

    def test_busy_worker_is_not_waited_for(self, rng, monkeypatch):
        """With the worker blocked, the caller takes every piece itself."""
        params, coords = init_params(TINY, 0), tiny_coords(rng)
        _usable_cores(monkeypatch, 1)
        serial = self._outputs(coords, params)
        _usable_cores(monkeypatch, 2)
        release = threading.Event()
        blocker = layers._table_pool.submit(release.wait, 30)
        try:
            start = time.perf_counter()
            split = self._outputs(coords, params)
            assert time.perf_counter() - start < 10 and not release.is_set()
        finally:
            release.set()
        blocker.result(timeout=30)
        for a, b in zip(split, serial):
            assert a.tobytes() == b.tobytes()

    def test_outputs_are_made_by_the_caller(self, monkeypatch):
        """Pieces the worker computes are written into outputs the caller
        allocated, so no output sits in the worker's malloc arena."""
        _usable_cores(monkeypatch, 2)
        caller = threading.current_thread()
        ran_on, made_on = [], []
        empty = np.empty

        def recording(*args, **kwargs):
            made_on.append(threading.current_thread())
            return empty(*args, **kwargs)

        def piece(x):
            ran_on.append(threading.current_thread())
            if threading.current_thread() is caller:
                time.sleep(0.05)  # leave the worker pieces to take
            return 2.0 * x, x + 1.0

        monkeypatch.setattr(layers.np, "empty", recording)
        stack = np.arange(8.0).reshape(8, 1, 1)
        doubled, plus_one = layers._split_stack(piece, stack)
        monkeypatch.undo()
        assert set(ran_on) - {caller} and made_on == [caller, caller]
        assert doubled.tobytes() == (2.0 * stack).tobytes()
        assert plus_one.tobytes() == (stack + 1.0).tobytes()

    @staticmethod
    def _slow_on_caller(fn, ran_on):
        """``fn``, run after a pause on the caller's non-empty pieces so the
        worker takes some, recording the thread of each piece."""
        def piece(*stacks):
            if stacks[0].shape[0]:
                ran_on.append(threading.current_thread())
                if threading.current_thread() is threading.main_thread():
                    time.sleep(0.02)
            return fn(*stacks)
        return piece

    @staticmethod
    def _one(x, k):
        return x * k[:, None, None]

    @staticmethod
    def _two(x, k):
        return x.sum(axis=2) + k[:, None], (100 * x[:, :, :2]).astype(np.int64) - k[:, None, None]

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("fn", ["_one", "_two"])
    def test_split_stack_equals_one_call(self, rng, monkeypatch, n, fn):
        _usable_cores(monkeypatch, 2)
        fn = getattr(self, fn)
        stacks = rng.standard_normal((n, 2, 3)), np.arange(n, dtype=np.int64)
        ran_on = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the piece loop
        try:
            split = layers._split_stack(self._slow_on_caller(fn, ran_on), *stacks)
        finally:
            sys.setswitchinterval(interval)
        whole = fn(*stacks)
        assert len(ran_on) == min(n, layers.STACK_PIECES)
        assert set(ran_on) - {threading.main_thread()}
        if isinstance(whole, np.ndarray):
            split, whole = (split,), (whole,)
        assert len(split) == len(whole)
        for a, b in zip(split, whole):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("row", ["first", "last"])
    def test_split_stack_raises_a_piece_failure_unchanged(self, monkeypatch, n, row):
        _usable_cores(monkeypatch, 2)
        error = NumericalFailure("piece failed")
        bad = 0 if row == "first" else n - 1

        def failing(x):
            if np.any(x == bad):
                raise error
            return 2 * x

        with pytest.raises(NumericalFailure) as raised:
            layers._split_stack(self._slow_on_caller(failing, []), np.arange(n))
        assert raised.value is error

    def test_worker_failure_reaches_caller(self, rng, monkeypatch):
        _usable_cores(monkeypatch, 2)
        raised_on = []
        eigh_stack = layers._eigh_stack

        def failing_off_main(a):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.05)  # leave the worker a piece to take
                return eigh_stack(a)
            raised_on.append(threading.current_thread())
            raise NumericalFailure("eigendecomposition did not converge: window 7")

        monkeypatch.setattr(layers, "_eigh_stack", failing_off_main)
        with pytest.raises(NumericalFailure, match="did not converge: window 7"):
            forward(tiny_coords(rng), init_params(TINY, 0), TINY)
        assert raised_on

    def test_caller_failure_waits_for_worker(self, rng, monkeypatch):
        _usable_cores(monkeypatch, 2)
        started, finished = [], []
        eigh_stack = layers._eigh_stack

        def failing_on_main(a):
            if a.shape[0] == 0:
                return eigh_stack(a)  # the caller's output shapes
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.05)  # leave the worker a piece to take
                raise NumericalFailure("caller piece failed")
            started.append(a.shape)
            time.sleep(0.2)
            result = eigh_stack(a)
            finished.append(a.shape)
            return result

        monkeypatch.setattr(layers, "_eigh_stack", failing_on_main)
        with pytest.raises(NumericalFailure, match="caller piece failed"):
            forward(tiny_coords(rng), init_params(TINY, 0), TINY)
        assert started and finished == started

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    def test_forked_child_gets_its_own_worker(self, rng, monkeypatch):
        """A child forked after a pass started the worker still finishes a pass."""
        _usable_cores(monkeypatch, 2)
        params, coords = init_params(TINY, 0), tiny_coords(rng)
        probs = forward(coords, params, TINY)[0]
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(
            target=lambda: queue.put(forward(coords, params, TINY)[0].tobytes()))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
        assert queue.get(timeout=5) == probs.tobytes()

    def test_first_forward_sets_openblas_to_one_thread(self, rng, monkeypatch):
        controls = blas._find_controls()
        if controls is None:
            pytest.skip("numpy's OpenBLAS exports no thread controls")
        get, set_ = controls
        original = get()
        monkeypatch.setattr(blas, "_held", None)
        set_(2)
        try:
            inside = []
            head_forward = network.head_forward

            def recording(*args, **kwargs):
                inside.append(get())
                return head_forward(*args, **kwargs)

            monkeypatch.setattr(network, "head_forward", recording)
            assert not blas.held()
            extract_features(tiny_coords(rng), init_params(TINY, 0), TINY)
            assert inside == [1] and get() == 1 and blas.held()
        finally:
            set_(original)

    def test_init_params_sets_openblas_to_one_thread(self, monkeypatch):
        controls = blas._find_controls()
        if controls is None:
            pytest.skip("numpy's OpenBLAS exports no thread controls")
        get, set_ = controls
        original = get()
        monkeypatch.setattr(blas, "_held", None)
        set_(2)
        try:
            inside = []
            qr_orthonormalize = optim.qr_orthonormalize

            def recording(m):
                inside.append(get())
                return qr_orthonormalize(m)

            monkeypatch.setattr(optim, "qr_orthonormalize", recording)
            assert not blas.held()
            init_params(TINY, 0)
            assert inside == [1] and get() == 1 and blas.held()
        finally:
            set_(original)

    @pytest.mark.parametrize("fault", ["unloadable", "no_symbols"])
    def test_library_without_usable_controls_is_skipped(self, monkeypatch, fault):
        """`_find_controls` passes over a library it cannot load or that
        lacks the thread controls, and finds none when every one fails."""
        tried = []

        def cdll(path):
            tried.append(path)
            if fault == "unloadable":
                raise OSError(f"cannot load {path}")
            return object()  # no scipy_openblas_* attributes

        monkeypatch.setattr(blas.ctypes, "CDLL", cdll)
        assert blas._find_controls() is None
        if not tried:
            pytest.skip("numpy bundles no libscipy_openblas64_*.so")
        monkeypatch.setattr(blas, "_held", None)
        blas.hold_one_thread()
        assert not blas.held()

    def test_blas_left_alone_without_controls(self, rng, monkeypatch):
        monkeypatch.setattr(blas, "_held", None)
        monkeypatch.setattr(blas, "_find_controls", lambda: None)
        forward(tiny_coords(rng), init_params(TINY, 0), TINY)
        assert not blas.held()


def test_eigenvector_signs_do_not_change_outputs(rng, monkeypatch):
    """Flipping random eigenvector columns of every eigendecomposition
    (the window tables, the SPD checks and the head) leaves the forward,
    the backward and the features bitwise equal: no sign convention is
    needed."""
    params = init_params(TINY, 4)
    params.fc_weight = rng.standard_normal(params.fc_weight.shape)  # non-zero gradients
    coords = tiny_coords(rng)

    def run():
        probs, ctx, y_final = forward(coords, params, TINY)
        grads = backward(ctx, 1)
        return [probs, y_final, grads.conv, grads.w_hat, grads.fc_weight,
                grads.fc_bias, extract_features(coords, params, TINY)]

    reference = run()
    eigh_stack = symmat._eigh_stack
    flip_rng = np.random.default_rng(0)
    stacked = []  # per call: was it a stack of matrices (the window tables)?

    def flipping_eigh_stack(a):
        vals, vecs = eigh_stack(a)
        stacked.append(a.ndim > 2)
        return vals, vecs * flip_rng.choice([-1.0, 1.0], size=vals.shape)[..., None, :]

    monkeypatch.setattr(symmat, "_eigh_stack", flipping_eigh_stack)
    monkeypatch.setattr(layers, "_eigh_stack", flipping_eigh_stack)
    flipped = run()
    assert any(stacked) and not all(stacked)
    for want, got in zip(reference, flipped):
        assert np.array_equal(want, got)
