import numpy as np
import pytest

from spdhgr.errors import ConfigError, InvalidInput
from spdhgr.gradcheck import TINY_CONFIG, rel_error
from spdhgr.layers import cross_entropy
from spdhgr.network import (
    NetworkConfig,
    NetworkParams,
    backward,
    config_from_mapping,
    extract_features,
    forward,
    init_params,
    load_config,
    load_params,
    save_config,
    save_params,
)
from spdhgr.optim import stiefel_error
from spdhgr.skeleton import N_GRID_NODES, SkeletonSequence
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

    def test_branch_feasibility(self):
        # shortest branch (a third) must hold the window and the chunks
        with pytest.raises(ConfigError, match="window"):
            NetworkConfig(n_classes=2, n_frames=12, t0=3, n_chunks=2).validate()
        with pytest.raises(ConfigError, match="chunks"):
            NetworkConfig(n_classes=2, n_frames=12, t0=1, n_chunks=3).validate()

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

    def test_env_and_cli_overrides(self, tmp_path):
        path = tmp_path / "net.cfg"
        save_config(path, TINY)
        config = load_config(path, env={"SPDHGR_T0": "2", "SPDHGR_N_FRAMES": "21"})
        assert config.t0 == 2 and config.n_frames == 21
        config = load_config(path, overrides={"t0": "3", "n_frames": "24"},
                             env={"SPDHGR_T0": "2"})
        assert config.t0 == 3 and config.n_frames == 24

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("n_classes=2\nwidth=9\n")
        with pytest.raises(ConfigError, match="width"):
            load_config(path)

    def test_missing_n_classes(self):
        with pytest.raises(ConfigError, match="n_classes"):
            config_from_mapping({"d_out_c": "3"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.cfg")


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
        seq = SkeletonSequence(frames=rng.standard_normal((TINY.n_frames, 22, 3)),
                               label=1)
        probs, _, _ = forward(seq, params, TINY)
        assert probs.shape == (2,)

    def test_wrong_frame_count(self, rng):
        params = init_params(TINY, 0)
        with pytest.raises(InvalidInput, match="resample"):
            forward(rng.standard_normal((9, N_GRID_NODES, 3)), params, TINY)

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

    @pytest.mark.parametrize("seed", range(5))
    def test_end_to_end_fd_sampled_entries(self, seed):
        """Loss gradient matches finite differences on sampled entries,
        across seeds."""
        rng = np.random.default_rng(1000 + seed)
        params = init_params(TINY, seed)
        coords = rng.standard_normal((TINY.n_frames, N_GRID_NODES, 3))
        label = int(rng.integers(2))
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
        seq = SkeletonSequence(frames=rng.standard_normal((TINY.n_frames, 22, 3)),
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

    def test_params_roundtrip(self, tmp_path):
        params = init_params(TINY, 9)
        path = tmp_path / "p.ckpt"
        save_params(path, params)
        loaded = load_params(path, TINY)
        for name in ("conv", "w_hat", "fc_weight", "fc_bias"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_load_with_mismatched_config(self, tmp_path):
        params = init_params(TINY, 9)
        path = tmp_path / "p.ckpt"
        save_params(path, params)
        other = NetworkConfig(n_classes=2, d_out_c=3, d_out_s=4, n_frames=12,
                              n_chunks=2)
        with pytest.raises(ConfigError, match="shape"):
            load_params(path, other)
