"""Branch pipelines against independent straight-line re-implementations.

The oracles below recompute each branch with explicit loops and plain
numpy eigendecompositions, sharing no code with the batched pipeline.
"""

import numpy as np
import pytest

from spdhgr.errors import InvalidInput
from spdhgr.layers import (
    branch_backward,
    gauss_agg_forward,
    st_branch_forward,
    ts_branch_forward,
)
from spdhgr.symmat import assert_spd

EPS = 1e-4
RIDGE = 1e-6


def embed_gaussian(samples, ridge):
    n, d = samples.shape
    mu = samples.mean(axis=0)
    centered = samples - mu
    sigma = centered.T @ centered / n + ridge * np.eye(d)
    out = np.empty((d + 1, d + 1))
    out[:d, :d] = sigma + np.outer(mu, mu)
    out[:d, d] = mu
    out[d, :d] = mu
    out[d, d] = 1.0
    return out


def rect_log_vec(mat, eps):
    vals, vecs = np.linalg.eigh(mat)
    logm = vecs @ np.diag(np.log(np.maximum(vals, eps))) @ vecs.T
    m = mat.shape[0]
    out = []
    for i in range(m):
        for j in range(i, m):
            out.append(logm[i, j] if i == j else np.sqrt(2.0) * logm[i, j])
    return np.array(out)


def second_samples(ctx):
    """Per-row vectors of a one-branch call: its second-stage samples."""
    (stage,) = ctx.second
    return ctx.vecs[stage.rows[0]]


def st_branch_reference(feats, t0, eps, ridge):
    n_frames = feats.shape[0]
    vecs = []
    for t in range(n_frames):
        lo, hi = max(0, t - t0), min(n_frames - 1, t + t0)
        window = feats[lo : hi + 1].reshape(-1, feats.shape[2])
        vecs.append(rect_log_vec(embed_gaussian(window, ridge), eps))
    return embed_gaussian(np.stack(vecs), ridge)


def chunk_bounds(n, k):
    base, extra = divmod(n, k)
    bounds, start = [], 0
    for i in range(k):
        size = base + (1 if i >= k - extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def ts_branch_reference(feats, n_chunks, eps, ridge):
    vecs = []
    for j in range(feats.shape[1]):
        for lo, hi in chunk_bounds(feats.shape[0], n_chunks):
            track = feats[lo:hi, j, :]
            vecs.append(rect_log_vec(embed_gaussian(track, ridge), eps))
    return embed_gaussian(np.stack(vecs), ridge)


class TestStBranch:
    def test_matches_straight_line_oracle(self, rng):
        feats = rng.standard_normal((5, 4, 3))
        out, _ = st_branch_forward(feats, 1, EPS, RIDGE)
        ref = st_branch_reference(feats, 1, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_matches_oracle_with_clamped_windows(self, rng):
        # t0=2 on a 5-frame branch: every window clipped at a boundary
        feats = rng.standard_normal((5, 4, 3))
        out, _ = st_branch_forward(feats, 2, EPS, RIDGE)
        ref = st_branch_reference(feats, 2, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_longer_branch_oracle(self, rng):
        feats = rng.standard_normal((23, 4, 2)) * 2.0
        out, _ = st_branch_forward(feats, 3, EPS, RIDGE)
        ref = st_branch_reference(feats, 3, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_default_dims(self, rng):
        feats = rng.standard_normal((8, 4, 9))
        out, ctx = st_branch_forward(feats, 1, EPS, RIDGE)
        assert out.shape == (56, 56)
        assert second_samples(ctx).shape == (8, 55)  # one 55-vector per frame
        assert_spd(out)

    def test_constant_branch(self, rng):
        frame = rng.standard_normal((1, 4, 3))
        feats = np.repeat(frame, 6, axis=0)
        out, ctx = st_branch_forward(feats, 1, EPS, RIDGE)
        samples = second_samples(ctx)
        y = samples[0]
        np.testing.assert_allclose(samples, np.tile(y, (6, 1)), atol=1e-12)
        q = y.shape[0]
        sigma = out[:q, :q] - np.outer(out[:q, q], out[:q, q])
        np.testing.assert_allclose(sigma, RIDGE * np.eye(10), atol=1e-12)
        np.testing.assert_allclose(out[:q, :q], np.outer(y, y) + RIDGE * np.eye(q),
                                   atol=1e-10)
        np.testing.assert_allclose(out[:q, q], y, atol=1e-12)
        assert out[q, q] == 1.0

    def test_too_short_rejected(self, rng):
        with pytest.raises(InvalidInput):
            st_branch_forward(rng.standard_normal((4, 4, 3)), 2, EPS)

    def test_bad_branch_lists_rejected(self, rng):
        feats = rng.standard_normal((9, 4, 2))
        for branches in ([(0, 9, [0, 0])], [(4, 12, [0, 1])], [(0, 9, [0]), (0, 9, [1, 2])]):
            with pytest.raises(InvalidInput):
                st_branch_forward(feats, 1, EPS, branches=branches)

    def test_branch_list_matches_single_calls(self, rng):
        feats = rng.standard_normal((12, 4, 2))
        branches = [(0, 12, [0, 1]), (0, 6, [0, 1]), (6, 12, [2, 3]), (3, 9, [1, 3])]
        for forward, arg in ((st_branch_forward, 1), (ts_branch_forward, 2)):
            out, ctx = forward(feats, arg, EPS, RIDGE, branches=branches)
            g = rng.standard_normal(out.shape)
            grads = branch_backward(ctx, g)
            want = np.zeros_like(feats)
            for k, (lo, hi, joints) in enumerate(branches):
                single, sctx = forward(feats[lo:hi][:, joints], arg, EPS, RIDGE)
                assert np.max(np.abs(out[k] - single)) <= 1e-12
                want[lo:hi, joints] += branch_backward(sctx, g[k])
            assert np.max(np.abs(grads - want)) <= 1e-12 * np.max(np.abs(want))

    def test_window_accumulation_in_backward(self, rng):
        feats = rng.standard_normal((6, 4, 2))
        out, ctx = st_branch_forward(feats, 1, EPS, RIDGE)
        g = np.eye(out.shape[0])
        grads = branch_backward(ctx, g)
        assert grads.shape == feats.shape
        assert np.all(np.isfinite(grads))

    def test_backward_zero(self, rng):
        feats = rng.standard_normal((5, 4, 2))
        out, ctx = st_branch_forward(feats, 1, EPS)
        np.testing.assert_array_equal(branch_backward(ctx, np.zeros_like(out)), 0.0)


class TestTsBranch:
    def test_matches_straight_line_oracle(self, rng):
        feats = rng.standard_normal((9, 4, 3))
        out, _ = ts_branch_forward(feats, 2, EPS, RIDGE)
        ref = ts_branch_reference(feats, 2, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_uneven_chunks_oracle(self, rng):
        feats = rng.standard_normal((11, 4, 2))
        out, _ = ts_branch_forward(feats, 3, EPS, RIDGE)
        ref = ts_branch_reference(feats, 3, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_intermediate_vector_count(self, rng):
        feats = rng.standard_normal((31, 4, 9))
        out, ctx = ts_branch_forward(feats, 15, EPS, RIDGE)
        assert second_samples(ctx).shape == (60, 55)  # joints x chunks vectors
        assert out.shape == (56, 56)

    def test_constant_trajectory(self, rng):
        frame = rng.standard_normal((1, 4, 3))
        feats = np.repeat(frame, 8, axis=0)
        _, ctx = ts_branch_forward(feats, 2, EPS, RIDGE)
        # per joint, both chunk Gaussians coincide
        samples = second_samples(ctx)
        for j in range(4):
            np.testing.assert_allclose(samples[2 * j], samples[2 * j + 1], atol=1e-12)

    def test_too_short_rejected(self, rng):
        with pytest.raises(InvalidInput):
            ts_branch_forward(rng.standard_normal((5, 4, 3)), 3, EPS)

    def test_backward_zero(self, rng):
        feats = rng.standard_normal((8, 4, 2))
        out, ctx = ts_branch_forward(feats, 2, EPS)
        np.testing.assert_array_equal(branch_backward(ctx, np.zeros_like(out)), 0.0)

    def test_backward_shape_mismatch(self, rng):
        feats = rng.standard_normal((8, 4, 2))
        _, ctx = ts_branch_forward(feats, 2, EPS)
        with pytest.raises(InvalidInput):
            branch_backward(ctx, np.zeros((3, 3)))


class TestBranchSpd:
    def test_outputs_always_spd(self, rng):
        for _ in range(20):
            n_frames = int(rng.integers(5, 15))
            d = int(rng.integers(1, 5))
            feats = rng.standard_normal((n_frames, 4, d)) * 10 ** rng.uniform(-3, 2)
            y_st, _ = st_branch_forward(feats, 1, EPS, RIDGE)
            assert_spd(y_st)
            if n_frames >= 4:
                y_ts, _ = ts_branch_forward(feats, 2, EPS, RIDGE)
                assert_spd(y_ts)

    def test_second_stage_is_gauss_agg(self, rng):
        # the branch's second stage equals a plain Gaussian embedding of
        # its cached per-frame vectors
        feats = rng.standard_normal((6, 4, 2))
        out, ctx = st_branch_forward(feats, 1, EPS, RIDGE)
        ref, _ = gauss_agg_forward(second_samples(ctx), RIDGE)
        np.testing.assert_array_equal(out, ref)
