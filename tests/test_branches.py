"""Branch pipelines against independent straight-line re-implementations.

The oracles below recompute each branch with explicit loops and plain
numpy eigendecompositions, sharing no code with the batched pipeline.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spdhgr.errors import InvalidInput
from spdhgr.layers import (
    _length_runs,
    branch_backward,
    gauss_agg_forward,
    st_branch_forward,
    ts_branch_forward,
)
from spdhgr.symmat import assert_spd

EPS = 1e-4
RIDGE = 1e-6
FAMILIES = {"st": st_branch_forward, "ts": ts_branch_forward}
N_FRAMES, N_JOINTS = 12, 4


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
    return ctx.vecs[ctx.plan.rows[0]]


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


@st.composite
def family_calls(draw):
    """(family, size, branches) over a (12, 4, d) input: 1-4 random
    branches of one joint-set size, some at the shortest window (st) or
    chunk (ts) length; joint sets overlap or repeat, and a branch may
    repeat."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    size = draw(st.sampled_from((1, 2) if family == "st" else (2, 3)))
    shortest = 2 * size + 1 if family == "st" else 2 * size
    set_size = draw(st.integers(1, 3))
    branches = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(shortest, N_FRAMES))
        start = draw(st.integers(0, N_FRAMES - length))
        joints = draw(st.permutations(range(N_JOINTS)))[:set_size]
        branches.append((start, start + length, joints))
    if draw(st.booleans()):
        branches.append(branches[draw(st.integers(0, len(branches) - 1))])
    return family, size, branches


class TestStBranch:
    def test_matches_straight_line_oracle(self, rng):
        feats = rng.standard_normal((5, 4, 3))
        out, _ = st_branch_forward(feats, 1, EPS)
        ref = st_branch_reference(feats, 1, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_matches_oracle_with_clamped_windows(self, rng):
        # t0=2 on a 5-frame branch: every window clipped at a boundary
        feats = rng.standard_normal((5, 4, 3))
        out, _ = st_branch_forward(feats, 2, EPS)
        ref = st_branch_reference(feats, 2, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_longer_branch_oracle(self, rng):
        feats = rng.standard_normal((23, 4, 2)) * 2.0
        out, _ = st_branch_forward(feats, 3, EPS)
        ref = st_branch_reference(feats, 3, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_default_dims(self, rng):
        feats = rng.standard_normal((8, 4, 9))
        out, ctx = st_branch_forward(feats, 1, EPS)
        assert out.shape == (56, 56)
        assert second_samples(ctx).shape == (8, 55)  # one 55-vector per frame
        assert_spd(out)

    def test_constant_branch(self, rng):
        frame = rng.standard_normal((1, 4, 3))
        feats = np.repeat(frame, 6, axis=0)
        out, ctx = st_branch_forward(feats, 1, EPS)
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
        for branches in ([(0, 9, [0, 0])], [(4, 12, [0, 1])], [(0, 9, [0]), (0, 9, [1, 2])],
                         [(0.5, 9, [0, 1])], [(0, 9, [0, 1.0])]):
            with pytest.raises(InvalidInput):
                st_branch_forward(feats, 1, EPS, branches=branches)

    def test_numpy_integer_branches_accepted(self, rng):
        feats = rng.standard_normal((9, 4, 2))
        out, _ = st_branch_forward(feats, 1, EPS, branches=[(0, 9, [0, 1])])
        again, _ = st_branch_forward(feats, 1, EPS,
                                     branches=[(np.int64(0), np.intp(9), np.array([0, 1]))])
        assert again.tobytes() == out.tobytes()

    @given(family_calls(), st.integers(0, 2**32 - 1))
    @example(("st", 2, [(0, 5, [0, 1]), (0, 5, [0, 1]), (7, 12, [1, 0]), (2, 12, [0, 1])]), 0)
    @example(("st", 1, [(0, 12, [0, 1]), (0, 6, [0, 1]), (6, 12, [2, 3]), (3, 9, [1, 3])]), 1)
    @example(("ts", 3, [(0, 6, [2]), (6, 12, [2]), (0, 6, [2]), (3, 12, [3])]), 2)
    @example(("ts", 2, [(0, 12, [0, 1]), (0, 6, [0, 1]), (6, 12, [2, 3]), (3, 9, [1, 3])]), 3)
    def test_branch_list_matches_single_calls(self, call, seed):
        """A family call over a branch list gives each branch's single-call
        output, and its backward the sum of the single-call backwards."""
        family, size, branches = call
        forward = FAMILIES[family]
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((N_FRAMES, N_JOINTS, 2))
        out, ctx = forward(feats, size, EPS, branches=branches)
        plan = ctx.plan
        # what the backward's run walk relies on: within one run and one
        # offset, each (set, frame) pair occurs at most once
        for length, lo, hi in _length_runs(plan.lengths):
            for k in range(length):
                pairs = plan.sets[lo:hi] * N_FRAMES + plan.starts[lo:hi] + k
                assert np.unique(pairs).size == hi - lo
        g = rng.standard_normal(out.shape)
        grads = branch_backward(ctx, g)
        want = np.zeros_like(feats)
        for k, (lo, hi, joints) in enumerate(branches):
            single, sctx = forward(feats[lo:hi][:, joints], size, EPS)
            assert np.max(np.abs(out[k] - single)) <= 1e-12
            want[lo:hi, joints] += branch_backward(sctx, g[k])
        assert np.max(np.abs(grads - want)) <= 1e-12 * np.max(np.abs(want))

    def test_window_accumulation_in_backward(self, rng):
        feats = rng.standard_normal((6, 4, 2))
        out, ctx = st_branch_forward(feats, 1, EPS)
        g = np.eye(out.shape[0])
        grads = branch_backward(ctx, g)
        assert grads.shape == feats.shape
        assert np.all(np.isfinite(grads))

    def test_backward_zero(self, rng):
        feats = rng.standard_normal((5, 4, 2))
        out, ctx = st_branch_forward(feats, 1, EPS)
        np.testing.assert_array_equal(branch_backward(ctx, np.zeros_like(out)), 0.0)


@pytest.mark.parametrize("forward, size", [(st_branch_forward, 1), (ts_branch_forward, 2)])
def test_empty_joint_set_rejected_naming_the_branch(forward, size, rng):
    feats = rng.standard_normal((9, 4, 2))
    with pytest.raises(InvalidInput, match="branch 1 .* has no joints"):
        forward(feats, size, EPS, branches=[(0, 9, [0]), (0, 9, [])])
    with pytest.raises(InvalidInput, match="branch 0 .* has no joints"):
        forward(feats[:, :0], size, EPS)  # one branch over no joints


@pytest.mark.parametrize("name, value", [("eps", np.nan), ("eps", np.inf), ("eps", 0.0),
                                         ("eps", -EPS)])
@pytest.mark.parametrize("forward, size", [(st_branch_forward, 1), (ts_branch_forward, 2)])
def test_eps_or_ridge_outside_its_domain_rejected(forward, size, name, value, rng):
    """The rule of `NetworkConfig.validate`: eps finite and > 0. The ridge
    is the fixed `DEFAULT_RIDGE`, so a branch layer takes none."""
    feats = rng.standard_normal((N_FRAMES, N_JOINTS, 2))
    with pytest.raises(InvalidInput, match=f"{name} must be finite and > 0, got {value}"):
        forward(feats, size, **{name: value})


@pytest.mark.parametrize("forward, size, message", [
    (st_branch_forward, 0, "t0 must be >= 1, got 0"),
    (ts_branch_forward, 0, "n_chunks must be >= 2, got 0"),
    (ts_branch_forward, 1, "n_chunks must be >= 2, got 1"),
])
def test_window_size_below_the_config_floor_rejected(forward, size, message, rng):
    """The floors of `NetworkConfig.validate`: t0 >= 1 and n_chunks >= 2."""
    with pytest.raises(InvalidInput, match=message):
        forward(rng.standard_normal((N_FRAMES, N_JOINTS, 2)), size, EPS)


class TestTsBranch:
    def test_matches_straight_line_oracle(self, rng):
        feats = rng.standard_normal((9, 4, 3))
        out, _ = ts_branch_forward(feats, 2, EPS)
        ref = ts_branch_reference(feats, 2, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_uneven_chunks_oracle(self, rng):
        feats = rng.standard_normal((11, 4, 2))
        out, _ = ts_branch_forward(feats, 3, EPS)
        ref = ts_branch_reference(feats, 3, EPS, RIDGE)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_intermediate_vector_count(self, rng):
        feats = rng.standard_normal((31, 4, 9))
        out, ctx = ts_branch_forward(feats, 15, EPS)
        assert second_samples(ctx).shape == (60, 55)  # joints x chunks vectors
        assert out.shape == (56, 56)

    def test_constant_trajectory(self, rng):
        frame = rng.standard_normal((1, 4, 3))
        feats = np.repeat(frame, 8, axis=0)
        _, ctx = ts_branch_forward(feats, 2, EPS)
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
            y_st, _ = st_branch_forward(feats, 1, EPS)
            assert_spd(y_st)
            if n_frames >= 4:
                y_ts, _ = ts_branch_forward(feats, 2, EPS)
                assert_spd(y_ts)

    def test_second_stage_is_gauss_agg(self, rng):
        # the branch's second stage equals a plain Gaussian embedding of
        # its cached per-frame vectors
        feats = rng.standard_normal((6, 4, 2))
        out, ctx = st_branch_forward(feats, 1, EPS)
        ref, _ = gauss_agg_forward(second_samples(ctx), RIDGE)
        np.testing.assert_array_equal(out, ref)
