"""Batched branch families against the per-branch pipeline they replace.

The reference below is the per-branch forward/backward loop of the
network before windows were shared across branches: every branch embeds,
rectifies and log-maps its own windows and back-propagates on its own.
It shares only the stacked primitives (Gaussian embedding, the spectral
stack and their gradients) with the batched code.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from spdhgr import layers
from spdhgr.layers import (
    _gauss_embed_stack,
    _gauss_grad_stack,
    _rect_log_vec_grad_stack,
    _rect_log_vec_rows,
    conv_backward,
    conv_forward,
    gauss_agg_backward,
    gauss_agg_forward,
    head_backward,
    head_forward,
    spd_agg_backward,
    spd_agg_forward,
)
from spdhgr.network import NetworkConfig, backward, forward, init_params
from spdhgr.skeleton import (
    N_GRID_NODES,
    build_branch_plan,
    split_range,
)
from spdhgr.symmat import symmetrize


@dataclass
class _SampleGroup:
    rows: np.ndarray
    starts: np.ndarray
    length: int
    joints: np.ndarray | None
    samples: np.ndarray


@dataclass
class _RefBranch:
    shape: tuple
    eps: float
    groups: list
    spectral_cache: tuple
    second: object


def ref_st_branch(feats, t0, eps, ridge):
    n_frames, n_joints, d = feats.shape
    width = 2 * t0 + 1
    groups = []
    mats = np.empty((n_frames, d + 1, d + 1))
    interior = np.arange(t0, n_frames - t0)
    if interior.size:
        windows = np.lib.stride_tricks.sliding_window_view(feats, width, axis=0)
        samples = windows.transpose(0, 3, 1, 2).reshape(interior.size, width * n_joints, d)
        mats[interior] = _gauss_embed_stack(samples, ridge)
        groups.append(_SampleGroup(interior, interior - t0, width, None, samples))
    edge = {}
    for t in list(range(t0)) + list(range(n_frames - t0, n_frames)):
        lo, hi = max(0, t - t0), min(n_frames - 1, t + t0)
        edge.setdefault(hi - lo + 1, []).append(t)
    for length, ts in sorted(edge.items()):
        rows = np.array(ts)
        starts = np.maximum(rows - t0, 0)
        idx = starts[:, None] + np.arange(length)[None, :]
        samples = feats[idx].reshape(rows.size, length * n_joints, d)
        mats[rows] = _gauss_embed_stack(samples, ridge)
        groups.append(_SampleGroup(rows, starts, length, None, samples))
    vec_rows, *cache = _rect_log_vec_rows(mats, eps)
    out, second = gauss_agg_forward(vec_rows, ridge)
    return out, _RefBranch(feats.shape, eps, groups, cache, second)


def ref_ts_branch(feats, n_chunks, eps, ridge):
    n_frames, n_joints, d = feats.shape
    sizes = {}
    for k, (start, stop) in enumerate(split_range(n_frames, n_chunks)):
        sizes.setdefault(stop - start, []).append((k, start))
    groups = []
    mats = np.empty((n_joints * n_chunks, d + 1, d + 1))
    for length, chunks in sorted(sizes.items()):
        ks = np.array([k for k, _ in chunks])
        starts = np.array([s for _, s in chunks])
        joints = np.repeat(np.arange(n_joints), ks.size)
        rows = joints * n_chunks + np.tile(ks, n_joints)
        all_starts = np.tile(starts, n_joints)
        idx = all_starts[:, None] + np.arange(length)[None, :]
        samples = feats[idx, joints[:, None], :]
        mats[rows] = _gauss_embed_stack(samples, ridge)
        groups.append(_SampleGroup(rows, all_starts, length, joints, samples))
    vec_rows, *cache = _rect_log_vec_rows(mats, eps)
    out, second = gauss_agg_forward(vec_rows, ridge)
    return out, _RefBranch(feats.shape, eps, groups, cache, second)


def ref_branch_backward(ctx, grad_out):
    n_frames, n_joints, d = ctx.shape
    grad_vecs = gauss_agg_backward(ctx.second, grad_out)
    dmats = _rect_log_vec_grad_stack(ctx.spectral_cache, ctx.eps, grad_vecs)
    grad_feats = np.zeros((n_frames, n_joints, d))
    for group in ctx.groups:
        grad_samples = _gauss_grad_stack(group.samples, dmats[group.rows])
        idx = group.starts[:, None] + np.arange(group.length)[None, :]
        if group.joints is None:
            contrib = grad_samples.reshape(len(group.rows), group.length, n_joints, d)
            np.add.at(grad_feats, idx.ravel(), contrib.reshape(-1, n_joints, d))
        else:
            joints = np.broadcast_to(group.joints[:, None], idx.shape)
            np.add.at(grad_feats, (idx.ravel(), joints.ravel()), grad_samples.reshape(-1, d))
    return grad_feats


def ref_forward_backward(coords, params, config, label):
    """The per-branch network forward and backward loop."""
    feats, conv_ctx = conv_forward(coords, params.conv, config.grid_mode)
    branch_slices = [(slice(start, stop), list(joints))
                     for start, stop, joints in build_branch_plan(config.n_frames)]
    inputs, contexts = [], []
    if config.variant in ("st_ts", "st_only"):
        for frame_slice, joints in branch_slices:
            y, ctx = ref_st_branch(feats[frame_slice][:, joints], config.t0,
                                   config.epsilon, layers.DEFAULT_RIDGE)
            inputs.append(y)
            contexts.append(ctx)
    if config.variant in ("st_ts", "ts_only"):
        for frame_slice, joints in branch_slices:
            y, ctx = ref_ts_branch(feats[frame_slice][:, joints], config.n_chunks,
                                   config.epsilon, layers.DEFAULT_RIDGE)
            inputs.append(y)
            contexts.append(ctx)
    y_final, agg_ctx = spd_agg_forward(np.stack(inputs), params.w_hat)
    _, probs, head_ctx = head_forward(y_final, params.fc_weight, params.fc_bias)

    grad_y, grad_fc, grad_bias = head_backward(head_ctx, label)
    grad_xs, grad_w_hat = spd_agg_backward(agg_ctx, grad_y)
    grad_feats = np.zeros(feats.shape)
    for k, (bctx, gx) in enumerate(zip(contexts, grad_xs)):
        frame_slice, joints = branch_slices[k % len(branch_slices)]
        sub = grad_feats[frame_slice]
        sub[:, joints] += ref_branch_backward(bctx, gx)
    grad_conv = conv_backward(conv_ctx, grad_feats)
    grads = {"conv": grad_conv, "w_hat": grad_w_hat, "fc_weight": grad_fc,
             "fc_bias": grad_bias}
    return probs, agg_ctx.xs, contexts, grads


PAPER_FAMILIES = {"st": (layers.st_branch_forward, 1), "ts": (layers.ts_branch_forward, 15)}


def _usable_cores(monkeypatch, n):
    monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: set(range(n)))


def rel(a, b):
    scale = np.max(np.abs(b))
    return np.max(np.abs(a - b)) / scale if scale > 0 else np.max(np.abs(a))


def st_rows_by_branch(bctx):
    """Per st branch, in branch order, the table rows it took."""
    return [bctx.vecs[rows] for rows in bctx.plan.rows]


@pytest.mark.parametrize("variant", ("st_ts", "st_only", "ts_only"))
@pytest.mark.parametrize("grid_mode", ("full", "physical"))
@pytest.mark.parametrize("t0", (1, 2, 3))
@pytest.mark.parametrize("n_frames", (31, 47, 90))
def test_batched_families_match_per_branch_loop(n_frames, t0, grid_mode, variant):
    config = NetworkConfig(n_classes=3, d_out_c=3, d_out_s=8, n_frames=n_frames, t0=t0,
                           n_chunks=4, variant=variant, grid_mode=grid_mode).validate()
    rng = np.random.default_rng(n_frames * 100 + t0)
    params = init_params(config, t0)
    params.fc_weight = rng.standard_normal(params.fc_weight.shape)  # non-zero gradients
    params.fc_bias = rng.standard_normal(params.fc_bias.shape)
    coords = rng.standard_normal((n_frames, N_GRID_NODES, 3))
    label = int(rng.integers(config.n_classes))

    ref_probs, ref_xs, ref_ctxs, ref_grads = ref_forward_backward(coords, params, config, label)
    probs, ctx, _ = forward(coords, params, config)
    grads = backward(ctx, label)

    assert rel(ctx.agg.xs, ref_xs) <= 1e-12
    assert rel(probs, ref_probs) <= 1e-12
    if variant != "ts_only":
        for got, ref in zip(st_rows_by_branch(ctx.branches[0]), ref_ctxs[:30]):
            np.testing.assert_array_equal(got, ref.second.samples)
    for name, ref in ref_grads.items():
        assert rel(getattr(grads, name), ref) <= 1e-12, name


def entries_by_length(plan):
    """(length, table entries of that length) per distinct window length,
    found without the run walk the layer uses."""
    return [(int(length), np.flatnonzero(plan.lengths == length))
            for length in np.unique(plan.lengths)]


def stored_copy_branch_backward(bctx, window_x, second_x, grad_out):
    """The family backward over the sample copies the forward embedded
    (one per table entry, and one per branch's second stage) instead of
    the samples the context re-gathers. The upstream gradient is
    symmetrized once on entry, as `branch_backward` does."""
    plan = bctx.plan
    grads = symmetrize(grad_out).reshape((-1,) + grad_out.shape[-2:])
    grad_table = np.zeros(bctx.vecs.shape)
    for rows, samples, grad in zip(plan.rows, second_x, grads, strict=True):
        grad_table[rows] += _gauss_grad_stack(samples, grad)
    dmats = _rect_log_vec_grad_stack(bctx.spectral_cache, bctx.eps, grad_table)
    n_frames, _, d = bctx.shape
    n_sets, set_size = plan.joint_sets.shape
    by_set = np.zeros((n_sets, n_frames, set_size, d))
    for length, rows in entries_by_length(plan):
        grad_samples = _gauss_grad_stack(np.stack([window_x[r] for r in rows]), dmats[rows])
        grad_samples = grad_samples.reshape(rows.size, length, set_size, d)
        for k in range(length):
            by_set[plan.sets[rows], plan.starts[rows] + k] += grad_samples[:, k]
    grad_feats = np.zeros(bctx.shape)
    for joints, grad in zip(plan.joint_sets, by_set):
        grad_feats[:, joints] += grad
    return grad_feats


@pytest.mark.parametrize("chunk", (3, layers.WINDOW_CHUNK))
@pytest.mark.parametrize("family", ("st", "ts"))
def test_backward_from_slim_context_matches_stored_copies(family, chunk, monkeypatch):
    """Re-gathering samples in the backward, a chunk of windows at a time,
    gives bitwise the gradient of the copies the forward used."""
    rng = np.random.default_rng(7)
    n_frames, d = 500, 9
    branches = build_branch_plan(n_frames)
    feats = rng.standard_normal((n_frames, N_GRID_NODES, d))
    embedded = []  # the samples of every `_gauss_embed_stack` call, in call order
    embed = layers._gauss_embed_stack

    def recording(samples, ridge):
        embedded.append(samples.copy())
        return embed(samples, ridge)

    monkeypatch.setattr(layers, "_gauss_embed_stack", recording)
    _usable_cores(monkeypatch, 1)  # the caller embeds the pieces in table order
    layer, size = PAPER_FAMILIES[family]
    out, bctx = layer(feats, size, 1e-4, branches=branches)
    monkeypatch.setattr(layers, "WINDOW_CHUNK", chunk)
    # first-stage calls embed runs of table entries, then one call per branch
    first = len(embedded) - len(bctx.plan.rows)
    window_x = [samples for stack in embedded[:first] for samples in stack]
    assert len(window_x) == bctx.vecs.shape[0]
    assert max(rows.size for _, rows in entries_by_length(bctx.plan)) > chunk
    grad_out = rng.standard_normal(out.shape)
    got = layers.branch_backward(bctx, grad_out)
    want = stored_copy_branch_backward(bctx, window_x, embedded[first:], grad_out)
    assert got.tobytes() == want.tobytes()


def unfused_first_stage(plan, feats, eps, ridge):
    """Every window of the table embedded first, then one ReEig -> LogEig
    call over the whole (entries, d+1, d+1) stack."""
    d = feats.shape[-1]
    by_set = feats[:, plan.joint_sets].swapaxes(0, 1)
    mats = np.empty((plan.lengths.size, d + 1, d + 1))
    for length, rows in entries_by_length(plan):
        mats[rows] = _gauss_embed_stack(
            layers._window_samples(by_set, plan.sets[rows], plan.starts[rows], length), ridge)
    return _rect_log_vec_rows(mats, eps)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("family", ("st", "ts"))
def test_fused_first_stage_matches_unfused_table(family, threads, monkeypatch):
    """Each piece embedding its own windows gives bitwise the table of
    embedding every window before one spectral call."""
    rng = np.random.default_rng(11)
    n_frames, eps, ridge = 500, 1e-4, layers.DEFAULT_RIDGE
    feats = rng.standard_normal((n_frames, N_GRID_NODES, 9))
    layer, size = PAPER_FAMILIES[family]
    _usable_cores(monkeypatch, threads)
    out, bctx = layer(feats, size, eps, branches=build_branch_plan(n_frames))
    plan = layers._family_plan(family, size, n_frames, N_GRID_NODES, _int_branches(n_frames))
    vecs, *cache = unfused_first_stage(plan, feats, eps, ridge)
    want = np.empty(out.shape)
    for k, rows in enumerate(plan.rows):
        want[k] = _gauss_embed_stack(vecs[rows], ridge)
    assert bctx.vecs.tobytes() == vecs.tobytes()
    for got, ref in zip(bctx.spectral_cache, cache, strict=True):
        assert got.tobytes() == ref.tobytes()
    assert out.tobytes() == want.tobytes()


def test_window_samples_of_no_windows_are_empty():
    by_set = np.zeros((3, 10, 4, 2))  # (sets, frames, set size, d)
    none = np.zeros(0, dtype=np.intp)
    assert layers._window_samples(by_set, none, none, 3).shape == (0, 12, 2)


def _plan_arrays(plan):
    return [plan.joint_sets, plan.sets, plan.starts, plan.lengths, *plan.rows]


def _int_branches(n_frames):
    return tuple((start, stop, tuple(joints)) for start, stop, joints
                 in build_branch_plan(n_frames))


class TestFamilyPlan:
    """The window-table layout is built once per layout and shared read-only."""

    @pytest.mark.parametrize("family, size", [("st", 1), ("ts", 4)])
    def test_second_forward_of_a_layout_hits_the_cache(self, family, size):
        layer = {"st": layers.st_branch_forward, "ts": layers.ts_branch_forward}[family]
        feats = np.random.default_rng(2).standard_normal((37, N_GRID_NODES, 2))
        branches = build_branch_plan(37)
        out, ctx = layer(feats, size, 1e-4, branches=branches)
        before = layers._family_plan.cache_info()
        again, again_ctx = layer(2.0 * feats, size, 1e-4, branches=branches)
        after = layers._family_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert again_ctx.plan is ctx.plan
        assert again.tobytes() != out.tobytes()

    def test_plan_arrays_are_read_only(self):
        plan = layers._family_plan("st", 1, 31, N_GRID_NODES, _int_branches(31))
        arrays = _plan_arrays(plan)
        assert len(arrays) == 4 + len(plan.rows)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_each_layout_gets_its_own_plan_equal_to_an_uncached_build(self):
        plans = []
        for family, size, n_frames in [("st", 1, 31), ("st", 2, 31), ("st", 1, 47),
                                       ("ts", 2, 31), ("ts", 3, 31), ("ts", 2, 47)]:
            branches = _int_branches(n_frames)
            plan = layers._family_plan(family, size, n_frames, N_GRID_NODES, branches)
            fresh = layers._family_plan.__wrapped__(family, size, n_frames, N_GRID_NODES,
                                                    branches)
            for a, b in zip(_plan_arrays(plan), _plan_arrays(fresh), strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            plans.append(plan)
        assert len({id(plan) for plan in plans}) == len(plans)
