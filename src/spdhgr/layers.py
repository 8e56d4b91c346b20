"""Network layers: grid convolution, Gaussian aggregation, spectral
nonlinearities, branch pipelines, SPD aggregation, and the classifier head.

Every forward returns (output, context) for the matching hand-written
backward. A context keeps the layer's inputs and the forward's
eigendecompositions, so forward and backward always agree, but not
intermediates the backward can rebuild cheaply: a Gaussian embedding
keeps its samples, not [X 1]; a branch family keeps its features per
joint set and the table's vector rows, from which the backward
re-gathers each window's samples and each branch's rows with the
forward's own indexing, so its gradients are bitwise those of stored
copies; the SPD aggregation keeps no W_i X_i. Loss gradients with
respect to symmetric matrices use the Frobenius pairing and are
symmetrized on entry to each backward.

The aggregation and head backwards add their weight gradients into a
running total given as ``into`` (a batch's sum), a piece of W_i blocks
or an FC row at a time, so neither gradient is formed whole. Each total
element gets the same product added as when the gradient was formed
first, so the total is bitwise the same.

A branch pipeline call runs a whole branch family. Its rows are the
Gaussians of windows (consecutive frames over a set of joints), and the
windows of all branches form one table: each distinct window is embedded
and eigendecomposed once, in one split call over the table (below),
and branches index their rows from it. The sub-sequences are a temporal
pyramid over the same frames, so at t0=1 the 30 spatial-temporal
branches of a 500-frame sequence need 506 windows per finger instead of
1,500. Each branch then embeds its own rows as one second-stage
Gaussian, in branch order; the backward sums each window's row
gradients over the branches before one spectral backward over the
table. A single branch is the one-branch case of the same code. The
table's layout (joint sets, windows sorted by length, each branch's
rows) depends only on the branches and sizes, so `_family_plan` builds
it once per layout, every call shares it, and the call's context
carries it to the backward.

Rectification followed by the logarithm (ReEig then LogEig) is one
spectral function, f = log(max(v, eps)), and the head's LogEig is
f = log; both run through `symmat.spectral_apply` and
`symmat.spectral_grad`, the one spectral map of the package.

The window tables' first stage, their spectral backward, the aggregation
forward (a row piece of W_hat at a time) and the per-block products of
the aggregation backward treat each row of a stack alone. `_split_stack`
cuts such a stack into the same pieces at any thread count, and on two
or more usable cores shares them between the caller and one worker
thread. The caller allocates the outputs and each thread writes the
pieces it computed into their rows, so results are bitwise the same on
one thread and two. Each first-stage piece gathers its own windows'
samples, embeds each run of one length (`_length_runs`, which the
backward walks over the whole table) as one stack, then rectifies,
log-maps and vectorizes the piece, so the table's embedded matrices are
never all held at once. A window's embedding and eigendecomposition do
not depend on the stack it is in, so the pieces give bitwise the table
of one call. The split stays inside the calling layer, so timing a
layer from outside still covers its work.
"""

from __future__ import annotations

import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import InvalidInput
from .skeleton import GRID_NODE_IDS, N_FILTERS, N_GRID_NODES, grid_neighbors, split_range
from .symmat import (
    EigPair,
    _eigh_stack,
    _sym_unvectorize_grad_stack,
    _sym_vectorize_stack,
    assert_spd,
    eigh,
    spd_log,
    spectral_apply,
    spectral_grad,
    sym_vectorize,
    symmetrize,
    tri_length,
)

DEFAULT_RIDGE = 1e-6


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidInput(message)


# ---------------------------------------------------------------------------
# grid convolution


@lru_cache(maxsize=4)
def _conv_triples(mode: str) -> np.ndarray:
    """(triples, 3) read-only rows of (node index, neighbour index, filter
    index), all 0-based; no (node, neighbour) pair repeats."""
    triples = np.array([(node - 3, j - 3, label - 1) for node in GRID_NODE_IDS
                        for j, label in grid_neighbors(mode, node)], dtype=np.intp)
    triples.flags.writeable = False
    return triples


def _conv_kernel(weights: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """The (20 * 3, 20 * d_out) matrix of the convolution on a flattened
    frame: its (neighbour j, node i) block is W_l^T for each triple (i, j, l)
    and zero where j is no neighbour of i."""
    nodes, neighbours, filters = triples.T
    kernel = np.zeros((N_GRID_NODES, 3, N_GRID_NODES, weights.shape[1]))
    kernel[neighbours, :, nodes] = weights[filters].swapaxes(1, 2)
    return kernel.reshape(N_GRID_NODES * 3, -1)


@dataclass
class ConvContext:
    coords: np.ndarray  # (n_frames, 20, 3)
    weights: np.ndarray  # (9, d_out, 3)
    triples: np.ndarray  # `_conv_triples` of the grid


def conv_forward(coords: np.ndarray, weights: np.ndarray, mode: str):
    """Lattice convolution: out_i = sum over neighbours j of W_{l(j,i)} p_j.

    Filter weights are shared across frames; coords is (n_frames, 20, 3)
    and the output (n_frames, 20, d_out); ``mode`` is one of `GRID_MODES`.
    All frames go through one (n_frames, 60) by (60, 20 * d_out) product
    with the lattice kernel.
    """
    coords = np.asarray(coords, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    _require(
        coords.ndim == 3 and coords.shape[1] == N_GRID_NODES and coords.shape[2] == 3,
        f"coords must be (n_frames, {N_GRID_NODES}, 3), got {coords.shape}",
    )
    _require(
        weights.ndim == 3 and weights.shape[0] == N_FILTERS and weights.shape[2] == 3,
        f"weights must be ({N_FILTERS}, d_out, 3), got {weights.shape}",
    )
    _require(bool(np.all(np.isfinite(coords))), "coords has non-finite entries")
    triples = _conv_triples(mode)
    kernel = _conv_kernel(weights, triples)
    with np.errstate(over="ignore", invalid="ignore"):  # finite coords can overflow
        out = (coords.reshape(coords.shape[0], -1) @ kernel).reshape(
            coords.shape[0], N_GRID_NODES, weights.shape[1])
    _require(bool(np.isfinite(out).all()), "lattice convolution has non-finite entries")
    return out, ConvContext(coords=coords, weights=weights, triples=triples)


def conv_backward(ctx: ConvContext, grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the nine filters, (9, d_out, 3).

    The coordinates are the network's input and never trained, so no
    gradient is formed for them. The kernel gradient is one coords^T @ grad
    product, whose block of each triple (i, j, l) is added onto filter l.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    d_out = ctx.weights.shape[1]
    _require(
        grad_out.shape == (ctx.coords.shape[0], N_GRID_NODES, d_out),
        f"upstream gradient shape {grad_out.shape} does not match forward",
    )
    n_frames = ctx.coords.shape[0]
    grad_kernel = (ctx.coords.reshape(n_frames, -1).T @ grad_out.reshape(n_frames, -1)).reshape(
        N_GRID_NODES, 3, N_GRID_NODES, d_out)
    nodes, neighbours, filters = ctx.triples.T
    grad_weights = np.zeros_like(ctx.weights)
    np.add.at(grad_weights, filters, grad_kernel[neighbours, :, nodes].swapaxes(1, 2))
    return grad_weights


# ---------------------------------------------------------------------------
# Gaussian aggregation


def _augment(samples: np.ndarray) -> np.ndarray:
    """[X 1]: the (..., n, d) samples with a column of ones appended."""
    return np.concatenate([samples, np.ones(samples.shape[:-1] + (1,))], axis=-1)


def _gauss_embed_stack(samples: np.ndarray, ridge: float):
    """Embed stacks of sample sets as (d+1)x(d+1) Gaussian SPD matrices.

    samples is (..., n, d); the output block structure is
    [[Sigma + mu mu^T + ridge I, mu], [mu^T, 1]] with population (1/n)
    estimators, computed as [X 1]^T [X 1] / n plus the ridge.
    """
    n, d = samples.shape[-2:]
    x_aug = _augment(samples)
    y = np.swapaxes(x_aug, -1, -2) @ x_aug
    y /= n
    y = symmetrize(y)
    idx = np.arange(d)
    y[..., idx, idx] += ridge
    return y


def _gauss_grad_stack(samples: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the (..., n, d) samples: (2/n) [X 1] G restricted to
    the first d columns, for a symmetric G (callers symmetrize on entry).
    The ridge is constant and drops out."""
    n, d = samples.shape[-2:]
    grad = _augment(samples) @ grad_out[..., :, :d]
    grad *= 2.0 / n
    return grad


@dataclass
class GaussAggContext:
    samples: np.ndarray  # (n, d)


def gauss_agg_forward(samples: np.ndarray, ridge: float = DEFAULT_RIDGE):
    """Embed a sample set's Gaussian (mu, Sigma) as an SPD matrix.

    Returns the (d+1)x(d+1) embedding [[Sigma + mu mu^T, mu], [mu^T, 1]]
    with a ridge added to Sigma so constant inputs stay well-defined.
    """
    samples = np.asarray(samples, dtype=np.float64)
    _require(samples.ndim == 2 and samples.shape[0] >= 1 and samples.shape[1] >= 1,
             f"samples must be a non-empty (n, d) matrix, got {samples.shape}")
    _require(np.isfinite(ridge) and ridge >= 0, f"ridge must be finite and >= 0, got {ridge}")
    return _gauss_embed_stack(samples, ridge), GaussAggContext(samples=samples)


def gauss_agg_backward(ctx: GaussAggContext, grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the (n, d) sample matrix."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    m = ctx.samples.shape[1] + 1
    _require(grad_out.shape == (m, m), f"gradient must be {m}x{m}, got {grad_out.shape}")
    return _gauss_grad_stack(ctx.samples, symmetrize(grad_out))


# ---------------------------------------------------------------------------
# stacks split over two threads


def _new_table_pool() -> None:
    """One worker thread; it starts on the first submit, not at import.

    A forked child inherits the pool but not its thread, so it gets a new one.
    """
    global _table_pool
    _table_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spdhgr-table")


_new_table_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_table_pool)


def table_threads() -> int:
    """Threads `_split_stack` shares a stack between: 2 on two or more
    usable cores, else 1."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return 2 if cores >= 2 else 1


STACK_PIECES = 4  # a split stack is cut into this many pieces


def _split_stack(fn, *stacks):
    """``fn`` over the leading axis of ``stacks``; outputs joined along it.

    ``fn`` works on each row of a stack alone and returns a stack or a
    tuple of stacks. The caller allocates every output, with the
    trailing shapes and dtypes of ``fn`` on a zero-length slice. The
    stack is cut into `STACK_PIECES` pieces, the same pieces at any
    thread count, so a piece whose bits depend on its row count (a GEMM)
    gives the same result on one thread as on two. With two table
    threads the caller and the worker each take the next piece nobody
    has taken until none is left; with one the caller takes them all.
    Each thread writes the pieces it computed into their rows of the
    outputs. The caller waits only for a piece the worker has in hand,
    never for a worker that took none, so a worker that starts late (its
    core busy) costs no more than a serial call. A failure is raised
    once the worker's piece in hand is done; one of the worker reaches
    the caller unchanged. ``fn`` must not call back into this function,
    since the worker never waits on itself.
    """
    n = stacks[0].shape[0]
    empty = fn(*(s[:0] for s in stacks))
    if n == 0:
        return empty
    single = isinstance(empty, np.ndarray)
    outputs = [np.empty((n,) + e.shape[1:], e.dtype) for e in ((empty,) if single else empty)]
    count = min(n, STACK_PIECES)
    bounds = [n * k // count for k in range(count + 1)]
    lock = threading.Lock()
    taken = 0

    def take_pieces():
        """Compute and write pieces until none is left; return how many."""
        nonlocal taken
        done = 0
        while True:
            with lock:
                i, taken = taken, taken + 1
            if i >= count:
                return done
            rows = slice(bounds[i], bounds[i + 1])
            piece = fn(*(s[rows] for s in stacks))
            for out, part in zip(outputs, (piece,) if single else piece):
                out[rows] = part
            del piece, part  # not held through the next piece
            done += 1

    if count < 2 or table_threads() == 1:
        take_pieces()
        return outputs[0] if single else tuple(outputs)
    future = _table_pool.submit(take_pieces)
    try:
        done = take_pieces()
    except BaseException:
        with lock:
            taken = count  # the worker takes no further piece
        future.exception()  # wait for the piece it has in hand
        raise
    if done < count:
        future.result()  # the worker's pieces; raises its failure
    return outputs[0] if single else tuple(outputs)


# ---------------------------------------------------------------------------
# rectified log map of the window tables


def _rect_log_vec_rows(mats: np.ndarray, eps: float):
    """Batched ReEig -> LogEig -> half-vectorization over (n, m, m).

    Returns the vector rows and the cache the backward takes:
    (eigenvectors, eigenvalues, rectified eigenvalues).
    """
    vals, vecs = _eigh_stack(mats)
    rect = np.maximum(vals, eps)
    return _sym_vectorize_stack(spectral_apply(vecs, np.log(rect))), vecs, vals, rect


def _rect_log_vec_grad_rows(vecs, vals, rect, grad_vecs_flat, eps: float):
    g = _sym_unvectorize_grad_stack(grad_vecs_flat, vals.shape[-1])
    return spectral_grad(vecs, vals, np.log(rect), np.where(vals > eps, 1.0 / rect, 0.0), g)


def _rect_log_vec_grad_stack(cache, eps: float, grad_vecs_flat: np.ndarray) -> np.ndarray:
    """Backward of `_rect_log_vec_rows` from per-row vector gradients.

    f' of log(max(v, eps)) is zero at and below eps.
    """
    return _split_stack(partial(_rect_log_vec_grad_rows, eps=eps), *cache, grad_vecs_flat)


# ---------------------------------------------------------------------------
# branch pipelines (one call per family over a window table; see the
# module docstring)


def _length_runs(lengths: np.ndarray):
    """(length, first, stop) ints of each run of one length in ascending ``lengths``."""
    values, firsts = np.unique(lengths, return_index=True)
    return zip(values.tolist(), firsts.tolist(), firsts[1:].tolist() + [lengths.size])


def _window_samples(by_set: np.ndarray, sets: np.ndarray, starts: np.ndarray,
                    length: int) -> np.ndarray:
    """(windows, length * set size, d) samples of windows of one length."""
    samples = by_set[sets[:, None], starts[:, None] + np.arange(length)]
    return samples.reshape(sets.size, length * by_set.shape[2], by_set.shape[3])


def _first_stage_rows(sets, starts, lengths, by_set, eps):
    """The first stage of table entries in ascending length order: each run
    of one length gathers and embeds its windows as one stack, then the
    entries are rectified, log-mapped and vectorized together. Features
    whose squares overflow fail here, on any thread (numpy's error state is
    per thread), before a warning or a non-finite value goes further."""
    d = by_set.shape[-1]
    mats = np.empty((sets.size, d + 1, d + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for length, lo, hi in _length_runs(lengths):
            mats[lo:hi] = _gauss_embed_stack(
                _window_samples(by_set, sets[lo:hi], starts[lo:hi], length), DEFAULT_RIDGE)
    _require(bool(np.isfinite(mats).all()), "window Gaussian has non-finite entries")
    return _rect_log_vec_rows(mats, eps)


WINDOW_CHUNK = 512  # windows whose sample gradients a backward forms at once


@dataclass(frozen=True)
class _FamilyPlan:
    """The window-table layout of one family call; its arrays are read-only.

    Table entries are ordered by length, then joint set, then first frame,
    so the windows of one length are a run of entries (`_length_runs`).
    """

    joint_sets: np.ndarray  # (sets, set size) joint indices of the table
    sets: np.ndarray  # (entries,) joint set of each window
    starts: np.ndarray  # (entries,) first frame of each window
    lengths: np.ndarray  # (entries,) frames of each window, ascending
    rows: tuple[np.ndarray, ...]  # in branch order, the table entry of each branch row


@dataclass
class BranchContext:
    kind: str  # "st" | "ts"
    shape: tuple[int, int, int]  # input (n_frames, n_joints, feat_dim)
    out_shape: tuple[int, ...]  # (m, m) for one branch, else (branches, m, m)
    eps: float
    plan: _FamilyPlan  # the call's layout, shared with every call of it
    by_set: np.ndarray  # (sets, frames, set size, d) features of each joint set
    spectral_cache: tuple  # of the window table, one entry per window
    vecs: np.ndarray  # (entries, m - 1) vector row of each window, the second stage's samples


def _st_rows(t0, n_frames, joints):
    _require(n_frames >= 2 * t0 + 1,
             f"branch of {n_frames} frames is shorter than the window {2 * t0 + 1}")
    t = np.arange(n_frames)
    return ([joints], np.zeros(n_frames, dtype=np.intp),
            np.maximum(t - t0, 0), np.minimum(t + t0 + 1, n_frames))


def _ts_rows(n_chunks, n_frames, joints):
    _require(n_frames >= 2 * n_chunks,
             f"branch of {n_frames} frames cannot give {n_chunks} chunks of >= 2 frames")
    bounds = np.array(split_range(n_frames, n_chunks))
    n = len(joints)
    return ([[j] for j in joints], np.repeat(np.arange(n), n_chunks),
            np.tile(bounds[:, 0], n), np.tile(bounds[:, 1], n))


# family -> rows_of(size, n_frames, joints): one branch cut into rows, as
# (joint sets, per-row set, per-row start, per-row stop) with frames
# relative to the branch start
_ROWS_OF = {"st": _st_rows, "ts": _ts_rows}


@lru_cache(maxsize=16)
def _family_plan(kind: str, size: int, n_frames: int, n_joints: int,
                 branches: tuple) -> _FamilyPlan:
    """The joint sets, window table and each branch's rows (in branch
    order) of a family call, built once per layout.

    ``size`` is t0 (st) or the chunk count (ts), and ``branches`` holds
    (first frame, stop frame, joint tuple) per branch, all ints.
    """
    set_index: dict[tuple, int] = {}
    rows, n_rows = [], []
    for k, (start, stop, joints) in enumerate(branches):
        _require(0 <= start < stop <= n_frames,
                 f"branch frames [{start}, {stop}) outside [0, {n_frames})")
        _require(len(joints) >= 1, f"branch {k} (frames [{start}, {stop})) has no joints")
        _require(len(set(joints)) == len(joints), f"branch joints {list(joints)} repeat")
        sets, row_set, lo, hi = _ROWS_OF[kind](size, stop - start, joints)
        ids = np.array([set_index.setdefault(tuple(s), len(set_index)) for s in sets])
        rows.append((ids[row_set], start + lo, hi - lo))  # (set, first frame, length)
        n_rows.append(row_set.size)
    _require(len({len(s) for s in set_index}) == 1,
             "branches of one call must cover equally many joints")
    joint_sets = np.array(list(set_index), dtype=np.intp)
    _require(bool(np.all((joint_sets >= 0) & (joint_sets < n_joints))),
             f"branch joints outside [0, {n_joints})")
    row_sets, row_starts, row_lengths = (np.concatenate(a) for a in zip(*rows))
    # one integer key per window, ordered by (length, set, first frame)
    keys = (row_lengths * len(joint_sets) + row_sets) * n_frames + row_starts
    table, row_entry = np.unique(keys, return_inverse=True)
    rest, starts = np.divmod(table, n_frames)
    lengths, sets = np.divmod(rest, len(joint_sets))
    branch_rows = tuple(np.split(row_entry, np.cumsum(n_rows[:-1])))
    for a in (joint_sets, sets, starts, lengths, *branch_rows):  # every call shares them
        a.flags.writeable = False
    return _FamilyPlan(joint_sets=joint_sets, sets=sets, starts=starts, lengths=lengths,
                       rows=branch_rows)


def _branch_family_forward(kind, size, feats, branches, eps):
    """Shared forward of both families; ``size`` is as for `_family_plan`."""
    feats = np.asarray(feats, dtype=np.float64)
    _require(feats.ndim == 3, f"branch features must be (frames, joints, dim), got {feats.shape}")
    _require(np.isfinite(eps) and eps > 0, f"eps must be finite and > 0, got {eps}")
    n_frames, n_joints, _ = feats.shape
    single = branches is None
    if single:
        branches = [(0, n_frames, range(n_joints))]
    _require(len(branches) >= 1, "no branches given")
    try:  # operator.index refuses a float that int() would truncate
        key = tuple((operator.index(start), operator.index(stop), tuple(map(operator.index, js)))
                    for start, stop, js in branches)
    except TypeError as error:
        raise InvalidInput(f"branch frames and joints must be integers: {error}") from None
    plan = _family_plan(kind, size, n_frames, n_joints, key)

    # first stage: every distinct window once, a piece of the table at a time
    by_set = feats[:, plan.joint_sets].swapaxes(0, 1)
    vecs, *cache = _split_stack(partial(_first_stage_rows, by_set=by_set, eps=eps),
                                plan.sets, plan.starts, plan.lengths)

    # second stage: one Gaussian over each branch's rows
    m = vecs.shape[1] + 1
    out = np.empty((len(branches), m, m))
    for k, rows in enumerate(plan.rows):
        out[k] = _gauss_embed_stack(vecs[rows], DEFAULT_RIDGE)
    if single:
        out = out[0]
    return out, BranchContext(kind=kind, shape=feats.shape, out_shape=out.shape, eps=eps,
                              plan=plan, by_set=by_set, spectral_cache=tuple(cache), vecs=vecs)


def st_branch_forward(feats: np.ndarray, t0: int, eps: float, branches=None):
    """Spatial-then-temporal branches.

    Per frame, a Gaussian over all the branch's joints in a sliding
    window (clamped at the branch boundary) is embedded, rectified,
    log-mapped and vectorized; a second Gaussian over the per-frame
    vectors yields the branch's SPD descriptor of side (d(d+3)/2 + 2).
    Both Gaussians add the fixed ridge `DEFAULT_RIDGE` to their Sigma.

    ``feats`` is (frames, joints, dim). Without ``branches`` it is one
    branch and the output is its descriptor; otherwise ``branches`` lists
    (first frame, stop frame, joint indices) per branch and the output
    stacks their descriptors in that order.
    """
    _require(t0 >= 1, f"t0 must be >= 1, got {t0}")
    return _branch_family_forward("st", t0, feats, branches, eps)


def ts_branch_forward(feats: np.ndarray, n_chunks: int, eps: float, branches=None):
    """Temporal-then-spatial branches.

    Each branch is cut into ``n_chunks`` equal-length chunks; per joint
    and chunk a single-joint Gaussian is embedded, rectified, log-mapped
    and vectorized; a second Gaussian over all joints x chunks vectors
    (joint-major) yields the branch descriptor. ``branches`` is as for
    `st_branch_forward`, and so is the fixed ridge `DEFAULT_RIDGE`.
    """
    _require(n_chunks >= 2, f"n_chunks must be >= 2, got {n_chunks}")
    return _branch_family_forward("ts", n_chunks, feats, branches, eps)


def branch_backward(ctx: BranchContext, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of a family call w.r.t. its (frames, joints, dim) features.

    ``grad_out`` has the forward output's shape. The first stage is
    linear in its upstream gradient, so the row gradients of each
    distinct window are summed over the branches, in branch order, before
    one spectral backward over the table; overlapping windows then
    accumulate additively. Each stage's samples are re-gathered from the
    context just before their gradient, window samples `WINDOW_CHUNK`
    windows at a time.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    _require(grad_out.shape == ctx.out_shape,
             f"branch gradient must be {ctx.out_shape}, got {grad_out.shape}")
    grads = symmetrize(grad_out).reshape((-1,) + grad_out.shape[-2:])
    plan = ctx.plan
    grad_table = np.zeros(ctx.vecs.shape)
    for rows, grad in zip(plan.rows, grads):  # one branch's rows never repeat
        grad_table[rows] += _gauss_grad_stack(ctx.vecs[rows], grad)
    dmats = _rect_log_vec_grad_stack(ctx.spectral_cache, ctx.eps, grad_table)
    del grad_table

    n_frames, _, d = ctx.shape
    n_sets, set_size = plan.joint_sets.shape
    by_set = np.zeros((n_sets, n_frames, set_size, d))
    for length, lo, hi in _length_runs(plan.lengths):
        sets, starts, run_dmats = plan.sets[lo:hi], plan.starts[lo:hi], dmats[lo:hi]
        grad_samples = np.empty((hi - lo, length * set_size, d))
        for first in range(0, hi - lo, WINDOW_CHUNK):
            part = slice(first, first + WINDOW_CHUNK)
            samples = _window_samples(ctx.by_set, sets[part], starts[part], length)
            grad_samples[part] = _gauss_grad_stack(samples, run_dmats[part])
        grad_samples = grad_samples.reshape(hi - lo, length, set_size, d)
        # within one run and offset every (set, frame) pair occurs at most once
        for k in range(length):
            by_set[sets, starts + k] += grad_samples[:, k]
    grad_feats = np.zeros(ctx.shape)
    for joints, grad in zip(plan.joint_sets, by_set):
        grad_feats[:, joints] += grad
    return grad_feats


# ---------------------------------------------------------------------------
# SPD aggregation


@dataclass
class SpdAggContext:
    """The inputs, the weight and the output's eigendecomposition.

    W_i X_i is not kept: the backward forms G W_i first, from which both
    gradients follow.
    """

    xs: np.ndarray  # (N, d_in, d_in)
    w_hat: np.ndarray  # (d_out, N * d_in)
    out_eig: EigPair


def _w_blocks(w_hat: np.ndarray, n: int, d_in: int) -> np.ndarray:
    """View of the N column blocks W_i, shape (N, d_out, d_in)."""
    return w_hat.reshape(w_hat.shape[0], n, d_in).swapaxes(0, 1)


def _agg_rows(w_rows, xs, w_hat):
    """Rows of sum_i (W_i X_i) W_i^T for the rows ``w_rows`` of W_hat: one
    product of their W_i X_i block rows, written in place into a
    (rows, N * d_in) buffer, with W_hat^T."""
    n, d_in = xs.shape[0], xs.shape[1]
    wx_rows = np.empty(w_rows.shape)
    np.matmul(_w_blocks(w_rows, n, d_in), xs, out=_w_blocks(wx_rows, n, d_in))
    return wx_rows @ w_hat.T


def spd_agg_forward(xs: np.ndarray, w_hat: np.ndarray):
    """Aggregate N SPD matrices: Y = sum_i W_i X_i W_i^T.

    Equals W_hat applied to the block-diagonal of the inputs; with W_hat
    of full row rank the output is SPD, which is asserted. Y is formed in
    row pieces of W_hat through `_split_stack`, so the W_i X_i blocks are
    never whole and the product runs on both table threads.
    """
    xs = np.asarray(xs, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    _require(xs.ndim == 3 and xs.shape[1] == xs.shape[2],
             f"inputs must be (N, d_in, d_in), got {xs.shape}")
    n, d_in = xs.shape[0], xs.shape[1]
    _require(w_hat.ndim == 2 and w_hat.shape[1] == n * d_in,
             f"weight must be (d_out, {n * d_in}), got {w_hat.shape}")
    _require(w_hat.shape[0] <= w_hat.shape[1],
             f"d_out {w_hat.shape[0]} exceeds N*d_in {w_hat.shape[1]}")
    y = symmetrize(_split_stack(partial(_agg_rows, xs=xs, w_hat=w_hat), w_hat))
    eig = assert_spd(y, "spd_agg_forward output")
    return y, SpdAggContext(xs=xs, w_hat=w_hat, out_eig=eig)


def _agg_grad_blocks(blocks, xs, grad_blocks, g):
    """dX_i = W_i^T (G W_i); adds dW_i = 2 (G W_i) X_i into ``grad_blocks``."""
    gw = g @ blocks
    grad_blocks += gw @ (2.0 * xs)
    return np.swapaxes(blocks, 1, 2) @ gw


def spd_agg_backward(ctx: SpdAggContext, grad_out: np.ndarray, into: np.ndarray | None = None):
    """Per-input gradients and the Euclidean gradient of the combined weight.

    dL/dX_i = W_i^T G W_i and dL/dW_i = 2 G W_i X_i with G the
    symmetrized upstream gradient, both from G W_i. The W_i gradients
    are added, a piece of blocks at a time, into the column blocks of
    ``into``, a running W_hat gradient total (a new zero one if None),
    which is returned second.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    d_out = ctx.w_hat.shape[0]
    _require(grad_out.shape == (d_out, d_out),
             f"gradient must be {d_out}x{d_out}, got {grad_out.shape}")
    g = symmetrize(grad_out)
    n, d_in = ctx.xs.shape[0], ctx.xs.shape[1]
    grad_w_hat = np.zeros(ctx.w_hat.shape) if into is None else into
    _require(grad_w_hat.shape == ctx.w_hat.shape,
             f"weight gradient total must be {ctx.w_hat.shape}, got {grad_w_hat.shape}")
    grad_xs = _split_stack(partial(_agg_grad_blocks, g=g), _w_blocks(ctx.w_hat, n, d_in),
                           ctx.xs, _w_blocks(grad_w_hat, n, d_in))
    return grad_xs, grad_w_hat


def block_diagonal(xs: np.ndarray) -> np.ndarray:
    """Stack SPD matrices into one block-diagonal matrix."""
    xs = np.asarray(xs, dtype=np.float64)
    n, d = xs.shape[0], xs.shape[1]
    out = np.zeros((n * d, n * d))
    for i in range(n):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = xs[i]
    return out


# ---------------------------------------------------------------------------
# classifier head


@dataclass
class HeadContext:
    eig: EigPair  # of the input
    log_flat: np.ndarray
    probs: np.ndarray
    fc_weight: np.ndarray


def head_forward(y: np.ndarray, fc_weight: np.ndarray, fc_bias: np.ndarray,
                 y_eig: EigPair | None = None):
    """Log-map the SPD input, apply a fully connected layer and softmax."""
    fc_weight = np.asarray(fc_weight, dtype=np.float64)
    fc_bias = np.asarray(fc_bias, dtype=np.float64)
    d = np.asarray(y).shape[0]
    _require(fc_weight.ndim == 2 and fc_weight.shape[1] == d * d,
             f"fc weight must be (n_classes, {d * d}), got {fc_weight.shape}")
    _require(fc_bias.shape == (fc_weight.shape[0],),
             f"fc bias must be ({fc_weight.shape[0]},), got {fc_bias.shape}")
    if y_eig is None:
        y_eig = eigh(y)
    log_flat = spd_log(y, y_eig).ravel()
    logits = fc_weight @ log_flat + fc_bias
    shifted = np.exp(logits - np.max(logits))
    probs = shifted / shifted.sum()
    return logits, probs, HeadContext(eig=y_eig, log_flat=log_flat, probs=probs,
                                      fc_weight=fc_weight)


def head_backward(ctx: HeadContext, true_label: int, into: np.ndarray | None = None):
    """Cross-entropy gradients: (dL/dY, dL/dW_fc, dL/db_fc).

    dL/dW_fc is the outer product of dL/db_fc and the flattened log map.
    It is added row by row into ``into``, a running FC weight gradient
    total (a new zero one if None), which is returned as dL/dW_fc, so the
    product itself is never formed.
    """
    n_classes = ctx.probs.shape[0]
    if not 0 <= true_label < n_classes:
        raise InvalidInput(f"label {true_label} out of range [0, {n_classes})")
    grad_fc = np.zeros(ctx.fc_weight.shape) if into is None else into
    _require(grad_fc.shape == ctx.fc_weight.shape,
             f"fc gradient total must be {ctx.fc_weight.shape}, got {grad_fc.shape}")
    dz = ctx.probs.copy()
    dz[true_label] -= 1.0
    for row, dz_k in zip(grad_fc, dz):
        row += dz_k * ctx.log_flat
    d = ctx.eig.dim
    grad_log = (ctx.fc_weight.T @ dz).reshape(d, d)
    vals = ctx.eig.vals
    grad_y = spectral_grad(ctx.eig.vecs, vals, np.log(vals), 1.0 / vals, grad_log)
    return grad_y, grad_fc, dz


def cross_entropy(probs: np.ndarray, true_label: int) -> float:
    if not 0 <= true_label < probs.shape[0]:
        raise InvalidInput(f"label {true_label} out of range [0, {probs.shape[0]})")
    return float(-np.log(max(float(probs[true_label]), 1e-300)))


def extract_representation(y: np.ndarray, eig: EigPair | None = None) -> np.ndarray:
    """Log-Euclidean feature vector of an SPD matrix, length d(d+1)/2.

    Accepts a precomputed eigendecomposition of ``y``, as `spd_log` does.
    """
    return sym_vectorize(spd_log(y, eig))


def branch_output_dim(feat_dim: int) -> int:
    """Side length of a branch's SPD descriptor for a given feature dim."""
    return tri_length(feat_dim + 1) + 1
