"""The one spectral backward against the two-pass backward it replaced.

The reference below is the eigendecomposition backprop the package used
before `symmat.spectral_grad`: gradients w.r.t. eigenvectors and
eigenvalues pushed through the Ionescu formula, with the cross term of
any pair whose gap fell below a guard set to zero, and the branch tables'
ReEig -> LogEig backward run as two chained passes of it. On
well-separated spectra both compute the same derivative.
"""

import numpy as np
import pytest

from spdhgr.layers import _rect_log_vec_grad_stack, _rect_log_vec_rows, st_branch_forward
from spdhgr.symmat import eigh, spectral_grad, symmetrize, tri_length

from test_symmat import random_orthogonal

DEGENERACY_SCALE = 1e-10


def ref_eig_grad_core(vecs, vals, g_vecs, g_vals):
    gaps = vals[..., :, None] - vals[..., None, :]
    span = np.max(vals, axis=-1) - np.min(vals, axis=-1)
    guard = DEGENERACY_SCALE * (span + 1.0)
    off = ~np.eye(vals.shape[-1], dtype=bool)
    usable = (np.abs(gaps) >= guard[..., None, None]) & off
    kt = np.where(usable, -1.0, 0.0) / np.where(usable, gaps, 1.0)
    inner = kt * (np.swapaxes(vecs, -1, -2) @ g_vecs)
    inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    inner[..., np.arange(vals.shape[-1]), np.arange(vals.shape[-1])] = g_vals
    grad = vecs @ inner @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def ref_rect_log_vec_grad_stack(cache, eps, grad_vecs_flat):
    vecs, vals, rect = cache
    m = vals.shape[-1]
    rows, cols = np.triu_indices(m)
    half = np.zeros(grad_vecs_flat.shape[:-1] + (m, m))
    half[..., rows, cols] = grad_vecs_flat * np.where(rows != cols, 1.0 / np.sqrt(2.0), 0.5)
    g = half + np.swapaxes(half, -1, -2)
    grad_u = 2.0 * g @ (vecs * np.log(rect)[..., None, :])
    inner = np.swapaxes(vecs, -1, -2) @ g @ vecs
    grad_v = np.diagonal(inner, axis1=-2, axis2=-1) / rect
    dx = ref_eig_grad_core(vecs, rect, grad_u, grad_v)
    grad_u = 2.0 * dx @ (vecs * rect[..., None, :])
    inner = np.swapaxes(vecs, -1, -2) @ dx @ vecs
    grad_v = np.where(vals > eps, np.diagonal(inner, axis1=-2, axis2=-1), 0.0)
    return ref_eig_grad_core(vecs, vals, grad_u, grad_v)


def ref_logeig_backward(eig, grad_out):
    g = symmetrize(grad_out)
    u, vals = eig.vecs, eig.vals
    grad_vecs = 2.0 * g @ (u * np.log(vals))
    grad_vals = np.diagonal(u.T @ g @ u) / vals
    return ref_eig_grad_core(u, vals, grad_vecs, grad_vals)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def separated_spd(rng, n, lo, hi):
    """SPD matrix whose eigenvalues are at least (hi - lo) / (2 n) apart."""
    vals = lo + (hi - lo) * (np.arange(n) + rng.uniform(0.25, 0.75, n)) / n
    q = random_orthogonal(rng, n)
    return symmetrize((q * vals) @ q.T)


@pytest.mark.parametrize("m", [4, 10])
def test_window_table_matches_two_pass_backward(rng, m):
    # eigenvalues on both sides of eps, so clamped directions are included
    eps = 1.0
    mats = np.stack([separated_spd(rng, m, 0.01, 5.0) for _ in range(200)])
    grad = rng.standard_normal((200, tri_length(m)))
    _, *cache = _rect_log_vec_rows(mats, eps)
    assert np.any(cache[1] < eps)
    new = _rect_log_vec_grad_stack(cache, eps, grad)
    old = ref_rect_log_vec_grad_stack(cache, eps, grad)
    assert rel(new, old) <= 1e-10


def test_network_window_table_matches_two_pass_backward(rng):
    # a real st table: ridge-level eigenvalues repeat below eps
    feats = rng.standard_normal((90, 4, 9))
    eps = 1e-4
    _, ctx = st_branch_forward(feats, 1, eps)
    grad = rng.standard_normal((ctx.spectral_cache[1].shape[0], tri_length(10)))
    new = _rect_log_vec_grad_stack(ctx.spectral_cache, eps, grad)
    old = ref_rect_log_vec_grad_stack(ctx.spectral_cache, eps, grad)
    assert rel(new, old) <= 1e-10


@pytest.mark.parametrize("m", [56, 200])
def test_log_map_matches_two_pass_backward(rng, m):
    eig = eigh(separated_spd(rng, m, 0.05, 20.0))
    grad = rng.standard_normal((m, m))
    vals = eig.vals
    new = spectral_grad(eig.vecs, vals, np.log(vals), 1.0 / vals, grad)
    assert rel(new, ref_logeig_backward(eig, grad)) <= 1e-10

