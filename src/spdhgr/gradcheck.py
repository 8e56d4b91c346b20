"""Finite-difference verification of every hand-written backward pass.

Each check builds random instances, probes the layer with a fixed random
linear functional, and compares the analytic input gradients against
central finite differences (step 1e-5 times the input scale). Relative
error is measured norm-wise. The end-to-end check differentiates the
full network loss on a tiny configuration with respect to every
trainable parameter entry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import layers
from .errors import InvalidInput
from .layers import cross_entropy
from .network import NetworkConfig, backward, forward, init_params
from .optim import stiefel_init
from .skeleton import N_FILTERS, N_GRID_NODES
from .symmat import (
    eigh,
    rectify_eigs,
    spd_log,
    spectral_grad,
    sym_unvectorize_grad,
    sym_vectorize,
    symmetrize,
    tri_length,
)

PER_LAYER_TOL = 1e-5
END_TO_END_TOL = 1e-4

TINY_CONFIG = NetworkConfig(
    n_classes=2, d_out_c=2, d_out_s=4, n_frames=12, t0=1, n_chunks=2,
)


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(analytic - fd)) / scale


def fd_gradient(loss_fn, x: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    With ``symmetric`` set, off-diagonal entries are perturbed in
    symmetric pairs and the result is the Frobenius-pairing gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    grad = np.zeros_like(x)
    if symmetric:
        n = x.shape[0]
        for i in range(n):
            for j in range(i, n):
                e = np.zeros_like(x)
                e[i, j] = 1.0
                e[j, i] = 1.0
                diff = (loss_fn(x + h * e) - loss_fn(x - h * e)) / (2.0 * h)
                grad[i, j] = diff if i == j else diff / 2.0
                grad[j, i] = grad[i, j]
        return grad
    flat = np.zeros(x.size)
    base = np.ascontiguousarray(x).reshape(-1)
    for k in range(base.size):
        e = np.zeros_like(base)
        e[k] = h
        flat[k] = (loss_fn((base + e).reshape(x.shape))
                   - loss_fn((base - e).reshape(x.shape))) / (2.0 * h)
    return flat.reshape(x.shape)


def _random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def _sym_with_eigs(rng, vals: np.ndarray) -> np.ndarray:
    q = _random_orthogonal(rng, vals.shape[0])
    return symmetrize((q * vals) @ q.T)


def _spread_eigs(rng, n: int, lo: float, hi: float, min_gap: float = 1e-3,
                 avoid: float | None = None) -> np.ndarray:
    while True:
        vals = np.sort(rng.uniform(lo, hi, size=n))
        if np.all(np.diff(vals) >= min_gap) and (
            avoid is None or np.all(np.abs(vals - avoid) >= 10 * min_gap)
        ):
            return vals


def _check_gauss_agg(rng) -> float:
    n = int(rng.integers(2, 9))
    d = int(rng.integers(1, 6))
    samples = rng.standard_normal((n, d))
    probe = symmetrize(rng.standard_normal((d + 1, d + 1)))
    _, ctx = layers.gauss_agg_forward(samples)
    analytic = layers.gauss_agg_backward(ctx, probe)
    fd = fd_gradient(lambda s: float(np.sum(layers.gauss_agg_forward(s)[0] * probe)),
                     samples)
    return rel_error(analytic, fd)


def _draw_spectrum(rng, n: int, lo: float, hi: float, eps: float | None = None):
    """Eigenvalues in [lo, hi], drawn distinct, with one exactly repeated,
    or (given ``eps``) with two or more, but not all, below eps. Every
    eigenvalue stays 1e-2 clear of eps, so no finite-difference step
    crosses the clamp."""
    kind = int(rng.integers(2 if eps is None else 3))
    if kind == 2:
        k = int(rng.integers(2, n))
        return np.concatenate([_spread_eigs(rng, k, lo, eps - 1e-2),
                               _spread_eigs(rng, n - k, eps + 1e-2, hi)])
    vals = _spread_eigs(rng, n, lo, hi, avoid=eps)
    if kind == 1:
        i = int(rng.integers(n - 1))
        vals[i] = vals[i + 1]
    return vals


def _check_reeig(rng) -> float:
    n = int(rng.integers(3, 7))
    eps = 0.5
    a = _sym_with_eigs(rng, _draw_spectrum(rng, n, 0.05, 3.0, eps))
    probe = symmetrize(rng.standard_normal((n, n)))
    eig = eigh(a)
    analytic = spectral_grad(eig.vecs, eig.vals, np.maximum(eig.vals, eps),
                             np.where(eig.vals > eps, 1.0, 0.0), probe)
    fd = fd_gradient(lambda m: float(np.sum(rectify_eigs(m, eps) * probe)), a, symmetric=True)
    return rel_error(analytic, fd)


def _check_logeig(rng) -> float:
    n = int(rng.integers(3, 7))
    a = _sym_with_eigs(rng, _draw_spectrum(rng, n, 0.1, 5.0))
    probe = symmetrize(rng.standard_normal((n, n)))
    eig = eigh(a)
    analytic = spectral_grad(eig.vecs, eig.vals, np.log(eig.vals), 1.0 / eig.vals, probe)
    fd = fd_gradient(lambda m: float(np.sum(spd_log(m) * probe)), a, symmetric=True)
    return rel_error(analytic, fd)


def _check_vecmat(rng) -> float:
    n = int(rng.integers(2, 7))
    a = symmetrize(rng.standard_normal((n, n)))
    probe = rng.standard_normal(tri_length(n))
    analytic = sym_unvectorize_grad(probe)
    fd = fd_gradient(lambda m: float(sym_vectorize(m) @ probe), a, symmetric=True)
    return rel_error(analytic, fd)


def _check_spd_agg(rng) -> float:
    n = int(rng.integers(2, 5))
    d_in = int(rng.integers(2, 5))
    d_out = int(rng.integers(2, min(n * d_in, 6) + 1))
    xs = np.stack([
        _sym_with_eigs(rng, _spread_eigs(rng, d_in, 0.2, 3.0)) for _ in range(n)
    ])
    w_hat = stiefel_init(d_out, n * d_in, int(rng.integers(1 << 30)))
    probe = symmetrize(rng.standard_normal((d_out, d_out)))
    _, ctx = layers.spd_agg_forward(xs, w_hat)
    grad_xs, grad_w = layers.spd_agg_backward(ctx, probe)

    worst = 0.0
    for i in range(n):
        def loss_x(m, i=i):
            stacked = xs.copy()
            stacked[i] = m
            return float(np.sum(layers.spd_agg_forward(stacked, w_hat)[0] * probe))

        worst = max(worst, rel_error(grad_xs[i], fd_gradient(loss_x, xs[i], symmetric=True)))
    fd_w = fd_gradient(lambda w: float(np.sum(layers.spd_agg_forward(xs, w)[0] * probe)),
                       w_hat)
    return max(worst, rel_error(grad_w, fd_w))


def _check_conv(rng) -> float:
    n_frames = int(rng.integers(2, 5))
    d_out = int(rng.integers(2, 4))
    mode = "full" if rng.uniform() < 0.7 else "physical"
    coords = rng.standard_normal((n_frames, N_GRID_NODES, 3))
    weights = rng.standard_normal((N_FILTERS, d_out, 3))
    probe = rng.standard_normal((n_frames, N_GRID_NODES, d_out))
    _, ctx = layers.conv_forward(coords, weights, mode)
    grad_coords, grad_weights = layers.conv_backward(ctx, probe)
    fd_c = fd_gradient(lambda c: float(np.sum(layers.conv_forward(c, weights, mode)[0] * probe)),
                       coords)
    fd_w = fd_gradient(lambda w: float(np.sum(layers.conv_forward(coords, w, mode)[0] * probe)),
                       weights)
    return max(rel_error(grad_coords, fd_c), rel_error(grad_weights, fd_w))


def _check_head(rng) -> float:
    d = int(rng.integers(3, 6))
    n_classes = int(rng.integers(2, 5))
    y = _sym_with_eigs(rng, _spread_eigs(rng, d, 0.2, 4.0))
    fc_w = rng.standard_normal((n_classes, d * d))
    fc_b = rng.standard_normal(n_classes)
    label = int(rng.integers(n_classes))
    _, probs, ctx = layers.head_forward(y, fc_w, fc_b)
    grad_y, grad_fc, grad_b = layers.head_backward(ctx, label)

    def loss_y(m):
        _, p, _ = layers.head_forward(m, fc_w, fc_b)
        return cross_entropy(p, label)

    def loss_w(w):
        _, p, _ = layers.head_forward(y, w, fc_b)
        return cross_entropy(p, label)

    def loss_b(b):
        _, p, _ = layers.head_forward(y, fc_w, b)
        return cross_entropy(p, label)

    return max(
        rel_error(grad_y, fd_gradient(loss_y, y, symmetric=True)),
        rel_error(grad_fc, fd_gradient(loss_w, fc_w)),
        rel_error(grad_b, fd_gradient(loss_b, fc_b)),
    )


def _branch_check(rng, kind: str) -> float:
    n_frames = int(rng.integers(7, 10))
    n_joints = 4
    d = int(rng.integers(2, 4))
    feats = rng.standard_normal((n_frames, n_joints, d))
    m = tri_length(d + 1) + 1
    probe = symmetrize(rng.standard_normal((m, m)))
    eps = 1e-4
    if kind == "st":
        fwd = lambda f: layers.st_branch_forward(f, 1, eps)
    else:
        fwd = lambda f: layers.ts_branch_forward(f, 2, eps)
    _, ctx = fwd(feats)
    analytic = layers.branch_backward(ctx, probe)
    fd = fd_gradient(lambda f: float(np.sum(fwd(f)[0] * probe)), feats)
    return rel_error(analytic, fd)


def check_end_to_end(seed: int, config: NetworkConfig = TINY_CONFIG) -> CheckResult:
    """Full-network loss gradient versus finite differences, every entry."""
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    coords = rng.standard_normal((config.n_frames, N_GRID_NODES, 3))
    label = int(rng.integers(config.n_classes))

    probs, ctx, _ = forward(coords, params, config)
    grads = backward(ctx, label)

    def loss_with(**replacement):
        p, _, _ = forward(coords, dataclasses.replace(params, **replacement), config)
        return cross_entropy(p, label)

    worst = 0.0
    for field in dataclasses.fields(params):
        name = field.name
        fd = fd_gradient(lambda v, name=name: loss_with(**{name: v}), getattr(params, name))
        worst = max(worst, rel_error(getattr(grads, name), fd))
    return CheckResult(name="end_to_end", max_rel_err=worst, tol=END_TO_END_TOL, trials=1)


LAYER_CHECKS = {
    "gauss_agg": _check_gauss_agg,
    "reeig": _check_reeig,
    "logeig": _check_logeig,
    "vecmat": _check_vecmat,
    "spd_agg": _check_spd_agg,
    "conv": _check_conv,
    "head": _check_head,
    "st_branch": lambda rng: _branch_check(rng, "st"),
    "ts_branch": lambda rng: _branch_check(rng, "ts"),
}


def check_layer(name: str, seed: int, trials: int = 20) -> CheckResult:
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, LAYER_CHECKS[name](rng))
    return CheckResult(name=name, max_rel_err=worst, tol=PER_LAYER_TOL, trials=trials)


def run_all(seed: int = 0, trials: int = 20,
            include_end_to_end: bool = True) -> list[CheckResult]:
    results = [check_layer(name, seed, trials) for name in LAYER_CHECKS]
    if include_end_to_end:
        results.append(check_end_to_end(seed))
    return results
