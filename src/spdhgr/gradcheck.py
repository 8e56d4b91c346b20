"""Finite-difference verification of every hand-written backward pass.

Each check builds random instances, probes the layer with a fixed random
linear functional, and hands the loss, its inputs and their analytic
gradients to one comparison, `_worst`: central finite differences in
each input with the others held (step 1e-5 times the input scale),
relative error measured norm-wise. reeig and logeig difference U f(V) U^T
as `spectral_apply` forms it; rect_log_vec differences the fused rows the
branches run (log(max(v, eps)), then half-vectorization) on spectra drawn
as for reeig; vecmat checks the batched adjoint the branches run; conv
differentiates in the filters alone, the coordinates being input. The
end-to-end check differentiates the full network loss on a tiny
configuration of each variant (st_ts, st_only, ts_only) with respect to
every trainable parameter entry, at a random nonzero FC weight: at
`init_params`' zero FC weight the logits are the bias alone, and the
conv and W_hat gradients are exactly zero.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import layers
from .errors import InvalidInput
from .layers import cross_entropy
from .network import (
    VARIANTS, NetworkConfig, NetworkParams, backward, forward, init_params,
)
from .optim import stiefel_init
from .skeleton import N_FILTERS, N_GRID_NODES
from .symmat import (
    _sym_unvectorize_grad_stack,
    eigh,
    spectral_apply,
    spectral_grad,
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
    symmetric pairs and the result is the Frobenius-pairing gradient; an
    entry below the diagonal is filled from its pair.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        pair = idx[::-1] if symmetric else idx
        if pair < idx:
            grad[idx] = grad[pair]
            continue
        e = np.zeros_like(x)
        e[idx] = e[pair] = 1.0
        diff = (loss_fn(x + h * e) - loss_fn(x - h * e)) / (2.0 * h)
        grad[idx] = diff if pair == idx else diff / 2.0
    return grad


def _worst(loss, args, grads, symmetric=()) -> float:
    """Largest relative error of ``grads`` against `fd_gradient` of
    ``loss(*args)`` in each argument, the others held; an argument whose
    index is in ``symmetric`` is perturbed in symmetric pairs."""
    worst = 0.0
    for k, (x, grad) in enumerate(zip(args, grads, strict=True)):
        fd = fd_gradient(lambda v: loss(*args[:k], v, *args[k + 1:]), x, k in symmetric)
        worst = max(worst, rel_error(grad, fd))
    return worst


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
    return _worst(lambda s: float(np.sum(layers.gauss_agg_forward(s)[0] * probe)),
                  (samples,), (layers.gauss_agg_backward(ctx, probe),))


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


def _check_spectral(rng, lo: float, hi: float, eps: float | None, f, df) -> float:
    """The Loewner-form backward of the spectral map U f(V) U^T (``f``
    with derivative ``df``) on a spectrum drawn in [lo, hi]."""
    n = int(rng.integers(3, 7))
    a = _sym_with_eigs(rng, _draw_spectrum(rng, n, lo, hi, eps))
    probe = symmetrize(rng.standard_normal((n, n)))
    eig = eigh(a)
    analytic = spectral_grad(eig.vecs, eig.vals, f(eig.vals), df(eig.vals), probe)

    def loss(m):
        eig_m = eigh(m)
        return float(np.sum(spectral_apply(eig_m.vecs, f(eig_m.vals)) * probe))

    return _worst(loss, (a,), (analytic,), symmetric=(0,))


def _check_rect_log_vec(rng) -> float:
    n = int(rng.integers(3, 7))
    a = _sym_with_eigs(rng, _draw_spectrum(rng, n, 0.05, 3.0, 0.5))
    probe = rng.standard_normal(tri_length(n))
    _, *cache = layers._rect_log_vec_rows(a[None], 0.5)
    return _worst(lambda m: float(probe @ layers._rect_log_vec_rows(m[None], 0.5)[0][0]),
                  (a,), (layers._rect_log_vec_grad_rows(*cache, probe[None], 0.5)[0],),
                  symmetric=(0,))


def _check_vecmat(rng) -> float:
    n = int(rng.integers(2, 7))
    a = symmetrize(rng.standard_normal((n, n)))
    probe = rng.standard_normal(tri_length(n))
    return _worst(lambda m: float(sym_vectorize(m) @ probe), (a,),
                  (_sym_unvectorize_grad_stack(probe, n),), symmetric=(0,))


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

    def loss(*blocks_and_w):
        *blocks, w = blocks_and_w
        return float(np.sum(layers.spd_agg_forward(np.stack(blocks), w)[0] * probe))

    return _worst(loss, (*xs, w_hat), (*grad_xs, grad_w), symmetric=range(n))


def _check_conv(rng) -> float:
    n_frames = int(rng.integers(2, 5))
    d_out = int(rng.integers(2, 4))
    mode = "full" if rng.uniform() < 0.7 else "physical"
    coords = rng.standard_normal((n_frames, N_GRID_NODES, 3))
    weights = rng.standard_normal((N_FILTERS, d_out, 3))
    probe = rng.standard_normal((n_frames, N_GRID_NODES, d_out))
    _, ctx = layers.conv_forward(coords, weights, mode)
    return _worst(lambda w: float(np.sum(layers.conv_forward(coords, w, mode)[0] * probe)),
                  (weights,), (layers.conv_backward(ctx, probe),))


def _check_head(rng) -> float:
    d = int(rng.integers(3, 6))
    n_classes = int(rng.integers(2, 5))
    y = _sym_with_eigs(rng, _spread_eigs(rng, d, 0.2, 4.0))
    fc_w = rng.standard_normal((n_classes, d * d))
    fc_b = rng.standard_normal(n_classes)
    label = int(rng.integers(n_classes))
    _, _, ctx = layers.head_forward(y, fc_w, fc_b)
    return _worst(lambda *yw: cross_entropy(layers.head_forward(*yw)[1], label),
                  (y, fc_w, fc_b), layers.head_backward(ctx, label), symmetric=(0,))


# each branch family's layer and its window size (t0 for st, n_chunks for ts)
_BRANCH_LAYERS = {"st": (layers.st_branch_forward, 1), "ts": (layers.ts_branch_forward, 2)}


def _branch_check(rng, kind: str) -> float:
    n_frames = int(rng.integers(7, 10))
    n_joints = 4
    d = int(rng.integers(2, 4))
    feats = rng.standard_normal((n_frames, n_joints, d))
    m = layers.branch_output_dim(d)
    probe = symmetrize(rng.standard_normal((m, m)))
    layer, size = _BRANCH_LAYERS[kind]
    fwd = lambda f: layer(f, size, 1e-4)
    _, ctx = fwd(feats)
    return _worst(lambda f: float(np.sum(fwd(f)[0] * probe)), (feats,),
                  (layers.branch_backward(ctx, probe),))


def check_end_to_end(seed: int, config: NetworkConfig = TINY_CONFIG) -> CheckResult:
    """Full-network loss gradient versus finite differences, every entry.
    Named ``end_to_end``, with ``_<variant>`` after it for other than st_ts."""
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    coords = rng.standard_normal((config.n_frames, N_GRID_NODES, 3))
    label = int(rng.integers(config.n_classes))
    params = dataclasses.replace(
        params, fc_weight=0.1 * rng.standard_normal(params.fc_weight.shape))

    _, ctx, _ = forward(coords, params, config)
    grads = backward(ctx, label)
    names = [field.name for field in dataclasses.fields(params)]
    worst = _worst(
        lambda *tensors: cross_entropy(forward(coords, NetworkParams(*tensors), config)[0], label),
        [getattr(params, name) for name in names], [getattr(grads, name) for name in names])
    name = "end_to_end" if config.variant == "st_ts" else f"end_to_end_{config.variant}"
    return CheckResult(name=name, max_rel_err=worst, tol=END_TO_END_TOL, trials=1)


LAYER_CHECKS = {
    "gauss_agg": _check_gauss_agg,
    "reeig": lambda rng: _check_spectral(
        rng, 0.05, 3.0, 0.5, lambda v: np.maximum(v, 0.5),
        lambda v: np.where(v > 0.5, 1.0, 0.0)),
    "logeig": lambda rng: _check_spectral(rng, 0.1, 5.0, None, np.log, lambda v: 1.0 / v),
    "rect_log_vec": _check_rect_log_vec,
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
        results += [check_end_to_end(seed, dataclasses.replace(TINY_CONFIG, variant=variant))
                    for variant in VARIANTS]
    return results
