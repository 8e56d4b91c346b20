"""Linear SVM on log-Euclidean features.

One-vs-rest L2-regularized L2-loss SVM solved in the dual by coordinate
descent (Hsieh et al., ICML 2008; box [0, inf), diagonal shift 1/(2C)),
terminating when the largest projected-gradient violation drops below
the tolerance. No bias term. Deterministic for a given seed: the
coordinate order is a seeded permutation per pass.

Features have far more dimensions than there are samples (20,100 vs a
few hundred), so the dual runs on the n x n Gram matrix, computed once
and shared by every class: one O(n^2 d) product, then O(k n^2) per pass
for k classes whatever the feature dimension. The k binary problems run
in one coordinate loop, each class on its own seeded row order, as
element-wise steps over the classes; each class's result is bitwise
that of solving it alone. All weight vectors come from one product of
the dual coefficients with the features at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInput, ParseError
from .optim import load_checkpoint, save_checkpoint


@dataclass
class SvmModel:
    class_ids: np.ndarray  # (n_classes,) sorted ascending
    weights: np.ndarray  # (n_classes, dim)
    passes: tuple[int, ...] = ()  # dual passes per class
    violation: tuple[float, ...] = ()  # last pass's largest violation per class
    c: float | None = None  # the fit's penalty and tolerance; None in a model built by hand
    tol: float | None = None


def _integer_labels(labels: np.ndarray) -> bool:
    """Whether every label is an integer of magnitude at most 2^53 (exact in float64)."""
    if labels.dtype.kind in "biu":  # compared as integers: 2^53 + 1 is no float64
        return bool(np.all((labels >= -2**53) & (labels <= 2**53)))
    return labels.dtype.kind == "f" and bool(
        np.all((np.abs(labels) <= 2.0**53) & (labels == np.trunc(labels))))


def _dual_pass(gram, q_diag, shift, y_run, alpha_run, f_run, rngs):
    """One lockstep pass over the running classes, one row of ``y_run``,
    ``alpha_run`` and ``f_run`` (updated in place) and one generator each.
    Returns each class's largest projected-gradient violation."""
    n = gram.shape[0]
    # Row t of `rows` holds each class's t-th coordinate, `cells` its place
    # in the flattened y_run, alpha_run and f_run.
    rows = np.stack([rng.permutation(n) for rng in rngs], axis=1)
    cells = rows + n * np.arange(len(rngs))
    flat_alpha, flat_f = alpha_run.reshape(-1), f_run.reshape(-1)
    y_steps = y_run.reshape(-1)[cells]
    grads, alphas = np.empty((2, n, len(rngs)))
    for t in range(n):
        i, y_i, cell = rows[t], y_steps[t], cells[t]
        alpha_i = alphas[t] = flat_alpha[cell]
        grad = grads[t] = y_i * flat_f[cell] - 1.0 + shift * alpha_i
        new_alpha = np.maximum(alpha_i - grad / q_diag[i], 0.0)
        # A zero projected gradient leaves new_alpha == alpha_i. A class
        # that does not move then adds (+0.0 * y) * gram[i] to f, which
        # leaves every bit of f as it is, so no class is masked out.
        step = gram[i]
        step *= ((new_alpha - alpha_i) * y_i)[:, None]
        f_run += step
        flat_alpha[cell] = new_alpha
    # projected gradients: a coordinate at alpha = 0 cannot go below 0
    np.minimum(grads, 0.0, out=grads, where=alphas <= 0.0)
    return np.abs(grads, out=grads).max(axis=0)


def _dual_cd(gram: np.ndarray, y_bins: np.ndarray, c: float, tol: float, rngs,
             max_passes: int):
    """Dual coordinate descent for all k one-vs-rest L2-loss sub-problems at once.

    ``gram`` is ``x @ x.T``, ``y_bins`` (k, n) holds each class's +-1
    labels and ``rngs`` one generator per class, which draws one
    permutation of the n rows per pass. The classes run in lockstep: at
    step t of a pass every class still running updates its own row
    perm_k[t], with a one-class step done element-wise over the classes
    (the same float operations in the same order), so each class gets
    bitwise the result it would get alone. A class stops once its pass's
    largest projected-gradient violation is at most ``tol``; its
    generator then draws nothing more.

    The decision values f_k = gram @ (alpha_k * y_k) (= x @ w_k) are kept
    up to date, so a step costs O(k n); the weights are
    w_k = (alpha_k * y_k) @ x. Returns (alpha (k, n), each class's last
    largest violation (k,), one (k,) array of the classes' largest
    violations per pass, NaN for the classes that had stopped, and passes
    per class (k,)).
    """
    k, n = y_bins.shape
    shift = 1.0 / (2.0 * c)
    q_diag = np.diag(gram) + shift
    alpha = np.zeros((k, n))
    worst = np.full(k, np.inf)
    passes = np.zeros(k, dtype=np.int64)
    violations = []
    # the running classes' labels, alpha and f, compacted as classes stop
    active = np.arange(k)
    y_run, alpha_run, f_run = y_bins, np.zeros((k, n)), np.zeros((k, n))
    for _ in range(max_passes):
        violations.append(np.full(k, np.nan))
        violations[-1][active] = worst[active] = _dual_pass(
            gram, q_diag, shift, y_run, alpha_run, f_run, [rngs[j] for j in active])
        passes[active] += 1
        alpha[active] = alpha_run
        running = ~(worst[active] <= tol)
        if not running.any():
            break
        active = active[running]
        y_run, alpha_run, f_run = y_run[running], alpha_run[running], f_run[running]
    return alpha, worst, violations, passes


def _finite_products(x: np.ndarray, other: np.ndarray, what: str) -> np.ndarray:
    """``x @ other.T``, refused unless finite; only then is ``x`` itself scanned."""
    with np.errstate(over="ignore", invalid="ignore"):
        products = x @ other.T
    if not np.all(np.isfinite(products)):
        raise InvalidInput("features contain non-finite values" if not np.all(np.isfinite(x))
                           else f"features overflow: {what} not finite")
    return products


def svm_train(x: np.ndarray, y: np.ndarray, c: float = 1.0, tol: float = 0.1,
              seed: int = 0, max_passes: int = 1000) -> SvmModel:
    """Train one-vs-rest weight vectors over the observed classes."""
    if not (np.isfinite(c) and c > 0.0):
        raise InvalidInput(f"C must be finite and > 0, got {c}")
    if not np.isfinite(1.0 / (2.0 * float(c))):  # the dual's diagonal shift
        raise InvalidInput(f"C must be large enough for a finite 1/(2C), got {c}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise InvalidInput(f"tol must be finite and >= 0, got {tol}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInput(f"need at least 2 samples of equal dim, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise InvalidInput(f"labels of shape {y.shape} do not match {x.shape[0]} samples")
    if not _integer_labels(y):
        raise InvalidInput("labels are not all finite integers")
    class_ids = np.unique(y)
    if class_ids.shape[0] < 2:
        raise InvalidInput("need at least 2 distinct classes")
    gram = _finite_products(x, x, "their Gram matrix is")
    y_bins = np.where(y == class_ids[:, None], 1.0, -1.0)
    seeds = np.random.SeedSequence(seed).generate_state(class_ids.shape[0])
    alpha, worst, _, passes = _dual_cd(gram, y_bins, c, tol,
                                       [np.random.default_rng(s) for s in seeds], max_passes)
    return SvmModel(class_ids=class_ids.astype(np.int64), weights=(alpha * y_bins) @ x,
                    passes=tuple(int(p) for p in passes),
                    violation=tuple(float(v) for v in worst), c=c, tol=tol)


def svm_predict(model: SvmModel, x: np.ndarray) -> int:
    """Predicted class id of one feature vector."""
    if np.ndim(x) != 1:
        raise InvalidInput("svm_predict takes a single feature vector")
    return int(svm_predict_batch(model, x)[0])


def svm_predict_batch(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Class ids of the rows of ``x``: argmax of the decision values, ties to the smallest."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != model.weights.shape[1]:
        raise InvalidInput(f"feature dim {x.shape[-1]} does not match model dim "
                           f"{model.weights.shape[1]}")
    scores = _finite_products(x, model.weights, "their decision values are")
    return model.class_ids[np.argmax(scores, axis=1)]


def svm_accuracy(model: SvmModel, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(svm_predict_batch(model, x) == np.asarray(y)))


# ---------------------------------------------------------------------------
# feature files


def save_features(path, labels, feats) -> None:
    """Write labels (n,) and features (n, dim) as a two-tensor container.

    The container holds float64, so labels must be integers of magnitude
    at most 2^53, which it holds exactly.
    """
    labels = np.asarray(labels)
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or labels.shape != feats.shape[:1]:
        raise InvalidInput(f"need labels (n,) and features (n, dim), got "
                           f"{labels.shape} and {feats.shape}")
    if not _integer_labels(labels):
        raise InvalidInput("labels must be integers of magnitude at most 2^53")
    save_checkpoint(path, {"labels": labels.astype(np.int64), "features": feats})


def load_features(path):
    """Read a feature file back into (labels int64 (n,), features float64 (n, dim))."""
    try:
        tensors = load_checkpoint(path, kind="feature file")
    except ConfigError as exc:
        raise ConfigError(f"{exc}; re-run `spdhgr extract` to write it") from None
    if set(tensors) != {"labels", "features"}:
        raise ParseError(f"{path} is not a feature file: it holds tensors "
                         f"{sorted(tensors)}, expected 'labels' and 'features'")
    labels, feats = tensors["labels"], tensors["features"]
    if labels.ndim != 1 or feats.ndim != 2 or labels.shape[0] != feats.shape[0]:
        raise ParseError(f"{path}: labels {labels.shape} and features {feats.shape} "
                         "are not (n,) and (n, dim)")
    if not _integer_labels(labels):
        raise ParseError(f"{path}: labels are not all integers")
    return labels.astype(np.int64), feats
