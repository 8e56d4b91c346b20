"""Linear SVM on log-Euclidean features.

One-vs-rest L2-regularized L2-loss SVM solved in the dual by coordinate
descent (Hsieh et al., ICML 2008; box [0, inf), diagonal shift 1/(2C)),
terminating when the largest projected-gradient violation drops below
the tolerance. No bias term. Deterministic for a given seed: the
coordinate order is a seeded permutation per pass.

Features have far more dimensions than there are samples (20,100 vs a
few hundred), so the dual runs on the n x n Gram matrix, computed once
and shared by every class: one O(n^2 d) product, then O(n^2) per pass
whatever the feature dimension. All weight vectors come from one
product of the dual coefficients with the features at the end.
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
    c: float
    tol: float
    passes: tuple[int, ...] = ()  # dual passes per class
    violation: tuple[float, ...] = ()  # last pass's largest violation per class

    @property
    def n_classes(self) -> int:
        return self.class_ids.shape[0]


def _dual_cd(gram: np.ndarray, y_bin: np.ndarray, c: float, tol: float, rng,
             max_passes: int):
    """Dual coordinate descent for one binary L2-loss sub-problem.

    ``gram`` is ``x @ x.T``. The decision values f = gram @ (alpha * y_bin)
    (= x @ w) are kept up to date, so a step costs O(n); the weights are
    w = (alpha * y_bin) @ x. Returns (alpha, the last pass's largest
    projected-gradient violation, per-pass dual objectives). The dual
    objective is 0.5 ||w||^2 + (1/(4C)) sum alpha^2 - sum alpha and never
    increases.
    """
    n = gram.shape[0]
    shift = 1.0 / (2.0 * c)
    q_diag = np.diag(gram) + shift
    alpha = np.zeros(n)
    f = np.zeros(n)
    worst = np.inf
    objectives = []
    for _ in range(max_passes):
        worst = 0.0
        for i in rng.permutation(n):
            grad = y_bin[i] * f[i] - 1.0 + shift * alpha[i]
            projected = grad if alpha[i] > 0.0 else min(grad, 0.0)
            worst = max(worst, abs(projected))
            if projected != 0.0:
                new_alpha = max(alpha[i] - grad / q_diag[i], 0.0)
                if new_alpha != alpha[i]:
                    f += (new_alpha - alpha[i]) * y_bin[i] * gram[i]
                    alpha[i] = new_alpha
        objectives.append(0.5 * ((alpha * y_bin) @ f) + 0.5 * shift * (alpha @ alpha)
                          - alpha.sum())
        if worst <= tol:
            break
    return alpha, worst, objectives


def svm_train(x: np.ndarray, y: np.ndarray, c: float = 1.0, tol: float = 0.1,
              seed: int = 0, max_passes: int = 1000) -> SvmModel:
    """Train one-vs-rest weight vectors over the observed classes."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInput(f"need at least 2 samples of equal dim, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise InvalidInput(f"labels of shape {y.shape} do not match {x.shape[0]} samples")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("features contain non-finite values")
    class_ids = np.unique(y)
    if class_ids.shape[0] < 2:
        raise InvalidInput("need at least 2 distinct classes")
    gram = x @ x.T
    coef = np.zeros((class_ids.shape[0], x.shape[0]))
    passes, violation = [], []
    seeds = np.random.SeedSequence(seed).generate_state(class_ids.shape[0])
    for k, cls in enumerate(class_ids):
        y_bin = np.where(y == cls, 1.0, -1.0)
        rng = np.random.default_rng(seeds[k])
        alpha, worst, objectives = _dual_cd(gram, y_bin, c, tol, rng, max_passes)
        coef[k] = alpha * y_bin
        passes.append(len(objectives))
        violation.append(float(worst))
    return SvmModel(class_ids=class_ids.astype(np.int64), weights=coef @ x, c=c, tol=tol,
                    passes=tuple(passes), violation=tuple(violation))


def svm_decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.weights.shape[1]:
        raise InvalidInput(
            f"feature dim {x.shape[-1]} does not match model dim {model.weights.shape[1]}"
        )
    return x @ model.weights.T


def svm_predict(model: SvmModel, x: np.ndarray) -> int:
    """Predicted class id: argmax of the decision values, ties to the
    smallest class id."""
    scores = svm_decision(model, x)
    if scores.ndim != 1:
        raise InvalidInput("svm_predict takes a single feature vector")
    return int(model.class_ids[int(np.argmax(scores))])


def svm_predict_batch(model: SvmModel, x: np.ndarray) -> np.ndarray:
    scores = svm_decision(model, np.atleast_2d(x))
    return model.class_ids[np.argmax(scores, axis=1)]


def svm_accuracy(model: SvmModel, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(svm_predict_batch(model, x) == np.asarray(y)))


# ---------------------------------------------------------------------------
# feature files

_MAX_EXACT_LABEL = 2.0**53  # float64 holds every integer up to here exactly


def save_features(path, labels, feats) -> None:
    """Write labels (n,) and features (n, dim) as a two-tensor container."""
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or labels.shape != feats.shape[:1]:
        raise InvalidInput(f"need labels (n,) and features (n, dim), got "
                           f"{labels.shape} and {feats.shape}")
    save_checkpoint(path, {"labels": labels, "features": feats})


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
    if not np.all((np.abs(labels) <= _MAX_EXACT_LABEL) & (labels == np.trunc(labels))):
        raise ParseError(f"{path}: labels are not all integers")
    return labels.astype(np.int64), feats
