import numpy as np
import pytest

from spdhgr.errors import InvalidInput, ParseError
from spdhgr.optim import save_checkpoint
from spdhgr.svm import (
    SvmModel,
    _dual_cd,
    load_features,
    save_features,
    svm_accuracy,
    svm_predict,
    svm_predict_batch,
    svm_train,
)


def primal_objective(w, x, y_bin, c):
    margins = 1.0 - y_bin * (x @ w)
    hinge = np.maximum(margins, 0.0)
    return 0.5 * (w @ w) + c * np.sum(hinge**2)


def primal_gradient_descent(x, y_bin, c, steps=20000, lr=None):
    """Independent squared-hinge primal solver (plain gradient descent)."""
    n, d = x.shape
    if lr is None:
        lipschitz = 1.0 + 2.0 * c * np.linalg.norm(x, 2) ** 2
        lr = 1.0 / lipschitz
    w = np.zeros(d)
    for _ in range(steps):
        margins = 1.0 - y_bin * (x @ w)
        active = margins > 0
        grad = w - 2.0 * c * ((active * margins * y_bin) @ x)
        w = w - lr * grad
    return w


def make_blobs(rng, n_per_class=10, n_classes=3, dim=5, sep=10.0):
    centers = rng.standard_normal((n_classes, dim)) * sep
    xs, ys = [], []
    for k in range(n_classes):
        xs.append(centers[k] + rng.standard_normal((n_per_class, dim)))
        ys.extend([k] * n_per_class)
    return np.vstack(xs), np.array(ys)


class TestSolver:
    def test_separable_pair(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0])
        model = svm_train(x, y, c=1.0, tol=1e-4)
        w_pos = model.weights[list(model.class_ids).index(1)]
        assert w_pos[0] > 0
        assert svm_predict(model, x[0]) == 1
        assert svm_predict(model, x[1]) == 0

    def test_contradictory_duplicate_point(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([0, 1])
        model = svm_train(x, y, c=1.0, tol=1e-3)
        assert np.all(np.isfinite(model.weights))
        svm_predict(model, x[0])

    def test_blobs_training_accuracy_and_duality(self, rng):
        x, y = make_blobs(rng, n_per_class=10, n_classes=3)
        model = svm_train(x, y, c=1.0, tol=1e-4, seed=0)
        assert svm_accuracy(model, x, y) == 1.0
        # objective gap against the independent primal solver, per class
        for k, cls in enumerate(model.class_ids):
            y_bin = np.where(y == cls, 1.0, -1.0)
            w_ref = primal_gradient_descent(x, y_bin, 1.0)
            ours = primal_objective(model.weights[k], x, y_bin, 1.0)
            ref = primal_objective(w_ref, x, y_bin, 1.0)
            assert abs(ours - ref) <= 1e-3

    def test_heldout_accuracy(self, rng):
        x, y = make_blobs(rng, n_per_class=10, n_classes=3)
        model = svm_train(x, y, c=1.0, tol=0.1, seed=0)
        x2, y2 = make_blobs(np.random.default_rng(999), n_per_class=20, n_classes=3)
        # same centers requires the same rng; re-draw around the trained blobs
        x2 = np.vstack([x[y == k][:1] + np.random.default_rng(50 + k).standard_normal((20, 5))
                        for k in range(3)])
        y2 = np.repeat(np.arange(3), 20)
        assert svm_accuracy(model, x2, y2) >= 0.95

    def test_dual_objective_non_increasing(self, rng):
        """Replayed with fresh generators, a run capped at p passes is the
        first p passes of a longer one."""
        x, y = make_blobs(rng, n_per_class=10, n_classes=3, sep=2.0)
        gram, y_bins = x @ x.T, np.where(y == np.arange(3)[:, None], 1.0, -1.0)
        def solve(max_passes):
            return _dual_cd(gram, y_bins, 1.0, 1e-8,
                            [np.random.default_rng(k) for k in range(3)], max_passes)

        full_alpha, _, _, passes = solve(50)
        assert min(passes) > 1
        objectives = []
        for cap in range(1, max(passes) + 1):
            alpha = solve(cap)[0]
            objectives.append([dual_objective(gram, y_bins[k], 1.0, alpha[k])
                               for k in range(3)])
        assert np.array_equal(alpha, full_alpha)
        for k in range(3):
            per_class = [o[k] for o in objectives]
            assert all(b <= a + 1e-12 for a, b in zip(per_class, per_class[1:]))

    def test_deterministic(self, rng):
        x, y = make_blobs(rng)
        m1 = svm_train(x, y, seed=3)
        m2 = svm_train(x, y, seed=3)
        assert np.array_equal(m1.weights, m2.weights)

    def test_feature_scaling_keeps_predictions(self, rng):
        x, y = make_blobs(rng, n_per_class=8, n_classes=3)
        m1 = svm_train(x, y, c=1.0, tol=1e-4, seed=0)
        m2 = svm_train(5.0 * x, y, c=1.0, tol=1e-4, seed=0)
        np.testing.assert_array_equal(
            svm_predict_batch(m1, x), svm_predict_batch(m2, 5.0 * x)
        )

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInput):
            svm_train(np.eye(3), np.zeros(3, dtype=int))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x, y, message", [
        (np.ones(3), np.array([0, 1, 1]),
         "need at least 2 samples of equal dim, got shape \\(3,\\)"),
        (np.eye(3), np.array([0, 1]), "labels of shape \\(2,\\) do not match 3 samples"),
        (np.array([[0.0, 1.0], [1.0, np.nan]]), np.array([0, 1]),
         "features contain non-finite values"),
        # finite, but their squares overflow
        (1e160 * np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([0, 1]),
         "features overflow: their Gram matrix is not finite"),
    ])
    def test_malformed_training_set_rejected(self, x, y, message):
        with pytest.raises(InvalidInput, match=message):
            svm_train(x, y)

    @pytest.mark.parametrize("labels", [
        [0.2, 0.2, 0.7, 0.7],  # would truncate to one class id, 0
        [0.0, 0.0, 1.0, 1.5],
        [0.0, 1.0, 1.0, float("nan")],
        [0.0, 1.0, 1.0, float("inf")],
        [0.0, 1.0, 1.0, 2.0**60],  # not every integer this large is exact in float64
        ["a", "a", "b", "b"],
        [0, 1, 1, 2**53 + 1],  # an int64 that float64 cannot hold
    ])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(InvalidInput, match="labels are not all finite integers"):
            svm_train(np.eye(4), np.array(labels))

    def test_integer_valued_float_labels_accepted(self):
        model = svm_train(np.eye(4), np.array([0.0, 0.0, 3.0, 3.0]))
        assert model.class_ids.tolist() == [0, 3]
        assert svm_predict_batch(model, np.eye(4)).tolist() == [0, 0, 3, 3]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(c=0.0), "C must be finite and > 0, got 0.0"),
        (dict(c=-1.0), "C must be finite and > 0, got -1.0"),
        (dict(c=float("nan")), "C must be finite and > 0, got nan"),
        (dict(c=float("inf")), "C must be finite and > 0, got inf"),
        (dict(tol=-0.5), "tol must be finite and >= 0, got -0.5"),
        (dict(tol=float("nan")), "tol must be finite and >= 0, got nan"),
        (dict(c=1e-320), "C must be large enough for a finite 1/\\(2C\\), got 1e-320"),
    ])
    def test_bad_c_or_tol_rejected(self, kwargs, message):
        with pytest.raises(InvalidInput, match=message):
            svm_train(np.eye(2), np.array([0, 1]), **kwargs)

    def test_health_numbers(self, rng):
        x, y = make_blobs(rng, n_per_class=10, n_classes=3, sep=2.0)
        model = svm_train(x, y, c=1.0, tol=1e-3, seed=0)
        assert len(model.passes) == len(model.violation) == 3
        assert all(p > 1 for p in model.passes)
        assert all(0.0 <= v <= 1e-3 for v in model.violation)
        assert (model.c, model.tol) == (1.0, 1e-3)
        capped = svm_train(x, y, c=1.0, tol=1e-3, seed=0, max_passes=1)
        assert capped.passes == (1, 1, 1)
        assert max(capped.violation) > 1e-3
        # one violation row per lockstep pass, NaN once a class has stopped
        _, worst, violations, passes = _dual_cd(
            x @ x.T, np.where(y == np.arange(3)[:, None], 1.0, -1.0), 1.0, 1e-3,
            [np.random.default_rng(k) for k in range(3)], 1000)
        assert len(violations) == max(passes)
        for k in range(3):
            column = np.array([v[k] for v in violations])
            assert np.all(column[:passes[k] - 1] > 1e-3)
            assert column[passes[k] - 1] == worst[k] <= 1e-3
            assert np.all(np.isnan(column[passes[k]:]))


def row_update_dual_cd(x, y_bin, c, tol, rng, max_passes):
    """Reference: the solver as it was before it moved onto the Gram
    matrix, one dim-length dot and axpy per coordinate step. Returns
    (w, alpha, per-pass objectives, last pass's largest violation)."""
    n, dim = x.shape
    shift = 1.0 / (2.0 * c)
    q_diag = np.einsum("ij,ij->i", x, x) + shift
    alpha = np.zeros(n)
    w = np.zeros(dim)
    objectives = []
    for _ in range(max_passes):
        worst = 0.0
        for i in rng.permutation(n):
            grad = y_bin[i] * (w @ x[i]) - 1.0 + shift * alpha[i]
            projected = grad if alpha[i] > 0.0 else min(grad, 0.0)
            worst = max(worst, abs(projected))
            if projected != 0.0:
                new_alpha = max(alpha[i] - grad / q_diag[i], 0.0)
                if new_alpha != alpha[i]:
                    w += (new_alpha - alpha[i]) * y_bin[i] * x[i]
                    alpha[i] = new_alpha
        objectives.append(0.5 * (w @ w) + 0.5 * shift * (alpha @ alpha) - alpha.sum())
        if worst <= tol:
            break
    return w, alpha, objectives, worst


def row_update_train(x, y, c, tol, seed, max_passes=1000):
    """One-vs-rest training with the reference solver, seeded like svm_train."""
    class_ids = np.unique(y)
    seeds = np.random.SeedSequence(seed).generate_state(class_ids.shape[0])
    weights, passes, violation = [], [], []
    for k, cls in enumerate(class_ids):
        y_bin = np.where(y == cls, 1.0, -1.0)
        w, _, objectives, worst = row_update_dual_cd(
            x, y_bin, c, tol, np.random.default_rng(seeds[k]), max_passes)
        weights.append(w)
        passes.append(len(objectives))
        violation.append(worst)
    return np.array(weights), tuple(passes), violation


def _solver_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    x, y = make_blobs(rng, n_per_class=8, n_classes=3, dim=6, sep=1.5)
    if name == "duplicated_rows":
        x, y = np.vstack([x, x[::3]]), np.concatenate([y, y[::3]])
    elif name == "contradictory_duplicates":
        x, y = np.vstack([x, x[::4]]), np.concatenate([y, (y[::4] + 1) % 3])
    elif name == "zero_row":
        x[5] = 0.0  # q_diag == shift there
    elif name == "n_gt_d":
        x, y = make_blobs(rng, n_per_class=30, n_classes=3, dim=3, sep=1.5)
    elif name == "n_lt_d":
        x, y = make_blobs(rng, n_per_class=4, n_classes=3, dim=400, sep=0.3)
    return x, y


@pytest.mark.parametrize("name,c", [
    ("blobs", 0.1), ("blobs", 1.0), ("blobs", 10.0),
    ("duplicated_rows", 1.0), ("contradictory_duplicates", 1.0), ("zero_row", 1.0),
    ("n_gt_d", 1.0), ("n_lt_d", 1.0),
])
def test_gram_solver_matches_row_update_solver(name, c):
    x, y = _solver_case(name)
    model = svm_train(x, y, c=c, tol=1e-3, seed=7)
    weights, passes, violation = row_update_train(x, y, c, 1e-3, seed=7)
    assert model.passes == passes
    assert max(passes) > 1
    np.testing.assert_allclose(model.violation, violation, rtol=1e-9, atol=1e-12)
    assert np.abs(model.weights - weights).max() <= 1e-12 * np.abs(weights).max()
    probe = np.vstack([x, x + np.random.default_rng(1).standard_normal(x.shape)])
    np.testing.assert_array_equal(
        svm_predict_batch(model, probe),
        np.unique(y)[np.argmax(probe @ weights.T, axis=1)])


def dual_objective(gram, y_bin, c, alpha):
    """A class's dual objective 0.5 ||w||^2 + (1/(4C)) sum alpha^2 - sum alpha."""
    shift = 1.0 / (2.0 * c)
    f = gram @ (alpha * y_bin)
    return 0.5 * ((alpha * y_bin) @ f) + 0.5 * shift * (alpha @ alpha) - alpha.sum()


def per_class_dual_cd(gram, y_bin, c, tol, rng, max_passes):
    """Reference: the solver as it was before the classes ran in lockstep,
    one Python coordinate loop per class. Returns (alpha, the last pass's
    largest violation, each pass's largest violation)."""
    n = gram.shape[0]
    shift = 1.0 / (2.0 * c)
    q_diag = np.diag(gram) + shift
    alpha = np.zeros(n)
    f = np.zeros(n)
    worst = np.inf
    violations = []
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
        violations.append(worst)
        if worst <= tol:
            break
    return alpha, worst, violations


def per_class_train(x, y, c, tol, seed, max_passes):
    """One-vs-rest training with the reference solver, seeded like svm_train.
    Returns (weights, passes, violations, per-class lists of each pass's
    largest violation)."""
    class_ids = np.unique(y)
    gram = x @ x.T
    seeds = np.random.SeedSequence(seed).generate_state(class_ids.shape[0])
    coef = np.zeros((class_ids.shape[0], x.shape[0]))
    passes, violation, per_pass = [], [], []
    for k, cls in enumerate(class_ids):
        y_bin = np.where(y == cls, 1.0, -1.0)
        alpha, worst, violations = per_class_dual_cd(
            gram, y_bin, c, tol, np.random.default_rng(seeds[k]), max_passes)
        coef[k] = alpha * y_bin
        passes.append(len(violations))
        violation.append(float(worst))
        per_pass.append(violations)
    return coef @ x, tuple(passes), tuple(violation), per_pass


def _lockstep_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "blobs_45x3":
        return make_blobs(rng, n_per_class=3, n_classes=45, dim=300, sep=0.3)
    if name == "uneven":
        sizes = (2, 3, 6, 12, 25)
        centers = rng.standard_normal((len(sizes), 60)) * 0.5
        x = np.vstack([centers[k] + rng.standard_normal((m, 60))
                       for k, m in enumerate(sizes)])
        return x, np.repeat(np.arange(len(sizes)), sizes)
    x, y = make_blobs(rng, n_per_class=8, n_classes=4, dim=40, sep=0.5)
    if name == "duplicated_rows":
        x, y = np.vstack([x, x[::3], x[1::5]]), np.concatenate([y, y[::3], (y[1::5] + 1) % 4])
    elif name == "zero_row":
        x[5] = 0.0  # q_diag == shift there
    return x, y


@pytest.mark.parametrize("name,c,max_passes", [
    ("blobs_45x3", 1.0, 1000),
    ("uneven", 0.1, 1000), ("uneven", 1.0, 1000), ("uneven", 10.0, 1000),
    ("blobs", 0.1, 1000), ("blobs", 1.0, 1000), ("blobs", 10.0, 1000),
    ("blobs", 1.0, 0), ("blobs", 1.0, 1), ("uneven", 1.0, 1),
    ("duplicated_rows", 1.0, 1000), ("zero_row", 1.0, 1000),
])
def test_lockstep_solver_matches_per_class_solver(name, c, max_passes):
    x, y = _lockstep_case(name)
    tol, seed = 1e-2, 11
    weights, passes, violation, per_pass = per_class_train(x, y, c, tol, seed, max_passes)
    model = svm_train(x, y, c=c, tol=tol, seed=seed, max_passes=max_passes)
    assert np.array_equal(model.weights, weights)
    assert model.passes == passes
    assert model.violation == violation
    class_ids = np.unique(y)
    y_bins = np.where(y == class_ids[:, None], 1.0, -1.0)
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).generate_state(class_ids.shape[0])]
    _, _, lockstep, _ = _dual_cd(x @ x.T, y_bins, c, tol, rngs, max_passes)
    assert len(lockstep) == max(passes)
    for k, violations in enumerate(per_pass):
        assert [v[k] for v in lockstep[:passes[k]]] == violations
        assert all(np.isnan(v[k]) for v in lockstep[passes[k]:])
    if name == "uneven" and max_passes > 1:
        assert len(set(passes)) > 1  # classes stop on different passes
    if max_passes > 1:
        assert max(passes) > 1


class TestPredict:
    def test_tie_break_smallest_class(self):
        model = SvmModel(class_ids=np.array([0, 1, 2]), weights=np.zeros((3, 4)))
        assert svm_predict(model, np.ones(4)) == 0

    def test_dim_mismatch(self):
        model = SvmModel(class_ids=np.array([0, 1]), weights=np.zeros((2, 4)))
        with pytest.raises(InvalidInput):
            svm_predict(model, np.ones(5))

    def test_single_vector_only(self):
        model = SvmModel(class_ids=np.array([0, 1]), weights=np.zeros((2, 2)))
        with pytest.raises(InvalidInput, match="svm_predict takes a single feature vector"):
            svm_predict(model, np.eye(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value, message", [
        (np.nan, "features contain non-finite values"),
        (1e300, "features overflow: their decision values are not finite"),
    ])
    def test_batch_with_a_bad_row_rejected(self, value, message):
        model = SvmModel(class_ids=np.array([0, 1]), weights=np.array([[1e10, 0.0, 1.0],
                                                                      [-1e10, 0.0, 1.0]]))
        x = np.ones((3, 3))
        x[1] = value
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            svm_predict_batch(model, x)

    def test_single_prediction_is_the_batch_row(self, rng):
        x, y = make_blobs(rng, n_per_class=6, n_classes=3, sep=1.0)
        model = svm_train(x, y)
        batch = svm_predict_batch(model, x)
        assert [svm_predict(model, row) for row in x] == batch.tolist()
        assert [svm_predict_batch(model, row[None])[0] for row in x] == batch.tolist()

    def test_empty_batch(self):
        model = SvmModel(class_ids=np.array([0, 1]), weights=np.zeros((2, 4)))
        predictions = svm_predict_batch(model, np.zeros((0, 4)))
        assert predictions.shape == (0,) and predictions.dtype == np.int64

    def test_non_contiguous_class_ids(self, rng):
        x, y = make_blobs(rng, n_per_class=6, n_classes=3)
        y = np.array([3, 7, 9])[y]  # arbitrary id values
        model = svm_train(x, y, tol=1e-4)
        assert set(svm_predict_batch(model, x)) <= {3, 7, 9}
        assert svm_accuracy(model, x, y) == 1.0


class TestFeatureFiles:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        labels = np.array([2, 0, 1])
        feats = rng.standard_normal((3, 6))
        path = tmp_path / "f.features"
        save_features(path, labels, feats)
        l2, f2 = load_features(path)
        assert l2.dtype == np.int64 and f2.dtype == np.float64
        assert np.array_equal(l2, labels)
        assert np.array_equal(f2, feats)
        save_features(tmp_path / "again.features", l2, f2)
        assert (tmp_path / "again.features").read_bytes() == path.read_bytes()

    def test_row_list_and_views_write_the_same_bytes(self, tmp_path, rng):
        feats = rng.standard_normal((4, 5))
        save_features(tmp_path / "a.features", [3, 1, 4, 1], feats)
        save_features(tmp_path / "b.features", (3, 1, 4, 1), list(feats))
        save_features(tmp_path / "c.features", np.array([3, 1, 4, 1]),
                      np.asfortranarray(feats))
        data = (tmp_path / "a.features").read_bytes()
        assert (tmp_path / "b.features").read_bytes() == data
        assert (tmp_path / "c.features").read_bytes() == data

    def test_empty_file(self, tmp_path):
        save_features(tmp_path / "e.features", [], np.zeros((0, 7)))
        labels, feats = load_features(tmp_path / "e.features")
        assert labels.shape == (0,) and labels.dtype == np.int64
        assert feats.shape == (0, 7)

    def test_malformed(self, tmp_path):
        cases = {
            "extra.features": {"labels": np.zeros(2), "features": np.zeros((2, 3)),
                               "c": np.array(1.0)},
            "missing.features": {"labels": np.zeros(2)},
            "rank.features": {"labels": np.zeros((2, 1)), "features": np.zeros((2, 3))},
            "flat.features": {"labels": np.zeros(2), "features": np.zeros(6)},
            "length.features": {"labels": np.zeros(3), "features": np.zeros((2, 3))},
            "fraction.features": {"labels": np.array([0.0, 1.5]),
                                  "features": np.zeros((2, 3))},
            "nan.features": {"labels": np.array([0.0, np.nan]),
                             "features": np.zeros((2, 3))},
            "huge.features": {"labels": np.array([0.0, 2.0**64]),
                              "features": np.zeros((2, 3))},
        }
        for name, tensors in cases.items():
            save_checkpoint(tmp_path / name, tensors)
            with pytest.raises(ParseError, match=name):
                load_features(tmp_path / name)

    @pytest.mark.parametrize("labels", [
        [0.7, 1.2],  # would truncate to 0 and 1
        [0, 2**53 + 1],  # would read back as 2^53
        [0, -(2**53) - 1],
        [0, 2**63],  # a uint64 that int64 cannot hold
        [0.0, float("nan")],
        ["a", "b"],
    ])
    def test_save_rejects_labels_a_file_cannot_hold(self, tmp_path, labels):
        path = tmp_path / "x.features"
        with pytest.raises(InvalidInput, match=r"labels must be integers of magnitude at most 2\^53"):
            save_features(path, labels, np.zeros((2, 3)))
        assert not path.exists()

    def test_save_keeps_the_largest_exact_labels(self, tmp_path):
        labels = [2**53, -(2**53), 0]
        save_features(tmp_path / "x.features", labels, np.zeros((3, 2)))
        assert load_features(tmp_path / "x.features")[0].tolist() == labels

    def test_save_rejects_mismatched_shapes(self, tmp_path):
        with pytest.raises(InvalidInput):
            save_features(tmp_path / "x.features", [0, 1, 2], np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            save_features(tmp_path / "x.features", [0, 1], np.zeros(2))
        assert not (tmp_path / "x.features").exists()
