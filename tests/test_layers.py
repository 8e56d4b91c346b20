import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdhgr.errors import InvalidInput, NotSPD, NumericalFailure
from spdhgr.gradcheck import fd_gradient
from spdhgr.layers import (
    _rect_log_vec_grad_rows,
    _rect_log_vec_grad_stack,
    _rect_log_vec_rows,
    block_diagonal,
    branch_output_dim,
    conv_backward,
    conv_forward,
    cross_entropy,
    extract_representation,
    gauss_agg_backward,
    gauss_agg_forward,
    head_backward,
    head_forward,
    spd_agg_backward,
    spd_agg_forward,
)
from spdhgr.optim import stiefel_init
from spdhgr.skeleton import grid_neighbors
from spdhgr.symmat import (
    assert_spd,
    eigh,
    spd_log,
    spectral_apply,
    sym_vectorize,
    tri_length,
)

from test_symmat import random_spd, random_sym


def gauss_embed_reference(samples, ridge=0.0):
    """Mean/covariance embedding computed the direct way, as a test oracle."""
    n, d = samples.shape
    mu = samples.mean(axis=0)
    sigma = np.zeros((d, d))
    for row in samples:
        sigma += np.outer(row - mu, row - mu)
    sigma = sigma / n + ridge * np.eye(d)
    out = np.empty((d + 1, d + 1))
    out[:d, :d] = sigma + np.outer(mu, mu)
    out[:d, d] = mu
    out[d, :d] = mu
    out[d, d] = 1.0
    return out


def gauss_embed_analytic_reference(samples, ridge=0.0):
    """The quadratic-form expression with explicit B, b, 1, C matrices."""
    n, d = samples.shape
    b_mat = np.vstack([np.eye(d), np.zeros((1, d))])  # (d+1) x d
    b_vec = np.zeros(d + 1)
    b_vec[d] = 1.0
    ones = np.ones((n, 1))
    c_mat = np.zeros((d + 1, d + 1))
    c_mat[d, d] = 1.0
    term1 = b_mat @ samples.T @ samples @ b_mat.T / n
    cross = b_mat @ samples.T @ ones @ b_vec[None, :]
    term2 = (cross + cross.T) / n
    out = term1 + term2 + c_mat
    out[:d, :d] += ridge * np.eye(d)
    return out


class TestGaussAgg:
    def test_identical_samples(self, rng):
        x = rng.standard_normal(4)
        samples = np.tile(x, (6, 1))
        ridge = 1e-6
        y, _ = gauss_agg_forward(samples, ridge)
        expected = np.empty((5, 5))
        expected[:4, :4] = np.outer(x, x) + ridge * np.eye(4)
        expected[:4, 4] = x
        expected[4, :4] = x
        expected[4, 4] = 1.0
        np.testing.assert_allclose(y, expected, atol=1e-12)
        sigma = y[:4, :4] - np.outer(y[:4, 4], y[:4, 4])
        np.testing.assert_allclose(sigma, ridge * np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("ridge", [-5.0, np.nan, np.inf])
    def test_ridge_outside_its_domain_rejected_naming_the_value(self, ridge, rng):
        with pytest.raises(InvalidInput, match=f"ridge must be finite and >= 0, got {ridge}"):
            gauss_agg_forward(rng.standard_normal((6, 3)), ridge)

    def test_two_point_closed_form(self):
        samples = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y, _ = gauss_agg_forward(samples, ridge=0.0)
        np.testing.assert_allclose(y, np.diag([1.0, 0.0, 1.0]), atol=1e-15)

    def test_dual_formula_oracle(self, rng):
        samples = rng.standard_normal((20, 9))
        for ridge in (0.0, 1e-6):
            y, _ = gauss_agg_forward(samples, ridge)
            direct = gauss_embed_reference(samples, ridge)
            analytic = gauss_embed_analytic_reference(samples, ridge)
            assert np.max(np.abs(y - direct)) <= 1e-12
            assert np.max(np.abs(y - analytic)) <= 1e-12

    def test_context_invariants(self, rng):
        samples = rng.standard_normal((7, 3))
        y, ctx = gauss_agg_forward(samples, 1e-6)
        assert y[3, 3] == 1.0
        np.testing.assert_array_equal(ctx.samples, samples)
        mu = samples.mean(axis=0)
        centered = samples - mu
        sigma = centered.T @ centered / 7 + 1e-6 * np.eye(3)
        np.testing.assert_allclose(y[:3, :3], sigma + np.outer(mu, mu), atol=1e-12)
        np.testing.assert_array_equal(y, y.T)

    def test_permutation_invariance(self, rng):
        samples = rng.standard_normal((10, 4))
        perm = rng.permutation(10)
        y1, _ = gauss_agg_forward(samples)
        y2, _ = gauss_agg_forward(samples[perm])
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_spd_with_ridge(self, rng):
        samples = np.tile(rng.standard_normal(3), (5, 1))  # rank deficient
        y, _ = gauss_agg_forward(samples, ridge=1e-6)
        assert_spd(y)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            gauss_agg_forward(np.zeros((0, 3)))

    def test_backward_zero(self, rng):
        _, ctx = gauss_agg_forward(rng.standard_normal((5, 3)))
        np.testing.assert_array_equal(gauss_agg_backward(ctx, np.zeros((4, 4))), 0.0)

    def test_backward_constant_entry_has_no_gradient(self, rng):
        _, ctx = gauss_agg_forward(rng.standard_normal((5, 3)))
        g = np.zeros((4, 4))
        g[3, 3] = 2.5
        np.testing.assert_allclose(gauss_agg_backward(ctx, g), 0.0, atol=1e-15)

    def test_backward_shape_mismatch(self, rng):
        _, ctx = gauss_agg_forward(rng.standard_normal((5, 3)))
        with pytest.raises(InvalidInput):
            gauss_agg_backward(ctx, np.zeros((3, 3)))


class TestSpectralLayers:
    """The branch tables' ReEig -> LogEig pair and the head's LogEig."""

    def test_reeig_matches_rectify(self, rng):
        mats = np.stack([random_sym(rng, 5) for _ in range(4)])
        rows, _, vals, rect = _rect_log_vec_rows(mats, 1e-2)
        for a, row in zip(mats, rows):
            eig = eigh(a)
            expected = sym_vectorize(spd_log(spectral_apply(eig.vecs, np.maximum(eig.vals, 1e-2))))
            np.testing.assert_allclose(row, expected, atol=1e-12)
        assert rect.min() >= 1e-2 and vals.min() < 1e-2

    def test_rect_log_is_spd_log_above_eps(self, rng):
        mats = np.stack([random_spd(rng, 4, lo=2.0, hi=6.0) for _ in range(3)])
        rows, _, vals, rect = _rect_log_vec_rows(mats, 1e-4)
        np.testing.assert_array_equal(rect, vals)
        for a, row in zip(mats, rows):
            np.testing.assert_allclose(row, sym_vectorize(spd_log(a)), atol=1e-12)

    def test_logeig_matches_spd_log(self, rng):
        y = random_spd(rng, 5)
        _, _, ctx = head_forward(y, np.zeros((2, 25)), np.zeros(2))
        np.testing.assert_array_equal(ctx.log_flat, spd_log(y).ravel())

    def test_logeig_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            extract_representation(np.diag([1.0, -1.0]))

    def test_backward_zero(self, rng):
        mats = np.stack([random_spd(rng, 4) for _ in range(3)])
        _, *cache = _rect_log_vec_rows(mats, 1e-3)
        grad = _rect_log_vec_grad_stack(cache, 1e-3, np.zeros((3, tri_length(4))))
        np.testing.assert_array_equal(grad, 0.0)

    def test_backward_matches_fd(self, rng):
        # eigenvalues both sides of eps, none within reach of the stencil
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = (q * np.array([2.0, 0.9, 0.2, 0.1])) @ q.T
        probe = rng.standard_normal(tri_length(4))

        def loss(m):
            return float(_rect_log_vec_rows(m[None], 0.5)[0][0] @ probe)

        _, *cache = _rect_log_vec_rows(a[None], 0.5)
        analytic = _rect_log_vec_grad_stack(cache, 0.5, probe[None])[0]
        fd = fd_gradient(loss, a, symmetric=True)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("eps", [0.05, 0.2, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_fused_rect_log_matches_fd_across_eps(self, eps, seed):
        """The fused log(max(v, eps)) the branches run, against central
        differences on spectra that straddle eps: clamped values (their
        divided differences are zero), values within 1e-3 of eps but many
        steps from it, and a near-tied pair above eps. A pair straddling
        the kink at distance d curves the map on the scale d, so the step
        stays far below d."""
        rng = np.random.default_rng(seed)
        clamped = eps * rng.uniform(0.1, 0.8, rng.integers(2, 4))
        tied = eps * rng.uniform(2.0, 5.0)
        near = eps + rng.choice([-1.0, 1.0], 3) * rng.uniform(1e-4, 1e-3, 3)
        spectra = np.concatenate([clamped, near, [tied, tied * (1 + 1e-9)],
                                  eps * rng.uniform(1.5, 8.0, 2)])
        step = 1e-8 * max(1.0, spectra.max())
        m = spectra.size
        mats = []
        for _ in range(3):
            q = np.linalg.qr(rng.standard_normal((m, m)))[0]
            mats.append((q * rng.permutation(spectra)) @ q.T)
        mats = np.stack(mats)
        probes = rng.standard_normal((len(mats), tri_length(m)))
        _, *cache = _rect_log_vec_rows(mats, eps)
        analytic = _rect_log_vec_grad_rows(*cache, probes, eps)
        for a, probe, grad in zip(mats, probes, analytic):
            fd = np.zeros((m, m))
            for i, j in zip(*np.triu_indices(m)):
                e = np.zeros((m, m))
                e[i, j] = e[j, i] = step
                up, down = _rect_log_vec_rows(np.stack([a + e, a - e]), eps)[0] @ probe
                fd[i, j] = fd[j, i] = (up - down) / (2 * step) / (1 if i == j else 2)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    def test_reeig_chain_through_clamped_directions_is_zero(self, rng):
        # every eigenvalue below eps: the output is constant
        mats = np.stack([random_spd(rng, 4, lo=0.01, hi=0.05) for _ in range(3)])
        _, *cache = _rect_log_vec_rows(mats, 1.0)
        grad = _rect_log_vec_grad_stack(cache, 1.0, rng.standard_normal((3, tri_length(4))))
        np.testing.assert_array_equal(grad, 0.0)


def conv_loop_reference(coords, weights, grid_mode, grad_out):
    """The lattice convolution and its filter gradient as one small product
    per (node, neighbour, filter) triple, the form before the lattice kernel."""
    out = np.zeros(coords.shape[:2] + (weights.shape[1],))
    grad_weights = np.zeros_like(weights)
    for i, j, l in grid_neighbors(grid_mode):
        out[:, i] += coords[:, j] @ weights[l].T
        grad_weights[l] += grad_out[:, i].T @ coords[:, j]
    return out, grad_weights


class TestConv:
    @pytest.mark.parametrize("n_frames", [1, 7, 500])
    @pytest.mark.parametrize("d_out", [1, 4, 9])
    @pytest.mark.parametrize("grid_mode", ["full", "physical"])
    def test_kernel_product_matches_per_triple_loop(self, grid_mode, d_out, n_frames):
        rng = np.random.default_rng(n_frames * 10 + d_out)
        coords = rng.standard_normal((n_frames, 20, 3))
        weights = rng.standard_normal((9, d_out, 3))
        grad_out = rng.standard_normal((n_frames, 20, d_out))
        out, ctx = conv_forward(coords, weights, grid_mode)
        grad_weights = conv_backward(ctx, grad_out)
        refs = conv_loop_reference(coords, weights, grid_mode, grad_out)
        for got, ref in zip((out, grad_weights), refs, strict=True):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_weights(self, rng):
        coords = rng.standard_normal((3, 20, 3))
        out, _ = conv_forward(coords, np.zeros((9, 4, 3)), "full")
        np.testing.assert_array_equal(out, 0.0)

    def test_identity_filter_passes_own_coords(self, rng):
        coords = rng.standard_normal((2, 20, 3))
        weights = np.zeros((9, 5, 3))
        weights[0, :3, :] = np.eye(3)  # filter 0 is the self filter
        out, _ = conv_forward(coords, weights, "full")
        np.testing.assert_allclose(out[:, :, :3], coords, atol=1e-14)
        np.testing.assert_array_equal(out[:, :, 3:], 0.0)

    def test_hand_expanded_corner_node(self, rng):
        coords = rng.standard_normal((1, 20, 3))
        weights = rng.standard_normal((9, 4, 3))
        out, _ = conv_forward(coords, weights, "full")
        # node 0 neighbours (neighbour, filter): (0,0), (1,3), (4,1), (5,2)
        expected = (
            weights[0] @ coords[0, 0]
            + weights[3] @ coords[0, 1]
            + weights[1] @ coords[0, 4]
            + weights[2] @ coords[0, 5]
        )
        np.testing.assert_allclose(out[0, 0], expected, atol=1e-12)

    def test_hand_expanded_interior_node(self, rng):
        coords = rng.standard_normal((1, 20, 3))
        weights = rng.standard_normal((9, 4, 3))
        out, _ = conv_forward(coords, weights, "full")
        # node 9 is finger 2, level 1; filter k steps (finger, level) by
        # 0: (0,0), 1: (1,0), 2: (1,1), 3: (0,1), 4: (-1,1), 5: (-1,0),
        # 6: (-1,-1), 7: (0,-1), 8: (1,-1), where node = 4 * finger + level
        expected = (
            weights[0] @ coords[0, 9]
            + weights[1] @ coords[0, 13]
            + weights[2] @ coords[0, 14]
            + weights[3] @ coords[0, 10]
            + weights[4] @ coords[0, 6]
            + weights[5] @ coords[0, 5]
            + weights[6] @ coords[0, 4]
            + weights[7] @ coords[0, 8]
            + weights[8] @ coords[0, 12]
        )
        np.testing.assert_allclose(out[0, 9], expected, atol=1e-12)

    def test_physical_mode_fewer_terms(self, rng):
        coords = rng.standard_normal((2, 20, 3))
        weights = rng.standard_normal((9, 4, 3))
        full, _ = conv_forward(coords, weights, "full")
        phys, _ = conv_forward(coords, weights, "physical")
        assert not np.allclose(full, phys)
        # physical node 0: self + level-up neighbour only
        expected = weights[0] @ coords[1, 0] + weights[3] @ coords[1, 1]
        np.testing.assert_allclose(phys[1, 0], expected, atol=1e-12)

    def test_backward_zero(self, rng):
        coords = rng.standard_normal((2, 20, 3))
        weights = rng.standard_normal((9, 4, 3))
        _, ctx = conv_forward(coords, weights, "full")
        np.testing.assert_array_equal(conv_backward(ctx, np.zeros((2, 20, 4))), 0.0)

    def test_gateaux_identity(self, rng):
        coords = rng.standard_normal((2, 20, 3))
        weights = rng.standard_normal((9, 3, 3))
        probe = rng.standard_normal((2, 20, 3))
        d_weights = rng.standard_normal(weights.shape)
        _, ctx = conv_forward(coords, weights, "full")
        analytic = np.sum(conv_backward(ctx, probe) * d_weights)
        h = 1e-6

        def loss(eps):
            out, _ = conv_forward(coords, weights + eps * d_weights, "full")
            return np.sum(out * probe)

        fd = (loss(h) - loss(-h)) / (2 * h)
        assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInput):
            conv_forward(rng.standard_normal((2, 19, 3)), np.zeros((9, 4, 3)), "full")
        _, ctx = conv_forward(rng.standard_normal((2, 20, 3)), np.zeros((9, 4, 3)),
                              "full")
        with pytest.raises(InvalidInput):
            conv_backward(ctx, np.zeros((2, 20, 5)))

    def test_grid_neighbors_drive_filters(self):
        # the forward's filters come from the grid's rows, and full mode uses all nine
        assert set(grid_neighbors("full")[:, 2]) == set(range(9))


class TestSpdAgg:
    def test_identity_aggregation(self, rng):
        x = random_spd(rng, 3)
        y, _ = spd_agg_forward(x[None], np.eye(3))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_selector(self, rng):
        xs = np.stack([random_spd(rng, 2), random_spd(rng, 2)])
        w = np.hstack([np.eye(2), np.zeros((2, 2))])
        y, _ = spd_agg_forward(xs, w)
        np.testing.assert_allclose(y, xs[0], atol=1e-12)

    def test_block_diagonal_identity(self, rng):
        for _ in range(10):
            n, d_in, d_out = 3, 4, 5
            xs = np.stack([random_spd(rng, d_in) for _ in range(n)])
            w = stiefel_init(d_out, n * d_in, int(rng.integers(1 << 30)))
            y, _ = spd_agg_forward(xs, w)
            ref = w @ block_diagonal(xs) @ w.T
            assert np.max(np.abs(y - ref)) <= 1e-12
            assert eigh(y).vals.min() > 0

    def test_backward_identity_case(self, rng):
        x = random_spd(rng, 3)
        g = random_sym(rng, 3)
        _, ctx = spd_agg_forward(x[None], np.eye(3))
        grad_xs, grad_w = spd_agg_backward(ctx, g)
        np.testing.assert_allclose(grad_xs[0], g, atol=1e-12)
        np.testing.assert_allclose(grad_w, 2.0 * g @ x, atol=1e-12)

    def test_backward_matches_per_block_formulas(self, rng):
        """dX_i = W_i^T G W_i and dW_i = 2 G (W_i X_i), block by block."""
        n, d_in, d_out = 7, 5, 12
        xs = np.stack([random_spd(rng, d_in) for _ in range(n)])
        w = stiefel_init(d_out, n * d_in, 3)
        g = random_sym(rng, d_out)
        _, ctx = spd_agg_forward(xs, w)
        grad_xs, grad_w = spd_agg_backward(ctx, g)
        for i in range(n):
            w_i = w[:, i * d_in : (i + 1) * d_in]
            want_x, want_w = w_i.T @ g @ w_i, 2.0 * g @ (w_i @ xs[i])
            assert np.max(np.abs(grad_xs[i] - want_x)) <= 1e-12 * np.max(np.abs(want_x))
            got_w = grad_w[:, i * d_in : (i + 1) * d_in]
            assert np.max(np.abs(got_w - want_w)) <= 1e-12 * np.max(np.abs(want_w))

    def test_backward_zero(self, rng):
        xs = np.stack([random_spd(rng, 3) for _ in range(2)])
        w = stiefel_init(4, 6, 0)
        _, ctx = spd_agg_forward(xs, w)
        grad_xs, grad_w = spd_agg_backward(ctx, np.zeros((4, 4)))
        np.testing.assert_array_equal(grad_xs, 0.0)
        np.testing.assert_array_equal(grad_w, 0.0)

    def test_backward_adds_into_a_total(self, rng):
        xs = np.stack([random_spd(rng, 3) for _ in range(4)])
        w = stiefel_init(5, 12, 1)
        g = random_sym(rng, 5)
        _, ctx = spd_agg_forward(xs, w)
        start = rng.standard_normal(w.shape)
        total = start.copy()
        grad_xs, got = spd_agg_backward(ctx, g, into=total)
        assert got is total
        assert total.tobytes() == (start + spd_agg_backward(ctx, g)[1]).tobytes()
        np.testing.assert_array_equal(grad_xs, spd_agg_backward(ctx, g)[0])
        with pytest.raises(InvalidInput):
            spd_agg_backward(ctx, g, into=np.zeros((5, 11)))

    def test_rank_deficient_weight_fails_spd(self, rng):
        x = random_spd(rng, 4)
        w = np.zeros((2, 4))
        w[0, 0] = 1.0  # second row zero: output singular
        y, _ = spd_agg_forward(x[None], w)
        with pytest.raises(NumericalFailure):
            head_forward(y, np.zeros((2, 4)), np.zeros(2))

    def test_dimension_mismatch(self, rng):
        xs = np.stack([random_spd(rng, 3) for _ in range(2)])
        with pytest.raises(InvalidInput):
            spd_agg_forward(xs, np.eye(5))
        with pytest.raises(InvalidInput):
            spd_agg_forward(xs, np.zeros((7, 6)))  # d_out > N*d_in


class TestHead:
    def test_identity_input_gives_bias_logits(self, rng):
        fc_w = rng.standard_normal((3, 16))
        fc_b = rng.standard_normal(3)
        logits, probs, _ = head_forward(np.eye(4), fc_w, fc_b)
        np.testing.assert_allclose(logits, fc_b, atol=1e-12)
        expected = np.exp(fc_b - fc_b.max())
        np.testing.assert_allclose(probs, expected / expected.sum(), atol=1e-12)

    def test_zero_head_uniform(self, rng):
        y = random_spd(rng, 3)
        _, probs, _ = head_forward(y, np.zeros((4, 9)), np.zeros(4))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)
        assert cross_entropy(probs, 2) == pytest.approx(np.log(4.0))

    def test_probs_normalized(self, rng):
        y = random_spd(rng, 5)
        _, probs, _ = head_forward(y, rng.standard_normal((6, 25)),
                                   rng.standard_normal(6))
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs >= 0)

    def test_saturated_probs_zero_gradient(self, rng):
        y = random_spd(rng, 3)
        fc_b = np.array([500.0, -500.0])
        _, probs, ctx = head_forward(y, np.zeros((2, 9)), fc_b)
        grad_y, grad_fc, grad_b = head_backward(ctx, 0)
        assert np.max(np.abs(grad_y)) <= 1e-10
        assert np.max(np.abs(grad_fc)) <= 1e-10
        assert np.max(np.abs(grad_b)) <= 1e-10

    def test_fc_gradient_rows_are_the_outer_product(self, rng):
        y = random_spd(rng, 4)
        _, _, ctx = head_forward(y, rng.standard_normal((3, 16)), rng.standard_normal(3))
        _, grad_fc, dz = head_backward(ctx, 1)
        want = np.outer(dz, ctx.log_flat)
        np.testing.assert_array_equal(grad_fc, want)
        start = rng.standard_normal((3, 16))
        total = start.copy()
        assert head_backward(ctx, 1, into=total)[1] is total
        assert total.tobytes() == (start + want).tobytes()
        with pytest.raises(InvalidInput):
            head_backward(ctx, 1, into=np.zeros((2, 16)))

    def test_label_out_of_range(self, rng):
        y = random_spd(rng, 3)
        _, _, ctx = head_forward(y, np.zeros((2, 9)), np.zeros(2))
        with pytest.raises(InvalidInput):
            head_backward(ctx, 2)
        with pytest.raises(InvalidInput):
            cross_entropy(np.array([0.5, 0.5]), -1)

    def test_not_spd_propagates(self):
        with pytest.raises(NotSPD):
            head_forward(np.diag([1.0, -1.0]), np.zeros((2, 4)), np.zeros(2))


class TestExtractRepresentation:
    def test_identity_gives_zero(self):
        np.testing.assert_array_equal(extract_representation(np.eye(6)), np.zeros(21))

    def test_diagonal_example(self):
        out = extract_representation(np.diag([np.e, np.e]))
        np.testing.assert_allclose(out, [1.0, 0.0, 1.0], atol=1e-12)

    def test_length(self, rng):
        assert extract_representation(random_spd(rng, 12)).shape == (78,)

    @given(st.integers(min_value=1, max_value=12))
    def test_branch_output_dim_formula(self, d):
        assert branch_output_dim(d) == (d + 1) * (d + 2) // 2 + 1
