import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spdhgr import symmat
from spdhgr.errors import InvalidInput, NotSPD, NumericalFailure, RankDeficient
from spdhgr.gradcheck import fd_gradient
from spdhgr.layers import _rect_log_vec_rows
from spdhgr.symmat import (
    _eigh_stack,
    _sym_unvectorize_grad_stack,
    assert_spd,
    eigh,
    qr_orthonormalize,
    spd_log,
    spectral_apply,
    spectral_grad,
    sym_vectorize,
    symmetrize,
    tri_length,
)

SQRT2 = np.sqrt(2.0)


def spd_exp(a):
    """Matrix exponential of a symmetric matrix, for the exp/log round trip."""
    eig = eigh(a)
    return spectral_apply(eig.vecs, np.exp(eig.vals))


def random_sym(rng, n, scale=1.0):
    return symmetrize(rng.standard_normal((n, n)) * scale)


def random_spd(rng, n, lo=0.1, hi=5.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    vals = rng.uniform(lo, hi, size=n)
    return symmetrize((q * vals) @ q.T)


sym_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=n * n, max_size=n * n,
    ).map(lambda vals: symmetrize(np.array(vals).reshape(n, n)))
)


@st.composite
def sign_flip_cases(draw):
    """A stack of 1-4 symmetric n x n matrices (n in 1..8), an upstream
    gradient per matrix and a +-1 sign per eigenvector column."""
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    mats = symmetrize(draw(hnp.arrays(np.float64, (b, n, n), elements=entries)))
    grads = symmetrize(draw(hnp.arrays(np.float64, (b, n, n), elements=entries)))
    signs = draw(hnp.arrays(np.float64, (b, 1, n), elements=st.sampled_from([-1.0, 1.0])))
    return mats, grads, signs


@given(sign_flip_cases())
def test_spectral_pair_invariant_to_eigenvector_signs(case):
    """U f(V) U^T and its Loewner backward are bitwise the same for any
    column signs of U, since (-a)(-b) = ab exactly; so no sign convention
    is needed."""
    mats, grads, signs = case
    vals, vecs = _eigh_stack(mats)
    flipped = vecs * signs
    fvals, dvals = np.exp(vals), np.exp(vals)
    assert np.array_equal(spectral_apply(flipped, fvals), spectral_apply(vecs, fvals))
    assert np.array_equal(spectral_grad(flipped, vals, fvals, dvals, grads),
                          spectral_grad(vecs, vals, fvals, dvals, grads))


class TestEigh:
    def test_identity(self):
        eig = eigh(np.eye(3))
        np.testing.assert_allclose(eig.vals, np.ones(3))
        np.testing.assert_allclose(eig.vecs @ np.diag(eig.vals) @ eig.vecs.T, np.eye(3))

    def test_already_diagonal(self):
        eig = eigh(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.vals, [3.0, 1.0])
        np.testing.assert_allclose(eig.vecs, np.eye(2), atol=1e-14)

    def test_reconstruction_random(self, rng):
        a = random_sym(rng, 6)
        eig = eigh(a)
        err = np.linalg.norm(eig.vecs @ np.diag(eig.vals) @ eig.vecs.T - a)
        assert err < 1e-10 * np.linalg.norm(a)

    def test_descending_and_orthogonal(self, rng):
        eig = eigh(random_sym(rng, 7))
        assert np.all(np.diff(eig.vals) <= 0)
        assert np.linalg.norm(eig.vecs @ eig.vecs.T - np.eye(7)) <= 1e-10 * 7

    def test_deterministic(self, rng):
        a = random_sym(rng, 6)
        e1, e2 = eigh(a), eigh(a)
        assert np.array_equal(e1.vals, e2.vals)
        assert np.array_equal(e1.vecs, e2.vecs)

    def test_non_finite_rejected(self):
        a = np.eye(3)
        a[0, 1] = np.nan
        with pytest.raises(InvalidInput):
            eigh(a)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput):
            eigh(np.ones((2, 3)))

    @given(sym_matrices)
    def test_reconstruction_property(self, a):
        eig = eigh(a)
        err = np.linalg.norm(eig.vecs @ np.diag(eig.vals) @ eig.vecs.T - a)
        assert err <= 1e-8 * max(np.linalg.norm(a), 1e-30)


class TestSpdLog:
    def test_identity_maps_to_zero(self):
        np.testing.assert_allclose(spd_log(np.eye(4)), np.zeros((4, 4)), atol=1e-14)

    def test_diagonal(self):
        out = spd_log(np.diag([np.e, np.e**2]))
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_against_scipy_logm(self, rng):
        a = random_spd(rng, 5)
        np.testing.assert_allclose(spd_log(a), scipy.linalg.logm(a), atol=1e-8)

    def test_exp_log_roundtrip(self, rng):
        a = random_spd(rng, 5)
        err = np.linalg.norm(spd_exp(spd_log(a)) - a) / np.linalg.norm(a)
        assert err < 1e-8

    def test_log_exp_roundtrip_bounded_spectrum(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            s = symmetrize((q * rng.uniform(-5, 5, n)) @ q.T)
            err = np.linalg.norm(spd_log(spd_exp(s)) - s)
            assert err <= 1e-8 * max(np.linalg.norm(s), 1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            spd_log(np.diag([1.0, -0.5]))


def rectify(a, eps):
    """U max(V, eps) U^T, from the eigenpairs and rectified spectrum the branch layers cache."""
    _, vecs, _, rect = _rect_log_vec_rows(a[None], eps)
    return spectral_apply(vecs[0], rect[0])


class TestRectifyEigs:
    def test_clamps_small_eigenvalue(self):
        out = rectify(np.diag([5.0, 1e-9]), 1e-4)
        np.testing.assert_allclose(out, np.diag([5.0, 1e-4]), atol=1e-12)

    def test_negative_eigenvalue_becomes_eps(self, rng):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = symmetrize((q * np.array([3.0, 2.0, 1.0, -0.7])) @ q.T)
        out = rectify(a, 1e-4)
        vals = eigh(out).vals
        assert vals.min() == pytest.approx(1e-4, rel=1e-9)
        assert_spd(out)

    def test_output_passes_assert_spd_with_margin(self, rng):
        for _ in range(10):
            a = random_sym(rng, 5)
            eps = 1e-4
            out = rectify(a, eps)
            assert eigh(out).vals.min() >= eps / 2
            assert_spd(out)


class TestSymVectorize:
    def test_two_by_two(self):
        a, b, c = 1.5, -0.7, 2.25
        np.testing.assert_allclose(
            sym_vectorize(np.array([[a, b], [b, c]])), [a, SQRT2 * b, c]
        )

    def test_identity3(self):
        np.testing.assert_allclose(sym_vectorize(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_norm_preserved(self, rng):
        a = random_sym(rng, 10)
        v = sym_vectorize(a)
        assert v.shape == (55,)
        assert abs(np.linalg.norm(v) - np.linalg.norm(a)) <= 1e-12 * np.linalg.norm(a)

    @given(sym_matrices, st.integers(0, 2**31))
    def test_isometry_property(self, a, seed):
        b = random_sym(np.random.default_rng(seed), a.shape[0])
        lhs = sym_vectorize(a) @ sym_vectorize(b)
        rhs = np.sum(a * b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestSymUnvectorizeGrad:
    def test_diagonal_entries_raw(self):
        np.testing.assert_allclose(_sym_unvectorize_grad_stack(np.array([1.0, 0.0, 1.0]), 2),
                                   np.eye(2))

    def test_off_diagonal_split(self):
        out = _sym_unvectorize_grad_stack(np.array([0.0, 1.0, 0.0]), 2)
        s = 1.0 / SQRT2
        np.testing.assert_allclose(out, [[0.0, s], [s, 0.0]])

    def test_adjoint_identity(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            g = rng.standard_normal(tri_length(n))
            da = random_sym(rng, n)
            lhs = np.sum(_sym_unvectorize_grad_stack(g, n) * da)
            rhs = g @ sym_vectorize(da)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


class TestEigBackprop:
    """`spectral_grad`, the one backward of every spectral map."""

    def test_identity_function_gives_symmetrized_gradient(self, rng):
        for n in (1, 4, 9):
            eig = eigh(random_sym(rng, n))
            g = rng.standard_normal((n, n))
            out = spectral_grad(eig.vecs, eig.vals, eig.vals, np.ones(n), g)
            np.testing.assert_allclose(out, symmetrize(g), atol=1e-12)

    def test_zero_upstream_gradient(self, rng):
        eig = eigh(random_spd(rng, 4))
        out = spectral_grad(eig.vecs, eig.vals, np.log(eig.vals), 1.0 / eig.vals,
                            np.zeros((4, 4)))
        np.testing.assert_array_equal(out, 0.0)

    def test_stack_matches_single_matrices(self, rng):
        mats = np.stack([random_spd(rng, 5) for _ in range(6)]).reshape(2, 3, 5, 5)
        grads = rng.standard_normal((2, 3, 5, 5))
        eigs = [[eigh(m) for m in row] for row in mats]
        vecs = np.array([[e.vecs for e in row] for row in eigs])
        vals = np.array([[e.vals for e in row] for row in eigs])
        out = spectral_grad(vecs, vals, np.log(vals), 1.0 / vals, grads)
        for i in range(2):
            for j in range(3):
                e = eigs[i][j]
                single = spectral_grad(e.vecs, e.vals, np.log(e.vals), 1.0 / e.vals, grads[i, j])
                np.testing.assert_allclose(out[i, j], single, rtol=1e-13, atol=1e-15)

    def test_log_composite_matches_fd(self, rng):
        n = 4
        a = random_spd(rng, n, lo=0.3, hi=4.0)
        r = random_sym(rng, n)
        eig = eigh(a)
        analytic = spectral_grad(eig.vecs, eig.vals, np.log(eig.vals), 1.0 / eig.vals, r)
        fd = fd_gradient(lambda m: np.sum(r * spd_log(m)), a, symmetric=True)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6

    def test_repeated_eigenvalue_matches_fd(self, rng):
        # the cross term inside a repeated eigenspace is f'(v), not zero
        q = random_orthogonal(rng, 4)
        a = symmetrize((q * np.array([3.0, 2.0, 2.0, 0.5])) @ q.T)
        r = random_sym(rng, 4)
        eig = eigh(a)
        analytic = spectral_grad(eig.vecs, eig.vals, np.log(eig.vals), 1.0 / eig.vals, r)
        fd = fd_gradient(lambda m: np.sum(r * spd_log(m)), a, symmetric=True)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6

    def test_degenerate_pair_guarded(self):
        # no division across the repeated pair, and its entry is exact:
        # f(v) = v^2 gives L_ij = v_i + v_j
        vals = np.array([2.0, 1.0, 1.0])
        out = spectral_grad(np.eye(3), vals, vals**2, 2.0 * vals, np.ones((3, 3)))
        np.testing.assert_array_equal(out, [[4.0, 3.0, 3.0], [3.0, 2.0, 2.0], [3.0, 2.0, 2.0]])

    @pytest.mark.parametrize("fn", ["log", "exp"])
    @pytest.mark.parametrize("rel_gap", [0.0, 1e-14, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4])
    def test_near_tie_divided_difference(self, fn, rel_gap):
        lam = 3.0
        vals = np.array([lam * (1.0 + rel_gap), lam])
        gap = vals[0] - vals[1]
        if fn == "log":
            f, df = np.log(vals), 1.0 / vals
            exact = np.log1p(gap / lam) / gap if gap else 1.0 / lam
        else:
            f, df = np.exp(vals), np.exp(vals)
            exact = np.exp(lam) * np.expm1(gap) / gap if gap else np.exp(lam)
        out = spectral_grad(np.eye(2), vals, f, df, np.ones((2, 2)))
        assert np.all(np.isfinite(out))
        assert abs(out[0, 1] - exact) <= 1e-8 * exact
        np.testing.assert_array_equal(np.diagonal(out), df)

    def test_all_clamped_gives_exact_zero(self, rng):
        # rectification with every eigenvalue below eps: f is constant
        eps = 1.0
        eig = eigh(random_spd(rng, 4, lo=0.01, hi=0.05))
        out = spectral_grad(eig.vecs, eig.vals, np.maximum(eig.vals, eps),
                            np.where(eig.vals > eps, 1.0, 0.0), random_sym(rng, 4))
        np.testing.assert_array_equal(out, 0.0)

    def test_rotation_within_repeated_eigenspace(self, rng):
        vals = np.array([4.0, 2.0, 2.0, 2.0, 0.5])
        q = random_orthogonal(rng, 5)
        rotated = q.copy()
        rotated[:, 1:4] = q[:, 1:4] @ random_orthogonal(rng, 3)
        g = random_sym(rng, 5)
        out = spectral_grad(q, vals, np.log(vals), 1.0 / vals, g)
        out_rotated = spectral_grad(rotated, vals, np.log(vals), 1.0 / vals, g)
        np.testing.assert_allclose(out_rotated, out, atol=1e-13)


class TestQrOrthonormalize:
    def test_fixed_point(self, rng):
        q = qr_orthonormalize(rng.standard_normal((3, 8)))
        np.testing.assert_allclose(qr_orthonormalize(q), q, atol=1e-12)

    def test_scaling_removed(self):
        out = qr_orthonormalize(np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-14)

    def test_orthonormal_rows(self, rng):
        q = qr_orthonormalize(rng.standard_normal((5, 20)))
        assert np.linalg.norm(q @ q.T - np.eye(5)) <= 1e-10

    def test_row_span_preserved(self, rng):
        m = rng.standard_normal((3, 7))
        q = qr_orthonormalize(m)
        # every row of m is a combination of rows of q
        residual = m - (m @ q.T) @ q
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(m)

    def test_rank_deficient(self):
        m = np.ones((2, 4))
        with pytest.raises(RankDeficient):
            qr_orthonormalize(m)

    def test_rows_exceed_cols(self):
        with pytest.raises(InvalidInput):
            qr_orthonormalize(np.ones((4, 2)))

    def test_non_finite_entry_rejected(self, rng):
        m = rng.standard_normal((3, 7))
        m[1, 4] = np.nan
        with pytest.raises(NumericalFailure) as info:
            qr_orthonormalize(m)
        assert type(info.value) is NumericalFailure
        assert str(info.value) == "qr_orthonormalize: non-finite entries"


def householder(m):
    """Householder QR of M^T with the positive-diagonal sign convention:
    the fallback's lines, and qr_orthonormalize's only path before
    CholeskyQR2."""
    q, r = np.linalg.qr(m.T)
    return (q * np.sign(np.diagonal(r))).T


def conditioned(shape, kappa, seed=0):
    """U diag(s) V^T with singular values log-spaced from 1 to 1/kappa."""
    rows, cols = shape
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
    return (u * np.logspace(0, -np.log10(kappa), rows)) @ v.T


UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


class TestCholeskyQr2:
    @pytest.mark.parametrize("shape", [(3, 8), (5, 5), (200, 3360)], ids=str)
    @pytest.mark.parametrize("kappa", [1, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    def test_condition_sweep(self, shape, kappa, householder_calls):
        m = conditioned(shape, kappa)
        want = householder(m)
        fast = symmat._cholesky_qr2(m)
        falls_back = fast is None or fast[1] > symmat.CHOLQR2_DELTA
        householder_calls.clear()
        q = qr_orthonormalize(m)
        # the fallback runs exactly when CholeskyQR2 fails or exceeds delta
        assert householder_calls == ([shape[::-1]] if falls_back else [])
        # and delta sits between the swept kappa = 1e6 and 1e8
        assert falls_back == (kappa >= 1e8)
        assert np.linalg.norm(q @ q.T - np.eye(shape[0])) <= 1e-12
        assert np.linalg.norm(m - (m @ q.T) @ q) <= 1e-10 * np.linalg.norm(m)
        # both are backward stable, so they agree to the forward error
        # O(kappa u) of any QR
        assert np.max(np.abs(q - want)) <= 10 * kappa * UNIT_ROUNDOFF
        if falls_back:
            assert q.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3, 8), (200, 3360)], ids=str)
    @pytest.mark.parametrize("defect", ["ones", "repeated row", "zero row"])
    def test_rank_deficient_takes_the_fallback(self, shape, defect, householder_calls):
        m = np.ones(shape) if defect == "ones" else conditioned(shape, 10.0)
        if defect == "repeated row":
            m[-1] = m[0]
        elif defect == "zero row":
            m[1] = 0.0
        householder_calls.clear()
        with pytest.raises(RankDeficient, match=f"{shape[0]}x{shape[1]}"):
            qr_orthonormalize(m)
        assert householder_calls == [shape[::-1]]

    def test_lower_triangular_factor_with_positive_diagonal(self, rng):
        m = rng.standard_normal((4, 9))
        q = qr_orthonormalize(m)
        factor = m @ q.T
        np.testing.assert_allclose(np.triu(factor, 1), 0.0, atol=1e-14)
        assert np.all(np.diagonal(factor) > 0)

    @pytest.mark.parametrize("shape", [(0, 5), (0, 0)])
    def test_no_rows_rejected_naming_the_shape(self, shape):
        with pytest.raises(InvalidInput, match=re.escape(f"rows >= 1, got shape {shape}")):
            qr_orthonormalize(np.empty(shape))


class TestAssertSpd:
    def test_accepts_spd(self, rng):
        assert_spd(random_spd(rng, 5))

    def test_rejects_semidefinite(self):
        with pytest.raises(NotSPD):
            assert_spd(np.diag([1.0, 0.0]))

    def test_scale_relative_floor(self):
        # tiny but healthy eigenvalues pass; relatively negligible ones fail
        assert_spd(np.diag([2e-12, 1e-12 * 0.5]) + np.eye(2) * 1e-7)
        with pytest.raises(NotSPD):
            assert_spd(np.diag([1e6, 1e-7]))
