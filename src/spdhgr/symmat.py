"""Dense symmetric-matrix kernel.

Everything downstream (Gaussian aggregation, rectified and plain
log-Euclidean maps, Stiefel retractions) reduces to a handful of
operations on real symmetric matrices collected here: an
eigendecomposition, one spectral map U f(V) U^T with its backward,
half-vectorization, and QR row-orthonormalization.

QR row-orthonormalization (the Stiefel retraction and the initial
Stiefel weight) is CholeskyQR2: two Cholesky rounds on the small
rows x rows Gram matrix, several times faster than numpy's Householder
QR at 200x3360. Inputs too ill-conditioned for it (condition number
above about 1e6) fall back to the Householder QR.

Every spectral function of the package goes through `spectral_apply`
and `spectral_grad`: the matrix logarithm `spd_log`, and the branch
layers' log(max(v, eps)), which fuses ReEig and LogEig (rectification
never runs alone). The backward is the Loewner (divided-difference)
form U (L o U^T G U) U^T (Ionescu et al., ICCV 2015; Brooks et al.,
NeurIPS 2019), which stays exact at repeated eigenvalues.

Conventions:
  * matrices are dense row-major float64 ndarrays, symmetrized on entry;
  * eigenvalues are sorted descending. Eigenvector signs are LAPACK's:
    it returns the same vectors for the same input, so repeated runs and
    checkpoints reproduce bitwise, and every spectral function here is
    exactly invariant to column signs, since (-a)(-b) = ab in IEEE
    arithmetic;
  * gradients of scalar losses with respect to symmetric matrices use
    the Frobenius pairing dL = <G, dX>_F with G symmetric.

The spectral pair and the private ``_stack`` helpers operate on stacks
of matrices (leading batch axes) and are the single implementation the
public single-matrix wrappers and the batched layer code both call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInput, NotSPD, NumericalFailure, RankDeficient

# Eigenvalue floor for the SPD check: min eig must exceed
# SPD_FLOOR_SCALE * max(1, max eig).
SPD_FLOOR_SCALE = 1e-12

# Eigenvalue pairs with |gap| <= TIE_RTOL * max(|v_i|, |v_j|) take the
# mean of the two derivatives as their divided difference. That mean is
# off by O(gap^2), the division by O(machine epsilon / gap); at 1e-6
# both stay below 3e-10 relative for log and exp.
TIE_RTOL = 1e-6


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, batched over leading axes."""
    a = np.asarray(a, dtype=np.float64)
    out = a + np.swapaxes(a, -1, -2)
    out *= 0.5
    return out


def _as_square_sym(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidInput(f"matrix must be a square 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    return symmetrize(a)


@dataclass(frozen=True)
class EigPair:
    """Eigendecomposition A = vecs @ diag(vals) @ vecs.T.

    ``vecs`` columns are orthonormal eigenvectors; ``vals`` is sorted
    descending. Column signs are LAPACK's, the same for the same input;
    nothing here depends on them.
    """

    vecs: np.ndarray
    vals: np.ndarray

    @property
    def dim(self) -> int:
        return self.vals.shape[0]


def _eigh_stack(a: np.ndarray):
    """Batched symmetric eigendecomposition, eigenvalues descending.

    Both outputs are copied out of their reversed views into contiguous
    arrays, so the products downstream run on numpy's contiguous BLAS path.
    """
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    return np.ascontiguousarray(vals[..., ::-1]), np.ascontiguousarray(vecs[..., ::-1])


def eigh(a: np.ndarray) -> EigPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = _as_square_sym(a)
    vals, vecs = _eigh_stack(a)
    return EigPair(vecs=vecs, vals=vals)


def assert_spd(a: np.ndarray, context: str = "matrix") -> EigPair:
    """Raise NotSPD unless min eig > SPD_FLOOR_SCALE * max(1, max eig).

    Returns the eigendecomposition so callers can reuse it.
    """
    eig = eigh(a)
    floor = SPD_FLOOR_SCALE * max(1.0, float(np.max(eig.vals, initial=0.0)))
    smallest = float(np.min(eig.vals))
    if smallest <= floor:
        raise NotSPD(f"{context}: min eigenvalue {smallest:.3e} <= floor {floor:.3e}")
    return eig


def spectral_apply(vecs: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """U f(V) U^T over (..., m, m), from the eigenvectors and f at the eigenvalues."""
    return symmetrize((vecs * fvals[..., None, :]) @ np.swapaxes(vecs, -1, -2))


def spectral_grad(vecs, vals, fvals, dvals, grad) -> np.ndarray:
    """Backward of `spectral_apply`: U (L o U^T G U) U^T over (..., m, m).

    ``fvals`` and ``dvals`` hold f and f' at the eigenvalues ``vals``. L
    is the Loewner matrix L_ij = (f_i - f_j) / (v_i - v_j), L_ii = f'_i;
    near-ties take the mean of f'_i and f'_j, so repeated eigenvalues get
    their exact derivative. L is symmetric, so symmetrizing the result
    gives the gradient for the symmetrized ``grad``.
    """
    vi, vj = vals[..., :, None], vals[..., None, :]
    gap = vi - vj
    tie = np.abs(gap) <= TIE_RTOL * np.maximum(np.abs(vi), np.abs(vj))
    loewner = np.where(tie, 0.5 * (dvals[..., :, None] + dvals[..., None, :]),
                       (fvals[..., :, None] - fvals[..., None, :]) / np.where(tie, 1.0, gap))
    vecs_t = np.swapaxes(vecs, -1, -2)
    return symmetrize(vecs @ (loewner * (vecs_t @ grad @ vecs)) @ vecs_t)


def spd_log(a: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm of an SPD matrix, checked by `assert_spd`."""
    eig = assert_spd(a, "spd_log")
    return spectral_apply(eig.vecs, np.log(eig.vals))


def tri_length(dim: int) -> int:
    return dim * (dim + 1) // 2


_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _tri_indices(n: int):
    """Cached row-major upper-triangle indices and off-diagonal mask."""
    rows, cols = np.triu_indices(n)
    return rows, cols, rows != cols


def sym_vectorize(a: np.ndarray) -> np.ndarray:
    """Half-vectorize a symmetric matrix, off-diagonals scaled by sqrt(2).

    Row-major over the upper triangle; the scaling makes the map a linear
    isometry: ||vec(A)||_2 = ||A||_F and <vec(A),vec(B)> = <A,B>_F.
    """
    a = _as_square_sym(a)
    return _sym_vectorize_stack(a)


def _sym_vectorize_stack(a: np.ndarray) -> np.ndarray:
    rows, cols, off = _tri_indices(a.shape[-1])
    scale = np.where(off, _SQRT2, 1.0)
    return a[..., rows, cols] * scale


def _sym_unvectorize_grad_stack(g: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of `sym_vectorize` over (..., n(n+1)/2) gradient rows: a
    diagonal slot takes its raw entry, an off-diagonal entry is split over
    its two symmetric positions with weight 1/sqrt(2)."""
    rows, cols, off = _tri_indices(n)
    scale = np.where(off, 1.0 / _SQRT2, 0.5)
    half = np.zeros(g.shape[:-1] + (n, n), dtype=np.float64)
    half[..., rows, cols] = g * scale
    return half + np.swapaxes(half, -1, -2)


# CholeskyQR2's result is refused, and the Householder QR runs instead,
# when a Cholesky fails or the second round's factor L2 has an entry
# farther than this from the identity. L2 L2^T is the Gram matrix of round
# one's output, so |L2 - I| measures how far that output is from
# orthonormal: about u * kappa(M)^2. 1e-4 keeps the fast path to kappa up
# to about 1e6, two orders of magnitude inside kappa < u^-1/2 (about 1e8),
# where CholeskyQR2 is as accurate as Householder QR (Yamamoto, Nakatsukasa,
# Yanagisawa & Fukaya, ETNA 44, 2015). Over seeded draws of shapes 3x8,
# 5x5 and 200x3360, kappa <= 1e6 gave |L2 - I| <= 2e-5 and kappa >= 1e8
# gave >= 9e-4 or a failed Cholesky; a paper-scale initial draw or
# retraction gives about 3e-16.
CHOLQR2_DELTA = 1e-4


def qr_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Row-orthonormalize M (rows <= cols) preserving its row span.

    Returns the Q of M = L Q with L lower triangular and diag(L) > 0, so
    an already row-orthonormal input is a fixed point. CholeskyQR2
    (`_cholesky_qr2`) computes it; an input it refuses (`CHOLQR2_DELTA`)
    takes the QR factorization of M^T with the positive-diagonal sign
    convention, which raises RankDeficient for an input of lower rank.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise InvalidInput(f"expected a 2-d array with rows >= 1, got shape {m.shape}")
    rows, cols = m.shape
    if rows > cols:
        raise InvalidInput(f"need rows <= cols, got {rows}x{cols}")
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("qr_orthonormalize: non-finite entries")
    fast = _cholesky_qr2(m)
    if fast is not None and fast[1] <= CHOLQR2_DELTA:  # a NaN deviation falls through
        return fast[0]
    q, r = np.linalg.qr(m.T)
    diag = np.diagonal(r)
    tol = max(rows, cols) * np.finfo(np.float64).eps * float(np.max(np.abs(diag), initial=0.0))
    if np.min(np.abs(diag)) <= tol:
        raise RankDeficient(f"matrix of shape {rows}x{cols} is not full row rank")
    return (q * np.sign(diag)).T


def _cholesky_qr2(m: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Two rounds of Cholesky QR on the rows of M: the Gram matrix
    Q Q^T = L L^T (rows x rows), then Q <- L^-1 Q. Returns Q and the
    largest entry of |L - I| of the second round, or None where a
    Cholesky fails. numpy has no triangular solve; the explicit inverse
    of the small factor is the fast form.
    """
    q = m
    with np.errstate(all="ignore"):  # a nearly singular M is refused by its caller
        for _ in range(2):
            try:
                l = np.linalg.cholesky(q @ q.T)
                q = np.linalg.inv(l) @ q
            except np.linalg.LinAlgError:
                return None
        return q, float(np.max(np.abs(l - np.eye(len(l)))))
