"""Dense symmetric-matrix kernel.

Everything downstream (Gaussian aggregation, eigenvalue rectification,
log-Euclidean maps, Stiefel retractions) reduces to a handful of
operations on real symmetric matrices collected here: an
eigendecomposition, one spectral map U f(V) U^T with its backward,
half-vectorization, and QR row-orthonormalization.

Every spectral function of the package (rectification, the matrix
logarithm, and rectification followed by the logarithm
in the branch layers) goes through `spectral_apply` and
`spectral_grad`. The backward is the Loewner (divided-difference) form
U (L o U^T G U) U^T (Ionescu et al., ICCV 2015; Brooks et al., NeurIPS
2019), which stays exact at repeated eigenvalues.

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


def _as_square_sym(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidInput(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} has non-finite entries")
    return 0.5 * (a + a.T)


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


def _check_spd_vals(vals: np.ndarray, context: str) -> None:
    floor = SPD_FLOOR_SCALE * max(1.0, float(np.max(vals, initial=0.0)))
    smallest = float(np.min(vals))
    if smallest <= floor:
        raise NotSPD(f"{context}: min eigenvalue {smallest:.3e} <= floor {floor:.3e}")


def assert_spd(a: np.ndarray, context: str = "matrix") -> EigPair:
    """Raise NotSPD unless min eig > SPD_FLOOR_SCALE * max(1, max eig).

    Returns the eigendecomposition so callers can reuse it.
    """
    eig = eigh(a)
    _check_spd_vals(eig.vals, context)
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


def spd_log(a: np.ndarray, eig: EigPair | None = None) -> np.ndarray:
    """Principal matrix logarithm of an SPD matrix.

    Accepts a precomputed eigendecomposition of ``a``, so pipelines never
    decompose the same matrix twice.
    """
    eig = eigh(a) if eig is None else eig
    _check_spd_vals(eig.vals, "spd_log")
    return spectral_apply(eig.vecs, np.log(eig.vals))


def rectify_eigs(a: np.ndarray, eps: float) -> np.ndarray:
    """Clamp eigenvalues from below: U max(eps I, V) U^T."""
    if not np.isfinite(eps) or eps <= 0.0:
        raise InvalidInput(f"eps must be a positive real, got {eps}")
    eig = eigh(a)
    return spectral_apply(eig.vecs, np.maximum(eig.vals, eps))


def tri_length(dim: int) -> int:
    return dim * (dim + 1) // 2


def _tri_dim(length: int) -> int:
    dim = int(round((np.sqrt(8.0 * length + 1.0) - 1.0) / 2.0))
    if tri_length(dim) != length:
        raise InvalidInput(f"{length} is not a triangular number n(n+1)/2")
    return dim


_SQRT2 = np.sqrt(2.0)
_tri_cache: dict[int, tuple] = {}


def _tri_indices(n: int):
    """Cached row-major upper-triangle indices and off-diagonal mask."""
    hit = _tri_cache.get(n)
    if hit is None:
        iu = np.triu_indices(n)
        hit = _tri_cache.setdefault(n, (iu[0], iu[1], iu[0] != iu[1]))
    return hit


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


def sym_unvectorize_grad(g: np.ndarray) -> np.ndarray:
    """Adjoint of sym_vectorize: map a vector gradient back to a matrix.

    Diagonal slots receive the raw entry; each off-diagonal entry is split
    across its two symmetric positions with weight 1/sqrt(2), so that
    <sym_unvectorize_grad(g), dA>_F == <g, sym_vectorize(dA)> for every
    symmetric dA.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1:
        raise InvalidInput(f"gradient vector must be 1-d, got shape {g.shape}")
    n = _tri_dim(g.shape[0])
    return _sym_unvectorize_grad_stack(g[None, :], n)[0]


def _sym_unvectorize_grad_stack(g: np.ndarray, n: int) -> np.ndarray:
    rows, cols, off = _tri_indices(n)
    scale = np.where(off, 1.0 / _SQRT2, 0.5)
    half = np.zeros(g.shape[:-1] + (n, n), dtype=np.float64)
    half[..., rows, cols] = g * scale
    return half + np.swapaxes(half, -1, -2)


def qr_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Row-orthonormalize M (rows <= cols) preserving its row span.

    Uses the QR factorization of M^T with the positive-diagonal sign
    convention, so an already row-orthonormal input is a fixed point.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInput(f"expected a 2-d array, got shape {m.shape}")
    rows, cols = m.shape
    if rows > cols:
        raise InvalidInput(f"need rows <= cols, got {rows}x{cols}")
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("qr_orthonormalize: non-finite entries")
    q, r = np.linalg.qr(m.T)
    diag = np.diagonal(r)
    tol = max(rows, cols) * np.finfo(np.float64).eps * float(np.max(np.abs(diag), initial=0.0))
    if np.min(np.abs(diag)) <= tol:
        raise RankDeficient(f"matrix of shape {rows}x{cols} is not full row rank")
    return (q * np.sign(diag)).T
