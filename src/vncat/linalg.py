"""Dense complex linear algebra helpers shared by the whole package.

Matrices are plain numpy arrays with dtype complex128.  Vectorization is
column-stacking throughout (``order="F"``), so the matrix of a linear map
``F -> C_L @ F @ C_R`` on vectorized input is ``C_R.T (x) C_L``.

One tolerance rule decides every rank cut and pass/fail verdict in the
package: a singular value, residual or defect ``x`` of something of size
``scale`` is zero when ``relative(x, scale) <= tol``.  The cut is relative
to the scale but never below ``tol``, so that a numerically zero matrix (say
a constraint stack of rounding errors) reads as zero, not as structure.

Rank cuts are owned by ``cut_rank``; every pass/fail verdict is owned by
``within``, which decides ``relative(x, scale) <= tol`` from two exact
bounds before it computes a scale or an operator norm.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "kron",
    "swap_perm",
    "nullspace",
    "operator_norm",
    "operator_norms",
    "relative",
    "within",
    "cut_rank",
    "batches",
]

# complex entries per temporary of a batched kernel
CHUNK_ENTRIES = 2**20


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor major.

    Entry ``(i*b.rows + k, j*b.cols + l)`` equals ``a[i, j] * b[k, l]``.
    """
    return np.kron(as_matrix(a), as_matrix(b))


def swap_perm(m: int, n: int) -> np.ndarray:
    """Permutation matrix for C^m (x) C^n -> C^n (x) C^m.

    Sends basis index ``i*n + j`` to ``j*m + i``; the matrix has a one at
    row ``j*m + i``, column ``i*n + j``.  ``swap_perm(n, m) @ swap_perm(m, n)``
    is exactly the identity.
    """
    if m < 1 or n < 1:
        raise ValueError("swap_perm needs positive dimensions")
    s = np.zeros((m * n, m * n), dtype=np.complex128)
    i = np.repeat(np.arange(m), n)
    j = np.tile(np.arange(n), m)
    s[j * m + i, i * n + j] = 1.0
    return s


def operator_norm(a) -> float:
    """Largest singular value of ``a`` (spectral norm); 0.0 for an empty matrix."""
    return float(operator_norms(as_matrix(a)))


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """``operator_norm`` of each matrix of an ``(..., m, n)`` stack.

    The batched SVD makes the same LAPACK call on each matrix whatever the
    stack around it, so a value does not depend on how matrices are batched.
    """
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    if 0 in stack.shape[-2:]:
        return np.zeros(stack.shape[:-2])
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def batches(count: int, entries: int) -> list[slice]:
    """Slices covering range(count), each of at most ``CHUNK_ENTRIES // entries`` items.

    A batch of items that each need ``entries`` complex entries of
    temporaries then stays within ``CHUNK_ENTRIES``; a batch holds one item
    at least.
    """
    step = max(1, CHUNK_ENTRIES // max(1, entries))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def relative(x, scale):
    """``x / max(1, scale)``, elementwise: what tolerances are compared with."""
    return x / np.maximum(1.0, scale)


def within(x, scale, tol: float, *, mats=None) -> np.ndarray:
    """Elementwise ``relative(x, scale) <= tol``, computing only what two exact bounds leave open.

    ``x`` is an array of defects, or None when the defects are the operator
    norms of the ``(..., m, n)`` stack ``mats`` of defect matrices.
    ``scale`` is an array that broadcasts against them, or a callable that
    returns one; it is called only when the bounds leave a verdict open.

    - (i) ``relative(x, s) <= x``, so a defect ``x <= tol`` passes whatever
      its scale.
    - (ii) ``||X||_2 <= ||X||_F``, so a defect matrix whose Frobenius norm is
      at most ``tol / 2`` passes with no SVD.  The factor 1/2 keeps the
      rounding of the two computed norms from flipping a verdict at the cut.

    An SVD is taken only of the matrices (ii) leaves open, each giving the
    value it gives in any batch; a certified matrix keeps its Frobenius
    norm as its defect, which (i) then passes.  A defect matrix with a
    non-finite entry fails, as does a NaN defect; an overflowing Frobenius
    sum certifies nothing and leaves its matrix to the SVD.
    """
    if mats is None:
        x = np.asarray(x, dtype=np.float64)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.asarray(np.linalg.norm(mats, axis=(-2, -1)))  # Frobenius: at least ||X||_2
        # (ii): a Frobenius norm within tol / 2 stands for its operator norm; a
        # NaN one (from a NaN entry) is left to fail
        open_ = x > tol / 2
        if open_.any():
            left = mats[open_]
            finite = np.isfinite(left).all(axis=(-2, -1))
            norms = np.full(len(left), np.inf)
            norms[finite] = operator_norms(left[finite])
            x[open_] = norms
    ok = x <= tol
    if not ok.all():
        s = scale() if callable(scale) else scale
        with np.errstate(invalid="ignore"):  # inf / inf: an infinite defect fails
            ok = ok | (relative(x, s) <= tol)
    return ok


def cut_rank(s: np.ndarray, tol: float) -> int:
    """The rank cut: how many descending singular values have ``relative(s, s[0]) > tol``."""
    return int((relative(s, s[:1]) > tol).sum())


def nullspace(a, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal kernel basis of ``a`` as the columns of the result.

    Keeps right singular vectors whose singular values satisfy
    ``relative(sigma, sigma_max) <= tol``.  The zero matrix (and the
    degenerate zero-row case) returns the standard basis.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0 or not m.any():
        return np.eye(cols, dtype=np.complex128)
    # economy SVD already carries the full V when rows >= cols; the full
    # (and then huge) U is never needed.  Singular values come sorted, so
    # the kernel is the rows of V* past the rank
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return vh[cut_rank(s, tol):].conj().T
