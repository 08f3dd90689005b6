"""Dense complex linear-algebra kernel.

Everything downstream (POVM validation, tree construction, dilation) sits on
the four operations in this module: Hermitian eigendecomposition with a
deterministic ordering convention, Moore-Penrose pseudoinverse with an
explicit rank policy, spectral PSD square root, and completion of an
isometric column block to a full unitary.  The pseudoinverse, the square
root and the completion work on stacks of matrices (one LAPACK call per
stack: SVD, ``eigh`` and Householder QR), and their one-matrix forms are
stacks of one.  Stages over a whole stack walk it in :func:`blocks`.

The thresholds are three module constants, used by every check and never
stored with a tree or read from a file.  ``TOL_RANK`` (1e-10) is the rank
policy: an eigenvalue or singular value counts as nonzero iff it exceeds
``TOL_RANK`` times the largest one, the same relative rule everywhere so that
rank decisions made by different operations on the same operator agree.
``TOL_CHECK`` (1e-9) bounds the Frobenius residuals of the acceptance checks
on unit-scale operators: Hermiticity, positivity, completeness, factorization
and leaf reconstruction.  ``TOL_UNITARY`` (1e-10) bounds ``|V^dag V - I|_F``
of unitaries and isometries.

All functions are pure; returned arrays are fresh and never alias inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, VerificationError

TOL_RANK = 1e-10
TOL_CHECK = 1e-9
TOL_UNITARY = 1e-10

# bytes of d x d complex matrices that a stage walking a stack takes per block
_BLOCK_BYTES = 64 * 1024


def blocks(n: int, d: int):
    """Consecutive slices covering ``range(n)``, each of at most ``_BLOCK_BYTES`` of d x d matrices.

    A block always holds at least one matrix, so a level that fits is one block.
    """
    step = max(1, _BLOCK_BYTES // (16 * d * d))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a fresh 2-D complex array, rejecting NaN/Inf entries."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {m.ndim} dimensions")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def rank_mask(singular_values: np.ndarray) -> np.ndarray:
    """Which singular values count as nonzero: those above ``TOL_RANK`` times the largest.

    ``singular_values`` holds descending values along its last axis, one row
    per matrix of a stack.  A row whose largest value is zero keeps none.
    """
    s = np.asarray(singular_values, dtype=float)
    return s > TOL_RANK * s[..., :1]


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}", what="shape")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order and matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """V diag(w) V^dag."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def _order_ties(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within runs of exactly equal eigenvalues, order eigenvectors lexicographically.

    Comparison is by the first differing coordinate, real part before
    imaginary part.  Near-degenerate (but unequal) values keep eigensolver
    order.
    """
    i = 0
    n = values.size
    while i < n:
        j = i
        while j < n and values[j] == values[i]:
            j += 1
        if j - i > 1:
            cols = sorted(
                range(i, j),
                key=lambda c: tuple((vectors[r, c].real, vectors[r, c].imag) for r in range(vectors.shape[0])),
            )
            vectors[:, i:j] = vectors[:, cols]
        i = j
    return values, vectors


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with a reproducible ordering.

    Eigenvalues come out descending.  Each eigenvector's largest-magnitude
    component is made real positive; exact eigenvalue ties are broken by
    lexicographic order of the phase-fixed eigenvectors.

    Raises
    ------
    ValidationError
        ``what="shape"`` if the matrix is not square, ``"hermiticity"`` if
        ``|A - A^dag|_F`` exceeds ``TOL_CHECK``.
    """
    m = as_complex_matrix(a)
    _require_square(m)
    residual = frobenius(m - m.conj().T)
    if residual > TOL_CHECK:
        raise ValidationError(f"matrix is not Hermitian, |A - A^dag|_F = {residual:.3e}",
                              what="hermiticity", residual=residual)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = _fix_phases(v[:, order])
    w, v = _order_ties(w, v)
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_from_upper(a: np.ndarray) -> np.ndarray:
    """Make each matrix of a stack Hermitian from its upper triangle, in place; returns ``a``.

    The diagonal's imaginary part becomes ``+0.0`` and each lower entry
    ``(re, 0.0 - im)`` of its upper mirror, so a zero imaginary part is
    ``+0.0`` below the diagonal whatever its sign above.  The result is a
    function of the upper triangle and the real diagonal alone, which is
    all a tree file stores of an element.
    """
    for r in range(a.shape[-1]):
        a.imag[..., r, r] = 0.0
        upper, lower = a[..., r, r + 1:], a[..., r + 1:, r]
        np.copyto(lower.real, upper.real)
        np.subtract(0.0, upper.imag, out=lower.imag)
    return a


def svd_inverse(a: np.ndarray):
    """Pseudoinverses, kernel maps and ranks of a stack of matrices, one SVD each.

    For each ``a = U S W^dag`` with the rank mask of :func:`rank_mask`,
    returns ``pinv = W diag(1/s on the mask) U^dag``, the map
    ``null = W diag(1 off the mask) U^dag`` and the rank.  For a square
    matrix ``null`` carries the co-kernel basis u_j onto the kernel basis
    w_j, so ``null @ a = 0`` and ``null^dag null = I - a a^+``.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = rank_mask(s)
    w, uh = adjoint(vh), adjoint(u)
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = (w * inverse[..., None, :]) @ uh
    null = (w * ~keep[..., None, :]) @ uh
    return pinv, null, keep.sum(axis=-1)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``TOL_RANK`` times the largest are
    treated as exact zeros, inverting the operator on its numerical support
    only.  Satisfies all four Penrose axioms to machine precision.
    """
    m = as_complex_matrix(a)
    return svd_inverse(m[None])[0][0]


def psd_sqrt_stack(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square roots of a stack of matrices, one stacked ``eigh`` per block.

    Eigenvalues below ``TOL_RANK`` times the largest of the same matrix
    are truncated to exact zero (the module rank policy); without this,
    square-rooting an exactly rank-deficient operator would amplify
    eigenvalue dust above the rank threshold and poison every later rank
    decision made on the result.

    Raises
    ------
    ValidationError
        ``what="hermiticity"`` if some ``|A - A^dag|_F`` exceeds
        ``TOL_CHECK``, ``"positivity"`` (the eigenvalue as ``residual``)
        if some matrix has an eigenvalue below ``-TOL_CHECK * |A|_F``;
        ``index`` is the first such matrix's position in the stack.
    """
    roots = np.empty(a.shape, dtype=complex)
    for rows in blocks(len(a), a.shape[-1]):
        b = a[rows]
        asymmetry = np.linalg.norm(b - adjoint(b), axis=(-2, -1))
        bad = np.flatnonzero(asymmetry > TOL_CHECK)
        if bad.size:
            r = asymmetry[bad[0]]
            raise ValidationError(f"matrix is not Hermitian, |A - A^dag|_F = {r:.3e}",
                                  what="hermiticity", residual=r, index=rows.start + int(bad[0]))
        w, v = np.linalg.eigh((b + adjoint(b)) / 2)
        floor = -TOL_CHECK * np.linalg.norm(b, axis=(-2, -1))
        bad = np.flatnonzero(w[:, 0] < floor)
        if bad.size:
            r = w[bad[0], 0]
            raise ValidationError(f"matrix is not positive semidefinite, min eigenvalue = {r:.3e}",
                                  what="positivity", residual=r, index=rows.start + int(bad[0]))
        top = np.maximum(w[:, -1:], 0.0)
        w = np.where(w > TOL_RANK * top, w, 0.0)
        s = (v * np.sqrt(w)[:, None, :]) @ adjoint(v)
        roots[rows] = (s + adjoint(s)) / 2
    return roots


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root, computed spectrally; see :func:`psd_sqrt_stack`.

    Raises
    ------
    ValidationError
        ``what="shape"`` if the matrix is not square, otherwise as
        :func:`psd_sqrt_stack`.
    """
    m = as_complex_matrix(a)
    _require_square(m)
    return psd_sqrt_stack(m[None])[0]


def complete_to_unitary_stack(blocks, limit: float = TOL_UNITARY) -> np.ndarray:
    """Complete each n x k block of orthonormal columns of a stack to an n x n unitary.

    ``blocks`` has shape ``(m, n, k)``; the result has shape ``(m, n, n)``.
    One stacked Householder QR (``mode="complete"``) gives each block an
    orthonormal basis whose last n - k columns span the complement of the
    block's columns; the given columns are then copied over the first k
    (bit-identical), so only the complement comes from the QR.

    Raises
    ------
    ValueError
        If an entry is not finite.
    VerificationError
        ``what="shape"`` if the blocks have more columns than rows;
        ``what="completeness"``, naming the first failing block by
        ``index``, if ``|B^dag B - I|_F`` exceeds ``limit``: ``TOL_UNITARY``
        for an isometry, ``TOL_CHECK`` where the Gram matrix is a
        completeness sum (:func:`povmtree.dilation.dilate_level`).
    """
    b = np.asarray(blocks, dtype=complex)
    if b.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got {b.ndim} dimensions")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix entries must be finite")
    n, k = b.shape[1:]
    if k > n:
        raise VerificationError(f"block has more columns ({k}) than rows ({n})", what="shape")
    gram_residual = np.linalg.norm(adjoint(b) @ b - np.eye(k), axis=(-2, -1))
    bad = np.flatnonzero(gram_residual > limit)
    if bad.size:
        r = gram_residual[bad[0]]
        raise VerificationError(f"columns are not orthonormal (residual {r:.3e})",
                                what="completeness", residual=r, index=int(bad[0]))
    u = np.linalg.qr(b, mode="complete")[0]
    u[..., :k] = b
    return u


def complete_to_unitary(block) -> np.ndarray:
    """Complete an n x k block of orthonormal columns to an n x n unitary.

    A stack of one over :func:`complete_to_unitary_stack`: the given columns
    are copied into the result verbatim (bit-identical), and the remaining
    n - k columns are an orthonormal basis of their complement, taken from a
    complete Householder QR of the block.

    Raises
    ------
    ValueError
        If the block is not a 2-D matrix of finite entries.
    VerificationError
        As :func:`complete_to_unitary_stack`.
    """
    return complete_to_unitary_stack(as_complex_matrix(block)[None], TOL_UNITARY)[0]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
