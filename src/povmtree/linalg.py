"""Dense complex linear-algebra kernel.

The pipeline (POVM validation, tree construction, dilation, simulation)
runs on three parts of this module: the spectral PSD roots of a stack, from
one ``eigh`` per block (:func:`psd_sqrt_stack`, with :func:`psd_parts` for a
root's pseudoinverse and kernel projector), the completion of a stack of
isometric column blocks to unitaries by one Householder QR
(:func:`complete_to_unitary_stack`), and the parameter layout:
:func:`hermitian_parameters` and :func:`hermitian_from_parameters` pack and
unpack Hermitian matrices as d^2 real parameters each, the form in which a
POVM holds and a tree file stores its elements.  Stages over a whole stack
walk it in :func:`blocks`.  The one-matrix forms :func:`psd_sqrt`,
:func:`pseudo_inverse`, :func:`complete_to_unitary` and
:func:`hermitian_eig` (eigenvalues descending, with a deterministic
eigenvector convention) serve callers with arbitrary input.

The thresholds are three module constants, used by every check and never
stored with a tree or read from a file.  ``TOL_RANK`` (1e-10) is the rank
policy, applied by :func:`rank_mask` alone: an eigenvalue or singular value
counts as nonzero iff it exceeds ``TOL_RANK`` times ``max(largest, 0)``, so
rank decisions made by different operations on the same operator agree.
``TOL_CHECK`` (1e-9) bounds the Frobenius residuals of the acceptance checks
on unit-scale operators: Hermiticity, positivity, completeness, factorization
and leaf reconstruction.  ``TOL_UNITARY`` (1e-10) bounds ``|V^dag V - I|_F``
of unitaries and isometries.

A matrix from outside is checked once, here: :func:`as_stack` decides shape,
finiteness and range, :func:`check_psd` Hermiticity and positivity, by one rule:
``|A - A^dag|_F <= TOL_CHECK`` and no eigenvalue of the Hermitian part below
the absolute floor ``-TOL_CHECK``.  :func:`hermitian_eig`, :func:`psd_sqrt`,
:func:`pseudo_inverse` and the completions check their input through them;
the kernels :func:`psd_sqrt_stack`, :func:`psd_parts` and :func:`svd_inverse`
check nothing, running on a validated :class:`povmtree.povm.Povm`'s elements
and sums.  Compilation takes each partial sum's root, pseudoinverse and
kernel from its one ``eigh`` (:func:`psd_parts`); the SVD of
:func:`svd_inverse` serves only the one-matrix API on arbitrary input.

All functions but :func:`check_psd` are pure; returned arrays are fresh and
never alias inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, VerificationError

TOL_RANK = 1e-10
TOL_CHECK = 1e-9
TOL_UNITARY = 1e-10

# bytes of d x d complex matrices that a stage walking a stack takes per block
_BLOCK_BYTES = 64 * 1024

# Bound on the entries of POVM elements, states and tree files, which keeps huge
# entries out of the checks' arithmetic: valid elements, states and pairs have
# entries of modulus at most 1, or sqrt(1 + TOL_CHECK) for a complete pair.
ENTRY_BOUND = 2.0


def _frozen(m: np.ndarray) -> np.ndarray:
    """Read-only ``m``; the caller owns it and never writes to it again."""
    m.setflags(write=False)
    return m


def _whole(x) -> bool:
    """Whether x is a Python or NumPy integer, not a ``bool``."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def blocks(n: int, d: int):
    """Consecutive slices covering ``range(n)``, each of at most ``_BLOCK_BYTES`` of d x d matrices.

    A block always holds at least one matrix, so a level that fits is one block.
    """
    step = max(1, _BLOCK_BYTES // (16 * d * d))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def as_stack(matrices, shape=None, bounded: bool = False) -> np.ndarray:
    """``matrices``, an ``(N, m, n)`` array or a sequence of matrices, as a complex array.

    Every matrix must have ``shape``, by default ``(d, d)`` with d the first
    matrix's row count.  The array is fresh if a conversion needs one, as a
    sequence always does.  Raises a :class:`ValidationError` for no
    matrices (``what="shape"``), or naming the first failing matrix by
    ``index``: one that is not a matrix of that shape or has a zero
    dimension (``"shape"``), or else
    one with an entry that is not finite (``"finiteness"``), or else, if
    ``bounded``, one with an entry of modulus above ``ENTRY_BOUND`` (``"range"``).
    """
    if not isinstance(matrices, np.ndarray):
        matrices = list(matrices)
    if not len(matrices):
        raise ValidationError("got no matrices", what="shape")
    # the rows of an array share one shape, so its first row stands for all
    for j, m in enumerate(matrices[:1] if isinstance(matrices, np.ndarray) else matrices):
        try:
            found = np.shape(m)
        except ValueError as err:  # rows of unequal length
            raise ValidationError(f"is not a matrix: {err}", what="shape", index=j) from err
        if len(found) != 2:
            raise ValidationError(f"has {len(found)} dimensions, expected a matrix",
                                  what="shape", index=j)
        if 0 in found:
            raise ValidationError(f"has shape {found}, expected no zero dimension",
                                  what="shape", index=j)
        shape = (found[0], found[0]) if shape is None else tuple(shape)
        if found != shape:
            raise ValidationError(f"has shape {found}, expected {shape}", what="shape", index=j)
    stack = np.asarray(matrices, dtype=complex)
    if not np.isfinite(stack).all():
        raise ValidationError("has an entry that is not finite", what="finiteness",
                              index=int(np.argmin(np.isfinite(stack).all(axis=(1, 2)))))
    if bounded:
        for rows in blocks(len(stack), stack.shape[-1]):
            big = (np.abs(stack[rows]) > ENTRY_BOUND).any(axis=(1, 2))  # squares nothing
            if big.any():
                raise ValidationError(f"has an entry of modulus above {ENTRY_BOUND:g}",
                                      what="range", index=rows.start + int(np.argmax(big)))
    return stack


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def rank_mask(values: np.ndarray) -> np.ndarray:
    """Which values count as nonzero: those above ``TOL_RANK`` times ``max(largest, 0)``.

    ``values`` holds the eigenvalues or singular values of each matrix of a
    stack along its last axis, in any order.  This is the one rank rule of
    the package: a row whose largest value is at most zero keeps none.
    """
    v = np.asarray(values, dtype=float)
    return v > TOL_RANK * np.maximum(v.max(axis=-1, keepdims=True), 0.0)


def is_dust(m: np.ndarray) -> np.ndarray:
    """Which matrices of a stack count as zero: Frobenius norm at most ``TOL_RANK``.

    For a contraction, such as a parent of :func:`povmtree.tree.split_node`,
    that is dust which :func:`rank_mask` alone would judge full rank.
    """
    return np.linalg.norm(m, axis=(-2, -1)) <= TOL_RANK


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order and matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """V diag(w) V^dag."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _asymmetry(a: np.ndarray, a_dag: np.ndarray) -> np.ndarray:
    """The Hermiticity residual ``|A - A^dag|_F`` of each matrix of a stack, given its adjoint."""
    r = (a - a_dag).view(float)
    return np.sqrt(np.add.reduce(r * r, axis=(-2, -1)))


def check_psd(stack: np.ndarray, first: int = 0) -> np.ndarray:
    """Check each matrix of a square stack for Hermiticity and positivity; returns ``stack``.

    Writes each matrix's Hermitian part ``(M + M^dag)/2`` over it, block by
    block, so the caller passes a copy it owns.  Raises a
    :class:`ValidationError` naming the first failing matrix by ``index``,
    counted from ``first``:
    ``what="hermiticity"`` if ``|M - M^dag|_F`` exceeds ``TOL_CHECK``, else
    ``"positivity"`` (the eigenvalue as ``residual``) if its Hermitian part
    has an eigenvalue below ``-TOL_CHECK``.
    """
    for rows in blocks(len(stack), stack.shape[-1]):
        block = stack[rows]
        block_dag = adjoint(block)
        residual = _asymmetry(block, block_dag)
        block += block_dag
        block /= 2
        min_eig = np.linalg.eigvalsh(block)[:, 0]
        worst = np.maximum(residual, -min_eig)  # both bounds are TOL_CHECK
        if worst.max() > TOL_CHECK:
            j = int(np.argmax(worst > TOL_CHECK))
            r, at = residual[j], first + rows.start + j
            if r > TOL_CHECK:
                raise ValidationError(f"matrix is not Hermitian, |A - A^dag|_F = {r:.3e}",
                                      what="hermiticity", residual=r, index=at)
            raise ValidationError(
                f"matrix is not positive semidefinite, negative eigenvalue {min_eig[j]:.3e}",
                what="positivity", residual=min_eig[j], index=at)
    return stack


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with a reproducible ordering.

    Eigenvalues come out descending.  Each eigenvector's largest-magnitude
    component is made real positive; exact eigenvalue ties are broken by
    lexicographic order of the phase-fixed eigenvectors (row by row, real part
    before imaginary); unequal near-ties keep the eigensolver's order.

    Raises
    ------
    ValidationError
        As :func:`as_stack` for a stack of one square matrix, or
        ``what="hermiticity"`` if ``|A - A^dag|_F`` exceeds ``TOL_CHECK``.
    """
    m = as_stack([a])
    _raise_first(_asymmetry(m, adjoint(m)), "hermiticity", "matrix is not Hermitian, |A - A^dag|_F = {:.3e}",
                 TOL_CHECK, path=lambda i: None, error=ValidationError)
    w, v = np.linalg.eigh((m[0] + m[0].conj().T) / 2)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    pivot = v[np.argmax(np.abs(v), axis=0), range(len(w))]  # nonzero: the columns are unit vectors
    v *= pivot.conj() / np.abs(pivot)
    # by run of exactly equal eigenvalues, then row 0's real part, its imaginary part, row 1's, ...
    run = np.cumsum(np.r_[True, w[1:] != w[:-1]])
    v = v[:, np.lexsort([*np.stack([v.real, v.imag], 1).reshape(-1, len(w))[::-1], run])]
    return EigenDecomposition(eigenvalues=_frozen(w), eigenvectors=_frozen(v))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


@functools.cache
def _layout(d: int):
    """Read-only index arrays of the parameter layout of d x d matrices, as float views.

    ``pick`` holds the float of a matrix behind each parameter.  ``take``
    holds, for each float of a matrix, its place in a parameter row
    followed by the row's upper imaginary parts negated, then a zero.
    """
    rows, cols = np.triu_indices(d, 1)
    diagonal, upper, lower = np.arange(d) * (d + 1), rows * d + cols, cols * d + rows
    pick = np.concatenate([2 * diagonal, np.stack([2 * upper, 2 * upper + 1], -1).ravel()])
    take = np.full(2 * d * d, d * d + len(rows))  # the diagonal's imaginary parts: the zero
    take[pick] = np.arange(d * d)
    take[2 * lower], take[2 * lower + 1] = take[2 * upper], d * d + np.arange(len(rows))
    return _frozen(pick), _frozen(take)


def hermitian_parameters(a: np.ndarray) -> np.ndarray:
    """The d^2 real parameters of each matrix of a ``(k, d, d)`` complex stack, one fresh row each.

    The real diagonal, then each upper off-diagonal entry as a (re, im)
    pair in row-major order: what a tree file stores of an element, and
    how :class:`povmtree.povm.Povm` holds it.  The lower triangle and the
    diagonal's imaginary part are not read.
    """
    k, d = a.shape[:2]
    return a.view(float).reshape(k, 2 * d * d)[:, _layout(d)[0]]


def hermitian_from_parameters(params: np.ndarray) -> np.ndarray:
    """The Hermitian matrices of ``(k, d^2)`` parameter rows, as one fresh ``(k, d, d)`` array.

    The inverse of :func:`hermitian_parameters`, one gather per call.  The
    diagonal's imaginary part is ``+0.0`` and each lower entry
    ``(re, 0.0 - im)`` of its upper mirror, so a zero imaginary part is
    ``+0.0`` below the diagonal whatever its sign above.
    """
    k, n = params.shape
    d = math.isqrt(n)
    source = np.empty((k, n + (n - d) // 2 + 1))
    source[:, :n] = params
    np.subtract(0.0, params[:, d + 1 :: 2], out=source[:, n:-1])
    source[:, -1] = 0.0
    a = np.empty((k, d, d), dtype=complex)
    np.take(source, _layout(d)[1], axis=1, out=a.view(float).reshape(k, 2 * n), mode="clip")
    return a


def svd_inverse(a: np.ndarray):
    """Pseudoinverses and kernel maps of a stack of matrices, one SVD each.

    For each ``a = U S W^dag`` with the rank mask of :func:`rank_mask`,
    returns ``pinv = W diag(1/s on the mask) U^dag`` and the map
    ``null = W diag(1 off the mask) U^dag``.  For a square matrix ``null``
    carries the co-kernel basis u_j onto the kernel basis w_j, so
    ``null @ a = 0`` and ``null^dag null = I - a a^+``.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = rank_mask(s)
    w, uh = adjoint(vh), adjoint(u)
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = (w * inverse[..., None, :]) @ uh
    null = (w * ~keep[..., None, :]) @ uh
    return pinv, null


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``TOL_RANK`` times the largest are
    treated as exact zeros, inverting the operator on its numerical support
    only.  Satisfies all four Penrose axioms to machine precision.  Takes a
    finite matrix of any shape, checked by :func:`as_stack`.
    """
    return svd_inverse(as_stack([a], np.shape(a)))[0][0]


def _root(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hermitian ``V diag(sqrt w) V^dag`` of each matrix of a stack."""
    s = (v * np.sqrt(w)[..., None, :]) @ adjoint(v)
    s += adjoint(s)
    s /= 2
    return s


def psd_sqrt_stack(a: np.ndarray, keep=None) -> np.ndarray:
    """Hermitian PSD square roots of a stack of matrices, one stacked ``eigh`` per block.

    A kernel that checks nothing: each matrix is exactly Hermitian and
    passes :func:`check_psd`, as a validated POVM's elements and their sums
    do.  Eigenvalues off :func:`rank_mask`, negative dust included, are
    truncated to exact zero; without this, square-rooting an exactly
    rank-deficient operator would amplify eigenvalue dust above the rank
    threshold and poison every later rank decision made on the result.
    ``keep``, arrays ``(vectors, values)`` as long as ``a``, takes each
    truncated decomposition, for :func:`psd_parts`.
    """
    roots = np.empty(a.shape, dtype=complex)
    for rows in blocks(len(a), a.shape[-1]):
        w, v = np.linalg.eigh(a[rows])
        w = np.where(rank_mask(w), w, 0.0)
        roots[rows] = _root(v, w)
        if keep is not None:
            keep[0][rows], keep[1][rows] = v, w
    return roots


def psd_parts(v: np.ndarray, w: np.ndarray):
    """Root R (bit for bit as :func:`psd_sqrt_stack`'s), ``R^+`` and kernel projector g.

    From each ``(V, w)`` that :func:`psd_sqrt_stack` keeps: ``V diag(f) V^dag``
    with f ``sqrt w``, ``w^-1/2`` where ``w > 0`` and 1 where ``w = 0``.
    """
    kept = w > 0
    inverse = np.divide(1.0, np.sqrt(w), out=np.zeros_like(w), where=kept)
    return _root(v, w), (v * inverse[..., None, :]) @ adjoint(v), (v * ~kept[..., None, :]) @ adjoint(v)


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root, computed spectrally; see :func:`psd_sqrt_stack`.

    Raises a :class:`ValidationError` as :func:`as_stack`, then
    :func:`check_psd`, do for a stack of one square matrix.
    """
    return psd_sqrt_stack(check_psd(as_stack([a])))[0]


def isometry_residuals(x: np.ndarray) -> np.ndarray:
    """``|X^dag X - I|_F`` of each n x k matrix of a stack, per block: the isometry residual."""
    k = x.shape[-1]
    residuals = np.empty(len(x))
    for rows in blocks(len(x), k):
        residuals[rows] = np.linalg.norm(adjoint(x[rows]) @ x[rows] - np.eye(k), axis=(-2, -1))
    return residuals


def _unitarity_residuals(u: np.ndarray, k: int) -> np.ndarray:
    """``|U^dag U - I|_F`` of each n x n matrix of a stack outside its leading k x k block."""
    n = u.shape[-1]
    squares = np.zeros(len(u))
    width = max(1, 8 * _BLOCK_BYTES // (16 * n))  # rows of U^dag U a band: 512 KiB, not n x n
    for rows in blocks(len(u), n):
        for c in range(0, n, width):
            band = adjoint(u[rows, :, c : c + width]) @ u[rows]  # rows c.. of U^dag U
            band[:, range(band.shape[1]), range(c, c + band.shape[1])] -= 1.0
            band[:, : max(0, k - c), :k] = 0.0
            squares[rows] += np.einsum("...ij,...ij->...", band.view(float), band.view(float))
            del band  # before the next band is made
    return np.sqrt(squares)


def _raise_first(residuals: np.ndarray, what: str, text: str, limit: float, path=None,
                 error=VerificationError) -> None:
    """Raise an ``error`` for the first residual above ``limit`` or not a number, if any.

    Its message is ``text`` formatted with the residual; it names the residual's
    position i by ``index``, or by ``path(i)`` if ``path`` is given.
    """
    bad = np.flatnonzero(~(residuals <= limit))
    if bad.size:
        i = int(bad[0])
        raise error(text.format(residuals[i]), what=what, residual=residuals[i],
                    **({"index": i} if path is None else {"path": path(i)}))


def complete_to_unitary_stack(blocks, limit: float = TOL_UNITARY) -> np.ndarray:
    """Complete each n x k block of orthonormal columns of a stack to an n x n unitary.

    ``blocks`` has shape ``(m, n, k)``; the result has shape ``(m, n, n)``.
    One stacked Householder QR (``mode="complete"``) gives each block an
    orthonormal basis whose last n - k columns span the complement of the
    block's columns; the given columns are then copied over the first k
    (bit-identical), so only the complement comes from the QR.  Each
    unitary is checked as it is built: ``|U^dag U - I|_F`` outside the k x k
    Gram block, which the isometry check judges, must be at most
    ``TOL_UNITARY``.  Only a faulty QR fails this: a Householder complement
    is orthonormal, and orthogonal to the given columns, to rounding.

    Raises
    ------
    ValidationError
        As :func:`as_stack`, if ``blocks`` is not a stack of finite matrices.
    VerificationError
        ``what="shape"`` if the blocks have more columns than rows; else,
        naming the first failing block by ``index``, ``"completeness"`` if
        ``|B^dag B - I|_F`` exceeds ``limit`` (``TOL_CHECK`` where it is a
        completeness sum, as in :func:`povmtree.dilation.dilate_level`), or
        ``"dilation unitarity"`` if its unitary fails the check above.
    """
    b = as_stack(blocks, np.shape(blocks)[1:])
    n, k = b.shape[1:]
    if k > n:
        raise VerificationError(f"block has more columns ({k}) than rows ({n})", what="shape")
    _raise_first(isometry_residuals(b), "completeness",
                 "columns are not orthonormal (residual {:.3e})", limit)
    u = np.linalg.qr(b, mode="complete")[0]
    u[..., :k] = b
    _raise_first(_unitarity_residuals(u, k), "dilation unitarity",
                 "completion is not unitary (residual {:.3e})", TOL_UNITARY)
    return u


def complete_to_unitary(block) -> np.ndarray:
    """Complete an n x k block of orthonormal columns to an n x n unitary.

    A stack of one over :func:`complete_to_unitary_stack`, raising as it:
    the given columns are copied into the result verbatim (bit-identical),
    and the remaining n - k columns are an orthonormal basis of their
    complement, taken from a complete Householder QR of the block.
    """
    return complete_to_unitary_stack([block])[0]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix) of an integer dim >= 1."""
    if not (_whole(dim) and dim >= 1):
        raise ValidationError(f"random unitary needs an integer dim >= 1, got {dim!r}", what="range")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
