"""Dense complex linear-algebra kernel.

The pipeline (POVM validation, tree construction, simulation) runs on two
parts of this module: the spectral PSD roots of a stack, from one stacked
``eigh`` (:func:`psd_sqrt_stack`), and the parameter layout:
:func:`hermitian_parameters` and :func:`hermitian_from_parameters` pack and
unpack Hermitian matrices as d^2 real parameters each, the form in which a
POVM holds and a tree file stores its elements.  The one-matrix forms
:func:`psd_sqrt`, :func:`pseudo_inverse`, :func:`hermitian_eig`
(eigenvalues descending, with a deterministic eigenvector convention) and
:func:`complete_to_unitary` (one isometric column block to a unitary by one
Householder QR, behind every probe coupling) serve callers with arbitrary
input.

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
the absolute floor ``-TOL_CHECK``.  The one-matrix forms check their input
through them; the kernels :func:`psd_sqrt_stack` and :func:`svd_inverse`
check nothing, running on validated input.  Compilation
takes the roots of the elements and no decomposition of a partial sum
(:func:`povmtree.tree.compile_tree` factors the tree by QR); the SVD of
:func:`svd_inverse` serves only the one-matrix API on arbitrary input,
and the rank rule only the roots, that API, ``verify``'s rank column and
the rank-one pieces of :func:`povmtree.dilation.full_neumark`.

Memory follows one rule: the stage that walks the N elements or a tree
level cuts its stack into :func:`blocks` of at most 64 KiB of d x d
matrices, and a kernel (:func:`check_psd`, :func:`psd_sqrt_stack`,
:func:`isometry_residuals`) never cuts, taking the stack it is given in one
piece; only :func:`as_stack`'s range check cuts an outside stack itself.
All functions but :func:`check_psd` are pure; returned arrays are fresh and
never alias inputs.
"""

from __future__ import annotations

import functools
import math

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


def _numbers(a) -> np.ndarray | None:
    """``a`` as a complex array, or None if some entry is not a number."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        return None


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
    one with an entry that is not a finite number (``"finiteness"``), or else, if
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
    stack = _numbers(matrices)
    if stack is None:  # found on this path only: the first matrix with an entry that is not a number
        raise ValidationError("has an entry that is not a number", what="finiteness",
                              index=next(j for j, m in enumerate(matrices) if _numbers(m) is None))
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


def _asymmetry(a: np.ndarray, a_dag: np.ndarray) -> np.ndarray:
    """The Hermiticity residual ``|A - A^dag|_F`` of each matrix of a stack, given its adjoint."""
    r = (a - a_dag).view(float)
    return np.sqrt(np.add.reduce(r * r, axis=(-2, -1)))


def check_psd(stack: np.ndarray, first: int = 0) -> np.ndarray:
    """Check each matrix of a square stack for Hermiticity and positivity; returns ``stack``.

    Takes the stack in one piece, as a kernel does, and writes each
    matrix's Hermitian part ``(M + M^dag)/2`` over it, so the caller passes
    a copy it owns.  Raises a :class:`ValidationError` naming the first
    failing matrix by ``index``, counted from ``first``:
    ``what="hermiticity"`` if ``|M - M^dag|_F`` exceeds ``TOL_CHECK``, else
    ``"positivity"`` (the eigenvalue as ``residual``) if its Hermitian part
    has an eigenvalue below ``-TOL_CHECK``.
    """
    stack_dag = adjoint(stack)
    residual = _asymmetry(stack, stack_dag)
    stack += stack_dag
    stack /= 2
    min_eig = np.linalg.eigvalsh(stack)[:, 0]
    worst = np.maximum(residual, -min_eig)  # both bounds are TOL_CHECK
    if worst.max() > TOL_CHECK:
        j = int(np.argmax(worst > TOL_CHECK))
        r, at = residual[j], first + j
        if r > TOL_CHECK:
            raise ValidationError(f"matrix is not Hermitian, |A - A^dag|_F = {r:.3e}",
                                  what="hermiticity", residual=r, index=at)
        raise ValidationError(
            f"matrix is not positive semidefinite, negative eigenvalue {min_eig[j]:.3e}",
            what="positivity", residual=min_eig[j], index=at)
    return stack


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix with a reproducible ordering.

    Read-only eigenvalues w, descending, and eigenvector columns v, so
    ``(v * w) @ v.conj().T`` is the matrix.  Each eigenvector's largest-magnitude
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
    return _frozen(w), _frozen(v)


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


def psd_sqrt_stack(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square roots of a stack of matrices, from one stacked ``eigh``.

    A kernel that checks nothing and cuts nothing: the caller hands over
    the block it holds, of exactly Hermitian matrices that pass
    :func:`check_psd`, as a validated POVM's elements do.  Eigenvalues off
    :func:`rank_mask`, negative dust included, are truncated to exact zero,
    so the root of an exactly rank-deficient operator keeps its rank.
    """
    w, v = np.linalg.eigh(a)
    s = (v * np.sqrt(np.where(rank_mask(w), w, 0.0))[..., None, :]) @ adjoint(v)
    s += adjoint(s)
    s /= 2
    return s


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root, computed spectrally; see :func:`psd_sqrt_stack`.

    Raises a :class:`ValidationError` as :func:`as_stack`, then
    :func:`check_psd`, do for a stack of one square matrix.
    """
    return psd_sqrt_stack(check_psd(as_stack([a])))[0]


def isometry_residuals(x: np.ndarray) -> np.ndarray:
    """``|X^dag X - I|_F`` of each n x k matrix of a stack, in one piece: the isometry residual."""
    return np.linalg.norm(adjoint(x) @ x - np.eye(x.shape[-1]), axis=(-2, -1))


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


def complete_to_unitary(block, _limit: float = TOL_UNITARY, _path=None) -> np.ndarray:
    """Complete an n x k block of orthonormal columns to an n x n unitary.

    One Householder QR (``mode="complete"``) gives an orthonormal basis
    whose last n - k columns span the complement of the block's columns;
    the given columns are then copied over the first k (bit-identical), so
    only the complement comes from the QR.  The unitary is checked as it is
    built: ``|U^dag U - I|_F`` outside the k x k Gram block, which the
    isometry check judges, must be at most ``TOL_UNITARY``.  Only a faulty
    QR fails this: a Householder complement is orthonormal, and orthogonal
    to the given columns, to rounding.

    Raises
    ------
    ValidationError
        As :func:`as_stack`, if ``block`` is not a finite matrix.
    VerificationError
        ``what="shape"`` if the block has more columns than rows; else,
        naming the block as ``index`` 0 (by ``path=_path(0)`` if given),
        ``"completeness"`` if ``|B^dag B - I|_F`` exceeds ``TOL_UNITARY``
        (``TOL_CHECK`` for a Kraus pair's completeness sum, in
        :func:`povmtree.dilation.dilate_binary`), or ``"dilation unitarity"``
        if the unitary fails the check above.
    """
    b = as_stack([block], np.shape(block))
    n, k = b.shape[1:]
    if k > n:
        raise VerificationError(f"block has more columns ({k}) than rows ({n})", what="shape")
    _raise_first(isometry_residuals(b), "completeness",
                 "columns are not orthonormal (residual {:.3e})", _limit, _path)
    u = np.linalg.qr(b, mode="complete")[0]
    u[..., :k] = b
    defect = adjoint(u) @ u - np.eye(n)
    defect[..., :k, :k] = 0.0
    _raise_first(np.linalg.norm(defect, axis=(-2, -1)), "dilation unitarity",
                 "completion is not unitary (residual {:.3e})", TOL_UNITARY, _path)
    return u[0]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix) of an integer dim >= 1."""
    if not (_whole(dim) and dim >= 1):
        raise ValidationError(f"random unitary needs an integer dim >= 1, got {dim!r}", what="range")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
