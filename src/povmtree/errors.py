"""Exception types shared across the package, each with its command-line exit code.

``exit_code`` is 1 for input that fails validation (the default), 2 for a
file or request that cannot be parsed, and 3 for a :class:`VerificationError`.
"""

from __future__ import annotations


class PovmTreeError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class VerificationError(PovmTreeError):
    """A construction identity of a tree, pair or extension fails."""

    exit_code = 3


class NotSquareError(PovmTreeError):
    def __init__(self, shape: tuple[int, ...]) -> None:
        super().__init__(f"expected a square matrix, got shape {shape}")
        self.shape = tuple(shape)


class NotHermitianError(PovmTreeError):
    def __init__(self, residual: float, index: int | None = None) -> None:
        where = f"element {index}: " if index is not None else ""
        super().__init__(f"{where}matrix is not Hermitian, |A - A^dag|_F = {residual:.3e}")
        self.residual = float(residual)
        self.index = index


class NotPsdError(PovmTreeError):
    def __init__(self, min_eigenvalue: float, index: int | None = None) -> None:
        where = f"element {index}: " if index is not None else ""
        super().__init__(
            f"{where}matrix is not positive semidefinite, min eigenvalue = {min_eigenvalue:.3e}"
        )
        self.min_eigenvalue = float(min_eigenvalue)
        self.index = index


class NotIsometryError(VerificationError):
    def __init__(self, message: str, residual: float | None = None) -> None:
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class InvalidStateError(PovmTreeError, ValueError):
    """A density matrix that is not Hermitian, not of unit trace, or not positive semidefinite.

    Also a ``ValueError``, so code that catches a bad state as one still does.
    """


class NotUnitaryError(PovmTreeError):
    def __init__(self, residual: float, index: int | None = None) -> None:
        where = f"unitary {index}: " if index is not None else ""
        super().__init__(f"{where}matrix is not unitary, |V^dag V - I|_F = {residual:.3e}")
        self.residual = float(residual)
        self.index = index


class IncompleteSumError(PovmTreeError):
    def __init__(self, residual: float) -> None:
        super().__init__(f"POVM elements do not sum to identity, |sum - I|_F = {residual:.3e}")
        self.residual = float(residual)


class DimensionMismatchError(PovmTreeError):
    """Shapes or counts that do not fit together; ``index`` names the element, if one."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class InconsistentChildrenError(VerificationError):
    def __init__(self, residual: float, path: str | None = None) -> None:
        where = f"node '{path}': " if path is not None else ""
        super().__init__(
            f"{where}child operators do not sum to the parent operator, residual {residual:.3e}"
        )
        self.residual = float(residual)
        self.path = path


class CompletenessViolationError(VerificationError):
    """Constructed pair fails its completeness or factorization post-check.

    Usually signals a numerical-rank misjudgment in the parent operator.
    """

    def __init__(self, residual: float, path: str | None = None, what: str = "completeness") -> None:
        where = f"node '{path}': " if path is not None else ""
        super().__init__(f"{where}{what} post-check failed, residual {residual:.3e}")
        self.residual = float(residual)
        self.path = path
        self.what = what


class TreeVerificationError(VerificationError):
    """A tree, typically one read from a file, fails a construction identity.

    ``path`` names the failing node's probe-outcome bitstring, ``what`` the
    check, ``residual`` how far it missed.
    """

    def __init__(self, residual: float, path: str, what: str) -> None:
        super().__init__(f"node '{path}': {what} check failed, residual {residual:.3e}")
        self.residual = float(residual)
        self.path = path
        self.what = what


class NotCompleteError(VerificationError):
    def __init__(self, residual: float) -> None:
        super().__init__(
            f"Kraus pair is not complete, |b0^dag b0 + b1^dag b1 - I|_F = {residual:.3e}"
        )
        self.residual = float(residual)


class InvalidDimensionsError(PovmTreeError):
    exit_code = 2


class ParseError(PovmTreeError):
    exit_code = 2

    def __init__(self, message: str, field: str | None = None) -> None:
        if field is not None:
            message = f"{message} (field '{field}')"
        super().__init__(message)
        self.field = field
