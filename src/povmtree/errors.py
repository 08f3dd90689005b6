"""Exception types shared across the package."""

from __future__ import annotations


class PovmTreeError(Exception):
    """Base class for every error raised by this package."""


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


class NotIsometryError(PovmTreeError):
    def __init__(self, message: str, residual: float | None = None) -> None:
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


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


class InconsistentChildrenError(PovmTreeError):
    def __init__(self, residual: float, path: str | None = None) -> None:
        where = f"node '{path}': " if path is not None else ""
        super().__init__(
            f"{where}child operators do not sum to the parent operator, residual {residual:.3e}"
        )
        self.residual = float(residual)
        self.path = path


class CompletenessViolationError(PovmTreeError):
    """Constructed pair fails its completeness or factorization post-check.

    Usually signals a numerical-rank misjudgment in the parent operator.
    """

    def __init__(self, residual: float, path: str | None = None, what: str = "completeness") -> None:
        where = f"node '{path}': " if path is not None else ""
        super().__init__(f"{where}{what} post-check failed, residual {residual:.3e}")
        self.residual = float(residual)
        self.path = path
        self.what = what


class TreeVerificationError(PovmTreeError):
    """A tree, typically one read from a file, fails a construction identity.

    ``path`` names the failing node's probe-outcome bitstring, ``what`` the
    check, ``residual`` how far it missed.
    """

    def __init__(self, residual: float, path: str, what: str) -> None:
        super().__init__(f"node '{path}': {what} check failed, residual {residual:.3e}")
        self.residual = float(residual)
        self.path = path
        self.what = what


class NotCompleteError(PovmTreeError):
    def __init__(self, residual: float) -> None:
        super().__init__(
            f"Kraus pair is not complete, |b0^dag b0 + b1^dag b1 - I|_F = {residual:.3e}"
        )
        self.residual = float(residual)


class NotRankOneError(PovmTreeError):
    def __init__(self, index: int, rank: int) -> None:
        super().__init__(f"element {index} has rank {rank} > 1 and decomposition is disabled")
        self.index = index
        self.rank = rank


class InvalidDimensionsError(PovmTreeError):
    pass


class ParseError(PovmTreeError):
    def __init__(self, message: str, field: str | None = None) -> None:
        if field is not None:
            message = f"{message} (field '{field}')"
        super().__init__(message)
        self.field = field
