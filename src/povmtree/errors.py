"""Exception types shared across the package: a base and one class per command-line exit code.

``exit_code`` is 1 for input that fails validation (:class:`ValidationError`,
also a ``ValueError``), 2 for a file or request that cannot be parsed
(:class:`ParseError`), and 3 for a construction identity of a tree, pair or
extension that does not hold (:class:`VerificationError`).

Every error carries the keyword fields ``what`` (the check that failed),
``residual`` (how far it missed), ``index`` (the failing element, unitary or
block of a stack), ``path`` (the probe-outcome bitstring of the failing
node) and ``field`` (the file field that failed to parse), each ``None``
where it does not apply.  The message starts with ``element j: `` or
``node 'x': `` and ends with ``(field 'f')`` when those are given.

``what`` is one of:

- validation: ``"shape"`` and ``"finiteness"`` (of every matrix from outside),
  ``"hermiticity"``, ``"positivity"``, ``"trace"`` (also a post-state's), ``"unitarity"``,
  ``"completeness"`` (of a POVM's elements, or ranks that cannot reach it),
  ``"partition"`` and ``"range"`` (an entry above 2, a basis index, shot count or rank);
- parsing: ``"dimensions"`` (a cost request), else ``None``;
- verification: ``"shape"``; ``"completeness"`` (orthonormal columns: the
  completeness of a Kraus pair or of the Neumark rows) and ``"dilation
  unitarity"`` (of a completed unitary, where it is built); ``"children sum"``
  and ``"factorization"`` (checks of :func:`povmtree.tree.split_node`);
  ``"operator sum"`` (at the root only: the elements' sum) and ``"leaf
  reconstruction"`` (checks that :func:`povmtree.tree.verify` raises, first
  failure first, and ``load_tree`` through it; compile checks a supplied
  factorization's leaves by the same rule).
"""

from __future__ import annotations


class PovmTreeError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1

    def __init__(self, message: str, *, what: str | None = None, residual: float | None = None,
                 index: int | None = None, path: str | None = None,
                 field: str | None = None) -> None:
        if index is not None:
            message = f"element {index}: {message}"
        elif path is not None:
            message = f"node '{path}': {message}"
        if field is not None:
            message = f"{message} (field '{field}')"
        super().__init__(message)
        self.what = what
        self.residual = None if residual is None else float(residual)
        self.index = index
        self.path = path
        self.field = field


class ValidationError(PovmTreeError, ValueError):
    """A POVM, state, unitary or shape that is not valid input.

    Also a ``ValueError``, so code that catches bad input as one still does.
    """


class ParseError(PovmTreeError):
    """A file or request that cannot be parsed."""

    exit_code = 2


class VerificationError(PovmTreeError):
    """A construction identity of a tree, pair or extension does not hold."""

    exit_code = 3
