"""File formats for POVMs, states, and compiled trees.

POVM and state files are JSON.  Complex entries are stored as two-element
``[real, imaginary]`` arrays.  Floats go through Python's shortest round-trip
representation, so serialize/deserialize reproduces every matrix bit-exactly.

A tree file (``tree-v9``) stores only a tree's independent data.  Its first
line is a compact JSON header of scalars, without tolerances (a file is judged
by the constants of :mod:`povmtree.linalg`), with ``labels`` only for caller
labels; N is ``2**depth``, depth ``(n_original - 1).bit_length()``.  The leaf
order follows as N little-endian unsigned integers of the narrowest width w
of 1, 2, 4 or 8 bytes that holds N - 1, then the ``n_original`` real
elements, each as its d^2 real Hermitian parameters in little-endian float64:
the real diagonal, then the upper off-diagonal entries as (re, im) pairs in
row-major order.  Then come the raw little-endian complex128 Kraus pairs
level by level (``tree.kraus``), of each level's real prefix only
(:func:`povmtree.tree.real_counts`): padding is the tail of the leaf order,
so it costs no bytes, its elements being zero and an all-padding node's
pair the constant :func:`povmtree.tree.padding_pair`.  So ``w N + 8 d^2
n_original + 32 d^2 K`` bytes follow the header, all exact, for K pairs
kept; without padding, ``w N + 8 d^2 (5N - 4)``.  The parameters are
``Povm.params`` as held, so they are written and read back as they are.
The loader reads each array into the buffer the tree keeps, filling in the
padding, checks the order (:func:`povmtree.tree.is_leaf_order`), and runs
:func:`povmtree.tree.verify`.  With
``2**(depth - 1) < n_original`` no more than half of the elements or pairs
are filled in, and the ``intp`` order takes 8/w times its stored bytes, 8 N
< 16 n_original: the loader allocates under 2.3 times the file's bytes.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import ENTRY_BOUND, _frozen
from .povm import Povm, default_labels, validate
from .records import Rows
from .simulator import QuantumState
from .tree import MeasurementTree, is_leaf_order, padding_pair, real_counts, verify

POVM_FORMAT = "povmtree/povm-v1"
STATE_FORMAT = "povmtree/state-v1"
TREE_FORMAT = "povmtree/tree-v9"

_BLOB_DTYPE = np.dtype("<c16")
_PARAMETER_DTYPE = np.dtype("<f8")

# Longest accepted header line: room for the caller labels of about a
# million outcomes (the header holds no other list), and a bound on what a
# file that is not a tree file makes the loader read.
_HEADER_LIMIT = 16 << 20


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def decode_matrix(obj: Any, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError("matrix must be a non-empty list of rows", field=field)
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ParseError("matrix rows must be lists of equal length", field=field)
        width = len(row)
        entries = []
        for entry in row:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ParseError(
                    "matrix entries must be [real, imaginary] pairs", field=field
                )
            entries.append(complex(*(_finite_float(x, field) for x in entry)))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _require(mapping: dict, key: str) -> Any:
    if key not in mapping:
        raise ParseError("missing required field", field=key)
    return mapping[key]


def load_json(path) -> dict:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: byte {err.start} is {raw[err.start:err.start + 1]!r}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    return data


def povm_to_dict(p: Povm) -> dict:
    return {
        "format": POVM_FORMAT,
        "dimension": p.dim,
        "elements": [encode_matrix(m) for m in p.elements],
        **({} if isinstance(p.labels, Rows) else {"labels": list(p.labels)}),
        "n_original": p.n_original,
    }


def povm_from_dict(data: dict) -> Povm:
    return povm_record(data)[1]


def povm_record(data: dict) -> tuple[list[np.ndarray], Povm]:
    """The elements of a POVM record as stored, and the :class:`Povm` validated from them."""
    dim = _int_field(data, "dimension", 1)
    raw = _require(data, "elements")
    if not isinstance(raw, list) or not raw:
        raise ParseError("elements must be a non-empty list", field="elements")
    elements = [decode_matrix(m, f"elements[{j}]") for j, m in enumerate(raw)]
    for j, m in enumerate(elements):
        if m.shape != (dim, dim):
            raise ParseError(f"element {j} has shape {m.shape}, expected ({dim}, {dim})",
                             field=f"elements[{j}]")
    if not isinstance(data.get("labels", []), (list, type(None))):  # entries are taken by str()
        raise ParseError("must be a list of labels or null", field="labels")
    p = validate(elements, labels=data.get("labels"))
    n_original = _n_original(data, p.params) if "n_original" in data else p.n_outcomes
    labels = default_labels(p.n_outcomes, n_original) if isinstance(p.labels, Rows) else p.labels
    return elements, Povm(dim=p.dim, params=p.params, labels=labels, n_original=n_original)


def save_povm(p: Povm, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(povm_to_dict(p), handle, indent=1)


def load_povm(path) -> Povm:
    return povm_from_dict(load_json(path))


def state_to_dict(state: QuantumState) -> dict:
    return {
        "format": STATE_FORMAT,
        "dimension": state.dim,
        "density": encode_matrix(state.density),
    }


def state_from_dict(data: dict) -> QuantumState:
    dim = _int_field(data, "dimension", 1)
    rho = decode_matrix(_require(data, "density"), "density")
    if rho.shape != (dim, dim):
        raise ParseError(
            f"density has shape {rho.shape}, expected ({dim}, {dim})", field="density"
        )
    try:
        return QuantumState(rho)
    except ValueError as err:  # not Hermitian, not unit trace, or not positive
        raise ParseError(str(err), field="density") from err


def save_state(state: QuantumState, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state_to_dict(state), handle, indent=1)


def load_state(path) -> QuantumState:
    return state_from_dict(load_json(path))


def _int_field(data: dict, key: str, low: int) -> int:
    value = _require(data, key)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ParseError(f"must be an integer >= {low}, got {value!r}", field=key)
    return value


def _n_original(data: dict, params: np.ndarray) -> int:
    """The ``n_original`` field, once it fits the outcome count and every padding element is zero.

    Padding is written as exact zeros and a POVM file stores it exactly, so
    its parameters are compared exactly.
    """
    n_original = _int_field(data, "n_original", 1)
    if n_original > len(params):
        raise ParseError(f"exceeds the {len(params)} outcomes", field="n_original")
    if params[n_original:].any():
        raise ParseError("an element at or past it is not zero padding", field="n_original")
    return n_original


def _finite_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParseError(f"must be a finite number, got {value!r}", field=field)
    return float(value)


def _povm(data: dict, dim: int, params: np.ndarray, n_original: int) -> Povm:
    n = len(params)
    labels = data.get("labels", ())
    if "labels" in data and not (isinstance(labels, list) and len(labels) == n
                                 and all(isinstance(x, str) for x in labels)):
        raise ParseError(f"must be a list of {n} strings", field="labels")
    # the elements are checked against the Kraus pairs by verify()
    return Povm(dim=dim, params=params, n_original=n_original,
                labels=tuple(labels) if "labels" in data else default_labels(n, n_original))


def save_tree(tree: MeasurementTree, path) -> None:
    """Write ``tree`` as ``tree-v9``: one JSON header line, then the arrays.

    ``tree.order`` is written at its narrowest width, then, as they are held,
    without a copy, the rows of ``tree.povm.params`` below ``n_original`` and,
    level by level, the pairs of ``tree.kraus`` in the level's real prefix.
    The rest is padding: zero rows, and pairs that :func:`povmtree.tree.verify`
    requires to be :func:`povmtree.tree.padding_pair`.

    Raises
    ------
    ValidationError
        ``what="range"`` for a tree padded past the least power of two, as
        a POVM of zero elements marked padding can be: a file's depth
        follows from ``n_original``, so it could not describe the tree.
    """
    p = tree.povm
    if (p.n_original - 1).bit_length() != tree.depth:
        raise ValidationError(f"{p.n_original} outcomes are padded to 2**{tree.depth}, past the least "
                              f"power of two", what="range")
    header = {"format": TREE_FORMAT, "dimension": p.dim,
              **({} if isinstance(p.labels, Rows) else {"labels": list(p.labels)}),
              "n_original": p.n_original}
    arrays = (tree.order, p.params, *tree.kraus)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        for (_, _, dtype, stored), a in zip(_blobs(p.dim, tree.depth, p.n_original), arrays):
            handle.write(np.ascontiguousarray(a[:stored], dtype=dtype))  # a no-op on a little-endian host


def _read_header(handle) -> tuple[dict, int, int, int]:
    """The checked JSON header on the first line of a tree file, its dimension, depth and ``n_original``."""
    line = handle.readline(_HEADER_LIMIT + 1)
    if len(line) > _HEADER_LIMIT:
        raise ParseError(f"header line exceeds {_HEADER_LIMIT} bytes", field="header")
    try:
        header = json.loads(line)
    except ValueError:  # not JSON, or not UTF-8
        header = None
    if not isinstance(header, dict):
        raise ParseError("the first line is not a JSON object", field="header")
    fmt = header.get("format")
    if fmt != TREE_FORMAT:
        raise ParseError(f"unsupported tree format {fmt!r}, expected {TREE_FORMAT!r}",
                         field="format")
    dim = _int_field(header, "dimension", 1)
    n_original = _int_field(header, "n_original", 1)
    depth, size = (n_original - 1).bit_length(), os.fstat(handle.fileno()).st_size
    # compare bit lengths first, so a huge depth is not shifted out; an order
    # entry takes the fewest bytes that hold 2**depth - 1, as in _blobs
    if depth > size.bit_length() or np.min_scalar_type((1 << depth) - 1).itemsize << depth > size:
        raise ParseError(f"the order of 2**{depth} outcomes cannot fit in the file's {size} bytes",
                         field="n_original")
    if not line.endswith(b"\n"):
        raise ParseError("the header line has no terminating newline", field="header")
    return header, dim, depth, n_original


def _blobs(dim: int, depth: int, n_original: int) -> list[tuple]:
    """Field name, shape, dtype and stored rows of each array of a tree file, in file order.

    An array stores its first ``stored`` rows along its first axis, and
    every other row is padding.  The elements' shape is that of their
    parameters, one row of d^2 each; a Kraus level stores its real prefix
    (:func:`povmtree.tree.real_counts`).
    """
    n = 1 << depth
    return [("order", (n,), np.min_scalar_type(n - 1).newbyteorder("<"), n),
            ("elements", (n, dim * dim), _PARAMETER_DTYPE, n_original),
            *((f"kraus[{level}]", (1 << level, 2, dim, dim), _BLOB_DTYPE, real)
              for level, real in enumerate(real_counts(depth, n_original)[:depth]))]


def _read_arrays(handle, blobs) -> list[np.ndarray]:
    """The arrays of ``blobs`` that follow in the file, each read into its own read-only buffer.

    The stored bytes of every blob are checked against the file before any
    array is allocated.  No more than half the leaves are padding, so an
    array holds at most twice the bytes it stores, and the order, held as
    ``intp``, 8/w times: what is allocated is bounded by the file's size,
    whatever the header claims.  The rows not stored are padding: zero
    elements, and :func:`povmtree.tree.padding_pair` at a Kraus level.  Each
    real and imaginary part of a float or complex array must lie within
    ``ENTRY_BOUND``.
    """
    available = os.fstat(handle.fileno()).st_size - handle.tell()
    for field, shape, dtype, stored in blobs:
        need = stored * math.prod(shape[1:]) * dtype.itemsize
        if available < need:
            raise ParseError(f"blob holds {available} bytes, expected {need} for shape {shape}",
                             field=field)
        available -= need
    arrays = []
    for field, shape, dtype, stored in blobs:
        a = np.zeros(shape, dtype=dtype)
        if dtype == _BLOB_DTYPE:
            a[stored:] = padding_pair(shape[-1])
        got = handle.readinto(a[:stored])
        if got != a[:stored].nbytes:  # the file shrank after its size was checked
            raise ParseError(f"blob holds {got} bytes, expected {a[:stored].nbytes}", field=field)
        parts = a.view(_PARAMETER_DTYPE) if dtype.kind in "fc" else a  # real and imaginary parts side by side
        # no arithmetic, so nothing overflows; a nan fails both comparisons
        if dtype.kind in "fc" and not (-ENTRY_BOUND <= parts.min() and parts.max() <= ENTRY_BOUND):
            raise ParseError(f"array has an entry whose real or imaginary part is not finite and "
                             f"within {ENTRY_BOUND:g} of zero", field=field)
        native = np.intp if dtype.kind == "u" else dtype.newbyteorder("=")  # else a no-op on little-endian
        arrays.append(_frozen(a.astype(native, copy=False)))
    return arrays


def load_tree(path) -> MeasurementTree:
    """Read, check and verify a ``tree-v9`` file.

    Which rows each blob stores follows from the header alone, so all are
    read in one pass, once their byte counts are checked, each into the
    array the tree keeps (the order then widened to ``intp``): the file is
    never held twice.  Padding rows and pairs are filled in as the constants
    that ``compile_tree`` writes, so ``load_tree(save_tree(t))`` returns
    ``t``'s arrays bit for bit.

    Raises
    ------
    ParseError
        In the order checked: a header line longer than ``_HEADER_LIMIT``
        bytes or not one JSON object (an indented JSON file too); a format
        other than ``tree-v9`` (a one-line file of an older format names it:
        recompile it from its POVM file); an ``n_original`` whose order of
        ``2**depth`` entries cannot fit in the file, refused before ``1 <<
        depth`` is formed; a header line without its newline; a blob, in
        file order, shorter than its stored rows need; an array entry whose
        real or imaginary part is not finite or exceeds 2 in magnitude (per
        blob, as read); bytes after the last blob; ``order`` not a
        permutation with the padding last and in order
        (:func:`povmtree.tree.is_leaf_order`); or ``labels``, when present,
        not one string per outcome.
    VerificationError
        As :func:`povmtree.tree.verify` raises it for the rebuilt tree: the
        first failing check in walk order, naming the node's path
        (``"completeness"`` for a pair that is not complete, ``"leaf
        reconstruction"`` at a leaf).
    """
    with open(path, "rb") as handle:
        header, dim, depth, n_original = _read_header(handle)
        order, params, *kraus = _read_arrays(handle, _blobs(dim, depth, n_original))
        if trailing := os.fstat(handle.fileno()).st_size - handle.tell():
            raise ParseError(f"the file has {trailing} bytes after the last blob")
    if not is_leaf_order(order, n_original, 1 << depth):
        raise ParseError(f"must be a permutation of 0..{(1 << depth) - 1} with the padding, "
                         f"{n_original} on, last and in order", field="order")
    tree = MeasurementTree(povm=_povm(header, dim, params, n_original), order=order, kraus=tuple(kraus))
    verify(tree)
    return tree
