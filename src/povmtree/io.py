"""File formats for POVMs, states, and compiled trees.

POVM and state files are JSON.  Complex entries are stored as two-element
``[real, imaginary]`` arrays.  Floats go through Python's shortest round-trip
representation, so serialize/deserialize reproduces every matrix bit-exactly.

A tree file (``tree-v7``) stores only a tree's independent data.  Its first
line is a JSON header of scalars, without tolerances (a file is judged by the
constants of :mod:`povmtree.linalg`), with ``labels`` only for caller labels.
The leaf order follows as N little-endian int64, then the padded POVM, each
element as its d^2 real Hermitian parameters in little-endian float64: the
real diagonal, then the upper off-diagonal entries as (re, im) pairs in
row-major order, then the raw little-endian complex128 Kraus pairs level by
level (``tree.kraus``).  So ``8 N + 8 d^2 (5N - 4)`` bytes follow the header,
all exact.  The parameters are ``Povm.params`` as the POVM holds them, so
they are written and read back as they are.  The loader reads each array
straight into the buffer the tree keeps, checks the structure (the order as
a permutation of 0..N-1), and runs :func:`povmtree.tree.verify` before it
returns the tree.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .errors import ParseError, VerificationError
from .linalg import ENTRY_BOUND, _frozen
from .povm import Povm, default_labels, validate
from .records import Rows
from .simulator import QuantumState
from .tree import MeasurementTree, is_permutation, node_checks, node_path, verify

POVM_FORMAT = "povmtree/povm-v1"
STATE_FORMAT = "povmtree/state-v1"
TREE_FORMAT = "povmtree/tree-v7"

_BLOB_DTYPE = np.dtype("<c16")
_PARAMETER_DTYPE = np.dtype("<f8")
_ORDER_DTYPE = np.dtype("<i8")

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
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
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
        "labels": list(p.labels),
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
    if n_original != p.n_outcomes:  # default labels stay "j" past n_original, as a tuple
        p = Povm(dim=p.dim, params=p.params, labels=tuple(p.labels), n_original=n_original)
    return elements, p


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

    Padding is written as exact zeros and both file formats store it exactly,
    so its parameters are compared exactly.
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


def _povm(data: dict, dim: int, params: np.ndarray) -> Povm:
    n = len(params)
    labels = data.get("labels", ())
    if "labels" in data and not (isinstance(labels, list) and len(labels) == n
                                 and all(isinstance(x, str) for x in labels)):
        raise ParseError(f"must be a list of {n} strings", field="labels")
    n_original = _n_original(data, params)
    # the elements are checked against the Kraus pairs by verify()
    return Povm(dim=dim, params=params, n_original=n_original,
                labels=tuple(labels) if "labels" in data else default_labels(n, n_original))


def _verified(tree: MeasurementTree) -> MeasurementTree:
    """``tree``, once :func:`povmtree.tree.verify` passes on it.

    Otherwise raises for the first failing node, breadth first with the
    leaves last, naming its first failing check in column order.  Only that
    node's row of the report is built, to name its path.
    """
    report = verify(tree)
    bad = np.flatnonzero(~report.node_columns["ok"])
    if bad.size:
        i = int(bad[0])
        what, residual = next((what, r[i]) for what, r, passed
                              in node_checks(report.node_columns) if not passed[i])
        path = report.nodes[i].path
    else:
        bad = np.flatnonzero(~report.leaf_columns["ok"])
        if not bad.size:
            return tree
        i = int(bad[0])
        what, residual = "leaf reconstruction", report.leaf_columns["residual"][i]
        path = node_path(tree.depth, i)
    raise VerificationError(f"{what} check failed, residual {residual:.3e}", what=what,
                            residual=residual, path=path)


def save_tree(tree: MeasurementTree, path) -> None:
    """Write ``tree`` as ``tree-v7``: one JSON header line, then the arrays.

    ``tree.order`` is written as int64, then ``tree.povm.params`` and each
    level of ``tree.kraus`` as they are held, without a copy.
    """
    p = tree.povm
    header = {
        "format": TREE_FORMAT,
        "dimension": p.dim,
        "n_outcomes": p.n_outcomes,
        "depth": tree.depth,
        **({} if isinstance(p.labels, Rows) else {"labels": list(p.labels)}),
        "n_original": p.n_original,
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        for (_, _, dtype), a in zip(_blobs(p.dim, tree.depth), (tree.order, p.params, *tree.kraus)):
            handle.write(np.ascontiguousarray(a, dtype=dtype))  # a no-op on a little-endian host


def _read_header(handle) -> tuple[dict, int, int]:
    """The checked JSON header on the first line of a tree file, its dimension and depth."""
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
    depth = _int_field(header, "depth", 0)
    n = _int_field(header, "n_outcomes", 1)
    # compare bit lengths first, so a huge depth is not shifted out
    if n.bit_length() - 1 != depth or n != 1 << depth:
        raise ParseError(f"n_outcomes {n} is not 2**depth for depth {depth}", field="depth")
    if not line.endswith(b"\n"):
        raise ParseError("the header line has no terminating newline", field="header")
    return header, dim, depth


def _blobs(dim: int, depth: int):
    """Field name, shape and dtype of each array of a tree file, in file order.

    The elements' shape is that of their parameters, one row of d^2 each.
    """
    yield "order", (1 << depth,), _ORDER_DTYPE
    yield "elements", (1 << depth, dim * dim), _PARAMETER_DTYPE
    for level in range(depth):
        yield f"kraus[{level}]", (1 << level, 2, dim, dim), _BLOB_DTYPE


def _read_arrays(handle, dim: int, depth: int) -> list[np.ndarray]:
    """The arrays that follow the header, each read into its own read-only buffer.

    Every byte count is checked before any array is allocated, so a header
    that claims more data than the file holds costs nothing.  Each real and
    imaginary part of a float or complex array must lie within ``ENTRY_BOUND``.
    """
    blobs = list(_blobs(dim, depth))
    available = os.fstat(handle.fileno()).st_size - handle.tell()
    for field, shape, dtype in blobs:
        need = math.prod(shape) * dtype.itemsize
        if available < need:
            raise ParseError(f"blob holds {available} bytes, expected {need} for shape {shape}",
                             field=field)
        available -= need
    if available:
        raise ParseError(f"the file has {available} bytes after the last blob")
    arrays = []
    for field, shape, dtype in blobs:
        a = np.empty(shape, dtype=dtype)
        got = handle.readinto(a)
        if got != a.nbytes:  # the file shrank after its size was checked
            raise ParseError(f"blob holds {got} bytes, expected {a.nbytes} for shape {shape}",
                             field=field)
        parts = a.view(_PARAMETER_DTYPE)  # real and imaginary parts side by side
        # no arithmetic, so nothing overflows; a nan fails both comparisons
        if dtype.kind in "fc" and not (-ENTRY_BOUND <= parts.min() and parts.max() <= ENTRY_BOUND):
            raise ParseError(f"array has an entry whose real or imaginary part is not finite and "
                             f"within {ENTRY_BOUND:g} of zero", field=field)
        arrays.append(_frozen(a.astype(dtype.newbyteorder("="), copy=False)))  # a no-op on little-endian
    return arrays


def load_tree(path) -> MeasurementTree:
    """Read, check and verify a ``tree-v7`` file.

    Each blob is read into the array the tree keeps, so the file is never
    held twice, and only once every blob's byte count has been checked.
    The elements' parameters are read straight into ``Povm.params``, so
    ``load_tree(save_tree(t))`` returns ``t``'s arrays bit for bit.

    Raises
    ------
    ParseError
        In the order checked: a header line longer than ``_HEADER_LIMIT``
        bytes or not one JSON object (an indented JSON file too); a format
        other than ``tree-v7`` (a one-line file of an older format names it:
        recompile it from its POVM file); ``n_outcomes`` other than
        ``2**depth``; a header line without its newline; a blob shorter
        than its shape needs, or bytes after the last blob; an array entry
        whose real or imaginary part is not finite or exceeds 2 in
        magnitude; ``order`` not a permutation of the outcomes; ``labels``,
        when present, not one string per outcome; or ``n_original`` marking
        a nonzero element as padding.
    VerificationError
        If the rebuilt tree fails :func:`povmtree.tree.verify`: ``path``
        names the first failing node, breadth first with the leaves last,
        and ``what`` and ``residual`` its first failing check in the
        report's column order (``"completeness"`` for a pair that is not
        complete, ``"leaf reconstruction"`` at a leaf).
    """
    with open(path, "rb") as handle:
        header, dim, depth = _read_header(handle)
        order, params, *kraus = _read_arrays(handle, dim, depth)
    if not is_permutation(order, 1 << depth):
        raise ParseError(f"must be a permutation of 0..{(1 << depth) - 1}", field="order")
    povm = _povm(header, dim, params)
    return _verified(MeasurementTree(povm=povm, order=order, kraus=tuple(kraus)))
