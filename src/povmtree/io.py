"""File formats for POVMs, states, and compiled trees.

POVM and state files are JSON.  Complex entries are stored as two-element
``[real, imaginary]`` arrays.  Floats go through Python's shortest round-trip
representation, so serialize/deserialize reproduces every matrix bit-exactly.

A tree file (``tree-v13``) holds a tree's independent data: a compact JSON
header line of scalars (``labels`` only for caller labels, no tolerances: a
file is judged by the constants of :mod:`povmtree.linalg`), the leaf order
``tree.order`` as ``n_original`` little-endian unsigned integers of the
narrowest width w of 1, 2, 4 or 8 bytes that holds ``n_original - 1``, then
the little-endian float64 words that ``tree.povm.params`` and ``tree.levels``
hold: the ``n_original`` elements' d^2 parameters each, then level by level
the Kraus pairs of the level's real prefix (:func:`povmtree.tree.real_counts`,
the depth being ``(n_original - 1).bit_length()``), b0 then b1: on the last
level their real and imaginary parts, above it, where blocks are upper
triangular with real diagonals, their d^2 parameters laid out as an
element's.  Each word's low seven bytes follow the order, and its top byte,
the sign and seven high exponent bits, goes into one raw deflate stream
(window 2**9) that ends the file: ``w n_original + 7 W`` bytes, then the
stream, for the ``W = d^2 (n_original + 2 K' + 4 K)`` words of K' pairs
above the last level and K on it.  The loader reads the words into the
arrays a tree holds, checks the order and runs :func:`povmtree.tree.verify`.
It allocates under 2.5 times the file's bytes.

A POVM file holds its elements and, for caller labels, one label each.  A
file whose ``n_original`` is not its element count was written with zero
padding by an older writer, and is refused, as is a POVM or state file
with a ``format`` other than its own; one without ``format`` is read.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from typing import Any

import numpy as np

from .errors import ParseError
from .linalg import ENTRY_BOUND, _frozen
from .povm import Povm, default_labels, validate
from .records import Rows
from .simulator import QuantumState
from .tree import MeasurementTree, is_permutation, level_shapes, verify

POVM_FORMAT = "povmtree/povm-v1"
STATE_FORMAT = "povmtree/state-v1"
TREE_FORMAT = "povmtree/tree-v13"

_PARAMETER_DTYPE = np.dtype("<f8")

# Top bytes take a few values within ENTRY_BOUND and have no repeats worth
# searching for: Huffman codes alone deflate them to about a fifth of a byte,
# and this window and memLevel keep zlib's state near 20 KB (defaults: 256 KB).
_WBITS, _MEM_LEVEL = -9, 5
_CHUNK = 1 << 13  # words copied or decoded at a time

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
    }


def povm_from_dict(data: dict) -> Povm:
    return povm_record(data)[1]


def povm_record(data: dict) -> tuple[list[np.ndarray], Povm]:
    """The elements of a POVM record as stored, and their :class:`Povm`."""
    if data.get("format", POVM_FORMAT) != POVM_FORMAT:
        raise ParseError(f"must be {POVM_FORMAT!r}, got {data['format']!r}", field="format")
    dim = _int_field(data, "dimension", 1)
    raw = _require(data, "elements")
    if not isinstance(raw, list) or not raw:
        raise ParseError("elements must be a non-empty list", field="elements")
    if "n_original" in data and _int_field(data, "n_original", 1) != len(raw):
        raise ParseError(f"differs from the {len(raw)} elements: a file written with zero padding; "
                         "delete its zero elements, their labels and n_original", field="n_original")
    elements = [decode_matrix(m, f"elements[{j}]") for j, m in enumerate(raw)]
    for j, m in enumerate(elements):
        if m.shape != (dim, dim):
            raise ParseError(f"element {j} has shape {m.shape}, expected ({dim}, {dim})",
                             field=f"elements[{j}]")
    if not isinstance(data.get("labels", []), (list, type(None))):  # entries are taken by str()
        raise ParseError("must be a list of labels or null", field="labels")
    return elements, validate(elements, labels=data.get("labels"))


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
    if data.get("format", STATE_FORMAT) != STATE_FORMAT:
        raise ParseError(f"must be {STATE_FORMAT!r}, got {data['format']!r}", field="format")
    dim = _int_field(data, "dimension", 1)
    rho = decode_matrix(_require(data, "density"), "density")
    if rho.shape != (dim, dim):
        raise ParseError(f"density has shape {rho.shape}, expected ({dim}, {dim})", field="density")
    return QuantumState(rho)  # an invalid density raises ValidationError


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


def _finite_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParseError(f"must be a finite number, got {value!r}", field=field)
    return float(value)


def _povm(data: dict, params: np.ndarray) -> Povm:
    k = len(params)
    labels = data.get("labels")
    if "labels" in data and not (isinstance(labels, list) and len(labels) == k
                                 and all(isinstance(x, str) for x in labels)):
        raise ParseError(f"must be a list of {k} strings", field="labels")
    # the elements are checked against the Kraus pairs by verify()
    return Povm(params=params, labels=tuple(labels) if "labels" in data else default_labels(k))


def save_tree(tree: MeasurementTree, path) -> None:
    """Write ``tree`` as ``tree-v13``: the header, ``tree.order``, then the words it holds, ``_CHUNK`` at a time."""
    p = tree.povm
    header = {"format": TREE_FORMAT, "dimension": p.dim,
              **({} if isinstance(p.labels, Rows) else {"labels": list(p.labels)}),
              "n_original": p.n_outcomes}
    order, *floats = (np.ascontiguousarray(a, dtype=dtype)  # no copy on a little-endian host
                      for (_, _, dtype), a in zip(_blobs(p.dim, p.n_outcomes), (tree.order, p.params, *tree.levels)))
    runs = [run for a in floats for run in _runs(a)]
    deflate = zlib.compressobj(wbits=_WBITS, memLevel=_MEM_LEVEL, strategy=zlib.Z_HUFFMAN_ONLY)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        handle.write(order)  # then the low seven bytes of each word, then the stream of the top bytes
        handle.writelines(np.ndarray(len(run), "V7", run, strides=(8,)).tobytes() for run in runs)
        handle.writelines(deflate.compress(run[:, 7].tobytes()) for run in runs)
        handle.write(deflate.flush())


def _runs(a: np.ndarray) -> list[np.ndarray]:
    """The words of ``a`` in runs of ``_CHUNK``, rows of 8 bytes."""
    words = a.reshape(-1).view(np.uint8).reshape(-1, 8)
    return [words[start:start + _CHUNK] for start in range(0, len(words), _CHUNK)]


def _read_header(handle) -> tuple[dict, int, int]:
    """The checked JSON header on the first line of a tree file, its dimension and ``n_original``."""
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
        raise ParseError(f"unsupported tree format {fmt!r}, expected {TREE_FORMAT!r}: "
                         "compile the tree again from its POVM file", field="format")
    dim = _int_field(header, "dimension", 1)
    n_original = _int_field(header, "n_original", 1)
    size = os.fstat(handle.fileno()).st_size
    if n_original > size:  # an order entry takes at least a byte
        raise ParseError(f"an order of {n_original} outcomes cannot fit in the file's {size} bytes", field="n_original")
    if not line.endswith(b"\n"):
        raise ParseError("the header line has no terminating newline", field="header")
    return header, dim, n_original


def _blobs(dim: int, n_original: int) -> list[tuple]:
    """Field name, shape and dtype of each array of a tree file, in file order: the order, a row an
    outcome; the elements, d^2 parameters a row; each Kraus level as a tree holds it (``tree.level_shapes``)."""
    return [("order", (n_original,), np.min_scalar_type(n_original - 1).newbyteorder("<")),
            ("elements", (n_original, dim * dim), _PARAMETER_DTYPE),
            *((f"kraus[{i}]", shape, _PARAMETER_DTYPE) for i, shape in enumerate(level_shapes(n_original, dim)))]


def _read_arrays(handle, blobs) -> list[np.ndarray]:
    """The read-only arrays of ``blobs``, once the file's size is checked to hold their raw bytes, the
    order's and seven of each word's eight, so an array holds 8/7 of its raw bytes (the ``intp`` order
    8/w), whatever the header claims.  Every word must lie within ``ENTRY_BOUND``."""
    available = os.fstat(handle.fileno()).st_size - handle.tell()
    for field, shape, dtype in blobs:
        need = math.prod(shape) * dtype.itemsize * (7 if dtype.kind == "f" else 8) // 8
        if available < need:
            raise ParseError(f"blob holds {available} bytes, expected {need} for shape {shape}", field=field)
        available -= need
    arrays = [np.zeros(shape, dtype=dtype) for _, shape, dtype in blobs]
    runs = [run for a in arrays[1:] for run in _runs(a)]
    handle.readinto(arrays[0])
    inflate, total, done, start = zlib.decompressobj(wbits=_WBITS), sum(map(len, runs)), 0, handle.tell()
    handle.seek(start + 7 * total)  # the stream, after the low bytes
    data = handle.read(total + total // 8 + 64)  # more than zlib's stream of ``total`` bytes takes
    trailing = os.fstat(handle.fileno()).st_size - handle.tell()
    handle.seek(start)
    low = memoryview(bytearray(7 * max(map(len, runs)) + 1))
    try:
        for run in runs:
            handle.readinto(low[:7 * len(run)])  # word i: the 8 bytes at 7 i, its top byte overwritten below
            run.view("<u8")[:, 0] = np.ndarray(len(run), dtype="<u8", buffer=low, strides=(7,))
            top = b"" if inflate.eof else inflate.decompress(data, len(run))
            data = inflate.unconsumed_tail
            run[:len(top), 7] = np.frombuffer(top, dtype=np.uint8)
            done += len(top)
        done += len(b"" if inflate.eof else inflate.decompress(data, 1))  # a word more, for the stream not to fill
    except zlib.error as err:
        raise ParseError(f"not a deflate stream: {err}", field="stream") from err
    trailing += len(inflate.unused_data)
    if (done, inflate.eof, trailing) != (total, True, 0):
        raise ParseError(f"must decode to {total} top bytes and end the file: it decodes to "
                         f"{'more' if done > total else done}{'' if inflate.eof else ' and does not end'}, "
                         f"then {trailing} bytes follow", field="stream")
    for (field, *_), a in zip(blobs[1:], arrays[1:]):
        # no arithmetic, so nothing overflows; a nan fails both comparisons
        if not (-ENTRY_BOUND <= a.min() and a.max() <= ENTRY_BOUND):
            raise ParseError(f"array has an entry whose real or imaginary part is not finite and "
                             f"within {ENTRY_BOUND:g} of zero", field=field)
    return [_frozen(a.astype(np.intp if a.dtype.kind == "u" else a.dtype.newbyteorder("="), copy=False))
            for a in arrays]  # the order widened


def load_tree(path) -> MeasurementTree:
    """Read, check and verify a ``tree-v13`` file.

    The words are read in one pass into the arrays the tree holds, the stream decoded a chunk at a
    time, so the file is never held twice: ``load_tree(save_tree(t))`` holds ``t``'s words bit for bit.

    Raises
    ------
    ParseError
        In the order checked: a header line over ``_HEADER_LIMIT`` bytes or
        not one JSON object; a format other than ``tree-v13`` (named: an
        older file is recompiled from its POVM file); an ``n_original``
        whose order cannot fit in the file; a header line without its
        newline; a blob, in file order, whose raw bytes the file cannot
        hold; on ``stream``, a stream that is corrupt, decodes to fewer or
        more bytes than there are words, or does not end where the file
        does; an entry beyond ``ENTRY_BOUND``, per blob; ``order`` not a
        permutation of the outcomes; or ``labels`` not one string per outcome.
    VerificationError
        As :func:`povmtree.tree.verify` raises it: ``"operator sum"`` at the
        root, then the first failing pair or leaf in walk order, naming the node.
    """
    with open(path, "rb") as handle:
        header, dim, n_original = _read_header(handle)
        order, params, *levels = _read_arrays(handle, _blobs(dim, n_original))
    if not is_permutation(order, n_original):
        raise ParseError(f"must be a permutation of 0..{n_original - 1}", field="order")
    tree = MeasurementTree(povm=_povm(header, params), order=order, levels=tuple(levels))
    verify(tree)
    return tree
