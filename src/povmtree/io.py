"""File formats for POVMs, states, and compiled trees.

POVM and state files are JSON.  Complex entries are stored as two-element
``[real, imaginary]`` arrays.  Floats go through Python's shortest round-trip
representation, so serialize/deserialize reproduces every matrix bit-exactly.

A tree file (``tree-v10``) holds a tree's independent data: a compact JSON
header line of scalars (``labels`` only for caller labels, no tolerances: a
file is judged by the constants of :mod:`povmtree.linalg`), the leaf order as
N = 2**depth little-endian unsigned integers of the narrowest width w of 1, 2,
4 or 8 bytes that holds N - 1, depth being ``(n_original - 1).bit_length()``,
then little-endian float64 words: the ``n_original`` elements' d^2
parameters each, as ``Povm.params`` holds them, then level by level the real
and imaginary parts of the Kraus pairs of the level's real prefix
(:func:`povmtree.tree.real_counts`).  ``n_original`` is the tree's outcome
count.  The padding leaves exist only in the file's shape: the order's tail
``n_original..N-1`` and, with caller labels, the header's ``pad<j>``
labels, which the loader checks and drops; they cost no float words.  Each
word's low seven bytes follow the order, and its top byte, the sign and
seven high exponent bits, goes into one raw deflate stream (window 2**9)
that ends the file: ``w N + 7 W`` bytes, then the stream, for the ``W = d^2
n_original + 4 d^2 K`` words of K pairs kept.  The arrays are read as a tree
holds them; the loader checks the order and runs
:func:`povmtree.tree.verify`.  It allocates under 2.5 times the file's bytes.

A POVM file's ``n_original`` is its element count.  One written with
zero padding marks it by a smaller ``n_original``: the loader checks that
the elements from there on are zero and drops them with their labels.
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
from .tree import MeasurementTree, is_permutation, real_counts, verify

POVM_FORMAT = "povmtree/povm-v1"
STATE_FORMAT = "povmtree/state-v1"
TREE_FORMAT = "povmtree/tree-v10"

_BLOB_DTYPE = np.dtype("<c16")
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
        "n_original": p.n_outcomes,
    }


def povm_from_dict(data: dict) -> Povm:
    return povm_record(data)[1]


def povm_record(data: dict) -> tuple[list[np.ndarray], Povm]:
    """The elements of a POVM record as stored, less an old file's zero padding, and their :class:`Povm`."""
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
    if "n_original" not in data or (k := _n_original(data, p.params)) == p.n_outcomes:
        return elements, p
    # an old file's zero padding: dropped, with its labels
    labels = default_labels(k) if isinstance(p.labels, Rows) else p.labels[:k]
    return elements[:k], Povm(dim=p.dim, params=_frozen(p.params[:k].copy()), labels=labels)


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


def _padding_labels(k: int, n: int) -> list[str]:
    """The header labels of a tree file's padding leaves k..n-1, which only the file holds."""
    return [f"pad{j}" for j in range(k, n)]


def _povm(data: dict, dim: int, params: np.ndarray, n: int) -> Povm:
    k = len(params)
    labels = data.get("labels", ())
    if "labels" in data and not (isinstance(labels, list) and len(labels) == n
                                 and all(isinstance(x, str) for x in labels)
                                 and labels[k:] == _padding_labels(k, n)):
        raise ParseError(f"must be a list of {n} strings, 'pad<j>' from {k} on", field="labels")
    # the elements are checked against the Kraus pairs by verify()
    return Povm(dim=dim, params=params, labels=tuple(labels[:k]) if "labels" in data else default_labels(k))


def save_tree(tree: MeasurementTree, path) -> None:
    """Write ``tree`` as ``tree-v10``: the header line, the order, the words' low bytes, the stream.

    The order is ``tree.order`` and the padding leaves' tail; the words are
    those of ``tree.povm.params`` and of ``tree.kraus``, copied ``_CHUNK``
    at a time.
    """
    p, n = tree.povm, 1 << tree.depth
    header = {"format": TREE_FORMAT, "dimension": p.dim,
              **({} if isinstance(p.labels, Rows) else
                 {"labels": [*p.labels, *_padding_labels(p.n_outcomes, n)]}),
              "n_original": p.n_outcomes}
    leaf_order = np.concatenate([tree.order, np.arange(p.n_outcomes, n)])
    order, *floats = (np.ascontiguousarray(a, dtype=dtype)  # no copy on a little-endian host
                      for (_, _, dtype), a in zip(_blobs(p.dim, tree.depth, p.n_outcomes),
                                                  (leaf_order, p.params, *tree.kraus)))
    chunks = [c for a in floats for c in _words(a)]
    deflate = zlib.compressobj(wbits=_WBITS, memLevel=_MEM_LEVEL, strategy=zlib.Z_HUFFMAN_ONLY)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        handle.write(order)  # then the low seven bytes of each word, then the stream of the top bytes
        handle.writelines(np.ndarray(len(c), "V7", c, strides=(8,)).tobytes() for c in chunks)
        handle.writelines(deflate.compress(c[:, 7].tobytes()) for c in chunks)
        handle.write(deflate.flush())


def _words(a: np.ndarray) -> list[np.ndarray]:
    """The little-endian float64 words of a contiguous array as rows of 8 bytes, ``_CHUNK`` rows a view."""
    return [a.reshape(-1).view(np.uint8).reshape(-1, 8)[start:start + _CHUNK]
            for start in range(0, a.nbytes // 8, _CHUNK)]


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
    """Field name, shape and dtype of each array of a tree file, in file order, each stored whole.

    The order has a row per leaf, the elements one row of d^2 parameters
    per outcome, and a Kraus level is its real prefix
    (:func:`povmtree.tree.real_counts`).
    """
    n = 1 << depth
    return [("order", (n,), np.min_scalar_type(n - 1).newbyteorder("<")),
            ("elements", (n_original, dim * dim), _PARAMETER_DTYPE),
            *((f"kraus[{level}]", (real, 2, dim, dim), _BLOB_DTYPE)
              for level, real in enumerate(real_counts(depth, n_original)[:depth]))]


def _read_arrays(handle, blobs) -> list[np.ndarray]:
    """The read-only arrays of ``blobs``, once the file is checked to hold them.

    Their raw bytes, the order's and seven of each word's eight, are checked
    against the file's size first: an array then holds at most 16/7 times
    the raw bytes it stores, and the ``intp`` order 8/w times, whatever the
    header claims.  Every real and imaginary part must lie within ``ENTRY_BOUND``.
    """
    available = os.fstat(handle.fileno()).st_size - handle.tell()
    for field, shape, dtype in blobs:
        need = math.prod(shape) * dtype.itemsize * (7 if dtype.kind in "fc" else 8) // 8
        if available < need:
            raise ParseError(f"blob holds {available} bytes, expected {need} for shape {shape}",
                             field=field)
        available -= need
    arrays = [np.zeros(shape, dtype=dtype) for _, shape, dtype in blobs]
    chunks = [c for a in arrays[1:] for c in _words(a)]
    handle.readinto(arrays[0])  # a file that shrinks from here on is refused on its stream
    low = memoryview(bytearray(7 * max(map(len, chunks)) + 1))
    for c in chunks:  # word i: the 8 bytes at 7 i, its top byte overwritten below
        handle.readinto(low[:7 * len(c)])
        c.view("<u8")[:, 0] = np.ndarray(len(c), dtype="<u8", buffer=low, strides=(7,))
    inflate, total, done = zlib.decompressobj(wbits=_WBITS), sum(map(len, chunks)), 0
    data = handle.read(total + total // 8 + 64)  # more than zlib's stream of ``total`` bytes takes
    try:
        for c in [*chunks, np.zeros((1, 8), np.uint8)]:  # a word more, for the stream not to fill
            top = b"" if inflate.eof else inflate.decompress(data, len(c))
            data = inflate.unconsumed_tail
            c[:len(top), 7] = np.frombuffer(top, dtype=np.uint8)
            done += len(top)
    except zlib.error as err:
        raise ParseError(f"not a deflate stream: {err}", field="stream") from err
    trailing = len(inflate.unused_data) + os.fstat(handle.fileno()).st_size - handle.tell()
    if (done, inflate.eof, trailing) != (total, True, 0):
        raise ParseError(f"must decode to {total} top bytes and end the file: it decodes to "
                         f"{'more' if done > total else done}{'' if inflate.eof else ' and does not end'}, "
                         f"then {trailing} bytes follow", field="stream")
    for (field, *_), a in zip(blobs[1:], arrays[1:]):
        parts = a.view(_PARAMETER_DTYPE)  # real and imaginary parts side by side
        # no arithmetic, so nothing overflows; a nan fails both comparisons
        if not (-ENTRY_BOUND <= parts.min() and parts.max() <= ENTRY_BOUND):
            raise ParseError(f"array has an entry whose real or imaginary part is not finite and "
                             f"within {ENTRY_BOUND:g} of zero", field=field)
    return [_frozen(a.astype(np.intp if a.dtype.kind == "u" else a.dtype.newbyteorder("="), copy=False))
            for a in arrays]  # the order widened


def load_tree(path) -> MeasurementTree:
    """Read, check and verify a ``tree-v10`` file.

    The arrays are read in one pass into those the tree keeps, the stream
    decoded a chunk at a time, so the file is never held twice; the
    order's padding tail and padding labels are checked and dropped:
    ``load_tree(save_tree(t))`` returns ``t``'s arrays bit for bit.

    Raises
    ------
    ParseError
        In the order checked: a header line over ``_HEADER_LIMIT`` bytes or
        not one JSON object; a format other than ``tree-v10`` (named: an
        older file is recompiled from its POVM file); an ``n_original``
        whose order cannot fit in the file, before ``1 << depth`` is formed;
        a header line without its newline; a blob, in file order, whose raw
        bytes the file cannot hold; on ``stream``, a stream that is corrupt,
        decodes to fewer or more bytes than there are words, or does not end
        where the file does; an entry beyond ``ENTRY_BOUND``, per blob;
        ``order`` not a permutation with the padding last and in order; or
        ``labels`` not one string per leaf, ``pad<j>`` at padding leaf j.
    VerificationError
        As :func:`povmtree.tree.verify` raises it: ``"operator sum"`` at the
        root, then the first failing pair or leaf in walk order, naming the node.
    """
    with open(path, "rb") as handle:
        header, dim, depth, n_original = _read_header(handle)
        order, params, *kraus = _read_arrays(handle, _blobs(dim, depth, n_original))
    n = 1 << depth
    if not (is_permutation(order[:n_original], n_original)
            and np.array_equal(order[n_original:], np.arange(n_original, n))):
        raise ParseError(f"must be a permutation of 0..{n - 1} with the padding, "
                         f"{n_original} on, last and in order", field="order")
    tree = MeasurementTree(povm=_povm(header, dim, params, n), order=order[:n_original], kraus=tuple(kraus))
    verify(tree)
    return tree
