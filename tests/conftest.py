import json
import zlib

import numpy as np
import pytest

from povmtree import tetrad
from povmtree.io import encode_matrix, povm_to_dict

# While it reports a failing example, hypothesis imports libcst, which builds
# a mypy_extensions.TypedDict and so raises a DeprecationWarning.  Under the
# ini's filterwarnings = ["error"], or -W error on the command line, that
# warning ended the whole run with INTERNALERROR instead of a FAILED line.
# A filterwarnings mark outranks both, so every test ignores this one warning.
_IGNORE_TYPEDDICT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_IGNORE_TYPEDDICT)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tetrad_povm():
    return tetrad()


def frob(a):
    return float(np.linalg.norm(a))


# Each leaf's cumulative operator is its target m_j within 4.6e-15 in Frobenius
# norm, over the 300 near-null probe POVMs with d from 3 to 8; taken as
# 1e-14, which also covers the rounding of a reference's own m_j L.
LEAF_OPERATOR_ERROR = 1e-14


def hermitian_parameters(elements):
    """The tree-file parameters of an ``(N, d, d)`` Hermitian stack, one row of d^2 reals each.

    Per element: the real diagonal, then each upper off-diagonal entry as a
    (re, im) pair, row by row; written out entry by entry as the format
    documents it.
    """
    rows = []
    for m in elements:
        d = len(m)
        row = [m[r, r].real for r in range(d)]
        for r in range(d):
            for c in range(r + 1, d):
                row += [m[r, c].real, m[r, c].imag]
        rows.append(row)
    return np.array(rows, dtype="<f8").reshape(len(elements), -1)


def stored_pairs(order, n_original):
    """Per level, root first, which nodes' pairs a tree-v10 file stores: those with a real leaf.

    Leaf i is outcome ``order[i]``, padding when ``order[i] >= n_original``;
    a node's leaves are the 2**(depth - level) leaves below it.
    """
    real = np.asarray(order) < n_original
    levels = []
    while len(real) > 1:
        real = real.reshape(-1, 2).any(axis=1)
        levels.insert(0, real)
    return levels


def order_width(n_original):
    """Bytes per order entry of a tree-v10 file: the fewest of 1, 2, 4 or 8 that hold 2**depth - 1."""
    depth = (n_original - 1).bit_length()
    return next(w for w in (1, 2, 4, 8) if depth <= 8 * w)


def words(arrays):
    """The little-endian float64 words of a tree file's arrays, in file order, as ``(k, 8)`` bytes.

    The first array is the elements' parameters (float64), the rest Kraus
    pairs (complex128, real then imaginary part).
    """
    raw = b"".join(np.ascontiguousarray(a, dtype="<c16" if j else "<f8").tobytes()
                   for j, a in enumerate(arrays))
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8)


def deflate(data):
    """``data`` as a raw deflate stream whose back-references reach at most 2**9 bytes."""
    compressor = zlib.compressobj(wbits=-9)
    return compressor.compress(bytes(data)) + compressor.flush()


def save_padded_povm(p, n, path):
    """Write ``p`` as a povm-v1 file the way older writers padded it: n elements, the tail zero.

    ``"n_original"`` marks the ``p.n_outcomes`` real elements; caller labels
    go on with ``pad<j>`` for each zero element.
    """
    k, data = p.n_outcomes, povm_to_dict(p)  # its n_original is k
    data["elements"] += [encode_matrix(np.zeros((p.dim, p.dim)))] * (n - k)
    if "labels" in data:
        data["labels"] += [f"pad{j}" for j in range(k, n)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)


def read_tree_file(path):
    """Header, order and writable arrays of a tree-v10 file, read as the format documents it.

    The depth is ``(n_original - 1).bit_length()``.  The order is
    ``(2**depth,)`` little-endian unsigned integers of :func:`order_width`
    bytes, returned as int64.  The arrays are the parameters of the
    ``n_original`` real elements, ``(n_original, d*d)`` little-endian float64
    as :func:`hermitian_parameters` lays them out; then, for each level, the
    pairs of ``kraus[l]`` that :func:`stored_pairs` marks, ``(k, 2, d, d)``
    little-endian complex128 in C order.  After the order come the low seven
    bytes of each float64 word of the arrays (:func:`words`), in order, then
    a raw deflate stream that decodes to the top byte of each word and ends
    the file.
    """
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        raw = handle.read()
    d, n_original = header["dimension"], header["n_original"]
    width, leaves = order_width(n_original), 1 << (n_original - 1).bit_length()
    order = np.frombuffer(raw, dtype=f"<u{width}", count=leaves).astype("<i8")
    shapes = [("<f8", (n_original, d * d))]
    shapes += [("<c16", (int(kept.sum()), 2, d, d)) for kept in stored_pairs(order, n_original)]
    count = sum(int(np.prod(shape)) * np.dtype(dtype).itemsize // 8 for dtype, shape in shapes)
    offset = width * leaves
    stored = np.empty((count, 8), dtype=np.uint8)
    stored[:, :7] = np.frombuffer(raw, dtype=np.uint8, count=7 * count, offset=offset).reshape(-1, 7)
    inflate = zlib.decompressobj(wbits=-9)
    stored[:, 7] = np.frombuffer(inflate.decompress(raw[offset + 7 * count:]), dtype=np.uint8)
    assert inflate.eof and not inflate.unused_data
    arrays, offset = [], 0
    for dtype, shape in shapes:
        a = np.frombuffer(stored.tobytes(), dtype=dtype, count=int(np.prod(shape)), offset=offset)
        arrays.append(a.reshape(shape).copy())
        offset += a.nbytes
    return header, order, arrays


def write_tree_file(path, header, order, arrays, tail=b"", stream=None):
    """Write a tree-v10 file from a header, order and arrays as :func:`read_tree_file` returns them.

    The order is written at the width the header's ``n_original`` sets, each
    entry as its low bytes, so -1 is written as 255 at width 1.  The words'
    top bytes are deflated by :func:`deflate` with zlib's default settings,
    unless ``stream`` gives the bytes to write in their place; ``tail``
    bytes are appended.
    """
    stored = words(arrays)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        handle.write(np.asarray(order).astype(f"<u{order_width(header['n_original'])}").tobytes())
        handle.write(stored[:, :7].tobytes())
        handle.write(deflate(stored[:, 7]) if stream is None else stream)
        handle.write(tail)
