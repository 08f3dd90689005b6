import dataclasses
import json
import zlib

import numpy as np
import pytest

from povmtree import tetrad

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


def all_pairs(tree):
    """Every round's Kraus pairs, ``tree.pairs(l)`` for l in 0..depth - 1."""
    return tuple(tree.pairs(level) for level in range(tree.depth))


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


def held_words(pairs, last):
    """A level's ``(k, 2, d, d)`` complex Kraus pairs as ``MeasurementTree.levels`` holds them: on the
    last level their real and imaginary parts, above it each block's :func:`hermitian_parameters`."""
    k, _, d, _ = pairs.shape
    if last:
        return np.ascontiguousarray(pairs, dtype=complex).view(float).reshape(k, 2, 2 * d * d)
    return hermitian_parameters(pairs.reshape(-1, d, d)).reshape(k, 2, d * d)


def with_pairs(tree, level, pairs):
    """``tree`` with round ``level``'s Kraus pairs replaced by ``pairs``, held as its words."""
    levels = list(tree.levels)
    levels[level] = held_words(pairs, level == tree.depth - 1)
    return dataclasses.replace(tree, levels=tuple(levels))


def stored_pairs(depth, n_original):
    """Per level, root first, how many nodes' pairs a tree-v13 file stores: those with a real leaf.

    The real leaves are the first ``n_original`` of the ``2**depth``, so on
    level l they lie below the first ceil(n_original / 2**(depth - l)) nodes.
    """
    return [-(-n_original // (1 << (depth - level))) for level in range(depth)]


def stored_words(d, n_original):
    """The float64 words W of a tree-v13 file: d^2 a row of parameters, 2 d^2 a pair above the last
    level, its blocks' real parameters, and 4 d^2 a pair on it."""
    pairs = stored_pairs((n_original - 1).bit_length(), n_original)
    return d * d * n_original + 2 * d * d * sum(pairs[:-1]) + 4 * d * d * sum(pairs[-1:])


def order_width(n_original):
    """Bytes per order entry of a tree-v13 file: the fewest of 1, 2, 4 or 8 that hold n_original - 1."""
    return next(w for w in (1, 2, 4, 8) if n_original <= 1 << (8 * w))


def words(arrays):
    """The little-endian float64 words a tree-v13 file stores of its arrays, in file order, as ``(k, 8)`` bytes.

    The first array is the elements' parameters (float64), the rest Kraus
    levels (complex128, real then imaginary part), root first: of each
    level but the last, whose blocks are upper triangular with real
    diagonals, only each block's :func:`hermitian_parameters`, b0's then b1's.
    """
    stored = [arrays[0], *(hermitian_parameters(level.reshape(-1, *level.shape[-2:])) for level in arrays[1:-1])]
    raw = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in stored)
    raw += b"".join(np.ascontiguousarray(a, dtype="<c16").tobytes() for a in arrays[1:][-1:])
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8)


def deflate(data):
    """``data`` as a raw deflate stream whose back-references reach at most 2**9 bytes."""
    compressor = zlib.compressobj(wbits=-9)
    return compressor.compress(bytes(data)) + compressor.flush()


def read_tree_file(path):
    """Header, order and writable arrays of a tree-v13 file, read as the format documents it.

    The depth is ``(n_original - 1).bit_length()``.  The order is
    ``(n_original,)`` little-endian unsigned integers of :func:`order_width`
    bytes, returned as int64.  The arrays are the parameters of the
    ``n_original`` elements, ``(n_original, d*d)`` little-endian float64
    as :func:`hermitian_parameters` lays them out; then, for each level, the
    first pairs of ``kraus[l]``, as many as :func:`stored_pairs` counts,
    ``(k, 2, d, d)`` little-endian complex128 in C order, of which a level
    above the last stores only each block's d*d parameters, laid out as an
    element's, and is returned upper triangular with a real diagonal, +0.0
    in every word it does not store.  After the order come the low seven
    bytes of each stored float64 word (:func:`words`), in order, then a raw
    deflate stream that decodes to the top byte of each word and ends the file.
    """
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        raw = handle.read()
    d, n_original = header["dimension"], header["n_original"]
    width, depth = order_width(n_original), (n_original - 1).bit_length()
    order = np.frombuffer(raw, dtype=f"<u{width}", count=n_original).astype("<i8")
    shapes = [("<f8", (n_original, d * d))]
    shapes += [("<f8", (kept, 2, d * d)) if level < depth - 1 else ("<c16", (kept, 2, d * d))
               for level, kept in enumerate(stored_pairs(depth, n_original))]
    count = sum(int(np.prod(shape)) * np.dtype(dtype).itemsize // 8 for dtype, shape in shapes)
    offset = width * n_original
    stored = np.empty((count, 8), dtype=np.uint8)
    stored[:, :7] = np.frombuffer(raw, dtype=np.uint8, count=7 * count, offset=offset).reshape(-1, 7)
    inflate = zlib.decompressobj(wbits=-9)
    stored[:, 7] = np.frombuffer(inflate.decompress(raw[offset + 7 * count:]), dtype=np.uint8)
    assert inflate.eof and not inflate.unused_data
    arrays, offset = [], 0
    for j, (dtype, shape) in enumerate(shapes):
        a = np.frombuffer(stored.tobytes(), dtype=dtype, count=int(np.prod(shape)), offset=offset).reshape(shape)
        offset += a.nbytes
        if 0 < j < depth:  # a level above the last: each block from its parameters, +0.0 elsewhere
            params, a = a, np.zeros((len(a), 2, d, d), dtype=complex)
            for pair, block in np.ndindex(len(a), 2):
                row = iter(params[pair, block])
                for r in range(d):
                    a[pair, block, r, r] = next(row)
                for r in range(d):
                    for c in range(r + 1, d):
                        a[pair, block, r, c] = complex(next(row), next(row))
        arrays.append(a.reshape(len(a), 2, d, d).copy() if j else a.copy())
    return header, order, arrays


def write_tree_file(path, header, order, arrays, tail=b"", stream=None):
    """Write a tree-v13 file from a header, order and arrays as :func:`read_tree_file` returns them.

    The words are those :func:`words` stores: the last array is the last
    level, stored whole, and of the levels before it only each block's
    parameters.

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
