import json

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


def hermitian_parameters(elements):
    """The tree-v7 parameters of an ``(N, d, d)`` Hermitian stack, one row of d^2 reals each.

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


def read_tree_file(path):
    """Header, order and writable arrays of a tree-v7 file, read as the format documents it.

    The order is ``(N,)`` little-endian int64.  The arrays after it are the
    padded POVM's parameters, ``(N, d*d)`` little-endian float64 as
    :func:`hermitian_parameters` lays them out; then ``kraus[l]`` of shape
    ``(2**l, 2, d, d)`` for each level, as little-endian complex128 in C order.
    """
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        raw = handle.read()
    n, d, depth = header["n_outcomes"], header["dimension"], header["depth"]
    blobs = [("<i8", (n,)), ("<f8", (1 << depth, d * d))]
    blobs += [("<c16", (1 << level, 2, d, d)) for level in range(depth)]
    arrays, offset = [], 0
    for dtype, shape in blobs:
        count = int(np.prod(shape))
        a = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
        arrays.append(a.copy())
        offset += a.nbytes
    assert offset == len(raw)
    return header, arrays[0], arrays[1:]


def write_tree_file(path, header, order, arrays, tail=b""):
    """Write a tree-v7 file from a header, order and arrays as :func:`read_tree_file` returns them.

    ``tail`` bytes are appended.
    """
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        handle.write(np.ascontiguousarray(order, dtype="<i8").tobytes())
        for j, a in enumerate(arrays):
            handle.write(np.ascontiguousarray(a, dtype="<c16" if j else "<f8").tobytes())
        handle.write(tail)
