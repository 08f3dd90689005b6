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
    """The tree-v6 parameters of an ``(N, d, d)`` Hermitian stack, one row of d^2 reals each.

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
    """Header and writable arrays of a tree-v6 file, read as the format documents it.

    The first array is the padded POVM's parameters, ``(N, d*d)`` little-endian
    float64 as :func:`hermitian_parameters` lays them out; then ``kraus[l]`` of
    shape ``(2**l, 2, d, d)`` for each level, as little-endian complex128 in C order.
    """
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        raw = handle.read()
    d, depth = header["dimension"], header["depth"]
    blobs = [("<f8", (1 << depth, d * d))]
    blobs += [("<c16", (1 << level, 2, d, d)) for level in range(depth)]
    arrays, offset = [], 0
    for dtype, shape in blobs:
        count = int(np.prod(shape))
        a = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
        arrays.append(a.copy())
        offset += a.nbytes
    assert offset == len(raw)
    return header, arrays


def write_tree_file(path, header, arrays, tail=b""):
    """Write a tree-v6 file from a header and arrays laid out as :func:`read_tree_file` returns them.

    ``tail`` bytes are appended.
    """
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        for j, a in enumerate(arrays):
            handle.write(np.ascontiguousarray(a, dtype="<c16" if j else "<f8").tobytes())
        handle.write(tail)
