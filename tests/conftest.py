import json

import numpy as np
import pytest

from povmtree import DEFAULT_TOLERANCES, tetrad


@pytest.fixture
def tol():
    return DEFAULT_TOLERANCES


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tetrad_povm():
    return tetrad()


def frob(a):
    return float(np.linalg.norm(a))


def read_tree_file(path):
    """Header and writable arrays of a tree-v3 file, read as the format documents it.

    The arrays are the padded POVM ``(N, d, d)``, then ``kraus[l]`` of shape
    ``(2**l, 2, d, d)`` for each level, as little-endian complex128 in C order.
    """
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        raw = handle.read()
    d, depth = header["dimension"], header["depth"]
    shapes = [(1 << depth, d, d)] + [(1 << level, 2, d, d) for level in range(depth)]
    arrays, offset = [], 0
    for shape in shapes:
        count = int(np.prod(shape))
        a = np.frombuffer(raw, dtype="<c16", count=count, offset=offset).reshape(shape)
        arrays.append(a.copy())
        offset += 16 * count
    assert offset == len(raw)
    return header, arrays


def write_tree_file(path, header, arrays, tail=b""):
    """Write a tree-v3 file from a header and arrays, with ``tail`` bytes appended."""
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        for a in arrays:
            handle.write(np.ascontiguousarray(a, dtype="<c16").tobytes())
        handle.write(tail)
