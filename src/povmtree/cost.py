"""Operation-count comparison of three ways to realize an N-outcome POVM.

Counts are formula evaluations at the level of pairwise (two-level) unitary
operations, not synthesized gate decompositions:

  one-shot projective extension    N (N - 1) / 2
  single extra dimension, iterated (N - d) (d + 1) d / 2   (worst case)
  binary measurement tree          ceil(log2 N) * d (2d - 1)

The binary tree applies one 2d x 2d coupling per level, hence the
``d (2d - 1)`` pairwise interactions repeated ``ceil(log2 N)`` times.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .linalg import _whole


@dataclass(frozen=True)
class CostReport:
    """Operation counts for one (N, d) pair."""

    n_outcomes: int
    dim: int
    neumark_ops: int
    single_extra_dim_ops: int
    binary_tree_ops: int
    binary_tree_depth: int

    @property
    def single_extra_dim_ops_average(self) -> float:
        """Half the worst case, valid under the assumption of equally likely outcomes."""
        return self.single_extra_dim_ops / 2


def compare(n: int, d: int) -> CostReport:
    """Evaluate the three cost formulas for N outcomes on a d-level system, both integers."""
    if not (_whole(n) and _whole(d) and 2 <= d <= n):
        raise ParseError(f"need integers N >= d >= 2, got N={n!r}, d={d!r}", what="dimensions")
    n, d = int(n), int(d)
    depth = (n - 1).bit_length()  # ceil(log2 n), exact for every n
    single = (n - d) * (d + 1) * d // 2
    return CostReport(
        n_outcomes=n,
        dim=d,
        neumark_ops=n * (n - 1) // 2,
        single_extra_dim_ops=single,
        binary_tree_ops=depth * d * (2 * d - 1),
        binary_tree_depth=depth,
    )


def crossover(d: int, n_max: int = 1 << 20) -> int | None:
    """Smallest N from which the strict chain binary < single-extra < one-shot holds.

    Returns the first N after the last violation up to ``n_max``, or None
    if the chain fails at ``n_max``.  Solved in integers, without a scan:
    single-extra >= one-shot is ``(N - d - 1)(N - d^2) <= 0``, that is
    d + 1 <= N <= d^2, and on each band (2**(k-1), 2**k] of depth k,
    binary >= single-extra is ``(N - d)(d + 1) <= 2k(2d - 1)``.  ``d`` and
    ``n_max`` are Python or NumPy integers, not ``bool``.
    """
    if not (_whole(d) and d >= 2 and _whole(n_max) and n_max >= 1):
        raise ParseError(f"need integers d >= 2 and n_max >= 1, got d={d!r}, n_max={n_max!r}",
                         what="dimensions")
    d, n_max = int(d), int(n_max)
    lo = max(d, 2)
    last = min(d * d, n_max) if d + 1 <= n_max else lo - 1  # the last N at which it fails
    for k in range((lo - 1).bit_length(), (n_max - 1).bit_length() + 1):
        top = min(1 << k, n_max, d + 2 * k * (2 * d - 1) // (d + 1))
        if top >= max((1 << (k - 1)) + 1, lo):
            last = max(last, top)
    return last + 1 if last < n_max else None
