"""Work partitioning helpers: contiguous and weighted splits of work items.

The paper's threading scheme (section IV-E) row-partitions the matrix into
fixed-size blocks and guarantees every thread receives at least one block.
:func:`split_evenly` and :func:`chunk_ranges` implement the contiguous
splits; :func:`greedy_balance` implements weighted balancing (used when
block nnz varies — property P3 says it varies little, but the harness
verifies that claim rather than assuming it).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def split_evenly(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into *parts* contiguous ranges of near-equal size.

    Ranges are returned as ``(start, stop)`` pairs.  When ``parts > n`` the
    trailing ranges are empty (``start == stop``), preserving the invariant
    that exactly *parts* ranges are returned and they tile ``range(n)``.
    """
    if n < 0:
        raise ValidationError("n must be >= 0")
    if parts < 1:
        raise ValidationError("parts must be >= 1")
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def chunk_ranges(n: int, chunk: int) -> list[tuple[int, int]]:
    """Tile ``range(n)`` with fixed-size chunks (last may be short)."""
    if chunk < 1:
        raise ValidationError("chunk must be >= 1")
    if n < 0:
        raise ValidationError("n must be >= 0")
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]


def greedy_balance(weights, parts: int) -> list[list[int]]:
    """Assign weighted items to *parts* bins minimising the max bin weight.

    Classic LPT (longest processing time first) greedy: sort items by
    descending weight, repeatedly give the next item to the lightest bin.
    Returns a list of index lists, one per bin.  Guarantees every bin is
    non-empty when ``len(weights) >= parts``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError("weights must be 1-D")
    if parts < 1:
        raise ValidationError("parts must be >= 1")
    if np.any(w < 0):
        raise ValidationError("weights must be non-negative")
    order = np.argsort(-w, kind="stable")
    bins: list[list[int]] = [[] for _ in range(parts)]
    loads = np.zeros(parts)
    # Seed each bin with one item first so no bin is empty when possible.
    for rank, idx in enumerate(order):
        if rank < parts:
            target = rank
        else:
            target = int(np.argmin(loads))
        bins[target].append(int(idx))
        loads[target] += w[idx]
    return bins


def imbalance(weights, assignment: list[list[int]]) -> float:
    """Load imbalance of an assignment: ``max_load / mean_load - 1``.

    Zero means perfectly balanced.  Used by tests of property P3 (similar
    nnz per column) and by the threading harness.
    """
    w = np.asarray(weights, dtype=np.float64)
    loads = np.array([w[idx].sum() if idx else 0.0 for idx in assignment])
    mean = loads.mean()
    if mean == 0:
        return 0.0
    return float(loads.max() / mean - 1.0)
