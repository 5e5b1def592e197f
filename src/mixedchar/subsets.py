"""Bitmask subsets, the one sign-coboundary builder, and the package's
bounded caches and deadlines.

A subset of {0..r-1} is a bitmask.  The sign-coboundary builder takes the
faces of two consecutive sizes as sorted lists of masks; every complex of
the package, nerve or facet complex, is a simplicial.SimplicialComplex
that keeps its faces that way.
"""

from __future__ import annotations

import time

# Most entries any module-level cache of the package holds.
CACHE_LIMIT = 4096


def cache_put(cache: dict, key, value):
    """Store and return value, first dropping the oldest entry of a full cache."""
    if len(cache) >= CACHE_LIMIT:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


def check_deadline(deadline: float | None, what: str):
    """Raise TimeoutError once time.monotonic() passes deadline (None: never)."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(f"{what} passed the --timeout-secs budget")


def bits_to_subsets(bits: int) -> list:
    """The members of a bitmask, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def coboundary_sign_entries(cols, rows):
    """Sparse sign entries between two lists of subsets, plus the shape.

    Columns run over cols, rows over rows, each a list of bitmasks.  Row T
    drops each of its vertices t in turn; when S = T minus t is a column,
    the entry at (T, S) is -1 to the number of members of S below t.  So
    the cost is O(len(rows) * |T|), and other pairs contribute nothing.
    """
    colpos = {S: i for i, S in enumerate(cols)}
    entries = {}
    for ri, T in enumerate(rows):
        rest = T
        while rest:
            b = rest & -rest
            rest ^= b
            ci = colpos.get(T ^ b)
            if ci is not None:
                entries[(ri, ci)] = -1 if (T & (b - 1)).bit_count() & 1 else 1
    return entries, len(rows), len(cols)
