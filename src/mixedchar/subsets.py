"""Bitmask subset combinatorics shared by nerve and face complexes.

A family of subsets of {0..r-1} is a single big integer whose bit at
position S (itself a bitmask) marks membership.  The sign coboundary
between two such families underlies both the nerve complexes that carry
graded Ext and simplicial cochain complexes, so its entries are cached
here once.
"""

from __future__ import annotations

# Most entries any module-level cache of the package holds.
CACHE_LIMIT = 4096

_SIZE_MASKS: dict = {}
_ENTRY_CACHE: dict = {}


def cache_put(cache: dict, key, value):
    """Store and return value, first dropping the oldest entry of a full cache."""
    if len(cache) >= CACHE_LIMIT:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


def size_masks(r: int) -> list:
    """For each s, the family of all subsets of {0..r-1} with s elements."""
    masks = _SIZE_MASKS.get(r)
    if masks is None:
        masks = [0] * (r + 1)
        for s in range(1 << r):
            masks[s.bit_count()] |= 1 << s
        masks = cache_put(_SIZE_MASKS, r, masks)
    return masks


def bits_to_subsets(bits: int) -> list:
    """The members of a family, ascending as integers."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def coboundary_sign_entries(col_bits: int, row_bits: int):
    """Sparse sign entries between two subset families, plus the shape.

    Columns run over col_bits, rows over row_bits; the entry at (T, S) with
    T = S plus one extra index t is -1 to the number of members of S below
    t.  Pairs not of that shape contribute nothing.
    """
    key = (col_bits, row_bits)
    hit = _ENTRY_CACHE.get(key)
    if hit is not None:
        return hit
    cols = bits_to_subsets(col_bits)
    rows = bits_to_subsets(row_bits)
    rowpos = {S: i for i, S in enumerate(rows)}
    width = rows[-1].bit_length() if rows else 0
    entries = {}
    for ci, S in enumerate(cols):
        for t in range(width):
            b = 1 << t
            if S & b:
                continue
            ri = rowpos.get(S | b)
            if ri is not None:
                entries[(ri, ci)] = -1 if (S & (b - 1)).bit_count() & 1 else 1
    return cache_put(_ENTRY_CACHE, key, (entries, len(rows), len(cols)))
