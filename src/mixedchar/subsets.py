"""Bitmask subset combinatorics shared by nerve and face complexes.

A subset of {0..r-1} is a bitmask.  The one sign-coboundary builder takes
the faces of two consecutive sizes as sorted lists of masks, for both the
nerve complexes that carry graded Ext and simplicial cochain complexes;
the nerve keeps each family as one integer with bit S set for member S,
and bits_to_subsets lists it.
"""

from __future__ import annotations

# Most entries any module-level cache of the package holds.
CACHE_LIMIT = 4096

_SIZE_MASKS: dict = {}


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


def coboundary_sign_entries(cols: list, rows: list):
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
