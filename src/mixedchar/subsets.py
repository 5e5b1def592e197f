"""Bitmask subsets, the one sign-coboundary builder, and the package's
bounded caches and run budget.

A subset of {0..r-1} is a bitmask.  The sign-coboundary builder takes the
faces of two consecutive sizes as sorted lists of masks; every complex of
the package, nerve or facet complex, is a simplicial.SimplicialComplex
that keeps its faces that way.

The run budget lives here alone: inside `with budget(seconds):`, every
check_deadline, however deep the call, raises TimeoutError once seconds
have passed since the block was entered.  A nested budget replaces the
outer one until its block ends, normally or by an exception; outside
any block there is no limit.  cli.main enters one budget per run.
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


# the time.monotonic() value past which check_deadline raises; None: no limit
_deadline = None


class budget:
    """The context manager of a run budget of seconds (None: no limit)."""

    def __init__(self, seconds: float | None):
        self.seconds = seconds

    def __enter__(self):
        global _deadline
        self.outer = _deadline
        _deadline = None if self.seconds is None else time.monotonic() + self.seconds

    def __exit__(self, *exc_info):
        global _deadline
        _deadline = self.outer


def check_deadline(what: str):
    """Raise TimeoutError, naming what, once the run budget has passed."""
    if _deadline is not None and time.monotonic() > _deadline:
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
