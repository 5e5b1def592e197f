"""Outside-in layer trace: spans around calls into the package's public
functions, self-time arithmetic, and the per-layer metrics of one round.

The child process of a traced run calls `install()` before it calls the
CLI.  Each public function is replaced by a wrapper under the name its
callers look it up by (for example `mixedchar.taylor.invariant_factors_sparse`,
which taylor imported by name), so no package file changes.  Spans are
kept in memory as [name, start, end, parent index, counters] and written
out when the op ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (span name, call sites as (module, attribute path), counters from (args, result))
PATCHES = (
    (
        "intlinalg.sparse",
        (("intlinalg", "invariant_factors_sparse"), ("taylor", "invariant_factors_sparse")),
        lambda args, result: {"nnz": len(args[0])},
    ),
    ("intlinalg.kernel", (("intlinalg", "integer_kernel"),), None),
    ("intlinalg.basis", (("intlinalg", "CohomologyBasis.__init__"),), None),
    ("intlinalg.induced", (("intlinalg", "InducedMap.__init__"),), None),
    (
        "intlinalg.rank_modp",
        (("simplicial", "matrix_rank_mod_p"),),
        lambda args, result: {"cells": args[0].nrows * args[0].ncols},
    ),
    ("intlinalg.cohomology", (("simplicial", "complex_cohomology"),), None),
    ("taylor.build", (("taylor", "TaylorComplex.__init__"),), None),
    (
        "taylor.scan",
        (("taylor", "TaylorComplex.support_scan"),),
        lambda args, result: {"degrees": result.degrees_scanned, "nonzero": len(result.pieces)},
    ),
    (
        "taylor.transition",
        (("taylor", "transition_between"), ("pipeline", "transition_between"), ("cli", "transition_between")),
        None,
    ),
    ("taylor.mult_map", (("taylor", "TaylorComplex.mult_map"),), None),
    (
        "subsets.coboundary",
        (("taylor", "coboundary_sign_entries"), ("simplicial", "coboundary_sign_entries")),
        None,
    ),
    ("pipeline.total", (("cli", "annihilator_pipeline"),), None),
    ("simplicial.link", (("simplicial", "SimplicialComplex.link"),), None),
    ("simplicial.cohomology", (("simplicial", "reduced_cohomology"), ("cli", "reduced_cohomology")), None),
    ("groebner.buchberger", (("groebner", "buchberger"),), None),
    ("groebner.spoly", (("groebner", "spoly"),), None),
    (
        "groebner.nf",
        (("groebner", "normal_form"),),
        lambda args, result: {"nonzero": 0 if result.is_zero() else 1},
    ),
    ("groebner.reduce", (("groebner", "reduce_basis"),), None),
    (
        "textio.parse",
        tuple(
            (module, name)
            for module in ("textio", "cli")
            for name in ("load_ideal_text", "load_facets_text", "load_generators_text")
        ),
        None,
    ),
    (
        "reports.serialize",
        (("reports", "Report.to_json"),),
        lambda args, result: {"bytes": len(result.encode())},
    ),
)


class Tracer:
    """Nested spans of one process, in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[4] = count(args, result)
            return result

        return traced


def install(package: str = "mixedchar") -> Tracer:
    """Wrap every call site in PATCHES; one wrapper per original function."""
    tracer = Tracer()
    for name, sites, count in PATCHES:
        wrappers = {}
        for module_name, path in sites:
            owner = importlib.import_module(f"{package}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(name, original, count)
            setattr(owner, attr, wrappers[id(original)])
    return tracer


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, self and total seconds, summed counters.

    Also "<top>": the seconds covered by spans with no parent, and
    "groebner.useful": normal forms under Buchberger with a nonzero result.
    """
    out = {"<top>": {"total_s": 0.0}, "groebner.useful": {"calls": 0}}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, counters = span
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += end - start
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value
        if parent < 0:
            out["<top>"]["total_s"] += end - start
        elif name == "groebner.nf" and spans[parent][0] == "groebner.buchberger":
            out["groebner.useful"]["calls"] += counters["nonzero"] if counters else 0
    return out


def merge(summaries) -> dict:
    """Sum per-op summaries into one round."""
    out = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    return out


def counter(name: str, key: str):
    return lambda s: s.get(name, {}).get(key, 0)


def calls(name: str):
    return counter(name, "calls")


def self_s(name: str):
    return counter(name, "self_s")


def ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


def unattributed(s):
    return s["<round>"]["wall"] - s["<top>"]["total_s"]


# (metric, unit, better, value from a round summary).  Every "_s" metric is
# self time (the span minus its traced children) except pipeline.total_s.
PER_LAYER = (
    ("intlinalg.sparse_calls", "count", "lower", calls("intlinalg.sparse")),
    ("intlinalg.sparse_s", "s", "lower", self_s("intlinalg.sparse")),
    ("intlinalg.sparse_nnz", "count", "lower", counter("intlinalg.sparse", "nnz")),
    (
        "intlinalg.elims_per_degree",
        "ratio",
        "lower",
        ratio(calls("intlinalg.sparse"), counter("taylor.scan", "degrees")),
    ),
    ("intlinalg.kernel_calls", "count", "lower", calls("intlinalg.kernel")),
    ("intlinalg.kernel_s", "s", "lower", self_s("intlinalg.kernel")),
    (
        "intlinalg.kernels_per_transition",
        "ratio",
        "lower",
        ratio(calls("intlinalg.kernel"), calls("taylor.transition")),
    ),
    ("intlinalg.basis_s", "s", "lower", self_s("intlinalg.basis")),
    ("intlinalg.induced_s", "s", "lower", self_s("intlinalg.induced")),
    ("intlinalg.rank_modp_calls", "count", "lower", calls("intlinalg.rank_modp")),
    ("intlinalg.rank_modp_s", "s", "lower", self_s("intlinalg.rank_modp")),
    ("intlinalg.rank_modp_cells", "count", "lower", counter("intlinalg.rank_modp", "cells")),
    ("intlinalg.cohomology_s", "s", "lower", self_s("intlinalg.cohomology")),
    ("taylor.build_calls", "count", "lower", calls("taylor.build")),
    ("taylor.build_s", "s", "lower", self_s("taylor.build")),
    ("taylor.degrees", "count", "lower", counter("taylor.scan", "degrees")),
    ("taylor.scan_self_s", "s", "lower", self_s("taylor.scan")),
    (
        "taylor.nonzero_ratio",
        "ratio",
        "higher",
        ratio(counter("taylor.scan", "nonzero"), counter("taylor.scan", "degrees")),
    ),
    ("taylor.transitions", "count", "lower", calls("taylor.transition")),
    ("taylor.transition_s", "s", "lower", self_s("taylor.transition")),
    ("taylor.mult_map_s", "s", "lower", self_s("taylor.mult_map")),
    ("subsets.coboundary_calls", "count", "lower", calls("subsets.coboundary")),
    ("subsets.coboundary_s", "s", "lower", self_s("subsets.coboundary")),
    ("pipeline.total_s", "s", "lower", counter("pipeline.total", "total_s")),
    ("pipeline.self_s", "s", "lower", self_s("pipeline.total")),
    ("simplicial.link_calls", "count", "lower", calls("simplicial.link")),
    ("simplicial.link_s", "s", "lower", self_s("simplicial.link")),
    ("simplicial.cohomology_calls", "count", "lower", calls("simplicial.cohomology")),
    ("simplicial.cohomology_self_s", "s", "lower", self_s("simplicial.cohomology")),
    ("groebner.buchberger_s", "s", "lower", self_s("groebner.buchberger")),
    ("groebner.spolys", "count", "lower", calls("groebner.spoly")),
    ("groebner.spoly_s", "s", "lower", self_s("groebner.spoly")),
    ("groebner.nf_calls", "count", "lower", calls("groebner.nf")),
    ("groebner.nf_s", "s", "lower", self_s("groebner.nf")),
    (
        "groebner.useful_ratio",
        "ratio",
        "higher",
        ratio(calls("groebner.useful"), calls("groebner.spoly")),
    ),
    ("groebner.reduce_s", "s", "lower", self_s("groebner.reduce")),
    ("textio.parse_s", "s", "lower", self_s("textio.parse")),
    ("reports.serialize_s", "s", "lower", self_s("reports.serialize")),
    ("reports.bytes", "bytes", "lower", counter("reports.serialize", "bytes")),
    ("cli.unattributed_s", "s", "lower", unattributed),
    ("trace.overhead_s", "s", "lower", counter("<round>", "overhead")),
    ("report.degrees_scanned", "count", "lower", counter("<report>", "degrees_scanned")),
    ("report.transitions_checked", "count", "lower", counter("<report>", "transitions_checked")),
    ("report.radical_memberships", "count", "lower", counter("<report>", "radical_memberships")),
    ("report.faces", "count", "lower", counter("<report>", "faces")),
)


def layer_metrics(rounds) -> dict:
    """Median over traced rounds of each per-layer metric.

    Each round is a merged summary with "<round>" ({"wall", "overhead"})
    and "<report>" (the reports' summed timing counters) filled in.
    """
    return {
        name: {"value": statistics.median(value(s) for s in rounds), "unit": unit}
        for name, unit, _, value in PER_LAYER
    }
