"""The one run budget (subsets.budget) and the checks that read it.

Every check_deadline reads the budget the innermost `with budget(...)`
block set, so no function takes a deadline and no caller can forget to
hand one on.  The fake clock stands in for the time module of subsets;
the last three tests let it pass the budget deep inside a link's or a
nerve's cohomology, or inside a single piece, and the check there must
see it.
"""

import importlib
import inspect
import pkgutil

import pytest

import mixedchar
from mixedchar import simplicial, subsets, taylor
from mixedchar.simplicial import SimplicialComplex, hochster_nonzero_levels
from mixedchar.subsets import budget, check_deadline
from mixedchar.taylor import TaylorComplex
from mixedchar.textio import reisner_ideal, rp2_facets

from .test_pipeline import _Clock


@pytest.fixture
def clock(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(subsets, "time", clock)
    return clock


def test_a_budget_restores_the_one_it_replaced(clock):
    assert subsets._deadline is None
    with budget(5.0):
        assert subsets._deadline == 5.0
        with budget(None):
            clock.now = 100.0
            check_deadline("an unlimited block")
        clock.now = 0.0
        assert subsets._deadline == 5.0
        with pytest.raises(RuntimeError), budget(1.0):
            raise RuntimeError
        assert subsets._deadline == 5.0
        with pytest.raises(TimeoutError, match="^an inner block passed"), budget(1.0):
            clock.now = 2.0
            check_deadline("an inner block")
        check_deadline("the outer block")
        clock.now = 6.0
        with pytest.raises(TimeoutError, match="^the outer block passed the --timeout-secs"):
            check_deadline("the outer block")
    assert subsets._deadline is None
    check_deadline("no block")


def test_no_function_of_the_package_takes_a_deadline():
    checked = []
    for info in pkgutil.iter_modules(mixedchar.__path__):
        module = importlib.import_module(f"mixedchar.{info.name}")
        for owner in [module] + [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]:
            for value in vars(owner).values():
                fn = getattr(value, "fget", None) or getattr(value, "__func__", value)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    checked.append(f"{module.__name__}.{fn.__qualname__}")
                    assert "deadline" not in inspect.signature(fn).parameters, checked[-1]
    for once in ("taylor.TaylorComplex._cells", "taylor.ExtScanResult.describe",
                 "simplicial.SimplicialComplex.core", "cli.cmd_scan", "groebner.buchberger",
                 "filtrations.finite_type_and_verdict", "pipeline.annihilator_pipeline"):
        assert f"mixedchar.{once}" in checked


def test_a_link_eliminated_by_the_hochster_scan_reads_the_budget(clock, monkeypatch):
    # the clock passes the budget as each link is built; the link's core or
    # its first elimination must see it, not only the next face of the scan
    link = SimplicialComplex.link

    def late(cx, vertices):
        clock.now = 2.0
        return link(cx, vertices)

    monkeypatch.setattr(SimplicialComplex, "link", late)
    cx = SimplicialComplex(*rp2_facets())
    pattern = "^(the strong-collapse core|cohomology out of faces of cardinality [0-9]+) passed"
    with pytest.raises(TimeoutError, match=pattern), budget(1.0):
        hochster_nonzero_levels(cx, (2, 3, "Q"))


def test_a_nerve_collapsed_by_a_support_scan_reads_the_budget(clock, monkeypatch):
    # the clock passes the budget inside a Reisner nerve's strong-collapse
    # core, whose next deletion must see it; a fresh cache, so the nerves'
    # cores are found here
    monkeypatch.setattr(taylor, "_NERVE_CACHE", {})
    is_cone = simplicial.link_is_cone

    def late(facets, W):
        clock.now = 2.0
        return is_cone(facets, W)

    monkeypatch.setattr(simplicial, "link_is_cone", late)
    with pytest.raises(TimeoutError, match="^the strong-collapse core passed"), budget(1.0):
        TaylorComplex(reisner_ideal()).support_scan(4)


def test_a_single_piece_names_itself_when_the_budget_passes(clock):
    tc = TaylorComplex(reisner_ideal())
    with pytest.raises(TimeoutError, match=r"^the Ext\^4 piece passed"), budget(1.0):
        clock.now = 2.0
        tc.ext_piece(4, (-1,) * 6)
