"""Ext groups and maps on nerve complexes against the Taylor-strand oracle.

The library computes Ext^j(A/I, A)_alpha as H~^{j-2} of the nerve Delta on
the generators and every map as restriction of Delta cochains; the oracle
computes the same groups on Taylor strands over the generator subsets and
the maps as strand basis inclusions.  Both sides share only the integer
elimination kernel.  The strand at alpha is the cochain complex of the
full simplex relative to Delta, so taking the coboundary of a cocycle on
Delta, extended by zero, is an isomorphism onto the strand's cohomology;
maps are compared through it, whatever bases either side picks.
"""

import itertools
import random

import pytest

from mixedchar import intlinalg, subsets, taylor
from mixedchar.intlinalg import IntMatrix, InducedMap
from mixedchar.monomials import MonomialIdeal, power_ideal
from mixedchar.pipeline import _transition_injective_over
from mixedchar.subsets import bits_to_subsets, coboundary_sign_entries
from mixedchar.taylor import TaylorComplex, require_chain_map, transition_between

from tests.conftest import REISNER_ROWS
from tests.oracles import (
    TaylorStrands,
    dense_reduced_cohomology,
    full_block_injective,
    is_cone_by_apex,
    is_injective,
)


def _random_ideal(rng):
    n = rng.randint(1, 4)
    floor = [rng.choice((0, 0, 1)) for _ in range(n)]  # floor 1: tau_i = 1 has V_i empty
    gens = {
        tuple(rng.randint(floor[i], 3) for i in range(n)) for _ in range(rng.randint(1, 5))
    }
    gens.discard((0,) * n)
    return MonomialIdeal(n, gens or [(1,) + (0,) * (n - 1)])


def _random_alpha(rng, tc, past=1):
    """A degree from -a_full - past (beyond every breakpoint) up to 1."""
    return tuple(rng.randint(-top - past, 1) for top in tc.a_full)


def _empty_v(tc, alpha):
    """Whether some active coordinate has no generator below its threshold."""
    return any(a < 0 and all(g[i] >= -a for g in tc.gens) for i, a in enumerate(alpha))


def test_groups_match_the_strand_oracle_on_random_ideals():
    rng = random.Random(60601)
    compared = nonzero = tau_zero = empty_v = cones = maximal_only = 0
    for _ in range(160):
        tc = TaylorComplex(_random_ideal(rng))
        strands = TaylorStrands(tc)
        degrees = {(0,) * tc.n, (-1,) * tc.n}
        degrees.update(_random_alpha(rng, tc) for _ in range(30))
        for alpha in sorted(degrees):
            simplices = frozenset(filter(None, tc._cover(alpha)))
            cone = bool(simplices) and taylor._nerve(tc.r, simplices)[1]
            for j in range(tc.r + 2):
                got = tc.ext_piece(j, alpha).group
                want = strands.group(j, alpha)
                assert got == want, (tc.gens, j, alpha)
                # a complex the library skips as a cone is acyclic on the strands too
                assert not cone or want.is_trivial(), (tc.gens, j, alpha)
                compared += 1
                nonzero += not got.is_trivial()
                tau_zero += all(a >= 0 for a in alpha)
                empty_v += _empty_v(tc, alpha) and not got.is_trivial()
            common = -1
            for face in simplices:
                common &= face
            cones += cone
            maximal_only += cone and common == 0  # a cone by its maximal V_i only
    assert compared > 12000 and nonzero > 600
    assert tau_zero > 1000 and empty_v > 300
    assert cones > 1000 and maximal_only > 40, (cones, maximal_only)


def test_the_nerve_cone_test_matches_an_apex_search():
    # the test reads the maximal V_i only; the search reads every face
    rng = random.Random(60606)
    cones = others = 0
    for _ in range(300):
        tc = TaylorComplex(_random_ideal(rng))
        for _ in range(10):
            simplices = frozenset(filter(None, tc._cover(_random_alpha(rng, tc))))
            if not simplices or tc.r == 0:
                continue
            cx, cone = taylor._nerve(tc.r, simplices)
            assert cone == is_cone_by_apex(cx), (tc.gens, simplices)
            if cone:
                assert all(g.is_trivial() for g in dense_reduced_cohomology(cx, "Z").values())
            cones += cone
            others += not cone
    assert cones > 1000 and others > 60, (cones, others)


def test_each_nerve_eliminates_each_coboundary_once(monkeypatch):
    # the Reisner socle scan at level 1 meets 126 nerves, 32 of them no
    # cone, with 64 coboundaries between them; level 2 meets the same nerves
    monkeypatch.setattr(taylor, "_NERVE_CACHE", {})
    calls = []
    real = intlinalg.invariant_factors_sparse
    monkeypatch.setattr(
        intlinalg, "invariant_factors_sparse", lambda *args: calls.append(args) or real(*args)
    )
    ideal = MonomialIdeal(6, REISNER_ROWS)
    for ell, eliminations in ((1, 64), (2, 64), (2, 64)):
        pieces = TaylorComplex(power_ideal(ideal, ell)).support_scan(4, ((-ell, 0),) * 6).pieces
        assert len(pieces) == ell**6 and len(calls) == eliminations, (ell, len(calls))
    nerves = [cone for _, cone in taylor._NERVE_CACHE.values()]
    assert (len(nerves), nerves.count(False)) == (126, 32)


def test_wide_ideals_run_on_the_generators():
    # Delta's faces lie on the r generators however many variables there are
    rng = random.Random(60605)
    for _ in range(20):
        n = rng.randint(10, 16)
        count = rng.randint(1, 4)
        gens = {tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(count)}
        gens.discard((0,) * n)
        tc = TaylorComplex(MonomialIdeal(n, gens or [(1,) + (0,) * (n - 1)]))
        strands = TaylorStrands(tc)
        for _ in range(5):
            alpha = _random_alpha(rng, tc)
            for j in range(tc.r + 2):
                piece = tc.ext_piece(j, alpha)
                assert piece.group == strands.group(j, alpha), (tc.gens, j, alpha)
                assert all(F >> tc.r == 0 for faces in piece.triple for F in faces)


def test_zero_and_unit_ideals_match_the_strand_oracle():
    # (0): Ext^0 = Z exactly at alpha >= 0; (1): nothing anywhere
    for ideal, support in ((MonomialIdeal(2, []), 9), (MonomialIdeal(2, [(0, 0)]), 0)):
        tc = TaylorComplex(ideal)
        strands = TaylorStrands(tc)
        found = 0
        for alpha in itertools.product(range(-2, 3), repeat=2):
            for j in range(tc.r + 2):
                got = tc.ext_piece(j, alpha).group
                assert got == strands.group(j, alpha), (ideal, j, alpha)
                found += not got.is_trivial()
                for i in range(2):
                    report = tc.mult_map(j, alpha, i)
                    want = strands.inclusion(j, alpha, strands, report.target_alpha)
                    _assert_same_map(report, want, strands, strands, (ideal, j, alpha, i))
        assert found == support


def test_groups_match_the_strand_oracle_on_reisner_levels():
    rng = random.Random(60602)
    nonzero = {}
    for ell in (1, 2, 3):
        tc = TaylorComplex(power_ideal(MonomialIdeal(6, REISNER_ROWS), ell))
        strands = TaylorStrands(tc)
        degrees = {(0,) * 6, (-ell,) * 6, (-ell - 1,) * 6}
        degrees.update(tuple(rng.randint(-ell - 1, 1) for _ in range(6)) for _ in range(60))
        for alpha in sorted(degrees):
            for j in range(tc.r + 2):
                got = tc.ext_piece(j, alpha).group
                assert got == strands.group(j, alpha), (ell, j, alpha)
                if not got.is_trivial():
                    nonzero[j] = nonzero.get(j, 0) + 1
    # Ext^3 (free) and Ext^4 (the Z/2 socle and its powers) both show up
    assert nonzero.get(3, 0) > 20 and nonzero.get(4, 0) >= 3


def _zero(induced):
    return induced is None or induced.is_zero()


def _injective_over(induced, source, p):
    """p-local injectivity of a library map; None means a side has no components."""
    if induced is None:
        free, exps = source.dvr_invariants(p)
        return free == 0 and not exps
    return induced.is_injective_localized(p)


_CONNECTING: dict = {}


def _connecting(strands, piece):
    """The isomorphism from the cohomology of Delta at piece onto its strand's.

    A cocycle on the size-(j-1) faces of Delta, extended by zero to the full
    simplex, has a coboundary that lives on the strand's size-j subsets.
    (0) has no generators: its one complex is the strand itself.
    """
    strand = strands.strand_triple(piece.j, piece.alpha)
    key = (piece.triple, strand)
    if key not in _CONNECTING:
        basis = piece.basis
        if strands.r == 0:
            chain = IntMatrix.identity(basis.dim)
        else:
            entries, nrows, ncols = coboundary_sign_entries(
                piece.triple[1], bits_to_subsets(strand[1])
            )
            chain = IntMatrix(nrows, ncols)
            for (i, k), v in entries.items():
                chain.rows[i][k] = v
        phi = InducedMap(basis, TaylorStrands.basis(strand), chain)
        assert is_injective(phi) and not phi.is_zero()
        _CONNECTING[key] = phi
    return _CONNECTING[key]


def _oracle_matrix(report, oracle):
    """The oracle's component matrix in the shape the report gives one."""
    scomp = report.source_group.free_rank + len(report.source_group.factors)
    tcomp = report.target_group.free_rank + len(report.target_group.factors)
    if scomp == 0 or tcomp == 0:
        return [[0] * scomp for _ in range(tcomp)]
    return oracle.component_matrix()


def _assert_same_map(report, oracle, strands, target_strands, what):
    """report's map against the oracle's strand inclusion between the same degrees."""
    induced, source = report.induced, report.source
    assert _zero(induced) == oracle.is_zero(), what
    injective = source.group.is_trivial() if induced is None else is_injective(induced)
    assert injective == is_injective(oracle), what
    for p in (2, 3):
        assert _injective_over(induced, source, p) == oracle.is_injective_localized(p), what
    if induced is None:
        assert report.matrix == _oracle_matrix(report, oracle), what
        return
    # restriction then connecting map equals connecting map then inclusion
    into = _connecting(target_strands, report.target)
    one = oracle.pres_matrix @ _connecting(strands, source).pres_matrix
    two = into.pres_matrix @ induced.pres_matrix
    for k in range(one.ncols):
        diff = [a - b for a, b in zip(one.column(k), two.column(k))]
        assert into.target.in_relation_lattice(diff), what


def test_transitions_and_mult_maps_match_taylor_inclusions():
    rng = random.Random(60603)
    maps = nonzero = not_injective = 0
    for _ in range(200):
        ideal = _random_ideal(rng)
        levels = {ell: TaylorComplex(power_ideal(ideal, ell)) for ell in (1, 2, 3)}
        oracle = {ell: TaylorStrands(tc) for ell, tc in levels.items()}
        for ell in (1, 2):
            low, high = levels[ell], levels[ell + 1]
            require_chain_map(low, high)
            for _ in range(6):
                alpha = _random_alpha(rng, high)
                for j in range(low.r + 2):
                    rep = transition_between(low.ext_piece(j, alpha), high.ext_piece(j, alpha), ell)
                    want = oracle[ell].inclusion(j, alpha, oracle[ell + 1], alpha)
                    what = (ideal.gens, ell, j, alpha)
                    _assert_same_map(rep, want, oracle[ell], oracle[ell + 1], what)
                    for p in (2, 3):
                        assert _transition_injective_over(rep, p) == want.is_injective_localized(p)
                    maps += 1
                    nonzero += rep.induced is not None
        tc, strands = levels[1], oracle[1]
        for _ in range(6):
            alpha = _random_alpha(rng, tc)
            i = rng.randrange(tc.n)
            target = tuple(a + (k == i) for k, a in enumerate(alpha))
            for j in range(tc.r + 2):
                report = tc.mult_map(j, alpha, i)
                want = strands.inclusion(j, alpha, strands, target)
                _assert_same_map(report, want, strands, strands, (ideal.gens, j, alpha, i))
                assert report.zero == want.is_zero()
                maps += 1
                nonzero += report.induced is not None
                not_injective += not is_injective(want)
    assert maps > 12000 and nonzero > 500 and not_injective > 100


@pytest.mark.parametrize("j", [3, 4])
def test_reisner_transitions_and_mult_maps_match_taylor_inclusions(j):
    # Ext^3 is free, Ext^4 2-torsion; at both, the report matrices are the
    # ones the strand route picks
    ideal = MonomialIdeal(6, REISNER_ROWS)
    levels = {ell: TaylorComplex(power_ideal(ideal, ell)) for ell in (1, 2, 3)}
    oracle = {ell: TaylorStrands(tc) for ell, tc in levels.items()}
    checked = free = 0
    for ell in (1, 2):
        low, high = levels[ell], levels[ell + 1]
        support = low.support_scan(j).pieces
        if j == 4:
            assert len(support) == ell**6
        for piece in support:
            rep = transition_between(piece, high.ext_piece(j, piece.alpha), ell)
            want = oracle[ell].inclusion(j, piece.alpha, oracle[ell + 1], piece.alpha)
            _assert_same_map(rep, want, oracle[ell], oracle[ell + 1], (ell, piece.alpha))
            assert rep.matrix == _oracle_matrix(rep, want), (ell, piece.alpha)
            assert rep.induced is not None and is_injective(rep.induced)
            for i in range(6):
                report = low.mult_map(j, piece.alpha, i)
                target = report.target_alpha
                want = oracle[ell].inclusion(j, piece.alpha, oracle[ell], target)
                what = (ell, piece.alpha, i)
                _assert_same_map(report, want, oracle[ell], oracle[ell], what)
                assert report.matrix == _oracle_matrix(report, want), what
                checked += 1
                free += report.source_group.free_rank > 0 and not report.zero
    if j == 4:
        assert checked == 6 * (1 + 2**6)
    else:
        assert checked > 1000 and free > 500


def test_p_local_injectivity_is_decided_once_per_shared_map(monkeypatch):
    # the restriction cache hands every Reisner level-2 transition at j = 4
    # the same map, so each prime costs one kernel block however many
    # transitions ask
    for module, name in ((taylor, "_BASIS_CACHE"), (taylor, "_RESTRICTION_CACHE")):
        monkeypatch.setattr(module, name, {})
    ideal = MonomialIdeal(6, REISNER_ROWS)
    low, high = TaylorComplex(power_ideal(ideal, 2)), TaylorComplex(power_ideal(ideal, 3))
    reps = [
        transition_between(piece, high.ext_piece(4, piece.alpha), 2)
        for piece in low.support_scan(4).pieces
    ]
    maps = {id(rep.induced): rep.induced for rep in reps}
    assert len(reps) == 64 and len(maps) == 1
    kernels = []
    real_kernel = intlinalg.integer_kernel
    monkeypatch.setattr(intlinalg, "integer_kernel", lambda M: kernels.append(M) or real_kernel(M))
    (induced,) = maps.values()
    for p in (2, 3, 5):
        assert all(_transition_injective_over(rep, p) for rep in reps)
        assert full_block_injective(induced, p)  # uncached reference
    # Z/2 -> Z/2: only p = 2 needs the kernel block, and only once
    assert len(kernels) == 1
    assert induced._injective_at == {2: True, 3: True, 5: True}
    assert is_injective(induced)


def test_nerve_caches_stay_bounded_over_many_ideals(monkeypatch):
    limit = 24
    monkeypatch.setattr(subsets, "CACHE_LIMIT", limit)
    caches = {
        (taylor, "_NERVE_CACHE"),
        (taylor, "_BASIS_CACHE"),
        (taylor, "_RESTRICTION_CACHE"),
    }
    for module, name in caches:
        monkeypatch.setattr(module, name, {})
    rng = random.Random(60604)
    largest = dict.fromkeys(caches, 0)
    for _ in range(300):
        ideal = _random_ideal(rng)
        low, high = TaylorComplex(ideal), TaylorComplex(power_ideal(ideal, 2))
        strands = TaylorStrands(low)
        for j in range(low.r + 2):
            for piece in low.support_scan(j).pieces:
                # groups stay right while entries are evicted under them
                assert piece.group == strands.group(j, piece.alpha)
                transition_between(piece, high.ext_piece(j, piece.alpha), 1)
                low.mult_map(j, piece.alpha, rng.randrange(low.n))
        for cache in caches:
            size = len(getattr(*cache))
            assert size <= limit, cache
            largest[cache] = max(largest[cache], size)
    # every cache filled up, so the bound was what held it
    assert all(size == limit for size in largest.values()), largest
