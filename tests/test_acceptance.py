"""Acceptance gate: one test per shipped guarantee, exact equality throughout.

Each test is a single numbered criterion, so a verbose run prints one
pass/fail line per criterion.  Stated runtime budgets are asserted, not
just hoped for; everything else is exact arithmetic and must match bit
for bit.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from mixedchar.cli import main
from mixedchar.diffops import classify_d_submodule
from mixedchar.filtrations import (
    build_filtration_localization,
    build_filtration_quotient,
    check_axioms,
    finite_type_and_verdict,
    inject_shift_fault,
    inject_tail_fault,
)
from mixedchar.groebner import sv_containment_check
from mixedchar.monomials import power_ideal
from mixedchar.polynomials import Polynomial
from mixedchar.scalars import DVR, PrimeField, RationalField
from mixedchar.simplicial import (
    SimplicialComplex,
    hochster_local_cohomology_piece,
    hochster_nonzero_levels,
    reduced_cohomology,
)
from mixedchar.taylor import TaylorComplex, require_chain_map, transition_between
from mixedchar.textio import reisner_ideal, rp2_facets

from .oracles import d_closure_constant_valuation, is_injective

REPO = Path(__file__).resolve().parents[1]
REISNER = str(REPO / "src" / "mixedchar" / "fixtures" / "reisner.ideal")

Z_MOD_2 = {"rank": 0, "torsion": [2]}


def run_cli(capsys, *argv):
    start = time.monotonic()
    code = main(list(argv))
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    return code, json.loads(out), elapsed


def the_claim(data, cid):
    matches = [c for c in data["claims"] if c["id"] == cid]
    assert len(matches) == 1
    return matches[0]


def test_criterion_1_ext4_socle_scan(capsys):
    code, data, elapsed = run_cli(capsys, "scan", "--ideal", REISNER, "--j", "4",
                                  "--box", "-1:0")
    assert code == 0
    pieces = data["results"]["pieces"]
    assert len(pieces) == 1
    assert pieces[0]["alpha"] == [-1] * 6
    assert pieces[0]["group"] == Z_MOD_2
    assert data["results"]["shell"] == {"checked": True, "clean": True, "offenders": []}
    maps = data["results"]["mult_maps"]
    assert len(maps) == 6 and all(m["zero"] for m in maps)
    assert the_claim(data, "ext4-socle")["status"] == "verified"
    assert elapsed <= 120


def test_criterion_2_level_two_support():
    start = time.monotonic()
    tc = TaylorComplex(power_ideal(reisner_ideal(), 2))
    scan = tc.support_scan(4, box=((-2, 0),) * 6)
    assert len(scan.pieces) == 64
    for piece in scan.pieces:
        assert piece.group.describe() == Z_MOD_2
        assert piece.dvr_invariants(2) == (0, (1,))
    assert time.monotonic() - start <= 900


def test_criterion_3_transition_and_pipeline_verdict(capsys):
    ideal = reisner_ideal()
    low = TaylorComplex(ideal)
    high = TaylorComplex(power_ideal(ideal, 2))
    support = low.support_scan(4).pieces
    assert support
    require_chain_map(low, high)
    for piece in support:
        rep = transition_between(piece, high.ext_piece(4, piece.alpha), 1)
        assert is_injective(rep.induced) and rep.induced.is_injective_localized(2)
    code, data, _ = run_cli(capsys, "pipeline", "--p", "2", "--levels", "2",
                            "--ideal", REISNER)
    assert code == 0
    claim = the_claim(data, "top-annihilator")
    assert claim["result"] == "Ann = (2)"
    assert claim["status"] == "verified (evidence-at-level-2)"


def test_criterion_4_low_degrees_and_order_invariance():
    ideal = reisner_ideal()
    box = ((-1, 0),) * 6
    assert TaylorComplex(ideal).support_scan(0, box=box).pieces == ()

    def profile(order=None):
        scan = TaylorComplex(ideal, generator_order=order).support_scan(1, box=box)
        return sorted((p.alpha, p.group.describe()["rank"],
                       p.group.describe()["torsion"]) for p in scan.pieces)

    assert profile() == profile(order=[3, 1, 4, 0, 9, 2, 6, 8, 7, 5])


def test_criterion_5_classifier_oracle_and_worked_examples():
    start = time.monotonic()
    rng = random.Random(1729)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        ring = DVR(p)
        n = rng.randint(1, 3)
        gens_terms = []
        for _ in range(rng.randint(1, 3)):
            spec = {}
            for _ in range(rng.randint(1, 3)):
                u = 0
                while u == 0 or u % p == 0:
                    u = rng.randint(-9, 9)
                total = rng.randint(0, 4)
                cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
                bounds = [0] + cuts + [total]
                e = tuple(bounds[i + 1] - bounds[i] for i in range(n))
                spec[e] = spec.get(e, 0) + u * p ** rng.randint(0, 5)
            spec = {e: c for e, c in spec.items() if c}
            if spec:
                gens_terms.append(spec)
        if not gens_terms:
            gens_terms = [{(0,) * n: p}]
        gens = [
            Polynomial(ring, n, {e: ring.from_int(c) for e, c in spec.items()})
            for spec in gens_terms
        ]
        assert classify_d_submodule(gens).ell == d_closure_constant_valuation(
            gens_terms, n, p
        )

    R5 = DVR(5)
    unit_case = Polynomial(R5, 2, {(1, 0): R5.from_int(3), (0, 1): R5.from_int(5)})
    assert classify_d_submodule([unit_case]).ell == 0

    R2 = DVR(2)
    pair = [
        Polynomial(R2, 1, {(0,): R2.from_int(8)}),
        Polynomial(R2, 1, {(1,): R2.from_int(128)}),
    ]
    assert classify_d_submodule(pair).ell == 3

    mixed = Polynomial(R2, 2, {(1, 1): R2.from_int(4), (3, 0): R2.from_int(32)})
    assert classify_d_submodule([mixed]).ell == 2
    assert d_closure_constant_valuation([{(1, 1): 4, (3, 0): 32}], 2, 2) == 2
    assert time.monotonic() - start <= 60


def test_criterion_6_projective_plane_cohomology():
    start = time.monotonic()
    n, facets = rp2_facets()
    cx = SimplicialComplex(n, facets)
    z = reduced_cohomology(cx, "Z")
    assert z[1].describe() == {"rank": 0, "torsion": []}
    assert z[2].describe() == Z_MOD_2
    dims2 = reduced_cohomology(cx, 2)
    assert dims2[1] == 1

    def p_torsion(spot, p):
        group = z.get(spot)
        if group is None:
            return 0
        return sum(1 for d in group.describe()["torsion"] if d % p == 0)

    for p in (2, 3):
        dims = reduced_cohomology(cx, p)
        for spot, dim in dims.items():
            rank = z[spot].describe()["rank"] if spot in z else 0
            assert dim == rank + p_torsion(spot, p) + p_torsion(spot + 1, p)

    assert hochster_nonzero_levels(cx, 3) == (3,)
    assert hochster_local_cohomology_piece(cx, 2, (0,) * 6, 2) == 1
    assert time.monotonic() - start <= 30


def test_criterion_7_filtration_verdicts_and_faults():
    for ell in (1, 2, 3):
        spec = build_filtration_quotient(ell)
        assert check_axioms(spec).ok()
        verdict = finite_type_and_verdict(spec)
        assert verdict.ell_bound == ell and verdict.kill_verified

    ring = DVR(2)
    one = Polynomial.constant(ring, 2, ring.one())
    x = Polynomial.variable(ring, 2, 0)
    for f in (x, one.scale(ring.uniformizer), x.scale(ring.pi_power(2))):
        spec = build_filtration_localization(f)
        assert check_axioms(spec).ok()
        verdict = finite_type_and_verdict(spec)
        assert verdict.annihilator == "(0)"
        assert verdict.survivor_powers_checked > 0

    shifted = inject_shift_fault(build_filtration_quotient(2))
    assert check_axioms(shifted).failed_conditions() == ((0, 3),)
    tailed = inject_tail_fault(build_filtration_quotient(1))
    assert check_axioms(tailed).failed_conditions() == ((0, 5),)


def test_criterion_8_four_element_radical_containment():
    start = time.monotonic()
    for ring in (PrimeField(2), RationalField()):
        out = sv_containment_check(ring, deadline=start + 600)
        assert out["generators_in_ideal"] == [True] * 4
        assert out["radical_members"] == [True] * 10
        assert out["all_ok"] is True
    assert time.monotonic() - start <= 600


def test_criterion_9_property_suite_standalone():
    from .test_properties import CASES

    assert sum(CASES.values()) >= 1000
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "failed" not in proc.stdout
