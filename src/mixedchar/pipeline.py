"""Annihilator determination for the colimit of Ext along power ideals.

The direct limit of Ext^j(A/I_ell, A) over ell computes the local
cohomology of A supported on I, and over the p-local base its
annihilator is differentially stable, hence (1), (pi^e), or (0).  Three
stages assemble the finite-level evidence:

  graded_support        scans every level with a shell certificate and
                        extracts the p-local support and kill exponents,
  transition_injectivity verifies the comparison maps embed each level's
                        support into the next, p-locally,
  colimit_conclusion    feeds the evidence to the annihilator inference.

The transition subcommand runs the same build_levels, scan_levels and
check_transitions, so a transition is judged injective in one place
(_transition_injective_over).  It is judged once per cell of degrees that
share their source and target groups, not once per degree; where the
next level's nerve is the same complex the map is the identity, read
with no basis.

With no pi-torsion the inference refuses to pick between (0) and a unit
annihilator; the report says so rather than guessing.  Verdicts carry
the level count: they are evidence at that depth, tightened but never
contradicted by deeper levels.
"""

from __future__ import annotations

from .diffops import Annihilator, AnnihilatorEvidence, infer_annihilator
from .monomials import MonomialIdeal, power_ideal
from .scalars import is_prime
from .subsets import check_deadline
from .taylor import (
    GradedExtPiece,
    ScanPieces,
    TaylorComplex,
    degree_count,
    degree_rows,
    dvr_invariants,
    require_chain_map,
    transition_between,
)


class PipelineStage:
    __slots__ = ("name", "ok", "details")

    def __init__(self, name: str, ok: bool, details: dict):
        self.name = name
        self.ok = ok
        self.details = details

    def describe(self) -> dict:
        return {"name": self.name, "ok": self.ok, "details": self.details}


class PipelineReport:
    __slots__ = ("p", "j", "levels", "ideal", "stages", "evidence", "verdict")

    def __init__(
        self,
        p: int,
        j: int,
        levels: int,
        ideal: MonomialIdeal,
        stages: tuple,
        evidence: AnnihilatorEvidence | None,
        verdict: Annihilator | None,
    ):
        self.p = p
        self.j = j
        self.levels = levels
        self.ideal = ideal
        self.stages = stages
        self.evidence = evidence
        self.verdict = verdict

    def ok(self) -> bool:
        return self.verdict is not None and all(s.ok for s in self.stages)

    def failing_stage(self) -> str | None:
        for s in self.stages:
            if not s.ok:
                return s.name
        return None

    def describe(self) -> dict:
        """The report body.  Each level's support is a reports.Rows, not a
        list: reports.encode writes it, the stdlib json module cannot."""
        return {
            "p": self.p,
            "j": self.j,
            "levels": self.levels,
            "ideal": {
                "vars": self.ideal.n,
                "generators": [list(e) for e in self.ideal.gens],
            },
            "stages": [s.describe() for s in self.stages],
            "verdict": None if self.verdict is None else self.verdict.tag(),
            "ok": self.ok(),
        }


def build_levels(ideal: MonomialIdeal, p: int, levels: int) -> dict:
    """The power ideals' complexes by level, once p is known to be prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    complexes = {}
    for ell in range(1, levels + 1):
        check_deadline(f"building level {ell}")
        complexes[ell] = TaylorComplex(power_ideal(ideal, ell))
    return complexes


def _transition_injective_over(report, p: int) -> bool:
    """p-local injectivity of a transition PieceMap.

    An identity (the target's complex is the source's, at the same card)
    is injective for every p, with no basis built.  A missing induced map
    means one side has no integer components; the map is then injective
    exactly when the source is p-locally trivial.
    """
    if report.identity:
        return True
    induced = report.induced
    if induced is None:
        free, exps = dvr_invariants(report.source.group, p)
        return free == 0 and not exps
    return induced.is_injective_localized(p)


def scan_levels(complexes: dict, j: int, p: int, box) -> tuple:
    """(per-level details, p-local support, kill exponent, free rank) by level.

    The support at a level is the scan's products that survive p-locally,
    kept as products: a ScanPieces view, ascending in alpha, that builds a
    piece only when one is read.  The degrees of a product share their
    group, so the p-local invariants are read once per product, and the
    details list the support as Rows whose free_rank and pi_exponents are
    one dict per product, checking the run budget after each product's
    invariants and every 1024 entries as the Rows are encoded.
    """
    levels = []
    support = {}
    kills = {}
    frees = {}
    for ell, tc in sorted(complexes.items()):
        scan = tc.support_scan(j, box=box)
        what = f"level {ell} support"
        kept = []
        rows = []
        size = free_total = exp_top = 0
        for cell in scan.products:
            free, exps = dvr_invariants(cell[1], p)
            check_deadline(what)
            if free == 0 and not exps:
                continue
            count = degree_count(cell[0])
            kept.append(cell)
            rows.append((cell[0], {"free_rank": free, "pi_exponents": list(exps)}))
            size += count
            free_total += free * count
            if exps:
                exp_top = max(exp_top, exps[-1])
        support[ell] = ScanPieces(j, kept)
        frees[ell] = free_total
        kills[ell] = None if free_total else exp_top
        levels.append(
            {
                "level": ell,
                "box": [list(iv) for iv in scan.box],
                "degrees_scanned": scan.degrees_scanned,
                "support_size": size,
                "support": degree_rows(rows, what),
                "free_rank_total": free_total,
                "kill_exponent": kills[ell],
                "complete_support": scan.complete_support(),
            }
        )
    return levels, support, kills, frees


def check_transitions(complexes: dict, support: dict, p: int) -> list:
    """Per level ell below the last complex, whether the transition to
    level ell + 1 is p-locally injective at each degree of support[ell].

    The chain map is checked once per level pair.  Each product of
    support[ell] is cut at level ell + 1's breakpoint classes
    (TaylorComplex.ext_cells), so every degree of a cell has one source
    and one target (group, complex, card), and the map is decided once per
    cell by _transition_injective_over, on the pieces at the cell's first
    degree.  A scanned next level and the transition subcommand's
    unscanned top level take the same route.  transitions lists every
    degree as reports.Rows keyed by alpha, with one {"injective": ...}
    tail per answer, ascending in alpha in whatever order the cells come
    (degree_rows), checking the run budget once per cell and every 1024
    entries as the list is encoded.
    """
    pairs = []
    for ell in range(1, len(complexes)):
        low, high = complexes[ell], complexes[ell + 1]
        j, products = support[ell].j, support[ell].products
        if products:
            require_chain_map(low, high)
        what = f"level {ell} transitions"
        answers = {False: {"injective": False}, True: {"injective": True}}
        cells = []
        for ranges, *source in products:
            for cut, *target in high.ext_cells(j, ranges, what):
                alpha = tuple(values[0] for values in cut)
                rep = transition_between(
                    GradedExtPiece(j, alpha, *source), GradedExtPiece(j, alpha, *target)
                )
                cells.append((cut, answers[_transition_injective_over(rep, p)]))
        pairs.append(
            {
                "level": ell,
                "checked": sum(degree_count(cell[0]) for cell in cells),
                "all_injective": all(cell[1]["injective"] for cell in cells),
                "transitions": degree_rows(cells, what),
            }
        )
    return pairs


def annihilator_pipeline(
    ideal: MonomialIdeal, p: int = 2, j: int = 4, levels: int = 3, box=None
) -> PipelineReport:
    """Run the three evidence stages for Ext^j of the power-ideal system.

    Past the run budget (subsets.budget) it stops with TimeoutError,
    checked between levels and inside each support scan.
    """
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")
    complexes = build_levels(ideal, p, levels)
    level_details, support, kills, frees = scan_levels(complexes, j, p, box)
    complete = all(d["complete_support"] for d in level_details)
    # the level-one kill bound must persist at every deeper level
    consistent = None
    if all(k is not None for k in kills.values()):
        consistent = all(k <= kills[1] for k in kills.values())
    stage1 = PipelineStage(
        "graded_support",
        complete and consistent is not False,
        {
            "levels": level_details,
            "complete_support": complete,
            "kill_consistent_with_level_one": consistent,
        },
    )
    stages = [stage1]

    evidence = None
    verdict = None
    if stage1.ok:
        pairs = check_transitions(complexes, support, p)
        details2: dict = {"pairs": pairs}
        if levels == 1:
            details2["note"] = "single level: no transition maps to check"
        all_injective = all(pair["all_injective"] for pair in pairs)
        stage2 = PipelineStage("transition_injectivity", all_injective, details2)
        stages.append(stage2)

        if stage2.ok:
            nonzero = any(len(v) > 0 for v in support.values())
            if any(f > 0 for f in frees.values()):
                kill = None
            else:
                kill = max(kills.values()) or None
            evidence = AnnihilatorEvidence(
                p=p,
                nonzero=nonzero,
                kill_exponent=kill if nonzero else None,
            )
            verdict = infer_annihilator(evidence)
            details3 = {
                "evidence": {
                    "nonzero": evidence.nonzero,
                    "kill_exponent": evidence.kill_exponent,
                    "infinite_type_witness": evidence.infinite_type_witness,
                },
                "verdict": verdict.tag(),
                "status": f"evidence-at-level-{levels}",
            }
            if verdict.kind == "inconclusive":
                details3["note"] = (
                    "no pi-power kills the computed levels: "
                    "annihilator (0) or undetermined at this evidence level"
                )
            stages.append(PipelineStage("colimit_conclusion", True, details3))

    return PipelineReport(
        p=p,
        j=j,
        levels=levels,
        ideal=ideal,
        stages=tuple(stages),
        evidence=evidence,
        verdict=verdict,
    )
