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

With no pi-torsion the inference refuses to pick between (0) and a unit
annihilator; the report says so rather than guessing.  Verdicts carry
the level count: they are evidence at that depth, tightened but never
contradicted by deeper levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .diffops import Annihilator, AnnihilatorEvidence, infer_annihilator
from .monomials import MonomialIdeal, power_ideal
from .scalars import is_prime
from .taylor import TaylorComplex, transition_between
from .textio import reisner_ideal


@dataclass(frozen=True)
class PipelineStage:
    name: str
    ok: bool
    details: dict

    def describe(self) -> dict:
        return {"name": self.name, "ok": self.ok, "details": self.details}


@dataclass(frozen=True)
class PipelineReport:
    p: int
    j: int
    levels: int
    ideal: MonomialIdeal
    stages: tuple
    evidence: Optional[AnnihilatorEvidence]
    verdict: Optional[Annihilator]

    def ok(self) -> bool:
        return self.verdict is not None and all(s.ok for s in self.stages)

    def failing_stage(self) -> Optional[str]:
        for s in self.stages:
            if not s.ok:
                return s.name
        return None

    def describe(self) -> dict:
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


def check_deadline(deadline: Optional[float], what: str):
    """Raise TimeoutError once time.monotonic() passes deadline (None: never)."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(f"{what} passed the --timeout-secs budget")


def _transition_injective_over(report, p: int) -> bool:
    """p-local injectivity of a transition map report.

    A missing induced map means one side has no integer components; the
    map is then injective exactly when the source is p-locally trivial.
    """
    if report.induced is None:
        free, exps = report.source.dvr_invariants(p)
        return free == 0 and not exps
    return report.induced.is_injective_localized(p)


def _scan_levels(complexes: dict, j: int, p: int, box, deadline) -> tuple:
    levels = []
    support = {}
    kills = {}
    frees = {}
    for ell, tc in sorted(complexes.items()):
        check_deadline(deadline, f"level {ell} support scan")
        scan = tc.support_scan(j, box=box)
        found = []
        free_total = 0
        exp_top = 0
        for piece in scan.pieces:
            free, exps = piece.dvr_invariants(p)
            if free == 0 and not exps:
                continue
            found.append((piece.alpha, free, exps))
            free_total += free
            if exps:
                exp_top = max(exp_top, exps[-1])
        support[ell] = [alpha for alpha, _, _ in found]
        frees[ell] = free_total
        kills[ell] = None if free_total else exp_top
        levels.append(
            {
                "level": ell,
                "box": [list(iv) for iv in scan.box],
                "degrees_scanned": scan.degrees_scanned,
                "support_size": len(found),
                "support": [
                    {
                        "alpha": list(alpha),
                        "free_rank": free,
                        "pi_exponents": list(exps),
                    }
                    for alpha, free, exps in found
                ],
                "free_rank_total": free_total,
                "kill_exponent": kills[ell],
                "complete_support": scan.complete_support(),
            }
        )
    return levels, support, kills, frees


def annihilator_pipeline(
    ideal: MonomialIdeal,
    p: int = 2,
    j: int = 4,
    levels: int = 3,
    box=None,
    deadline: Optional[float] = None,
) -> PipelineReport:
    """Run the three evidence stages for Ext^j of the power-ideal system.

    deadline is a time.monotonic() value; past it the run stops with
    TimeoutError between levels.
    """
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    complexes = {}
    for ell in range(1, levels + 1):
        check_deadline(deadline, f"building level {ell}")
        complexes[ell] = TaylorComplex(power_ideal(ideal, ell))

    level_details, support, kills, frees = _scan_levels(complexes, j, p, box, deadline)
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
        pairs = []
        all_injective = True
        for ell in range(1, levels):
            check_deadline(deadline, f"level {ell} transitions")
            low, high = complexes[ell], complexes[ell + 1]
            transitions = []
            for k, alpha in enumerate(support[ell]):
                rep = transition_between(low, high, ell, j, alpha, check_chain=k == 0)
                inj = _transition_injective_over(rep, p)
                if not inj:
                    all_injective = False
                transitions.append({"alpha": list(alpha), "injective": inj})
            pairs.append(
                {
                    "level": ell,
                    "checked": len(transitions),
                    "all_injective": all(t["injective"] for t in transitions),
                    "transitions": transitions,
                }
            )
        details2: dict = {"pairs": pairs}
        if levels == 1:
            details2["note"] = "single level: no transition maps to check"
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


def reisner_pipeline(p: int = 2, levels: int = 3) -> PipelineReport:
    """The bundled ten-generator ideal at j = 4."""
    return annihilator_pipeline(reisner_ideal(), p=p, j=4, levels=levels)
