"""The benchmark's workloads: fixed CLI operations ("ops"), their inputs,
and the checks that decide whether one op's report is correct.

Every input reaches the CLI on standard input, so reports name their
source "<stdin>".  The ten cubics and the RP^2 facets are kept here rather
than read from the repository's fixture trees, so the benchmark does not
depend on where (or whether) the package ships its fixtures.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

REISNER_IDEAL = """\
vars 6
1 1 1 0 0 0
1 1 0 1 0 0
1 0 1 0 1 0
1 0 0 1 0 1
1 0 0 0 1 1
0 1 1 0 0 1
0 1 0 1 1 0
0 1 0 0 1 1
0 0 1 1 1 0
0 0 1 1 0 1
"""

RP2_FACETS = """\
vertices 6
0 1 4
0 1 5
0 2 3
0 2 5
0 3 4
1 2 3
1 2 4
1 3 5
2 4 5
3 4 5
"""

WORKLOADS = ("socle-cold", "pipeline-deep", "complexes-radical")

# sha256 of each fixed op's report, pinned from the reports the package
# produced when this benchmark was defined.  A fixed input has one correct
# report, byte for byte.
PINNED = {
    "scan-socle": "83756484551f2551eaf6ca9a865177bf21a651f65e60e687c5ff88d7c4e818f5",
    "pipeline-level4": "7103d961940444cd46bb4a041df7797c3eb33f09c07eb83c47df9690a473e12f",
    "radical-grlex": "a16e567f4c0ee8ad1489f664d99a743449f5ce52edfa7327b1c3196a5bd389c3",
    "radical-lex": "9637331269ed955a42570610b0dee0674c03f11f985db3e5f90f7a29b6bdb01a",
    "rp2-simplicial": "71d4be5b5eebfbdbefd90f3de5fac03a015f32e9db330429f6dc5315417e553f",
    "rp2-hochster": "c6719e9683b1a49aa3742eb28f0d427d54be98fd250adc4a51ac2d6f198b47ef",
}

# Generated complexes per round of the "complexes" workload: (vertices,
# face count to reach, prime for `simplicial --p`).  Facets of 4..6 random
# vertices are added until the complex has at least that many faces.  Many
# mid-sized complexes rather than a few large ones keep the cost of a round
# nearly independent of the seed.
COMPLEX_SCHEDULE = tuple((14 + k % 3, 300, 2 + k % 2) for k in range(8))
FACET_SIZES = (4, 6)


@dataclass
class Op:
    """One CLI call: its arguments, its standard input, and how to check it."""

    name: str
    argv: list
    stdin: str = ""
    claims: tuple = ()
    digest: Optional[str] = None
    check: Optional[Callable[[dict], list]] = None
    timeout: float = 60.0
    meta: dict = field(default_factory=dict)


def report_problems(op: Op, rc: int, out: bytes) -> list:
    """Why an op's result is wrong; an empty list means it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    digest = hashlib.sha256(out).hexdigest()
    if op.digest is not None and digest != op.digest:
        problems.append(f"report sha256 {digest[:16]}... is not the pinned {op.digest[:16]}...")
    try:
        report = json.loads(out)
    except ValueError as err:
        return problems + [f"report is not JSON: {err}"]
    status = {c["id"]: c["status"] for c in report.get("claims", [])}
    for cid in op.claims:
        if not str(status.get(cid, "missing")).startswith("verified"):
            problems.append(f"claim {cid}: {status.get(cid, 'missing')}")
    if op.check is not None:
        problems.extend(op.check(report))
    return problems


def p_factor_count(group: dict, p: int) -> int:
    return sum(1 for d in group["torsion"] if d % p == 0)


def simplicial_problems(report: dict, p: int) -> list:
    """Universal coefficients and the Euler characteristic on a cohomology table.

    dim H^i(F_p) = rank H^i(Z) + #p-factors(H^i) + #p-factors(H^(i+1)),
    dim H^i(Q) = rank H^i(Z), and sum (-1)^i dim H^i(Q) is the reduced
    Euler characteristic.
    """
    results = report["results"]
    tables = results["cohomology"]
    z, q, fp = tables["Z"], tables["Q"], tables[f"F{p}"]
    problems = []
    trivial = {"rank": 0, "torsion": []}
    for spot in sorted(z, key=int):
        above = z.get(str(int(spot) + 1), trivial)
        expect = z[spot]["rank"] + p_factor_count(z[spot], p) + p_factor_count(above, p)
        if fp.get(spot) != expect:
            problems.append(f"F{p} dim at {spot} is {fp.get(spot)}, universal coefficients give {expect}")
        if q.get(spot) != z[spot]["rank"]:
            problems.append(f"Q dim at {spot} is {q.get(spot)}, Z rank is {z[spot]['rank']}")
    euler = sum(dim if int(spot) % 2 == 0 else -dim for spot, dim in q.items())
    if euler != results["reduced_euler_characteristic"]:
        problems.append(
            f"alternating sum of Q dims {euler} != reduced Euler characteristic "
            f"{results['reduced_euler_characteristic']}"
        )
    return problems


def hochster_problems(report: dict, dim: int) -> list:
    """The top local cohomology of a face ring sits at dim + 1, for every field."""
    problems = []
    for name, levels in sorted(report["results"]["nonzero_levels"].items()):
        if not levels or max(levels) != dim + 1:
            problems.append(f"{name} local cohomology levels {levels}, top should be {dim + 1}")
    return problems


def random_complex(rng: random.Random, n: int, target_faces: int) -> tuple:
    """Facets of random size until the complex has target_faces faces.

    Returns (facet text for the CLI, facet count, face count, dimension).
    """
    faces = {0}
    facets = []
    lo, hi = FACET_SIZES
    while len(faces) < target_faces:
        facet = sorted(rng.sample(range(n), rng.randint(lo, hi)))
        mask = sum(1 << v for v in facet)
        sub = mask
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
        facets.append(facet)
    text = f"vertices {n}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)
    dim = max(len(f) for f in facets) - 1
    return text, len(facets), len(faces), dim


def complex_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for k, (n, target, p) in enumerate(COMPLEX_SCHEDULE):
        text, nfacets, nfaces, dim = random_complex(rng, n, target)
        meta = {"vertices": n, "facets": nfacets, "faces": nfaces, "dim": dim}
        ops.append(
            Op(
                f"complex{k}-simplicial",
                ["simplicial", "--facets", "-", "--p", str(p)],
                text,
                check=lambda r, p=p: simplicial_problems(r, p),
                meta=meta,
            )
        )
        ops.append(
            Op(
                f"complex{k}-hochster",
                ["hochster", "--facets", "-"],
                text,
                check=lambda r, dim=dim: hochster_problems(r, dim),
                meta=meta,
            )
        )
    rp2 = {"vertices": 6, "facets": 10, "faces": 32, "dim": 2}
    ops.append(
        Op(
            "rp2-simplicial",
            ["simplicial", "--facets", "-", "--p", "2"],
            RP2_FACETS,
            claims=("projective-plane-cohomology",),
            digest=PINNED["rp2-simplicial"],
            check=lambda r: simplicial_problems(r, 2),
            meta=rp2,
        )
    )
    ops.append(
        Op(
            "rp2-hochster",
            ["hochster", "--facets", "-"],
            RP2_FACETS,
            claims=("projective-plane-local-cohomology",),
            digest=PINNED["rp2-hochster"],
            check=lambda r: hochster_problems(r, 2),
            meta=rp2,
        )
    )
    return ops


def radical_ops() -> list:
    return [
        Op(
            "radical-grlex",
            ["radical-check"],
            claims=("four-element-radical",),
            digest=PINNED["radical-grlex"],
            timeout=30.0,
        ),
        Op(
            "radical-lex",
            ["radical-check", "--order", "lex"],
            claims=("four-element-radical",),
            digest=PINNED["radical-lex"],
            timeout=30.0,
        ),
    ]


def build_ops(workload: str, seed: int) -> list:
    """The op list of one round; only the generated complexes depend on the seed."""
    if workload == "socle-cold":
        return [
            Op(
                "scan-socle",
                ["scan", "--ideal", "-", "--j", "4", "--box", "-1:0"],
                REISNER_IDEAL,
                claims=("ext4-socle",),
                digest=PINNED["scan-socle"],
            )
        ]
    if workload == "pipeline-deep":
        return [
            Op(
                "pipeline-level4",
                ["pipeline", "--ideal", "-", "--p", "2", "--levels", "4"],
                REISNER_IDEAL,
                claims=("levelwise-torsion", "transition-injective", "top-annihilator"),
                digest=PINNED["pipeline-level4"],
                check=level_four_problems,
                timeout=150.0,
            )
        ]
    if workload == "complexes-radical":
        return complex_ops(seed) + radical_ops()
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def level_four_problems(report: dict) -> list:
    status = {c["id"]: c["status"] for c in report["claims"]}
    want = "verified (evidence-at-level-4)"
    if status.get("top-annihilator") != want:
        return [f"top-annihilator status {status.get('top-annihilator')!r}, expected {want!r}"]
    return []
