"""Command line entry point: one deterministic JSON report per run.

Subcommands
    ext            one graded Ext piece of a monomial quotient
    scan           all nonzero Ext pieces of one cohomological degree in a box
    transition     p-local injectivity of the maps between consecutive ideal powers
    pipeline       the staged annihilator computation over the p-local base
    dsub           classify the differential submodule generated by polynomials
    saturate       strip pi powers from term generators ((I : pi^infinity))
    simplicial     face counts and reduced cohomology of a facet complex
    hochster       graded local cohomology of a face ring via links
    filtration     build a layer chain, check its axioms, report the verdict
    radical-check  the four-element up-to-radical generation certificate

Exit codes: 0 success, 1 usage or input error, 2 when a checked claim
failed, meaning the computation ran and did not reproduce the statement.

Reports are byte-identical across runs for identical inputs.  The
tuning flag --timeout-secs is never echoed into the report; its budget
starts once the arguments are parsed and covers encoding the report, and
a run past it writes nothing to standard output.  Wall-clock seconds go
to standard error only, while the report's "timing" field carries
deterministic work counters.

transition and pipeline share their level, scan and transition code:
both work over the p-local base for --p (a prime), so a transition
report's supports and injectivity are the ones pipeline computes.

File arguments accept "-" for standard input.  Formats are documented in
textio; generator lists may omit the "vars n" header, in which case the
variable count is inferred from the largest index present.
"""

from __future__ import annotations

import argparse
import sys
import time

from .diffops import classify_d_submodule, pi_saturate
from .filtrations import (
    build_filtration_localization,
    build_filtration_quotient,
    check_axioms,
    finite_type_and_verdict,
    inject_shift_fault,
    inject_tail_fault,
)
from .groebner import sv_containment_check
from .pipeline import annihilator_pipeline, build_levels, check_transitions, scan_levels
from .reports import Report, check
from .scalars import DVR, PrimeField, RationalField, is_prime
from .simplicial import (
    SimplicialComplex,
    hochster_local_cohomology_piece,
    hochster_nonzero_levels,
    reduced_cohomology,
)
from .subsets import budget, check_deadline
from .taylor import TaylorComplex
# the layer trace (perfbench/spans.py) wraps this name in this module
from .taylor import transition_between  # noqa: F401
from .textio import (
    load_facets_text,
    load_generators_text,
    load_ideal_text,
    parse_polynomial,
    reisner_ideal,
    rp2_facets,
    variable_count,
)

REISNER_BOX = ((-1, 0),) * 6
REISNER_SOCLE = (-1,) * 6


class UsageError(Exception):
    pass


# flags whose values may begin with '-' (negative degrees, intervals);
# fused to --flag=value so argparse does not read them as options
_VALUE_FLAGS = ("--alpha", "--box", "--degree", "--f")


def _fuse_values(argv: list) -> list:
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_source(path: str):
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, encoding="utf-8") as fh:
        return fh.read(), path


def _load_ideal(path: str):
    text, source = _read_source(path)
    return load_ideal_text(text, source=source), source


def _load_facets(path: str):
    text, source = _read_source(path)
    n, facets = load_facets_text(text, source=source)
    return SimplicialComplex(n, facets), source


def _load_generators(path: str, ring):
    text, source = _read_source(path)
    return load_generators_text(text, ring, source=source), source


def _parse_box(text: str, n: int):
    pairs = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        try:
            if not sep:
                raise ValueError
            pairs.append((int(lo), int(hi)))
        except ValueError:
            raise ValueError(f"bad box interval {part!r}, expected 'lo:hi'") from None
    if len(pairs) == 1 and n > 1:
        pairs = pairs * n
    if len(pairs) != n:
        raise ValueError(f"box has {len(pairs)} intervals, ideal has {n} variables")
    return tuple(pairs)


def _parse_alpha(text: str, n: int):
    try:
        alpha = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad degree {text!r}, expected comma-separated integers") from None
    if len(alpha) != n:
        raise ValueError(f"degree has {len(alpha)} entries, expected {n}")
    return alpha


def cmd_ext(ns) -> Report:
    if not is_prime(ns.p):
        raise ValueError(f"{ns.p} is not prime")
    ideal, source = _load_ideal(ns.ideal)
    alpha = _parse_alpha(ns.alpha, ideal.n)
    check_deadline("building the Taylor complex")
    piece = TaylorComplex(ideal).ext_piece(ns.j, alpha)
    return Report(
        command="ext",
        inputs={"ideal": source, "j": ns.j, "alpha": list(alpha), "p": ns.p},
        results={"piece": piece.describe(ns.p)},
        claims=(),
        timing={"degrees_computed": 1},
    )


def cmd_scan(ns) -> Report:
    if not is_prime(ns.p):
        raise ValueError(f"{ns.p} is not prime")
    ideal, source = _load_ideal(ns.ideal)
    tc = TaylorComplex(ideal)
    box = _parse_box(ns.box, ideal.n) if ns.box is not None else tc.default_box()
    scan = tc.support_scan(ns.j, box=box, shell=not ns.no_shell)
    results = scan.describe(ns.p)
    claims = []
    timing = {"degrees_scanned": scan.degrees_scanned, "pieces": len(scan.pieces)}
    socle_scope = (
        ns.j == 4
        and box == REISNER_BOX
        and scan.shell_checked
        and ideal == reisner_ideal()
    )
    if socle_scope:
        socle = (
            len(scan.pieces) == 1
            and scan.pieces[0].alpha == REISNER_SOCLE
            and scan.pieces[0].group.describe() == {"rank": 0, "torsion": [2]}
            and scan.shell_clean
        )
        maps = [tc.mult_map(4, REISNER_SOCLE, i) for i in range(6)] if socle else []
        results["mult_maps"] = [m.describe() for m in maps]
        timing["mult_maps_checked"] = len(maps)
        claims.append(check("ext4-socle", socle and all(m.zero for m in maps)))
    return Report(
        command="scan",
        inputs={
            "ideal": source,
            "j": ns.j,
            "box": [list(iv) for iv in box],
            "shell": not ns.no_shell,
            "p": ns.p,
        },
        results=results,
        claims=tuple(claims),
        timing=timing,
    )


def cmd_transition(ns) -> Report:
    if ns.levels < 2:
        raise ValueError("need --levels >= 2 to have maps between levels")
    ideal, source = _load_ideal(ns.ideal)
    complexes = build_levels(ideal, ns.p, ns.levels)
    below_top = {ell: tc for ell, tc in complexes.items() if ell < ns.levels}
    levels, support, _, _ = scan_levels(below_top, ns.j, ns.p, None)
    pairs = check_transitions(complexes, support, ns.p)
    checks = [
        {key: lv[key] for key in ("level", "support_size", "complete_support")}
        | {"transitions": pair["transitions"]}
        for lv, pair in zip(levels, pairs)
    ]
    all_injective = all(pair["all_injective"] for pair in pairs)
    complete = all(lv["complete_support"] for lv in levels)
    return Report(
        command="transition",
        inputs={"ideal": source, "j": ns.j, "levels": ns.levels, "p": ns.p},
        results={"levels": checks, "all_injective": all_injective},
        claims=(check("transition-injective", all_injective and complete, levels=ns.levels),),
        timing={
            "degrees_scanned": sum(lv["degrees_scanned"] for lv in levels),
            "transitions_checked": sum(pair["checked"] for pair in pairs),
        },
    )


def cmd_pipeline(ns) -> Report:
    ideal, source = _load_ideal(ns.ideal)
    box = _parse_box(ns.box, ideal.n) if ns.box is not None else None
    rep = annihilator_pipeline(ideal, p=ns.p, j=ns.j, levels=ns.levels, box=box)
    results = rep.describe()
    conclusive = rep.verdict is not None and rep.verdict.kind != "inconclusive"
    claims = [
        check("top-annihilator", conclusive, rep.levels,
              verdict=results["verdict"], stage=rep.failing_stage())
    ]
    stage1 = rep.stages[0]
    stage2 = next((s for s in rep.stages if s.name == "transition_injectivity"), None)
    transitions = 0 if stage2 is None else sum(p["checked"] for p in stage2.details["pairs"])
    if ns.j == 4 and ns.p == 2 and ideal.n == 6 and ideal == reisner_ideal():
        torsion_ok = stage1.ok and all(
            lv["support_size"] == lv["level"] ** 6
            and lv["free_rank_total"] == 0
            and all(s["pi_exponents"] == [1] for s in lv["support"].fields)
            for lv in stage1.details["levels"]
        )
        claims.append(check("levelwise-torsion", torsion_ok, levels=ns.levels))
        if transitions:
            claims.append(check("transition-injective", stage2.ok, levels=ns.levels))
    degrees = sum(lv["degrees_scanned"] for lv in stage1.details["levels"])
    return Report(
        command="pipeline",
        inputs={
            "ideal": source,
            "j": ns.j,
            "levels": ns.levels,
            "p": ns.p,
            "box": None if ns.box is None else [list(iv) for iv in box],
        },
        results=results,
        claims=tuple(claims),
        timing={"degrees_scanned": degrees, "transitions_checked": transitions},
    )


def cmd_dsub(ns) -> Report:
    gens, source = _load_generators(ns.gens, DVR(ns.p))
    check_deadline("classifying the differential submodule")
    verdict = classify_d_submodule(list(gens))
    return Report(
        command="dsub",
        inputs={"gens": source, "p": ns.p, "count": len(gens)},
        results={"ell": verdict.ell, "ideal": verdict.ideal_tag()},
        claims=(),
        timing={"generators": len(gens)},
    )


def cmd_saturate(ns) -> Report:
    gens, source = _load_generators(ns.gens, DVR(ns.p))
    check_deadline("saturating the generators")
    ideal = pi_saturate(list(gens))
    return Report(
        command="saturate",
        inputs={"gens": source, "p": ns.p, "count": len(gens)},
        results={
            "vars": ideal.n,
            "generators": [list(e) for e in ideal.gens],
            "unit": ideal.is_unit(),
        },
        claims=(),
        timing={"generators": len(gens)},
    )


def _is_rp2(cx: SimplicialComplex) -> bool:
    """Whether cx is the bundled six-vertex projective plane.  The fixture
    is read last, only for a complex with its vertex and face counts."""
    return (
        cx.n == 6
        and cx.face_counts() == [1, 6, 15, 10]
        and cx == SimplicialComplex(*rp2_facets())
    )


def cmd_simplicial(ns) -> Report:
    cx, source = _load_facets(ns.facets)
    coeffs = ("Z", "Q") if ns.p is None else ("Z", "Q", ns.p)
    by_coeff = reduced_cohomology(cx, coeffs)
    tables = {coeff if coeff in ("Z", "Q") else f"F{coeff}": by_coeff[coeff] for coeff in coeffs}
    results = {
        "vertices": cx.n,
        "dim": cx.dim(),
        "face_counts": cx.face_counts(),
        "reduced_euler_characteristic": cx.reduced_euler_characteristic(),
        "cohomology": {
            coeff: {str(spot): value for spot, value in sorted(table.items())}
            for coeff, table in tables.items()
        },
    }
    claims = []
    if _is_rp2(cx):
        z = tables["Z"]
        ok = all(
            z[spot].is_trivial() for spot in z if spot != 2
        ) and z.get(2) is not None and z[2].describe() == {"rank": 0, "torsion": [2]}
        claims.append(check("projective-plane-cohomology", ok))
    return Report(
        command="simplicial",
        inputs={"facets": source, "p": ns.p},
        results=results,
        claims=tuple(claims),
        timing={"faces": sum(cx.face_counts())},
    )


def cmd_hochster(ns) -> Report:
    cx, source = _load_facets(ns.facets)
    inputs = {"facets": source, "p": ns.p}
    claims = []
    if ns.i is not None and ns.degree is None:
        raise ValueError("--i needs --degree (the graded degree)")
    if ns.degree is not None:
        if ns.i is None:
            raise ValueError("--degree needs --i (the cohomological spot)")
        a = _parse_alpha(ns.degree, cx.n)
        coeff = ns.p if ns.p is not None else "Q"
        dim = hochster_local_cohomology_piece(cx, ns.i, a, coeff)
        inputs.update({"i": ns.i, "degree": list(a)})
        results = {"piece_dimension": dim, "coefficients": "Q" if ns.p is None else f"F{ns.p}"}
        timing = {"pieces": 1}
    else:
        coeffs = [("F2", 2), ("F3", 3), ("Q", "Q")] if ns.p is None else [(f"F{ns.p}", ns.p)]
        found = hochster_nonzero_levels(cx, tuple(c for _, c in coeffs))
        levels = {name: list(found[c]) for name, c in coeffs}
        results = {"nonzero_levels": levels}
        timing = {"faces": sum(cx.face_counts()), "fields": len(coeffs)}
        if ns.p is None and _is_rp2(cx):
            ok = levels == {"F2": [2, 3], "F3": [3], "Q": [3]}
            claims.append(check("projective-plane-local-cohomology", ok))
    return Report(
        command="hochster",
        inputs=inputs,
        results=results,
        claims=tuple(claims),
        timing=timing,
    )


def cmd_filtration(ns) -> Report:
    ring = DVR(ns.p)
    if ns.model == "quotient":
        if ns.ell is None:
            raise ValueError("quotient model needs --ell")
        if ns.f is not None or ns.vars is not None:
            raise ValueError("--f and --vars apply to the localization model only")
        spec = build_filtration_quotient(ns.ell, p=ns.p)
        inputs = {"model": "quotient", "ell": ns.ell, "p": ns.p}
    else:
        if ns.f is None:
            raise ValueError("localization model needs --f")
        if ns.ell is not None:
            raise ValueError("--ell applies to the quotient model only")
        n = variable_count(ns.f) if ns.vars is None else ns.vars
        f = parse_polynomial(ns.f, ring, n)
        if f.is_zero():
            raise ValueError("cannot localize at zero")
        spec = build_filtration_localization(f)
        inputs = {"model": "localization", "f": ns.f, "p": ns.p, "vars": f.n}
    inputs["fault"] = ns.fault
    if ns.fault == "shift":
        spec = inject_shift_fault(spec)
    elif ns.fault == "tail":
        spec = inject_tail_fault(spec)
    axioms = check_axioms(spec)
    results = {"spec": spec.describe(), "axioms": axioms.describe()}
    claims = [
        check("filtration-axioms", axioms.ok(), violated=list(axioms.failed_conditions()))
    ]
    if axioms.ok():
        verdict = finite_type_and_verdict(spec, axioms)
        results["verdict"] = verdict.describe()
        claims.append(check("length-verdict", True, verdict=verdict.tag()))
    tiers = len(spec.tiers)
    samples = sum(len(t.samples) for t in spec.tiers)
    return Report(
        command="filtration",
        inputs=inputs,
        results=results,
        claims=tuple(claims),
        timing={"tiers": tiers, "samples": samples},
    )


def cmd_radical_check(ns) -> Report:
    if ns.p is not None:
        fields = [PrimeField(ns.p)]
    else:
        fields = [PrimeField(2), RationalField()]
    per_field = {}
    for ring in fields:
        out = sv_containment_check(ring, order=ns.order)
        per_field[ring.name] = {
            "generators_in_ideal": out["generators_in_ideal"],
            "radical_members": out["radical_members"],
            "all_ok": out["all_ok"],
        }
    results = {"fields": per_field, "order": ns.order}
    claims = []
    if ns.p is None:
        ok = all(entry["all_ok"] for entry in per_field.values())
        claims.append(check("four-element-radical", ok))
    memberships = sum(len(e["radical_members"]) for e in per_field.values())
    return Report(
        command="radical-check",
        inputs={"p": ns.p, "order": ns.order},
        results=results,
        claims=tuple(claims),
        timing={"radical_memberships": memberships, "fields": len(fields)},
    )


def _seconds(text: str) -> float:
    """A --timeout-secs value, finite and >= 0: a nan or inf budget never passes."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected finite seconds >= 0, got {text!r}")
    return value


# name -> (help, handler, argument specs); every subcommand also takes _TUNING
COMMANDS = {
    "ext": ("one graded Ext piece", cmd_ext, (
        ("--ideal", dict(required=True, help="ideal file, or - for stdin")),
        ("--j", dict(type=int, required=True, help="cohomological degree")),
        ("--alpha", dict(required=True, help="graded degree, comma-separated")),
        ("--p", dict(type=int, default=2, help="prime for the local base ring")))),
    "scan": ("all nonzero Ext pieces in a degree box", cmd_scan, (
        ("--ideal", dict(required=True)),
        ("--j", dict(type=int, required=True)),
        ("--box", dict(help="intervals lo:hi, comma-separated (one per variable, or one for all)")),
        ("--no-shell", dict(action="store_true", help="skip the enlargement shell certificate")),
        ("--p", dict(type=int, default=2)))),
    "transition": ("maps between consecutive ideal powers", cmd_transition, (
        ("--ideal", dict(required=True)),
        ("--j", dict(type=int, default=4)),
        ("--levels", dict(type=int, default=2, help="check levels 1..N")),
        ("--p", dict(type=int, default=2, help="prime of the p-local base")))),
    "pipeline": ("staged annihilator computation", cmd_pipeline, (
        ("--ideal", dict(required=True)),
        ("--j", dict(type=int, default=4)),
        ("--levels", dict(type=int, default=3)),
        ("--p", dict(type=int, default=2)),
        ("--box", dict()))),
    "dsub": ("classify a differential submodule", cmd_dsub, (
        ("--gens", dict(required=True, help="generator file, or - for stdin")),
        ("--p", dict(type=int, default=2)))),
    "saturate": ("strip pi powers from term generators", cmd_saturate, (
        ("--gens", dict(required=True)),
        ("--p", dict(type=int, default=2)))),
    "simplicial": ("reduced cohomology of a facet complex", cmd_simplicial, (
        ("--facets", dict(required=True, help="facet file, or - for stdin")),
        ("--p", dict(type=int, help="also report dimensions over F_p (p prime)")))),
    "hochster": ("graded local cohomology via links", cmd_hochster, (
        ("--facets", dict(required=True)),
        ("--p", dict(type=int, help="prime p for the field F_p (default: scan F2, F3, Q)")),
        ("--i", dict(type=int, help="cohomological spot for a single piece")),
        ("--degree", dict(help="graded degree for a single piece")))),
    "filtration": ("layer chain axioms and length verdict", cmd_filtration, (
        ("--model", dict(choices=["quotient", "localization"], required=True)),
        ("--ell", dict(type=int, help="pi power for the quotient model")),
        ("--f", dict(help="element to invert for the localization model")),
        ("--vars", dict(type=int, help="variable count for parsing --f")),
        ("--p", dict(type=int, default=2)),
        ("--fault", dict(choices=["none", "shift", "tail"], default="none",
                         help="inject a deliberate axiom violation")))),
    "radical-check": ("four-element generation up to radical", cmd_radical_check, (
        ("--p", dict(type=int, help="single prime field (default: F2 and Q)")),
        ("--order", dict(choices=["grlex", "lex"], default="grlex")))),
}
_TUNING = ("--timeout-secs", dict(type=_seconds, help="give up after this much wall time"))


def build_parser(command: str | None = None) -> _Parser:
    """The parser with every subcommand, or with only the named one."""
    parser = _Parser(prog="mixedchar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, (help_text, handler, specs) in COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flag, kwargs in specs + (_TUNING,):
                sp.add_argument(flag, **kwargs)
            sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, no arguments and unknown names get the full parser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        ns = parser.parse_args(_fuse_values(argv))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    start = time.monotonic()
    try:
        # one budget, from here until the report is encoded
        with budget(ns.timeout_secs):
            report = ns.handler(ns)
            text = report.to_json()
            check_deadline("writing the report")
    except TimeoutError as err:  # an OSError subclass, so it must come first
        print(f"timeout: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    print(f"wall_seconds={time.monotonic() - start:.3f}", file=sys.stderr)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
