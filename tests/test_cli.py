"""End-to-end command line runs: exit codes, report shape, determinism."""

import argparse
import hashlib
import io
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mixedchar import cli, filtrations, groebner, intlinalg, pipeline, subsets, textio
from mixedchar.cli import main
from mixedchar.reports import Report
from mixedchar.taylor import TaylorComplex

from .conftest import RP2_FACETS, facets_text, random_facets
from .oracles import read_certificate

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "src" / "mixedchar" / "fixtures"
REISNER = str(FIXTURES / "reisner.ideal")
RP2 = str(FIXTURES / "rp2_6.facets")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out.endswith("\n")
    return code, json.loads(out), err


def claim_by_id(data, cid):
    matches = [c for c in data["claims"] if c["id"] == cid]
    assert len(matches) == 1, f"expected one {cid} claim, got {matches}"
    return matches[0]


def test_no_arguments_is_a_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert out == ""
    assert "usage:" in err


def test_unknown_value_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ext", "--ideal", REISNER, "--j", "four",
                         "--alpha", "0,0,0,0,0,0")
    assert code == 1 and out == ""


SUBCOMMANDS = (
    "ext", "scan", "transition", "pipeline", "dsub",
    "saturate", "simplicial", "hochster", "filtration", "radical-check",
)
USAGE = "usage: mixedchar [-h] subcommand ...\n"


def full_parser_help(name):
    """format_help() of one subcommand as the full parser builds it."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[name].format_help()


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_is_the_full_parsers(capsys, name):
    with pytest.raises(SystemExit) as stop:
        main([name, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == full_parser_help(name)


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(USAGE)
    listed = re.findall(r"^    (\S+)", out, re.MULTILINE)
    assert listed == list(SUBCOMMANDS)


# argparse quotes the "choose from" names up to Python 3.12 and may print
# them bare later; either form is pinned in full
CHOICES = (", ".join(map(repr, SUBCOMMANDS)), ", ".join(SUBCOMMANDS))
USAGE_ERRORS = {
    "no arguments": ((), ("the following arguments are required: subcommand",)),
    "unknown subcommand": (
        ("nosuch", "--p", "2"),
        tuple(f"argument subcommand: invalid choice: 'nosuch' (choose from {c})" for c in CHOICES),
    ),
    "missing flag": (
        ("ext", "--j", "4", "--alpha", "0,0,0,0,0,0"),
        ("the following arguments are required: --ideal",),
    ),
    "bad int": (
        ("radical-check", "--p", "two"),
        ("argument --p: invalid int value: 'two'",),
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_print_pinned_messages(capsys, case):
    argv, messages = USAGE_ERRORS[case]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err in [f"error: {m}\n{USAGE}" for m in messages]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-0.5", "soon"])
def test_timeout_rejects_values_it_would_ignore(capsys, value):
    code, out, err = run(capsys, "radical-check", "--timeout-secs", value)
    assert code == 1 and out == ""
    first, second = err.splitlines()
    assert first.startswith("error: argument --timeout-secs: ") and second == USAGE.strip()


def test_ext_socle_piece(capsys):
    code, data, err = run_json(
        capsys, "ext", "--ideal", REISNER, "--j", "4", "--alpha", "-1,-1,-1,-1,-1,-1"
    )
    assert code == 0
    assert data["results"]["piece"]["group"] == {"rank": 0, "torsion": [2]}
    assert data["results"]["piece"]["p_local"] == {"free_rank": 0, "pi_exponents": [1]}
    assert "wall_seconds=" in err


def test_scan_socle_claim_and_multiplication_maps(capsys):
    code, data, err = run_json(capsys, "scan", "--ideal", REISNER, "--j", "4")
    assert code == 0
    claim = claim_by_id(data, "ext4-socle")
    assert claim["status"] == "verified"
    assert "six zero maps out" in claim["result"]
    maps = data["results"]["mult_maps"]
    assert len(maps) == 6 and all(m["zero"] for m in maps)
    assert data["timing"]["degrees_scanned"] == 4096


def test_scan_degree_zero_is_empty(capsys):
    code, data, _ = run_json(
        capsys, "scan", "--ideal", REISNER, "--j", "0", "--box", "-1:0"
    )
    assert code == 0
    assert data["results"]["pieces"] == []
    assert data["claims"] == []


def test_scan_rejects_bad_box(capsys):
    code, out, err = run(capsys, "scan", "--ideal", REISNER, "--j", "4", "--box", "1..2")
    assert code == 1 and "bad box interval" in err
    code, out, err = run(capsys, "scan", "--ideal", REISNER, "--j", "4",
                         "--box", "-1:0,-1:0")
    assert code == 1 and "6 variables" in err


@pytest.mark.parametrize(
    "argv",
    [("scan", "--ideal", REISNER, "--j", "4", "--box", ""),
     ("pipeline", "--ideal", REISNER, "--p", "2", "--levels", "1", "--box", "")],
)
def test_empty_box_is_rejected_not_defaulted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: bad box interval '', expected 'lo:hi'\n")


def test_pipeline_certifies_the_annihilator(capsys):
    code, data, err = run_json(
        capsys, "pipeline", "--p", "2", "--levels", "2", "--ideal", REISNER
    )
    assert code == 0
    top = claim_by_id(data, "top-annihilator")
    assert top["result"] == "Ann = (2)"
    assert top["status"] == "verified (evidence-at-level-2)"
    assert claim_by_id(data, "levelwise-torsion")["status"] == "verified"
    assert claim_by_id(data, "transition-injective")["status"] == "verified"
    assert data["timing"]["transitions_checked"] == 1
    assert "--threads" not in json.dumps(data) and "timeout" not in json.dumps(data)


def test_pipeline_inconclusive_input_exits_two(capsys, tmp_path):
    path = tmp_path / "principal.ideal"
    path.write_text("vars 1\n1\n")
    code, data, _ = run_json(
        capsys, "pipeline", "--ideal", str(path), "--j", "1", "--levels", "2"
    )
    assert code == 2
    claim = claim_by_id(data, "top-annihilator")
    assert claim["status"] == "failed"
    assert claim["result"] == "Ann = undetermined"


def test_pipeline_outside_the_socle_box_fails_both_reisner_claims(capsys):
    # one level-2 support degree has a coordinate below -1, so the box
    # misses support and the graded-support stage does not certify
    code, data, _ = run_json(
        capsys, "pipeline", "--ideal", REISNER, "--p", "2", "--levels", "2", "--box", "-1:0"
    )
    assert code == 2
    assert data["claims"] == [
        {"id": "top-annihilator", "status": "failed",
         "result": "no conclusion: stage graded_support did not certify"},
        {"id": "levelwise-torsion", "status": "failed",
         "result": "levels 1..2: levelwise support not reproduced"},
    ]


def test_pipeline_reports_a_failed_transition(capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "_transition_injective_over", lambda report, p: False)
    code, data, _ = run_json(
        capsys, "pipeline", "--ideal", REISNER, "--p", "2", "--levels", "2"
    )
    assert code == 2
    assert data["claims"] == [
        {"id": "top-annihilator", "status": "failed",
         "result": "no conclusion: stage transition_injectivity did not certify"},
        {"id": "levelwise-torsion", "status": "verified",
         "result": "levels 1..2: ell^6 pieces, all Z/2"},
        {"id": "transition-injective", "status": "failed",
         "result": "levels 1..2: injectivity not established"},
    ]


def test_scan_reports_a_failed_socle(capsys, monkeypatch):
    class NonzeroMap:
        zero = False

        def describe(self):
            return {"zero": False}

    monkeypatch.setattr(TaylorComplex, "mult_map", lambda self, j, alpha, i: NonzeroMap())
    code, data, _ = run_json(capsys, "scan", "--ideal", REISNER, "--j", "4", "--box", "-1:0")
    assert code == 2
    assert data["claims"] == [
        {"id": "ext4-socle", "status": "failed", "result": "Z/2 socle not reproduced"}
    ]


def test_radical_check_reports_a_failed_certificate(capsys, monkeypatch):
    real = cli.sv_containment_check

    def without_one_member(ring, order="grlex"):
        out = dict(real(ring, order=order))
        out["radical_members"] = [False] + out["radical_members"][1:]
        out["all_ok"] = False
        return out

    monkeypatch.setattr(cli, "sv_containment_check", without_one_member)
    code, data, _ = run_json(capsys, "radical-check")
    assert code == 2
    assert data["claims"] == [
        {"id": "four-element-radical", "status": "failed",
         "result": "containment certificate not reproduced"}
    ]


def test_simplicial_reports_failed_projective_plane_cohomology(capsys, monkeypatch):
    real = cli.reduced_cohomology

    def without_torsion(cx, coeff="Z"):
        tables = real(cx, coeff)
        z = tables["Z"]
        return {**tables, "Z": {**z, 2: z[1]}}

    monkeypatch.setattr(cli, "reduced_cohomology", without_torsion)
    code, data, _ = run_json(capsys, "simplicial", "--facets", RP2)
    assert code == 2
    assert data["claims"] == [
        {"id": "projective-plane-cohomology", "status": "failed",
         "result": "integral cohomology not reproduced"}
    ]


def test_hochster_reports_failed_projective_plane_degrees(capsys, monkeypatch):
    real = cli.hochster_nonzero_levels

    def without_f2_spot_two(cx, p):
        return {**real(cx, p), 2: (3,)}

    monkeypatch.setattr(cli, "hochster_nonzero_levels", without_f2_spot_two)
    code, data, _ = run_json(capsys, "hochster", "--facets", RP2)
    assert code == 2
    assert data["results"]["nonzero_levels"]["F2"] == [3]
    assert data["claims"] == [
        {"id": "projective-plane-local-cohomology", "status": "failed",
         "result": "local cohomology degrees not reproduced"}
    ]


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    path = tmp_path / "small.ideal"
    path.write_text("vars 2\n2 0\n0 2\n")
    outs = []
    for _ in range(3):
        code, out, _ = run(capsys, "pipeline", "--ideal", str(path), "--j", "1",
                           "--levels", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


# sha256 of the report bytes and the exit code, the ten cubics read from
# stdin; computed from the reports of the per-degree scan before scans were
# grouped by class, and (transition-ext3, where Ext is free rather than
# 2-torsion) on Taylor strands before Ext moved to nerves; pipeline-level4,
# the 1.9 MB report, is the digest the pipeline-deep benchmark workload pins
GOLDEN_REPORTS = {
    "scan": (("scan", "--ideal", "-", "--j", "4", "--box", "-1:0"), 0,
             "83756484551f2551eaf6ca9a865177bf21a651f65e60e687c5ff88d7c4e818f5"),
    "pipeline": (("pipeline", "--ideal", "-", "--p", "2", "--levels", "3"), 0,
                 "3cc29122fff426d37da9dd4c40fba4fe6e1842eaf1d3751947a9a0f11d9b5c6b"),
    "pipeline-level4": (("pipeline", "--ideal", "-", "--p", "2", "--levels", "4"), 0,
                        "7103d961940444cd46bb4a041df7797c3eb33f09c07eb83c47df9690a473e12f"),
    "transition": (("transition", "--ideal", "-", "--levels", "3"), 0,
                   "632f7cfb002a7cc2685f4fd36d803b2f3e5f617e7a75eeefa5eb7976ff1e4174"),
    "transition-ext3": (("transition", "--ideal", "-", "--j", "3", "--levels", "3"), 2,
                        "fb6961499c6ec0ce1dc7d6722645e61784816392e6b9701ea9ed4b43f68f0be0"),
    # level 4, with its top level not scanned, taken while every transition
    # was decided degree by degree
    "transition-level4": (
        ("transition", "--ideal", "-", "--j", "4", "--levels", "4", "--p", "2"), 0,
        "22093379624b1c44881bd4a72b3f5833f52d2f77c60f515c1922d41617c6b26a",
    ),
    "transition-ext3-level4": (
        ("transition", "--ideal", "-", "--j", "3", "--levels", "4", "--p", "2"), 2,
        "fb017fdd7f49f056f9594389c88f672d3964dd1f1ce91a96556f36664d59a215",
    ),
    # the four-element certificate reads no input (F2 and Q, or the field --p
    # names); taken before Groebner division moved to per-field kernels
    "radical": (("radical-check",), 0,
                "a16e567f4c0ee8ad1489f664d99a743449f5ce52edfa7327b1c3196a5bd389c3"),
    "radical-lex": (("radical-check", "--order", "lex"), 0,
                    "9637331269ed955a42570610b0dee0674c03f11f985db3e5f90f7a29b6bdb01a"),
    "radical-p3": (("radical-check", "--p", "3"), 0,
                   "c6d0f2fbed872667f05e5e24c5751e20ce3f4b1a472ddb7c9e785dcf5a86bc98"),
    "radical-p5-lex": (("radical-check", "--p", "5", "--order", "lex"), 0,
                       "f1be6e1265666c6866fde1df7b28b1e448efbef43e8ad33b9e32d0e9e9da8580"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reisner_reports_match_golden_digests(capsys, monkeypatch, name):
    argv, exit_code, digest = GOLDEN_REPORTS[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(REISNER).read_text()))
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 and exit code of reports whose supports are many products of
# breakpoint runs (the Reisner ideal's are one product per level): the scan
# has 8 products inside the box and 8 in the shell, with groups Z and Z^2,
# and transition-ext2 28 cells, 16 identities and 12 through InducedMap;
# taken while scans formed their products in a nested trie
MANY_PRODUCTS = "vars 3\n2 1 0\n0 3 1\n1 0 2\n"
GOLDEN_MANY_PRODUCT_REPORTS = {
    "scan": (("scan", "--j", "2", "--box=-3:0,-1:1,-2:0"), 0,
             "ac06913fd4fd6048e7d8776618a6fbd5e63e9414dfdf6312093d8312b2b60d20"),
    "pipeline": (("pipeline", "--j", "2", "--levels", "3", "--p", "3"), 2,
                 "3bb56bcb2d5fffe99523db5679ddc53377799ef1b92ba20736eba08f4d1dbae3"),
    "transition-ext2": (("transition", "--j", "2", "--levels", "3", "--p", "3"), 2,
                        "7198b54f75271edbb2065339ef708e713af10bec03291b088f892b2d1db15d8f"),
    "transition-ext3": (("transition", "--j", "3", "--levels", "3", "--p", "2"), 2,
                        "6f84870cf73da2ef0eddab7f1db8830ce9ad629c792671e9e298ff02b3d96c84"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MANY_PRODUCT_REPORTS))
def test_many_product_reports_match_golden_digests(capsys, monkeypatch, name):
    argv, exit_code, digest = GOLDEN_MANY_PRODUCT_REPORTS[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(MANY_PRODUCTS))
    code, out, _ = run(capsys, *argv, "--ideal", "-")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of simplicial and hochster reports on RP^2 and two seeded complexes
# read from stdin, computed when every field had its own elimination and
# every link was rebuilt once per field
GOLDEN_COMPLEX_REPORTS = {
    "rp2": (
        "-1,-1,0,0,0,0",
        {
            ("simplicial", "--p", "2"): "71d4be5b5eebfbdbefd90f3de5fac03a015f32e9db330429f6dc5315417e553f",
            ("simplicial", "--p", "3"): "12e6e6659b6d70454489005559754f59768299a943da9c44f45a98c82607a7f7",
            ("hochster",): "c6719e9683b1a49aa3742eb28f0d427d54be98fd250adc4a51ac2d6f198b47ef",
            ("hochster", "--p", "5"): "a612b2474b325426fc51954b81a5432910d405530f7b35504eb7c68ca2735ac6",
            ("hochster", "--i", "3"): "e37f0c81245a9920bea1412c99caa20fa52c44fca2c57a96bdcb2901be83fcda",
        },
    ),
    "seed101": (
        "0,-1,0,0,0,0,-1,0,0,0,0,0,0,0",
        {
            ("simplicial", "--p", "2"): "c78bbde67adb4b7d036eb940fa070fdc72598fd3ecc11d4b689cc644f7cc6e3e",
            ("simplicial", "--p", "3"): "7df481ef1869bb1a72fab0f54cfe808284c5ec1bd50b55b3bfdeb6df1986e033",
            ("hochster",): "d6d75dcf70040c997b447d89cc95f5b21aa1f9c19a8c7b91962475f4a26fceae",
            ("hochster", "--p", "5"): "700b1ea1be8098ce930363a29e8bff86fa421836b5bebccd23f98d61a04ee870",
            ("hochster", "--i", "3"): "29aaa86cd30a5818943382e9ac5f137914ffcd238d2374cddcd726b301dcfba4",
        },
    ),
    "seed102": (
        "-1,0,0,0,0,0,0,0,-1,0,0,0,0,0,0",
        {
            ("simplicial", "--p", "2"): "c106c99a9bee729a0d793aa741ee99d5645c08061d6c363bca329039ca2b7b30",
            ("simplicial", "--p", "3"): "57cb2e791e10fff9617a86ed257d6b1eeeef31b4a27c857d3b5905759d593451",
            ("hochster",): "f5d4f8b0e9d256d808e4b41819c6b4f8a99847d2b84748f0839c8cb6d5b15c47",
            ("hochster", "--p", "5"): "06650f3baa186bb0b54d0f2c7c044fcdfe09b53c0278ee2ad7ea277472d4900f",
            ("hochster", "--i", "3"): "2e12e8ed51a8bd039db42d0abafb866af3f748e246418101ad08c3ca51829834",
        },
    ),
}


def _complex_text(name):
    if name == "rp2":
        return facets_text(6, RP2_FACETS)
    seed = int(name[len("seed"):])
    n = 14 if seed == 101 else 15
    return facets_text(n, random_facets(random.Random(seed), n, 300))


@pytest.mark.parametrize("name", sorted(GOLDEN_COMPLEX_REPORTS))
def test_complex_reports_match_golden_digests(capsys, monkeypatch, name):
    text = _complex_text(name)
    degree, digests = GOLDEN_COMPLEX_REPORTS[name]
    for argv, digest in digests.items():
        extra = ("--degree", degree) if "--i" in argv else ()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, argv[0], "--facets", "-", *argv[1:], *extra)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("command", ["simplicial", "hochster"])
def test_field_must_be_prime(capsys, command):
    for p in ("0", "1", "4", "-3"):
        code, out, err = run(capsys, command, "--facets", RP2, "--p", p)
        assert code == 1 and out == "", p
        assert err.strip() == f"error: {p} is not prime", p
    code, out, err = run(capsys, "hochster", "--facets", RP2, "--p", "4", "--i", "3",
                         "--degree", "-1,-1,-1,0,0,0")
    assert code == 1 and err.strip() == "error: 4 is not prime"
    for command in ("transition", "pipeline"):
        code, out, err = run(capsys, command, "--ideal", REISNER, "--levels", "2", "--p", "4")
        assert code == 1 and out == "", command
        assert err.strip() == "error: 4 is not prime", command
    # --p 1 and -1 once looped forever here, and --p 0 divided by zero
    on_ideal = (
        ("ext", "--j", "4", "--alpha", "-1,-1,-1,-1,-1,-1"),
        ("scan", "--j", "4", "--box", "-1:0"),
    )
    for argv in on_ideal:
        for p in ("0", "1", "4", "-1", "-3"):
            code, out, err = run(capsys, *argv, "--ideal", REISNER, "--p", p)
            assert code == 1 and out == "", (argv, p)
            assert err.strip() == f"error: {p} is not prime", (argv, p)


def test_timeouts_are_reported_as_timeouts(capsys, tmp_path):
    commands = (
        ("pipeline", "--levels", "2"),
        ("transition", "--levels", "2"),
        ("scan", "--j", "4", "--box", "-1:0"),
        ("ext", "--j", "4", "--alpha", "-1,-1,-1,-1,-1,-1"),
    )
    for command in commands:
        code, out, err = run(capsys, *command, "--ideal", REISNER, "--timeout-secs", "0")
        assert code == 1 and out == "", command
        assert err.startswith("timeout:"), command
    on_rp2 = (
        ("simplicial",),
        ("simplicial", "--p", "2"),
        ("hochster",),
        ("hochster", "--p", "2", "--i", "2", "--degree", "0,0,0,0,0,0"),
    )
    for command in on_rp2:
        code, out, err = run(capsys, *command, "--facets", RP2, "--timeout-secs", "0")
        assert code == 1 and out == "", command
        assert err.startswith("timeout:"), command
    terms = tmp_path / "terms.gens"
    terms.write_text("vars 2\n4*x0\n2*x1^2\n")
    others = (
        ("dsub", "--gens", str(terms)),
        ("saturate", "--gens", str(terms)),
        ("filtration", "--model", "quotient", "--ell", "2"),
        ("filtration", "--model", "localization", "--f", "x0", "--vars", "2"),
        ("radical-check",),
        ("radical-check", "--order", "lex"),
    )
    for command in others:
        code, out, err = run(capsys, *command, "--timeout-secs", "0")
        assert code == 1 and out == "", command
        assert err.startswith("timeout:"), command


class _Clock:
    """Stands in for the time module of cli and subsets.check_deadline."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def test_one_budget_covers_loading_and_encoding(capsys, monkeypatch):
    # the budget starts once the arguments are parsed: a slow load or a
    # slow encoding past it is a timeout, with nothing on stdout
    clock = _Clock()
    monkeypatch.setattr(cli, "time", clock)
    monkeypatch.setattr(subsets, "time", clock)

    def slow(fn):
        def late(*args, **kwargs):
            clock.now += 10.0
            return fn(*args, **kwargs)

        return late

    for owner, name in ((cli, "load_facets_text"), (Report, "to_json")):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, slow(getattr(owner, name)))
            for budget, exit_code in (("5", 1), ("25", 0)):
                code, out, err = run(capsys, "simplicial", "--facets", RP2, "--timeout-secs", budget)
                assert code == exit_code, (name, budget)
                if exit_code:
                    assert out == "" and err.startswith("timeout:"), name
                    assert err.count("\n") == 1, err
                else:
                    assert json.loads(out)["command"] == "simplicial"


def test_a_run_past_its_budget_leaves_none_for_the_next_run(capsys, monkeypatch):
    # main enters one budget per run and drops it on the way out, so an
    # in-process run after a timed-out one has no limit and its golden bytes
    argv, exit_code, digest = GOLDEN_REPORTS["scan"]
    text = Path(REISNER).read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv, "--timeout-secs", "0")
    assert (code, out) == (1, "") and err.startswith("timeout:"), err
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


def test_only_reports_with_map_matrices_compute_them(capsys, monkeypatch):
    # pipeline's transitions never print a matrix; the scan prints its six
    # multiplication maps, whose targets are trivial
    calls = []
    matrix = intlinalg.InducedMap.component_matrix
    monkeypatch.setattr(
        intlinalg.InducedMap, "component_matrix", lambda m: calls.append(m) or matrix(m)
    )
    for name in ("pipeline", "scan"):
        argv, exit_code, digest = GOLDEN_REPORTS[name]
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(REISNER).read_text()))
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)
        assert calls == [], name


# an exponent of 10^6 once built a table per exponent value before the
# first deadline check; a box of 10^8 values per coordinate once looped
# over every value, unchecked; a filtration window of 10^8 indices was
# once walked, and pi applied 10^8 times per sample, unchecked
HUGE_SCANS = {
    "exponent": (("scan", "--ideal", "-", "--j", "2"), "vars 2\n1000000 0\n0 1\n", 2.5),
    "box": (("scan", "--ideal", REISNER, "--j", "4", "--box=-100000000:0"), "", 5),
    "filtration": (("filtration", "--model", "quotient", "--ell", "100000000"), "", 5),
    # few pieces in the box, 3*10^6 shell offenders listed by the scan report
    "shell": (("scan", "--ideal", "-", "--j", "1", "--box=-3000000:0,0:0"), "vars 2\n3000000 1\n", 5),
}


@pytest.mark.parametrize("name", sorted(HUGE_SCANS))
def test_huge_scans_end_within_the_timeout(name):
    argv, stdin, limit = HUGE_SCANS[name]
    proc = subprocess.run(
        [sys.executable, "-m", "mixedchar.cli", *argv, "--timeout-secs", "1"],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=limit,  # past it the run is killed and the test fails
    )
    if proc.returncode == 0:
        assert "results" in json.loads(proc.stdout)
    else:
        assert proc.returncode == 1 and proc.stderr.startswith("timeout:"), proc.stderr


def test_a_huge_pipeline_support_ends_within_the_timeout():
    # one product of 3*10^6 support degrees, listed only as the report is
    # encoded; with one level no transition is checked, so the listing
    # itself must check the budget
    proc = subprocess.run(
        [sys.executable, "-m", "mixedchar.cli", "pipeline", "--ideal", "-", "--p", "2",
         "--j", "2", "--levels", "1", "--timeout-secs", "1"],
        input="vars 2\n3000000 0\n0 1\n",
        capture_output=True,
        text=True,
        timeout=5,  # past it the run is killed and the test fails
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "timeout: level 1 support passed the --timeout-secs budget\n"
    assert proc.stdout == ""


def test_transition_claim(capsys):
    code, data, _ = run_json(
        capsys, "transition", "--ideal", REISNER, "--j", "4", "--levels", "2"
    )
    assert code == 0
    assert data["results"]["all_injective"] is True
    claim = claim_by_id(data, "transition-injective")
    assert claim["status"] == "verified"
    assert claim["result"] == "levels 1..2: injective on every computed support degree"


def test_transition_is_p_local(capsys):
    # Ext^4 of the Reisner levels is 2-torsion, so it vanishes 3-locally
    code, data, _ = run_json(
        capsys, "transition", "--ideal", REISNER, "--j", "4", "--levels", "3", "--p", "3"
    )
    assert code == 0
    levels = data["results"]["levels"]
    assert [lv["level"] for lv in levels] == [1, 2]
    assert all(lv["support_size"] == 0 and lv["transitions"] == [] for lv in levels)
    assert all(lv["complete_support"] for lv in levels)
    assert claim_by_id(data, "transition-injective")["status"] == "verified"
    assert data["timing"]["transitions_checked"] == 0
    code, data, _ = run_json(
        capsys, "transition", "--ideal", REISNER, "--j", "4", "--levels", "3", "--p", "2"
    )
    assert [lv["support_size"] for lv in data["results"]["levels"]] == [1, 64]


def test_transition_and_pipeline_agree_per_degree(capsys, monkeypatch):
    # wherever pipeline runs its transition stage, transition reports the
    # same degrees with the same p-local injectivity
    rng = random.Random(80808)
    staged = compared = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))}
        gens.discard((0,) * n)
        text = f"vars {n}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gens or [(1,) * n])
        j = str(rng.randint(1, 3))
        for p in ("2", "3"):
            reports = {}
            for command in ("transition", "pipeline"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                code, reports[command], _ = run_json(
                    capsys, command, "--ideal", "-", "--j", j, "--levels", "3", "--p", p
                )
                assert code in (0, 2), (command, text, j, p)
            stages = {s["name"]: s for s in reports["pipeline"]["results"]["stages"]}
            if "transition_injectivity" not in stages:
                continue
            pairs = stages["transition_injectivity"]["details"]["pairs"]
            levels = reports["transition"]["results"]["levels"]
            assert [lv["transitions"] for lv in levels] == [pair["transitions"] for pair in pairs]
            staged += 1
            compared += sum(len(pair["transitions"]) for pair in pairs)
    assert staged > 40 and compared > 50, (staged, compared)


def test_transition_needs_two_levels(capsys):
    code, _, err = run(capsys, "transition", "--ideal", REISNER, "--levels", "1")
    assert code == 1 and "--levels >= 2" in err


def test_dsub_reads_bare_generators_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("3*x1 + 5*x2\n"))
    code, data, _ = run_json(capsys, "dsub", "--p", "5", "--gens", "-")
    assert code == 0
    assert data["inputs"]["gens"] == "<stdin>"
    assert data["results"] == {"ell": 0, "ideal": "(1)"}


def test_dsub_names_the_line_of_a_dangling_sign(capsys, tmp_path):
    path = tmp_path / "g.txt"
    for text, line in (("x0\nx0 + x1 +\n", 2), ("vars 2\nx0 ++ x1\n", 2), ("x1\n\n+\n", 3)):
        path.write_text(text)
        code, out, err = run(capsys, "dsub", "--gens", str(path))
        assert code == 1 and out == "", text
        assert err.startswith(f"error: {path}:{line}: a sign with no term after it"), err


def test_a_zero_denominator_exits_one_with_one_line(capsys, monkeypatch, tmp_path):
    """dsub, saturate and filtration --f read coefficients through one
    parser: a denominator of 0 is an input error, not a traceback."""
    path = tmp_path / "zero.gens"
    path.write_text("x1\n1/0*x0\n")
    message = "in term '1/0*x0': coefficient 1/0 has denominator zero in Z_(2)"
    cases = (
        (("dsub", "--gens", str(path)), f"{path}:2: {message}"),
        (("saturate", "--gens", str(path)), f"{path}:2: {message}"),
        (("filtration", "--model", "localization", "--f", "1/0*x0"), message),
    )
    for argv, expected in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {expected}\n"), argv
    monkeypatch.setattr(sys, "stdin", io.StringIO("1/0*x0\n"))
    code, out, err = run(capsys, "dsub", "--gens", "-")
    assert (code, out, err) == (1, "", f"error: <stdin>:1: {message}\n")


def test_dsub_header_file(capsys, tmp_path):
    path = tmp_path / "one.gens"
    path.write_text("vars 1\n8*x0\n")
    code, data, _ = run_json(capsys, "dsub", "--gens", str(path))
    assert code == 0
    assert data["results"] == {"ell": 3, "ideal": "(2^3)"}


def test_saturate_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("vars 2\n4*x0\n2*x1^2\n"))
    code, data, _ = run_json(capsys, "saturate", "--gens", "-")
    assert code == 0
    assert data["results"]["vars"] == 2
    assert data["results"]["generators"] == [[1, 0], [0, 2]]
    assert data["results"]["unit"] is False


def test_saturate_rejects_a_non_term_generator(capsys, tmp_path):
    path = tmp_path / "sum.gens"
    path.write_text("vars 2\nx0 + x1\n")
    code, out, err = run(capsys, "saturate", "--gens", str(path))
    assert code == 1 and out == "" and "error:" in err


def test_malformed_ideal_reports_the_line(capsys, tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("vars 2\n1 2 3\n")
    code, out, err = run(capsys, "ext", "--ideal", str(path), "--j", "0", "--alpha", "0,0")
    assert code == 1 and ":2:" in err


def test_simplicial_projective_plane(capsys):
    code, data, _ = run_json(capsys, "simplicial", "--facets", RP2, "--p", "2")
    assert code == 0
    assert data["results"]["face_counts"] == [1, 6, 15, 10]
    coh = data["results"]["cohomology"]
    assert coh["Z"]["2"] == {"rank": 0, "torsion": [2]}
    assert coh["Z"]["1"] == {"rank": 0, "torsion": []}
    assert coh["Q"]["2"] == 0
    assert coh["F2"] == {"-1": 0, "0": 0, "1": 1, "2": 1}
    claim = claim_by_id(data, "projective-plane-cohomology")
    assert claim["status"] == "verified"


def test_hochster_scan_claim(capsys):
    code, data, _ = run_json(capsys, "hochster", "--facets", RP2)
    assert code == 0
    assert data["results"]["nonzero_levels"] == {"F2": [2, 3], "F3": [3], "Q": [3]}
    claim = claim_by_id(data, "projective-plane-local-cohomology")
    assert claim["status"] == "verified"


def test_hochster_single_piece(capsys):
    code, data, _ = run_json(
        capsys, "hochster", "--facets", RP2, "--p", "2", "--i", "2",
        "--degree", "0,0,0,0,0,0"
    )
    assert code == 0
    assert data["results"] == {"piece_dimension": 1, "coefficients": "F2"}
    code, _, err = run(capsys, "hochster", "--facets", RP2, "--degree", "0,0,0,0,0,0")
    assert code == 1 and "--degree needs --i" in err


def test_filtration_quotient_verdict(capsys):
    code, data, _ = run_json(capsys, "filtration", "--model", "quotient", "--ell", "3")
    assert code == 0
    axioms = claim_by_id(data, "filtration-axioms")
    assert axioms["status"] == "verified"
    verdict = claim_by_id(data, "length-verdict")
    assert verdict["result"] == "finite-length, killed by pi^3"
    assert data["results"]["verdict"]["ell_bound"] == 3


def test_filtration_checks_its_axioms_once(capsys, monkeypatch):
    # the verdict reuses the report the command already has
    calls = []
    real = filtrations.check_axioms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(filtrations, "check_axioms", counted)
    monkeypatch.setattr(cli, "check_axioms", counted)
    for argv in (("--model", "quotient", "--ell", "3"), ("--model", "localization", "--f", "x0")):
        calls.clear()
        code, data, _ = run_json(capsys, "filtration", *argv)
        assert code == 0 and "verdict" in data["results"] and len(calls) == 1, argv


def test_filtration_localization_verdict(capsys):
    code, data, _ = run_json(
        capsys, "filtration", "--model", "localization", "--f", "x0", "--vars", "2"
    )
    assert code == 0
    verdict = claim_by_id(data, "length-verdict")
    assert verdict["result"] == "infinite-length, annihilator (0)"


def test_filtration_fault_injection_exits_two(capsys):
    code, data, _ = run_json(
        capsys, "filtration", "--model", "quotient", "--ell", "2", "--fault", "shift"
    )
    assert code == 2
    claim = claim_by_id(data, "filtration-axioms")
    assert claim["status"] == "failed"
    assert claim["result"] == "violated conditions (tier, condition): [(0, 3)]"
    assert not any(c["id"] == "length-verdict" for c in data["claims"])

    code, data, _ = run_json(
        capsys, "filtration", "--model", "quotient", "--ell", "1", "--fault", "tail"
    )
    assert code == 2
    claim = claim_by_id(data, "filtration-axioms")
    assert claim["result"] == "violated conditions (tier, condition): [(0, 5)]"


def test_filtration_model_argument_checks(capsys):
    code, _, err = run(capsys, "filtration", "--model", "quotient")
    assert code == 1 and "needs --ell" in err
    code, _, err = run(capsys, "filtration", "--model", "localization")
    assert code == 1 and "needs --f" in err
    code, _, err = run(capsys, "filtration", "--model", "localization", "--f", "0")
    assert code == 1 and "cannot localize at zero" in err


def test_hochster_i_needs_degree(capsys):
    code, out, err = run(capsys, "hochster", "--facets", RP2, "--i", "3")
    assert code == 1 and out == ""
    assert err == "error: --i needs --degree (the graded degree)\n"


def test_filtration_rejects_the_other_models_flags(capsys):
    rejected = (
        (("localization", "--f", "x0", "--ell", "5"), "--ell applies to the quotient model only"),
        (("quotient", "--ell", "2", "--f", "x0"), "--f and --vars apply to the localization model only"),
        (("quotient", "--ell", "2", "--vars", "2"), "--f and --vars apply to the localization model only"),
    )
    for argv, message in rejected:
        code, out, err = run(capsys, "filtration", "--model", *argv)
        assert code == 1 and out == "", argv
        assert err == f"error: {message}\n", argv


# sha256 of the filtration reports and their exit codes, computed when the
# axioms were checked at every window index and pi applied one step at a time
GOLDEN_FILTRATION_REPORTS = {
    "quotient-2": (("--model", "quotient", "--ell", "2"), 0,
                   "b6fe00e520e3c41bb2cc5531a00642d84d93d32c478eb05922524d9b86b82a62"),
    "quotient-3-shift": (("--model", "quotient", "--ell", "3", "--fault", "shift"), 2,
                         "39d3a5ed5f0e8ee072b577a6a8f42371549fb222164dbea58f988eccb9ec5dd9"),
    "quotient-1-tail": (("--model", "quotient", "--ell", "1", "--fault", "tail"), 2,
                        "42c0155dada7ab9a2d869a368d931bb7d26d735b234bfe7aff1df1736901b0ff"),
    "quotient-100000": (("--model", "quotient", "--ell", "100000"), 0,
                        "8cac7eefe906d3e9ceedc652ee556f8e2861bb0e17f50aac29fdc4e4c1719953"),
    "quotient-100000-shift": (
        ("--model", "quotient", "--ell", "100000", "--fault", "shift"), 2,
        "b9b2ae9d6414f2886b7ca64908d14e7b80139c3562c26d9a33c132e49ec5ae8e"),
    "quotient-5-p3": (("--model", "quotient", "--ell", "5", "--p", "3"), 0,
                      "dcb0faca9ecf7fcdb8ca8d65da4761b4335680bc547a88bd183ecc54c9ec8c7d"),
    "x0": (("--model", "localization", "--f", "x0", "--vars", "2"), 0,
           "4abd19cccebafb7596b6e69dabee394d8843670b6b3de0ed342b81a8248c189e"),
    "pi": (("--model", "localization", "--f", "2"), 0,
           "50c30dcf32ae3dabc2b7d9860e58a806dac5bfa59dde63b67cab1d08b586e85a"),
    "4x0-shift": (("--model", "localization", "--f", "4*x0", "--fault", "shift"), 2,
                  "c31066bcc722eec183531ac036fc0eb22e8195ed2c47f45098a6bbec9230c887"),
    "pi-tail": (("--model", "localization", "--f", "2", "--fault", "tail"), 2,
                "a537d657395b68f6009c1a55c8e2cb2724aa22c2de303bfa9145e9176d740c6a"),
    "x0^2+2x1": (("--model", "localization", "--f", "x0^2+2*x1", "--vars", "2", "--p", "2"), 0,
                 "dca5c532c91ef52855b8f11543636cc0f06112fd4dfb434527c73e95675fe19f"),
    "9x0+3-p3": (("--model", "localization", "--f", "9*x0+3", "--p", "3"), 0,
                 "e99a3977d645136005a554bdd88c5b066406df8cabf4e9b8ce0d2dfe7f56c512"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FILTRATION_REPORTS))
def test_filtration_reports_match_golden_digests(capsys, name):
    argv, exit_code, digest = GOLDEN_FILTRATION_REPORTS[name]
    code, out, _ = run(capsys, "filtration", *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fault, exit_code", [("none", 0), ("shift", 2)])
def test_filtration_cost_does_not_grow_with_ell(fault, exit_code):
    proc = subprocess.run(
        [sys.executable, "-m", "mixedchar.cli", "filtration", "--model", "quotient",
         "--ell", "1000000000", "--fault", fault, "--timeout-secs", "5"],
        capture_output=True,
        text=True,
        timeout=5,  # past it the run is killed and the test fails
    )
    assert proc.returncode == exit_code, proc.stderr
    results = json.loads(proc.stdout)["results"]
    if fault == "none":
        assert results["verdict"] == {
            "kind": "finite", "ell_bound": 1000000000, "kill_verified": True,
        }


def test_variable_counts_outside_the_cap_exit_one(capsys, tmp_path):
    header = tmp_path / "header.gens"
    header.write_text("vars 1000000\n2*x0\n")
    inferred = tmp_path / "inferred.gens"
    inferred.write_text("x99999999\n")
    cap = textio.MAX_VARIABLES
    localization = ("filtration", "--model", "localization")
    rejected = (
        (("saturate", "--gens", str(header)), f"{header}:1: variable count 1000000"),
        (("dsub", "--gens", str(inferred)), f"{inferred}: variable count 100000000"),
        ((*localization, "--f", "x0", "--vars", "1000000"), "variable count 1000000"),
        ((*localization, "--f", "x0", "--vars", "-1"), "variable count -1"),
        ((*localization, "--f", "2", "--vars", "0"), "variable count 0"),
        ((*localization, "--f", f"x{cap}"), f"variable count {cap + 1}"),
    )
    for argv, message in rejected:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message} outside 1..{cap}\n"), argv
    code, data, _ = run_json(capsys, *localization, "--f", f"x{cap - 1}")
    assert code == 0 and data["inputs"]["vars"] == cap


def test_formats_doc_example_claims_are_what_the_command_prints(capsys):
    doc = (REPO / "docs" / "formats.md").read_text()
    intro = "Example claims from `mixedchar filtration --model quotient --ell 2`:\n\n```json\n"
    block = doc.split(intro, 1)[1].split("```", 1)[0]
    code, out, _ = run(capsys, "filtration", "--model", "quotient", "--ell", "2")
    assert code == 0
    assert json.loads("{" + block + "}")["claims"] == json.loads(out)["claims"]
    # the block is the report's claims member, indented one level less
    assert "\n".join("  " + line for line in block.splitlines()) in out


def test_radical_check_single_field_has_no_claim(capsys):
    code, data, _ = run_json(capsys, "radical-check", "--p", "2")
    assert code == 0
    assert data["claims"] == []
    entry = data["results"]["fields"]["F2"]
    assert entry["all_ok"] is True
    assert entry["generators_in_ideal"] == [True] * 4
    assert entry["radical_members"] == [True] * 10


@pytest.mark.parametrize("argv", [("--p", "3"), ("--p", "5"), ("--p", "2", "--order", "lex")])
def test_radical_check_certifies_every_cubic_beyond_the_default_fields(capsys, argv):
    code, data, _ = run_json(capsys, "radical-check", *argv)
    assert code == 0
    (entry,) = data["results"]["fields"].values()
    assert entry["radical_members"] == [True] * 10
    assert entry["all_ok"] is True


def test_radical_check_reads_false_for_a_cubic_past_the_power_bound(capsys, monkeypatch):
    # the powers alone decide: a cubic whose least k exceeds the bound
    # reads false, and the claim fails with exit code 2
    monkeypatch.setattr(groebner, "POWER_BOUND", 2)
    code, data, _ = run_json(capsys, "radical-check")
    assert code == 2
    for entry in data["results"]["fields"].values():
        assert entry["radical_members"] == [k <= 2 for _, k, _ in read_certificate()]
        assert entry["all_ok"] is False
    assert claim_by_id(data, "four-element-radical")["status"] == "failed"


def test_radical_check_certificate_claim(capsys):
    code, data, _ = run_json(capsys, "radical-check")
    assert code == 0
    assert set(data["results"]["fields"]) == {"F2", "Q"}
    claim = claim_by_id(data, "four-element-radical")
    assert claim["status"] == "verified"
    assert data["timing"]["radical_memberships"] == 20


def test_threads_is_not_an_option(capsys):
    code, out, err = run(capsys, "scan", "--ideal", REISNER, "--j", "4", "--threads", "2")
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixedchar.cli", "dsub", "--p", "5", "--gens", "-"],
        input="3*x1 + 5*x2\n",
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["results"] == {"ell": 0, "ideal": "(1)"}
    assert "wall_seconds=" in proc.stderr
