"""End-to-end command line runs: exit codes, report shape, determinism."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mixedchar.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
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


def test_reports_are_byte_identical_across_runs_and_threads(capsys, tmp_path):
    path = tmp_path / "small.ideal"
    path.write_text("vars 2\n2 0\n0 2\n")
    outs = []
    for extra in ((), ("--threads", "4"), ("--threads", "7")):
        code, out, _ = run(capsys, "pipeline", "--ideal", str(path), "--j", "1",
                           "--levels", "2", *extra)
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_timeouts_are_reported_as_timeouts(capsys):
    for command in ("pipeline", "transition"):
        code, out, err = run(capsys, command, "--ideal", REISNER, "--levels", "2",
                             "--timeout-secs", "0")
        assert code == 1 and out == ""
        assert err.startswith("timeout:")


def test_transition_claim(capsys):
    code, data, _ = run_json(
        capsys, "transition", "--ideal", REISNER, "--j", "4", "--levels", "2"
    )
    assert code == 0
    assert data["results"]["all_injective"] is True
    claim = claim_by_id(data, "transition-injective")
    assert claim["status"] == "verified"
    assert claim["result"] == "levels 1..2: injective on every computed support degree"


def test_transition_needs_two_levels(capsys):
    code, _, err = run(capsys, "transition", "--ideal", REISNER, "--levels", "1")
    assert code == 1 and "--levels >= 2" in err


def test_dsub_reads_bare_generators_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("3*x1 + 5*x2\n"))
    code, data, _ = run_json(capsys, "dsub", "--p", "5", "--gens", "-")
    assert code == 0
    assert data["inputs"]["gens"] == "<stdin>"
    assert data["results"] == {"ell": 0, "ideal": "(1)"}


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


def test_radical_check_single_field_has_no_claim(capsys):
    code, data, _ = run_json(capsys, "radical-check", "--p", "2")
    assert code == 0
    assert data["claims"] == []
    entry = data["results"]["fields"]["F2"]
    assert entry["all_ok"] is True
    assert entry["generators_in_ideal"] == [True] * 4
    assert entry["radical_members"] == [True] * 10


def test_radical_check_certificate_claim(capsys):
    code, data, _ = run_json(capsys, "radical-check")
    assert code == 0
    assert set(data["results"]["fields"]) == {"F2", "Q"}
    claim = claim_by_id(data, "four-element-radical")
    assert claim["status"] == "verified"
    assert data["timing"]["radical_memberships"] == 20


def test_threads_must_be_positive(capsys):
    code, _, err = run(capsys, "scan", "--ideal", REISNER, "--j", "4", "--threads", "0")
    assert code == 1 and "--threads must be >= 1" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixedchar.cli", "dsub", "--p", "5", "--gens", "-"],
        input="3*x1 + 5*x2\n",
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["results"] == {"ell": 0, "ideal": "(1)"}
    assert "wall_seconds=" in proc.stderr
