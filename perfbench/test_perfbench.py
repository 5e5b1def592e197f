"""Self-tests of the benchmark runner's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_the_union_of_direct_children():
    synthetic = [
        ["parent", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["grandchild", 1.5, 2.5, 1, None],
        ["b", 2.0, 5.0, 0, None],  # overlaps a: the union 1..5 counts once
        ["c", 6.0, 7.0, 0, None],
        ["other_top", 11.0, 12.0, -1, None],
    ]
    assert spans.self_times(synthetic) == [5.0, 1.0, 1.0, 3.0, 1.0, 1.0]
    summary = spans.summarize(synthetic)
    assert summary["<top>"]["total_s"] == 11.0
    assert summary["parent"] == {"calls": 1, "self_s": 5.0, "total_s": 10.0}


def test_useful_normal_forms_are_counted_under_buchberger_only():
    synthetic = [
        ["groebner.buchberger", 0.0, 4.0, -1, None],
        ["groebner.nf", 1.0, 2.0, 0, {"nonzero": 1}],
        ["groebner.nf", 2.0, 3.0, 0, {"nonzero": 0}],
        ["groebner.reduce", 5.0, 6.0, -1, None],
        ["groebner.nf", 5.0, 6.0, 3, {"nonzero": 1}],
    ]
    summary = spans.summarize(synthetic)
    assert summary["groebner.useful"]["calls"] == 1
    assert summary["groebner.nf"]["calls"] == 3


def test_tracer_records_nesting_and_counters():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2, lambda args, result: {"out": result})
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1))
    assert outer(1) == 6
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, {"out": 2}), ("inner", 0, {"out": 4})]


def test_round_summary_feeds_every_per_layer_metric():
    round_ = run.Round(
        [
            run.OpResult([], wall=2.0, spans=[["intlinalg.sparse", 0.0, 1.5, -1, {"nnz": 9}]]),
            run.OpResult([], wall=1.0, counters={"degrees_scanned": 4}),
        ]
    )
    summary = round_.summary()
    summary["<round>"] = {"wall": round_.wall, "overhead": 0.25}
    metrics = spans.layer_metrics([summary])
    assert [name for name, *_ in spans.PER_LAYER] == list(metrics)
    assert metrics["intlinalg.sparse_nnz"]["value"] == 9
    assert metrics["cli.unattributed_s"]["value"] == 1.5
    assert metrics["report.degrees_scanned"]["value"] == 4
    assert metrics["trace.overhead_s"]["value"] == 0.25


def test_self_time_metrics_and_unattributed_time_partition_a_round():
    names = [name for name, _, _ in spans.PATCHES]
    nested = [[name, float(k), 100.0 - k, k - 1, None] for k, name in enumerate(names)]
    round_ = run.Round([run.OpResult([], wall=120.0, spans=nested)])
    summary = round_.summary()
    summary["<round>"] = {"wall": round_.wall, "overhead": 0.0}
    metrics = spans.layer_metrics([summary])
    covered = sum(metrics[name]["value"] for name in run.SELF_TIMES)
    assert covered + metrics["cli.unattributed_s"]["value"] == 120.0


def test_tail_is_p90_until_ten_samples_lie_beyond_it():
    assert run.tail([3.0])[0] == 3.0
    assert run.tail([1.0, 2.0])[0] == 1.9
    assert run.tail(list(range(11)))[0] == 9
    assert run.tail(list(range(101)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 989


def rp2_like_report(f2_table: dict) -> dict:
    z = {
        "-1": {"rank": 0, "torsion": []},
        "0": {"rank": 0, "torsion": []},
        "1": {"rank": 0, "torsion": []},
        "2": {"rank": 0, "torsion": [2]},
    }
    return {
        "results": {
            "reduced_euler_characteristic": 0,
            "cohomology": {"Z": z, "Q": {k: 0 for k in z}, "F2": f2_table},
        }
    }


def test_universal_coefficients_accept_the_right_table_and_reject_a_wrong_one():
    right = {"-1": 0, "0": 0, "1": 1, "2": 1}
    assert workloads.simplicial_problems(rp2_like_report(right), 2) == []
    wrong = {"-1": 0, "0": 0, "1": 0, "2": 1}  # misses the Tor term from Z/2 in degree 2
    problems = workloads.simplicial_problems(rp2_like_report(wrong), 2)
    assert len(problems) == 1 and "universal coefficients" in problems[0]


def test_euler_characteristic_mismatch_is_reported():
    report = rp2_like_report({"-1": 0, "0": 0, "1": 1, "2": 1})
    report["results"]["reduced_euler_characteristic"] = 1
    assert any("Euler" in p for p in workloads.simplicial_problems(report, 2))


CHILD_META = {"ready": 0.0, "rc": 0, "wall": 0.5, "cpu": 0.5, "maxrss_kb": 1024}


def fake_runner(out: bytes) -> run.Runner:
    """A runner whose children exit 0 at once and print `out`."""
    runner = run.Runner(ROOT, hard_end=float("inf"))
    runner._spawn = lambda args, stdin, timeout: (0, out, CHILD_META, [])
    return runner


def test_digest_mismatch_fails_the_op():
    out = json.dumps({"claims": [], "timing": {}}).encode()
    good = workloads.Op("fixed", ["x"], digest=hashlib.sha256(out).hexdigest())
    assert fake_runner(out).run_op(good, "plain").problems == []
    bad = workloads.Op("fixed", ["x"], digest="0" * 64)
    problems = fake_runner(out).run_op(bad, "plain").problems
    assert len(problems) == 1 and "pinned" in problems[0]


def test_changed_bytes_on_a_repeat_fail_the_op():
    runner = fake_runner(b'{"claims": []}')
    op = workloads.Op("generated", ["x"])
    assert runner.run_op(op, "plain").problems == []
    runner._spawn = lambda args, stdin, timeout: (0, b'{"claims": [] }', CHILD_META, [])
    assert "differ" in runner.run_op(op, "plain").problems[0]


def test_missing_claim_fails_the_op():
    out = json.dumps({"claims": [{"id": "ext4-socle", "status": "failed"}]}).encode()
    op = workloads.Op("fixed", ["x"], claims=("ext4-socle",))
    assert fake_runner(out).run_op(op, "plain").problems == ["fixed: claim ext4-socle: failed"]


def test_an_op_past_its_timeout_is_killed_and_fails():
    runner = run.Runner(ROOT, hard_end=float("inf"))
    op = workloads.build_ops("pipeline-deep", 0)[0]
    op.timeout = 0.5
    result = runner.run_op(op, "plain")
    assert result.problems and "killed" in result.problems[0]


def test_generated_complexes_depend_only_on_the_seed():
    first = [(op.argv, op.stdin) for op in workloads.build_ops("complexes-radical", 7)]
    again = [(op.argv, op.stdin) for op in workloads.build_ops("complexes-radical", 7)]
    other = [(op.argv, op.stdin) for op in workloads.build_ops("complexes-radical", 8)]
    assert first == again and first != other
    for op in workloads.complex_ops(7):
        assert op.meta["faces"] >= 32


def test_without_sources_the_runner_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "socle-cold", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, *_ in spans.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (unit, better) for _, unit, better, _ in spans.PER_LAYER
    ]
    plain = [run.Round([run.OpResult([], wall=1.0, cpu=1.0, maxrss_kb=2048)])]
    metrics, _ = run.end_to_end(plain, [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
