"""Benchmark runner for the mixedchar command line.

    python3 perfbench/run.py --workload socle-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
./src).  One client in a closed loop: it runs the workload's op
list ("a round") again and again, one op at a time, each op in a fresh
interpreter (child.py), because the CLI is a one-shot program whose strand
caches live in module globals.  Rounds start while the measured time plus
one more round fits in --seconds; there is always at least one.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones
(see spans.py).  Every op is checked (workloads.py); the last line of
standard output is the JSON result, the lines before it say what ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from child import MARK
from workloads import WORKLOADS, build_ops, report_problems

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 4  # extra set-up-only children before and after the measured rounds
HARD_LIMIT_S = 165.0  # no run lasts longer than this, whatever --seconds says
SETUP_TIMEOUT_S = 30.0
COUNTERS = ("degrees_scanned", "transitions_checked", "radical_memberships", "faces")
# per-layer self times; with cli.unattributed_s they partition a traced round
SELF_TIMES = [
    name
    for name, unit, _, _ in spans.PER_LAYER
    if unit == "s" and name not in ("pipeline.total_s", "trace.overhead_s", "cli.unattributed_s")
]


class SetupError(Exception):
    pass


@dataclass
class OpResult:
    problems: list
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kb: int = 0
    setup: float = 0.0
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


@dataclass
class Round:
    ops: list

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.ops)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_kb for r in self.ops) / 1024

    def summary(self) -> dict:
        out = spans.merge(spans.summarize(r.spans) for r in self.ops)
        out["<report>"] = {k: sum(r.counters.get(k, 0) for r in self.ops) for k in COUNTERS}
        return out


class Runner:
    """Starts child interpreters against <root>/src and checks what they print."""

    def __init__(self, root: Path, hard_end: float):
        self.root = root
        self.hard_end = hard_end
        # Children import the package from this checkout, from bytecode the
        # warm-up child writes (as an installed package would), with a fixed
        # hash seed so set and dict layouts repeat from run to run.
        self.env = {
            k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")
        }
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.first_reports = {}

    def _spawn(self, args: list, stdin: str, timeout: float):
        """(exit code, stdout bytes, child measurements or None, stderr lines),
        or None when the child ran past `timeout` and was killed."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(stdin.encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        lines = err.decode(errors="replace").splitlines()
        meta = json.loads(lines[-1][len(MARK) :]) if lines and lines[-1].startswith(MARK) else None
        return proc.returncode, out, meta, lines

    def setup_seconds(self) -> float:
        """Interpreter start until mixedchar.cli is imported and its parser built."""
        start = time.monotonic()
        timeout = min(SETUP_TIMEOUT_S, self.hard_end - start)
        done = self._spawn(["setup"], "", timeout) if timeout > 0 else None
        if done is None or done[2] is None:
            tail = done[3][-3:] if done else ["killed"]
            raise SetupError(f"cannot import mixedchar.cli from {self.root / 'src'}: {tail}")
        package = Path(done[2]["package"]).resolve()
        if (self.root / "src").resolve() not in package.parents:
            raise SetupError(f"imported mixedchar from {package}, not from {self.root / 'src'}")
        return done[2]["ready"] - start

    def run_op(self, op, mode: str) -> OpResult:
        timeout = min(op.timeout, self.hard_end - time.monotonic())
        if timeout <= 0:
            return OpResult([f"{op.name}: no time left in the run"])
        start = time.monotonic()
        done = self._spawn(["op", mode, "--", *op.argv], op.stdin, timeout)
        if done is None:
            return OpResult([f"{op.name}: killed after {timeout:.1f} s"], wall=time.monotonic() - start)
        rc, out, meta, lines = done
        if meta is None:
            return OpResult([f"{op.name}: exit {rc} without measurements: {lines[-3:]}"])
        setup = meta["ready"] - start
        problems = report_problems(op, meta["rc"], out)
        first = self.first_reports.setdefault(op.name, out)
        if out != first:
            problems.append("report bytes differ from an earlier run of the same input")
        counters = json.loads(out).get("timing", {}) if not problems else {}
        return OpResult(
            [f"{op.name}: {p}" for p in problems],
            wall=meta["wall"],
            cpu=meta["cpu"],
            maxrss_kb=meta["maxrss_kb"],
            setup=setup,
            counters=counters,
            spans=meta.get("spans", []),
        )

    def run_round(self, ops, mode: str) -> Round:
        return Round([self.run_op(op, mode) for op in ops])


def tail(samples) -> tuple:
    """(value, label): with more than 100 samples, the highest percentile that
    still has ten samples beyond it; with fewer, no percentile above p90 has
    ten beyond it, so the p90 (interpolated, which steadies small samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 100:
        return ordered[n - 11], f"rank {n - 10} of {n} (ten beyond it)"
    if n == 1:
        return ordered[0], "the only one"
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1], f"p90 of {n}"


def measure(runner: Runner, ops, seconds: float, modes: tuple) -> dict:
    """Rounds of each mode, in turn, while one more cycle fits in `seconds`."""
    rounds = {mode: [] for mode in modes}
    cycles = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for mode in modes:
            rounds[mode].append(runner.run_round(ops, mode))
        cycles.append(time.monotonic() - began)
        now = time.monotonic()
        typical = statistics.median(cycles)
        if now - start + typical > seconds or now + typical > runner.hard_end:
            return rounds


def end_to_end(plain: list, setups: list) -> tuple:
    """The end-to-end metrics of a run's untraced rounds.

    Round time and CPU are reported at the tail (see tail()).  A shared host
    switches between a fast and a loaded state for seconds to minutes at a
    time, and how much of a run falls in each varies from run to run; the
    median and the fastest round move with that share, while the slow rounds
    measure the loaded state, which moved less (see WORKLOADS.md).
    The fastest and the median round are printed beside them."""
    setups = setups + [r.setup for rnd in plain for r in rnd.ops if r.setup]
    walls = [r.wall for r in plain]
    wall_tail, tail_label = tail(walls)
    cpu_tail, _ = tail([r.cpu for r in plain])
    metrics = {
        "wall_s_tail": (wall_tail, "s"),
        "cpu_s_tail": (cpu_tail, "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in plain), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [
        f"wall_s_tail, cpu_s_tail: {tail_label} rounds; fastest round "
        f"{min(walls):.4f} s, median round {statistics.median(walls):.4f} s",
        f"setup_s: median of {len(setups)} interpreter starts, one per op and {2 * SETUP_SAMPLES} more",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(plain: list, traced: list) -> tuple:
    wall = statistics.median(r.wall for r in traced)
    overhead = wall - statistics.median(r.wall for r in plain)
    summaries = []
    for r in traced:
        s = r.summary()
        s["<round>"] = {"wall": r.wall, "overhead": overhead}
        summaries.append(s)
    metrics = spans.layer_metrics(summaries)
    shares = sorted(
        (
            (metrics[name]["value"] / wall, name)
            for name in SELF_TIMES + ["cli.unattributed_s"]
            if metrics[name]["value"] > 0
        ),
        reverse=True,
    )
    return metrics, [
        f"traced rounds: {len(traced)}, untraced: {len(plain)}",
        "self-time shares of the traced round: "
        + ", ".join(f"{name} {share:.1%}" for share, name in shares),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "mixedchar" / "cli.py").is_file():
        print(f"error: no mixedchar sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    runner = Runner(root, began + HARD_LIMIT_S)
    ops = build_ops(args.workload, args.seed)
    extra = 0 if args.trace else SETUP_SAMPLES
    try:
        runner.setup_seconds()  # warm-up: byte-compiles the package once
        setups = [runner.setup_seconds() for _ in range(extra)]
        modes = ("plain", "trace") if args.trace else ("plain",)
        rounds = measure(runner, ops, args.seconds, modes)
        setups += [runner.setup_seconds() for _ in range(extra)]
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, notes = per_layer(rounds["plain"], rounds["trace"])
    else:
        metrics, notes = end_to_end(rounds["plain"], setups)

    results = [r for mode in modes for rnd in rounds[mode] for r in rnd.ops]
    problems = [p for r in results for p in r.problems]
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    attempted, failed = len(results), sum(1 for r in results if r.problems)
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={len(rounds['plain'])} ops_attempted={attempted} ops_failed={failed} "
        f"ops_failed_frac={failed / attempted}"
    )
    for note in notes:
        print(f"# {note}")
    print("# untraced round walls (s): " + " ".join(f"{r.wall:.4f}" for r in rounds["plain"]))
    for op in ops:
        detail = " ".join(f"{k}={v}" for k, v in op.meta.items())
        print(f"# op {op.name}: mixedchar {' '.join(op.argv)} {detail}".rstrip())
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
