"""One benchmark op in a fresh interpreter.

    python3 perfbench/child.py setup
    python3 perfbench/child.py op plain|trace -- <mixedchar CLI arguments>

Both modes import mixedchar.cli and build its parser first, and record
when that is done (the set-up time); `op` then calls mixedchar.cli.main
with the given arguments, the report going to standard output as usual.
Either mode ends by writing one line to standard error: MARK followed by
a JSON object with the child's own measurements.  With
`trace`, the package's public functions are wrapped first (see spans.py)
and the spans are part of that object.
"""

from __future__ import annotations

import json
import resource
import sys
import time

MARK = "PERFBENCH "


def emit(meta: dict) -> None:
    sys.stderr.write(MARK + json.dumps(meta) + "\n")
    sys.stderr.flush()


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list) -> int:
    import mixedchar
    import mixedchar.cli as cli

    cli.build_parser()
    ready = time.monotonic()
    if argv[0] == "setup":
        emit({"ready": ready, "package": mixedchar.__file__})
        return 0
    mode, cli_argv = argv[1], argv[argv.index("--") + 1 :]
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = cli.main(cli_argv)
    sys.stdout.flush()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    meta = {
        "ready": ready,
        "rc": rc,
        "wall": wall,
        "cpu": cpu_seconds(after) - cpu_seconds(before),
        "maxrss_kb": after.ru_maxrss,
    }
    if tracer is not None:
        meta["spans"] = tracer.spans
    emit(meta)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
