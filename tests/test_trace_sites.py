"""The benchmark's layer trace must find every name it wraps.

perfbench/spans.py wraps package functions by the names their callers
look them up by (PATCHES).  A refactor that drops or renames one of those
names breaks the traced benchmark runs; this test catches it without a
benchmark run.  install() patches modules in place, so it runs in a child
interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

CHILD = """
import importlib, json, spans
spans.install()
unwrapped = []
for name, sites, _ in spans.PATCHES:
    for module, path in sites:
        owner = importlib.import_module("mixedchar." + module)
        for part in path.split("."):
            owner = getattr(owner, part)
        if not hasattr(owner, "__wrapped__"):
            unwrapped.append([name, module, path])
print(json.dumps({"sites": sum(len(sites) for _, sites, _ in spans.PATCHES), "unwrapped": unwrapped}))
"""


def test_every_traced_call_site_resolves():
    paths = [str(REPO / "perfbench"), str(REPO / "src")]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": ":".join(paths), "PATH": ""},
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["unwrapped"] == [] and out["sites"] > 20, out
