"""Start-up cost: what importing the command line loads.

Every subcommand runs as its own process, so each pays for the modules
the package imports before the parser is built.  Some standard modules
cost a large share of a short command: dataclasses (which loads
inspect, ast, dis and tokenize), typing, and importlib.resources (which
loads zipfile, tempfile and pathlib).  The package needs none of them
to build its parser, and the commands that recognise a bundled fixture
read it only for an input that passes the cheap tests first.  The checks
run in a
child interpreter started with -S, so that no site hook has loaded any
of them first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("dataclasses", "inspect", "typing", "importlib.resources")


def heavy_modules_after(call: str) -> list:
    """The HEAVY modules loaded once mixedchar.cli is imported and call runs.

    Whatever call writes to stdout is discarded; it must not raise."""
    child = "\n".join(
        [
            "import io, sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "import mixedchar.cli",
            "sys.stdout = io.StringIO()",
            f"mixedchar.cli.{call}",
            "sys.stdout = sys.__stdout__",
            f"print(' '.join(name for name in {HEAVY!r} if name in sys.modules))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_building_the_parser_loads_no_heavy_standard_module():
    assert heavy_modules_after("build_parser()") == []


def test_the_fixture_readers_load_importlib_resources_on_first_use():
    assert "importlib.resources" in heavy_modules_after("reisner_ideal()")


# fourteen vertices: not the six-vertex projective plane, by its counts alone
FOURTEEN = "vertices 14\n0 1 2 3\n2 3 4 5 6\n5 6 7 8\n8 9 10 11 12\n0 12 13\n"


@pytest.mark.parametrize("command", ["simplicial", "hochster"])
def test_a_complex_other_than_the_plane_never_reads_the_fixture(tmp_path, command):
    path = tmp_path / "fourteen.facets"
    path.write_text(FOURTEEN, encoding="utf-8")
    run = f"main([{command!r}, '--facets', {str(path)!r}]) == 0 or sys.exit(3)"
    loaded = heavy_modules_after(run)
    assert "importlib.resources" not in loaded, loaded
