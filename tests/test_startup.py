"""Start-up cost: what importing the command line loads.

Every subcommand runs as its own process, so each pays for the modules
the package imports before the parser is built.  Some standard modules
cost a large share of a short command: dataclasses (which loads
inspect, ast, dis and tokenize), typing, and importlib.resources (which
loads zipfile, tempfile and pathlib).  The package needs none of them
to build its parser.  The checks run in a
child interpreter started with -S, so that no site hook has loaded any
of them first.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("dataclasses", "inspect", "typing", "importlib.resources")


def heavy_modules_after(call: str) -> list:
    """The HEAVY modules loaded once mixedchar.cli is imported and call runs."""
    child = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "import mixedchar.cli",
            f"mixedchar.cli.{call}",
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
