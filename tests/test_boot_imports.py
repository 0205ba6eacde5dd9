"""The boot line imports nothing outside the stdlib but numpy.

``import repro.sim.parallel, repro.sim.compare, repro.analytic.screen``
is what every fresh worker interpreter pays before its first cell, so a
module-level import of another third-party package anywhere on that
chain (scipy alone costs more than numpy's boot) shows up as start-up
time on every cold process.  The guard compares the top-level packages
the line adds against a bare interpreter's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BOOT_LINE = "import repro.sim.parallel, repro.sim.compare, repro.analytic.screen"

_PROBE = (
    "import json, sys\n"
    "{line}\n"
    "print(json.dumps(sorted({{name.partition('.')[0] for name in sys.modules}})))\n"
)


def _top_level_modules(line: str) -> set:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(line=line)],
        capture_output=True, text=True, timeout=60, cwd=SRC,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_boot_line_adds_only_repro_and_numpy():
    added = _top_level_modules(BOOT_LINE) - _top_level_modules("pass")
    # ``__mp_main__`` is multiprocessing's alias of ``__main__``.
    outside_stdlib = {
        name for name in added
        if name not in sys.stdlib_module_names and not name.startswith("__")
    }
    assert outside_stdlib == {"repro", "numpy"}
