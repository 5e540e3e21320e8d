"""Start-up import checks: the CLI builds its grids without numpy and its
records without dataclasses.

These run fresh interpreters, since an import already made by the test
process would hide one made by ``caw.cli``. They check which modules load,
not how long loading takes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = str(ROOT / "scenarios" / "baseline.json")


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


def test_importing_the_cli_does_not_import_numpy():
    proc = _python("import caw.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_does_not_import_dataclasses_or_inspect():
    # Records are NamedTuples, so a cold start does not pay for importing
    # dataclasses and the inspect module it loads.
    proc = _python("import caw.cli, sys; assert not {'dataclasses', 'inspect'} & set(sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_grid_commands_run_with_numpy_blocked():
    for argv in (
        ["sweep", "--scenario", BASELINE, "--param", "technology.k", "--from", "0.5", "--to", "4",
         "--steps", "5", "--log"],
        ["sweep", "--scenario", BASELINE, "--param", "technology.k", "--from", "0.5", "--to", "4",
         "--steps", "5"],
        ["trajectory", "--scenario", BASELINE, "--t-max", "2", "--steps", "5"],
    ):
        # A None entry in sys.modules makes any `import numpy` raise ImportError.
        proc = _python(
            "import runpy, sys; sys.modules['numpy'] = None; "
            f"sys.argv = ['caw', *{argv!r}]; runpy.run_module('caw', run_name='__main__')"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") >= 5
