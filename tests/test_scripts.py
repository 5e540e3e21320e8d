"""The example scripts run in-process on small inputs and print every section."""

import runpy
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, argv, titles",
    [
        (
            "ceiling_sensitivity.py",
            ["--points", "3"],
            ["== Reference ceiling grid", "== Compute supply scale sweep", "== Labor supply scale sweep"],
        ),
        ("occupation_divergence.py", ["--years", "2"], ["t,ceiling,high_exposure_wage,low_exposure_wage,gap"]),
    ],
)
def test_script_runs_and_prints_each_section(monkeypatch, capsys, script, argv, titles):
    path = _SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    for title in titles:
        assert title in out
