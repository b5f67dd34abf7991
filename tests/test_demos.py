"""The demos run against the current API.

Demo 01 is fast and runs in full; demos 02-05 run optimizers for up to a
minute, so they are only loaded, which checks their imports.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_states_tour_runs(capsys):
    runpy.run_path(str(DEMOS / "01_states_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Bell basis orthonormal" in out
    assert "purification of bb84" in out


@pytest.mark.parametrize(
    "name", ["02_bb84_attack.py", "03_key_rate_curves.py", "04_thresholds.py", "05_monte_carlo.py"]
)
def test_demo_loads(name):
    namespace = runpy.run_path(str(DEMOS / name))
    assert callable(namespace["main"])
