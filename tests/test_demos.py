"""The demos run against the current API.

Demos 01 and 04 are fast and run in full; demos 02, 03 and 05 run
optimizers for 5-15 s each, so they are loaded, which checks their imports,
and demo 02's ``main`` and demo 05's ``run`` also run at a reduced restart
budget (demo 05 also at a reduced round count).
"""

import runpy
from pathlib import Path

import pytest

from qkdattack import OptimizerConfig

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


REDUCED = OptimizerConfig(restarts=2, max_iters=200)


def test_bb84_attack_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "02_bb84_attack.py"))["main"](REDUCED)
    out = capsys.readouterr().out
    assert "optimal POVM at q = 0.10 (4 outcomes on dim 4)" in out
    assert "in the basis it reads" in out
    assert "in the other: an exact tie" in out or "in the other: a near tie, not an exact one" in out


def test_thresholds_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "04_thresholds.py"))["main"]()
    out = capsys.readouterr().out
    assert "every q* lies within +/-0.003 of its published value: yes;" in out
    assert "every closed-form root lies inside its bracket: yes" in out


def test_monte_carlo_demo_runs(capsys):
    run = runpy.run_path(str(DEMOS / "05_monte_carlo.py"))["run"]
    for seed, name in enumerate(("bb84", "sixstate", "sarg04")):
        run(name, 0.10, seed=seed, n_rounds=30_000, config=REDUCED)
    out = capsys.readouterr().out
    for name in ("bb84", "sixstate", "sarg04"):
        assert f"{name} at q = 0.1, n = 30000" in out
    # six-state's third basis stays out of the attack rounds
    kept = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines() if "attack rounds kept" in line]
    assert kept[0] == kept[2] == 30_000 > kept[1]
