import dataclasses
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkdattack.optimizer as op
from povm_helpers import random_povm
from qkdattack import cli, keyrate
from qkdattack.cli import main
from qkdattack.information import Povm
from qkdattack.keyrate import bb84_closed_form_iae
from qkdattack.optimizer import AttackResult, OptimizerConfig

LIGHT = ["--restarts", "8", "--alpha-grid-points", "9"]


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_curve_bb84_csv(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(
        ["curve", "--protocol", "bb84", "--q-max", "0.15", "--steps", "4", "--out", str(out)]
        + LIGHT
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "q,i_ab,i_ae,rate,alpha,robust,i_ae_closed_form"
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        q, i_ae, closed = float(fields[0]), float(fields[2]), float(fields[6])
        assert abs(i_ae - closed) <= 1e-4
        assert abs(closed - bb84_closed_form_iae(q)) <= 1e-9
        assert fields[5] in ("true", "false")
    manifest = _load(str(out) + ".manifest.json")
    assert manifest["command"] == "curve"
    assert manifest["config"]["restarts"] == 8
    assert manifest["version"]


def test_curve_single_zero_point(tmp_path):
    out = tmp_path / "zero.csv"
    rc = main(
        ["curve", "--protocol", "sixstate", "--q-min", "0", "--q-max", "0", "--steps", "1",
         "--out", str(out), "--restarts", "4"]
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "q,i_ab,i_ae,rate,alpha,robust,i_ae_closed_form"
    fields = lines[1].split(",")
    assert float(fields[3]) == pytest.approx(1.0, abs=1e-8)
    assert float(fields[6]) == pytest.approx(0.0, abs=1e-12)


def test_curve_rejects_bad_range(tmp_path):
    rc = main(["curve", "--protocol", "bb84", "--q-min", "0.3", "--q-max", "0.2",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_curve_rejects_an_empty_grid_with_the_library_message(tmp_path, capsys, steps):
    out = tmp_path / "x.csv"
    rc = main(["curve", "--protocol", "bb84", "--steps", steps, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: grid must hold at least one error rate\n"
    assert not out.exists()


def test_curve_unwritable_path():
    rc = main(["curve", "--protocol", "bb84", "--q-max", "0.1", "--steps", "2",
               "--out", "/nonexistent-dir/x.csv", "--restarts", "4"])
    assert rc == 2


def test_attack_zero_noise_round_trip(tmp_path):
    out = tmp_path / "attack0.json"
    rc = main(["attack", "--protocol", "bb84", "--q", "0", "--out", str(out), "--restarts", "4"])
    assert rc == 0
    report = _load(out)
    assert report["i_ae"] <= 1e-6
    elements = np.array(
        [np.array(e["real"]) + 1j * np.array(e["imag"]) for e in report["povm_elements"]]
    )
    Povm(elements)  # validates completeness and positivity on reload
    assert np.max(np.abs(elements.sum(axis=0) - np.eye(4))) < 1e-9


def test_attack_matches_closed_form(tmp_path):
    out = tmp_path / "attack.json"
    rc = main(["attack", "--protocol", "bb84", "--q", "0.1", "--out", str(out)] + LIGHT)
    assert rc == 0
    report = _load(out)
    assert abs(report["i_ae"] - bb84_closed_form_iae(0.1)) <= 1e-4
    assert report["robust"] is True
    assert report["manifest"]["params"] == {"q": 0.1}
    # bb84's value falls away from alpha_lo, and the slope interval certifies that bound
    assert report["best_alpha"] == 0.8 and report["alpha_stop"] == "bound"
    assert len(report["alpha_slope"]) == 2 and max(report["alpha_slope"]) < 0


def test_attack_reports_how_the_alpha_search_ended(tmp_path):
    # sarg04's optimum is interior: the secant ends on its budget or at a slope interval around 0
    out = tmp_path / "attack.json"
    assert main(["attack", "--protocol", "sarg04", "--q", "0.1", "--out", str(out)] + LIGHT) == 0
    report = _load(out)
    low, high = report["alpha_slope"]
    assert low <= high
    assert report["alpha_stop"] == ("stationary" if low <= 0 <= high else "budget")


def test_attack_rejects_bad_q(tmp_path):
    rc = main(["attack", "--protocol", "bb84", "--q", "0.7", "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_simulate_bb84(tmp_path):
    out = tmp_path / "sim.json"
    rc = main(
        ["simulate", "--protocol", "bb84", "--q", "0.1", "--n-rounds", "100000",
         "--sample-seed", "5", "--out", str(out)] + LIGHT
    )
    assert rc == 0
    report = _load(out)
    assert abs(report["qber_hat"] - 0.1) < 0.01
    assert abs(report["delta"]["i_ae"]) < 0.02
    assert report["sifted_fraction"] == pytest.approx(0.5)
    assert report["n_attack_rounds"] == report["n_rounds"]


def test_simulate_sixstate_attack_rounds(tmp_path):
    out = tmp_path / "sim6.json"
    rc = main(
        ["simulate", "--protocol", "sixstate", "--q", "0.1", "--n-rounds", "30000",
         "--out", str(out), "--restarts", "6"]
    )
    assert rc == 0
    report = _load(out)
    assert report["sifted_fraction"] == pytest.approx(1 / 3)
    # only the basis pair entering the estimator is scored
    assert report["n_attack_rounds"] < report["n_rounds"]
    assert abs(report["delta"]["i_ae"]) < 0.03


def test_simulate_sarg04_checks_round_averaged_qber(tmp_path):
    # sarg04's Hadamard basis errs at 3q/2, so the sampled error is checked
    # against the round average 1.25q, not against q
    n = 200_000
    out = tmp_path / "sarg.json"
    rc = main(
        ["simulate", "--protocol", "sarg04", "--q", "0.1", "--n-rounds", str(n),
         "--restarts", "4", "--alpha-grid-points", "5", "--out", str(out)]
    )
    assert rc == 0
    report = _load(out)
    e = report["analytic"]["qber"]
    assert e == pytest.approx(1.25 * 0.1, abs=1e-12)
    assert report["delta"]["qber"] == report["qber_hat"] - e
    assert abs(report["delta"]["qber"]) <= 4 * np.sqrt(e * (1 - e) / n)


def test_simulate_rejects_small_n(tmp_path):
    rc = main(["simulate", "--protocol", "bb84", "--q", "0.1", "--n-rounds", "500",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_simulate_rejects_negative_sample_seed(tmp_path, monkeypatch, capsys):
    def no_ascent(*args):
        raise AssertionError("an ascent ran before the sample seed was checked")

    monkeypatch.setattr(cli, "optimize_attack", no_ascent)
    out = tmp_path / "x.json"
    rc = main(["simulate", "--protocol", "bb84", "--q", "0.1", "--sample-seed", "-1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sample-seed") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "option",
    [["--restarts", "0"], ["--alpha-grid-points", "0"], ["--alpha-grid-points", "1"], ["--seed", "-1"]],
    ids=lambda o: " ".join(o),
)
def test_attack_rejects_bad_config(tmp_path, monkeypatch, capsys, option):
    def no_ascent(*args):
        raise AssertionError("an ascent ran before the config was checked")

    monkeypatch.setattr(cli, "optimize_attack", no_ascent)
    out = tmp_path / "x.json"
    rc = main(["attack", "--protocol", "bb84", "--q", "0.1", "--out", str(out)] + option)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["curve", "threshold"])
def test_one_point_grid_is_rejected_before_any_ascent(tmp_path, monkeypatch, capsys, command):
    def no_ascent(*args):
        raise AssertionError("an ascent ran before the grid was checked")

    monkeypatch.setattr(op, "_ascend", no_ascent)
    out = tmp_path / "x.out"
    rc = main([command, "--protocol", "sarg04", "--alpha-grid-points", "1", "--out", str(out)])
    assert rc == 2
    assert "alpha_grid_points at least 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_lines_parse():
    # a renamed or removed flag fails here before a reader runs the README's examples
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("qkdattack ")]
    assert [argv[1] for argv in lines] == ["curve", "threshold", "attack", "simulate"]
    for argv in lines:
        assert cli._build_parser().parse_args(argv[1:]).command == argv[1]


@pytest.mark.parametrize("tolerance", ["nan", "1e-5", "inf", "0.3"])
def test_threshold_rejects_bad_tolerance(tmp_path, monkeypatch, tolerance):
    def no_probe(*args):
        raise AssertionError("a probe ran before the tolerance was checked")

    monkeypatch.setattr(keyrate, "optimize_attack", no_probe)
    out = tmp_path / "t.json"
    rc = main(["threshold", "--protocol", "sixstate", "--tolerance", tolerance, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_threshold_deterministic_reruns(tmp_path):
    args = ["threshold", "--protocol", "sixstate", "--tolerance", "2e-3",
            "--restarts", "6"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    a, b = _load(out_a), _load(out_b)
    a["manifest"].pop("duration_seconds")
    b["manifest"].pop("duration_seconds")
    assert a == b
    assert abs(a["threshold_q"] - 0.204) <= 0.003
    assert a["rate_low"] > 0 > a["rate_high"]
    # each probe is reported with its q, rate, slope and re-run flag; the bracket ends are probes
    probes = {p["q"]: p for p in a["probes"]}
    assert all(list(p) == ["q", "rate", "slope", "rerun"] for p in a["probes"])
    assert [probes[q]["rate"] for q in a["bracket"]] == [a["rate_low"], a["rate_high"]]


def _result(protocol, q, trusted):
    """A stand-in attack result: robust and converged, or neither."""
    return AttackResult(
        q=q, protocol=protocol, i_ae=0.0, best_alpha=1.0, best_povm=random_povm(4, 4, 0),
        restarts_agreeing=8 if trusted else 1, converged=trusted, robust=trusted,
        alpha_slope=None, alpha_stop="bound",
    )


def test_threshold_without_sign_change_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(keyrate, "_BRACKET", (0.05, 0.10))
    out = tmp_path / "t.json"
    rc = main(["threshold", "--protocol", "sixstate", "--restarts", "4", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: no sign change")
    assert not out.exists()


def test_attack_untrustworthy_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "optimize_attack", lambda protocol, q, config: _result(protocol, q, False))
    out = tmp_path / "a.json"
    rc = main(["attack", "--protocol", "bb84", "--q", "0.1", "--restarts", "8", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: only 1/8 restarts agree")
    assert not out.exists()


def test_curve_mostly_non_robust_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(keyrate, "optimize_attack", lambda protocol, q, config: _result(protocol, q, q == 0.0))
    out = tmp_path / "c.csv"
    rc = main(["curve", "--protocol", "sixstate", "--q-max", "0.2", "--steps", "3", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: 2 of 3 grid points are non-robust")
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[5] for row in rows] == ["true", "false", "false"]
    assert _load(str(out) + ".manifest.json")["command"] == "curve"


def test_simulate_too_few_attack_rounds(tmp_path, capsys):
    # a third of the six-state rounds fall outside the attack bases, leaving fewer than 1000
    out = tmp_path / "s.json"
    rc = main(["simulate", "--protocol", "sixstate", "--q", "0.1", "--n-rounds", "1000",
               "--restarts", "4", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need at least 1000 attack-basis rounds") and "raise n_rounds" in err
    assert not out.exists()


def test_simulate_checks_attack_rounds_before_the_optimizer(tmp_path, monkeypatch, capsys):
    # 1200 six-state rounds pass a plain 1000-round floor but hold only 800 attack-basis rounds;
    # a negative count must fail the same check, not slip past it as NaN
    def no_ascent(*args):
        raise AssertionError("an ascent ran before the attack-basis rounds were checked")

    monkeypatch.setattr(cli, "optimize_attack", no_ascent)
    out = tmp_path / "s.json"
    for n_rounds, attack_rounds in ((1200, 800), (-5, -4)):
        argv = ["simulate", "--protocol", "sixstate", "--q", "0.1", "--n-rounds", str(n_rounds), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: need at least 1000 attack-basis rounds for stable estimates, got {attack_rounds}")
        assert not out.exists()


@pytest.mark.parametrize(("protocol", "scale"), [("bb84", 1.0), ("sixstate", 0.5), ("sarg04", None)])
def test_curve_closed_form_column(tmp_path, monkeypatch, protocol, scale):
    # the column is bb84_closed_form_iae(s q) for the protocol's closed_form_q_scale s,
    # empty where s q > 1/4, and absent without a closed form
    monkeypatch.setattr(keyrate, "optimize_attack", lambda protocol, q, config: _result(protocol, q, True))
    out = tmp_path / "c.csv"
    assert main(["curve", "--protocol", protocol, "--q-max", "0.4", "--steps", "9", "--out", str(out)]) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    if scale is None:
        assert header == "q,i_ab,i_ae,rate,alpha,robust"
        return
    assert header == "q,i_ab,i_ae,rate,alpha,robust,i_ae_closed_form"
    closed = [row.split(",")[6] for row in rows]
    grid = np.linspace(0.0, 0.4, 9)
    assert closed == ["%.10g" % bb84_closed_form_iae(scale * q) if scale * q <= 0.25 else "" for q in grid]
    assert ("" in closed) == (protocol == "bb84")


def test_simulate_sixstate_counts_the_spread_of_attack_rounds(tmp_path, monkeypatch, capsys):
    # 1500 six-state rounds hold 1000 attack-basis rounds only on average; about half the
    # samples fall short, so the rule asks for 1000 at four standard deviations below the mean
    def no_ascent(*args):
        raise AssertionError("an ascent ran before the attack-basis rounds were checked")

    monkeypatch.setattr(cli, "optimize_attack", no_ascent)
    out = tmp_path / "s.json"
    rc = main(["simulate", "--protocol", "sixstate", "--q", "0.1", "--n-rounds", "1500", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        "error: need at least 1000 attack-basis rounds for stable estimates, got 1000 expected, "
        "927 four sigma below; raise n_rounds\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "params"),
    [
        (["curve", "--q-max", "0.2", "--steps", "3"], {"q_min": 0.0, "q_max": 0.2, "steps": 3}),
        (["threshold"], {"tolerance": 1e-3}),
        (["attack", "--q", "0.1"], {"q": 0.1}),
        (["simulate", "--q", "0", "--n-rounds", "2000"], {"q": 0.0, "n_rounds": 2000, "sample_seed": 0}),
    ],
    ids=["curve", "threshold", "attack", "simulate"],
)
def test_manifest_of_each_command(tmp_path, monkeypatch, argv, params):
    # i_ae = 0.5 puts the rate's zero inside the threshold bracket; best_alpha 1 is admissible at q = 0
    def stub(protocol, q, config):
        return dataclasses.replace(_result(protocol, q, True), i_ae=0.5)

    monkeypatch.setattr(cli, "optimize_attack", stub)
    monkeypatch.setattr(keyrate, "optimize_attack", stub)
    out = tmp_path / "out"
    assert main([argv[0], "--protocol", "bb84", "--restarts", "8", "--out", str(out)] + argv[1:]) == 0
    if argv[0] == "curve":
        manifest = _load(str(out) + ".manifest.json")
    else:
        report = _load(out)
        assert next(iter(report)) == "manifest"
        manifest = report["manifest"]
    assert list(manifest["params"].items()) == list(params.items())
    assert (manifest["command"], manifest["protocol"]) == (argv[0], "bb84")
    assert manifest["config"] == dataclasses.asdict(OptimizerConfig(restarts=8))


def test_module_entry_point_exit_code(tmp_path):
    # python -m qkdattack.cli hands main's exit code to the shell
    out = tmp_path / "x.json"
    done = subprocess.run(
        [sys.executable, "-m", "qkdattack.cli", "attack", "--protocol", "bb84", "--q", "0.7", "--out", str(out)],
        env={"PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr == "error: q=0.7 is outside [0, 0.5]: q must lie in that interval\n"
    assert done.stdout == "" and not out.exists()
