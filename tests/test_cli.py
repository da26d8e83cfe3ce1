import json
import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from viciouskit.cli import main

REPO = Path(__file__).resolve().parents[1]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count_subcommand(capsys):
    code, data = run_json(capsys, ["count", "--start", "0", "--end", "0",
                                   "--time", "2"])
    assert code == 0
    assert data["schema_version"] == 1
    assert data["count"] == "2"
    assert data["probability"] == {"num": "1", "den": "2", "float": 0.5}


def test_survive_subcommand(capsys):
    code, data = run_json(capsys, ["survive", "--start", "0,2", "--time", "2"])
    assert code == 0
    assert data["probability"]["num"] == "5"
    assert data["probability"]["den"] == "8"


def test_count_and_survive_print_integers_past_the_str_digit_cap(capsys, monkeypatch):
    # Python caps int-to-str conversion (4300 digits by default); the CLI
    # lifts the cap only while it formats an exact integer
    from fractions import Fraction

    from viciouskit import combinatorics
    from viciouskit.combinatorics import LatticeConfig, count_paths

    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    packed = "0,2,4,6,8,10,12,14"
    code, count = run_json(capsys, ["count", "--start", packed, "--end", packed,
                                    "--time", "4000"])
    assert code == 0
    huge = Fraction(3 ** 9001, 2 ** 15001)          # 4295 and 4516 digits
    monkeypatch.setattr(combinatorics, "survival_probability", lambda m, u: huge)
    code, survive = run_json(capsys, ["survive", "--start", "0,2", "--time", "2"])
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    u = LatticeConfig(tuple(range(0, 16, 2)))
    value = count_paths(4000, u, u.positions).value         # 9545 digits
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert count["count"] == str(value)
        assert survive["probability"]["num"] == str(huge.numerator)
        assert survive["probability"]["den"] == str(huge.denominator)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def test_survival_matches_library(capsys):
    from viciouskit.densities import survival
    import numpy as np

    code, data = run_json(capsys, ["survival", "--at", "0,1", "--time", "1"])
    assert code == 0
    assert data["probability"] == pytest.approx(survival(1.0, np.array([0.0, 1.0])))


def test_density_family_selected_by_horizon(capsys):
    _, inf_data = run_json(capsys, ["density", "--at=-0.3,0.7", "--time", "1"])
    assert inf_data["family"] == "p"
    _, fin_data = run_json(capsys, ["density", "--at=-0.3,0.7", "--time", "1",
                                    "--horizon", "2"])
    assert fin_data["family"] == "g"
    assert inf_data["density"] > 0 and fin_data["density"] > 0
    assert inf_data["density"] != fin_data["density"]


def test_simulate_walker_json_and_csv(capsys, tmp_path):
    argv = ["simulate", "--model", "walker", "--n", "2", "--start", "0,2",
            "--horizon", "1", "--scale", "4", "--samples", "20", "--seed", "3"]
    code, data = run_json(capsys, argv)
    assert code == 0
    assert data["samples"] == 20
    assert data["acceptance"] <= 1.0
    assert data["time_grid"][0] == 0.0

    out = tmp_path / "paths.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_id,t,x_1,x_2"
    assert len(lines) == 1 + 20 * len(data["time_grid"])


def test_simulate_deterministic_bytes(tmp_path):
    argv = ["simulate", "--model", "sde-p", "--n", "2", "--time", "0.4",
            "--step", "0.005", "--samples", "15", "--seed", "7",
            "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rmt_subcommand(capsys, tmp_path):
    argv = ["rmt", "--ensemble", "GUE", "--n", "2", "--samples", "500",
            "--seed", "1"]
    code, data = run_json(capsys, argv)
    assert code == 0
    # E sum lambda_i^2 / entries = variance * (n + 1) / ... sanity: positive
    assert data["second_moment"] > 0
    out = tmp_path / "spec.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "draw_id,lambda_1,lambda_2"
    assert len(lines) == 501


def test_verify_exit_code_and_schema(capsys):
    code, data = run_json(capsys, ["verify", "--suite", "combinatorics",
                                   "--samples", "300"])
    assert code == 0
    assert data["n_fail"] == 0
    assert data["n_pass"] == len(data["reports"])
    assert all(r["verdict"] == "pass" for r in data["reports"])


def test_verify_identities_alias(capsys):
    code, data = run_json(capsys, ["verify-identities", "--samples", "300"])
    assert code == 0
    assert data["suite"] == "identities"


@pytest.mark.parametrize("argv", [
    ["count", "--start", "0,2", "--end", "0,4", "--time", "4", "--n", "5", "--scale", "3"],
    ["survival", "--at", "0,1", "--horizon", "2"],
    ["rmt", "--wall"],
    ["verify", "--suite", "rmt", "--step", "0.1"],
])
def test_unread_flag_is_an_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["count", "--start", "0,2", "--end", "0,4", "--time", "4.9"],
    ["count", "--start", "0,2", "--end", "0,4", "--time", "-2"],
    ["survive", "--start", "0,2", "--time", "-1"],
    ["survive", "--start", "0,2", "--time", "2.0"],
])
def test_lattice_time_must_be_a_step_count(argv, capsys):
    # --time counts lattice steps here; a fraction is not truncated, a negative count
    # is not a traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["survive", "--start", "0,3", "--time", "2"], "--start"),
    (["simulate", "--samples", "0"], "--samples"),
    (["simulate", "--model", "sde-p", "--n", "2", "--step", "-1", "--samples", "3"], "--step"),
    (["survival", "--at", "1,0", "--time", "1"], "--at"),
    (["density", "--at", "0.5,0.1", "--time", "0.5"], "--at"),
    (["density", "--at", "0.5,0.1", "--time", "0.5", "--horizon", "1"], "--at"),
    (["density", "--at=-0.5,0.1", "--time", "0.5", "--wall"], "--at"),
    (["survival", "--at=-0.5,0.1", "--wall"], "--at"),
    (["survive", "--start=-2,0", "--wall", "--time", "2"], "--start"),
    (["count", "--start=-2,0", "--end", "0,2", "--wall", "--time", "2"], "--start"),
    (["simulate", "--start=-2,0", "--wall", "--samples", "3"], "--start"),
    (["simulate", "--model", "sde-p", "--at", "0,1", "--wall", "--samples", "3"], "--at"),
    (["density", "--at", "0.1,0.5", "--time", "-1"], "--time"),
    (["density", "--at", "0.1,0.5", "--time", "2", "--horizon", "1"], "--time"),
    (["density", "--at", "0.1,0.5", "--time", "0.5", "--horizon", "-1"], "--horizon"),
    (["survival", "--at", "0,1", "--time", "-1"], "--time"),
    (["simulate", "--n", "3", "--start", "0,2", "--samples", "3"], "--start"),
    (["simulate", "--model", "sde-p", "--n", "3", "--at", "0.1,0.5", "--samples", "3"], "--at"),
    (["simulate", "--horizon", "inf", "--samples", "3"], "--horizon"),
    (["simulate", "--model", "sde-g", "--horizon", "inf", "--samples", "3"], "--horizon"),
    (["simulate", "--model", "sde-g", "--time", "5", "--horizon", "1", "--samples", "3"],
     "--time"),
    (["simulate", "--model", "sde-p", "--time", "-1", "--samples", "3"], "--time"),
    (["simulate", "--model", "sde-p", "--time", "5e-4", "--samples", "3"], "--time"),
    (["simulate", "--model", "sde-p", "--time", "inf", "--samples", "3"], "--time"),
    (["count", "--start", "0,2", "--end", "0"], "--end"),
    (["simulate", "--scale", "1", "--horizon", "0.5", "--samples", "3"], "--horizon"),
    (["survival", "--at", "0,inf"], "--at"),
    (["simulate", "--model", "sde-p", "--at", "nan,1", "--samples", "3"], "--at"),
    (["simulate", "--model", "sde-g", "--step", "inf", "--samples", "3"], "--step"),
])
def test_bad_outside_input_names_the_flag(argv, flag, capsys):
    # not a library traceback with exit 1, nor (an unordered --at) the density at
    # the sorted point with exit 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument %s: " % flag in capsys.readouterr().err


COUNT_ARGV = ["count", "--start", "0", "--end", "0", "--time", "2"]

# What pip's generated console-script launcher does, with the target resolved
# the way the launcher's installer resolves it.
LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint("viciouskit", {value!r}, "console_scripts").load()
sys.argv[0] = "viciouskit"
sys.exit(main())
"""


def console_script_target():
    """The ``viciouskit`` entry of ``[project.scripts]`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "viciouskit" in scripts
    return scripts["viciouskit"]


def run_source_launcher(argv):
    """Run the console script from the source tree in a fresh interpreter."""
    value = console_script_target()
    assert callable(EntryPoint("viciouskit", value, "console_scripts").load())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(REPO / "src"), env.get("PYTHONPATH")] if p)
    return subprocess.run(
        [sys.executable, "-c", LAUNCHER.format(value=value), *argv],
        capture_output=True, env=env)


def test_console_script_installed():
    r = run_source_launcher(COUNT_ARGV)
    assert r.returncode == 0, r.stderr.decode()
    assert json.loads(r.stdout)["count"] == "2"


@pytest.mark.skipif(shutil.which("viciouskit") is None,
                    reason="viciouskit console script not installed")
def test_console_script_on_path():
    # Without PYTHONPATH the installed script imports its installed package,
    # so a stale install from another checkout shows as a byte difference.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([shutil.which("viciouskit"), *COUNT_ARGV],
                       capture_output=True, env=env)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout == run_source_launcher(COUNT_ARGV).stdout
