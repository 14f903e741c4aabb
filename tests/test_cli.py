import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpfraisse

RUN = [sys.executable, "-m", "lpfraisse.cli"]
# the child imports the package from where this process found it, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(lpfraisse.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def run_cli(*args, stdin=None):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, input=stdin, env=ENV)


def test_equi_delta():
    r = run_cli("equi", "delta", "--map", "0,1,1,1", "--s", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"delta": "1/2", "delta_float": 0.5}


def test_equi_count_exact_above_2000():
    r = run_cli("equi", "count", "-n", "2001", "--s", "2", "--delta", "0.2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert int(out["count"]) == sum(math.comb(2001, k) for k in range(801, 1201))
    assert out["fraction"] <= 1


def test_determinism_byte_identical():
    a = run_cli("--seed", "7", "measures", "counterexample", "--p", "2")
    b = run_cli("--seed", "7", "measures", "counterexample", "--p", "2")
    assert a.stdout == b.stdout and a.returncode == 0
    # suite timings go to stderr, one "name runtime_s" line per check
    argv = ("--seed", "3", "--format", "json", "suite", "--fast", "--criteria", "bump-identities,window-counting")
    a, b = run_cli(*argv), run_cli(*argv)
    assert a.stdout == b.stdout and a.returncode == 0
    assert [line.split()[0] for line in a.stderr.splitlines()] == ["bump-identities", "window-counting"]


def test_spaces_distortion_stdin():
    payload = json.dumps({
        "p": 1, "d": 2, "n": 3,
        "cols": [[{"k": 0, "s": 1, "wpow": "1/2"}, {"k": 1, "s": 1, "wpow": "1/2"}],
                 [{"k": 2, "s": 1, "wpow": "9/10"}]],
    })
    r = run_cli("spaces", "distortion", stdin=payload)
    out = json.loads(r.stdout)
    assert out["certified"] and out["lower"] == 0.9 and out["upper"] == 1.0


def test_geometry_gap_csv(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"ambient_n": 2, "ambient_p": 1, "basis": [[1.0, 0.0]]}))
    y.write_text(json.dumps({"ambient_n": 2, "ambient_p": 1, "basis": [[0.0, 1.0]]}))
    r = run_cli("geometry", "gap", "--x", str(x), "--y", str(y), "--budget-samples", "12")
    assert r.returncode == 0
    header, row = r.stdout.strip().splitlines()
    assert "lower" in header and "seed" in header


def test_certify_and_replay(tmp_path):
    cert = tmp_path / "cert.jsonl"
    r = run_cli("equi", "certify", "-d", "2", "-m", "2", "-r", "2",
                "--eps", "0.6", "--delta", "0.2", "-o", str(cert))
    out = json.loads(r.stdout)
    assert out["verdict"] and out["replay_ok"]
    r2 = run_cli("suite", "--replay", str(cert))
    assert r2.returncode == 0

    # tampering must fail the replay
    text = cert.read_text().replace('"n": ', '"n": 2')
    cert.write_text(text)
    r3 = run_cli("suite", "--replay", str(cert))
    assert r3.returncode == 1


def test_certify_refusal_exit_code():
    r = run_cli("equi", "certify", "-d", "2", "-m", "4", "-r", "2", "--eps", "0.001", "--delta", "0.1")
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "no certified n within budget"
    assert "Traceback" not in r.stderr


def test_mazur_transfer():
    r = run_cli("mazur", "transfer", "--p", "3", "--q", "1",
                "-d", "2", "-m", "4", "-r", "2", "--eps", "0.1")
    out = json.loads(r.stdout)
    assert out["eps_transferred"] == pytest.approx(0.3)
    assert out["constant"] is None


def test_lattice_round_stdin():
    r = run_cli("lattice", "round", "--delta", "0.05", stdin="[[0.98],[0.35],[-0.02]]")
    out = json.loads(r.stdout)
    assert out["matrix"][0][0] == 1.0
    assert out["distance"] <= out["bound"]


def test_ramsey_check_exhaustive():
    r = run_cli("ramsey", "check", "-n", "4", "-d", "2", "-m", "2", "-r", "2",
                "--eps", "0.5", "--delta", "0")
    out = json.loads(r.stdout)
    assert out["decided"] and out["holds"]


def test_error_path_exit_code():
    r = run_cli("measures", "char", "--input", "/nonexistent.json")
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert "error" in out


def test_env_seed_fallback():
    env = dict(ENV, LPFRAISSE_SEED="99")
    a = subprocess.run(RUN + ["measures", "counterexample", "--p", "2"],
                       capture_output=True, text=True, env=env)
    assert a.returncode == 0


def test_envelope_transfer_onto_printed_basis(tmp_path):
    # the identity transfer: target space = source space, gamma = the printed basis
    rng = np.random.default_rng(4)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"atoms": [{"label": a, "mass": f"{int(m)}/300"}
                                           for a, m in enumerate(rng.integers(1, 20, size=30))]}))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(np.column_stack([np.ones(30), rng.normal(size=30)]).tolist()))
    common = ("--seed", "4", "envelope")
    opts = ("--space", str(space), "--basis", str(basis), "--p", "3", "--eps", "0.4")
    built = run_cli(*common, "build", *opts)
    assert built.returncode == 0
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(json.loads(built.stdout)["basis"]))
    r = run_cli(*common, "transfer", *opts, "--target-space", str(space), "--gamma", str(gamma))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["isometric_exact"] is True
    assert out["envelope"]["basis"] == json.loads(built.stdout)["basis"]


def test_suite_single_criterion_fast():
    r = run_cli("--format", "json", "suite", "--fast", "--criteria", "spread-dp")
    out = json.loads(r.stdout)
    assert out["all_passed"] and len(out["rows"]) == 1
    assert r.returncode == 0


@pytest.mark.parametrize("name", ["characteristic-uniqueness", "mazur-transport"])
def test_suite_criteria_select_by_reported_name(name):
    r = run_cli("--format", "json", "suite", "--fast", "--criteria", name)
    assert r.returncode == 0
    assert [row["name"] for row in json.loads(r.stdout)["rows"]] == [name]


def test_suite_unknown_criterion_exit_code():
    r = run_cli("--format", "json", "suite", "--fast", "--criteria", "nonsense")
    assert r.returncode == 2
    err = json.loads(r.stdout)["error"]
    assert "nonsense" in err and "mazur-transport" in err


def test_suite_exit_code_counts_uncertified_checks(monkeypatch, capsys):
    from lpfraisse import cli, suite

    failing = suite.CheckResult("gap-geometry", passed=False, runtime=0.0, certified=False)
    monkeypatch.setattr(suite, "run_suite", lambda **kwargs: [failing])
    assert cli.main(["--format", "json", "suite"]) == 1
    assert json.loads(capsys.readouterr().out)["all_passed"] is False
