import argparse
import ast
import json
import math
import os
import subprocess
import sys
import time
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
    assert r.stdout == "certified,lower,samples,seed,upper\nFalse,1.0,12,0,1.0\n"


def refusal(argv, capsys) -> str:
    """The error of an argv that main refuses: exit 2, one JSON object on
    standard output and nothing on standard error."""
    from lpfraisse import cli

    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    report = json.loads(out)
    assert set(report) == {"error", "pointer"} and report["pointer"] == ""
    return report["error"]


@pytest.mark.parametrize("argv", [
    ["equi", "count", "--budget-samples", "5"],
    ["--budget-samples", "5", "geometry", "gap", "--x", "x.json", "--y", "y.json"],
    ["measures", "counterexample", "--budget-colorings", "5"],
])
def test_budget_flags_only_where_read(argv, capsys):
    # --budget-samples belongs to spaces distortion and geometry, --budget-colorings to ramsey check
    flag = next(a for a in argv if a.startswith("--budget"))
    assert flag in refusal(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["spaces", "round", "--budget-samples", "5"],
    ["spaces", "amalgamate", "--gamma", "g.json", "--eta", "e.json", "--budget-samples", "64"],
    ["ramsey", "spread", "--budget-colorings", "5"],
    ["ramsey", "dp", "--budget-colorings", "5"],
    ["ramsey", "search", "--budget-colorings", "5"],
    ["ramsey", "dual", "--budget-colorings", "5"],
    ["ramsey", "demo", "--budget-colorings", "1000000"],
])
def test_budget_flags_refused_by_actions_that_ignore_them(argv):
    r = run_cli(*argv)
    assert r.returncode == 2 and r.stderr == ""
    assert argv[-2] in json.loads(r.stdout)["error"]


@pytest.mark.parametrize("argv, name", [
    # a flag of another action or subcommand
    (["equi", "count", "--map", "0,1"], "--map"),
    (["lattice", "check", "--delta", "0.1", "--mode", "disjoint"], "--mode"),
    (["mazur", "map", "--p", "1", "--q", "2", "--vector", "[1]", "-d", "5"], "-d"),
    (["ramsey", "check", "--s", "2"], "--s"),  # no abbreviation of --seed
    # an input the action needs
    (["equi", "delta"], "--map"),
    (["equi", "match", "--s", "2"], "--phi"),
    (["mazur", "map", "--p", "1", "--q", "2"], "--vector"),
    (["spaces", "amalgamate"], "--gamma"),
    (["ramsey", "spread"], "--profile"),
    (["measures", "lp"], "--mu"),
    # a flag before the action or subcommand name, where only --seed and --format go
    (["equi", "-n", "5", "count"], "-n"),
    (["equi", "--s", "3", "delta", "--map", "0,1"], "--s"),
    (["--eps", "0.5", "ramsey", "check"], "--eps"),
    # a bad value or choice
    (["lattice", "round", "--delta", "0.1", "--mode", "exact"], "--mode"),
    (["equi", "count", "-n", "four"], "-n"),
    (["equi", "count", "--format", "xml"], "--format"),
    # a missing or unknown subcommand or action
    (["equi"], "action"),
    (["equi", "mean"], "mean"),
    (["means", "count"], "means"),
    (["--seed", "3"], "command"),
])
def test_parse_refusals_name_what_they_refuse(argv, name, capsys):
    assert name in refusal(argv, capsys)


@pytest.mark.parametrize("argv, error", [
    (["equi", "count", "--s", "0"], "need s >= 1"),
    (["equi", "count", "-n", "6", "--delta", "-0.5"], "finite delta >= 0"),
    (["equi", "count", "-n", "20000", "--s", "3", "--delta", "0.5"], "predicted cost"),
    (["equi", "certify", "-d", "0"], "need d, m, r >= 1"),
    (["equi", "certify", "--delta", "-0.1", "-r", "2"], "finite delta >= 0"),
    (["equi", "certify", "--eps", "nan", "-r", "2"], "finite eps > 0"),
])
def test_out_of_domain_values_refused(argv, error, capsys):
    start = time.perf_counter()
    assert error in refusal(argv, capsys)
    assert time.perf_counter() - start < 2


def _subparsers(parser) -> dict:
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def _reads(stmts) -> set[str]:
    return {node.attr for stmt in stmts for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_each_action_parses_exactly_the_flags_it_reads():
    from lpfraisse import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for command, parser in _subparsers(cli.build_parser()).items():
        # the branches `if args.action == "...":` of cmd_<command>, and the statements they share
        branches, shared = {}, []
        for stmt in handlers[f"cmd_{command}"].body:
            if isinstance(stmt, ast.If) and ast.unparse(stmt.test).startswith("args.action == "):
                branches[stmt.test.comparators[0].value] = stmt.body
            else:
                shared.append(stmt)
        actions = _subparsers(parser) or {None: parser}  # suite has no actions
        assert set(branches) == set(actions) - {None}, command
        for action, ap in actions.items():
            # --seed and --format are global; main reads --format
            flags = {a.dest for a in ap._actions} - {"help", "seed", "format"}
            assert flags == _reads(shared + branches.get(action, [])) - {"action", "seed"}, (command, action)


DISTORTION_INPUT = ('{"p":1,"d":2,"n":3,"cols":[[{"k":0,"s":1,"wpow":"1/2"},'
                    '{"k":1,"s":1,"wpow":"1/2"}],[{"k":2,"s":1,"wpow":"9/10"}]]}')


@pytest.mark.parametrize("argv, flag, stdin", [
    (["spaces", "distortion"], ["--budget-samples", "64"], DISTORTION_INPUT),
    (["ramsey", "check", "-n", "4", "-d", "2", "-m", "2", "-r", "2", "--eps", "0.5"],
     ["--budget-colorings", "1000000"], None),
])
def test_budget_flags_read_where_given(argv, flag, stdin):
    # the reading action takes the flag, and its explicit default prints the bytes of no flag
    given, plain = run_cli(*argv, *flag, stdin=stdin), run_cli(*argv, stdin=stdin)
    assert given.returncode == plain.returncode == 0
    assert given.stdout == plain.stdout


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


def test_replay_of_an_honest_negative(tmp_path, capsys):
    from lpfraisse import cli, equi

    cert = tmp_path / "cert.jsonl"
    cert.write_text(equi._certificate_for(2, 4, 2, 0.4, 0.0, 6).to_jsonl())
    assert cli.main(["suite", "--replay", str(cert), "--format", "json"]) == 1
    row = {"replay": str(cert), "ok": True, "verdict": False}
    assert json.loads(capsys.readouterr().out) == {"rows": [row]}


@pytest.mark.parametrize("flags", [["--fast"], ["--criteria", "certificates"], ["--fast", "--criteria", ""]])
def test_replay_refuses_battery_flags(tmp_path, capsys, flags):
    from lpfraisse import cli

    cert = tmp_path / "cert.jsonl"
    assert cli.main(["equi", "certify", "-d", "2", "-m", "2", "-r", "2",
                     "--eps", "0.6", "--delta", "0.2", "-o", str(cert)]) == 0
    capsys.readouterr()
    assert cli.main(["suite", "--replay", str(cert), *flags]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"{flags[0]} is not read by 'suite --replay'", "pointer": ""}


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
    # an empty name is unknown too, as in "a,,b"; it does not mean "every check"
    for name in ("nonsense", ""):
        r = run_cli("--format", "json", "suite", "--fast", "--criteria", name)
        assert r.returncode == 2
        err = json.loads(r.stdout)["error"]
        assert f"[{name!r}]" in err and "mazur-transport" in err


def test_suite_exit_code_counts_uncertified_checks(monkeypatch, capsys):
    from lpfraisse import cli, suite

    failing = suite.CheckResult("gap-geometry", passed=False, runtime=0.0, certified=False)
    monkeypatch.setattr(suite, "run_suite", lambda **kwargs: [failing])
    assert cli.main(["--format", "json", "suite"]) == 1
    assert json.loads(capsys.readouterr().out)["all_passed"] is False
