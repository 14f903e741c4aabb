"""Self-test of the benchmark harness.

    python3 benchmark/selftest.py

Checks, in order:
  1. self-time arithmetic on a hand-built span tree (overlapping, clipped
     and same-name nested children);
  2. the tail-percentile ladder and its nearest-rank value;
  3. the tracer restores every binding it replaced;
  4. for every workload, one untraced and two traced one-pass runs at one
     seed give the same exact-output digest, the two traced runs give
     identical counts, and the metric names are exactly those BENCHMARK.json
     lists (about three minutes).
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def test_self_time():
    def span(i, name, start, end, parent, nested=False):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                "instance": 0, "pass": 0, "nested": nested}

    spans = [
        span(0, "root", 0.0, 10.0, None),
        span(1, "a", 1.0, 4.0, 0),
        span(2, "b", 3.0, 6.0, 0),       # overlaps a: the union counts once
        span(3, "c", 8.0, 12.0, 0),      # ends after root: clipped at 10
        span(4, "a.child", 2.0, 3.0, 1),
        span(5, "r", 0.25, 0.75, 0),
        span(6, "r", 0.25, 0.5, 5, nested=True),
    ]
    selfs = tracing.self_times(spans)
    want = {0: 10 - (5 + 2 + 0.5), 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0, 5: 0.25, 6: 0.25}
    check(all(close(selfs[i], v) for i, v in want.items()), f"self times {selfs} == {want}")
    totals = tracing.span_totals(spans)
    check(close(totals["r"]["busy_s"], 0.5) and close(totals["r"]["self_s"], 0.5),
          "a span nested in one of its own name adds self time but no busy time")
    check(close(totals["root"]["busy_s"], 10.0) and close(totals["root"]["self_s"], 2.5), "root totals")


def test_tail_ladder():
    check([harness.tail_percentile(n) for n in (20, 40, 99, 100, 200, 1000)] == [50, 75, 75, 90, 95, 99],
          "tail percentile keeps ten instances beyond it")
    check(harness.nearest_rank(list(range(1, 101)), 90) == 90, "nearest rank of p90 over 100 values")


def test_restore():
    import scipy.optimize

    from lpfraisse import equi, measures, partitions, ramsey

    before = (scipy.optimize.linprog, equi.count_equi, partitions.auerbach_basis, ramsey.hashlib,
              measures.DiscreteSpace.__dict__["masses"])
    tracer = tracing.Tracer()
    tracer.install()
    check(scipy.optimize.linprog is not before[0], "install rebinds scipy.optimize.linprog")
    tracer.uninstall()
    after = (scipy.optimize.linprog, equi.count_equi, partitions.auerbach_basis, ramsey.hashlib,
             measures.DiscreteSpace.__dict__["masses"])
    check(all(a is b for a, b in zip(before, after)), "uninstall restores every binding")


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2, f"{' '.join(cmd)} exits 0 with a result")
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2])


def test_runs(workload, seed, seconds):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain, plain_d = run(bench, workload, seed, seconds, 0)
    first, first_d = run(bench, workload, seed, seconds, 1)
    second, second_d = run(bench, workload, seed, seconds, 1)
    if None in (plain, first, second):
        return
    check(set(plain) == {"correct", "attempted", "failed", "metrics"}, "result line keys")
    check(list(plain["metrics"]) == [m["name"] for m in bench["end_to_end"]],
          "untraced metrics are BENCHMARK.json's end_to_end list")
    check(list(first["metrics"]) == [m["name"] for m in bench["per_layer"]],
          "traced metrics are BENCHMARK.json's per_layer list")
    check(all(plain["metrics"][m["name"]]["unit"] == m["unit"] for m in bench["end_to_end"])
          and all(first["metrics"][m["name"]]["unit"] == m["unit"] for m in bench["per_layer"]),
          "metric units match BENCHMARK.json")
    check(plain_d["digest"] == first_d["digest"] == second_d["digest"],
          f"{workload}: traced and untraced runs give one digest ({plain_d['digest'][:16]})")
    exact = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in ("count", "ratio")}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in ("count", "ratio")}
    check(exact == again, f"{workload}: counts repeat exactly across traced runs of one seed")
    check(first_d["counts_repeat"] and second_d["counts_repeat"],
          f"{workload}: counts repeat across passes of a run")


def main() -> int:
    test_self_time()
    test_tail_ladder()
    test_restore()
    for workload in workloads.WORKLOADS:
        test_runs(workload, seed=3, seconds=1)
    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
