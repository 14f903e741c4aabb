"""Steadiness runs and the committed baseline.

Runs BENCHMARK.json's command `--runs` times per workload untraced, with
seeds 1, 2, ..., and `--trace-runs` times traced.  For every metric it
reports the values, their median and quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median.  Each end-to-end spread except setup_s
is checked against the metric's bound (`within_bound`, which sets the exit
code) and against a third of it (`steady`).  Per workload it also reports
the tracing overhead, the median traced wall_s minus the median untraced
one, and whether traced and untraced runs of a seed gave one digest.

    python3 benchmark/steadiness.py --out benchmark/baseline.json
    python3 benchmark/steadiness.py --workloads gap-bridge --runs 5 --trace-runs 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=3)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    within_bound = steady = True
    for w in args.workloads.split(","):
        entry = {}
        for trace, runs in ((0, args.runs), (1, args.trace_runs)):
            if runs == 0:
                continue
            values: dict[str, list[float]] = {}
            units, extra = {}, {"digests": [], "attempted": [], "failed": []}
            for seed in range(1, runs + 1):
                result, details = run_once(bench, w, seed, trace)
                print(f"{w} trace={trace} seed={seed} correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                 if trace == 0 or k == "trace.wall_s"), file=sys.stderr, flush=True)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                extra["digests"].append(details["digest"])
                extra["attempted"].append(result["attempted"])
                extra["failed"].append(result["failed"])
                if trace == 0:
                    extra.setdefault("tail_percentile", []).append(details["tail_percentile"])
                    extra.setdefault("passes", []).append(details["passes"])
                report.setdefault("provenance", details["provenance"])
            metrics = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
            if trace == 0:
                for name, m in metrics.items():
                    m["bound"] = bounds[name]
                    m["within_bound"] = m["spread"] <= bounds[name]
                    m["within_third_of_bound"] = m["spread"] < bounds[name] / 3
                    if name != "setup_s":
                        within_bound = within_bound and m["within_bound"]
                        steady = steady and m["within_third_of_bound"]
            entry["end_to_end" if trace == 0 else "per_layer"] = {"metrics": metrics, **extra}
        if len(entry) == 2:
            plain, traced = entry["end_to_end"], entry["per_layer"]
            entry["trace_overhead_s"] = (traced["metrics"]["trace.wall_s"]["median"]
                                         - plain["metrics"]["wall_s"]["median"])
            # seeds 1, 2, ... in both lists
            entry["same_digest_traced_untraced"] = traced["digests"] == plain["digests"][:len(traced["digests"])]
        report["workloads"][w] = entry
        if "end_to_end" in entry:
            print(f"{w}: " + "  ".join(f"{k} spread={m['spread']:.4f} (bound {m['bound']})"
                                        for k, m in entry["end_to_end"]["metrics"].items()), file=sys.stderr)
    report["provenance"].pop("seed", None)
    report["within_bound"] = within_bound
    report["steady"] = steady
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"within_bound": within_bound, "steady": steady}))
    return 0 if within_bound else 1


if __name__ == "__main__":
    sys.exit(main())
