"""lpfraisse benchmark: four seeded workloads run as a closed loop.

One workload, as BENCHMARK.json's command runs it:

    python3 benchmark/run.py --workload gap-bridge --seed 1 --seconds 25 --trace 0

prints a details line (provenance, digest, tail percentile, failures) and,
last, one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Every workload, each in a fresh process, untraced and then traced:

    python3 benchmark/run.py --workload all --seed 1 --seconds 25

prints every end-to-end metric by name and unit per workload, the error
rate, the tracing overhead and whether both runs gave the same digest.

The exit code is 0 only when every instance passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("certify-falsify", "gap-bridge", "envelope-transfer", "exact-combinatorics")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="set up, print 'ready' where the first timed instance would start, exit")
    return ap.parse_args(argv)


def run_child(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} (trace {trace}) exited with code {proc.returncode} and no result")
    return json.loads(lines[-1]), json.loads(lines[-2]), proc.returncode


def run_all(args) -> int:
    summary = {}
    ok = True
    for w in WORKLOAD_NAMES:
        plain, plain_details, code0 = run_child(w, args.seed, args.seconds, 0)
        traced, traced_details, code1 = run_child(w, args.seed, args.seconds, 1)
        same_digest = plain_details["digest"] == traced_details["digest"]
        ok = ok and code0 == 0 and code1 == 0 and same_digest
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        summary[w] = {"end_to_end": plain["metrics"], "error_rate": plain_details["error_rate"],
                      "tail_percentile": plain_details["tail_percentile"],
                      "tail_instances": plain_details["tail_instances"],
                      "trace_overhead_s": overhead, "same_digest": same_digest,
                      "per_layer": traced["metrics"]}
        print(f"== {w}  (seed {args.seed}, {plain_details['passes']} passes, "
              f"{plain['attempted']} instances run)")
        for name, m in plain["metrics"].items():
            extra = (f"  [p{plain_details['tail_percentile']:g} of {plain_details['tail_instances']} instances]"
                     if name == "instance_tail_ms" else "")
            print(f"   {name:<18} {m['value']:>12.4f} {m['unit']}{extra}")
        print(f"   {'error_rate':<18} {plain_details['error_rate']:>12.4f} ratio")
        print(f"   {'trace_overhead_s':<18} {overhead:>12.4f} s   same digest traced/untraced: {same_digest}")
    print(json.dumps({"correct": ok, "seed": args.seed, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU and one BLAS thread, here and in every child: a single-threaded
    # caller that migrates between CPUs times slower and less steadily.  The
    # highest-numbered CPU, as the kernel's own housekeeping favours CPU 0
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "lpfraisse" / "__init__.py").is_file():
        print(f"run.py: the lpfraisse sources are missing ({SRC / 'lpfraisse'}); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import harness

    if args.probe_setup:
        harness.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result, details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
