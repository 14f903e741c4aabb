"""Closed-loop runner: one caller runs each instance of a workload after the
previous one completes, in passes over the workload's instance list, until
the run's time is spent.  It checks every instance's outputs, digests the
exact ones, and turns the timings (or, traced, the spans and counters)
into the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
# tail percentiles tried from the top; the first with ten instances beyond it wins
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

clock = time.perf_counter


def _rank(n: int, q: float) -> int:
    return max(1, math.ceil(q * n / 100))


def tail_percentile(n: int) -> float:
    return next((q for q in TAIL_LADDER if n - _rank(n, q) >= 10), TAIL_LADDER[-1])


def nearest_rank(values, q: float) -> float:
    return sorted(values)[_rank(len(values), q) - 1]


def digest(instances, outputs) -> str:
    rows = [[inst.family, inst.params, out] for inst, out in zip(instances, outputs)]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, tracer=None):
    """Input generation plus one untimed warm-up instance."""
    instances = workloads.WORKLOADS[workload](seed)
    warm = workloads.WARMUPS[workload]()
    if tracer is not None:
        tracer.instance = "warmup"
    warm.run()
    return instances


def probe_setup(workload: str, seed: int) -> list[float]:
    """Time fresh processes from start to their first timed instance."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--probe-setup"],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = clock()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


def measure(instances, seconds: float, tracer=None) -> dict:
    """Passes over the instances until `seconds` have elapsed; the first
    pass always completes.  Every execution is checked; every repeat of an
    instance must reproduce its first exact outputs."""
    n = len(instances)
    times = [[] for _ in range(n)]
    outputs = [None] * n
    pass_times, pass_counts = [], []
    attempted = failed = 0
    failures = []
    deadline = clock() + seconds
    while True:
        start = clock()
        before = collections.Counter(tracer.counts) if tracer else None
        complete = True
        for i, inst in enumerate(instances):
            if pass_times and clock() >= deadline:
                complete = False
                break
            t0 = clock()
            try:
                if tracer is not None:
                    tracer.instance, tracer.pass_no = i, len(pass_times)
                    exact, bad = tracer.call("instance", inst.run, (), {})
                else:
                    exact, bad = inst.run()
            except Exception as exc:  # one failing instance must not stop the run
                traceback.print_exc(file=sys.stderr)
                exact, bad = {"raised": type(exc).__name__}, [f"raised {type(exc).__name__}: {exc}"]
            times[i].append(clock() - t0)
            attempted += 1
            if outputs[i] is None:
                outputs[i] = exact
            elif exact != outputs[i]:
                bad = bad + ["not reproduced"]
            if bad:
                failed += 1
                if len(failures) < 20:
                    failures.append({"family": inst.family, "params": inst.params, "failed": bad})
        if not complete:
            break
        pass_times.append(clock() - start)
        if tracer is not None:
            pass_counts.append(collections.Counter(tracer.counts) - before)
        if clock() >= deadline:
            break
    return {"times": times, "outputs": outputs, "pass_times": pass_times, "pass_counts": pass_counts,
            "attempted": attempted, "failed": failed, "failures": failures}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics,
    in the order it lists them; a run reports exactly these."""
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def layer_values(names, counts: collections.Counter, totals: dict, wall_s: float) -> dict[str, float]:
    """Per-pass layer figures from one pass's counts and per-pass span totals."""
    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if stat in ("busy_s", "self_s"):
            values[name] = totals.get(layer, {}).get(stat, 0.0)
        else:
            values[name] = float(counts.get(name, 0))
    bridges = counts.get("geometry.bm_from_gap.calls", 0)
    values["geometry.bridged_ratio"] = ratio(bridges - counts.get("geometry.bm_from_gap.errors", 0), bridges)
    values["ramsey.colorings_per_s"] = ratio(values["ramsey.colorings"],
                                             values["ramsey.falsify_certificate.busy_s"])
    values["trace.wall_s"] = wall_s
    return values


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lpfraisse").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    info = time.get_clock_info("perf_counter")
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(str(blas[k]) for k in ("name", "version") if k in blas),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "timer": f"time.perf_counter ({info.implementation}, resolution {info.resolution:g} s)",
        "loop": "closed, one caller, instances in passes",
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, details).  The result line holds the end-to-end
    metrics untraced and the per-layer metrics traced."""
    setup = None if trace else probe_setup(workload, seed)
    tracer = tracing.Tracer(clock) if trace else None
    if tracer is not None:
        tracer.install()
    try:
        instances = prepare(workload, seed, tracer)
        m = measure(instances, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    passes = len(m["pass_times"])
    per_instance = [statistics.median(t) for t in m["times"] if t]
    q = tail_percentile(len(per_instance))
    # one pass over the instance set, each instance at its median time
    wall_s = sum(per_instance)
    details = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "instances": len(instances), "passes": passes,
        "pass_times_s": m["pass_times"],
        "tail_percentile": q, "tail_instances": len(per_instance),
        "error_rate": m["failed"] / m["attempted"],
        "digest": digest(instances, m["outputs"]),
        "failures": m["failures"],
        "provenance": provenance(seed),
    }
    OUT.mkdir(exist_ok=True)
    if trace:
        spans = [s for s in tracer.spans if isinstance(s["pass"], int) and s["pass"] < passes]
        totals = {name: {k: v / passes for k, v in t.items()} for name, t in tracing.span_totals(spans).items()}
        counts = m["pass_counts"][0]
        details["counts_repeat"] = all(c == counts for c in m["pass_counts"])
        units = metric_units("per_layer")
        metrics = {name: {"value": v, "unit": units[name]}
                   for name, v in layer_values(units, counts, totals, wall_s).items()}
        spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        details["setup_probes_s"] = setup
        values = {
            "wall_s": wall_s,
            "instance_p50_ms": statistics.median(per_instance) * 1e3,
            "instance_tail_ms": nearest_rank(per_instance, q) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    correct = m["failed"] == 0 and (not trace or details["counts_repeat"])
    result = {"correct": correct, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}
    per_instance_rows = [{"family": inst.family, "params": inst.params, "times_s": t}
                         for inst, t in zip(instances, m["times"])]
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"result": result, "details": details, "instances": per_instance_rows}, indent=1) + "\n")
    return result, details
