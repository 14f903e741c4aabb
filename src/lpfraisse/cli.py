"""Command-line front end.  Subcommands mirror the library modules; every
sampled quantity is tagged with its seed and identical (argv, seed, inputs)
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

from lpfraisse import equi, geometry, lattice, mazur, measures, partitions, ramsey, spaces, suite
from lpfraisse.core import PIndex, dumps_canonical


def _read_json(path: str):
    with (sys.stdin if path == "-" else open(path)) as fh:
        return json.load(fh)


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(dumps_canonical(report))
    elif fmt == "csv":
        rows = report.get("rows", [report])
        buf = io.StringIO()
        keys = sorted({k for r in rows for k in r})
        w = csv.DictWriter(buf, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in keys})
        sys.stdout.write(buf.getvalue())
    else:  # table
        rows = report.get("rows", [report])
        keys = sorted({k for r in rows for k in r})
        widths = {k: max(len(k), *(len(str(r.get(k, ""))) for r in rows)) for k in keys}
        print("  ".join(k.ljust(widths[k]) for k in keys))
        for r in rows:
            print("  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))


def _parse_vector(text: str) -> np.ndarray:
    return np.array(json.loads(text), dtype=float)


def _measure_from_arg(arg: str) -> measures.DiscreteMeasure:
    return measures.DiscreteMeasure.from_json(_read_json(arg))


def cmd_spaces(args) -> dict:
    if args.action == "distortion":
        obj = _read_json(args.input)
        T = spaces.LampertiEmbedding.from_json(obj) if "cols" in obj else spaces.LinearMap.from_json(obj)
        rep = spaces.distortion(T, samples=args.budget_samples, seed=args.seed)
        return rep.to_json()
    if args.action == "round":
        T = spaces.LinearMap.from_json(_read_json(args.input))
        R = spaces.hilbert_round(T)
        return {"matrix": [list(map(float, r)) for r in R.matrix],
                "distance": spaces.operator_distance_l2(T, R)}
    if args.action == "amalgamate":
        g = spaces.LampertiEmbedding.from_json(_read_json(args.gamma))
        e = spaces.LampertiEmbedding.from_json(_read_json(args.eta))
        N, i, j = spaces.amalgamate(g, e, coupling=args.coupling)
        return {"N": N, "i": i.to_json(), "j": j.to_json(),
                "composites_equal": spaces.compose(i, g).signature() == spaces.compose(j, e).signature()}


def cmd_geometry(args) -> dict:
    X = geometry.Subspace.from_json(_read_json(args.x))
    Y = geometry.Subspace.from_json(_read_json(args.y))
    if args.action == "gap":
        g = geometry.gap_estimate(X, Y, budget=args.budget_samples, seed=args.seed)
        return {"rows": [{"lower": g.lower, "upper": g.upper, "samples": g.samples,
                          "seed": args.seed, "certified": False}]}
    if args.action == "bm":
        try:
            br = geometry.bm_from_gap(X, Y, budget=args.budget_samples, seed=args.seed)
        except geometry.GapPreconditionError as exc:
            return {"rows": [{"refused": True, "gap_upper": exc.gap_upper, "needed": exc.needed}]}
        return {"rows": [{"bound": br.bound, "displacement": br.displacement,
                          "gap_lower": br.gap.lower, "gap_upper": br.gap.upper,
                          "limit": 4 * X.dim * br.gap.upper, "seed": args.seed}]}


def cmd_mazur(args) -> dict:
    p, q = PIndex.of(Fraction(args.p)), PIndex.of(Fraction(args.q))
    if args.action == "map":
        x = spaces.VectorP(_parse_vector(args.vector), p)
        y = mazur.mazur_map(x, mazur.MazurParams(p, q))
        return {"vector": list(map(float, y.entries)), "p": p.to_json(), "q": q.to_json(),
                "norm_identity_defect": abs(y.norm() ** float(q) - x.norm() ** float(p))}
    if args.action == "embed":
        g = spaces.LampertiEmbedding.from_json(_read_json(args.input))
        out = mazur.mazur_embedding(g, mazur.MazurParams(p, q))
        return out.to_json()
    if args.action == "transfer":
        t = mazur.transfer_instance(args.d, args.m, args.r, args.eps, p, q)
        return t.to_json()


def cmd_measures(args) -> dict:
    if args.action == "char":
        mu = _measure_from_arg(args.input)
        a = _parse_vector(args.a)
        return {"value": measures.p_characteristic(mu, a, Fraction(args.p))}
    if args.action == "lp":
        mu, nu = _measure_from_arg(args.mu), _measure_from_arg(args.nu)
        r = measures.levy_prokhorov(mu, nu)
        return {"lower": r.lower, "upper": r.upper, "exact": r.exact}
    if args.action == "invert":
        mu = _measure_from_arg(args.input)
        p = int(args.p)
        char = measures.characteristic_oracle(mu, p)
        v, err, a_used = measures.invert_cdf_with_error(char, args.a_scalar, args.eps, p)
        return {"value": v, "rounding_bound": err, "a_used": a_used,
                "jittered": a_used != args.a_scalar}
    if args.action == "counterexample":
        rep = measures.even_p_counterexample(int(args.p))
        return {"mu": rep.mu.to_json(), "nu": rep.nu.to_json(),
                "char_gap": rep.char_gap, "lp_distance": rep.lp_distance}


def cmd_envelope(args) -> dict:
    space = measures.DiscreteSpace(tuple(
        (a["label"], Fraction(a["mass"])) for a in _read_json(args.space)["atoms"]))
    basis = np.array(_read_json(args.basis), dtype=float)
    env = partitions.envelope(basis, space, args.eps, Fraction(args.p), seed=args.seed)
    dump = {
        "basis": env.basis.tolist(),
        "partition": env.partition.to_json(),
        "cells": [{"key": list(k), "mass": str(w)} for k, w in zip(env.cell_keys, env.weights)],
        "defect": env.defect,
        "seed": args.seed,
    }
    if args.action == "build":
        return dump
    if args.action == "transfer":
        tgt = measures.DiscreteSpace(tuple(
            (a["label"], Fraction(a["mass"])) for a in _read_json(args.target_space)["atoms"]))
        gvals = np.array(_read_json(args.gamma), dtype=float)
        try:
            tr = partitions.transfer_isometry(env, gvals, tgt, seed=args.seed)
        except partitions.CellMismatchError as exc:
            return {"refused": True, "offending_cells": [list(c) for c in exc.offending]}
        return {"isometric_exact": tr.isometric_exact, "defect": tr.defect,
                "ratios": [str(r) for r in tr.ratios], "envelope": dump}


def cmd_equi(args) -> dict:
    if args.action == "delta":
        F = equi.Equisurjection(tuple(int(v) for v in args.map.split(",")), args.s)
        return {"delta": str(equi.delta_of(F)), "delta_float": float(equi.delta_of(F))}
    if args.action == "match":
        phi = equi.Equisurjection(tuple(int(v) for v in args.phi.split(",")), args.s)
        psi = equi.Equisurjection(tuple(int(v) for v in args.psi.split(",")), args.s)
        pi = equi.match_permutation(phi, psi)
        ach = equi.hamming(equi.apply_permutation(psi, pi), phi)
        return {"pi": list(pi), "achieved": str(ach),
                "bound": str((equi.delta_of(phi) + equi.delta_of(psi)) / 2)}
    if args.action == "round":
        F = equi.Equisurjection(tuple(int(v) for v in args.map.split(",")), args.s)
        R = equi.round_to_exact(F)
        return {"rounded": list(R.values), "distance": str(equi.hamming(F, R)),
                "bound": str(equi.delta_of(F) / 2)}
    if args.action == "count":
        cnt, frac = equi.count_equi(args.n, args.s, args.delta)
        return {"count": str(cnt), "fraction": frac,
                "printed_lower_bound": equi.equi_fraction_lower_bound_printed(args.n, args.s, args.delta)}
    if args.action == "alpha":
        r = equi.concentration_exact(args.n, args.s, args.theta, args.eps)
        return {"lower": r.lower, "upper": r.upper, "mode": r.mode,
                "product_bound": equi.hamming_bound_exp(args.n, args.eps)}
    if args.action == "certify":
        n, cert = equi.sufficient_n_certificate(args.d, args.m, args.r, args.eps, args.delta)
        text = cert.to_jsonl()
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        return {"n": n, "verdict": cert.verdict, "replay_ok": equi.replay(cert),
                "certificate": text.splitlines(), "output": args.output or ""}


def cmd_ramsey(args) -> dict:
    if args.action == "spread":
        a = ramsey.SpreadVector(_parse_vector(args.profile))
        s = [int(v) for v in args.positions.split(",")]
        return {"vector": list(map(float, ramsey.spread(a, s, args.n)))}
    if args.action == "dp":
        a = ramsey.SpreadVector(_parse_vector(args.profile))
        x = _parse_vector(args.vector)
        s, e = ramsey.best_spread_dp(x, a)
        return {"positions": s, "error": e}
    if args.action == "search":
        rep = ramsey.spread_vector_search(args.m, args.eps, k_budget=args.k_budget, seed=args.seed)
        return {"profile": list(map(float, rep.a.a)), "worst_error": rep.worst_error,
                "witness_b": list(map(float, rep.witness_b)),
                "verified_on_sample": rep.verified_on_sample, "sampled_b": rep.sampled_b,
                "seed": args.seed}
    if args.action == "check":
        res = ramsey.exhaustive_ramsey_check(args.n, args.d, args.m, args.r, args.eps, args.delta,
                                             seed=args.seed,
                                             falsification_colorings=args.budget_colorings)
        out = {"decided": res.decided, "holds": res.holds, "colorings": res.colorings,
               "seed": args.seed}
        if res.counterexample is not None:
            out["counterexample"] = list(res.counterexample)
        return out
    if args.action == "dual":
        g = spaces.LampertiEmbedding.from_json(_read_json(args.input))
        sigma, section = ramsey.dualize(g)
        return {"quotient": [list(map(float, row)) for row in sigma],
                "section": section.to_json()}
    if args.action == "demo":
        rep = ramsey.dual_ramsey_demo(args.d, args.m, args.e, seed=args.seed)
        return {"n": rep.n, "eps": rep.eps, "h_rigid": rep.h_rigid,
                "approx_error": rep.approx_error, "ok": rep.ok}


def cmd_lattice(args) -> dict:
    M = lattice.MSpaceMap(np.array(_read_json(args.input), dtype=float))
    if args.action == "check":
        rep = lattice.predicates(M, args.delta)
        return {"disjoint": rep.disjoint, "positive": rep.positive,
                "isometric": rep.isometric, "delta": args.delta}
    if args.action == "round":
        try:
            r = lattice.lattice_round(M, args.delta, mode=args.mode)
        except lattice.RoundingError as exc:
            return {"refused": True, "reason": str(exc)}
        return {"matrix": [list(map(float, row)) for row in r.xi.matrix],
                "distance": r.distance, "bound": r.bound}


def cmd_suite(args) -> tuple[dict, int]:
    if args.replay:
        for flag, given in (("--fast", args.fast), ("--criteria", args.criteria is not None)):
            if given:
                raise ValueError(f"{flag} is not read by 'suite --replay'")
        with open(args.replay) as fh:
            cert = equi.Certificate.from_jsonl(fh.read())
        ok = equi.replay(cert)
        return {"rows": [{"replay": args.replay, "ok": ok}]}, 0 if ok else 1
    names = args.criteria.split(",") if args.criteria else None
    results = suite.run_suite(seed=args.seed, fast=args.fast, names=names)
    for r in results:
        print(f"{r.name} {r.runtime:.3f}", file=sys.stderr)
    rows = [r.row() for r in results]
    all_ok = all(r.passed for r in results)
    return {"rows": rows, "all_passed": all_ok, "seed": args.seed}, 0 if all_ok else 1


GLOBAL_DEFAULTS = {
    "seed": None,  # resolved against the environment at run time
    "format": None,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for every sampled operation (env LPFRAISSE_SEED)")
    common.add_argument("--format", choices=("json", "csv", "table"), default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(prog="lpfraisse", parents=[common],
                                 description="approximate isometric embeddings between l_p spaces, at desk scale")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spaces", parents=[common])
    sp.add_argument("action", choices=("distortion", "round", "amalgamate"))
    sp.add_argument("--input", default="-")
    sp.add_argument("--gamma")
    sp.add_argument("--eta")
    sp.add_argument("--coupling", choices=("northwest", "product"), default="northwest")
    sp.add_argument("--budget-samples", type=int, help="sphere samples of a dense distortion (default 64)")

    gp_ = sub.add_parser("geometry", parents=[common])
    gp_.add_argument("action", choices=("gap", "bm"))
    gp_.add_argument("--x", required=True)
    gp_.add_argument("--y", required=True)
    gp_.add_argument("--budget-samples", type=int, default=64, help="sphere grid points per side")

    mz = sub.add_parser("mazur", parents=[common])
    mz.add_argument("action", choices=("map", "embed", "transfer"))
    mz.add_argument("--p", required=True)
    mz.add_argument("--q", required=True)
    mz.add_argument("--vector")
    mz.add_argument("--input", default="-")
    mz.add_argument("-d", type=int, default=1)
    mz.add_argument("-m", type=int, default=1)
    mz.add_argument("-r", type=int, default=1)
    mz.add_argument("--eps", type=float, default=0.1)

    ms = sub.add_parser("measures", parents=[common])
    ms.add_argument("action", choices=("char", "lp", "invert", "counterexample"))
    ms.add_argument("--input", default="-")
    ms.add_argument("--mu")
    ms.add_argument("--nu")
    ms.add_argument("--p", default="2")
    ms.add_argument("--a", default="[0]")
    ms.add_argument("--a-scalar", type=float, default=0.0)
    ms.add_argument("--eps", type=float, default=0.1)

    ev = sub.add_parser("envelope", parents=[common])
    ev.add_argument("action", choices=("build", "transfer"))
    ev.add_argument("--space", required=True)
    ev.add_argument("--basis", required=True)
    ev.add_argument("--eps", type=float, required=True)
    ev.add_argument("--p", default="1")
    ev.add_argument("--target-space")
    ev.add_argument("--gamma")

    eq = sub.add_parser("equi", parents=[common])
    eq.add_argument("action", choices=("delta", "match", "round", "count", "alpha", "certify"))
    eq.add_argument("--map")
    eq.add_argument("--phi")
    eq.add_argument("--psi")
    eq.add_argument("--s", type=int, default=2)
    eq.add_argument("-n", type=int, default=4)
    eq.add_argument("-d", type=int, default=2)
    eq.add_argument("-m", type=int, default=2)
    eq.add_argument("-r", type=int, default=1)
    eq.add_argument("--eps", type=float, default=0.5)
    eq.add_argument("--delta", type=float, default=0.0)
    eq.add_argument("--theta", type=float, default=0.5)
    eq.add_argument("-o", "--output")

    rm = sub.add_parser("ramsey", parents=[common])
    rm.add_argument("action", choices=("spread", "dp", "search", "check", "dual", "demo"))
    rm.add_argument("--profile")
    rm.add_argument("--positions")
    rm.add_argument("--vector")
    rm.add_argument("--input", default="-")
    rm.add_argument("-n", type=int, default=6)
    rm.add_argument("-d", type=int, default=2)
    rm.add_argument("-m", type=int, default=2)
    rm.add_argument("-r", type=int, default=2)
    rm.add_argument("-e", type=int, default=2)
    rm.add_argument("--eps", type=float, default=0.5)
    rm.add_argument("--delta", type=float, default=0.0)
    rm.add_argument("--k-budget", type=int, default=6)
    rm.add_argument("--budget-colorings", type=int,
                    help="random colorings of 'check' when the full sweep is over budget (default 10^6)")

    lt = sub.add_parser("lattice", parents=[common])
    lt.add_argument("action", choices=("check", "round"))
    lt.add_argument("--input", default="-")
    lt.add_argument("--delta", type=float, required=True)
    lt.add_argument("--mode", choices=("lattice", "disjoint"), default="lattice")

    st = sub.add_parser("suite", parents=[common])
    st.add_argument("--fast", action="store_true", help="reduced trial counts for smoke runs")
    st.add_argument("--criteria", help="comma-separated subset of check names")
    st.add_argument("--replay", help="re-verify a certificate file line by line")
    return ap


DEFAULT_FORMATS = {"geometry": "csv", "suite": "table"}

# the one action of a subcommand that reads its budget flag, the flag and its
# default; the other actions of the subcommand refuse the flag
BUDGET_READERS = {
    "spaces": ("distortion", "budget_samples", 64),
    "ramsey": ("check", "budget_colorings", 10**6),
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for key, default in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, default)
    if args.seed is None:
        seed_env = os.environ.get("LPFRAISSE_SEED")
        args.seed = int(seed_env) if seed_env else 0
    fmt = args.format or DEFAULT_FORMATS.get(args.command, "json")
    handlers = {
        "spaces": cmd_spaces,
        "geometry": cmd_geometry,
        "mazur": cmd_mazur,
        "measures": cmd_measures,
        "envelope": cmd_envelope,
        "equi": cmd_equi,
        "ramsey": cmd_ramsey,
        "lattice": cmd_lattice,
    }
    try:
        if args.command in BUDGET_READERS:
            reader, dest, default = BUDGET_READERS[args.command]
            if args.action == reader:
                if getattr(args, dest) is None:
                    setattr(args, dest, default)
            elif getattr(args, dest) is not None:
                raise ValueError(f"--{dest.replace('_', '-')} is read only by '{args.command} {reader}'")
        if args.command == "suite":
            report, code = cmd_suite(args)
            _emit(report, fmt)
            return code
        report = handlers[args.command](args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc), "pointer": getattr(exc, "pointer", "")}, "json")
        return 2
    _emit(report, fmt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
