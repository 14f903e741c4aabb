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
    names = None if args.criteria is None else args.criteria.split(",")
    results = suite.run_suite(seed=args.seed, fast=args.fast, names=names)
    for r in results:
        print(f"{r.name} {r.runtime:.3f}", file=sys.stderr)
    rows = [r.row() for r in results]
    all_ok = all(r.passed for r in results)
    return {"rows": rows, "all_passed": all_ok, "seed": args.seed}, 0 if all_ok else 1


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose refusals raise ValueError, so that they leave
    through main's JSON error path.  Flags are spelled out in full: an
    abbreviation could name a flag the action does not read.  `names` maps
    the parser's subcommand or action names to their parsers."""

    names: dict = {}

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for every sampled operation (env LPFRAISSE_SEED)")
    common.add_argument("--format", choices=("json", "csv", "table"), default=argparse.SUPPRESS)

    def flag(*names, **kwargs) -> _Parser:
        """A parent parser holding one flag, for the actions that read it."""
        parent = _Parser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    ap = _Parser(prog="lpfraisse", parents=[common],
                 description="approximate isometric embeddings between l_p spaces, at desk scale")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.names = sub.choices

    def actions(command, handler):
        """Adds command; returns a function adding one of its actions with its flags."""
        cp = sub.add_parser(command, parents=[common])
        cp.set_defaults(handler=handler)
        acts = cp.add_subparsers(dest="action", required=True)
        cp.names = acts.choices
        return lambda action, *flags: acts.add_parser(action, parents=[common, *flags])

    sp = actions("spaces", cmd_spaces)
    stdin = flag("--input", default="-")
    sp("distortion", stdin, flag("--budget-samples", type=int, default=64,
                                 help="sphere samples of a dense distortion (default 64)"))
    sp("round", stdin)
    sp("amalgamate", flag("--gamma", required=True), flag("--eta", required=True),
       flag("--coupling", choices=("northwest", "product"), default="northwest"))

    gm = actions("geometry", cmd_geometry)
    xy = (flag("--x", required=True), flag("--y", required=True),
          flag("--budget-samples", type=int, default=64, help="sphere grid points per side (default 64)"))
    gm("gap", *xy)
    gm("bm", *xy)

    mz = actions("mazur", cmd_mazur)
    pq = (flag("--p", required=True), flag("--q", required=True))
    mz("map", *pq, flag("--vector", required=True))
    mz("embed", *pq, stdin)
    mz("transfer", *pq, flag("-d", type=int, default=1), flag("-m", type=int, default=1),
       flag("-r", type=int, default=1), flag("--eps", type=float, default=0.1))

    ms = actions("measures", cmd_measures)
    p = flag("--p", default="2")
    ms("char", stdin, p, flag("--a", default="[0]"))
    ms("lp", flag("--mu", required=True), flag("--nu", required=True))
    ms("invert", stdin, p, flag("--a-scalar", type=float, default=0.0), flag("--eps", type=float, default=0.1))
    ms("counterexample", p)

    ev = actions("envelope", cmd_envelope)
    env = (flag("--space", required=True), flag("--basis", required=True),
           flag("--eps", type=float, required=True), flag("--p", default="1"))
    ev("build", *env)
    ev("transfer", *env, flag("--target-space", required=True), flag("--gamma", required=True))

    eq = actions("equi", cmd_equi)
    fmap, s, n = flag("--map", required=True), flag("--s", type=int, default=2), flag("-n", type=int, default=4)
    d, m = flag("-d", type=int, default=2), flag("-m", type=int, default=2)  # ramsey's too
    eps, delta = flag("--eps", type=float, default=0.5), flag("--delta", type=float, default=0.0)
    eq("delta", fmap, s)
    eq("match", flag("--phi", required=True), flag("--psi", required=True), s)
    eq("round", fmap, s)
    eq("count", n, s, delta)
    eq("alpha", n, s, flag("--theta", type=float, default=0.5), eps)
    eq("certify", d, m, flag("-r", type=int, default=1), eps, delta, flag("-o", "--output"))

    rm = actions("ramsey", cmd_ramsey)
    profile = flag("--profile", required=True)
    rm("spread", profile, flag("--positions", required=True), flag("-n", type=int, default=6))
    rm("dp", profile, flag("--vector", required=True))
    rm("search", m, eps, flag("--k-budget", type=int, default=6))
    rm("check", flag("-n", type=int, default=6), d, m, flag("-r", type=int, default=2), eps, delta,
       flag("--budget-colorings", type=int, default=10**6,
            help="random colorings when the full sweep is over budget (default 10^6)"))
    rm("dual", stdin)
    rm("demo", d, m, flag("-e", type=int, default=2))

    lt = actions("lattice", cmd_lattice)
    matrix = (stdin, flag("--delta", type=float, required=True))
    lt("check", *matrix)
    lt("round", *matrix, flag("--mode", choices=("lattice", "disjoint"), default="lattice"))

    st = sub.add_parser("suite", parents=[common])
    st.add_argument("--fast", action="store_true", help="reduced trial counts for smoke runs")
    st.add_argument("--criteria", help="comma-separated subset of check names")
    st.add_argument("--replay", help="re-verify a certificate file line by line")
    return ap


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser()'s reading of argv, which first refuses, by name, any flag
    that its parser does not declare.  argparse alone would report a missing
    required flag first, and would not name a flag written before a
    subcommand or action name: it sets the flag aside and reports the value
    after it as an unknown name."""
    ap = parser = build_parser()
    i = 0
    while i < len(argv) and parser is not None and argv[i] != "--":
        token = argv[i]
        if not token.startswith("-"):
            parser = parser.names.get(token) if parser.names else parser
            i += 1
            continue
        flag, attached, _ = token.partition("=")
        if flag not in parser._option_string_actions and token[1:2] != "-":
            flag, attached = token[:2], token[2:]  # a short flag with its value attached, as -n5
        action = parser._option_string_actions.get(flag)
        if action is None:
            parser.error(f"unrecognized arguments: {token}")
        i += 1 if attached or action.nargs == 0 else 2
    return ap.parse_args(argv)


DEFAULT_FORMATS = {"geometry": "csv", "suite": "table"}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if "seed" not in args:
            args.seed = int(os.environ.get("LPFRAISSE_SEED") or 0)
        if args.command == "suite":
            report, code = cmd_suite(args)
        else:
            report, code = args.handler(args), 0
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc), "pointer": getattr(exc, "pointer", "")}, "json")
        return 2
    _emit(report, getattr(args, "format", None) or DEFAULT_FORMATS.get(args.command, "json"))
    return code


if __name__ == "__main__":
    sys.exit(main())
