"""Outside-in tracing: spans and counters recorded around the library's
public functions, installed by rebinding each function in the namespace its
callers look it up in and restored afterwards.

A span is (id, name, start, end, parent, instance, pass).  Spans live in
memory and are written out as JSONL when the run ends.  A span's self time
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import time
import types


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self.instance = None
        self.pass_no = None
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, on_result=None):
        """Run fn inside a span called name; count calls and raised errors."""
        self.counts[f"{name}.calls"] += 1
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "start": self.clock(), "end": None,
                "parent": parent["id"] if parent else None,
                "instance": self.instance, "pass": self.pass_no,
                # a span nested in one of the same name adds no busy time
                "nested": any(s["name"] == name for s in self._stack)}
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[f"{name}.errors"] += 1
            raise
        finally:
            span["end"] = self.clock()
            self._stack.pop()
        if on_result is not None:
            on_result(result)
        return result

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, on_result=None):
        """Rebind owner.attr to a spanned wrapper of the current binding."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)

        self._patch(owner, attr, spanned)

    def count(self, owner, attr, name):
        """Rebind owner.attr to a wrapper that only counts calls (hot paths)."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def count_property(self, cls, attr, name):
        """Replace a property on cls with one that counts reads."""
        getter = cls.__dict__[attr].fget
        counts = self.counts

        def read(obj):
            counts[name] += 1
            return getter(obj)

        self._patch(cls, attr, property(read, doc=cls.__dict__[attr].__doc__))

    def install(self):
        """Wrap every measured layer boundary of lpfraisse."""
        import scipy.optimize
        import scipy.spatial.distance

        from lpfraisse import core, equi, geometry, measures, partitions, ramsey

        counts = self.counts

        def mode(res):
            counts[f"equi.mode.{res.mode}"] += 1

        def colorings(res):
            counts["ramsey.colorings"] += res.colorings

        def cells(env):
            counts["partitions.cells"] += env.num_cells

        # ramsey: the falsifier hashes through ramsey.hashlib.blake2b
        self.wrap(ramsey, "falsify_certificate", "ramsey.falsify_certificate", colorings)
        self.wrap(ramsey, "exhaustive_ramsey_check", "ramsey.exhaustive_ramsey_check")
        self.wrap(ramsey, "enumerate_equi", "ramsey.enumerate_equi")
        self._patch(ramsey, "hashlib", types.SimpleNamespace(blake2b=hashlib.blake2b))
        self.count(ramsey.hashlib, "blake2b", "ramsey.pool_hashes")
        # equi: count_equi is also reached from the certificate chain
        self.wrap(equi, "sufficient_n_certificate", "equi.sufficient_n_certificate")
        self.wrap(equi, "replay", "equi.replay")
        self.wrap(equi, "count_equi", "equi.count_equi")
        self.wrap(equi, "concentration_exact", "equi.concentration_exact", mode)
        # geometry: the LP and mesh kernels are looked up on the scipy modules
        self.wrap(scipy.optimize, "linprog", "geometry.lp")
        self.wrap(scipy.spatial.distance, "cdist", "geometry.mesh")
        self.wrap(geometry, "dist_to_unit_ball", "geometry.dist_to_unit_ball")
        self.wrap(geometry, "gap_estimate", "geometry.gap_estimate")
        self.wrap(geometry, "bm_from_gap", "geometry.bm_from_gap")
        self.wrap(geometry, "auerbach_basis", "geometry.auerbach_basis")
        self.wrap(partitions, "auerbach_basis", "geometry.auerbach_basis")
        self.count(core, "norm_p", "core.norm_p.calls")
        self.count(geometry, "norm_p", "core.norm_p.calls")
        # partitions: envelope reaches the other three through its own module
        self.wrap(partitions, "envelope", "partitions.envelope", cells)
        self.wrap(partitions, "build_appropriate", "partitions.build_appropriate")
        self.wrap(partitions, "conditional_expectation", "partitions.conditional_expectation")
        self.wrap(partitions, "transfer_isometry", "partitions.transfer_isometry")
        # measures
        self.count_property(measures.DiscreteSpace, "masses", "measures.masses.reads")
        self.wrap(measures, "levy_prokhorov", "measures.levy_prokhorov")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({k: s[k] for k in
                                     ("id", "name", "start", "end", "parent", "instance", "pass")}) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children's
    intervals, clipped to the span."""
    children: dict[int, list[dict]] = collections.defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: busy time (outermost spans of that name) and self time."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = collections.defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
    for s in spans:
        t = totals[s["name"]]
        t["self_s"] += selfs[s["id"]]
        if not s.get("nested"):
            t["busy_s"] += s["end"] - s["start"]
    return dict(totals)
