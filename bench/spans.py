"""Span tracer for the gfs benchmark.

The tracer wraps the public functions of every gfs module from outside the
package: module functions are replaced in every gfs namespace that holds the
same object (so `equivar.shells`, `squeeze.is_prime` and `cli.ball_complex`
are traced too), methods are replaced on their class, and `GenFn`
value/grad/hess are split by `meta["kind"]`.  Each span records its name,
start, end, parent span and task id in flat in-memory arrays; they are turned
into per-layer metrics (and written to disk) after the traced pass.

Self time of a span is its duration minus the time covered by its child
spans, so the self times of all spans add up to the time spent inside the
outermost spans; the rest of a traced pass is the benchmark's own time.
"""

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("sympl", "genfun", "crit", "equivar", "squeeze", "cli")

# Every span-timed name; each yields `<name>.calls` and `<name>.self_s`.
SPAN_NAMES = (
    "sympl.profile", "sympl.ref_profile", "sympl.shells", "sympl.radial_map",
    "sympl.jacobian",
    "genfun.small_map.value", "genfun.small_map.grad", "genfun.small_map.hess",
    "genfun.compose.value", "genfun.compose.grad", "genfun.compose.hess",
    "genfun.contact.value", "genfun.contact.grad", "genfun.contact.hess",
    "crit.seed", "crit.newton_critical", "crit.chain_scan", "crit.to_csv",
    "equivar.ball_complex", "equivar.barcode", "equivar.homology_ranks",
    "equivar.matrix", "equivar.rank_mod_p", "equivar.serialize",
    "equivar.is_prime", "equivar.limit_barcode",
    "squeeze.find_obstruction", "squeeze.validate_certificate",
    "squeeze.evidence", "squeeze.certificate_json",
    "cli.main",
)

# GenFn kinds and the span group their value/grad/hess are timed under.
GENFN_GROUPS = {
    "smallMap": "small_map",
    "cyclicComposition": "compose",
    "sharp": "compose",
    "contactLift": "contact",
    "contactSharp": "contact",
    "contactP": "contact",
}

# Derived per-layer metrics (name -> unit), computed from counters kept at
# the span boundaries.
DERIVED_UNITS = {
    "sympl.shells.kept_ratio": "ratio",
    "genfun.slices_per_value": "count",
    "genfun.slices_per_grad": "count",
    "genfun.slices_per_hess": "count",
    "crit.newton.hess_per_solve": "count",
    "crit.newton.step_accept_ratio": "ratio",
    "crit.chain_scan.hess_per_seed": "count",
    "equivar.rank_mod_p.cells": "count",
    "squeeze.primes_per_query": "count",
}


def metric_units():
    """Unit of every metric `layer_metrics` returns, in a fixed order."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(DERIVED_UNITS)
    for layer in LAYERS:
        units[layer + ".errors"] = "count"
    units["bench.self_s"] = "s"
    return units


class Tracer:
    """In-memory span store plus the counters read at span boundaries."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.layer_of = [name.split(".")[0] for name in self.names]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.current = -1          # index of the innermost open span
        self.task_id = -1
        self.errors = Counter()    # layer -> exceptions leaving the layer
        self.counts = Counter()
        self.gf_top = None         # op of the outermost GenFn call in progress
        self.in_search = 0         # depth of open find_obstruction spans

    def call(self, nid, fn, args, kwargs):
        i = len(self.name)
        parent = self.current
        self.name.append(nid)
        self.parent.append(parent)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            layer = self.layer_of[nid]
            if parent < 0 or self.layer_of[self.name[parent]] != layer:
                self.errors[layer] += 1
            raise
        finally:
            self.end[i] = time.perf_counter()
            self.current = parent

    def arrays(self):
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "task": np.array(self.task, dtype=np.int64),
        }

    def save(self, path):
        """Write every span (and the name table) as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def self_times(self):
        """(calls per name, self seconds per name, seconds in root spans)."""
        a = self.arrays()
        count = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name"], minlength=count)
        self_s = np.bincount(a["name"], weights=own, minlength=count)
        return calls, self_s, float(np.sum(dur[~nested]))

    def layer_metrics(self, wall_s):
        """Per-layer metrics of one traced pass that took `wall_s` seconds.

        Returns (metrics, accounting) where accounting compares the sum of
        all self times with the time spent inside root spans."""
        calls, self_s, root_s = self.self_times()
        c = self.counts
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = int(calls[i])
            out[name + ".self_s"] = float(self_s[i])

        def ratio(num, den):
            return float(num) / den if den else 0.0

        out["sympl.shells.kept_ratio"] = ratio(c["bc.kept"], c["bc.found"])
        for op in ("value", "grad", "hess"):
            out["genfun.slices_per_" + op] = ratio(c["slices." + op],
                                                   c["top." + op])
        solves = calls[self.ids["crit.newton_critical"]]
        out["crit.newton.hess_per_solve"] = ratio(c["newton.hess"], solves)
        out["crit.newton.step_accept_ratio"] = ratio(c["newton.accepted"],
                                                     c["newton.trials"])
        out["crit.chain_scan.hess_per_seed"] = ratio(c["chain.hess"],
                                                     c["chain.seeds"])
        out["equivar.rank_mod_p.cells"] = int(c["rank.cells"])
        out["squeeze.primes_per_query"] = ratio(
            c["search.primes"], calls[self.ids["cli.main"]])
        for layer in LAYERS:
            out[layer + ".errors"] = int(self.errors[layer])
        out["bench.self_s"] = float(wall_s - root_s)
        accounting = {"self_sum_s": float(np.sum(self_s)), "root_s": root_s,
                      "bench_self_s": out["bench.self_s"], "wall_s": wall_s}
        return out, accounting

    def layer_calls(self, prefix):
        """Total calls of every span whose name starts with `prefix`."""
        calls, _, _ = self.self_times()
        return int(sum(calls[i] for i, name in enumerate(self.names)
                       if name == prefix or name.startswith(prefix + ".")))


class Instrumentation:
    """Installs tracing wrappers on a loaded gfs package and removes them."""

    def __init__(self, gfs, tracer):
        self.gfs = gfs
        self.tracer = tracer
        importlib.import_module("gfs.cli")
        self.modules = [gfs, gfs.sympl, gfs.genfun, gfs.crit, gfs.equivar,
                        gfs.squeeze, gfs.cli]
        self.patches = []

    # -- patching -----------------------------------------------------------

    def _function(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make(original))
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self.patches.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(make(original)))

    def remove(self):
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name):
        tracer = self.tracer
        nid = tracer.ids[name]

        def make(fn):
            def wrapper(*args, **kwargs):
                return tracer.call(nid, fn, args, kwargs)
            return wrapper
        return make

    def _genfn(self, op):
        tracer = self.tracer
        counts = tracer.counts
        ids = {group: tracer.ids["genfun.%s.%s" % (group, op)]
               for group in set(GENFN_GROUPS.values())}

        def make(fn):
            def wrapper(gf, w):
                group = GENFN_GROUPS.get(gf.meta.get("kind"))
                if group is None:
                    return fn(gf, w)
                top = tracer.gf_top is None
                if top:
                    tracer.gf_top = op
                    counts["top." + op] += 1
                if group == "small_map":
                    counts["slices." + tracer.gf_top] += 1
                try:
                    return tracer.call(ids[group], fn, (gf, w), {})
                finally:
                    if top:
                        tracer.gf_top = None
            return wrapper
        return make

    def _solver(self, name, prefix, seeds_of):
        """Span that also counts the top-level GenFn grad/hess calls made
        inside it (the solver's Newton work)."""
        tracer = self.tracer
        counts = tracer.counts
        nid = tracer.ids[name]

        def make(fn):
            def wrapper(*args, **kwargs):
                g0, h0 = counts["top.grad"], counts["top.hess"]
                try:
                    return tracer.call(nid, fn, args, kwargs)
                finally:
                    dg = counts["top.grad"] - g0
                    dh = counts["top.hess"] - h0
                    counts[prefix + ".hess"] += dh
                    if seeds_of is None:
                        # one initial grad, then per accepted step one grad
                        # and one hess plus its trial grads; one final hess
                        counts[prefix + ".accepted"] += max(dh - 1, 0)
                        counts[prefix + ".trials"] += dg - dh
                    else:
                        counts[prefix + ".seeds"] += seeds_of(args, kwargs)
            return wrapper
        return make

    def _rank(self):
        tracer = self.tracer
        nid = tracer.ids["equivar.rank_mod_p"]

        def make(fn):
            def wrapper(M, p):
                shape = np.shape(M)
                if len(shape) == 2:
                    tracer.counts["rank.cells"] += shape[0] * shape[1]
                return tracer.call(nid, fn, (M, p), {})
            return wrapper
        return make

    def _shells(self):
        tracer = self.tracer
        nid = tracer.ids["sympl.shells"]

        def make(fn):
            def wrapper(*args, **kwargs):
                out = tracer.call(nid, fn, args, kwargs)
                tracer.counts["shells.found"] += sum(
                    1 for s in out if s.kind == "sphereShell")
                return out
            return wrapper
        return make

    def _ball_complex(self):
        tracer = self.tracer
        counts = tracer.counts
        nid = tracer.ids["equivar.ball_complex"]

        def make(fn):
            def wrapper(*args, **kwargs):
                found0 = counts["shells.found"]
                cx = tracer.call(nid, fn, args, kwargs)
                counts["bc.found"] += counts["shells.found"] - found0
                counts["bc.kept"] += len(cx.meta["shells"])
                return cx
            return wrapper
        return make

    def _search(self):
        tracer = self.tracer
        nid = tracer.ids["squeeze.find_obstruction"]

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.in_search += 1
                try:
                    return tracer.call(nid, fn, args, kwargs)
                finally:
                    tracer.in_search -= 1
            return wrapper
        return make

    def _is_prime(self):
        tracer = self.tracer
        nid = tracer.ids["equivar.is_prime"]

        def make(fn):
            def wrapper(k):
                if tracer.in_search:
                    tracer.counts["search.primes"] += 1
                return tracer.call(nid, fn, (k,), {})
            return wrapper
        return make

    def install(self):
        g = self.gfs
        span = self._span
        profile = g.sympl.RadialProfile
        for attr in ("rho", "drho", "d2rho"):
            self._method(profile, attr, span("sympl.profile"))
        self._function(g.sympl, "ref_profile", span("sympl.ref_profile"))
        self._function(g.sympl, "shells", self._shells())
        self._method(g.sympl.RadialMap, "__call__", span("sympl.radial_map"))
        self._method(g.sympl.RadialMap, "jacobian", span("sympl.jacobian"))

        for op in ("value", "grad", "hess"):
            self._method(g.genfun.GenFn, op, self._genfn(op))

        self._function(g.crit, "sharp_critical_seed", span("crit.seed"))
        self._function(g.crit, "seed_from_chain", span("crit.seed"))
        self._function(g.crit, "newton_critical",
                       self._solver("crit.newton_critical", "newton", None))
        self._function(g.crit, "chain_scan", self._solver(
            "crit.chain_scan", "chain",
            lambda args, kwargs: len(args[2] if len(args) > 2
                                     else kwargs["seeds"])))
        self._function(g.crit, "to_csv", span("crit.to_csv"))

        self._function(g.equivar, "ball_complex", self._ball_complex())
        self._function(g.equivar, "barcode", span("equivar.barcode"))
        cx = g.equivar.GroupRingComplex
        self._method(cx, "homology_ranks", span("equivar.homology_ranks"))
        self._method(cx, "matrix", span("equivar.matrix"))
        self._function(g.equivar, "rank_mod_p", self._rank())
        self._method(g.equivar.Barcode, "to_json", span("equivar.serialize"))
        self._method(g.equivar.Barcode, "to_tsv", span("equivar.serialize"))
        self._function(g.equivar, "is_prime", self._is_prime())
        self._function(g.equivar, "limit_barcode",
                       span("equivar.limit_barcode"))

        self._function(g.squeeze, "find_obstruction", self._search())
        for name in ("validate_certificate", "evidence", "certificate_json"):
            self._function(g.squeeze, name, span("squeeze." + name))

        self._function(g.cli, "main", span("cli.main"))
