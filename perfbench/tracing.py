"""Spans around the calls into each spinpoly layer, recorded from outside
the package: the traced functions are replaced, in every spinpoly module
that binds them, by wrappers that append (name, start, end, parent id) to
an in-memory list.  Nothing under src/ changes."""

import sys
import time
from collections import defaultdict

# module -> traced functions.  `transform_point` is a GradedPolytope method.
TRACED = {
    "graphs": ("enumerate_graphs", "validate"),
    "polytopes": ("from_graph", "assemble", "lattice_points",
                  "_propagate_bounds", "transform_point"),
    "termorders": ("monomials_by_image", "is_balanced",
                   "_balanced_decomposition_exists"),
    "toric": ("is_normal", "relation_degree", "quadratic_squarefree_gb",
              "hilbert", "verify_theorem"),
    "catp": ("boxtimes_assemble",),
    "cli": ("run",),
}

# Per-layer metrics: (name, unit).  A metric of a traced function that is
# gone from the package is reported as 0 and marked absent.
LAYER_METRICS = (
    ("graphs.enumerate_graphs.calls", "count"),
    ("graphs.enumerate_graphs.self_s", "s"),
    ("graphs.enumerate_graphs.graphs", "count"),
    ("graphs.validate.self_s", "s"),
    ("polytopes.from_graph.self_s", "s"),
    ("polytopes.assemble.self_s", "s"),
    ("polytopes.lattice_points.calls", "count"),
    ("polytopes.lattice_points.self_s", "s"),
    ("polytopes.lattice_points.points", "count"),
    ("polytopes.lattice_points.repeat_frac", "ratio"),
    ("polytopes._propagate_bounds.calls", "count"),
    ("polytopes._propagate_bounds.self_s", "s"),
    ("polytopes.transform_point.calls", "count"),
    ("polytopes.transform_point.self_s", "s"),
    ("termorders.monomials_by_image.calls", "count"),
    ("termorders.monomials_by_image.self_s", "s"),
    ("termorders.monomials_by_image.monomials", "count"),
    ("termorders.monomials_by_image.fibers", "count"),
    ("termorders.monomials_by_image.max_fiber", "count"),
    ("termorders.is_balanced.self_s", "s"),
    ("termorders._balanced_decomposition_exists.calls", "count"),
    ("termorders._balanced_decomposition_exists.self_s", "s"),
    ("toric.is_normal.self_s", "s"),
    ("toric.relation_degree.self_s", "s"),
    ("toric.quadratic_squarefree_gb.self_s", "s"),
    ("toric.hilbert.self_s", "s"),
    ("toric.verify_theorem.self_s", "s"),
    ("catp.boxtimes_assemble.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.run.out_bytes", "B"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.seen_points = set()  # (P, N) requested from lattice_points
        self.absent = set()

    def _wrap(self, name, fn, tally):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tally:
                tally(args, result)
            return result

        return traced

    def _tally(self, name):
        c = self.counts
        if name == "polytopes.lattice_points":
            def tally(args, result):
                c[name + ".points"] += len(result)
                key = (args[0], args[1])
                if key in self.seen_points:
                    c[name + ".repeats"] += 1
                self.seen_points.add(key)
            return tally
        if name == "graphs.enumerate_graphs":
            def tally(args, result):
                c[name + ".graphs"] += len(result)
            return tally
        if name == "termorders.monomials_by_image":
            def tally(args, result):
                c[name + ".fibers"] += len(result)
                sizes = [len(f) for f in result.values()]
                c[name + ".monomials"] += sum(sizes)
                c[name + ".max_fiber"] = max([c[name + ".max_fiber"], *sizes])
            return tally
        return None

    def install(self, package):
        """Wrap every traced function wherever a spinpoly module binds it;
        `cli` and `toric` import several of them by name."""
        mods = [m for k, m in sys.modules.items()
                if k.startswith(package.__name__ + ".")]
        for mod_name, fnames in TRACED.items():
            home = getattr(package, mod_name)
            for f in fnames:
                name = f"{mod_name}.{f}"
                if f == "transform_point":
                    cls = home.GradedPolytope
                    orig = cls.__dict__.get(f)
                    if orig is None:
                        self.absent.add(name)
                        continue
                    setattr(cls, f, self._wrap(name, orig, None))
                    continue
                orig = getattr(home, f, None)
                if orig is None:
                    self.absent.add(name)
                    continue
                wrapper = self._wrap(name, orig, self._tally(name))
                for m in mods:
                    if m.__dict__.get(f) is orig:
                        setattr(m, f, wrapper)

    def add(self, metric, value):
        self.counts[metric] += value

    def self_times(self):
        """Per span name: total duration minus the time its direct child
        spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self):
        """Values of LAYER_METRICS, and the names reported as absent."""
        self_s = self.self_times()
        calls = defaultdict(int)
        for rec in self.spans:
            calls[rec[0]] += 1
        values, absent = {}, []
        for metric, _ in LAYER_METRICS:
            fn, stat = metric.rsplit(".", 1)
            if fn in self.absent:
                absent.append(metric)
            if stat == "self_s":
                v = self_s.get(fn, 0.0)
            elif stat == "calls":
                v = calls[fn]
            elif stat == "repeat_frac":
                v = self.counts[fn + ".repeats"] / calls[fn] if calls[fn] else 0.0
            else:
                v = self.counts[metric]
            values[metric] = v
        return values, absent
