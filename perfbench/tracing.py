"""Spans around folint's layer entry points, recorded from outside the package.

``Tracer.install`` replaces each public layer function by a wrapper that
records a span (name, start, end, parent span, instance id, observed value)
and restores the originals on exit.  A function that another folint module
imported by name is patched under that name too, so ``resolve``'s own
``find_roots_in_field`` and ``engine``'s ``is_first_integral`` are seen.
Spans stay in memory; ``write`` dumps them once the run is over.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _degree(args, kwargs, result):
    return len(args[0]) - 1


def _rays(args, kwargs, result):
    return len(result.extremal_rays)


def _truth(args, kwargs, result):
    return bool(result)


def _is_zero(args, kwargs, result):
    return result == 0


def _shape(args, kwargs, result):
    return (len(result), len(result[0]) if result else 0)


def _inconclusive(args, kwargs, result):
    return result.outcome == "inconclusive"


# (module, attribute, what to observe about a finished call)
LAYERS = (
    ("cli", "load_foliation", None),
    ("cli", "load_config_file", None),
    ("resolve", "build_configuration", None),
    ("resolve", "singular_points", None),
    ("resolve", "blow_up_local", None),
    ("numfield", "find_roots_in_field", _degree),
    ("numfield", "poly_interpolate", None),
    ("numfield", "poly_resultant", None),
    ("cones", "dual", _rays),
    ("cones", "contains", _truth),
    ("cones", "exists_negative_square", None),
    ("linalg", "rref", None),
    ("linalg", "rank_int", None),
    ("linalg", "lp_feasible", None),
    ("linsys", "h0", _is_zero),
    ("linsys", "basis", None),
    ("linsys", "strict_class", None),
    ("linsys", "condition_rows", _shape),
    ("polyforms", "is_first_integral", None),
    ("polyforms", "is_invariant_curve", _truth),
    ("engine", "pipeline", _inconclusive),
    ("engine", "algorithm3", None),
    ("engine", "algorithm2", None),
    ("engine", "memo_fastpath", None),
    ("engine", "classify_conditions", None),
)
# one V+ step of the cone search is one call of this method
VPLUS = "cones.RationalCone.with_generator"

# the per-layer metrics a traced run reports: span name -> stats
PER_LAYER = {
    "cli.load_foliation": ("s",),
    "cli.load_config_file": ("s",),
    "resolve.build_configuration": ("calls", "s", "self_s"),
    "resolve.singular_points": ("calls", "s"),
    "resolve.blow_up_local": ("calls",),
    "numfield.find_roots_in_field": ("calls", "s", "max_degree"),
    "numfield.poly_interpolate": ("calls", "s"),
    "numfield.poly_resultant": ("calls", "s"),
    "cones.dual": ("calls", "s", "self_s", "rays_max", "rays_total"),
    "cones.contains": ("calls", "s", "true_share"),
    "cones.exists_negative_square": ("calls", "s"),
    VPLUS: ("calls",),
    "linalg.rref": ("calls", "s"),
    "linalg.rank_int": ("calls", "s"),
    "linalg.lp_feasible": ("calls", "s"),
    "linsys.h0": ("calls", "s", "self_s", "zero_share"),
    "linsys.basis": ("calls", "s"),
    "linsys.strict_class": ("calls", "s"),
    "linsys.condition_rows": ("calls", "max_rows", "max_cols"),
    "polyforms.is_first_integral": ("calls", "s"),
    "polyforms.is_invariant_curve": ("calls", "s", "true_share"),
    "engine.pipeline": ("calls", "s", "inconclusive_share"),
    "engine.algorithm3": ("calls", "s", "self_s"),
    "engine.algorithm2": ("s",),
    "engine.memo_fastpath": ("calls",),
    "engine.classify_conditions": ("calls",),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "max_degree": "count",
         "rays_max": "count", "rays_total": "count", "max_rows": "count",
         "max_cols": "count", "true_share": "ratio", "zero_share": "ratio",
         "inconclusive_share": "ratio"}

# span fields
NAME, START, END, PARENT, INSTANCE, VALUE, NESTED = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self.instance = None
        self._patches = []

    def _wrap(self, name, fn, observe):
        spans, stack, active = self.spans, self._stack, self._active
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            depth = active.get(name, 0)
            span = [name, perf_counter(), None, stack[-1] if stack else -1,
                    tracer.instance, None, depth > 0]
            spans.append(span)
            stack.append(idx)
            active[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                active[name] = depth
            if observe is not None:
                span[VALUE] = observe(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, mods):
        """Patch every layer function in every folint module that holds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "folint" or key.startswith("folint."))
                   and m is not None]
        for mod_name, attr, observe in LAYERS:
            original = getattr(getattr(mods, mod_name), attr)
            wrapper = self._wrap("%s.%s" % (mod_name, attr), original,
                                 observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        cone = mods.cones.RationalCone
        original = cone.with_generator
        self._patches.append((cone, "with_generator", original))
        cone.with_generator = self._wrap(VPLUS, original, None)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def counts(self, instance):
        """Calls per span name within one instance."""
        out = {}
        for span in self.spans:
            if span[INSTANCE] == instance:
                out[span[NAME]] = out.get(span[NAME], 0) + 1
        return out

    def layer_metrics(self, elapsed):
        """Every PER_LAYER stat, 0 for layers that never ran;
        ``elapsed(start, end)`` measures a span."""
        durations = [elapsed(span[START], span[END]) for span in self.spans]
        child = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, durations):
            if span[PARENT] >= 0:
                child[span[PARENT]] += dur
        acc = {}
        for i, span in enumerate(self.spans):
            rec = acc.setdefault(span[NAME], {"calls": 0, "s": 0.0,
                                              "self_s": 0.0, "values": []})
            dur = durations[i]
            rec["calls"] += 1
            if not span[NESTED]:
                rec["s"] += dur
            rec["self_s"] += dur - child[i]
            if span[VALUE] is not None:
                rec["values"].append(span[VALUE])
        out = {}
        for name, stats in PER_LAYER.items():
            rec = acc.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                 "values": []})
            values = rec["values"]
            for stat in stats:
                if stat in ("calls", "s", "self_s"):
                    value = rec[stat]
                elif stat in ("max_degree", "rays_max"):
                    value = max(values, default=0)
                elif stat == "rays_total":
                    value = sum(values)
                elif stat == "max_rows":
                    value = max((v[0] for v in values), default=0)
                elif stat == "max_cols":
                    value = max((v[1] for v in values), default=0)
                else:       # a share of calls whose observed value is true
                    value = (sum(1 for v in values if v) / len(values)
                             if values else 0.0)
                out["%s.%s" % (name, stat)] = {"value": value,
                                               "unit": UNITS[stat]}
        return out

    def write(self, path):
        """One span per line: name, start, end, parent index, instance,
        observed value (times in seconds from the first span)."""
        base = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tinstance\tvalue\n")
            for span in self.spans:
                fh.write("%s\t%.6f\t%.6f\t%d\t%s\t%s\n" % (
                    span[NAME], span[START] - base, span[END] - base,
                    span[PARENT], span[INSTANCE],
                    "" if span[VALUE] is None else span[VALUE]))


def counter_problems(counts, kind):
    """Relations the counters of one instance must satisfy.

    ``kind`` is "decide" (pipeline on a given configuration), "resolve" or
    "resolve+decide".  Returns the list of relations that fail.
    """
    def c(name):
        return counts.get(name, 0)

    checks = [
        ("cones.dual.calls <= V+ steps",
         c("cones.dual") <= c(VPLUS)),
        ("V+ steps <= cones.contains.calls",
         c(VPLUS) <= c("cones.contains")),
        ("linsys.basis.calls <= linsys.h0.calls",
         c("linsys.basis") <= c("linsys.h0")),
        ("engine.algorithm2.calls <= engine.classify_conditions.calls",
         c("engine.algorithm2") <= c("engine.classify_conditions")),
        ("engine.memo_fastpath.calls <= engine.algorithm3.calls",
         c("engine.memo_fastpath") <= c("engine.algorithm3")),
        ("cli.load_foliation.calls == 1", c("cli.load_foliation") == 1),
        ("engine.pipeline.calls == %d" % (kind != "resolve"),
         c("engine.pipeline") == (kind != "resolve")),
        ("resolve.build_configuration.calls == %d" % (kind != "decide"),
         c("resolve.build_configuration") == (kind != "decide")),
        ("cli.load_config_file.calls == %d" % (kind == "decide"),
         c("cli.load_config_file") == (kind == "decide")),
    ]
    return [label for label, ok in checks if not ok]
