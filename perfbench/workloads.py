"""The benchmark's workloads: their inputs, one instance, and its check.

One instance is one user command run in-process from fresh inputs: the
``.fol`` (and ``.cfg``) files are loaded through ``folint.cli`` every time,
so no instance reuses objects, or the caches they carry, from another.
"""

from __future__ import annotations

import importlib
import os
import random
import sys

import pencils

FIXTURES = ("example1", "fig2", "fig3", "family_a0", "family_a59",
            "family_a861", "penultimate")
NO_INTEGRAL = ("family_a59", "family_a861")
WORKLOADS = ("fixtures-decide", "fixtures-resolve", "pencils")
PENCIL_COUNT = 100
# The timed pencils are one fixed pool, so that every seed times the same
# work; the run's seed orders them and draws FRESH_PENCILS more that are
# checked but not timed.
PENCIL_POOL_SEED = 1
FRESH_PENCILS = 8
MODULES = ("cli", "cluster", "cones", "engine", "linalg", "linsys",
           "numfield", "polyforms", "resolve")


class Modules:
    """The folint modules of one import."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module("folint." + name))


def import_folint(src_dir):
    """Import folint afresh, dropping any copy imported before."""
    for key in [k for k in sys.modules
                if k == "folint" or k.startswith("folint.")]:
        del sys.modules[key]
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    mods = Modules()
    if not os.path.abspath(mods.cli.__file__).startswith(src_dir + os.sep):
        raise ImportError("folint was not imported from %s" % src_dir)
    return mods


class Instance:
    """One user command.  ``kind`` is "decide" (``decide FOL CFG``),
    "resolve" (``resolve FOL``) or "resolve+decide" (``decide FOL``)."""

    def __init__(self, name, kind, fol, cfg=None, expected=None,
                 pencil=None):
        self.name = name
        self.kind = kind
        self.fol = fol
        self.cfg = cfg
        self.expected = expected
        self.pencil = pencil

    def execute(self, mods):
        """The timed part: what the CLI command computes."""
        omega, field = mods.cli.load_foliation(self.fol)
        if self.kind == "decide":
            config = mods.cli.load_config_file(self.cfg, field)
            return None, mods.engine.pipeline(omega, config,
                                              mods.engine.Caps())
        config = mods.resolve.build_configuration(omega)
        if self.kind == "resolve":
            return config, None
        return config, mods.engine.pipeline(omega, config, mods.engine.Caps())

    def output(self, mods, result):
        """A text that pins the instance's result exactly."""
        config, verdict = result
        parts = []
        if config is not None:
            parts.append(mods.cluster.dump_configuration(config))
        if verdict is not None:
            fmt = mods.polyforms.format_form
            parts.append("verdict=%s F=%s G=%s reason=%s" % (
                verdict.outcome,
                fmt(verdict.numerator) if verdict.numerator else "",
                fmt(verdict.denominator) if verdict.denominator else "",
                verdict.reason))
        return "\n".join(parts)

    def check(self, mods, result):
        """None when the result is right, else what is wrong with it."""
        config, verdict = result
        if self.kind == "resolve":
            if mods.cluster.dump_configuration(config) != self.expected:
                return "configuration differs from %s" % self.cfg
            return None
        if self.kind == "decide":
            if verdict.outcome != self.expected:
                return "verdict %s, expected %s" % (verdict.outcome,
                                                    self.expected)
            return None
        return check_pencil(self.pencil, verdict)


def check_pencil(pencil, verdict):
    """A pencil has a rational first integral, so ``no_integral`` is wrong,
    and an integral F/G must be primitive-sized (deg F <= the pencil's) and
    annihilate the pencil's 1-form, tested here without folint's own code."""
    if verdict.outcome == "no_integral":
        return "no_integral on a pencil: %s" % verdict.reason
    if verdict.outcome != "integral":
        return None
    F, G = (to_poly(f) for f in (verdict.numerator, verdict.denominator))
    degree = verdict.numerator.degree
    if degree > pencil.degree:
        return "integral of degree %d > %d" % (degree, pencil.degree)
    form = pencils.pencil_form(F, G)
    # a constant F/G has d(F/G) = 0, which is proportional to anything
    if degree < 1 or not any(form):
        return "constant integral F=%s G=%s" % (
            pencils.format_poly(F), pencils.format_poly(G))
    if not pencils.proportional(form, pencil.form):
        return "d(F/G) ^ omega != 0"
    return None


def to_poly(form):
    return {e: c.as_fraction() for e, c in form.coeffs.items()}


def build(workload, seed, root, work_dir, mods):
    """The workload's timed instances in the seed's order; loads every input
    once to validate it."""
    fixtures = os.path.join(root, "fixtures")
    timed = []
    if workload == "fixtures-decide":
        for name in FIXTURES:
            timed.append(Instance(
                name, "decide", os.path.join(fixtures, name + ".fol"),
                os.path.join(fixtures, name + ".cfg"),
                expected="no_integral" if name in NO_INTEGRAL
                else "integral"))
    elif workload == "fixtures-resolve":
        for name in FIXTURES:
            fol = os.path.join(fixtures, name + ".fol")
            cfg = os.path.join(fixtures, name + ".cfg")
            _, field = mods.cli.load_foliation(fol)
            expected = mods.cluster.dump_configuration(
                mods.cli.load_config_file(cfg, field))
            timed.append(Instance(name, "resolve", fol, cfg,
                                  expected=expected))
    elif workload == "pencils":
        pool = pencils.generate(PENCIL_POOL_SEED, PENCIL_COUNT)
        timed = _pencil_instances(pool, "p", work_dir)
    else:
        raise ValueError("unknown workload %r" % workload)
    _validate(timed, mods)
    random.Random(seed).shuffle(timed)
    return timed


def fresh(workload, seed, work_dir, mods):
    """The instances drawn from the seed that are checked but not timed:
    FRESH_PENCILS pencils on ``pencils``, none elsewhere."""
    if workload != "pencils":
        return []
    out = _pencil_instances(pencils.generate("fresh-%d" % seed,
                                             FRESH_PENCILS), "fresh",
                            work_dir)
    _validate(out, mods)
    return out


def _validate(instances, mods):
    for inst in instances:
        _, field = mods.cli.load_foliation(inst.fol)
        if inst.kind == "decide":
            mods.cli.load_config_file(inst.cfg, field)


def _pencil_instances(pool, prefix, work_dir):
    out = []
    for i, pencil in enumerate(pool):
        name = "%s%03d" % (prefix, i)
        path = os.path.join(work_dir, name + ".fol")
        with open(path, "w") as fh:
            fh.write(pencil.fol_text())
        out.append(Instance("%s:%s" % (name, pencil.shape), "resolve+decide",
                            path, pencil=pencil))
    return out
