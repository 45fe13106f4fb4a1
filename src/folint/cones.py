"""Exact polyhedral convex cones in the Picard space Q^(m+1).

Vectors are coordinates in the basis (L*, E_1*, ..., E_m*); the bilinear
pairing used for duality and squares is the Lorentzian intersection form
diag(1, -1, ..., -1).  Duality is always taken with respect to that pairing;
internally the sign flip reduces it to Euclidean duality once, here.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence


def lorentz(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc -= a * b
    return acc


def _flip(v):
    return tuple([v[0]] + [-x for x in v[1:]])


def _dot(u, v):
    return sum(map(mul, u, v))


def _reduce(vec):
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _primitive(vec):
    """A nonzero integer vector divided by the gcd of its entries."""
    if not any(vec):
        raise ValueError("zero generator")
    return _reduce(vec)


def _combine(a, u, b, v):
    """a*u - b*v on integer vectors, divided by its gcd."""
    return _reduce([a * x - b * y for x, y in zip(u, v)])


def _is_edge(common, masks):
    """Two rays span an edge iff no third ray is tight on every normal
    both are tight on (the combinatorial adjacency test)."""
    hits = 0
    for m in masks:
        if m & common == common:
            hits += 1
            if hits > 2:
                return False
    return True


class RationalCone:
    """Finitely generated cone that carries the double description of its
    dual {x : x . g >= 0 for every generator g}, intersection pairing.

    ``generators`` are primitive integer vectors without repeats.  The dual
    is ``lineality``, a basis of its lineality space, and ``rays``, which
    maps each primitive extremal ray modulo the lineality to the mask of the
    generators it is tight on (bit i for the i-th).  Each generator, in
    ``__init__`` or in ``with_generator``, updates it in place by one step
    of the double description method (Fukuda & Prodon 1996).
    """

    def __init__(self, generators: Iterable[Sequence], dim: int = None):
        gens = list(dict.fromkeys(map(_primitive, generators)))
        if not gens and dim is None:
            raise ValueError("empty cone needs an explicit dimension")
        self.dim = dim if dim is not None else len(gens[0])
        self.generators = []
        self.lineality = [tuple(int(i == j) for j in range(self.dim))
                          for i in range(self.dim)]
        self.rays = {}
        for g in gens:
            self._step(g)

    def with_generator(self, v) -> None:
        """Add v in place, unless it repeats a generator up to a positive
        factor: one V+ step of the cone search."""
        vec = _primitive(v)
        if vec not in self.generators:
            self._step(vec)

    def _step(self, g):
        """Append the primitive generator g and cut the dual by its
        Euclidean normal n = flip(g)."""
        if len(g) != self.dim:
            raise ValueError("generator length mismatch")
        bit = 1 << len(self.generators)
        self.generators.append(g)
        n = _flip(g)
        rays = {}
        scores = [_dot(n, l) for l in self.lineality]
        pivot = next((i for i, s in enumerate(scores) if s), None)
        if pivot is not None:
            # n cuts the lineality space: l0 turns into a ray tight on every
            # earlier normal, and every other generator moves along l0 onto
            # the hyperplane n . x = 0, keeping its incidences
            l0, s0 = self.lineality[pivot], scores[pivot]
            if s0 < 0:
                l0, s0 = tuple(-v for v in l0), -s0
            self.lineality = [_combine(s0, l, s, l0) if s else l
                              for i, (l, s) in enumerate(zip(self.lineality,
                                                             scores))
                              if i != pivot]
            for r, m in self.rays.items():
                s = _dot(n, r)
                rays.setdefault(_combine(s0, r, s, l0) if s else r,
                                m | bit)
            rays.setdefault(l0, bit - 1)
            self.rays = rays
            return
        dots = {r: _dot(n, r) for r in self.rays}
        for r, m in self.rays.items():
            if dots[r] >= 0:
                rays[r] = m if dots[r] else m | bit
        masks = list(self.rays.values())
        minus = [r for r, s in dots.items() if s < 0]
        # two adjacent rays share at least dim - lineality - 2 tight normals
        # (Fukuda & Prodon 1996), so pairs with fewer skip the scan
        least = len(n) - len(self.lineality) - 2
        for rp, sp in dots.items():
            if sp <= 0:
                continue
            for rm in minus:
                common = self.rays[rp] & self.rays[rm]
                if common.bit_count() >= least and _is_edge(common, masks):
                    rays.setdefault(_combine(sp, rm, dots[rm], rp),
                                    common | bit)
        self.rays = rays

    def __repr__(self):
        return "RationalCone(%d generators in Q^%d)" % (len(self.generators),
                                                        self.dim)


class Dual(NamedTuple):
    """The dual of a cone as read off its double description."""

    lineality: list         # a basis of the lineality space
    extremal_rays: list     # primitive rays modulo the lineality, sorted


def contains(cone: RationalCone, x) -> bool:
    """Exact membership by Farkas: x lies in the cone iff it pairs
    nonnegatively with every ray of the dual and to zero with the dual's
    lineality."""
    fx = _flip(x)
    return (all(_dot(fx, l) == 0 for l in cone.lineality)
            and all(_dot(fx, r) >= 0 for r in cone.rays))


def dual(cone: RationalCone) -> Dual:
    """Extremal rays of {x : x . g >= 0 for all generators}, intersection
    pairing, and a basis of its lineality space, read from the cone's
    description; no cone is built."""
    return Dual(list(cone.lineality), sorted(cone.rays))


def exists_negative_square(d: Dual) -> bool:
    """Is there x in the cone spanned by d's rays and by +-l for each l of
    its lineality with x.x < 0 (intersection form)?

    Exact convexity argument: rays with nonnegative square sit in one of the
    two nappes, separated by the sign of the pairing with L*; a cone inside
    the nonnegative-square locus either lies in one nappe or is a single
    null line, and any non-antipodal pair straddling the nappes produces a
    negative-square combination.
    """
    rays = [v for l in d.lineality for v in (l, tuple(-x for x in l))]
    pos, neg = [], []
    for r in rays + d.extremal_rays:
        if lorentz(r, r) < 0:
            return True
        # nonzero ray with r.r >= 0 cannot be orthogonal to L* (signature)
        if r[0] == 0:
            raise RuntimeError("a ray of nonnegative square is orthogonal "
                               "to L*")
        (pos if r[0] > 0 else neg).append(r)
    if not pos or not neg:
        return False
    for u in pos:
        for v in neg:
            if u != tuple(-x for x in v):
                return True
    return False
