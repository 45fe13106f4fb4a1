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


def _combine(a, u, b, v):
    """a*u - b*v on integer vectors, divided by its gcd."""
    return _reduce([a * x - b * y for x, y in zip(u, v)])


class _DualDescription(NamedTuple):
    """Generators of {x : n . x >= 0 (Euclidean) for every normal n processed
    so far}, as primitive integer vectors.  ``step`` is one iteration of the
    double description method (Fukuda & Prodon 1996); it returns a new
    description and leaves this one as it is."""

    lineality: list     # a basis of the lineality space
    rays: dict          # extremal ray modulo lineality -> its tight normals
    count: int          # normals processed; bit i of a mask is the i-th

    def step(self, n) -> "_DualDescription":
        bit = 1 << self.count
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
            lineality = [_combine(s0, l, s, l0) if s else l
                         for i, (l, s) in enumerate(zip(self.lineality,
                                                        scores))
                         if i != pivot]
            for r, m in self.rays.items():
                s = _dot(n, r)
                rays.setdefault(_combine(s0, r, s, l0) if s else r,
                                m | bit)
            rays.setdefault(l0, bit - 1)
            return _DualDescription(lineality, rays, self.count + 1)
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
        return _DualDescription(self.lineality, rays, self.count + 1)


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
    """Finitely generated cone; integer generators, stored divided by the
    gcd of their entries.

    The dual's double description is built on first use and carried along
    by ``with_generator``, one step per added generator.
    """

    def __init__(self, generators: Iterable[Sequence], dim: int = None):
        gens = []
        seen = set()
        for g in generators:
            vec = _reduce(g)
            if all(x == 0 for x in vec):
                raise ValueError("zero generator")
            if vec not in seen:
                seen.add(vec)
                gens.append(vec)
        if not gens and dim is None:
            raise ValueError("empty cone needs an explicit dimension")
        self.dim = dim if dim is not None else len(gens[0])
        for g in gens:
            if len(g) != self.dim:
                raise ValueError("generator length mismatch")
        self.generators = gens
        self._dd = None

    def with_generator(self, v) -> "RationalCone":
        out = RationalCone(self.generators + [tuple(v)], self.dim)
        if self._dd is not None:
            added = len(out.generators) > len(self.generators)
            out._dd = (self._dd.step(_flip(out.generators[-1])) if added
                       else self._dd)
        return out

    def _dual_description(self) -> _DualDescription:
        """The dual's double description, with the Lorentzian pairing
        turned Euclidean by flipping each generator."""
        if self._dd is None:
            dd = _DualDescription([tuple(int(i == j) for j in range(self.dim))
                                   for i in range(self.dim)], {}, 0)
            for g in self.generators:
                dd = dd.step(_flip(g))
            self._dd = dd
        return self._dd

    def __repr__(self):
        return "RationalCone(%d generators in Q^%d)" % (len(self.generators),
                                                        self.dim)


def contains(cone: RationalCone, x) -> bool:
    """Exact membership by Farkas: x lies in the cone iff it pairs
    nonnegatively with every ray of the dual and to zero with the dual's
    lineality."""
    dd = cone._dual_description()
    fx = _flip(x)
    return (all(_dot(fx, l) == 0 for l in dd.lineality)
            and all(_dot(fx, r) >= 0 for r in dd.rays))


def dual(cone: RationalCone) -> RationalCone:
    """Extremal rays of {x : x . g >= 0 for all generators}, intersection
    pairing; a lineality space (dual of a non-spanning cone) comes out as
    pairs of opposite generators."""
    dd = cone._dual_description()
    rays = sorted(dd.rays)
    gens = []
    for l in dd.lineality:
        gens.append(l)
        gens.append(tuple(-v for v in l))
    out = RationalCone(gens + rays, cone.dim)
    out.lineality = list(dd.lineality)
    out.extremal_rays = rays
    return out


def exists_negative_square(cone: RationalCone) -> bool:
    """Is there x in the cone with x.x < 0 (intersection form)?

    Exact convexity argument: rays with nonnegative square sit in one of the
    two nappes, separated by the sign of the pairing with L*; a cone inside
    the nonnegative-square locus either lies in one nappe or is a single
    null line, and any non-antipodal pair straddling the nappes produces a
    negative-square combination.
    """
    rays = cone.generators
    pos, neg = [], []
    for r in rays:
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
