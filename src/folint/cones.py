"""Exact polyhedral convex cones in the Picard space Q^(m+1).

Vectors are coordinates in the basis (L*, E_1*, ..., E_m*); the bilinear
pairing used for duality and squares is the Lorentzian intersection form
diag(1, -1, ..., -1).  Duality is always taken with respect to that pairing;
internally the sign flip reduces it to Euclidean duality once, here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .linalg import primitive_integer_vector


def lorentz(u, v) -> Fraction:
    acc = Fraction(u[0]) * Fraction(v[0])
    for a, b in zip(u[1:], v[1:]):
        acc -= Fraction(a) * Fraction(b)
    return acc


def _flip(v):
    return tuple([v[0]] + [-x for x in v[1:]])


class RationalCone:
    """Finitely generated cone; generators are primitive integer vectors."""

    def __init__(self, generators: Iterable[Sequence], dim: int = None):
        gens = []
        seen = set()
        for g in generators:
            vec = tuple(primitive_integer_vector(list(g)))
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

    def with_generator(self, v) -> "RationalCone":
        return RationalCone(self.generators + [tuple(v)], self.dim)

    def __repr__(self):
        return "RationalCone(%d generators in Q^%d)" % (len(self.generators),
                                                        self.dim)


def contains(cone: RationalCone, x) -> bool:
    """Exact membership: x = sum lambda_i g_i with lambda >= 0."""
    if all(v == 0 for v in x):
        return True
    if not cone.generators:
        return False
    A = [[Fraction(g[r]) for g in cone.generators] for r in range(cone.dim)]
    b = [Fraction(v) for v in x]
    return linalg.lp_feasible(A, b)


def dual(cone: RationalCone) -> RationalCone:
    """Extremal rays of {x : x . g >= 0 for all generators}, intersection
    pairing; a lineality space (dual of a non-spanning cone) comes out as
    pairs of opposite generators."""
    normals = [_flip(g) for g in cone.generators]
    lin, rays = _double_description(normals, cone.dim)
    gens = []
    for l in lin:
        gens.append(l)
        gens.append(tuple(-v for v in l))
    gens.extend(rays)
    out = RationalCone(gens, cone.dim) if gens else RationalCone([], cone.dim)
    out.lineality = [tuple(l) for l in lin]
    out.extremal_rays = sorted(rays)
    return out


def extremal_rays(cone: RationalCone):
    """Canonical extremal rays of a pointed cone (via double dualization)."""
    return dual(dual(cone)).extremal_rays


def _double_description(normals, dim):
    """Generators of {x : n . x >= 0 (Euclidean) for n in normals}.

    Returns (lineality basis, extremal rays modulo lineality); processes the
    inequalities in input order, which pins the output for reproducibility.
    """
    lineality = [tuple(Fraction(1) if j == i else Fraction(0)
                       for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []

    def dot(n, v):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(n, v))

    for n in normals:
        scores = [dot(n, l) for l in lineality]
        pivot = next((i for i, s in enumerate(scores) if s != 0), None)
        if pivot is not None:
            l0, s0 = lineality[pivot], scores[pivot]
            if s0 < 0:
                l0 = tuple(-v for v in l0)
                s0 = -s0
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                s = scores[i]
                new_lin.append(tuple(a - (s / s0) * b for a, b in zip(l, l0)))
            new_rays = []
            for r in rays:
                s = dot(n, r)
                new_rays.append(_primitive(tuple(
                    a - (s / s0) * b for a, b in zip(r, l0))))
            new_rays.append(_primitive(l0))
            lineality = [_primitive(l) for l in new_lin]
            rays = _dedupe(new_rays)
        else:
            plus, zero, minus = [], [], []
            for r in rays:
                s = dot(n, r)
                if s > 0:
                    plus.append((r, s))
                elif s < 0:
                    minus.append((r, s))
                else:
                    zero.append((r, s))
            if minus:
                zero_sets = {r: frozenset(
                    i for i, p in enumerate(processed) if dot(p, r) == 0)
                    for r in rays}
                new_rays = [r for r, _ in plus] + [r for r, _ in zero]
                for rp, sp in plus:
                    for rm, sm in minus:
                        common = zero_sets[rp] & zero_sets[rm]
                        adjacent = True
                        for other in rays:
                            if other == rp or other == rm:
                                continue
                            if common <= zero_sets[other]:
                                adjacent = False
                                break
                        if not adjacent:
                            continue
                        combo = tuple(sp * b - sm * a for a, b in
                                      zip(rp, rm))
                        new_rays.append(_primitive(combo))
                rays = _dedupe(new_rays)
        processed.append(n)
    return lineality, sorted(rays)


def _primitive(vec):
    return tuple(primitive_integer_vector(list(vec)))


def _dedupe(rays):
    out, seen = [], set()
    for r in rays:
        if r not in seen:
            seen.add(r)
            out.append(r)
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


def rank_of_classes(vectors) -> int:
    return linalg.rank_int([list(v) for v in vectors])


def cone_equal(a: RationalCone, b: RationalCone) -> bool:
    """Equality as sets, by double inclusion of generators."""
    return (all(contains(b, g) for g in a.generators)
            and all(contains(a, g) for g in b.generators))
