"""Helpers that only the tests use: ranks of integer class vectors, cone
equality, the cone spanned by a dual, a record of the cone search's duals,
the line class, total exceptional classes and the proximity matrix of a
configuration, total-transform valuations, the variables, partial
derivatives, coefficient vectors and spans of forms, the pencil of lines
through a point, the value of a form at a point, the 1-form of a pencil,
the wedge and invariance tests on all three components of the 2-form, the
node-wise resultant, the chart maps substituted in K, the filtered
[-d, d] sweep of Algorithm 1 and the cone search's unpruned candidates, as
references, seeded random configurations, the labels of the cone search's
trace and Algorithm 1 held back from it, Euclid over Fraction as the
reference for the Z[x] kernel over Q, the common zeros of the coordinates
of f(x + a y) as the reference for the roots in a quadratic field, the
elimination loop that inverts each pivot as the reference for the
fraction-free ``rref``, the simplicity test on elements of K and the split
primes from the generic splitting as references for the arithmetic over
Q and the closed form, the benchmark's pool pencils, and seeded log forms
and radial log forms."""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import random
import re
import sys
from fractions import Fraction
from typing import Sequence

from folint import cones, engine, linalg, modp
from folint.cluster import (
    Configuration, DivisorClass, InfinitelyNearPoint, root_chart_images,
)
from folint.cones import RationalCone, contains
from folint.numfield import (
    QQ, FieldElement, NumberField, common_zeros, poly_derivative,
    poly_divmod, poly_eval, poly_interpolate, poly_resultant,
    poly_squarefree_part, poly_trim, rational_is_square, reciprocal,
)
from folint.polyforms import (
    HomogeneousForm, ProjectiveOneForm, _partial, divides, gcd3, monomials,
)


def rank_of_classes(vectors) -> int:
    return linalg.rank_int([list(v) for v in vectors])


def cone_equal(a: RationalCone, b: RationalCone) -> bool:
    """Equality as sets, by double inclusion of generators."""
    return (all(contains(b, g) for g in a.generators)
            and all(contains(a, g) for g in b.generators))


def cone_of(d: cones.Dual, dim: int) -> RationalCone:
    """The cone in Q^dim that a dual's rays and +-l for each l of its
    lineality span."""
    gens = [v for l in d.lineality for v in (l, tuple(-x for x in l))]
    return RationalCone(gens + d.extremal_rays, dim)


def record_duals(monkeypatch) -> list:
    """The extremal rays of each ``cones.dual`` result from now on, one
    list per call, in call order."""
    seen = []
    dual = cones.dual

    def recording(cone):
        out = dual(cone)
        seen.append(out.extremal_rays)
        return out

    monkeypatch.setattr(cones, "dual", recording)
    return seen


def line_class(config: Configuration) -> DivisorClass:
    return config.divisor(1, [0] * config.size)


def total_exceptional_class(config: Configuration,
                            name_or_index) -> DivisorClass:
    """E_q*, the total transform of the exceptional divisor of q."""
    e = [0] * config.size
    e[config._idx(name_or_index)] = -1
    return config.divisor(0, e)


def proximity_matrix(config: Configuration):
    """Lower triangular; unit diagonal, -1 where row-point prox
    column-point."""
    P = [[0] * config.size for _ in range(config.size)]
    for i in range(config.size):
        P[i][i] = 1
        for j in config.prox_to[i]:
            P[i][j] = -1
    return P


def total_valuations(mults, config: Configuration):
    """Valuation of the total transform along each exceptional divisor."""
    vals = [0] * config.size
    for i in range(config.size):
        vals[i] = mults[i] + sum(vals[j] for j in config.prox_to[i])
    return vals


def variable(field, index: int) -> HomogeneousForm:
    """X, Y or Z for index 0, 1 or 2."""
    expo = [0, 0, 0]
    expo[index] = 1
    return HomogeneousForm(field, 1, {tuple(expo): field.one()})


def partial(f: HomogeneousForm, index: int) -> HomogeneousForm:
    return HomogeneousForm(f.field, max(f.degree - 1, 0),
                           _partial(f.coeffs, index))


def coefficient_vector(f: HomogeneousForm, order):
    return [f.coeffs.get(e, f.field.zero()) for e in order]


def same_span(forms_a: Sequence[HomogeneousForm],
              forms_b: Sequence[HomogeneousForm]) -> bool:
    """Spans are compared by ranks of stacked coefficient matrices."""
    if not forms_a and not forms_b:
        return True
    degree = (forms_a[0] if forms_a else forms_b[0]).degree
    order = monomials(degree)
    rows_a = [coefficient_vector(f, order) for f in forms_a]
    rows_b = [coefficient_vector(f, order) for f in forms_b]
    ra = linalg.rank(rows_a)
    rb = linalg.rank(rows_b)
    rab = linalg.rank(rows_a + rows_b)
    return ra == rb == rab


def lines_through(point, field):
    """The reduced echelon kernel of the one row (x, y, z) of a plane
    point, as the two lines that span the pencil through it."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [HomogeneousForm(field, 1, {u: c for u, c in zip(units, vec) if c})
            for vec in linalg.nullspace([list(point)])]


def value_at(f: HomogeneousForm, point):
    """f at a point of K^3, term by term."""
    x, y, z = (f.field.element(v) for v in point)
    acc = f.field.zero()
    for (i, j, k), c in f.coeffs.items():
        acc = acc + c * x ** i * y ** j * z ** k
    return acc


def one_form_from_pencil(F: HomogeneousForm,
                         G: HomogeneousForm) -> ProjectiveOneForm:
    """The 1-form G dF - F dG with common factors removed: the foliation
    whose first integral is F/G."""
    comps = [G * partial(F, i) - F * partial(G, i) for i in range(3)]
    g = gcd3(*comps)
    if g.degree > 0:
        comps = [divides(g, c) for c in comps]
    return ProjectiveOneForm(*comps)


def wedge_one_forms(p, q, r, omega):
    """(p dX + q dY + r dZ) ^ omega as its components on the basis
    (dY^dZ, dZ^dX, dX^dY)."""
    A, B, C = omega.components()
    return q * C - r * B, r * A - p * C, p * B - q * A


def wedge_d(G, omega):
    """dG ^ omega."""
    return wedge_one_forms(*(partial(G, i) for i in range(3)), omega)


def is_invariant_curve(G, omega) -> bool:
    """Reference: G divides all three components of dG ^ omega."""
    if G.is_zero():
        raise ValueError("invariance test on the zero form")
    return all(divides(G, comp) is not None for comp in wedge_d(G, omega))


def is_first_integral(F, G, omega) -> bool:
    """Reference: G dF - F dG is not zero (F/G is not a constant) and all
    three components of (G dF - F dG) ^ omega vanish."""
    if G.is_zero():
        raise ValueError("zero denominator")
    if F.degree != G.degree:
        raise ValueError("numerator and denominator degrees differ")
    p, q, r = (G * partial(F, i) - F * partial(G, i) for i in range(3))
    if p.is_zero() and q.is_zero() and r.is_zero():
        return False
    return all(c.is_zero() for c in wedge_one_forms(p, q, r, omega))


def reference_resultant(p, q, field):
    """Reference: Res_y of two bivariate dicts {(i, j): c} over K by a
    Euclidean resultant over K at the nodes x = 0, 1, -1, 2, ... where
    neither leading y-coefficient vanishes, then Newton interpolation of
    each coordinate over Q.  The x-degree of Res_y is at most
    m bx(q) + n bx(p) for the y-degrees m, n and the x-degrees bx."""
    p_rows, q_rows = _y_rows(p, field), _y_rows(q, field)
    m, n = len(p_rows) - 1, len(q_rows) - 1
    count = (m * max(len(r) - 1 for r in q_rows) +
             n * max(len(r) - 1 for r in p_rows) + 1)
    nodes, values = [], []
    x = 0
    while len(nodes) < count:
        xe = field.element(x)
        pe = poly_trim([poly_eval(r, xe) for r in p_rows])
        qe = poly_trim([poly_eval(r, xe) for r in q_rows])
        if len(pe) == m + 1 and len(qe) == n + 1:
            nodes.append(x)
            values.append(poly_resultant(pe, qe, field))
        x = -x + (1 if x <= 0 else 0)
    return poly_interpolate(nodes, values, field)


def _y_rows(poly, field):
    rows = [[] for _ in range(max(j for _, j in poly) + 1)]
    for (i, j), c in poly.items():
        rows[j].extend([field.zero()] * (i + 1 - len(rows[j])))
        rows[j][i] = c
    return [poly_trim(row) for row in rows]


# ---------------------------------------------------------------------------
# local series in the true chart coordinates, by substitution in K
# ---------------------------------------------------------------------------

def _bi_mul(p, q):
    out = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
    return {key: v for key, v in out.items() if v}


def _compose(poly, x, y):
    """poly(x, y) for bivariate dicts {(i, j): c} over K."""
    out = {}
    for (i, j), c in poly.items():
        term = {(0, 0): c}
        for factor in [x] * i + [y] * j:
            term = _bi_mul(term, factor)
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def reference_series(coeffs, config: Configuration, multiplicity):
    """The local series of a form, one dict {(i, j): c} per point, in the
    true chart coordinates: at a plane point f(a + u, b + v) with the pivot
    set to 1, and at a child the chart map (chart 1: v = u (w + c); chart
    2: u = s v, in the coordinates (v, s)) substituted into the parent's
    monomials of order at least e, then divided by u^e.  e is
    ``multiplicity(index, parent series)``."""
    field = config.field
    one = field.one()
    local = []
    for idx, point in enumerate(config.points):
        parent = config.parent_idx[idx]
        if parent is None:
            pivot, a, b = root_chart_images(point.origin)
            x, y = (i for i in range(3) if i != pivot)
            poly = {(expo[x], expo[y]): c for expo, c in coeffs.items()}
            series = _compose(poly, {(0, 0): a, (1, 0): one},
                              {(0, 0): b, (0, 1): one})
        else:
            e = multiplicity(parent, local[parent])
            kept = {k: c for k, c in local[parent].items() if sum(k) >= e}
            if point.chart == 1:
                maps = {(1, 0): one}, {(1, 0): point.c, (1, 1): one}
            else:
                maps = {(1, 1): one}, {(1, 0): one}
            series = {(i - e, j): c
                      for (i, j), c in _compose(kept, *maps).items()}
        local.append(series)
    return local


def reference_multiplicities(form, config: Configuration):
    """Multiplicities of the successive strict transforms."""
    def order(idx, series):
        return min(map(sum, series), default=0)
    return [order(i, s) for i, s in enumerate(
        reference_series(form.coeffs, config, order))]


def reference_kernel(D, config: Configuration):
    """The reduced echelon kernel of D's conditions in K, as forms: at
    each point, the monomials of order below the clamped e_q of the generic
    form's series, with the clamped e of the parent at each chart step."""
    field = config.field
    order = monomials(D.d)
    clamped = [max(v, 0) for v in D.e]
    columns = [reference_series({m: field.one()}, config,
                                lambda idx, _: clamped[idx])
               for m in order]
    rows = []
    for idx in range(config.size):
        keys = {k for col in columns for k in col[idx]
                if sum(k) < clamped[idx]}
        rows += [[col[idx].get(k, field.zero()) for col in columns]
                 for k in sorted(keys)]
    vectors = linalg.kernel(*linalg.rref(rows), len(order), field.zero())
    return [HomogeneousForm(field, D.d, {order[t]: v for t, v in
                                         enumerate(vec) if v})
            for vec in vectors]


# ---------------------------------------------------------------------------
# configurations and Algorithm 1's candidates
# ---------------------------------------------------------------------------

def random_configuration(rng, field, mixed=False):
    """Up to three plane points with denominators up to 7, each the root of
    a chain of up to three chart steps; chart-1 constants have denominators
    up to 7 too.  Every point is dicritical, or with ``mixed`` each point
    with a child is with probability 1/2 (a leaf always is: the dicritical
    closure needs it)."""
    def element():
        return field.element([Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                              if rng.random() < 0.7 else 0
                              for _ in range(field.degree)])
    points, origins = [], set()
    for r in range(rng.randint(1, 3)):
        origin = (element(), element(), field.one())
        if tuple(c.coeffs for c in origin[:2]) in origins:
            continue
        origins.add(tuple(c.coeffs for c in origin[:2]))
        name = "r%d" % r
        points.append(InfinitelyNearPoint(name, origin=origin,
                                          dicritical=True))
        for depth in range(rng.randint(0, 3)):
            chart = rng.choice((1, 1, 2))
            points.append(InfinitelyNearPoint(
                "%s_%d" % (name, depth), parent=points[-1].name, chart=chart,
                c=element() if chart == 1 else None, dicritical=True))
    if mixed:
        for p, child in zip(points, points[1:]):
            if child.parent == p.name:
                p.dicritical = rng.random() < 0.5
    return Configuration(points, field)


def zero_sum_candidates(config: Configuration, d: int):
    """Reference for Algorithm 1's candidates: the dicritical e_q roam
    [-d, d] and the others carry the proximity equality, pruned on
    sum e^2 <= d^2; the sorted tuples are then filtered on D^2 = 0 and
    D.E~_q > 0 at every dicritical q."""
    prox_children = config.proximate_children
    dicritical = [p.dicritical for p in config.points]
    out = []
    e = [0] * config.size

    def descend(idx, acc):
        if idx < 0:
            out.append(tuple(e))
            return
        forced = sum(e[p] for p in prox_children[idx])
        choices = range(-d, d + 1) if dicritical[idx] else (forced,)
        for v in choices:
            extra = v * v
            if acc + extra > d * d:
                if v >= 0:
                    break
                continue
            e[idx] = v
            descend(idx - 1, acc + extra)
        e[idx] = 0

    descend(config.size - 1, 0)
    dic_strict = [config.exceptional_strict_class(q)
                  for q in config.dicritical_indices()]
    kept = []
    for e in sorted(out):
        D = config.divisor(d, e)
        if D.square() == 0 and all(D.intersect(cl) > 0 for cl in dic_strict):
            kept.append(e)
    return kept


def unpruned_effective_multiplicities(config: Configuration, d: int):
    """Reference for the cone search's candidates: every e with
    D.E~_q >= 0 at each point and e_q <= d, sorted, with no filter on C^2,
    K.C or the arithmetic genus."""
    prox, tails = config.proximate_children, [()]
    for q in reversed(range(config.size)):
        tails = [(v,) + t for t in tails
                 for v in range(sum(t[p - q - 1] for p in prox[q]), d + 1)]
    return sorted(tails)


def negative_curve_filter(d: int, e) -> bool:
    """The adjunction filter on a negative curve's class D = dL - sum e E*:
    C^2 = K.C = -1, or C^2 < 0 and K.C >= 0."""
    C2, KC = d * d - sum(v * v for v in e), sum(e) - 3 * d
    return C2 == KC == -1 or (C2 < 0 and KC >= 0)


def genus_bound(d: int, e) -> bool:
    """p_a(dL - sum e E*) >= 0: sum e(e - 1) <= (d - 1)(d - 2)."""
    return sum(v * (v - 1) for v in e) <= (d - 1) * (d - 2)


_LABEL = re.compile(r"(\d+) \[([\d, ]*)\] \| (.*)")


def trace_labels(lines):
    """(d, e, outcome) of every candidate line of ``algorithm3``'s trace,
    such as ``2 [1, 0, 1] | V+``."""
    return [(int(m.group(1)), [int(v) for v in m.group(2).split(",")],
             m.group(3))
            for m in map(_LABEL.fullmatch, lines) if m]


def hold_back_algorithm1(monkeypatch):
    """Make every ``engine.algorithm1`` call find nothing, so that
    ``algorithm3`` runs its cone search to its own end.  Algorithm 1's
    no_integral decides nothing there, so the cone search then gives the
    verdict, system, V+ and G+ lines it gives whenever Algorithm 1 does
    not end the run first."""
    held_back = engine.Verdict.no_integral("held back")
    monkeypatch.setattr(engine, "algorithm1", lambda *args: held_back)


# ---------------------------------------------------------------------------
# Euclid over Fraction: the reference for the Z[x] kernel over Q
# ---------------------------------------------------------------------------

def reference_gcd(p, q):
    """Monic gcd by Euclid over the coefficients themselves: Fractions for
    int or Fraction lists, elements for elements of Q."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return [c * reciprocal(p[-1]) for c in p]


def reference_squarefree_part(p):
    """p over gcd(p, p') by Euclid, monic, for a nonzero p."""
    p = poly_trim(p)
    g = reference_gcd(p, poly_derivative(p))
    if len(g) > 1:
        p = poly_divmod(p, g)[0]
    return [c * reciprocal(p[-1]) for c in p]


def _reference_rational_roots(p):
    """The rational roots of a squarefree Fraction list of degree >= 2, by
    p-adic lifting on its integer part and a Fraction root test."""
    roots = [Fraction(0)] if not p[0] else []
    p = p[1:] if roots else p
    if len(p) <= 1:
        return roots
    den = math.lcm(*(c.denominator for c in p))
    f = [int(c * den) for c in p]
    f = [c // math.gcd(*f) for c in f]
    df = [i * c for i, c in enumerate(f)][1:]
    lead, bound = f[-1], sum(abs(c) for c in f)
    modulus, lifted = _simple_roots_mod_prime(f, df)
    while modulus <= 2 * bound:
        modulus *= modulus
        lifted = [(r - modp.evaluate(f, r, modulus) *
                   pow(modp.evaluate(df, r, modulus), -1, modulus)) % modulus
                  for r in lifted]
    for r in lifted:
        cand = Fraction(modp.symmetric(lead * r, modulus), lead)
        if poly_eval(f, cand) == 0:
            roots.append(cand)
    return sorted(roots)


def _simple_roots_mod_prime(f, df):
    """The first prime p not dividing the leading coefficient of the integer
    polynomial f at which every root of f mod p is simple, and those roots.
    For squarefree f only the primes dividing a_n or disc(f) are skipped."""
    p = 1
    while True:
        p += 1
        if f[-1] % p == 0 or not modp._is_prime(p):
            continue
        roots = [r for r in range(p) if modp.evaluate(f, r, p) == 0]
        if all(modp.evaluate(df, r, p) for r in roots):
            return p, roots


def reference_roots_over_q(f):
    """(roots, remaining degree, cofactor) of a nonzero list of elements of
    Q, as ``find_roots_in_field`` gives them, by Euclid over Fraction and
    one Fraction division per root."""
    f = poly_trim(f)
    low = next(i for i, c in enumerate(f) if c)
    work = reference_squarefree_part([c.coeffs[0] for c in f[low:]])
    if len(work) <= 2:
        roots = [-work[0]] if len(work) == 2 else []
    else:
        roots = _reference_rational_roots(work)
    for r in roots:
        work = poly_divmod(work, [-r, work[-1]])[0]
    roots, work = ([QQ.element(c) for c in p] for p in (roots, work))
    if low:
        roots.append(QQ.zero())
    roots.sort(key=FieldElement.sort_key)
    return roots, len(work) - 1, work


# ---------------------------------------------------------------------------
# common zeros over Q: the reference for the roots in a quadratic field
# ---------------------------------------------------------------------------

def reference_roots_over_k(f):
    """(roots, remaining degree, cofactor) of a nonzero list over a
    quadratic K, as ``find_roots_in_field`` gives them, from the rational
    common zeros of the coordinates of f(x + a y)."""
    f = poly_trim(f)
    field = f[0].field
    low = next(i for i, c in enumerate(f) if c)
    work = poly_squarefree_part(f[low:])
    if len(work) <= 2:
        roots = [-work[0]] if len(work) == 2 else []
    else:
        roots = _quadratic_field_roots(work, field)
    for r in roots:
        work = poly_divmod(work, [-r, work[-1]])[0]
    if low:
        roots.append(field.zero())
    roots.sort(key=FieldElement.sort_key)
    return roots, len(work) - 1, work


def _quadratic_field_roots(f, field):
    """The roots in a quadratic K = Q(a) of a squarefree f of degree >= 2.

    A root x + a y, x and y rational, is a common rational zero of the
    coordinates P, Q of f(x + a y) = P + a Q (``taylor_coordinates``).
    Over the algebraic closure f(x + a y) is a product of lines
    x + a y = r and its conjugate P + a' Q one of lines x + a' y = r', so
    P and Q have no common factor, and ``common_zeros`` over Q finds every
    such zero.
    """
    P, Q = taylor_coordinates(f, field)
    roots = []
    for x0, y0 in common_zeros(P, Q, QQ)[0]:
        cand = field.element((x0.coeffs[0], y0.coeffs[0]))
        if poly_eval(f, cand):
            raise RuntimeError("a common zero of the coordinates of "
                               "f(x + a y) is not a root of f")
        roots.append(cand)
    return roots


def taylor_coordinates(f, field):
    """P, Q in Q[x, y], as dicts over QQ, with f(x + a y) = P + a Q for a
    quadratic K = Q(a).

    By Taylor's formula at x, f(x + a y) = sum_k a^k y^k f_k(x), where
    f_k = f^(k) / k! = sum_i C(i + k, k) f_(i+k) x^i, so the two
    coordinates of a^k C(i + k, k) f_(i+k) are the (i, k) coefficients of
    P and Q.
    """
    P, Q = {}, {}
    gen, power = field.element((0, 1)), field.one()
    for k in range(len(f)):
        for i in range(len(f) - k):
            c0, c1 = (f[i + k] * power * math.comb(i + k, k)).coeffs
            if c0:
                P[(i, k)] = QQ.element(c0)
            if c1:
                Q[(i, k)] = QQ.element(c1)
        power = power * gen
    return P, Q


# ---------------------------------------------------------------------------
# elimination by inverted pivots, simplicity over K and the generic
# splitting: the references for the fraction-free rref, the simplicity test
# over Q and the closed form for quadratics
# ---------------------------------------------------------------------------

def reference_rref(rows):
    """``linalg.rref`` by the loop that scales each pivot row by the
    pivot's reciprocal and clears its column from every other row."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = reciprocal(m[r][c])
        tail = [v * inv for v in m[r][c:]]
        m[r][c:] = tail
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i][c:] = [a - f * b if b else a
                             for a, b in zip(m[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reference_is_simple(omega) -> bool:
    """``resolve.is_simple`` on elements of K: c = (tr^2 - 2 det) / det by
    a FieldElement division, a ratio that is a positive rational iff c is
    a rational >= 2 with c^2 - 4 a rational square."""
    du, dv = (omega.series.get(key, {}) for key in ((1, 0), (0, 1)))
    a_u, b_u, a_v, b_v = (omega.field.element(d.get(t, 0))
                          for d in (du, dv) for t in (0, 1))
    trace, det = a_v - b_u, a_u * b_v - a_v * b_u
    if det.is_zero():
        return not trace.is_zero()
    c = (trace * trace - 2 * det) / det
    if not c.is_rational() or c.as_fraction() < 2:
        return True
    return rational_is_square(c.as_fraction() ** 2 - 4) is None


def reference_split_primes(field, count):
    """The first ``count`` entries of ``field.split_prime``, from the
    generic splitting of m mod each prime, whatever its degree."""
    primes, P = [], 2 ** 31 - 1
    while len(primes) < count:
        if modp._is_prime(P) and all(c.denominator % P
                                     for c in field.minpoly):
            m = [c.numerator * pow(c.denominator, -1, P) % P
                 for c in field.minpoly]
            roots = modp._generic_roots(m, P)
            if len(roots) == field.degree:
                primes.append((P, roots, modp.vandermonde_inverse(roots, P)))
        P -= 2
    return primes


# ---------------------------------------------------------------------------
# inputs: the benchmark's pool pencils, seeded log forms and radial log forms
# ---------------------------------------------------------------------------

def bench_pencils():
    """The benchmark's pencil generator ``perfbench/pencils.py``, loaded by
    path as a fresh module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "pencils.py")
    spec = importlib.util.spec_from_file_location("bench_pencils", path)
    pencils = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(pencils)
    finally:
        sys.dont_write_bytecode = written
    return pencils


def pool_pencils(count):
    """The first ``count`` pencils of the benchmark's pool, drawn from its
    workload seed 1."""
    return bench_pencils().generate(1, count)


def log_form(field, lines, residues) -> ProjectiveOneForm:
    """L_1 ... L_n sum_i r_i dL_i / L_i = sum_i r_i (prod_(k != i) L_k) dL_i
    for int lines (a, b, c), L = aX + bY + cZ, and residues r_i in K."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    forms = [HomogeneousForm(field, 1, {u: field.element(c)
                                        for u, c in zip(units, line) if c})
             for line in lines]
    comps = [HomogeneousForm(field, len(lines) - 1, {}) for _ in range(3)]
    for i, r in enumerate(residues):
        others = HomogeneousForm.constant(field, 1)
        for k, f in enumerate(forms):
            if k != i:
                others = others * f
        comps = [comp + others * (r * c) if c else comp
                 for comp, c in zip(comps, lines[i])]
    return ProjectiveOneForm(*comps)


def seeded_log_form(seed) -> ProjectiveOneForm:
    """The log form of four lines with residues (1, -1, a, -a), over
    Q(sqrt 2) for an odd seed and Q(i) for an even one.  The lines have
    int coefficients in [-3, 3] drawn by random.Random(seed), all four
    redrawn until none is zero and no two are proportional."""
    field = NumberField((-2, 0, 1) if seed % 2 else (1, 0, 1))
    rng = random.Random(seed)
    while True:
        lines = [tuple(rng.randint(-3, 3) for _ in range(3))
                 for _ in range(4)]
        if all(map(any, lines)) and all(any(_cross(a, b)) for i, a in
                                        enumerate(lines) for b in lines[:i]):
            break
    a = field.element((0, 1))
    return log_form(field, lines, [field.one(), -field.one(), a, -a])


def radial_log_form(field, p, q, seed) -> ProjectiveOneForm:
    """The log form of p + q + 2 lines with residues 1 (p times), -1 (q
    times), a and -(p - q) - a, which sum to 0.  The lines have int
    coefficients in [-3, 3] drawn by random.Random(seed), all redrawn until
    no three are concurrent, which also keeps every line nonzero.  Each
    point where a residue 1 meets a residue -1, and for p = q the point
    of a and -a, has the radial linear part v du - u dv."""
    rng = random.Random(seed)
    while True:
        lines = [tuple(rng.randint(-3, 3) for _ in range(3))
                 for _ in range(p + q + 2)]
        if all(sum(x * y for x, y in zip(a, _cross(b, c)))
               for a, b, c in itertools.combinations(lines, 3)):
            break
    a, one = field.element((0, 1)), field.one()
    return log_form(field, lines,
                    [one] * p + [-one] * q + [a, (q - p) * one - a])


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])
