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
trace and Algorithm 1 held back from it."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from folint import cones, engine, linalg
from folint.cluster import (
    Configuration, DivisorClass, InfinitelyNearPoint, root_chart_images,
)
from folint.cones import RationalCone, contains
from folint.numfield import (
    poly_eval, poly_interpolate, poly_resultant, poly_trim,
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
