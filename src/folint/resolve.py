"""Resolution of plane foliation singularities over the base field: local
blow-ups, simplicity and dicriticalness tests, and assembly of the dicritical
configuration.

Everything is restricted to points expressible over K.  When a singular point
escapes the field, its whole conjugate orbit is analyzed symbolically in the
quotient algebra K[t]/(cofactor); orbits certified simple are ignored (they
are never blown up), anything else aborts with the irreducible cofactor as a
machine-readable certificate.

Local foliations live in the integral model of ``linsys``; only chart-1
constants, c = (mu/lambda) c_stored, and certificates map back to true ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .cluster import (
    Configuration, InfinitelyNearPoint, normalize_point,
)
from .numfield import (
    FieldElement, FieldExtensionNeeded, NumberField, bivariate_resultant,
    common_zeros, find_roots_in_field, format_poly_in_t, poly_degree,
    poly_divmod, poly_gcd, poly_inverse_mod, poly_mul, poly_sub, poly_trim,
    rational_is_square, to_y_rows,
)
from .polyforms import HomogeneousForm, ProjectiveOneForm
from .linsys import (
    Series, _prune, _shift, chart_step, child_scales, denominator,
    exact_ring, integral, integral_chart, lift, root_series,
)


class ResolutionError(RuntimeError):
    pass


class DepthCapExceeded(ResolutionError):
    pass


# ---------------------------------------------------------------------------
# scalar bivariate helpers: dicts (i, j) -> FieldElement, variables (u, v)
# ---------------------------------------------------------------------------

def _bi_partial(poly, index):
    return {(i - 1, j) if index == 0 else (i, j - 1): c * (i, j)[index]
            for (i, j), c in poly.items() if (i, j)[index]}


def _column(series: Series, t: int):
    """Column t of a series, as a dict (i, j) -> coefficient."""
    return {key: vec[t] for key, vec in series.items() if t in vec}


def _coeffs_at_u0(poly, field):
    """The restriction to the exceptional u = 0, as a K[w] list."""
    row = {j: c for (i, j), c in poly.items() if not i}
    return poly_trim(field.element(row.get(j, 0))
                     for j in range(max(row, default=-1) + 1))


# ---------------------------------------------------------------------------
# local foliations
# ---------------------------------------------------------------------------

class LocalFoliation:
    """omega = a du + b dv around the origin: one two-column ``linsys``
    series {(i, j): {0: a_ij, 1: b_ij}} in coordinates scaled by ``scales``."""

    __slots__ = ("field", "series", "scales")

    def __init__(self, field: NumberField, series: Series, scales):
        self.field = field
        self.series = series
        self.scales = scales

    def order(self) -> int:
        if not self.series:
            raise ResolutionError("zero local 1-form")
        return min(i + j for i, j in self.series)

    def is_singular(self) -> bool:
        return self.order() >= 1

    def linear_data(self) -> Tuple[FieldElement, FieldElement]:
        """(trace, determinant) of the linear part of the dual vector field."""
        du = self.series.get((1, 0), {})
        dv = self.series.get((0, 1), {})
        a_u, b_u = du.get(0, 0), du.get(1, 0)
        a_v, b_v = dv.get(0, 0), dv.get(1, 0)
        return tuple(map(self.field.element, (a_v - b_u,
                                              a_u * b_v - a_v * b_u)))


def local_at_plane_point(omega: ProjectiveOneForm, origin) -> LocalFoliation:
    """Pull the projective 1-form back to the integral chart at the point.
    The pivot variable is constant there, so a and b are the series of the
    other two components."""
    field, ring = omega.field, exact_ring(omega.field)
    chart = integral_chart(origin, field)
    columns = integral([comp.coeffs for i, comp in
                        enumerate(omega.components()) if i != chart[0]], ring)
    return LocalFoliation(field, root_series(chart, columns, ring),
                          (Fraction(1, chart[1]),) * 2)


def _ratio_is_positive_rational(c: FieldElement) -> bool:
    """Does r^2 - c r + 1 = 0 have a positive rational root?"""
    if not c.is_rational():
        return False
    cq = c.as_fraction()
    if cq < 2:
        # real rational roots need disc >= 0, and their product is 1
        return False
    return rational_is_square(cq * cq - 4) is not None


def is_simple(omega: LocalFoliation) -> bool:
    """Seidenberg-final singularities: eigenvalue ratio not a positive
    rational, including saddle-nodes; nilpotent linear part is not simple."""
    if not omega.is_singular():
        raise ResolutionError("simplicity test at a non-singular point")
    trace, det = omega.linear_data()
    if det.is_zero():
        return not trace.is_zero()
    c = (trace * trace - 2 * det) / det
    return not _ratio_is_positive_rational(c)


class BlowUpResult(NamedTuple):
    dicritical: bool
    chart1: list            # (c, LocalFoliation at the point, simple flag)
    chart2: Optional[LocalFoliation]
    chart2_singular: bool


def _chart_form(series: Series, chart: int, order: int, ring):
    """The 1-form of ``series`` in a blow-up chart, and whether the blow-up
    is dicritical.

    With a', b' the coefficients pulled back and divided by u^order, the
    form is (a' + w b') du + u b' dw in chart 1 and (b' + v' a') du' +
    u' a' dv' in chart 2.  The blow-up is dicritical when the du
    coefficient vanishes on the exceptional u = 0; the form is then
    divided by one more u.
    """
    pulled = chart_step(series, chart, order, ring)
    a, b = (0, 1) if chart == 1 else (1, 0)
    out: Series = {}
    for (i, j), vec in pulled.items():
        for key, t, col in (((i, j), 0, a), ((i, j + 1), 0, b),
                            ((i + 1, j), 1, b)):
            v = vec.get(col)
            if v is not None:
                acc = out.setdefault(key, {})
                acc[t] = acc[t] + v if t in acc else v
    out = _prune(out)
    dicritical = all(i for i, _ in out)
    if dicritical:
        out = {(i - 1, j): vec for (i, j), vec in out.items()}
    return out, dicritical


def blow_up_local(omega: LocalFoliation) -> BlowUpResult:
    """One blow-up at the origin; locates the singular points on the
    exceptional divisor and decides dicriticalness."""
    if not omega.is_singular():
        raise ResolutionError("blow-up at a non-singular point")
    field = omega.field
    ring, (lam, mu) = exact_ring(field), omega.scales
    rho = Fraction(mu, lam) if lam != mu else 1     # c = rho c_stored
    order = omega.order()
    form1, dicritical = _chart_form(omega.series, 1, order, ring)

    # singular points on u = 0 in chart 1
    a1, b1 = _column(form1, 0), _column(form1, 1)
    a0 = _coeffs_at_u0(a1, field)
    b0 = _coeffs_at_u0(b1, field)
    if not a0 and not b0:
        raise ResolutionError("exceptional divisor inside the singular locus")
    g = poly_gcd(a0, b0)
    children = []
    if poly_degree(g) >= 1:
        roots, remaining, cofactor = find_roots_in_field(g, field)
        if remaining > 0:
            _require_orbit_simple(a1, b1, cofactor, field, [],
                                  [field.zero(), field.one()], rho)
        for c in roots:
            # W = m (w - c): dw = dW/m puts one more m on du
            m = denominator(c)
            form = form1 if m == 1 else {
                key: {t: v * m if t == 0 else v for t, v in vec.items()}
                for key, vec in form1.items()}
            child = LocalFoliation(
                field, _shift(form, 1, lift(c * m, ring), ring, m=m),
                child_scales(omega.scales, 1, m))
            children.append((c * rho, child, is_simple(child)))

    # chart 2: (u, v) = (v'u', u'), which sees the same exceptional
    form2, dicritical2 = _chart_form(omega.series, 2, order, ring)
    if dicritical2 != dicritical:
        raise ResolutionError("the two charts disagree on dicriticalness")
    chart2 = LocalFoliation(field, form2, child_scales(omega.scales, 2))
    return BlowUpResult(dicritical, children, chart2, (0, 0) not in form2)


# ---------------------------------------------------------------------------
# conjugate orbits outside K: exact simplicity certification
# ---------------------------------------------------------------------------

def _require_orbit_simple(a, b, g, field, u0, v0, scale=1):
    """Certify that all conjugate singular points cut out by ``g`` are
    simple; raise FieldExtensionNeeded otherwise.

    g is squarefree and monic, a cofactor of ``find_roots_in_field``.
    (u0, v0) are the coordinates of the orbit as K[t]/(g) elements, t being
    the residue of the variable; a, b are the bivariate coefficients of the
    ambient local 1-form a du + b dv.  The certificate has the roots of g
    times ``scale``, their true coordinates.
    """
    u0 = _alg_reduce(u0, g)
    v0 = _alg_reduce(v0, g)

    def jac_entry(poly, index):
        part = _bi_partial(poly, index)
        return _alg_eval_bivariate(part, u0, v0, g, field)

    a_u, a_v = jac_entry(a, 0), jac_entry(a, 1)
    b_u, b_v = jac_entry(b, 0), jac_entry(b, 1)
    trace = poly_sub(a_v, b_u)
    det = poly_sub(_alg_mul(a_u, b_v, g), _alg_mul(a_v, b_u, g))

    # g is monic, so g0 = g when det = 0, and g00 = g0 when trace = 0
    scaled = [c * scale ** (len(g) - 1 - k) for k, c in enumerate(g)]
    certificate = format_poly_in_t(scaled)
    g0 = poly_gcd(g, det)
    if poly_degree(poly_gcd(g0, trace)) >= 1:
        raise FieldExtensionNeeded(
            "a conjugate singular point with nilpotent linear part lies "
            "outside the base field (certificate %s)" % certificate,
            certificate=scaled)
    g1, rem = poly_divmod(g, g0)
    if rem:
        raise ResolutionError("g0 does not divide the orbit polynomial")
    if poly_degree(g1) < 1:
        return
    # a rational eigenvalue-ratio invariant c = (tr^2-2det)/det = E/det of a
    # conjugate is a root of Res_t(g1, E - c*det)
    det = _alg_reduce(det, g1)
    e_poly = poly_sub(_alg_mul(trace, trace, g1), _alg_scale(det, 2))
    res_in_c = bivariate_resultant(
        {(0, j): c for j, c in enumerate(g1)},
        {**{(0, j): c for j, c in enumerate(e_poly)},
         **{(1, j): -c for j, c in enumerate(det)}}, field)
    roots, _, _ = find_roots_in_field(res_in_c, field) \
        if poly_degree(res_in_c) >= 1 else ([], 0, [])
    for root in roots:
        if root.is_rational() and _ratio_is_positive_rational(root):
            raise FieldExtensionNeeded(
                "a conjugate singular point outside the base field is not "
                "simple (certificate %s)" % certificate, certificate=scaled)


def _alg_reduce(p, modulus):
    p = poly_trim(p)
    if len(p) >= len(modulus):
        p = poly_divmod(p, modulus)[1]
    return p


def _alg_mul(p, q, modulus):
    return _alg_reduce(poly_mul(p, q), modulus)


def _alg_scale(p, k):
    return poly_trim([c * k for c in p])


def _alg_eval_bivariate(poly, u0, v0, modulus, field):
    """Evaluate a K-bivariate polynomial at algebra-valued coordinates."""
    acc = []
    upow = {0: [field.one()]}
    vpow = {0: [field.one()]}

    def power(cache, base, e):
        if e not in cache:
            cache[e] = _alg_mul(power(cache, base, e - 1), base, modulus)
        return cache[e]

    for (i, j), c in poly.items():
        term = _alg_mul(power(upow, u0, i), power(vpow, v0, j), modulus)
        acc = poly_sub(acc, _alg_scale(term, -c))
    return _alg_reduce(acc, modulus)


def _alg_inverse(p, modulus):
    """Inverse in K[t]/(modulus); raises FieldExtensionNeeded on a zero
    divisor (the modulus then splits and the orbit needs case analysis)."""
    inv = poly_inverse_mod(p, modulus)
    if inv is None:
        raise FieldExtensionNeeded(
            "zero divisor in the escape algebra (certificate %s)" %
            format_poly_in_t(modulus), certificate=modulus)
    return inv


# ---------------------------------------------------------------------------
# global singular locus
# ---------------------------------------------------------------------------

class EscapedOrbit(NamedTuple):
    kind: str               # "affine-y" | "affine-x" | "infinity"
    modulus: list           # K[t] polynomial cutting out the orbit
    data: tuple


class SingularLocus(NamedTuple):
    points: list            # normalized projective points over K
    complete: bool
    escaped: list           # EscapedOrbit entries


def singular_points(omega: ProjectiveOneForm) -> SingularLocus:
    """Common zeros of A, B, C over K, chart by chart, with completeness."""
    field = omega.field
    A, B, C = omega.components()
    points = []
    escaped = []

    # affine chart Z = 1: common zeros of the two dehomogenized components
    pair = [f.dehomogenize(2) for f in (A, B) if not f.is_zero()]
    if len(pair) < 2:
        pair = [f.dehomogenize(2) for f in (A, B, C) if not f.is_zero()][:2]
    p, q = pair
    affine_pts, affine_escaped = common_zeros(p, q, field)
    points.extend((x, y, field.one()) for x, y in affine_pts)
    escaped.extend(EscapedOrbit("affine-x", cofactor, (p, q)) if x0 is None
                   else EscapedOrbit("affine-y", cofactor, (x0, (p, q)))
                   for x0, cofactor in affine_escaped)

    # the line Z = 0: points (x:1:0) and (1:0:0)
    univs = []
    for f in (A, B, C):
        # f(x, 1, 0), row z^0 of f(x, 1, z)
        coeffs = to_y_rows(f.dehomogenize(1), field)[0]
        if coeffs:
            univs.append(coeffs)
    g = univs[0]
    for other in univs[1:]:
        g = poly_gcd(g, other)
        if poly_degree(g) < 1:
            break
    if poly_degree(g) >= 1:
        roots, remaining, cofactor = find_roots_in_field(g, field)
        for r in roots:
            points.append((r, field.one(), field.zero()))
        if remaining > 0:
            escaped.append(EscapedOrbit("infinity", cofactor, ()))
    one, zero = field.one(), field.zero()
    if all(f.evaluate((one, zero, zero)).is_zero() for f in (A, B, C)):
        points.append((one, zero, zero))
    points = [normalize_point(pt) for pt in points]
    return SingularLocus(points, not escaped, escaped)


# ---------------------------------------------------------------------------
# building the dicritical configuration
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("origin", "chart", "c", "parent", "children", "dicritical",
                 "local")

    def __init__(self, origin=None, chart=None, c=None, parent=None):
        self.origin = origin
        self.chart = chart
        self.c = c
        self.parent = parent
        self.children = []
        self.dicritical = False
        self.local = None


def build_configuration(omega: ProjectiveOneForm,
                        depth_cap: int = 50) -> Configuration:
    """Blow up the non-simple singularities iteratively and return the
    configuration of dicritical points (B_F with its N_F partition)."""
    field = omega.field
    locus = singular_points(omega)
    for orbit in locus.escaped:
        _analyze_escaped_orbit(omega, orbit, field)
    roots = []
    for pt in locus.points:
        local = local_at_plane_point(omega, pt)
        if not local.is_singular():
            raise ResolutionError("computed singular point is not singular")
        if is_simple(local):
            continue
        node = _Node(origin=pt)
        node.local = local
        roots.append(node)
    for node in roots:
        _expand(node, depth_cap)
    roots.sort(key=lambda nd: tuple(c.sort_key() for c in nd.origin))
    ordered = []
    for node in roots:
        if _collect_dicritical(node):
            _emit(node, ordered)
    names = {}
    named = []
    for i, node in enumerate(ordered):
        name = "q%d" % (i + 1)
        names[id(node)] = name
        if node.origin is not None:
            rec = InfinitelyNearPoint(name, origin=node.origin,
                                      dicritical=node.dicritical)
        else:
            rec = InfinitelyNearPoint(name, parent=names[id(node.parent)],
                                      chart=node.chart,
                                      c=node.c if node.chart == 1 else None,
                                      dicritical=node.dicritical)
        named.append(rec)
    return Configuration(named, field)


def _expand(node: _Node, depth_left: int):
    if depth_left <= 0:
        raise DepthCapExceeded("resolution exceeded the depth cap")
    result = blow_up_local(node.local)
    node.dicritical = result.dicritical
    for c, child_local, simple in result.chart1:
        if simple:
            continue
        child = _Node(chart=1, c=c, parent=node)
        child.local = child_local
        node.children.append(child)
    if result.chart2_singular and not is_simple(result.chart2):
        child = _Node(chart=2, parent=node)
        child.local = result.chart2
        node.children.append(child)
    for child in node.children:
        _expand(child, depth_left - 1)


def _collect_dicritical(node: _Node) -> bool:
    """Prune to B_F: keep nodes with a dicritical divisor above or at them."""
    kept_children = []
    any_dicritical = node.dicritical
    for child in node.children:
        if _collect_dicritical(child):
            kept_children.append(child)
            any_dicritical = True
    node.children = kept_children
    return any_dicritical


def _emit(node: _Node, out):
    out.append(node)
    chart1 = sorted((ch for ch in node.children if ch.chart == 1),
                    key=lambda ch: ch.c.sort_key())
    chart2 = [ch for ch in node.children if ch.chart == 2]
    for ch in chart1 + chart2:
        _emit(ch, out)


def _analyze_escaped_orbit(omega, orbit: EscapedOrbit, field):
    if orbit.kind == "affine-y":
        x0, (p, q) = orbit.data
        _require_orbit_simple(p, q, orbit.modulus, field,
                              [x0], [field.zero(), field.one()])
    elif orbit.kind == "affine-x":
        p, q = orbit.data
        t_elt = [field.zero(), field.one()]
        y0 = _solve_y_in_algebra(p, q, orbit.modulus, field)
        _require_orbit_simple(p, q, orbit.modulus, field, t_elt, y0)
    elif orbit.kind == "infinity":
        # chart Y = 1: omega = A(x,1,z) dx + C(x,1,z) dz at (t, 0)
        A, _, C = omega.components()
        p = A.dehomogenize(1)
        q = C.dehomogenize(1)
        _require_orbit_simple(p, q, orbit.modulus, field,
                              [field.zero(), field.one()], [])
    else:
        raise ResolutionError("unknown escape kind %r" % orbit.kind)


def _solve_y_in_algebra(p, q, g, field):
    """The y-coordinate over K[t]/(g) via a gcd in the algebra; the orbit
    must have exactly one y per conjugate.  g is squarefree and monic, a
    cofactor of ``find_roots_in_field``."""
    py = _rows_mod(p, g, field)
    qy = _rows_mod(q, g, field)
    gy = _algebra_poly_gcd(py, qy, g)
    if len(gy) != 2:
        raise FieldExtensionNeeded(
            "conjugate singular points need a further extension "
            "(certificate %s)" % format_poly_in_t(g), certificate=g)
    lead_inv = _alg_inverse(gy[1], g)
    return _alg_scale(_alg_mul(gy[0], lead_inv, g), -1)


def _rows_mod(p, modulus, field):
    """Bivariate dict -> list over y-degree of K[t]/(modulus) elements,
    with no zero row on top."""
    return poly_trim(_alg_reduce(row, modulus)
                     for row in to_y_rows(p, field))


def _algebra_poly_gcd(p, q, modulus):
    """Monic gcd in (K[t]/(modulus))[y] by Euclid; raises on zero divisors.
    The rows of p and q are reduced mod modulus, so a zero row is []."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        lead_inv = _alg_inverse(q[-1], modulus)
        rem = list(p)
        while len(rem) >= len(q):
            shift = len(rem) - len(q)
            factor = _alg_mul(rem[-1], lead_inv, modulus)
            for i, qc in enumerate(q):
                sub = _alg_mul(factor, qc, modulus)
                rem[shift + i] = poly_sub(rem[shift + i], sub)
            rem = poly_trim(rem)
        p, q = q, rem
    lead_inv = _alg_inverse(p[-1], modulus)
    return [_alg_mul(r, lead_inv, modulus) for r in p]
