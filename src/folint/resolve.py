"""Resolution of plane foliation singularities over the base field: local
blow-ups, simplicity and dicriticalness tests, and assembly of the dicritical
configuration.

Everything is restricted to points expressible over K.  When a singular point
escapes the field, its whole conjugate orbit is one point over the escape
algebra K[t]/(cofactor): its coordinates are ``_Quotient`` elements, which
the ``numfield`` polynomial kernel takes as coefficients, so the orbit is
evaluated, and its y-coordinate found by a gcd, like a point over K.  Orbits
certified simple are ignored (they are never blown up); anything else aborts
with the cofactor as a machine-readable certificate.

Local foliations live in the integral model of ``linsys``; only chart-1
constants, c = (mu/lambda) c_stored, and certificates map back to true ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cluster import (
    Configuration, InfinitelyNearPoint, normalize_point,
)
from .bivariate import bivariate_resultant, common_zeros, to_y_rows
from .numfield import (
    FieldElement, FieldExtensionNeeded, NumberField, denominator, exact_ring,
    find_roots_in_field, lift, poly_degree, poly_divmod, poly_gcd,
    poly_inverse_mod, poly_mul, poly_sub, poly_trim, root_gcd,
)
from .polyforms import ProjectiveOneForm, _partial
from .linsys import (
    Series, _prune, _shift, chart_step, child_scales, integral_chart,
    root_series,
)
from .textio import format_poly_in_t
from .zpoly import rational_is_square


class ResolutionError(RuntimeError):
    pass


class DepthCapExceeded(ResolutionError):
    pass


# ---------------------------------------------------------------------------
# scalar bivariate helpers: dicts (i, j) -> FieldElement, variables (u, v)
# ---------------------------------------------------------------------------

def _column(series: Series, t: int):
    """Column t of a series, as a dict (i, j) -> coefficient."""
    return {key: vec[t] for key, vec in series.items() if t in vec}


def _coeffs_at_u0(poly):
    """The restriction to the exceptional u = 0, as a list over the
    integral model's ring: ints over Q, which the gcd takes as they are."""
    row = {j: c for (i, j), c in poly.items() if not i}
    zero = next(iter(row.values()), 0) * 0
    return poly_trim(row.get(j, zero) for j in range(max(row, default=-1) + 1))


# ---------------------------------------------------------------------------
# local foliations
# ---------------------------------------------------------------------------

class LocalFoliation:
    """omega = a du + b dv around the origin: one two-column ``linsys``
    series {(i, j): {0: a_ij, 1: b_ij}} in coordinates scaled by the
    positive ``scales``."""

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

    def linear_data(self):
        """(trace, determinant) of the linear part of the dual vector field:
        rationals over Q, whether the series holds ints or elements of Q,
        and elements of K otherwise."""
        du = self.series.get((1, 0), {})
        dv = self.series.get((0, 1), {})
        a_u, b_u = du.get(0, 0), du.get(1, 0)
        a_v, b_v = dv.get(0, 0), dv.get(1, 0)
        pair = (a_v - b_u, a_u * b_v - a_v * b_u)
        if self.field.is_rational:
            return tuple(x.coeffs[0] if type(x) is FieldElement else x
                         for x in pair)
        return tuple(map(self.field.element, pair))


def local_at_plane_point(omega: ProjectiveOneForm, origin) -> LocalFoliation:
    """Pull the projective 1-form's ``model`` back to the integral chart at
    the point.  The pivot variable is constant there, so a and b are the
    series of the other two components."""
    field, ring = omega.field, exact_ring(omega.field)
    chart = integral_chart(origin, field)
    columns = [comp for i, comp in enumerate(omega.model) if i != chart[0]]
    return LocalFoliation(field, root_series(chart, columns, ring),
                          (Fraction(1, chart[1]),) * 2)


def _ratio_is_positive_rational(c: Fraction) -> bool:
    """Does r^2 - c r + 1 = 0, c rational, have a positive rational root?
    Real rational roots need c^2 - 4 a rational square, and as their
    product is 1 they are positive iff their sum c is, that is c >= 2."""
    return c >= 2 and rational_is_square(c * c - 4) is not None


def is_simple(omega: LocalFoliation) -> bool:
    """Seidenberg-final singularities: eigenvalue ratio not a positive
    rational, including saddle-nodes; nilpotent linear part is not simple.
    The ratio r is a root of r^2 - c r + 1 for c = (tr^2 - 2 det) / det,
    which over Q is a Fraction of the two rationals."""
    if not omega.is_singular():
        raise ResolutionError("simplicity test at a non-singular point")
    trace, det = omega.linear_data()
    if not det:
        return bool(trace)
    if omega.field.is_rational:
        return not _ratio_is_positive_rational(
            Fraction(trace * trace - 2 * det) / det)
    c = (trace * trace - 2 * det) / det
    return not (c.is_rational() and _ratio_is_positive_rational(
        c.as_fraction()))


class BlowUpResult(NamedTuple):
    dicritical: bool
    chart1: list            # (c, LocalFoliation at the point), c increasing
    chart2: LocalFoliation


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
    exceptional divisor and decides dicriticalness.  The chart-1 points
    come in increasing c: ``find_roots_in_field`` sorts the stored roots,
    and rho = mu/lambda > 0 keeps their order."""
    if not omega.is_singular():
        raise ResolutionError("blow-up at a non-singular point")
    field = omega.field
    ring, (lam, mu) = exact_ring(field), omega.scales
    rho = Fraction(mu, lam) if lam != mu else 1     # c = rho c_stored
    order = omega.order()
    form1, dicritical = _chart_form(omega.series, 1, order, ring)

    # singular points on u = 0 in chart 1
    a1, b1 = _column(form1, 0), _column(form1, 1)
    a0 = _coeffs_at_u0(a1)
    b0 = _coeffs_at_u0(b1)
    if not a0 and not b0:
        raise ResolutionError("exceptional divisor inside the singular locus")
    g = root_gcd(a0, b0, field)
    children = []
    if poly_degree(g) >= 1:
        roots, remaining, cofactor = find_roots_in_field(g, field)
        if remaining > 0:
            # the orbit (0, t) on the exceptional u = 0
            w = _generator(cofactor, field)
            _require_orbit_simple(a1, b1, w * 0, w, field, rho)
        for c in roots:
            # W = m (w - c): dw = dW/m puts one more m on du
            m = denominator(c)
            form = form1 if m == 1 else {
                key: {t: v * m if t == 0 else v for t, v in vec.items()}
                for key, vec in form1.items()}
            child = LocalFoliation(
                field, _shift(form, 1, lift(c, m, ring), ring, m=m),
                child_scales(omega.scales, 1, m))
            children.append((c * rho, child))

    # chart 2: (u, v) = (v'u', u'), which sees the same exceptional
    form2, dicritical2 = _chart_form(omega.series, 2, order, ring)
    if dicritical2 != dicritical:
        raise ResolutionError("the two charts disagree on dicriticalness")
    chart2 = LocalFoliation(field, form2, child_scales(omega.scales, 2))
    return BlowUpResult(dicritical, children, chart2)


# ---------------------------------------------------------------------------
# conjugate orbits outside K: exact simplicity certification
# ---------------------------------------------------------------------------

class _Quotient:
    """An element of the escape algebra K[t]/(g), for a squarefree monic g
    of degree >= 1: its residue p, a trimmed K[t] list of degree < deg g.
    The ``poly_*`` kernel takes these as coefficients, so a polynomial
    evaluated at t runs over a whole conjugate orbit at once."""

    __slots__ = ("p", "g")

    def __init__(self, p, g):
        self.p = poly_divmod(p, g)[1] if len(p) >= len(g) else poly_trim(p)
        self.g = g

    def __bool__(self):
        return bool(self.p)

    def __add__(self, other):
        return self - (-other)

    def __sub__(self, other):
        q = other.p if type(other) is _Quotient else poly_trim([other])
        return _Quotient(poly_sub(self.p, q), self.g) if q else self

    def __neg__(self):
        return _Quotient([-c for c in self.p], self.g)

    def __mul__(self, other):
        if type(other) is _Quotient:
            if len(other.p) != 1:
                return _Quotient(poly_mul(self.p, other.p), self.g)
            other = other.p[0]      # a constant: no product to reduce
        return _Quotient([c * other for c in self.p], self.g)

    def __rtruediv__(self, one):
        """1 / self; a zero divisor splits g, and the orbit with it.  The
        certificate is gcd(p, g), the factor of g on which self vanishes."""
        inv = poly_inverse_mod(self.p, self.g)
        if inv is None:
            factor = poly_gcd(self.p, self.g)
            raise FieldExtensionNeeded(
                "zero divisor in the escape algebra (certificate %s)" %
                format_poly_in_t(factor), certificate=factor)
        return _Quotient(inv, self.g) * one


def _generator(g, field):
    """t in K[t]/(g): the coordinate that runs over the orbit's conjugates."""
    return _Quotient([field.zero(), field.one()], g)


def _at_orbit(poly, u0, v0):
    """A bivariate dict {(i, j): c} over K at the orbit point, from its
    nonzero terms."""
    powers = ([None, u0], [None, v0])   # powers[axis][e] = u0^e or v0^e
    acc = _Quotient([], u0.g)
    for expo, c in poly.items():
        for e, row in zip(expo, powers):
            while len(row) <= e:
                row.append(row[-1] * row[1])
            if e:
                c = row[e] * c
        acc = acc + c
    return acc


def _require_orbit_simple(a, b, u0, v0, field, scale=1):
    """Certify that all conjugate singular points (u0, v0) are simple;
    raise FieldExtensionNeeded otherwise.

    a, b are the bivariate coefficients of the local 1-form a du + b dv
    and u0, v0 the orbit's coordinates in K[t]/(g), g squarefree and
    monic, a cofactor of ``find_roots_in_field``.  The certificate has the
    roots of g times ``scale``, their true coordinates.
    """
    g = u0.g
    a_u, a_v, b_u, b_v = (_at_orbit(_partial(poly, k), u0, v0)
                          for poly in (a, b) for k in (0, 1))
    trace = a_v - b_u
    det = a_u * b_v - a_v * b_u

    # g is monic, so g0 = g when det = 0, and g00 = g0 when trace = 0
    scaled = [c * scale ** (len(g) - 1 - k) for k, c in enumerate(g)]
    certificate = format_poly_in_t(scaled)
    g0 = poly_gcd(g, det.p)
    if poly_degree(poly_gcd(g0, trace.p)) >= 1:
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
    trace, det = _Quotient(trace.p, g1), _Quotient(det.p, g1)
    e_poly = (trace * trace - det * 2).p
    res_in_c = bivariate_resultant(
        {(0, j): c for j, c in enumerate(g1)},
        {**{(0, j): c for j, c in enumerate(e_poly)},
         **{(1, j): -c for j, c in enumerate(det.p)}}, field)
    roots, _, _ = find_roots_in_field(res_in_c, field) \
        if poly_degree(res_in_c) >= 1 else ([], 0, [])
    for root in roots:
        if root.is_rational() and _ratio_is_positive_rational(
                root.as_fraction()):
            raise FieldExtensionNeeded(
                "a conjugate singular point outside the base field is not "
                "simple (certificate %s)" % certificate, certificate=scaled)


# ---------------------------------------------------------------------------
# global singular locus
# ---------------------------------------------------------------------------

class EscapedOrbit(NamedTuple):
    """A conjugate orbit of singular points outside K, in a chart where
    omega is a du + b dv: the orbit is (u0, v0), in K[t]/(g)."""
    a: dict
    b: dict
    u0: _Quotient
    v0: _Quotient


class SingularLocus(NamedTuple):
    points: list            # normalized projective points over K
    escaped: list           # EscapedOrbit entries


def singular_points(omega: ProjectiveOneForm) -> SingularLocus:
    """Common zeros of A, B, C over K, chart by chart, and the orbits of
    conjugate common zeros outside K.

    An orbit of conjugate x-coordinates needs one y per conjugate, the
    root of a linear gcd over K[t]/(g); anything else raises
    FieldExtensionNeeded."""
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
    for x0, cofactor in affine_escaped:
        t = _generator(cofactor, field)
        if x0 is not None:
            escaped.append(EscapedOrbit(p, q, t * 0 + x0, t))
            continue
        # the line common_zeros runs at x-coordinates in K; a row's value
        # at x = t is its residue
        gy = poly_gcd(*([_Quotient(row, cofactor) for row in
                         to_y_rows(f)] for f in (p, q)))
        if len(gy) != 2:
            raise FieldExtensionNeeded(
                "conjugate singular points need a further extension "
                "(certificate %s)" % format_poly_in_t(cofactor),
                certificate=cofactor)
        escaped.append(EscapedOrbit(p, q, t, -gy[0]))

    # the line Z = 0: points (x:1:0) and (1:0:0)
    univs = []
    for f in (A, B, C):
        # f(x, 1, 0), row z^0 of f(x, 1, z)
        coeffs = to_y_rows(f.dehomogenize(1))[0]
        if coeffs:
            univs.append(coeffs)
    g = univs[0]
    for other in univs[1:]:
        g = root_gcd(g, other, field)
        if poly_degree(g) < 1:
            break
    if poly_degree(g) >= 1:
        roots, remaining, cofactor = find_roots_in_field(g, field)
        for r in roots:
            points.append((r, field.one(), field.zero()))
        if remaining > 0:
            # chart Y = 1: omega = A(x,1,z) dx + C(x,1,z) dz at (t, 0)
            t = _generator(cofactor, field)
            escaped.append(EscapedOrbit(A.dehomogenize(1), C.dehomogenize(1),
                                        t, t * 0))
    # f(1, 0, 0) is the coefficient of X^deg f
    if all((f.degree, 0, 0) not in f.coeffs for f in (A, B, C)):
        points.append((field.one(), field.zero(), field.zero()))
    points = [normalize_point(pt) for pt in points]
    return SingularLocus(points, escaped)


# ---------------------------------------------------------------------------
# building the dicritical configuration
# ---------------------------------------------------------------------------

# the default cap on the blow-ups along one chain from a plane point
DEPTH_CAP = 50


def build_configuration(omega: ProjectiveOneForm,
                        depth_cap: int = DEPTH_CAP) -> Configuration:
    """Blow up the non-simple singularities and return B_F, the points a
    dicritical divisor lies at or above, with its N_F partition.

    One depth-first walk visits the non-simple plane points in the order
    of their coordinates' ``sort_key`` and, below each blown-up point, its
    chart-1 children in the order of c, then its chart-2 child.  A point
    takes the next name q1, q2, ... when it is reached; it is kept iff it
    is dicritical or keeps a child, and otherwise the list goes back to
    where it stood, so a pruned subtree takes no names.  Every non-simple
    point is blown up either way.
    """
    field = omega.field
    locus = singular_points(omega)
    for orbit in locus.escaped:
        _require_orbit_simple(*orbit, field)
    out = []
    for pt in sorted(locus.points, key=lambda pt: [c.sort_key() for c in pt]):
        local = local_at_plane_point(omega, pt)
        if not local.is_singular():
            raise ResolutionError("computed singular point is not singular")
        if not is_simple(local):
            _walk(local, {"origin": pt}, out, depth_cap)
    return Configuration(out, field)


def _walk(local: LocalFoliation, place, out, depth_left: int):
    """Blow up the point at ``place`` and append it, then its kept
    subtree, to ``out`` if a dicritical divisor lies at or above it."""
    if depth_left <= 0:
        raise DepthCapExceeded("resolution exceeded the depth cap")
    start = len(out)
    name = "q%d" % (start + 1)
    out.append(None)                    # the name is reserved
    result = blow_up_local(local)
    children = [({"chart": 1, "c": c}, child) for c, child in result.chart1]
    for at, child in children + [({"chart": 2}, result.chart2)]:
        if child.is_singular() and not is_simple(child):
            _walk(child, {"parent": name, **at}, out, depth_left - 1)
    if result.dicritical or len(out) > start + 1:
        out[start] = InfinitelyNearPoint(name, dicritical=result.dicritical,
                                         **place)
    else:
        del out[start:]
