"""Linear systems of plane curves through a configuration: exact h^0 of
the direct image of O(D), explicit bases, and effective multiplicities of
concrete curves along the configuration.

The conditions are produced by the virtual-transform traversal: at each
point, monomials of local order below the virtual multiplicity are linear
conditions on the generic coefficients; passing to a child substitutes the
blow-up chart map, discards the constrained monomials and divides by the
chart exponent.  Negative virtual multiplicities impose no condition and
are clamped to zero.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .cluster import Configuration, DivisorClass, root_chart_images
from .numfield import FieldElement
from .polyforms import HomogeneousForm, monomials

# A series maps a monomial (i, j) in the local coordinates (u, v) to its
# coefficients, one per column, stored sparsely as {column: coefficient}.
# A concrete form is the one-column case; the generic degree-d form has one
# column per monomial.
Series = Dict[Tuple[int, int], Dict[int, FieldElement]]


# ---------------------------------------------------------------------------
# the series engine: root series and one chart step
# ---------------------------------------------------------------------------

def _bi_mul(a, b, field):
    out = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            key = (i + k, j + l)
            cur = out.get(key)
            v = ca * cb
            if cur is None:
                out[key] = v
            else:
                out[key] = cur + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _bi_pow(base, e, field, cache):
    if e in cache:
        return cache[e]
    if e == 0:
        result = {(0, 0): field.one()}
    else:
        result = _bi_mul(_bi_pow(base, e - 1, field, cache), base, field)
    cache[e] = result
    return result


def _prune(series: Series) -> Series:
    """Drop entries that cancelled to zero, and monomials left empty."""
    out = {}
    for key, vec in series.items():
        vec = {t: v for t, v in vec.items() if not v.is_zero()}
        if vec:
            out[key] = vec
    return out


def root_series(origin, columns, field) -> Series:
    """Local series at a plane point, in its canonical chart coordinates, of
    the forms whose coefficient dicts {(i, j, k): c} are ``columns``."""
    polys = []
    for cu, cv, c1 in root_chart_images(origin, field):
        polys.append({key: c for key, c in (((1, 0), cu), ((0, 1), cv),
                                            ((0, 0), c1)) if not c.is_zero()})
    caches = [{}, {}, {}]
    out: Series = {}
    for t, coeffs in enumerate(columns):
        for (i, j, k), coeff in coeffs.items():
            term = _bi_mul(_bi_pow(polys[0], i, field, caches[0]),
                           _bi_pow(polys[1], j, field, caches[1]), field)
            term = _bi_mul(term, _bi_pow(polys[2], k, field, caches[2]), field)
            for key, c in term.items():
                vec = out.setdefault(key, {})
                v = coeff * c
                cur = vec.get(t)
                vec[t] = v if cur is None else cur + v
    return _prune(out)


def chart_step(series: Series, point, e: int, field) -> Series:
    """The series at a child point: drop the monomials of total degree below
    the parent's multiplicity e, substitute the chart map (chart 1:
    v = u*(w + c); chart 2: u = s*v with coordinates (v, s)) and divide by
    the exceptional's u^e."""
    out: Series = {}
    if point.chart == 2:
        # (i, j) -> (i + j - e, i) is injective: nothing can cancel
        for (i, j), vec in series.items():
            if i + j >= e:
                out[(i + j - e, i)] = vec
        return out
    powers = [field.one()]
    scales = {}
    for (i, j), vec in series.items():
        if i + j < e:
            continue
        row = scales.get(j)
        if row is None:
            while len(powers) <= j:
                powers.append(powers[-1] * point.c)
            scaled = ((k, powers[j - k] * comb(j, k)) for k in range(j + 1))
            row = scales[j] = [(k, f) for k, f in scaled if not f.is_zero()]
        for k, scale in row:
            acc = out.setdefault((i + j - e, k), {})
            for t, v in vec.items():
                w = v * scale
                cur = acc.get(t)
                acc[t] = w if cur is None else cur + w
    return _prune(out)


# ---------------------------------------------------------------------------
# effective multiplicities and strict transforms
# ---------------------------------------------------------------------------

def effective_multiplicities(form: HomogeneousForm,
                             config: Configuration) -> List[int]:
    """Multiplicity at every configuration point of the successive strict
    transforms of the curve."""
    if form.is_zero():
        raise ValueError("multiplicities of the zero form")
    field = config.field
    if form.field != field:
        raise ValueError("form and configuration over different fields")
    mults = [0] * config.size
    local = {}
    for idx, point in enumerate(config.points):
        if point.is_root():
            series = root_series(point.origin, [form.coeffs], field)
        else:
            parent = config.parent_idx[idx]
            series = chart_step(local[parent], point, mults[parent], field)
        mults[idx] = min((i + j for i, j in series), default=0)
        local[idx] = series
    return mults


def strict_class(form: HomogeneousForm, config: Configuration) -> DivisorClass:
    return config.divisor(form.degree, effective_multiplicities(form, config))


def total_valuations(mults, config: Configuration):
    """Valuation of the total transform along each exceptional divisor."""
    vals = [0] * config.size
    for i in range(config.size):
        vals[i] = mults[i] + sum(vals[j] for j in config.prox_to[i])
    return vals


# ---------------------------------------------------------------------------
# the linear system of a divisor class
# ---------------------------------------------------------------------------

def _root_series_cached(config, root_idx, degree):
    # cached on the configuration itself so the entries share its lifetime
    cache = getattr(config, "_root_series_cache", None)
    if cache is None:
        cache = {}
        config._root_series_cache = cache
    key = (root_idx, degree)
    if key not in cache:
        if len(cache) > 64:
            cache.clear()
        one = config.field.one()
        cache[key] = root_series(config.points[root_idx].origin,
                                 [{m: one} for m in monomials(degree)],
                                 config.field)
    return cache[key]


def condition_rows(D: DivisorClass, config: Configuration):
    """Linear conditions on the generic degree-d coefficients cut out by the
    virtual transform of D; negative multiplicities are clamped to zero."""
    if D.d < 0:
        raise ValueError("negative degree %d" % D.d)
    field = config.field
    zero = field.zero()
    n = len(monomials(D.d))
    clamped = [max(v, 0) for v in D.e]
    rows = []
    local = {}
    for idx, point in enumerate(config.points):
        if point.is_root():
            series = _root_series_cached(config, idx, D.d)
        else:
            parent = config.parent_idx[idx]
            series = chart_step(local[parent], point, clamped[parent], field)
        local[idx] = series
        e_q = clamped[idx]
        for (i, j), vec in series.items():
            if i + j < e_q:
                row = [zero] * n
                for t, v in vec.items():
                    row[t] = v
                rows.append(row)
    return rows


def h0(D: DivisorClass, config: Configuration) -> int:
    """dim H^0 of the direct image on the plane of O(D)."""
    n = len(monomials(D.d))
    rows = condition_rows(D, config)
    return n - linalg.rank(rows)


def basis(D: DivisorClass, config: Configuration) -> List[HomogeneousForm]:
    """A basis of the linear system, as degree-d forms."""
    order = monomials(D.d)
    rows = condition_rows(D, config)
    field = config.field
    if rows:
        kernel = linalg.nullspace(rows)
    else:
        kernel = [[field.one() if i == t else field.zero()
                   for i in range(len(order))] for t in range(len(order))]
    out = []
    for vec in kernel:
        coeffs = {order[t]: v for t, v in enumerate(vec) if not v.is_zero()}
        out.append(HomogeneousForm(field, D.d, coeffs))
    return out


def same_span(forms_a: Sequence[HomogeneousForm],
              forms_b: Sequence[HomogeneousForm]) -> bool:
    """Spans are compared by ranks of stacked coefficient matrices."""
    if not forms_a and not forms_b:
        return True
    degree = (forms_a[0] if forms_a else forms_b[0]).degree
    field = (forms_a[0] if forms_a else forms_b[0]).field
    order = monomials(degree)
    rows_a = [f.coefficient_vector(order) for f in forms_a]
    rows_b = [f.coefficient_vector(order) for f in forms_b]
    ra = linalg.rank(rows_a)
    rb = linalg.rank(rows_b)
    rab = linalg.rank(rows_a + rows_b)
    return ra == rb == rab


