"""Linear systems of plane curves through a configuration: exact h^0 of
the direct image of O(D), explicit bases, and effective multiplicities of
concrete curves along the configuration.

The conditions are produced by the virtual-transform traversal: at each
point, monomials of local order below the virtual multiplicity are linear
conditions on the generic coefficients; passing to a child substitutes the
blow-up chart map, discards the constrained monomials and divides by the
chart exponent.  Negative virtual multiplicities impose no condition and
are clamped to zero.

The series engine is the one chart-transform code of the package, and
``resolve`` runs its blow-ups on it too.  Every local coordinate change is
built from a binomial shift (``_shift``: u -> u + c or v -> v + c) and the
chart step: a root series dehomogenises at the pivot and shifts both
coordinates, and chart 1 relabels the exponents and shifts w by c.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Tuple

from . import linalg
from .cluster import Configuration, DivisorClass, root_chart_images
from .numfield import FieldElement, UnluckyPrime
from .polyforms import HomogeneousForm, monomials

# A series maps a monomial (i, j) in the local coordinates (u, v) to its
# coefficients, one per column, stored sparsely as {column: coefficient}.
# A concrete form is the one-column case; the generic degree-d form has one
# column per monomial.
Series = Dict[Tuple[int, int], Dict[int, FieldElement]]


# ---------------------------------------------------------------------------
# the series engine: a binomial shift, root series and one chart step
# ---------------------------------------------------------------------------

def _prune(series: Series) -> Series:
    """Drop entries that cancelled to zero, and monomials left empty."""
    out = {}
    for key, vec in series.items():
        vec = {t: v for t, v in vec.items() if not v.is_zero()}
        if vec:
            out[key] = vec
    return out


def _shift(series: Series, axis: int, c, field) -> Series:
    """The series after u -> u + c (axis 0) or v -> v + c (axis 1): each
    power of the shifted coordinate expands by the binomial theorem."""
    if c.is_zero():
        return series
    powers = [field.one()]
    rows = {}
    out: Series = {}
    for key, vec in series.items():
        j = key[axis]
        row = rows.get(j)
        if row is None:
            while len(powers) <= j:
                powers.append(powers[-1] * c)
            row = rows[j] = [(k, powers[j - k] * comb(j, k))
                             for k in range(j + 1)]
        for k, scale in row:
            acc = out.setdefault((k, key[1]) if axis == 0 else (key[0], k), {})
            for t, v in vec.items():
                w = v * scale
                cur = acc.get(t)
                acc[t] = w if cur is None else cur + w
    return _prune(out)


def root_series(chart, columns, field) -> Series:
    """Local series at a plane point, in its canonical chart coordinates, of
    the forms of one degree whose coefficient dicts {(i, j, k): c} are
    ``columns``.  ``chart`` is the point's ``root_chart_images`` (pivot, a,
    b): the forms are dehomogenised at the pivot, and the other two
    variables are shifted by a and b."""
    pivot, a, b = chart
    x, y = (i for i in range(3) if i != pivot)
    out: Series = {}
    for t, coeffs in enumerate(columns):
        for expo, coeff in coeffs.items():
            out.setdefault((expo[x], expo[y]), {})[t] = coeff
    return _shift(_shift(out, 0, a, field), 1, b, field)


def chart_step(series: Series, chart: int, c, e: int, field) -> Series:
    """The series at a child point: drop the monomials of total degree below
    the parent's multiplicity e, substitute the chart map (chart 1:
    v = u*(w + c); chart 2: u = s*v with coordinates (v, s)) and divide by
    the exceptional's u^e.  Both relabellings of the exponents are
    injective; chart 1 then shifts w by c."""
    out = {(i + j - e, j if chart == 1 else i): vec
           for (i, j), vec in series.items() if i + j >= e}
    return _shift(out, 1, c, field) if chart == 1 else out


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
            series = root_series(root_chart_images(point.origin, field),
                                 [form.coeffs], field)
        else:
            parent = config.parent_idx[idx]
            series = chart_step(local[parent], point.chart, point.c,
                                mults[parent], field)
        mults[idx] = min((i + j for i, j in series), default=0)
        local[idx] = series
    return mults


def strict_class(form: HomogeneousForm, config: Configuration) -> DivisorClass:
    return config.divisor(form.degree, effective_multiplicities(form, config))


# ---------------------------------------------------------------------------
# the linear system of a divisor class
# ---------------------------------------------------------------------------

class _ChartData:
    """A configuration's chart data over one field, K or a residue field of
    K, and the series of the generic form at each root point, memoised per
    (root index, degree)."""

    __slots__ = ("field", "charts", "constants", "series")

    def __init__(self, field, charts, constants):
        self.field = field
        self.charts = charts            # root index -> root_chart_images
        self.constants = constants      # point index -> chart-1 constant c
        self.series = {}

    def root_series(self, idx: int, degree: int) -> Series:
        key = (idx, degree)
        series = self.series.get(key)
        if series is None:
            if len(self.series) > 64:
                self.series.clear()
            one = self.field.one()
            series = self.series[key] = root_series(
                self.charts[idx], [{m: one} for m in monomials(degree)],
                self.field)
        return series


def _exact_data(config: Configuration) -> _ChartData:
    memo = config.linsys_memo
    if memo.exact is None:
        field = config.field
        memo.exact = _ChartData(
            field, {idx: root_chart_images(point.origin, field)
                    for idx, point in enumerate(config.points)
                    if point.is_root()},
            [point.c for point in config.points])
    return memo.exact


def _residue_data(config: Configuration):
    """The chart data mapped once into the residue field of K, or None when
    a datum has the prime in a denominator.  The data are normalised in K
    first: a coordinate can be nonzero in K and zero mod p."""
    memo = config.linsys_memo
    if memo.residue is None:
        exact = _exact_data(config)
        field = config.field.residue_field()
        try:
            memo.residue = _ChartData(
                field, {idx: (pivot, field.image(a), field.image(b))
                        for idx, (pivot, a, b) in exact.charts.items()},
                [None if c is None else field.image(c)
                 for c in exact.constants])
        except UnluckyPrime:
            memo.residue = False
    return memo.residue or None


def _condition_rows(D: DivisorClass, config: Configuration,
                    data: _ChartData):
    if D.d < 0:
        raise ValueError("negative degree %d" % D.d)
    field = data.field
    zero = field.zero()
    n = len(monomials(D.d))
    clamped = [max(v, 0) for v in D.e]
    rows = []
    local = {}
    for idx, point in enumerate(config.points):
        if point.is_root():
            series = data.root_series(idx, D.d)
        else:
            parent = config.parent_idx[idx]
            series = chart_step(local[parent], point.chart,
                                data.constants[idx], clamped[parent], field)
        local[idx] = series
        e_q = clamped[idx]
        for (i, j), vec in series.items():
            if i + j < e_q:
                row = [zero] * n
                for t, v in vec.items():
                    row[t] = v
                rows.append(row)
    return rows


def condition_rows(D: DivisorClass, config: Configuration):
    """Linear conditions on the generic degree-d coefficients cut out by the
    virtual transform of D; negative multiplicities are clamped to zero."""
    return _condition_rows(D, config, _exact_data(config))


def h0(D: DivisorClass, config: Configuration) -> int:
    """dim H^0 of the direct image on the plane of O(D).

    When the conditions can number as many as the n degree-d monomials,
    their rank is first taken in the residue field of K: it is at most the
    rank in K (see ``numfield.ResidueField``), so a rank of n there proves
    h0 = 0.  Otherwise the rows are eliminated in K, and the elimination is
    kept for ``basis``.
    """
    n = len(monomials(D.d))
    if sum(e * (e + 1) // 2 for e in D.e if e > 0) >= n:
        residue = _residue_data(config)
        if (residue is not None and
                linalg.rank(_condition_rows(D, config, residue)) == n):
            return 0
    reduced, pivots = linalg.rref(condition_rows(D, config))
    config.linsys_memo.elimination = (D, reduced, pivots)
    return n - len(pivots)


def basis(D: DivisorClass, config: Configuration) -> List[HomogeneousForm]:
    """A basis of the linear system, as degree-d forms."""
    order = monomials(D.d)
    last = config.linsys_memo.elimination
    if last is not None and last[0] == D:
        _, reduced, pivots = last
    else:
        reduced, pivots = linalg.rref(condition_rows(D, config))
    field = config.field
    out = []
    for vec in linalg.kernel(reduced, pivots, len(order), field.zero()):
        coeffs = {order[t]: v for t, v in enumerate(vec) if not v.is_zero()}
        out.append(HomogeneousForm(field, D.d, coeffs))
    return out
