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
coordinates, and chart 1 relabels the exponents and shifts w by c.  The
engine runs over K, on plain ints, or on ints mod a prime P.

Exact traversals run fraction-free, as in Bareiss, on an integral model: a
series is stored in (U, V) = (u/lambda, v/mu), times a constant.  A plane
point (A/q, B/q) pulls a form back as F(A + U, B + V, q), so lambda = mu =
1/q; a chart-1 constant c becomes n/m = (lambda/mu) c, and the step puts
V = U (W + n)/m, times m^J (``child_scales``).  Such rescalings keep every
support, order, dicriticalness, eigenvalue ratio and kernel of the
conditions, and over Q every entry is an int.

``h0`` and ``basis`` eliminate the conditions mod word-size primes.  The
images are the integral model's plan reduced mod P through t -> r, for a
root r of the minimal polynomial mod P (``numfield.residue``): every datum
has int coordinates, so a prime that divides a scale q or m only makes
that scale zero mod P, and the engine computes each point's series mod P
as a multiple, possibly zero, of the image of its exact series (see
``_shift``).  They return only what one of three certificates proves:

- a rank of n, the number of degree-d monomials, mod P proves h0 = 0, since
  the rank mod P is at most the rank in K;
- otherwise the kernel mod P, lifted to K, must pass an exact check in K
  (``_lifted_kernel``): k = n - rank_P kernel vectors in echelon form prove
  rank_K = rank_P, and their support makes them the reduced echelon kernel
  of the exact elimination, vector for vector;
- and, tried before both, an empty kernel at a class of the same degree
  whose clamped multiplicities are at most D's at every point proves
  h0(D) = 0 (``_kernel``).

When none holds the conditions are eliminated exactly in K.

The elimination at the first split prime's first root comes first, and a
caller's ``screen`` may drop the class there (Algorithm 1 drops most
non-invariant pencils so); otherwise ``_lifted_kernel`` starts from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from operator import le
from typing import Dict, List, Optional, Tuple

from . import linalg, modp
from .cluster import Configuration, DivisorClass, root_chart_images
from .numfield import (
    FieldElement, _canon, denominator, exact_ring, integral, lift, residue,
)
from .polyforms import HomogeneousForm, monomials

# A series maps a monomial (i, j) in the local coordinates (u, v) to its
# coefficients, one per column, stored sparsely as {column: coefficient}.
# A concrete form is the one-column case; the generic degree-d form has one
# column per monomial.  The coefficients are FieldElements, or ints.
Series = Dict[Tuple[int, int], Dict[int, FieldElement]]


# ---------------------------------------------------------------------------
# the series engine: a binomial shift, root series and one chart step
# ---------------------------------------------------------------------------

def _prune(series: Series, P: int = 0) -> Series:
    """Drop entries that cancelled to zero, and monomials left empty; with
    a prime P, reduce the entries mod P first."""
    out = {}
    for key, vec in series.items():
        vec = {t: r for t, v in vec.items() if (r := v % P if P else v)}
        if vec:
            out[key] = vec
    return out


def _shift(series: Series, axis: int, c, ring, below=None, m=1) -> Series:
    """The series after u -> (u + c)/m (axis 0) or v -> (v + c)/m (axis 1),
    times m^J, J the top power of that coordinate, by the binomial theorem,
    over ``ring``: K, or an int P for ints mod a prime P or, for P = 0,
    plain ints.  With ``below``, only the monomials that can still reach an
    order below it are formed: on axis 0 those of u-exponent below it (a
    later v-shift lowers v-exponents), on axis 1 those of order below it.

    Mod P, J is read off the series mod P, which can lack the exact top
    row, so the result is m^(J_P - J) times the image of the exact one
    while m is a unit mod P, and the zero multiple when P divides m.  So a
    row of conditions mod P is a multiple of the image of its exact row,
    and the rank mod P stays at most the rank in K."""
    if not m:
        return {}
    if not c and m == 1:
        return series
    P = ring if type(ring) is int else 0
    powers = [1 if type(ring) is int else ring.one()]
    top = max((key[axis] for key in series), default=0) if m != 1 else 0
    rows = {}
    out: Series = {}
    for key, vec in series.items():
        j = key[axis]
        row = rows.get(j)
        if row is None:
            while len(powers) <= j:
                powers.append(powers[-1] * c % P if P else powers[-1] * c)
            factor = m ** (top - j) if m != 1 else 1
            row = rows[j] = [(k, powers[j - k] * (comb(j, k) * factor))
                             for k in range(j + 1)]
        if below is not None:
            row = row[:below - (key[0] if axis else 0)]
        for k, scale in row:
            acc = out.setdefault((k, key[1]) if axis == 0 else (key[0], k), {})
            for t, v in vec.items():
                w = v * scale
                cur = acc.get(t)
                acc[t] = w if cur is None else cur + w
    return _prune(out, P)


def integral_chart(origin, field):
    """(pivot, q, q a, q b) for a plane point's canonical chart (pivot, a,
    b) (``cluster.root_chart_images``), q = ``denominator(a, b)``."""
    pivot, a, b = root_chart_images(origin)
    q = denominator(a, b)
    return (pivot, q, *(lift(x, q, exact_ring(field)) for x in (a, b)))


def child_scales(scales, chart: int, m: int = 1):
    """The scalings (lambda, mu) of a child, from its parent's and, in
    chart 1, the denominator m that its step cleared."""
    lam, mu = scales
    if lam == mu == m == 1:
        return scales
    return (lam, Fraction(mu, m * lam)) if chart == 1 else (
        mu, Fraction(lam, mu))


def root_series(chart, columns, ring, below=None) -> Series:
    """Local series at a plane point of the forms of one degree whose
    coefficient dicts {(i, j, k): c} are ``columns``.  ``chart`` is (pivot,
    q, a, b): the forms are evaluated at q on the pivot and at u + a and
    v + b on the other two variables, in order (only as far as ``below``
    asks, see ``_shift``)."""
    pivot, q, a, b = chart
    x, y = (i for i in range(3) if i != pivot)
    out: Series = {}
    for t, coeffs in enumerate(columns):
        for expo, coeff in coeffs.items():
            out.setdefault((expo[x], expo[y]), {})[t] = (
                coeff * q ** expo[pivot] if q != 1 else coeff)
    return _shift(_shift(out, 0, a, ring, below), 1, b, ring, below)


def chart_step(series: Series, chart: int, e: int, ring, c=0, m=1) -> Series:
    """The series at a child point: drop the monomials of total degree below
    the parent's multiplicity e, substitute the chart map (chart 1:
    v = u*(w + c)/m, times m^J as in ``_shift``; chart 2: u = s*v with
    coordinates (v, s)) and divide by the exceptional's u^e.  Both
    relabellings of the exponents are injective; chart 1 then shifts w."""
    out = {(i + j - e, j if chart == 1 else i): vec
           for (i, j), vec in series.items() if i + j >= e}
    return _shift(out, 1, c, ring, m=m) if chart == 1 else out


# ---------------------------------------------------------------------------
# effective multiplicities and strict transforms
# ---------------------------------------------------------------------------

def effective_multiplicities(form: HomogeneousForm,
                             config: Configuration) -> List[int]:
    """Multiplicity at every configuration point of the successive strict
    transforms of the curve, read off its integral model."""
    if form.is_zero():
        raise ValueError("multiplicities of the zero form")
    if form.field != config.field:
        raise ValueError("form and configuration over different fields")
    data = _exact_data(config)
    ring, columns = data.field, integral([form.coeffs], data.field)
    mults = [0] * config.size
    local = {}
    for idx, point in enumerate(config.points):
        if point.is_root():
            series = root_series(data.charts[idx], columns, ring)
        else:
            parent = config.parent_idx[idx]
            series = chart_step(local[parent], point.chart, mults[parent],
                                ring, *data.constants[idx])
        mults[idx] = min((i + j for i, j in series), default=0)
        local[idx] = series
    return mults


def strict_class(form: HomogeneousForm, config: Configuration) -> DivisorClass:
    return config.divisor(form.degree, effective_multiplicities(form, config))


# ---------------------------------------------------------------------------
# the linear system of a divisor class
# ---------------------------------------------------------------------------

# the most generic series a chart data keeps before it starts afresh; the
# fixtures need at most one per point, 19
_KEPT = 256


class _ChartData:
    """A configuration's chart data over one ring, K, Z or F_P, and the
    series of the generic form of one degree at its points.  A point's
    series depends on the degree and on the clamped multiplicities of its
    ancestors, which fix the monomials that each chart step drops, so it is
    memoised under (point, those multiplicities) until the degree changes,
    or more than ``_KEPT`` are kept."""

    __slots__ = ("field", "charts", "constants", "degree", "series")

    def __init__(self, field, charts, constants):
        self.field = field              # K, 0 for Z, or the prime P
        self.charts = charts            # root index -> (pivot, q, a, b)
        self.constants = constants      # point index -> chart-1 (c, m)
        self.degree = None
        self.series = {}


def _exact_data(config: Configuration) -> _ChartData:
    """The chart data of the integral model (see the module docstring)."""
    memo = config.linsys_memo
    if memo.exact is None:
        field = config.field
        charts, constants, scales = {}, [], []
        for idx, point in enumerate(config.points):
            if point.is_root():
                charts[idx] = integral_chart(point.origin, field)
                scales.append((Fraction(1, charts[idx][1]),) * 2)
                constants.append((0, 1))
                continue
            lam, mu = scales[config.parent_idx[idx]]
            c = point.c * Fraction(lam, mu) if point.chart == 1 else 0
            m = denominator(c) if c else 1
            constants.append((lift(c, m, exact_ring(field)) if c else 0, m))
            scales.append(child_scales((lam, mu), point.chart, m))
        memo.exact = _ChartData(exact_ring(field), charts, constants)
    return memo.exact


def _modular_data(config: Configuration, index: int):
    """The integral model's chart data mapped into F_P through t -> r, one
    per root r of the minimal polynomial mod the index-th split prime P."""
    memo = config.linsys_memo
    if index not in memo.images:
        exact = _exact_data(config)
        P, roots, _ = config.field.split_prime(index)
        memo.images[index] = [_ChartData(
            P, {idx: (pivot, q % P, residue(a, P, r), residue(b, P, r))
                for idx, (pivot, q, a, b) in exact.charts.items()},
            [(residue(c, P, r), m % P) for c, m in exact.constants])
            for r in roots]
    return memo.images[index]


def _conditions(D: DivisorClass, config: Configuration, data: _ChartData,
                columns=None):
    """The conditions of D, point by point: the coefficient vectors of the
    monomials of local order below the clamped multiplicity e_q, for the
    generic degree-d form, whose series are memoised on ``data``, or for the
    forms whose coefficient dicts are ``columns``.  A point is visited only
    when it or a point above it has e_q > 0, and the forms' series at a
    root with no point above it visited is formed only below e_q."""
    if D.d < 0:
        raise ValueError("negative degree %d" % D.d)
    field = data.field
    generic = columns is None
    if generic:
        if data.degree != D.d or len(data.series) > _KEPT:
            data.series.clear()
            data.degree = D.d
        one = 1 if type(field) is int else field.one()
        columns = [{m: one} for m in monomials(D.d)]
    clamped = [max(v, 0) for v in D.e]
    parents = config.parent_idx
    needed = [e > 0 for e in clamped]
    branch = [False] * config.size
    for idx in range(config.size - 1, -1, -1):
        if needed[idx] and parents[idx] is not None:
            needed[parents[idx]] = branch[parents[idx]] = True
    above = {}
    local = {}
    for idx, point in enumerate(config.points):
        if not needed[idx]:
            continue
        parent = parents[idx]
        key = () if parent is None else above[parent] + (clamped[parent],)
        above[idx] = key
        e_q = clamped[idx]
        series = data.series.get((idx, key)) if generic else None
        if series is None:
            if parent is None:
                series = root_series(data.charts[idx], columns, field,
                                     None if generic or branch[idx] else e_q)
            else:
                series = chart_step(local[parent], point.chart,
                                    clamped[parent], field,
                                    *data.constants[idx])
            if generic:
                data.series[idx, key] = series
        local[idx] = series
        for (i, j), vec in series.items():
            if i + j < e_q:
                yield vec


def _dense(vectors, n, zero):
    """Sparse vectors as rows; zero + v makes an int entry an element."""
    rows = []
    for vec in vectors:
        row = [zero] * n
        for t, v in vec.items():
            row[t] = zero + v
        rows.append(row)
    return rows


def condition_rows(D: DivisorClass, config: Configuration):
    """Linear conditions on the generic degree-d coefficients cut out by the
    virtual transform of D, in K, each up to a nonzero factor (the integral
    model); negative multiplicities are clamped to zero."""
    return _dense(_conditions(D, config, _exact_data(config)),
                  len(monomials(D.d)), config.field.zero())


# split primes tried for a kernel before the exact elimination takes over
_PRIMES = 6
# the fractions reconstructed from a modulus M have |n|, d <= sqrt(M / 2^
# _MARGIN): a residue of a larger fraction then passes for a smaller one
# with a chance of about 2^-10, where the bound sqrt(M / 2) lets most pass
_MARGIN = 11


def _lifted_kernel(D: DivisorClass, config: Configuration, first):
    """The reduced echelon kernel of D's conditions in K, from their
    eliminations mod split primes, or None when it is not certified;
    ``first`` is the elimination at the first prime's first root.

    At the i-th split prime P the minimal polynomial has k distinct roots
    r_j, and each t -> r_j maps the integral model's conditions into F_P
    (``_modular_data``), where they are eliminated on ints.  A rank of n at
    the first root proves h0 = 0.  Otherwise every root must give the same
    pivots; the kernel vector v_f of a free column f is 1 at f, 0 at the
    other free columns, and minus the reduced entries at the pivots, which
    are 0 at the pivots after f.  The images at the r_j give each
    K-coordinate mod P through the inverse Vandermonde matrix of the roots,
    and Garner's CRT combines the primes until every coordinate has a
    rational reconstruction.  The vectors so found are accepted only after
    an exact check in K: the chart steps are linear in the columns, so v is
    in the kernel iff the forms sum_t v_t m_t leave no monomial of order
    below e_q at any point.

    Then the f of the vectors, which number k = n - rank_P >= n - rank_K,
    are free columns of the exact elimination as well: v_f is a kernel
    vector whose last nonzero entry is at f, and a column is free iff some
    kernel vector ends there.  So rank_K = rank_P, the free columns are the
    same, and v_f is the unique kernel vector that is 1 at f and 0 at the
    other free columns: what ``linalg.kernel`` reads off the exact
    ``rref``.  Pivots that differ between roots or primes, no
    reconstruction within ``_PRIMES`` primes or a failed check give None;
    a prime that divides a scale of the model can only lower the rank mod
    P, and so ends in one of these.
    """
    n = len(monomials(D.d))
    reduced, pivots = first
    if len(pivots) == n:
        return []
    free = [c for c in range(n) if c not in pivots]
    # the entries that the reconstruction finds: (f, row)
    entries = [(f, r) for f in free for r, pc in enumerate(pivots) if pc < f]
    coords, modulus = [], 1
    for index in range(_PRIMES):
        data = _modular_data(config, index)
        P, _, inverse = config.field.split_prime(index)
        images = []
        for j, root in enumerate(data):
            if index or j:
                reduced, found = modp.rref(
                    _dense(_conditions(D, config, root), n, 0), P)
                if found != pivots:
                    return None
            images.append([-reduced[r][f] for f, r in entries])
        coords = modp.crt(coords or [0] * (len(entries) * len(inverse)),
                          modulus, [sum(w * v[e] for w, v in zip(row, images))
                                    for e in range(len(entries))
                                    for row in inverse], P)
        modulus *= P
        bound = isqrt(modulus >> _MARGIN)
        values = [modp.rational(x, modulus, bound) for x in coords]
        if None not in values:
            break
    else:
        return None
    field = config.field
    k = field.degree
    zero, one = field.zero(), field.one()
    vectors = {f: [zero] * n for f in free}
    for f in free:
        vectors[f][f] = one
    for e, (f, r) in enumerate(entries):
        vectors[f][pivots[r]] = FieldElement(
            field, tuple(_canon(x) for x in values[e * k:(e + 1) * k]))
    vectors = [vectors[f] for f in free]
    order = monomials(D.d)
    forms = integral([{order[t]: v for t, v in enumerate(vec) if v}
                      for vec in vectors], exact_ring(field))
    for _ in _conditions(D, config, _exact_data(config), forms):
        return None
    return vectors


def _kernel(D: DivisorClass, config: Configuration, screen=None):
    """The reduced echelon kernel of D's conditions in K, certified from
    primes or else eliminated exactly; the last one is kept for ``basis``
    under (d, e).

    A third certificate comes first: an empty kernel at a class of the
    same degree below D.  Let z and e be the clamped multiplicities of two
    classes of degree d with z <= e at every point.  The kernel at e is the
    degree-d forms F that go virtually through the weighted configuration
    (e): pi^* F - sum e_q E_q^* is effective, pi the blow-up of all its
    points (Casas-Alvero, Singularities of Plane Curves, 2000, ch. 4).
    Then pi^* F - sum z_q E_q^* = (pi^* F - sum e_q E_q^*) + sum (e_q -
    z_q) E_q^* is effective too, since every E_q^* is, so H^0(dL - sum e_q
    E_q^*) lies in H^0(dL - sum z_q E_q^*), and h0 = 0 at z proves h0 = 0
    at e.  The clamped multiplicities of every class whose kernel comes
    out empty are appended to the configuration's ``LinsysMemo.empty[d]``,
    which is scanned.  A class that an entry covers returns before it is
    eliminated, so no entry is ever above an older one, and the list needs
    no pruning.

    A class that the memo does not answer is eliminated first mod the first
    split prime P at its first root r.  With a ``screen``, its kernel mod P
    goes to ``screen(P, r, vectors)``, and a true answer gives None and
    keeps nothing; those vectors number h0(D) or more (rank_P <= rank_K).
    Otherwise ``_lifted_kernel`` starts from that elimination."""
    memo, key = config.linsys_memo, (D.d, D.e)
    if memo.kernel is not None and memo.kernel[0] == key:
        return memo.kernel[1]
    clamped = tuple(max(v, 0) for v in D.e)
    if any(all(map(le, z, clamped)) for z in memo.empty.get(D.d, ())):
        return []
    n, (P, roots, _) = len(monomials(D.d)), config.field.split_prime(0)
    first = modp.rref(_dense(_conditions(
        D, config, _modular_data(config, 0)[0]), n, 0), P)
    if screen is not None and screen(P, roots[0], linalg.kernel(*first, n, 0)):
        return None
    vectors = _lifted_kernel(D, config, first)
    if vectors is None:
        reduced, pivots = linalg.rref(condition_rows(D, config))
        vectors = linalg.kernel(reduced, pivots, n, config.field.zero())
    if not vectors:
        memo.empty.setdefault(D.d, []).append(clamped)
    memo.kernel = (key, vectors)
    return vectors


def h0(D: DivisorClass, config: Configuration, screen=None) -> Optional[int]:
    """dim H^0 of the direct image on the plane of O(D): the dimension of
    the kernel of D's conditions, read off an empty kernel below D,
    certified from word-size primes or eliminated exactly in K (see
    ``_kernel``); None when ``screen`` dropped D."""
    vectors = _kernel(D, config, screen)
    return None if vectors is None else len(vectors)


def basis(D: DivisorClass, config: Configuration) -> List[HomogeneousForm]:
    """A basis of the linear system, as degree-d forms: the reduced echelon
    kernel of the conditions, one form per free monomial."""
    order = monomials(D.d)
    field = config.field
    out = []
    for vec in _kernel(D, config):
        coeffs = {order[t]: v for t, v in enumerate(vec) if not v.is_zero()}
        out.append(HomogeneousForm(field, D.d, coeffs))
    return out
