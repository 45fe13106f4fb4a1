import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folint import linalg, linsys, modp
from folint.cli import load_config_file
from folint.cluster import (
    Configuration, InfinitelyNearPoint, load_configuration, normalize_point,
)
from folint.linsys import (
    basis, chart_step, condition_rows, effective_multiplicities, h0,
    integral_chart, root_series, strict_class,
)
from folint.numfield import QQ, NumberField, residue
from folint.polyforms import HomogeneousForm, monomials, parse_form

from helpers import (
    coefficient_vector, random_configuration, reference_kernel,
    reference_multiplicities, same_span, total_valuations, value_at,
)
from test_cluster import fig1_config, fig2_config, pt


# ---------------------------------------------------------------------------
# independent Taylor oracle for configurations of plane points
# ---------------------------------------------------------------------------

def taylor_h0(D, config):
    """Brute-force oracle: impose vanishing of all dehomogenized partial
    derivatives of order < e_q at each plane point, by direct symbolic
    differentiation of every monomial."""
    field = config.field
    order = monomials(D.d)
    rows = []
    for idx, point in enumerate(config.points):
        e_q = max(D.e[idx], 0)
        if e_q == 0:
            continue
        origin = point.origin
        pivot = next(i for i, v in enumerate(origin) if not v.is_zero())
        others = [i for i in range(3) if i != pivot]
        affine = [origin[i] / origin[pivot] for i in others]
        for a in range(e_q):
            for b in range(e_q - a):
                row = []
                for (i, j, k) in order:
                    expo = (i, j, k)
                    da, db = expo[others[0]], expo[others[1]]
                    if da < a or db < b:
                        row.append(field.zero())
                        continue
                    scale = 1
                    for step in range(a):
                        scale *= da - step
                    for step in range(b):
                        scale *= db - step
                    val = field.element(scale) * affine[0] ** (da - a) \
                        * affine[1] ** (db - b)
                    row.append(val)
                rows.append(row)
    return len(order) - linalg.rank(rows)


# ---------------------------------------------------------------------------
# the series engine against direct evaluation of the forms
# ---------------------------------------------------------------------------

GAUSS = NumberField((1, 0, 1))
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def elements(draw, field, zero_weight=False):
    if zero_weight and draw(st.booleans()):
        return field.zero()
    return field.element([draw(small) for _ in range(field.degree)])


@st.composite
def plane_points(draw, field):
    point = [draw(elements(field, zero_weight=True)) for _ in range(3)]
    if all(c.is_zero() for c in point):
        point[draw(st.integers(0, 2))] = field.one()
    # normalized, as Configuration and singular_points pass points on
    return normalize_point(tuple(point))


@st.composite
def forms(draw, field, degree):
    return HomogeneousForm(field, degree,
                           {m: draw(elements(field, zero_weight=True))
                            for m in monomials(degree)})


def evaluate(series, t, u0, v0, field):
    acc = field.zero()
    for (i, j), vec in series.items():
        if t in vec:
            acc = acc + vec[t] * u0 ** i * v0 ** j
    return acc


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.data())
def test_root_series_is_the_form_at_the_chart_point(data):
    # the stored series at (U, V) is q^d times the form at the point of
    # true chart coordinates (U/q, V/q)
    field = data.draw(st.sampled_from([QQ, GAUSS]))
    degree = data.draw(st.integers(0, 5))
    columns = [data.draw(forms(field, degree)) for _ in range(2)]
    origin = data.draw(plane_points(field))
    u0, v0 = data.draw(elements(field)), data.draw(elements(field))
    chart = integral_chart(origin, field)
    q = chart[1]
    series = root_series(chart, [f.coeffs for f in columns], field)
    # the chart point: the first nonzero coordinate scaled to 1, the other
    # two moved by u0/q and v0/q in order
    pivot = next(i for i, c in enumerate(origin) if not c.is_zero())
    point = [c / origin[pivot] for c in origin]
    others = [i for i in range(3) if i != pivot]
    point[others[0]] = point[others[0]] + u0 / q
    point[others[1]] = point[others[1]] + v0 / q
    for t, f in enumerate(columns):
        assert (evaluate(series, t, u0, v0, field) ==
                value_at(f, point) * q ** degree)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.data())
def test_chart_step_is_the_chart_map(data):
    # two chart steps from a plane point: each child at (U0, W0), times
    # U0^e, is m^J times its parent at the stored chart point, and the
    # recorded scalings take that point to the true chart map of the true
    # constant c at (lambda' U0, mu' W0)
    field = data.draw(st.sampled_from([QQ, GAUSS]))
    origin = data.draw(plane_points(field))
    # lines through the point give the form a multiplicity there
    form = data.draw(forms(field, data.draw(st.integers(0, 3))))
    for _ in range(data.draw(st.integers(0, 3))):
        # the line det(origin, r, X) = 0
        x, y, z = origin
        r = [data.draw(elements(field)) for _ in range(3)]
        line = HomogeneousForm(field, 1, {(1, 0, 0): y * r[2] - z * r[1],
                                          (0, 1, 0): z * r[0] - x * r[2],
                                          (0, 0, 1): x * r[1] - y * r[0]})
        form = form * line
    chart = integral_chart(origin, field)
    parent = root_series(chart, [form.coeffs], field)
    scales = (Fraction(1, chart[1]),) * 2
    for _ in range(2):
        lam, mu = scales
        order = min((i + j for i, j in parent), default=0)
        e = data.draw(st.integers(0, order))
        step = data.draw(st.sampled_from([1, 2]))
        u0, w0 = data.draw(elements(field)), data.draw(elements(field))
        if step == 1:
            c = data.draw(elements(field, zero_weight=True))
            stored = c * (lam / mu)
            m = linsys.denominator(stored)
            n = stored * m
            at = (u0, u0 * (w0 + n) / m)
            top = max((j for i, j in parent if i + j >= e), default=0)
        else:
            n, m, top = field.zero(), 1, 0
            at = (u0 * w0, u0)
        child = chart_step(parent, step, e, field, n, m)
        assert (evaluate(child, 0, u0, w0, field) * u0 ** e ==
                evaluate(parent, 0, at[0], at[1], field) * m ** top)
        scales = linsys.child_scales(scales, step, m)
        u, w = u0 * scales[0], w0 * scales[1]
        true = (u, u * (w + c)) if step == 1 else (u * w, u)
        assert (at[0] * lam, at[1] * mu) == true
        parent = child


# Q(j) with j^2 = 1/2: int coordinates are not closed under products
HALF = NumberField((Fraction(-1, 2), 0, 1))


def test_integral_model_against_the_substituted_chart_maps():
    # h0, basis and effective multiplicities of the integral model against
    # a reference that substitutes the chart maps in K with Fraction
    # coordinates, on seeded configurations over Q, Q(i) and Q(j), j^2 = 1/2
    rng = random.Random(13)
    seen = {"denominator": 0, "deep fraction": 0, "chart 2": 0, "mult": 0}
    for field in (QQ, GAUSS, HALF):
        for _ in range(10):
            config = random_configuration(rng, field)
            for idx, point in enumerate(config.points):
                depth = len(config.ancestors_or_self(idx)) - 1
                if point.is_root():
                    seen["denominator"] += any(
                        linsys.denominator(c) > 1 for c in point.origin)
                elif point.chart == 2:
                    seen["chart 2"] += 1
                elif depth >= 2 and linsys.denominator(point.c) > 1:
                    seen["deep fraction"] += 1
            for _ in range(3):
                d = rng.randint(1, 4)
                D = config.divisor(d, [min(rng.choice((0, 1, 1, 2)), d)
                                       for _ in config.points])
                expected = reference_kernel(D, config)
                assert h0(D, config) == len(expected)
                assert basis(D, config) == expected
                assert linalg.rank(condition_rows(D, config)) == \
                    len(monomials(d)) - len(expected)
                for form in expected[:3]:
                    mults = reference_multiplicities(form, config)
                    assert effective_multiplicities(form, config) == mults
                    seen["mult"] += any(mults)
    assert min(seen.values()) >= 5, seen


def plane_points_config(coords, field=QQ):
    points = [InfinitelyNearPoint("p%d" % i, origin=c, dicritical=True)
              for i, c in enumerate(coords)]
    return Configuration(points, field)


def test_h0_no_conditions():
    config = plane_points_config([(0, 0, 1)])
    for d in range(5):
        D = config.divisor(d, [0])
        assert h0(D, config) == (d + 1) * (d + 2) // 2


def test_h0_single_point_multiplicities():
    config = plane_points_config([(0, 0, 1)])
    assert h0(config.divisor(1, [1]), config) == 2
    assert h0(config.divisor(2, [2]), config) == 3
    assert h0(config.divisor(3, [-2]), config) == 10  # clamped to zero


def test_h0_matches_taylor_oracle_bulk():
    """Acceptance 7(a): >= 200 random ordinary-point systems, d <= 6."""
    rng = random.Random(20240813)
    candidates = [(x, y, 1) for x in range(-2, 3) for y in range(-2, 3)]
    checked = 0
    while checked < 205:
        d = rng.randint(1, 6)
        npts = rng.randint(1, 6)
        coords = rng.sample(candidates, npts)
        config = plane_points_config(coords)
        e = [rng.randint(-1, min(d, 3)) for _ in range(npts)]
        D = config.divisor(d, e)
        assert h0(D, config) == taylor_h0(D, config)
        checked += 1


def test_h0_monotone_in_multiplicities():
    rng = random.Random(7)
    coords = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    config = plane_points_config(coords)
    for _ in range(40):
        e = [rng.randint(0, 2) for _ in range(4)]
        D = config.divisor(3, e)
        i = rng.randrange(4)
        bigger = list(e)
        bigger[i] += 1
        assert h0(config.divisor(3, bigger), config) <= h0(D, config)


def test_effective_multiplicities_smooth_line():
    config = plane_points_config([(0, 0, 1)])
    X = parse_form("X")
    assert effective_multiplicities(X, config) == [1]


def test_effective_multiplicities_cusp():
    # Y^2 Z - X^3 at (0:0:1): blow up once; in the x-direction chart the
    # strict transform is y^2 - x, multiplicity 1 at the origin (c = 0)
    points = [pt("q1", origin=(0, 0, 1)),
              pt("q2", parent="q1", chart=1, c=QQ.element(0), dicritical=True)]
    config = Configuration(points, QQ)
    cusp = parse_form("Y^2*Z-X^3")
    assert effective_multiplicities(cusp, config) == [2, 1]


def test_effective_multiplicities_additive():
    config = fig1_config()
    f = parse_form("X-Z")
    g = parse_form("X*Y+Y^2-X*Z")
    prod = f * g
    mf = effective_multiplicities(f, config)
    mg = effective_multiplicities(g, config)
    mp = effective_multiplicities(prod, config)
    assert mp == [a + b for a, b in zip(mf, mg)]
    assert strict_class(prod, config) == \
        strict_class(f, config) + strict_class(g, config)


def test_fig2_line_classes():
    """The strict transforms of Y = 0 and Z = 0 on the fig2 tree."""
    config = fig2_config()
    # fig2's abstract chart data was chosen to match the true resolution:
    # Y = 0 passes q1 and q4; Z = 0 passes q4 and q5
    T = config.divisor(10, [2, 1, 1, 8, 2, 2, 2, 2, 2, 2, 2, 1, 1])
    y_class = config.divisor(1, [1, 0, 0, 1] + [0] * 9)
    z_class = config.divisor(1, [0, 0, 0, 1, 1] + [0] * 8)
    assert T.intersect(y_class) == 0
    assert T.intersect(z_class) == 0


def test_membership_reverification():
    # every basis element's total transform dominates the clamped system
    config = fig1_config()
    D = config.divisor(2, [1, 1, 1, 0, 0, 0, -1, 0, 0, 0])
    clamped = [max(v, 0) for v in D.e]
    for f in basis(D, config):
        mults = effective_multiplicities(f, config)
        vf = total_valuations(mults, config)
        ve = total_valuations(clamped, config)
        assert all(a >= b for a, b in zip(vf, ve))


def test_same_span():
    f1 = parse_form("X^2+Y*Z")
    f2 = parse_form("X*Y")
    g1 = f1 + f2
    g2 = f1 - f2
    assert same_span([f1, f2], [g1, g2])
    assert not same_span([f1], [f2])


def test_basis_dimension_agrees():
    config = fig1_config()
    D = config.divisor(4, [2, 2, 1, 1, 1, 1, 1, 1, 1, 1])
    forms = basis(D, config)
    assert len(forms) == h0(D, config)
    for f in forms:
        assert f.degree == 4


# ---------------------------------------------------------------------------
# h0 and its basis certified from word-size primes
# ---------------------------------------------------------------------------

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
MODULAR_CONFIGS = {name: load_config_file(os.path.join(FIXTURES,
                                                       name + ".cfg"))
                   for name in ("fig3", "example1", "family_a861",
                                "cubic_pencil")}


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_h0_equals_the_exact_rank(data):
    config = MODULAR_CONFIGS[data.draw(st.sampled_from(sorted(
        MODULAR_CONFIGS)))]
    d = data.draw(st.integers(0, 4))
    e = data.draw(st.lists(st.integers(-1, 3), min_size=config.size,
                           max_size=config.size))
    D = config.divisor(d, e)
    n = len(monomials(d))
    assert h0(D, config) == n - linalg.rank(condition_rows(D, config))


def test_prime_in_a_chart_constant_falls_back():
    p = QQ.split_prime(0)[0]
    points = [pt("q1", origin=(0, 0, 1)),
              pt("q2", parent="q1", chart=1, c=QQ.element(Fraction(1, p))),
              pt("q3", parent="q2", chart=1, c=QQ.element(0),
                 dicritical=True),
              pt("q4", origin=(1, 0, 0), dicritical=True),
              pt("q5", origin=(0, 1, 0), dicritical=True)]
    config = Configuration(points, QQ)
    D = config.divisor(2, [2, 1, 1, 1, 1])
    assert h0(D, config) == 0
    assert h0(D, config) == 6 - linalg.rank(condition_rows(D, config))
    # the line pair at q1 through q4 and along q2
    D = config.divisor(2, [2, 1, 0, 1, 0])
    assert h0(D, config) == 1 == len(basis(D, config))


def test_rank_drop_mod_p_gets_the_exact_rank():
    # (1:0:0), (0:1:0) and (1:1:p) are not collinear, but their
    # determinant p vanishes mod p
    p = QQ.split_prime(0)[0]
    config = plane_points_config([(1, 0, 0), (0, 1, 0), (1, 1, p)])
    D = config.divisor(1, [1, 1, 1])
    rows = condition_rows(D, config)
    image = [[residue(v, p, 0) for v in row] for row in rows]
    assert len(modp.rref(image, p)[1]) == 2
    assert linalg.rank(rows) == 3
    assert h0(D, config) == 0
    assert basis(D, config) == []
    # through two of them: the exact path keeps its elimination for basis
    D = config.divisor(1, [1, 0, 1])
    assert h0(D, config) == 1
    (line,) = basis(D, config)
    assert coefficient_vector(line, monomials(1)) == \
        [QQ.zero(), QQ.element(-p), QQ.one()]


@pytest.fixture
def exact_calls(monkeypatch):
    """The classes whose conditions h0 and basis eliminate exactly in K."""
    calls = []

    def counting(D, config):
        calls.append(D)
        return condition_rows(D, config)

    monkeypatch.setattr(linsys, "condition_rows", counting)
    return calls


def exact_kernel_forms(D, config):
    rows = condition_rows(D, config)
    zero = config.field.zero()
    reduced, pivots = linalg.rref(rows)
    order = monomials(D.d)
    return [HomogeneousForm(config.field, D.d,
                            {order[t]: v for t, v in enumerate(vec)})
            for vec in linalg.kernel(reduced, pivots, len(order), zero)]


def test_modular_kernel_is_the_exact_kernel(exact_calls):
    # seeded classes on configurations over Q, Q(i) and Q(j); the fixtures'
    # own classes alternate with random ones, so the memoised series meet
    # changes of degree and of the multiplicities above a point
    rng = random.Random(11)
    dims = {}
    for name in ("family_a861", "example1", "fig3"):
        config = load_config_file(os.path.join(FIXTURES, name + ".cfg"))
        for _ in range(40):
            d = rng.randint(1, 5)
            e = [min(rng.choice((-1, 0, 1, 1, 2, 3)), d)
                 for _ in range(config.size)]
            D = config.divisor(d, e)
            expected = exact_kernel_forms(D, config)
            assert h0(D, config) == len(expected)
            assert basis(D, config) == expected
            dims[len(expected)] = dims.get(len(expected), 0) + 1
    assert exact_calls == []
    assert all(dims.get(k, 0) >= 3 for k in (0, 1, 2, 3))


def test_modular_kernel_with_denominators_over_q_i():
    # plane points with Fraction coordinates over Q(i), degrees up to 3
    field = GAUSS
    rng = random.Random(5)
    for _ in range(25):
        coords = [tuple(field.element((Fraction(rng.randint(-4, 4),
                                                rng.randint(1, 3)),
                                       rng.randint(-2, 2)))
                        for _ in range(3)) for _ in range(5)]
        if any(all(v.is_zero() for v in c) for c in coords):
            continue
        config = plane_points_config(coords, field)
        d = rng.randint(1, 3)
        D = config.divisor(d, [rng.randint(0, 2) for _ in coords])
        expected = exact_kernel_forms(D, config)
        assert h0(D, config) == len(expected)
        assert basis(D, config) == expected


def _multiple_mod(series, exact, P):
    """Is series = s exact mod P for some s in F_P, zero included?"""
    keys = {(key, t) for part in (series, exact)
            for key, vec in part.items() for t in vec}
    pairs = [(series.get(key, {}).get(t, 0), exact.get(key, {}).get(t, 0))
             for key, t in keys]
    if any(a and not v for a, v in pairs):
        return False
    return len({a * pow(v, -1, P) % P for a, v in pairs if v}) <= 1


def test_shift_mod_p_is_a_multiple_of_the_exact_image():
    # the v-shift with a denominator m mod P, where P divides c, m or the
    # top row of the series: the result must be a multiple of the exact
    # result reduced mod P, or ranks mod P could exceed ranks in K
    P = QQ.split_prime(0)[0]
    rng = random.Random(3)
    cases = {"c": 0, "m": 0, "top": 0}
    for _ in range(300):
        top = rng.randint(1, 4)
        series = {(i, j): {t: rng.randint(-5, 5) or 1 for t in range(2)}
                  for i in range(3) for j in range(top + 1)
                  if rng.random() < 0.7}
        kind = rng.choice(sorted(cases))
        c, m = rng.randint(-4, 4), rng.randint(2, 5)
        if kind == "c":
            c = P * rng.randint(1, 3)
        elif kind == "m":
            m = P * rng.randint(1, 3)
        else:
            m = P * rng.randint(1, 3)
            for key in series:
                if key[1] == max(k[1] for k in series):
                    series[key] = {t: P * v for t, v in series[key].items()}
        cases[kind] += 1
        exact = linsys._prune(linsys._shift(series, 1, c, 0, m=m), P)
        reduced = linsys._shift(linsys._prune(series, P), 1, c % P, P,
                                m=m % P)
        assert _multiple_mod(reduced, exact, P)
    assert min(cases.values()) >= 80


@pytest.mark.parametrize("field", [QQ, GAUSS], ids=repr)
def test_prime_in_a_chart_scale_keeps_h0_and_basis_exact(field):
    # seeded configurations whose plane points and chart-1 constants have
    # P, the first split prime, in their denominators, so that P divides a
    # scale q or m of the integral model: h0 and basis still equal the
    # exact elimination of the conditions
    P = field.split_prime(0)[0]
    rng = random.Random(23)

    def element():
        coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, P, 3 * P)))
                  for _ in range(field.degree)]
        return field.element(coords) if any(coords) else field.one()

    scales = {"q": 0, "m": 0}
    for _ in range(30):
        points = []
        for r in range(rng.randint(1, 2)):
            name = "r%d" % r
            points.append(InfinitelyNearPoint(
                name, origin=(field.one(), element(), field.element(r)),
                dicritical=True))
            for depth in range(rng.randint(0, 3)):
                chart = rng.choice((1, 1, 2))
                points.append(InfinitelyNearPoint(
                    "%s_%d" % (name, depth), parent=points[-1].name,
                    chart=chart, c=element() if chart == 1 else None,
                    dicritical=True))
        config = Configuration(points, field)
        plan = linsys._exact_data(config)
        scales["q"] += any(q % P == 0 for _, q, _, _ in plan.charts.values())
        scales["m"] += any(m % P == 0 for _, m in plan.constants)
        for _ in range(3):
            d = rng.randint(1, 3)
            D = config.divisor(d, [rng.randint(0, 2) for _ in points])
            expected = exact_kernel_forms(D, config)
            assert h0(D, config) == len(expected)
            assert basis(D, config) == expected
    assert scales["q"] >= 5 and scales["m"] >= 5


def test_pivots_that_differ_mod_p_fall_back(exact_calls):
    # the lines through (1:0:0) and (1:p:1): the conditions are the rows
    # (1, 0, 0) and (1, p, 1), whose pivots are columns 0, 1 in Q and 0, 2
    # mod p; the kernel mod p, the line Y, misses (1:p:1)
    p = QQ.split_prime(0)[0]
    config = plane_points_config([(1, 0, 0), (1, p, 1)])
    D = config.divisor(1, [1, 1])
    assert modp.rref([[1, 0, 0], [1, p, 1]], p)[1] == [0, 2]
    assert h0(D, config) == 1
    assert basis(D, config) == exact_kernel_forms(D, config)
    assert exact_calls == [D]


def test_pivots_that_differ_between_roots_fall_back(exact_calls):
    # over Q(i) the point (1 : i - r : 1), r the first root of t^2 + 1 mod
    # the first split prime, has Y-coordinate 0 at t -> r only
    P, (r, _), _ = GAUSS.split_prime(0)
    y = GAUSS.element((0, 1)) - r
    config = plane_points_config([(1, 0, 0), (1, y, 1)], GAUSS)
    D = config.divisor(1, [1, 1])
    assert h0(D, config) == 1
    assert basis(D, config) == exact_kernel_forms(D, config)
    assert exact_calls == [D]


def test_no_reconstruction_within_the_prime_budget_falls_back(exact_calls):
    # the line through (1:0:0) and (1:a:b) is bY - aZ, and a 300-bit a/b
    # has no reconstruction from the product of the primes tried
    a, b = 3 ** 190, 2 ** 300 + 1
    config = plane_points_config([(1, 0, 0), (1, a, b)])
    D = config.divisor(1, [1, 1])
    assert h0(D, config) == 1
    assert basis(D, config) == exact_kernel_forms(D, config)
    assert exact_calls == [D]


def test_forced_failures_reach_the_exact_elimination(exact_calls):
    # a prime that divides a chart scale q, and a rank drop mod p
    p = QQ.split_prime(0)[0]
    config = plane_points_config([(p, 1, 0), (0, 0, 1)])
    D = config.divisor(1, [1, 1])
    assert config.linsys_memo.images == {}
    assert basis(D, config) == exact_kernel_forms(D, config)
    config = plane_points_config([(1, 0, 0), (0, 1, 0), (1, 1, p)])
    E = config.divisor(1, [1, 1, 1])
    assert h0(E, config) == 0
    assert exact_calls == [D, E]


# ---------------------------------------------------------------------------
# the record of empty kernels: a class at or above one is empty too
# ---------------------------------------------------------------------------

def _dominated(zeros, d, e):
    clamped = [max(v, 0) for v in e]
    return any(all(a <= b for a, b in zip(z, clamped))
               for z in zeros.get(d, ()))


@pytest.mark.parametrize("field", [QQ, GAUSS], ids=repr)
def test_empty_kernel_record_against_the_reference(field):
    # seeded classes in random order, with negative entries and entries
    # above d, and chains that climb from an empty kernel or step below it:
    # every h0 and basis on the one configuration, with its record
    # growing, equals the reference kernel on a fresh copy of it
    rng = random.Random(1900 + field.degree)
    seen = {"dominated": 0, "below": 0, "positive": 0}
    for n in range(8):
        config = random_configuration(random.Random(n), field, mixed=True)
        fresh = random_configuration(random.Random(n), field, mixed=True)
        zeros, last = {}, None
        for _ in range(36):
            draw = rng.random()
            if last is not None and draw < 0.4:
                d, z = last
                e = [max(v, 0) + rng.choice((0, 0, 1, 2)) for v in z]
            elif last is not None and draw < 0.6:
                d, z = last
                e = [v - rng.choice((0, 1, 1, 2)) for v in z]
            else:
                d = rng.randint(0, 3)
                e = [rng.randint(-2, d + 2) for _ in config.points]
            expected = reference_kernel(fresh.divisor(d, e), fresh)
            dominated = _dominated(zeros, d, e)
            assert not (dominated and expected)
            seen["dominated"] += dominated
            seen["below"] += bool(zeros.get(d)) and bool(expected)
            seen["positive"] += bool(expected)
            D = config.divisor(d, e)
            assert h0(D, config) == len(expected)
            assert basis(D, config) == expected
            if not expected:
                zeros.setdefault(d, []).append([max(v, 0) for v in e])
                last = (d, e)
    assert min(seen.values()) >= 30, seen


def test_empty_record_answers_without_an_elimination(monkeypatch):
    # on a line pair with the two points doubled, (2, 2) in degree 1 is
    # empty, and every class at or above it is answered from the record
    config = plane_points_config([(0, 0, 1), (1, 0, 1)])
    assert h0(config.divisor(1, [2, 2]), config) == 0

    def no_elimination(D, config):
        raise AssertionError("eliminated %r" % (D.e,))

    monkeypatch.setattr(linsys, "_lifted_kernel", no_elimination)
    for e in ([2, 2], [3, 2], [2, 5], [7, 9]):
        D = config.divisor(1, e)
        assert h0(D, config) == 0
        assert basis(D, config) == []
    with pytest.raises(AssertionError):
        h0(config.divisor(1, [2, 1]), config)
    with pytest.raises(AssertionError):
        h0(config.divisor(2, [2, 2]), config)
