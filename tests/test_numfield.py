import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from folint import numfield
from folint.numfield import (
    QQ, FieldElement, FieldMismatchError, NumberField, bivariate_resultant,
    denominator, find_roots_in_field, format_element, format_minpoly,
    parse_polynomial, poly_degree,
    poly_derivative, poly_divmod, poly_eval, poly_gcd, poly_interpolate,
    poly_inverse_mod, poly_mul, poly_squarefree_part, poly_sub, poly_trim,
    rational_is_square, residue, _is_prime, _primitive, _z_quotient,
    _z_squarefree,
)

from helpers import (
    reference_gcd, reference_resultant, reference_roots_over_k,
    reference_roots_over_q, reference_split_primes, reference_squarefree_part,
    taylor_coordinates,
)

GAUSS = NumberField((1, 0, 1))          # t^2 + 1
EISEN = NumberField((1, 1, 1))          # t^2 + t + 1
ROOT5 = NumberField((-5, 0, 1))         # t^2 - 5


def test_rational_arithmetic():
    a = QQ.element(Fraction(1, 2))
    b = QQ.element(Fraction(1, 3))
    assert (a + b).as_fraction() == Fraction(5, 6)
    assert (a * b).as_fraction() == Fraction(1, 6)
    assert QQ.element(Fraction(2, 3)).inverse().as_fraction() == Fraction(3, 2)


def test_generator_reduction():
    a = EISEN.element((0, 1))
    assert a * a == EISEN.element((-1, -1))      # a^2 = -a - 1
    s = ROOT5.element((0, 1))
    assert (1 + s) * (1 - s) == ROOT5.element(-4)


def test_inverse_in_extension():
    a = EISEN.element((0, 1))
    assert a.inverse() == EISEN.element((-1, -1))
    assert a * a.inverse() == EISEN.one()
    s = ROOT5.element((0, 1))
    assert s.inverse() == s / 5
    with pytest.raises(ZeroDivisionError):
        EISEN.zero().inverse()


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        GAUSS.element((0, 1)) + EISEN.element((0, 1))


def test_minimal_polynomial_validation():
    with pytest.raises(ValueError):
        NumberField((2, 0, 2))           # not monic
    with pytest.raises(ValueError):
        NumberField((-4, 0, 1))          # t^2 - 4 has rational roots
    with pytest.raises(ValueError):
        NumberField((1, -3, 3, -1, 0, 1) if False else (-8, 0, 0, 1))  # t^3 - 8
    with pytest.raises(ValueError):
        NumberField((1, 0, 2, 0, 1))     # (t^2 + 1)^2 splits mod no prime
    quartic = NumberField((9, 0, -14, 0, 1))     # t^4 - 14 t^2 + 9
    assert not quartic.irreducibility_verified
    assert EISEN.irreducibility_verified


def test_parsing_and_formatting():
    e = GAUSS.parse("(8*a-1)")
    assert e == GAUSS.element((-1, 8))
    e2 = QQ.parse("-3/2+7")
    assert e2.as_fraction() == Fraction(11, 2)
    e3 = GAUSS.parse("-3/2*a+7")
    assert e3 == GAUSS.element((7, Fraction(-3, 2)))
    assert GAUSS.parse(format_element(e3)) == e3
    assert NumberField.from_string("t^2+t+1") == EISEN
    assert format_minpoly(ROOT5) == "t^2-5"


def test_parse_polynomial_reads_text_into_exponent_dicts():
    assert parse_polynomial("2X^2 Y - 1/2 + (Y)(X)X", "XY") == {
        (2, 1): 3, (0, 0): Fraction(-1, 2)}
    assert parse_polynomial("t^3-t^3+t", "t") == {(1,): 1}
    assert parse_polynomial("4/2", "") == {(): 2}
    assert parse_polynomial("X-X", "XYZ") == {}


def test_parentheses_nest_at_most_100_deep():
    # every level costs four frames of recursion, so the limit keeps the
    # parser far from Python's recursion limit
    assert parse_polynomial("(" * 100 + "t" + ")" * 100, "t") == {(1,): 1}
    assert parse_polynomial("(t)" * 3 + "(" * 99 + "t" + ")" * 99,
                            "t") == {(4,): 1}
    with pytest.raises(ValueError, match="nested more than 100 deep"):
        parse_polynomial("(" * 101 + "t" + ")" * 101, "t")


def test_the_generator_needs_a_field():
    # over Q the letter a used to read as the root of t, which is 0
    for text in ("a", "3*a+1", "(1+a)^2", "2 a"):
        with pytest.raises(ValueError, match="generator 'a' used without a "
                                             "field: line"):
            QQ.parse(text)
    assert GAUSS.parse("a^2") == GAUSS.element(-1)
    assert EISEN.parse("a^3") == EISEN.element(1)
    with pytest.raises(ValueError,
                       match=r"unknown variable 'a' \(expected 't'\)"):
        NumberField.from_string("a^2+1")


def test_roots_over_q():
    f = [QQ.element(-1), QQ.zero(), QQ.one()]          # t^2 - 1
    res = find_roots_in_field(f)
    assert {r.as_fraction() for r in res.roots} == {1, -1}
    assert res.remaining_degree == 0

    g = [QQ.element(-2), QQ.zero(), QQ.one()]          # t^2 - 2
    res = find_roots_in_field(g)
    assert res.roots == []
    assert res.remaining_degree == 2


def test_roots_in_extension():
    # t^2 + t + 1 splits over Q(a) with a^2 + a + 1 = 0
    f = [EISEN.one(), EISEN.one(), EISEN.one()]
    res = find_roots_in_field(f)
    assert res.remaining_degree == 0
    assert len(res.roots) == 2
    for r in res.roots:
        assert poly_eval(f, r).is_zero()
    assert EISEN.element((0, 1)) in res.roots


def test_roots_cubic_over_eisenstein():
    # w^3 - 1 has all three roots in Q(j)
    f = [EISEN.element(-1), EISEN.zero(), EISEN.zero(), EISEN.one()]
    res = find_roots_in_field(f)
    assert res.remaining_degree == 0
    assert len(res.roots) == 3


def test_roots_mixed_cubic_over_gauss():
    # (t - a)(t^2 + t + 3): the only K-root is a, quadratic part stays
    a = GAUSS.element((0, 1))
    quad = [GAUSS.element(3), GAUSS.one(), GAUSS.one()]
    f = poly_mul([-a, GAUSS.one()], quad)
    res = find_roots_in_field(f)
    assert res.roots == [a]
    assert res.remaining_degree == 2


def test_rational_root_in_a_cubic_field_from_integer_coordinates():
    # (3t - 1)(t^2 - a^2) over Q(2^(1/3)): its coordinate polynomials
    # 3t^3 - t^2 and 1 - 3t have integer coefficients and the gcd t - 1/3,
    # which only exact division finds
    cubic = NumberField((-2, 0, 0, 1))
    a = cubic.element((0, 1))
    f = [a * a, -3 * a * a, cubic.element(-1), cubic.element(3)]
    res = find_roots_in_field(f)
    assert res.roots == [cubic.element(Fraction(1, 3))]
    assert res.remaining_degree == 2


def test_square_roots_in_a_quadratic_field():
    def square_roots(d):
        return find_roots_in_field([-d, ROOT5.zero(), ROOT5.one()]).roots

    assert square_roots(ROOT5.element(Fraction(9, 4))) == [
        ROOT5.element(Fraction(-3, 2)), ROOT5.element(Fraction(3, 2))]
    # (3 - sqrt5)/2 = ((sqrt5 - 1)/2)^2
    val = ROOT5.element((Fraction(3, 2), Fraction(-1, 2)))
    roots = square_roots(val)
    assert len(roots) == 2 and all(r * r == val for r in roots)
    assert square_roots(ROOT5.element(2)) == []


CUBIC = NumberField((-2, 0, 0, 1))      # t^3 - 2
ORACLE_FIELDS = [QQ, GAUSS, EISEN, ROOT5, CUBIC]


def _linear(r):
    return [-r, r.field.one()]


def _expected_roots(field, drawn, irreducible):
    """The roots find_roots_in_field promises: all of them over Q and
    quadratic K; over deg K >= 3 the rational ones, then those of a linear
    cofactor or of a quadratic one with a rational square discriminant."""
    if field.degree <= 2:
        return drawn
    found = [r for r in drawn if r.is_rational()]
    rest = [r for r in drawn if not r.is_rational()]
    if not irreducible and len(rest) == 1:
        found += rest
    if not irreducible and len(rest) == 2:
        disc = (rest[0] - rest[1]) ** 2
        if (disc.is_rational()
                and rational_is_square(disc.coeffs[0]) is not None):
            found += rest
    return found


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_find_roots_in_field_against_planted_roots(field):
    rng = random.Random("roots %s" % field)
    one = field.one()
    # irreducible over each of the fields: sqrt 3 and the cube root of 5
    # lie in none of them
    irreducibles = [[field.element(-3), field.zero(), one],
                    [field.element(-5), field.zero(), field.zero(), one]]

    def element():
        return field.element(tuple(Fraction(rng.randint(-3, 3),
                                            rng.randint(1, 2))
                                   for _ in range(field.degree)))

    for _ in range(12):
        drawn = []
        for _ in range(rng.randint(0, 3)):
            r = element()
            if field is CUBIC:
                # rational roots, and irrational ones a rational apart,
                # reach the rational and the quadratic-cofactor steps
                kind = rng.randrange(3)
                if kind == 0:
                    r = field.element(r.coeffs[0])
                elif kind == 1 and drawn:
                    r = drawn[-1] + r.coeffs[0]
            if r not in drawn:
                drawn.append(r)
        f = [element() or one]
        for r in drawn:
            for _ in range(rng.randint(1, 3)):
                f = poly_mul(f, _linear(r))
        irreducible = None
        if rng.random() < 0.6:
            # shifted by an element of K, so still without roots in K
            shift = element()
            irreducible = []
            for c in reversed(rng.choice(irreducibles)):
                irreducible = poly_sub(poly_mul(irreducible, _linear(shift)),
                                       [-c])
            f = poly_mul(f, irreducible)
        if len(f) < 2:
            continue
        expected = _expected_roots(field, drawn, irreducible)
        res = find_roots_in_field(f)
        assert res.roots == sorted(expected, key=lambda e: e.sort_key())
        squarefree = poly_squarefree_part(f)
        assert res.remaining_degree == len(squarefree) - 1 - len(expected)
        cofactor = res.cofactor
        assert cofactor[-1] == one
        assert poly_gcd(cofactor, poly_derivative(cofactor)) == [one]
        rebuilt = cofactor
        for r in res.roots:
            rebuilt = poly_mul(rebuilt, _linear(r))
        assert rebuilt == squarefree


def test_cubic_field_roots_after_the_rational_ones():
    a, one = CUBIC.element((0, 1)), CUBIC.one()
    half = CUBIC.element(Fraction(1, 2))
    # a linear cofactor is split
    res = find_roots_in_field(poly_mul(poly_mul(_linear(half), _linear(a)),
                                       _linear(a)))
    assert res.roots == [a, half] and res.cofactor == [one]
    # a quadratic one is split when its discriminant is a rational square
    pair = poly_mul(_linear(a), _linear(a + 1))
    res = find_roots_in_field(poly_mul(pair, _linear(half)))
    assert res.roots == [a, half, a + 1] and res.remaining_degree == 0
    # (a - a^2)^2 is not rational, so a and a^2 stay in the cofactor
    pair = poly_mul(_linear(a), _linear(a * a))
    res = find_roots_in_field(poly_mul(pair, _linear(half)))
    assert res.roots == [half] and res.cofactor == pair


def test_divides_after_roots():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [EISEN.element((rng.randint(-3, 3), rng.randint(-3, 3)))
                  for _ in range(4)]
        coeffs.append(EISEN.one())
        res = find_roots_in_field(coeffs)
        rebuilt = res.cofactor
        for r in res.roots:
            while True:
                quo, rem = poly_divmod(coeffs, [-r, EISEN.one()])
                if rem:
                    break
                coeffs = quo
        assert poly_degree(coeffs) == poly_degree(rebuilt)


FIELDS = [QQ, GAUSS, EISEN, ROOT5, NumberField((9, 0, -14, 0, 1))]


def _random_element(field, rng):
    return field.element(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(field.degree)))


def test_field_axioms_bulk():
    """Acceptance 7(e): exact field axioms on >= 1000 random triples."""
    rng = random.Random(20240811)
    checked = 0
    while checked < 1050:
        field = FIELDS[checked % len(FIELDS)]
        a, b, c = (_random_element(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == field.one()
        checked += 1


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_canonical_form_idempotent(p0, p1, q0, q1):
    e = EISEN.element((p0, p1))
    again = EISEN.element(e.coeffs)
    assert e == again and e.coeffs == again.coeffs
    f = GAUSS.element((q0, q1))
    assert (f - f).is_zero()


def test_poly_gcd_monic():
    one = QQ.one()
    f = poly_mul([QQ.element(-1), one], [QQ.element(-2), one])
    g = poly_mul([QQ.element(-1), one], [QQ.element(3), one])
    d = poly_gcd(f, g)
    assert d == [QQ.element(-1), one]


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _rational_roots_by_divisors(coeffs):
    """Reference: the rational root test over every divisor pair."""
    p = [Fraction(c) for c in coeffs]
    while p[-1] == 0:
        p.pop()
    roots = set()
    if p[0] == 0:
        roots.add(Fraction(0))
        while p[0] == 0:
            p.pop(0)
    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    for u in _divisors(ints[0]):
        for v in _divisors(ints[-1]):
            for cand in (Fraction(u, v), Fraction(-u, v)):
                if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    roots.add(cand)
    return sorted(roots)


small_fraction = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _rational_roots(coeffs):
    """The rational roots of a Q-polynomial, from find_roots_in_field."""
    res = find_roots_in_field([QQ.element(c) for c in coeffs])
    return [r.as_fraction() for r in res.roots]


@settings(deadline=None)
@given(st.lists(st.tuples(small_fraction, st.integers(1, 2)), max_size=3),
       st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                min_size=1, max_size=4).filter(lambda c: c[-1] != 0))
def test_rational_roots_match_divisor_enumeration(factors, cofactor):
    f = cofactor
    for root, mult in factors:
        for _ in range(mult):
            f = poly_mul(f, [-root, Fraction(1)])
    assert _rational_roots(f) == _rational_roots_by_divisors(f)


def test_rational_roots_with_a_huge_constant_term():
    # constant term of 42 digits: divisor enumeration would never finish
    big = 10 ** 20 + 39
    f = poly_mul(poly_mul([-3, 7], [big, 5]), [10 ** 21 + 1, 0, 1])
    assert len(str(abs(f[0]))) >= 40 and f[-1] == 35
    start = time.perf_counter()
    roots = _rational_roots(f)
    assert time.perf_counter() - start < 1
    assert roots == [Fraction(-big, 5), Fraction(3, 7)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from([GAUSS, EISEN, ROOT5,
                        NumberField.from_string("t^2-3/4")]),
       st.lists(st.tuples(small_fraction, small_fraction), min_size=1,
                max_size=6),
       small_fraction, small_fraction)
def test_taylor_coordinates_are_f_at_x_plus_a_y(field, coeffs, x, y):
    f = [field.element(pair) for pair in coeffs]
    P, Q = taylor_coordinates(f, field)

    def value(poly):
        return sum(c.coeffs[0] * x ** i * y ** j for (i, j), c in poly.items())

    point = field.element((x, 0)) + field.element((0, 1)) * y
    assert value(P) + field.element((0, 1)) * value(Q) == poly_eval(f, point)


QUADRATIC_FIELDS = [GAUSS, EISEN, NumberField((-2, 0, 1)), ROOT5,
                    NumberField.from_string("t^2-3/4")]


def _planted_quadratic_cases(field, rng, count):
    """(f, planted roots, what the case holds) over a quadratic K: roots
    small or with numerators near 10^20, the generator, and over Q(sqrt 5)
    first (1 + a)/2, an algebraic integer outside Z[a]; repeated roots and
    the root 0, a leading coefficient such as 3 + 5a, and a factor
    x^2 - 7, shifted, without roots in K."""
    one, a = field.one(), field.element((0, 1))

    def element(size):
        return field.element(tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(size // 2, size),
                     rng.randint(1, 9)) for _ in range(2)))

    for _ in range(count):
        kinds, planted = set(), []
        for i in range(rng.randint(1, 3)):
            kind = rng.choice(("small", "huge", "generator"))
            if field is ROOT5 and i == 0:
                kind = "integer"
            r = {"small": lambda: element(9),
                 "huge": lambda: element(10 ** 20),
                 "generator": lambda: a - rng.randint(-3, 3),
                 "integer": lambda: (one + a) / 2 + rng.randint(-3, 3)}[kind]()
            if r not in planted:
                planted.append(r)
                kinds.add(kind)
        lead = rng.choice((one, 3 + 5 * a, element(9) or one))
        kinds.add("non-unit lead" if lead != one else "monic")
        f = [lead]
        for r in planted:
            times = rng.choice((1, 1, 2, 3))
            kinds.add("repeated" if times > 1 else "simple")
            for _ in range(times):
                f = poly_mul(f, [-r, one])
        if rng.random() < 0.4:
            f = [field.zero()] * rng.randint(1, 2) + f
            planted.append(field.zero())
            kinds.add("root 0")
        if rng.random() < 0.4:
            shift = element(9)
            square = poly_mul([-shift, one], [-shift, one])
            f = poly_mul(f, poly_sub(square, [7 * one]))
            kinds.add("no roots in K")
        yield f, planted, kinds


def test_quadratic_roots_match_the_common_zeros_reference():
    # p-adic lifting at both embeddings gives the roots, their types and
    # the cofactor that the common zeros of the coordinates of f(x + a y)
    # over Q gave, and finds every planted root
    rng = random.Random(29)
    seen = {"huge": 0, "non-unit lead": 0, "integer": 0, "repeated": 0,
            "root 0": 0, "no roots in K": 0}
    for field in QUADRATIC_FIELDS:
        for f, planted, kinds in _planted_quadratic_cases(field, rng, 12):
            roots, remaining, cofactor = find_roots_in_field(f)
            expected = reference_roots_over_k(f)
            assert _typed(roots) == _typed(expected[0])
            assert remaining == expected[1]
            assert _typed(cofactor) == _typed(expected[2])
            assert set(planted) <= set(roots)
            for kind in seen:
                seen[kind] += kind in kinds
    assert min(seen.values()) >= 5, seen


def test_quadratic_roots_take_no_resultant(monkeypatch):
    # the roots in a quadratic K come from lifting at the degree of f: no
    # common zeros of its coordinates and no resultant over Q
    calls = []
    for name in ("common_zeros", "bivariate_resultant"):
        def counting(*args, name=name, real=getattr(numfield, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(numfield, name, counting)
    rng = random.Random(4)
    found = 0
    for field in QUADRATIC_FIELDS:
        for f, planted, _ in _planted_quadratic_cases(field, rng, 4):
            found += len(find_roots_in_field(f).roots)
    assert calls == [] and found >= 20


@settings(deadline=None)
@given(st.sampled_from([QQ, GAUSS]),
       st.lists(st.tuples(small_fraction, small_fraction), max_size=7),
       st.integers(0, 3), st.integers(-5, 5))
def test_poly_interpolate_recovers_polynomials(field, coeffs, extra, shift):
    f = poly_trim([field.element(pair[:field.degree]) for pair in coeffs])
    nodes = [Fraction(shift + 3 * k, 2) for k in range(len(coeffs) + extra)]
    values = [poly_eval(f, field.element(x)) for x in nodes]
    assert poly_interpolate(nodes, values, field) == f


# ---------------------------------------------------------------------------
# the residue field of K
# ---------------------------------------------------------------------------

def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _mod(q, p):
    return q.numerator * pow(q.denominator, -1, p) % p


@pytest.mark.parametrize("field", [
    QQ, GAUSS, EISEN, ROOT5, NumberField.from_string("t^4-14*t^2+9"),
    NumberField.from_string("t^3-2"), NumberField.from_string("t^2-1/2"),
], ids=repr)
def test_residue_field_prime_and_root(field):
    # the residue fields F_P of K at the roots of m mod its first split prime
    P, roots, _ = field.split_prime(0)
    assert field.split_prime(0)[1] is roots
    assert P < 2 ** 31 and _trial_division_prime(P)
    assert all(c.denominator % P for c in field.minpoly)
    assert len(set(roots)) == field.degree
    for r in roots:
        value = sum(_mod(c, P) * pow(r, i, P)
                    for i, c in enumerate(field.minpoly))
        assert value % P == 0


def test_miller_rabin_agrees_with_trial_division():
    assert all(_is_prime(n) == _trial_division_prime(n) for n in range(3000))
    for n in (2 ** 31 - 1, 2 ** 31 - 19, 1105, 2047, 1373653, 25326001,
              3215031749):
        assert _is_prime(n) == _trial_division_prime(n)


def _int_elements(field):
    return st.lists(st.integers(-9, 9), min_size=field.degree,
                    max_size=field.degree).map(field.element)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_residue_map_is_a_ring_homomorphism(data):
    # on elements with int coordinates, and on a quotient once its
    # denominators are cleared
    field = data.draw(st.sampled_from([QQ, EISEN, ROOT5]))
    a, b = data.draw(_int_elements(field)), data.draw(_int_elements(field))
    P, roots, _ = field.split_prime(data.draw(st.integers(0, 2)))
    for r in roots:
        x, y = residue(a, P, r), residue(b, P, r)
        assert residue(a + b, P, r) == (x + y) % P
        assert residue(a - b, P, r) == (x - y) % P
        assert residue(a * b, P, r) == x * y % P
        assert residue(a * 3, P, r) == residue(3, P, r) * x % P
        if y:
            den = denominator(a / b)
            assert den % P
            assert residue(a / b * den, P, r) == \
                x * pow(y, -1, P) * den % P


# ---------------------------------------------------------------------------
# bivariate resultants from word-size primes
# ---------------------------------------------------------------------------

QUARTIC = NumberField.from_string("t^4-14*t^2+9")
HALF_ROOT3 = NumberField.from_string("t^2-3/4")       # non-integral minpoly
RESULTANT_FIELDS = [QQ, GAUSS, EISEN, QUARTIC, HALF_ROOT3]


def _bi_mul(p, q, field):
    out = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, field.zero()) + a * b
    return {key: c for key, c in out.items() if not c.is_zero()}


def _element(rng, field, fractions):
    coords = [rng.randint(-4, 4) for _ in range(field.degree)]
    if fractions:
        coords = [Fraction(c, rng.randint(1, 6)) for c in coords]
    if not any(coords):
        coords[0] = 1
    return field.element(coords)


def _bivariate(rng, field, ydeg, xdeg, fractions=False):
    """A random dict {(i, j): c} of y-degree ydeg and x-degree <= xdeg."""
    p = {(i, j): _element(rng, field, fractions)
         for j in range(ydeg + 1) for i in range(xdeg + 1)
         if rng.random() < 0.6}
    p[(rng.randint(0, xdeg), ydeg)] = _element(rng, field, fractions)
    return p


def _dense(rng, field, total):
    """Every monomial of total degree <= ``total``, so y^total is in it."""
    return {(i, j): _element(rng, field, False)
            for j in range(total + 1) for i in range(total + 1 - j)}


def _resultant_pair(kind, rng, field):
    if kind == "fractions":
        return (_bivariate(rng, field, rng.randint(1, 3), 2, True),
                _bivariate(rng, field, rng.randint(1, 3), 2, True))
    if kind == "vanishing-leads":
        # both leading y-coefficients vanish at two of x = 0, 1, 2
        lead = {(0, 0): field.one()}
        for root in rng.sample([0, 1, 2], 2):
            lead = _bi_mul(lead, {(1, 0): field.one(),
                                  (0, 0): field.element(-root)}, field)
        p, q = _bivariate(rng, field, 1, 1), _bivariate(rng, field, 2, 2)
        return ({**p, **{(i, 2): c for (i, _), c in lead.items()}},
                {**q, **{(i, 3): c for (i, _), c in lead.items()}})
    if kind == "content":
        # every coordinate divisible by the first primes the field offers,
        # so those primes are skipped
        scale = field.split_prime(0)[0] * field.split_prime(1)[0]
        p, q = _bivariate(rng, field, 2, 2), _bivariate(rng, field, 2, 1)
        return {key: c * scale for key, c in p.items()}, q
    if kind == "y-free":
        p = _bivariate(rng, field, 0, 2, True)
        q = _bivariate(rng, field, rng.randint(0, 2), 2, True)
        return (p, q) if rng.random() < 0.5 else (q, p)
    if kind == "common-factor":
        f = _bivariate(rng, field, 1, 1)
        return (_bi_mul(f, _bivariate(rng, field, 1, 1), field),
                _bi_mul(f, _bivariate(rng, field, 2, 1), field))
    # "degree-bound": dense forms whose resultant attains n a + m b - m n
    return _dense(rng, field, 2), _dense(rng, field, rng.randint(1, 2))


@pytest.mark.parametrize("field", RESULTANT_FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["fractions", "vanishing-leads", "content",
                                  "y-free", "common-factor", "degree-bound"])
def test_bivariate_resultant_matches_the_reference(kind, field):
    rng = random.Random("%s %s" % (kind, field))
    for _ in range(3):
        p, q = _resultant_pair(kind, rng, field)
        res = bivariate_resultant(p, q, field)
        assert res == reference_resultant(p, q, field)
        if kind == "common-factor":
            assert res == []
        if kind == "degree-bound":
            (a, m), (b, n) = (max((i + j, j) for i, j in f) for f in (p, q))
            assert poly_degree(res) == n * a + m * b - m * n


def test_bivariate_resultant_of_y_free_inputs_is_a_power():
    x_plus_a = {(1, 0): GAUSS.one(), (0, 0): GAUSS.element((0, 1))}
    q = {(0, 3): GAUSS.one(), (2, 0): GAUSS.element(5)}
    linear = [GAUSS.element((0, 1)), GAUSS.one()]
    cube = poly_mul(poly_mul(linear, linear), linear)
    assert bivariate_resultant(x_plus_a, q, GAUSS) == cube
    square = {(0, 2): GAUSS.one(), (0, 0): GAUSS.element(-2)}
    assert bivariate_resultant(square, x_plus_a, GAUSS) == poly_mul(linear,
                                                                    linear)
    assert bivariate_resultant(x_plus_a, {(0, 0): GAUSS.element(7)},
                               GAUSS) == [GAUSS.one()]


@pytest.mark.parametrize("primes", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_bivariate_resultant_is_exact_at_the_edge_of_its_bound(primes, sign):
    # Res_y(y, y + c) = c, and the bound is 1 * (|c| + 1); with |c| = M - 2
    # for the product M of the first primes, M <= 2B, so one more prime
    # is needed before the symmetric lift is c and not c -/+ M
    modulus = math.prod(QQ.split_prime(i)[0] for i in range(primes))
    c = sign * (modulus - 2)
    res = bivariate_resultant({(0, 1): QQ.one()},
                              {(0, 1): QQ.one(), (0, 0): QQ.element(c)}, QQ)
    assert res == [QQ.element(c)]


@pytest.mark.parametrize("sign", [1, -1])
def test_bivariate_resultant_is_exact_at_the_edge_of_its_field_factor(sign):
    # over K = Q(t), t^2 = 5t + 1: Res_y(y + s t, sign s t y^2) = sign s^3
    # t^3, which has t-degree (m + n)(k - 1) = 3 and is sign s^3 (5 + 26 t)
    # in K.  The rows t^e mod mu, e <= 3, are (1, 0), (0, 1), (1, 5) and
    # (5, 26); their absolute coordinates sum to 7 and 32, and the bound
    # is (H + 1) 32 with H = s (1 + s^2).  With 14 (s^3 + s + 1) < P <
    # 52 s^3 for the first split prime P, coordinate 1 exceeds P / 2, and
    # a bound that took the field factor 7 of coordinate 0 would stop
    # after P
    field = NumberField.from_string("t^2-5*t-1")
    P = field.split_prime(0)[0]
    s = round((P / 30) ** (1 / 3))
    assert 14 * (s ** 3 + s + 1) < P < 52 * s ** 3
    p = {(0, 1): field.one(), (0, 0): field.element((0, s))}
    q = {(0, 2): field.element((0, sign * s))}
    expected = [field.element((sign * 5 * s ** 3, sign * 26 * s ** 3))]
    assert bivariate_resultant(p, q, field) == expected
    assert reference_resultant(p, q, field) == expected


@pytest.mark.parametrize("field", [QQ, GAUSS, EISEN], ids=repr)
def test_hadamard_bound_takes_fewer_primes(field, monkeypatch):
    # dense pairs of y-degree 10: the row-sum bound of the Sylvester matrix
    # exceeds the Hadamard bound by about 11^10, and the result stays exact
    rng = random.Random(field.degree)
    p, q = ({(i, j): field.element([rng.randint(-9, 9)
                                     for _ in range(field.degree)])
             for i in range(2) for j in range(11)} for _ in "pq")
    used = []
    split_prime = type(field).split_prime

    def counting(self, i):
        used.append(i)
        return split_prime(self, i)

    monkeypatch.setattr(type(field), "split_prime", counting)
    assert bivariate_resultant(p, q, field) == reference_resultant(p, q,
                                                                   field)
    norm = [sum(abs(x) for c in poly.values() for x in c.coeffs)
            for poly in (p, q)]
    delta_mu = int(sum(abs(x) for x in field.minpoly))
    steps = max(0, 20 * (field.degree - 1) - field.degree + 1)
    row_sum = norm[0] ** 10 * norm[1] ** 10 * (1 + delta_mu) ** steps
    modulus = math.prod(split_prime(field, i)[0] for i in used)
    assert modulus < 2 * row_sum


def test_residue_fields_and_split_primes():
    # the first split prime and the first root of m mod it: on Q, Q(i),
    # Q(j) and the quartic, the largest prime with a root and the root the
    # splitting reaches first, as in the residue field of the earlier h0;
    # t^3 - t - 1 and t^4 + t + 1 split completely only at smaller primes
    fields = [QQ, GAUSS, EISEN, QUARTIC, NumberField.from_string("t^3-t-1"),
              NumberField.from_string("t^4+t+1")]
    assert [f.split_prime(0)[:2] for f in fields[:4]] == [
        (2147483647, [0]), (2147483629, [1518275076, 629208553]),
        (2147483647, [1513477735, 634005911]),
        (2147483489, [2058650624, 88832865, 1086314271, 1061169218])]
    assert [f.split_prime(0)[0] for f in fields[4:]] == [2147483563,
                                                          2147480623]
    for field in fields:
        primes = [field.split_prime(i)[0] for i in range(3)]
        assert primes == sorted(set(primes), reverse=True)
        for i, P in enumerate(primes):
            roots = field.split_prime(i)[1]
            assert _is_prime(P) and len(set(roots)) == field.degree
            assert all(sum(_mod(c, P) * pow(r, e, P) for e, c in
                           enumerate(field.minpoly)) % P == 0 for r in roots)


# the first eight split primes of five quadratic fields and the roots at the
# eighth, as the generic splitting found them before the closed form
QUADRATIC_SPLIT_PRIMES = {
    "t^2+1": ([2147483629, 2147483549, 2147483497, 2147483489, 2147483477,
               2147483353, 2147483269, 2147483249], [1940280148, 207203101]),
    "t^2+t+1": ([2147483647, 2147483629, 2147483587, 2147483563, 2147483497,
                 2147483353, 2147483323, 2147483269], [195207388, 1952275880]),
    "t^2-2": ([2147483647, 2147483543, 2147483497, 2147483489, 2147483423,
               2147483399, 2147483353, 2147483249], [1921895135, 225588114]),
    "t^2-5": ([2147483629, 2147483579, 2147483549, 2147483489, 2147483399,
               2147483269, 2147483249, 2147483179], [1945977510, 201505669]),
    "t^2-3/4": ([2147483629, 2147483579, 2147483543, 2147483497, 2147483423,
                 2147483399, 2147483353, 2147483269], [275621779, 1871861490]),
}


@pytest.mark.parametrize("minpoly", sorted(QUADRATIC_SPLIT_PRIMES))
def test_quadratic_split_primes_come_from_the_closed_form_unchanged(minpoly):
    # the closed form gives the primes, roots and inverse Vandermonde
    # matrices that the generic splitting gives
    field = NumberField.from_string(minpoly)
    found = [field.split_prime(i) for i in range(8)]
    primes, roots = QUADRATIC_SPLIT_PRIMES[minpoly]
    assert [P for P, _, _ in found] == primes and found[7][1] == roots
    assert found == reference_split_primes(field, 8)


# ---------------------------------------------------------------------------
# the univariate kernel over Fraction lists, Q(i) and a quartic field
# ---------------------------------------------------------------------------

KERNEL_DOMAINS = [None, GAUSS, QUARTIC]      # None: plain Fraction lists


def _kernel_poly(domain, rows):
    if domain is None:
        return poly_trim(row[0] for row in rows)
    return poly_trim(domain.element(row[:domain.degree]) for row in rows)


def _monic(p):
    return [c / p[-1] for c in p]


kernel_rows = st.lists(st.lists(st.builds(Fraction, st.integers(-4, 4),
                                          st.integers(1, 3)),
                                min_size=4, max_size=4), max_size=4)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(KERNEL_DOMAINS), kernel_rows, kernel_rows,
       kernel_rows, st.booleans())
def test_poly_kernel_division_gcd_and_inverse(domain, a, b, c, shared):
    p, m = _kernel_poly(domain, a), _kernel_poly(domain, b)
    if shared:
        # a common factor makes gcd(p, m) nontrivial more often
        common = _kernel_poly(domain, c)
        p, m = poly_mul(p, common), poly_mul(m, common)
    assume(poly_degree(m) >= 1)
    quo, rem = poly_divmod(p, m)
    assert poly_sub(p, poly_mul(quo, m)) == rem
    assert len(rem) < len(m)
    g = poly_gcd(p, m)
    assert g[-1] == 1
    assert poly_divmod(p, g)[1] == [] and poly_divmod(m, g)[1] == []
    inv = poly_inverse_mod(p, m)
    if len(g) > 1:
        assert inv is None
    else:
        assert len(inv) < len(m)
        assert poly_divmod(poly_sub(poly_mul(inv, p), [1]), m)[1] == []


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(KERNEL_DOMAINS), kernel_rows, kernel_rows)
def test_poly_squarefree_part_of_f_g_squared(domain, a, b):
    f = _kernel_poly(domain, a)
    g = _kernel_poly(domain, b)
    assume(f and g)
    f, g = poly_squarefree_part(f), poly_squarefree_part(g)
    assume(len(poly_gcd(f, g)) == 1)
    fg = poly_mul(f, g)
    assert poly_squarefree_part(poly_mul(fg, g)) == _monic(fg)


def _typed(p):
    """A list with the type of every coefficient, and of every coordinate
    of an element, next to its value."""
    return [(type(c), c.field, [(type(x), x) for x in c.coeffs])
            if isinstance(c, FieldElement) else (type(c), c) for c in p]


def _z_kernel_cases(rng):
    """Seeded pairs over Q as Fraction lists: forced common factors,
    contents > 1, negative leading coefficients, large denominators, zero
    and constant inputs, and the root 0 and repeated rational roots."""
    def poly(degree, big=False):
        top = 10 ** 20 if big else 9
        den = 10 ** 18 if big else 7
        return [Fraction(rng.randint(-top, top), rng.randint(1, den))
                for _ in range(degree)] + [Fraction(rng.choice((-1, 1)) *
                                                    rng.randint(1, top),
                                                    rng.randint(1, den))]

    def linear():
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1]

    cases = [([], []), ([], [Fraction(3, 4)]), ([Fraction(-6)], []),
             ([5], [0, 0]), ([0, 0, 0], [Fraction(2, 3), 4]),
             ([7], [Fraction(-1, 2), 0, 3]), ([0, 1], [0, 0, 2])]
    for _ in range(40):
        big = rng.random() < 0.3
        common = poly(rng.randint(0, 3), big)
        p = poly_mul(poly(rng.randint(0, 3), big), common)
        q = poly_mul(poly(rng.randint(0, 3), big), common)
        content = rng.choice((1, 6, -35, 10 ** 15))
        cases.append(([c * content for c in p], q))
    for _ in range(20):
        # x^k times repeated rational roots times a cofactor
        f = [0] * rng.randint(0, 3) + [rng.choice((-4, -1, 3))]
        for _ in range(rng.randint(1, 3)):
            root = linear()
            for _ in range(rng.randint(1, 3)):
                f = poly_mul(f, root)
        f = poly_mul(f, poly(rng.randint(0, 2), rng.random() < 0.3))
        cases.append((f, poly_derivative(f)))
    return cases


def _as_ints(p):
    """p times the lcm of its denominators, as ints."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    return [int(c * den) for c in p]


def test_z_kernel_matches_euclid_over_fraction():
    # the Z[x] gcd, squarefree part and rational roots return the values
    # and types of Euclid over Fraction, on int, Fraction and QQ lists
    cases = _z_kernel_cases(random.Random(28))
    seen = {"common factor": 0, "repeated root": 0, "root 0": 0}
    for p, q in cases:
        for convert in (_as_ints, list,
                        lambda p: [QQ.element(c) for c in p]):
            a, b = convert(p), convert(q)
            g = poly_gcd(a, b)
            assert _typed(g) == _typed(reference_gcd(a, b))
            seen["common factor"] += len(g) > 1
        for f in (p, q):
            f = [QQ.element(c) for c in poly_trim(f)]
            if not f:
                continue
            rational = [c.coeffs[0] for c in f]
            squarefree = _z_squarefree(_primitive(f))
            squarefree = [Fraction(c, squarefree[-1]) for c in squarefree]
            for given in (rational, _as_ints(rational)):
                assert (_typed(squarefree)
                        == _typed(reference_squarefree_part(given)))
            expected = reference_roots_over_q(f)
            for given in (f, _as_ints(rational)):
                roots, remaining, cofactor = find_roots_in_field(given, QQ)
                assert _typed(roots) == _typed(expected[0])
                assert remaining == expected[1]
                assert _typed(cofactor) == _typed(expected[2])
            seen["root 0"] += not f[0] and len(f) > 2
            seen["repeated root"] += len(squarefree) < len(f)
    assert min(seen.values()) >= 10, seen


def test_z_kernel_exact_division_refuses_a_remainder():
    # (2x - 1)(2x + 1) over 2x + 1 is exact; (x + 1)(x + 2) over 2x + 1
    # fails at the top step, x^2 + 1 over x + 1 only at the end
    assert _z_quotient([-1, 0, 4], [1, 2]) == [-1, 2]
    for p, q in (([2, 3, 1], [1, 2]), ([1, 0, 1], [1, 1])):
        with pytest.raises(RuntimeError):
            _z_quotient(p, q)
    assert _primitive([Fraction(-3, 4), 0, Fraction(-3, 2)]) == [1, 0, 2]
    assert _primitive([QQ.element(6), QQ.zero()]) == [1]
    assert _primitive([0, 0]) == []
