"""The FieldElement kernel against a plain Fraction-list reference.

Coordinates are stored as ints where integral and Fractions otherwise; the
reference multiplies coordinate lists as polynomials in t and reduces them
mod the minimal polynomial by long division, all in Fractions.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from folint.cli import load_foliation
from folint.engine import pipeline
from folint.numfield import QQ, FieldElement, NumberField
from folint.resolve import build_configuration

GAUSS = NumberField((1, 0, 1))                      # t^2 + 1
# t^3 - t - 1/3: no rational root, so irreducible; its reduction table
# t^k mod m has non-integral entries
CUBIC = NumberField((Fraction(-1, 3), -1, 0, 1))
FIELDS = [QQ, GAUSS, CUBIC]

coordinate = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.integers(-10 ** 30, 10 ** 30))


def ref_reduce(poly, field):
    """poly mod m, as field.degree Fractions."""
    poly = [Fraction(c) for c in poly]
    m = [Fraction(c) for c in field.minpoly]
    n = field.degree
    for k in range(len(poly) - 1, n - 1, -1):
        c = poly[k]
        for j in range(n + 1):
            poly[k - n + j] -= c * m[j]
    return (poly + [Fraction(0)] * n)[:n]


def ref_mul(a, b, field):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    return ref_reduce(prod, field)


def ref_pow(a, k, field):
    out = ref_reduce([1], field)
    for _ in range(k):
        out = ref_mul(out, a, field)
    return out


def coords(x, field):
    """The reference coordinates of a FieldElement, int or Fraction."""
    if isinstance(x, FieldElement):
        return [Fraction(c) for c in x.coeffs]
    return ref_reduce([x], field)


def canonical(x):
    """Every coordinate is exactly an int or a Fraction (never a float or a
    bool), and a Fraction only while it has a denominator."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in x.coeffs)


@st.composite
def elements(draw, field):
    return field.element([draw(coordinate) for _ in range(field.degree)])


@st.composite
def operands(draw, field):
    """A field element, or an int or Fraction that coerces into it."""
    kind = draw(st.sampled_from(["element", "int", "fraction"]))
    if kind == "int":
        return draw(st.integers(-6, 6))
    if kind == "fraction":
        return draw(st.fractions(min_value=-6, max_value=6,
                                 max_denominator=6))
    return draw(elements(field))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_ring_operations_match_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(elements(field))
    b = data.draw(operands(field))
    ca, cb = coords(a, field), coords(b, field)
    results = {
        "a + b": (a + b, [x + y for x, y in zip(ca, cb)]),
        "b + a": (b + a, [x + y for x, y in zip(ca, cb)]),
        "a - b": (a - b, [x - y for x, y in zip(ca, cb)]),
        "b - a": (b - a, [y - x for x, y in zip(ca, cb)]),
        "-a": (-a, [-x for x in ca]),
        "a * b": (a * b, ref_mul(ca, cb, field)),
        "b * a": (b * a, ref_mul(ca, cb, field)),
    }
    for label, (got, want) in results.items():
        assert isinstance(got, FieldElement), label
        assert canonical(got), (label, got.coeffs)
        assert [Fraction(c) for c in got.coeffs] == want, label
    one = ref_reduce([1], field)
    if any(cb):
        q = a / b
        assert canonical(q)
        assert ref_mul(coords(q, field), cb, field) == ca
    if any(ca):
        inv = a.inverse()
        assert canonical(inv)
        assert ref_mul(coords(inv, field), ca, field) == one
        r = b / a
        assert canonical(r)
        assert ref_mul(coords(r, field), ca, field) == cb


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_powers_match_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(elements(field))
    k = data.draw(st.integers(0, 6))
    ca = coords(a, field)
    got = a ** k
    assert canonical(got)
    assert coords(got, field) == ref_pow(ca, k, field)
    if any(ca):
        neg = a ** -k
        assert canonical(neg)
        assert ref_mul(coords(neg, field), ref_pow(ca, k, field),
                       field) == ref_reduce([1], field)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_equal_values_hash_alike(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(elements(field))
    b = data.draw(elements(field))
    c = data.draw(elements(field))
    pairs = [
        ((a * b) * c, a * (b * c)),
        (a * (b + c), a * b + a * c),
        (a - a, field.zero()),
        (a + 0, a),
        (field.element([Fraction(x) for x in a.coeffs]), a),
        (field.element([str(x) for x in a.coeffs]), a),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
        assert x.sort_key() == y.sort_key()
        assert canonical(x) and canonical(y)


def test_rational_elements_hash_like_their_value():
    # a rational element equals its int or Fraction value, so sets and
    # dicts must not tell them apart
    assert len({QQ.element(3), 3}) == 1
    assert hash(GAUSS.element(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert {Fraction(-7, 3): "x"}[CUBIC.element(Fraction(-7, 3))] == "x"


def test_integral_results_are_ints():
    half = GAUSS.element((Fraction(1, 2), Fraction(-3, 2)))
    two = half * 2
    assert two.coeffs == (1, -3) and all(type(c) is int for c in two.coeffs)
    assert type(QQ.element(Fraction(4, 2)).coeffs[0]) is int
    assert type(QQ.element(True).coeffs[0]) is int
    assert type((QQ.one() + True).coeffs[0]) is int
    assert type(QQ.element(2).as_fraction()) is Fraction
    assert QQ.element(-2).inverse().coeffs == (Fraction(-1, 2),)
    assert type(QQ.element(Fraction(1, 3)).inverse().coeffs[0]) is int


FIXTURES = Path(__file__).parent.parent / "fixtures"


def inexact_coordinates(values):
    """The coordinates of the given field elements that are not exactly an
    int or a Fraction."""
    return [c for x in values for c in x.coeffs
            if type(c) not in (int, Fraction)]


@pytest.mark.parametrize("name", [
    "example1", "fig2", "fig3", "family_a0", "family_a59", "family_a861",
    "penultimate"])
def test_resolve_and_decide_keep_coordinates_exact(name):
    omega, _ = load_foliation(str(FIXTURES / (name + ".fol")))
    config = build_configuration(omega)
    seen = []
    for point in config.points:
        seen.extend(point.origin if point.is_root() else
                    [point.c] if point.chart == 1 else [])
    verdict = pipeline(omega, config)
    for form in (verdict.numerator, verdict.denominator):
        if form is not None:
            seen.extend(form.coeffs.values())
    assert seen and all(isinstance(x, FieldElement) for x in seen)
    assert inexact_coordinates(seen) == []
