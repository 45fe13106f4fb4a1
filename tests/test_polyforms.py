import random
from fractions import Fraction

import pytest

from folint import polyforms
from folint.numfield import QQ, FieldElement, NumberField
from folint.polyforms import (
    HomogeneousForm, ProjectiveOneForm, divides, foliation_degree, format_form,
    gcd3, is_first_integral, is_invariant_curve, monomials, parse_form,
)

import helpers
from helpers import one_form_from_pencil, partial, variable, wedge_d

X = variable(QQ, 0)
Y = variable(QQ, 1)
Z = variable(QQ, 2)

PENCIL_OF_LINES = ProjectiveOneForm(Y, -X, HomogeneousForm(QQ, 1, {}))

GAUSS = NumberField((1, 0, 1))
CUBIC = NumberField((-2, 0, 0, 1))

FIG2_A = parse_form("2*Y*Z^5")
FIG2_B = parse_form("-7*Y^5*Z-3*X*Z^5+Y*Z^5")
FIG2_C = parse_form("7*Y^6+X*Y*Z^4-Y^2*Z^4")
FIG2 = ProjectiveOneForm(FIG2_A, FIG2_B, FIG2_C)
FIG2_F1 = parse_form("Y^10-2*X*Y^5*Z^4+2*Y^6*Z^4+X^2*Z^8-2*X*Y*Z^8+Y^2*Z^8")
FIG2_F2 = parse_form("Y^3*Z^7")


def test_euler_condition_enforced():
    with pytest.raises(ValueError):
        ProjectiveOneForm(Y, X, HomogeneousForm(QQ, 1, {}))
    with pytest.raises(ValueError):
        ProjectiveOneForm(Y * Z, -X * Z, HomogeneousForm(QQ, 2, {}))


def test_wedge_d_hand_expansions():
    # dZ ^ (Y dX - X dY) = X dY^dZ + Y dZ^dX
    two = wedge_d(Z, PENCIL_OF_LINES)
    assert two[0] == X
    assert two[1] == Y
    assert two[2].is_zero()
    # dX ^ (Y dX - X dY) = -X dX^dY
    two = wedge_d(X, PENCIL_OF_LINES)
    assert two[0].is_zero()
    assert two[1].is_zero()
    assert two[2] == -X


def test_wedge_d_linear_in_g():
    g1 = parse_form("X^2+Y*Z")
    g2 = parse_form("X*Y-Z^2")
    lhs = wedge_d(g1 + g2, FIG2)
    rhs = wedge_d(g1, FIG2)
    rhs2 = wedge_d(g2, FIG2)
    for a, b, c in zip(lhs, rhs, rhs2):
        assert a == b + c


def test_invariant_curves_fig2():
    assert is_invariant_curve(Z, FIG2)
    assert is_invariant_curve(Y, FIG2)
    assert not is_invariant_curve(X + Y + Z, PENCIL_OF_LINES)
    assert is_invariant_curve(X, PENCIL_OF_LINES)


def test_invariance_refuses_a_constant():
    # a constant divides every component but defines no curve
    with pytest.raises(ValueError, match="constant"):
        is_invariant_curve(HomogeneousForm.constant(QQ, 5), FIG2)


def test_first_integral_fig2():
    assert is_first_integral(FIG2_F1, FIG2_F2, FIG2)
    # a constant F/G is no first integral
    assert not is_first_integral(FIG2_F1, FIG2_F1, FIG2)
    assert not is_first_integral(FIG2_F1, FIG2_F1 * Fraction(-2, 3), FIG2)
    assert not is_first_integral(X, Z, PENCIL_OF_LINES)
    assert is_first_integral(X, Y, PENCIL_OF_LINES)


def test_first_integral_scaling_invariance():
    scaled_f = FIG2_F1 * Fraction(7, 3)
    scaled_g = FIG2_F2 * (-2)
    assert is_first_integral(scaled_f, scaled_g, FIG2)


def test_invariant_factors_of_pencil_members():
    # F1 = H^2 with H = X Z^4 - Y Z^4 - Y^5; both H and the factors of F2
    # must be invariant curves
    h = parse_form("X*Z^4-Y*Z^4-Y^5")
    assert h * h == FIG2_F1
    assert is_invariant_curve(h, FIG2)
    assert is_invariant_curve(Y, FIG2)
    assert is_invariant_curve(Z, FIG2)


def test_gcd3_examples():
    assert gcd3(X * Y, X * Z, X * X) == X
    assert gcd3(X, Y, Z).degree == 0
    f1 = parse_form("X^2-Y^2")
    f2 = parse_form("X^2+X*Y")
    f3 = parse_form("X*Z+Y*Z")
    assert gcd3(f1, f2, f3) == X + Y


def test_gcd3_with_extension_field():
    gauss = NumberField((1, 0, 1))
    i = gauss.gen()
    x = variable(gauss, 0)
    y = variable(gauss, 1)
    f = (x + y * i) * (x - y * i)
    g = (x + y * i) * x
    assert gcd3(f, g) == x + y * i


def _random_form(rng, field, degree):
    return HomogeneousForm(field, degree, {
        m: field.element(tuple(rng.randint(-3, 3)
                               for _ in range(field.degree)))
        for m in monomials(degree) if rng.random() < 0.7})


@pytest.mark.parametrize("field", [QQ, NumberField((1, 0, 1)),
                                   NumberField((1, 1, 1)), CUBIC], ids=repr)
def test_gcd3_certificate_against_the_prs(field):
    # seeded pairs with forced common factors, among them powers of Z and
    # the X-free Y - 2Z, whose resultant in x does not vanish; the gcd is
    # checked by its definition: a monic common divisor, a multiple of the
    # planted factor, whose two cofactors are certified coprime
    rng = random.Random(field.degree)
    x, y, z = (variable(field, i) for i in range(3))
    factors = [z, z ** 2, y - z * 2, (y - z * 2) * z, x + y * 3 - z,
               x * x - y * z]
    one = HomogeneousForm.constant(field, 1)
    certified = 0
    for _ in range(60):
        f, g = (_random_form(rng, field, rng.randint(1, 4)) for _ in "fg")
        h = rng.choice(factors) if rng.random() < 0.5 else None
        if f.is_zero() or g.is_zero():
            continue
        if h is not None:
            f, g = f * h, g * h
        coprime = polyforms._coprime(f, g)
        certified += coprime
        d = gcd3(f, g)
        assert d == d.monic() and not (coprime and d != one)
        cofactors = [divides(d, f), divides(d, g)]
        assert None not in cofactors
        assert polyforms._coprime(*cofactors)
        if h is not None:
            assert divides(h, d) is not None
    assert certified >= 20


@pytest.mark.parametrize("field", [QQ, NumberField((1, 0, 1))], ids=repr)
def test_coprime_certifies_with_the_prime_in_a_denominator(field):
    # (X + aY)/P + Z and X - Y + Z, a = 1 or i, with P the first split
    # prime: the forms are cleared of denominators before they are reduced
    # mod P, which keeps both x- and both y-leading coefficients
    P = field.split_prime(0)[0]
    x, y, z = (variable(field, i) for i in range(3))
    a = field.gen() if field.degree == 2 else field.one()
    f = (x + y * a) * field.element(Fraction(1, P)) + z
    g = x - y + z
    assert polyforms._coprime(f, g)
    assert polyforms._coprime(g, f)
    assert gcd3(f, g) == HomogeneousForm.constant(field, 1)


def test_gcd3_certifies_any_coprime_pair_before_the_prs(monkeypatch):
    # (A, B) share Y and (B, C) share Z: only (A, C) is coprime, and the
    # certificate spares the fallback
    A, B, C = X * Y, Y * Z, Z * (X + Y + Z)

    def no_fallback(f, g):
        raise AssertionError("fallback on %s, %s" % (f, g))

    monkeypatch.setattr(polyforms, "_kernel_gcd", no_fallback)
    one = HomogeneousForm.constant(QQ, 1)
    assert gcd3(A, B, C) == one
    assert gcd3(C, B, A) == one


def test_gcd3_without_a_coprime_pair_runs_the_prs(monkeypatch):
    # every pair of XY, YZ, ZX shares a variable, so only the fallback
    # finds 1
    calls = []
    fallback = polyforms._kernel_gcd

    def counting(f, g):
        calls.append((f, g))
        return fallback(f, g)

    monkeypatch.setattr(polyforms, "_kernel_gcd", counting)
    assert gcd3(X * Y, Y * Z, Z * X) == HomogeneousForm.constant(QQ, 1)
    assert calls


def test_foliation_degree():
    assert foliation_degree(PENCIL_OF_LINES) == 0
    assert foliation_degree(FIG2) == 5
    a = parse_form("-3*X^2*Y^3+9*X^2*Y^2*Z-9*X^2*Y*Z^2+3*X^2*Z^3")
    b = parse_form("3*X^3*Y^2-6*X^3*Y*Z-5*Y^4*Z+3*X^3*Z^2")
    c = parse_form("-3*X^3*Y^2+5*Y^5+6*X^3*Y*Z-3*X^3*Z^2")
    assert foliation_degree(ProjectiveOneForm(a, b, c)) == 4


def test_divides():
    f = (X + Y) * (X - Z) * (X - Z)
    assert divides(X - Z, f) == (X + Y) * (X - Z)
    assert divides(X + Z, f) is None


def test_one_form_from_pencil():
    omega = one_form_from_pencil(FIG2_F1, FIG2_F2)
    assert is_first_integral(FIG2_F1, FIG2_F2, omega)
    assert foliation_degree(omega) == 5


def test_parse_with_field_generator():
    gauss = NumberField((1, 0, 1))
    conic = parse_form(
        "(8*a-1)*X^2+4*a*X*Y+8*Y^2+(2-8*a)*X*Z-4*a*Y*Z-Z^2", gauss)
    assert conic.degree == 2
    assert conic.coeffs[(2, 0, 0)] == gauss.element((-1, 8))
    rebuilt = parse_form(format_form(conic), gauss)
    assert rebuilt == conic


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        parse_form("X^2+Y")


def _random_tree(rng, degree, letters, depth):
    """A random expression tree of a homogeneous form of the degree:
    ("num", text, value), ("var", letter), ("neg", t), ("+", t, u),
    ("-", t, u), ("*", t, u) and ("^", t, k)."""
    if depth <= 0 or rng.random() < 0.25:
        if degree == 1:
            return ("var", rng.choice("XYZ"))
        if degree > 1:
            return ("*", ("var", rng.choice("XYZ")),
                    _random_tree(rng, degree - 1, letters, 0))
        if "a" in letters and rng.random() < 0.3:
            return ("var", "a")
        if rng.random() < 0.5:
            n = rng.randint(0, 12)
            return ("num", str(n), n)
        p, q = rng.randint(0, 9), rng.randint(1, 6)
        return ("num", "%d/%d" % (p, q), Fraction(p, q))
    kind = rng.choice(["+", "-", "neg", "*", "*", "^"])
    if kind == "^":
        k = rng.choice([0, 1, 2, 3]) if degree == 0 else rng.choice(
            [k for k in (1, 2, 3) if degree % k == 0])
        inner = rng.randint(0, 2) if k == 0 else degree // k
        return ("^", _random_tree(rng, inner, letters, depth - 1), k)
    if kind == "*":
        left = rng.randint(0, degree)
        return ("*", _random_tree(rng, left, letters, depth - 1),
                _random_tree(rng, degree - left, letters, depth - 1))
    if kind == "neg":
        return ("neg", _random_tree(rng, degree, letters, depth - 1))
    return (kind, _random_tree(rng, degree, letters, depth - 1),
            _random_tree(rng, degree, letters, depth - 1))


def _tokens(rng, tree):
    """The tokens of a text for the tree: products are written with * or
    by putting the factors side by side, and only what needs parentheses,
    plus some more at random, gets them."""
    kind = tree[0]
    if kind in ("num", "var"):
        out = [tree[1]]
    elif kind == "neg":
        out = ["-"] + _bracketed(rng, tree[1], ("neg", "+", "-"))
    elif kind in ("+", "-"):
        out = (_tokens(rng, tree[1]) + [kind]
               + _bracketed(rng, tree[2], ("neg", "+", "-")))
    elif kind == "*":
        left = _bracketed(rng, tree[1], ("neg", "+", "-"))
        right = _bracketed(rng, tree[2], ("neg", "+", "-"))
        out = left + (["*"] if rng.random() < 0.5 else []) + right
    else:
        base = tree[1]
        simple = base[0] == "var" or base[0] == "num"
        out = (_tokens(rng, base) if simple and rng.random() < 0.8
               else ["("] + _tokens(rng, base) + [")"]) + ["^", str(tree[2])]
    if rng.random() < 0.1:
        out = ["("] + out + [")"]
    return out


def _bracketed(rng, tree, loose):
    if tree[0] in loose:
        return ["("] + _tokens(rng, tree) + [")"]
    return _tokens(rng, tree)


def _render(rng, tokens):
    """The tokens as text, with whitespace before some of them; two number
    tokens side by side are kept apart."""
    text = ""
    for tok in tokens:
        gap = rng.choice(["", "", "", " ", "  ", "\t"])
        if not gap and text[-1:].isdigit() and tok[0].isdigit():
            gap = " "
        text += gap + tok
    return text


def _evaluate(tree, field):
    kind = tree[0]
    if kind == "num":
        return HomogeneousForm.constant(field, tree[2])
    if kind == "var":
        if tree[1] == "a":
            return HomogeneousForm.constant(field, field.gen())
        return variable(field, "XYZ".index(tree[1]))
    if kind == "neg":
        return -_evaluate(tree[1], field)
    if kind == "^":
        return _evaluate(tree[1], field) ** tree[2]
    left, right = _evaluate(tree[1], field), _evaluate(tree[2], field)
    if kind == "*":
        return left * right
    return left + right if kind == "+" else left - right


@pytest.mark.parametrize("field, letters", [(QQ, "XYZ"), (GAUSS, "XYZa")],
                         ids=["Q", "Q(i)"])
def test_parse_form_agrees_with_form_arithmetic(field, letters):
    # the grammar: sums, products by * or side by side, powers, p/q,
    # parentheses and whitespace before any token
    rng = random.Random(20)
    for _ in range(300):
        tree = _random_tree(rng, rng.randint(0, 4), letters, 5)
        text = _render(rng, _tokens(rng, tree))
        parsed, value = parse_form(text, field), _evaluate(tree, field)
        assert parsed == value or parsed.is_zero() and value.is_zero(), text


@pytest.mark.parametrize("text, message", [
    ("X + 2.5", "bad token at '.5'"),
    ("X+Y ", "bad token at ' '"),
    ("X)", "trailing input at token ')'"),
    ("X^-1", "exponent must be a positive integer"),
    ("X^1/2", "exponent must be a positive integer"),
    ("(X+Y", "missing closing parenthesis"),
    ("X+", "unexpected end of expression"),
    ("X*+Y", "unexpected token '+'"),
    ("X+W", "unknown variable 'W'"),
    ("X^2+Y", "polynomial 'X^2+Y' is not homogeneous"),
    ("X+1/0*Y", "zero denominator in '1/0'"),
    ("a*X", "generator 'a' used without a field: line"),
    ("X+(a", "generator 'a' used without a field: line"),
])
def test_parse_form_error_messages(text, message):
    with pytest.raises(ValueError) as err:
        parse_form(text)
    assert str(err.value) == message


def test_monomial_order():
    assert monomials(2)[0] == (2, 0, 0)
    assert monomials(2)[-1] == (0, 0, 2)
    assert len(monomials(4)) == 15



def random_form(rng, field, degree):
    """At most five terms with coordinates in -3..3 over 1..4, possibly
    the zero form."""
    def coordinate():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    order = monomials(degree)
    coeffs = {}
    for _ in range(rng.randint(0, 5)):
        coeffs[rng.choice(order)] = field.element(
            tuple(coordinate() for _ in range(field.degree)))
    return HomogeneousForm(field, degree, coeffs)


@pytest.mark.parametrize("field", [QQ, GAUSS, CUBIC],
                         ids=["Q", "Q(i)", "Q(2^(1/3))"])
def test_certificates_agree_with_the_three_component_references(field):
    """Random pencils G dF - F dG with Fraction coefficients: the
    one-component wedge test and the two-component invariance test agree
    with the full 2-form on the pencil itself, on perturbed pairs, on
    members of the pencil and on random curves, also when the forms are
    scaled to large denominators or to int coefficients with a content
    above 1, which the integral model must strip before it divides."""
    rng = random.Random(8)
    big, small = Fraction(2 ** 61 - 1, 3 ** 40), Fraction(7 ** 25, 2 ** 89 - 1)
    for _ in range(50):
        degree = rng.randint(1, 3)
        F = random_form(rng, field, degree)
        G = random_form(rng, field, degree)
        if all((G * partial(F, i) - F * partial(G, i)).is_zero()
               for i in range(3)):
            continue
        omega = one_form_from_pencil(F, G)
        assert is_first_integral(F, G, omega)
        assert helpers.is_first_integral(F, G, omega)
        other = rng.randint(1, 3)
        pairs = [(F + random_form(rng, field, degree), G),
                 (F, G + random_form(rng, field, degree)),
                 (random_form(rng, field, other),
                  random_form(rng, field, other)),
                 (F * big, G * small), ((F + G) * small, G * 6)]
        scaled = ProjectiveOneForm(*(c * small for c in omega.components()))
        for num, den in pairs:
            if not den.is_zero():
                assert (is_first_integral(num, den, omega)
                        == is_first_integral(num, den, scaled)
                        == helpers.is_first_integral(num, den, omega))
        lam = field.element((rng.randint(-3, 3), 1) if field.degree >= 2
                            else rng.randint(-3, 3))
        curves = [F, G, F + G * lam, random_form(rng, field, 1),
                  random_form(rng, field, rng.randint(1, 3))]
        curves += [c * k for c in curves[:3] + curves[-1:]
                   for k in (Fraction(6, 35), 30, big)]
        for curve in curves:
            if not curve.is_zero():
                assert (is_invariant_curve(curve, omega)
                        == is_invariant_curve(curve, scaled)
                        == helpers.is_invariant_curve(curve, omega))


def test_tests_over_q_build_no_field_element(monkeypatch):
    # over Q both tests run on the integral model's plain ints: omega's
    # model is made with omega, and F, G and the curve become ints
    F = parse_form("X^2 - 2/3*Y*Z + 5/7*Z^2")
    G = parse_form("(3*X - Y)*(X + 2*Z)")
    omega = one_form_from_pencil(F, G)
    other, member, line = G + X * Y, (F + G) * Fraction(6, 35), X + Y + Z
    built = []
    init = FieldElement.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    assert is_first_integral(F, G, omega)
    assert not is_first_integral(F, other, omega)
    assert is_invariant_curve(member, omega)
    assert not is_invariant_curve(line, omega)
    assert built == []
