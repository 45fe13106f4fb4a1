"""Homogeneous polynomials in (X:Y:Z) over a number field, and the
projective differential forms attached to plane foliations.

The 2-form basis is fixed as (dY^dZ, dZ^dX, dX^dY); monomial normalization
uses graded lexicographic order with X > Y > Z.  The wedge and invariance
tests compute only the components of their 2-forms that decide the answer:
the Euler relation of the 1-form makes the others follow (see their
docstrings).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add, sub

from . import modp
from .linalg import nullspace
from .numfield import (
    QQ, FieldElement, NumberField, exact_ring, integral, lift, residue,
)
from .textio import (
    coefficient_list, format_element, join_terms, parse_polynomial,
    scaled_term,
)

VARS = ("X", "Y", "Z")


class HomogeneousForm:
    """A homogeneous trivariate polynomial; zero coefficients are not
    stored."""

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: NumberField, degree: int, coeffs: dict):
        self.field = field
        self.degree = degree
        clean = {}
        for expo, c in coeffs.items():
            if sum(expo) != degree:
                raise ValueError("exponent %r does not have degree %d" %
                                 (expo, degree))
            if not c.is_zero():
                clean[expo] = c
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, field: NumberField, value) -> "HomogeneousForm":
        return cls(field, 0, {(0, 0, 0): field.element(value)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return not self.is_zero()

    # -- ring structure ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("forms over different fields")

    def __add__(self, other, op=add):
        """self + other, or self - other for op = sub; a zero form of any
        degree leaves the other term's degree."""
        self._check(other)
        if other.is_zero():
            return self
        if not self.is_zero() and self.degree != other.degree:
            raise ValueError("adding forms of degrees %d and %d" %
                             (self.degree, other.degree))
        return HomogeneousForm(self.field, other.degree,
                               _sum(self.coeffs, other.coeffs, op))

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = HomogeneousForm.constant(self.field, other)
        self._check(other)
        return HomogeneousForm(self.field, self.degree + other.degree,
                               _product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = HomogeneousForm.constant(self.field, 1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, HomogeneousForm)
                and self.field == other.field and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(
            (e, c.coeffs) for e, c in self.coeffs.items()))))

    # -- calculus -----------------------------------------------------------

    def dehomogenize(self, index: int) -> dict:
        """Set variable ``index`` to 1; keys are exponent pairs of the
        others, which fix the third exponent, so no two terms merge."""
        return {tuple(e for i, e in enumerate(expo) if i != index): c
                for expo, c in self.coeffs.items()}

    def monic(self) -> "HomogeneousForm":
        """Leading coefficient 1 in graded lex order, X > Y > Z."""
        if self.is_zero():
            return self
        return self * self.coeffs[max(self.coeffs)].inverse()

    def __repr__(self):
        return format_form(self)


def monomials(degree: int):
    """All exponent triples of the given degree, graded lex, X > Y > Z."""
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return out


# ---------------------------------------------------------------------------
# the coefficient loops, on dicts {(i, j, k): c} without zeros, over K or
# the integral model (``numfield.integral``): the operators of
# ``HomogeneousForm`` wrap them, and the wedge and invariance tests run them
# ---------------------------------------------------------------------------

def _sum(f: dict, g: dict, op=add) -> dict:
    """f + g, or f - g for op = sub."""
    out = dict(f)
    for key, c in g.items():
        v = op(out[key], c) if key in out else c if op is add else -c
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def _product(f: dict, g: dict) -> dict:
    out = {}
    for (i, j, k), a in f.items():
        for (p, q, r), b in g.items():
            key = (i + p, j + q, k + r)
            cur = out.get(key)
            v = a * b
            out[key] = v if cur is None else cur + v
    return {key: v for key, v in out.items() if v}


def _minus(a: dict, b: dict, c: dict, d: dict) -> dict:
    """a b - c d."""
    return _sum(_product(a, b), _product(c, d), sub)


def _partial(f: dict, index: int) -> dict:
    """The partial derivative in variable ``index``."""
    out = {}
    for expo, c in f.items():
        if expo[index]:
            new = list(expo)
            new[index] -= 1
            out[tuple(new)] = c * expo[index]
    return out


def _quotient(f: dict, d: dict, ring):
    """f / d for a nonzero d, or None when d does not divide f, by division
    in graded lex order over ``ring`` (``numfield.exact_ring``).

    Over K each step multiplies by the inverse of d's leading coefficient.
    Over the ints each step is an exact int division, for f and d whose
    quotient, if there is one, has int coefficients: each remainder is then
    d (h - h') for the int quotient h' found so far, whose leading
    coefficient is a multiple of d's, so a step that leaves a nonzero int
    remainder proves that d does not divide f in Q[X, Y, Z].
    """
    (a, b, c), lead = max(d.items())
    inv = None if type(ring) is int else lead.inverse()
    rem, quo = f, {}
    while rem:
        expo = max(rem)
        step = (expo[0] - a, expo[1] - b, expo[2] - c)
        factor, r = (divmod(rem[expo], lead) if inv is None
                     else (rem[expo] * inv, 0))
        if r or min(step) < 0:
            return None
        quo[step] = factor
        rem = _sum(rem, _product({step: factor}, d), sub)
    return quo


def divides(d: HomogeneousForm, f: HomogeneousForm):
    """Exact division test; returns the quotient or None."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero form")
    quo = _quotient(f.coeffs, d.coeffs, d.field)
    return None if quo is None else HomogeneousForm(
        f.field, max(f.degree - d.degree, 0), quo)


# ---------------------------------------------------------------------------
# gcd of homogeneous forms
# ---------------------------------------------------------------------------

def gcd3(*forms: HomogeneousForm) -> HomogeneousForm:
    """A gcd of homogeneous forms, monic in graded lex order: 1 as soon as
    any pair of them is certified coprime (``_coprime``), else folded by
    ``_kernel_gcd``."""
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        raise ValueError("gcd of all-zero forms")
    if any(_coprime(f, g) for f, g in combinations(nonzero, 2)):
        return HomogeneousForm.constant(nonzero[0].field, 1)
    g = nonzero[0]
    for f in nonzero[1:]:
        g = _kernel_gcd(g, f)
        if g.degree == 0:
            break
    return g.monic()


# specialisations tried per variable before ``_kernel_gcd`` takes over
_TRIES = 4


def _coprime(f: HomogeneousForm, g: HomogeneousForm) -> bool:
    """True when f and g are proven coprime from their images mod the first
    split prime P of K, at the first root r of the minimal polynomial.

    Let h = gcd(f, g), and let Z not divide both forms.  Then Z does not
    divide h, so h(x, y, 1) has the degree of h and divides f(x, y, 1) and
    g(x, y, 1).  If h is not constant, h(x, y, 1) has positive degree in x
    or in y, say in x.  Then f(x, y, 1) and g(x, y, 1) have positive
    x-degrees, and their resultant in x, taken at those degrees, is zero in
    K[y].  Scaling f and g by nonzero rationals keeps h, so they are first
    given int coordinates (``integral``); sending t -> r, y -> c for an int
    c is then a ring homomorphism onto F_P, and when neither x-leading
    coefficient vanishes there, the Sylvester matrix keeps its shape: the
    resultant maps to the resultant of the images, which would then be
    zero.  So one c with surviving leading coefficients and a
    nonzero resultant of the images rules out a common factor of positive
    x-degree; a form of x-degree 0 rules it out by itself.  The same with y
    and x = c rules out positive y-degree, and then h is constant.  False
    means only that no such certificate was found.
    """
    if f.degree == 0 or g.degree == 0:
        return True
    if min(e[2] for e in f.coeffs) and min(e[2] for e in g.coeffs):
        return False
    P, roots, _ = f.field.split_prime(0)
    images = [{(i, j): residue(c, P, roots[0])
               for (i, j, _), c in
               integral([form.coeffs], exact_ring(form.field))[0].items()}
              for form in (f, g)]
    for axis in (0, 1):
        tops = [max(key[axis] for key in image) for image in images]
        if not all(tops):
            continue
        for c in range(_TRIES):
            pair = []
            for image, top in zip(images, tops):
                coeffs = [0] * (top + 1)
                for key, v in image.items():
                    coeffs[key[axis]] += v * pow(c, key[1 - axis], P)
                pair.append([v % P for v in coeffs])
            if pair[0][-1] and pair[1][-1] and modp.resultant(*pair, P):
                break
        else:
            return False
    return True


def _kernel_gcd(f: HomogeneousForm, g: HomogeneousForm) -> HomogeneousForm:
    """gcd(f, g), monic, for forms of positive degree, read off the least
    nonzero kernel of (U, V) -> U f - V g.

    Let a = deg f >= b = deg g (else swap them), and for j < b let M_j be
    that map on forms U of degree j and V of degree j + a - b.  With
    h = gcd(f, g), f = h f' and g = h g' for coprime f' and g', so U f = V g
    means U f' = V g'.  Then g' divides U, since K[X, Y, Z] is a UFD, and
    U = W g', V = W f' for a form W of degree j - deg g'.  So ker M_j is
    {(W g', W f')}: zero for j < deg g' = b - deg h, and at j = deg g'
    spanned by (g', f'), where a kernel vector has U = c g' with c != 0
    and g / U = h / c.  The least j < b with a nonzero kernel thus gives
    h, and when there is none, deg g' = b and h is constant.  A power of
    Z in h is a factor like any other.

    The kernels are taken on the integral model (``numfield.integral``),
    which scales f and g by one nonzero rational and changes no kernel.
    A j whose matrix has full column rank mod the first split prime P is
    skipped without an exact elimination: its rank mod P is at most its
    rank in K (``numfield.residue``), so its kernel is zero.
    """
    if f.degree < g.degree:
        f, g = g, f
    field, shift = f.field, f.degree - g.degree
    ring = exact_ring(field)
    exact = integral([f.coeffs, g.coeffs], ring)
    P, roots, _ = field.split_prime(0)
    images = [{e: residue(c, P, roots[0]) for e, c in h.items()}
              for h in exact]
    for j in range(g.degree):
        image = _multiplication_rows(*images, j, shift, 0)
        if len(modp.rref(image, P)[1]) == len(image[0]):
            continue
        kernel = nullspace(_multiplication_rows(*exact, j, shift,
                                                lift(field.zero(), 1, ring)))
        if kernel:
            us = monomials(j)
            U = HomogeneousForm(field, j, {
                u: field.element(c) for u, c in zip(us, kernel[0][-len(us):])})
            return divides(U, g).monic()
    return HomogeneousForm.constant(field, 1)


def _multiplication_rows(f: dict, g: dict, j: int, shift: int, zero):
    """The matrix of (U, V) -> U f - V g for U of degree j and V of degree
    j + shift, with f of degree deg g + shift: one column per monomial of
    V, then of U, and one row per monomial of the product."""
    columns = ([(v, g, -1) for v in monomials(j + shift)]
               + [(u, f, 1) for u in monomials(j)])
    index = {e: i for i, e in enumerate(monomials(j + sum(next(iter(f)))))}
    rows = [[zero] * len(columns) for _ in index]
    for col, ((p, q, r), h, sign) in enumerate(columns):
        for (x, y, z), c in h.items():
            rows[index[x + p, y + q, z + r]][col] = c * sign
    return rows


# ---------------------------------------------------------------------------
# projective forms
# ---------------------------------------------------------------------------

class ProjectiveOneForm:
    """A dX + B dY + C dZ with the Euler relation XA + YB + ZC = 0 and
    gcd(A, B, C) = 1, both checked on construction: the wedge and invariance
    tests below rest on the Euler relation.  ``model`` is (A, B, C) times
    one common factor on the integral model (``numfield.integral``), where
    those tests and the Euler check run."""

    def __init__(self, A: HomogeneousForm, B: HomogeneousForm,
                 C: HomogeneousForm):
        self.A, self.B, self.C = A, B, C
        self.field = A.field
        degs = {f.degree for f in (A, B, C) if not f.is_zero()}
        if len(degs) != 1:
            raise ValueError("components must share one degree")
        ring = exact_ring(self.field)
        self.model = integral([A.coeffs, B.coeffs, C.coeffs], ring)
        one, euler = lift(self.field.one(), 1, ring), {}
        for unit, comp in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), self.model):
            euler = _sum(euler, _product({unit: one}, comp))
        if euler:
            raise ValueError("Euler condition X*A + Y*B + Z*C = 0 fails")
        g = gcd3(A, B, C)
        if g.degree != 0:
            raise ValueError("components share the factor %s" %
                             format_form(g))

    @property
    def coefficient_degree(self) -> int:
        for f in (self.A, self.B, self.C):
            if not f.is_zero():
                return f.degree
        raise ValueError("zero 1-form")

    def components(self):
        return self.A, self.B, self.C

    def __repr__(self):
        return ("(%s) dX + (%s) dY + (%s) dZ" %
                (format_form(self.A), format_form(self.B),
                 format_form(self.C)))


def foliation_degree(omega: ProjectiveOneForm) -> int:
    """Degree r of the foliation; the coefficients have degree r + 1."""
    return omega.coefficient_degree - 1


def is_invariant_curve(G: HomogeneousForm, omega: ProjectiveOneForm) -> bool:
    """True iff G divides every component (P, Q, R) of dG ^ omega.

    Only G | Q and G | R are tested.  Contract with the radial field
    X d/dX + Y d/dY + Z d/dZ: on dG it gives k G, k = deg G (Euler's
    identity), and on omega it gives XA + YB + ZC = 0, which
    ``ProjectiveOneForm`` checks.  So the contraction of dG ^ omega is
    k G omega, that is

        Q Z - R Y = k G A,   R X - P Z = k G B,   P Y - Q X = k G C.

    If G divides Q and R, the last two make G divide P Z and P Y.  A prime
    power dividing G then divides P, since its prime divides at most one of
    the coprime Y and Z; so G | P.

    A constant divides everything but defines no curve, so it is refused
    like the zero form.

    The test runs on the integral model, omega's ``model`` and G times the
    lcm of its coordinate denominators, which scales G, Q and R by nonzero
    rationals and so changes neither G | Q nor G | R.  Over Q this G is
    c G' for an int c and a primitive G', and Q is c Q', with Q' made from
    G' and int coefficients; so a quotient Q / G = Q' / G' has int
    coefficients by Gauss's lemma, as ``_quotient`` needs, and so has R / G.
    """
    if G.is_zero():
        raise ValueError("invariance test on the zero form")
    if G.degree == 0:
        raise ValueError("invariance test on a constant")
    ring = exact_ring(G.field)
    g, = integral([G.coeffs], ring)
    A, B, C = omega.model
    gx, gy, gz = (_partial(g, i) for i in range(3))
    return all(_quotient(h, g, ring) is not None
               for h in (_minus(gz, A, gx, C), _minus(gx, B, gy, A)))


def is_first_integral(F: HomogeneousForm, G: HomogeneousForm,
                      omega: ProjectiveOneForm) -> bool:
    """True iff d(F/G) ^ omega = 0, that is eta ^ omega = 0 for
    eta = G dF - F dG = p dX + q dY + r dZ.

    Only the dX^dY component p B - q A is computed.  Contract with the
    radial field X d/dX + Y d/dY + Z d/dZ: on eta it gives
    deg F * G F - deg G * F G = 0, since the degrees agree, and on omega it
    gives XA + YB + ZC = 0, which ``ProjectiveOneForm`` checks.  So the
    2-form eta ^ omega = P dY^dZ + Q dZ^dX + R dX^dY contracts to 0, that
    is (P, Q, R) x (X, Y, Z) = 0: Q Z = R Y makes Z divide R, say R = H Z,
    and then Q = H Y and P = H X.  The 2-form is H (X, Y, Z), zero exactly
    when R = p B - q A is.

    A constant F/G is no first integral, and it is the case p = q = 0: the
    same contraction on eta alone gives X p + Y q + Z r = 0, so p = q = 0
    makes Z r = 0, then r = 0, eta = 0 and F, G proportional.

    The test runs on the integral model: omega's ``model``, and F and G
    times the lcm of their coordinate denominators.  Each scales eta ^ omega
    by a nonzero rational, which changes neither eta = 0 nor R = 0.
    """
    if G.is_zero():
        raise ValueError("zero denominator")
    if F.degree != G.degree:
        raise ValueError("numerator and denominator degrees differ")
    f, g = integral([F.coeffs, G.coeffs], exact_ring(G.field))
    A, B, _ = omega.model
    p, q = (_minus(g, _partial(f, i), f, _partial(g, i)) for i in (0, 1))
    return bool(p or q) and not _minus(p, B, q, A)


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------

def parse_form(text: str, field: NumberField = QQ) -> HomogeneousForm:
    """Parse e.g. ``X^3*Y+4*Y^4`` or ``(8*a-1)*X^2+4*a*X*Y`` over the field.
    The a-powers of each monomial are gathered first and become one field
    element at the end."""
    if field.is_rational:
        terms = {e: field.element(c)
                 for e, c in parse_polynomial(text, "XYZ").items()}
    else:
        powers = {}
        for (i, j, k, l), c in parse_polynomial(text, "XYZa").items():
            powers.setdefault((i, j, k), {})[l,] = c
        terms = {e: x for e, p in powers.items()
                 if (x := field.element(coefficient_list(p)))}
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        raise ValueError("polynomial %r is not homogeneous" % text)
    return HomogeneousForm(field, degrees.pop() if degrees else 0, terms)


def format_form(f: HomogeneousForm) -> str:
    return join_terms(
        scaled_term(format_element(f.coeffs[expo]),
                    "*".join((v if e == 1 else "%s^%d" % (v, e))
                             for v, e in zip(VARS, expo) if e > 0))
        for expo in sorted(f.coeffs, reverse=True))
