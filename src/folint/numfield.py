"""Exact arithmetic in Q and in a simple number field K = Q(a), the one
polynomial kernel over K, and the roots of a polynomial in K.

K is given by a monic minimal polynomial over Q in ``t``; degree 1 means
K = Q.  Elements are canonical residues whose coordinates are ints where
integral, else Fractions in lowest terms (``_canon``).  An element with
int coordinates has an image mod P at each root of m mod P (``residue``).

The routines ``poly_*`` take lists of int, Fraction or FieldElement alike
and divide by ``reciprocal``, the one exact 1 / x.  Elements with a
coordinate above t^0, and the resolution's quotient algebras over K, are
inverted by ``poly_inverse_mod``; a rational element by ``reciprocal``.
Over Q, gcds run on primitive int lists (``zpoly``), which ``root_gcd``
hands to ``find_roots_in_field`` as they are.  No floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import modp
from .modp import _is_prime
from .textio import (
    coefficient_list, format_element, format_minpoly, parse_polynomial,
)
from .zpoly import (
    _primitive, _z_gcd, _z_quotient, _z_squarefree, lifted_roots,
    rational_is_square,
)


class FieldMismatchError(ValueError):
    """Raised when combining elements of different number fields."""


class ReducibleMinpoly(ValueError):
    """Raised when an element has no inverse because it shares a factor with
    the declared minimal polynomial, which is then reducible over Q (a check
    that ``NumberField`` completes only up to degree 3)."""


class FieldExtensionNeeded(ValueError):
    """Raised when a computation would leave the base field.

    ``certificate`` is the offending irreducible (over K, as far as this
    package can tell) polynomial, as a list of FieldElement coefficients.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


# ---------------------------------------------------------------------------
# exact coordinates
# ---------------------------------------------------------------------------

def _canon(c):
    """The canonical form of an exact coordinate: an int when c is integral,
    else c itself, a Fraction in lowest terms.  Equal ints and Fractions
    compare and hash alike, so the form changes no value."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def denominator(*elements) -> int:
    """The lcm of the coordinate denominators of the elements."""
    return math.lcm(*(c.denominator for x in elements for c in x.coeffs))


def residue(x, P: int, r: int) -> int:
    """The image mod P of an int, or of an element with int coordinates
    under t -> r, for a root r of the minimal polynomial mod a prime P
    that divides none of its denominators.

    Z[t] -> F_P, t -> r, kills m and so factors through K's elements
    without P in a coordinate denominator, where it is a ring
    homomorphism.  Elements with int coordinates lie in that ring, and a
    polynomial expression in them maps to the same expression in their
    images: the rank of such a matrix mod P is at most its rank in K,
    since a minor that is nonzero mod P is the image of a nonzero minor.
    """
    return x % P if type(x) is int else modp.evaluate(x.coeffs, r, P)


def _exact(value):
    """value, an int, a Fraction or anything else ``Fraction`` accepts, as a
    canonical coordinate; a bool becomes an int."""
    if type(value) is int:
        return value
    return _canon(Fraction(value))


def exact_ring(field):
    """The integral model's ring: 0, for ints, over Q, else K itself."""
    return 0 if field.is_rational else field


def lift(x, m: int, ring):
    """x m, for an int m that clears x's denominators, as an entry of
    ``ring``: an int over Q, else an element with int coordinates."""
    return _canon(x.coeffs[0] * m) if type(ring) is int else x * m


def integral(columns, ring):
    """Coefficient dicts times the lcm of all their denominators, in ring."""
    m = denominator(*(c for coeffs in columns for c in coeffs.values()))
    if m == 1 and type(ring) is not int:
        return columns
    return [{key: lift(c, m, ring) for key, c in coeffs.items()}
            for coeffs in columns]


# ---------------------------------------------------------------------------
# univariate polynomials: lists of coefficients, low degree first
# ---------------------------------------------------------------------------
#
# One kernel for every exact coefficient type: int, Fraction and
# FieldElement.  A zero comes from the inputs (c * 0) and a coefficient is
# tested for zero by its truth value.  A division multiplies by
# ``reciprocal(lead)``, which is exact for an int lead too, so int lists go
# in as they are (over a field ``linalg.rref`` inverts its pivots so too).

def reciprocal(x):
    """1 / x, exactly: a Fraction for an int x, where ``1 / x`` would be a
    float, and ``1 / x`` for every other exact type."""
    if type(x) is int:
        return Fraction(1, x)
    return 1 / x


def poly_trim(p):
    """p as a new list without zero coefficients on top."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_degree(p) -> int:
    """The degree of p; -1 for the zero polynomial."""
    return len(poly_trim(p)) - 1


def poly_eval(p, x):
    acc = x * 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_sub(p, q):
    out = list(p)
    for i, c in enumerate(q):
        if i < len(out):
            out[i] = out[i] - c
        else:
            out.append(-c)
    return poly_trim(out)


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return []
    out = [p[-1] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
    return out


def poly_divmod(num, den):
    """(quotient, remainder) of num by den, the remainder trimmed."""
    rem, den = poly_trim(num), poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    inv = reciprocal(den[-1])
    quo = []
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k] * inv
        quo.append(c)
        if c:
            for j, dj in enumerate(den):
                rem[k - dd + j] = rem[k - dd + j] - c * dj
    quo.reverse()
    return quo, poly_trim(rem[:dd])


def poly_gcd(p, q):
    """Monic gcd, [] for two zeros: ``_z_gcd`` over Q, else Euclid."""
    p, q = poly_trim(p), poly_trim(q)
    c = (q or p or [0])[-1]
    element = type(c) is FieldElement
    if type(c) in (int, Fraction) or element and c.field.is_rational:
        g = _monic(_z_gcd(_primitive(p), _primitive(q)))
        return [c.field.element(x) for x in g] if element else g
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return _monic(p)


def _monic(p):
    if not p:
        return p
    inv = reciprocal(p[-1])
    return [c * inv for c in p]


def poly_inverse_mod(p, m):
    """The inverse of p modulo m (deg m >= 1), of degree < deg m, by the
    extended Euclidean algorithm; None when gcd(p, m) != 1.  Each step
    keeps r1 = s1 * p mod m."""
    r0, r1 = poly_trim(m), poly_trim(p)
    s0, s1 = [], [1]
    while len(r1) > 1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, poly_sub(s0, poly_mul(quo, s1))
    if not r1:
        return None
    inv = reciprocal(r1[0])
    return [c * inv for c in s1]


def poly_derivative(p):
    return poly_trim([c * i for i, c in enumerate(p)][1:])


def poly_squarefree_part(p):
    """p divided by gcd(p, p'), monic, for a nonzero p."""
    p = poly_trim(p)
    g = poly_gcd(p, poly_derivative(p))
    if len(g) > 1:
        p, rem = poly_divmod(p, g)
        if rem:
            raise RuntimeError("gcd(p, p') does not divide p")
    return _monic(p)


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class NumberField:
    """K = Q[t]/(m) for a monic polynomial m of degree >= 1.

    Degree 1 means plain Q.  Irreducibility is fully verified (by the
    rational root test) only for degree <= 3; for higher degrees a rational
    root still rejects the polynomial, but compositeness without rational
    roots goes undetected and ``irreducibility_verified`` is left False.
    """

    def __init__(self, minpoly: Sequence = (0, 1)):
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 2:
            raise ValueError("minimal polynomial needs degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        if 2 <= self.degree:
            squarefree = _z_squarefree(_primitive(coeffs))
            if lifted_roots(squarefree):
                raise ValueError("minimal polynomial has a rational root, "
                                 "so it is reducible over Q")
            if len(squarefree) <= self.degree:
                raise ValueError("minimal polynomial has a repeated factor, "
                                 "so it is reducible over Q")
        self.irreducibility_verified = self.degree <= 3
        self._zero = FieldElement(self, (0,) * self.degree)
        self._one = self.element(1)
        self._tpowers = None
        self._split_primes = []

    @classmethod
    def rationals(cls) -> "NumberField":
        return cls((0, 1))

    @classmethod
    def from_string(cls, text: str, like: "NumberField" = None
                    ) -> "NumberField":
        """Parse a minimal polynomial such as ``t^2+t+1`` or ``t^2-5``.
        When it is the minimal polynomial of ``like``, return ``like`` and
        build no field, so its checks and split primes are not redone."""
        coeffs = coefficient_list(parse_polynomial(text, "t"))
        if like is not None and tuple(coeffs) == like.minpoly:
            return like
        return cls(coeffs)

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError("element of a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return FieldElement(self, (_exact(value),) + self._zero.coeffs[1:])
        return FieldElement(self, self._reduce([Fraction(v) for v in value]))

    def _reduce(self, coeffs):
        """Canonical coordinates of a Q-polynomial in t modulo m."""
        if len(coeffs) > self.degree:
            coeffs = poly_divmod(coeffs, self.minpoly)[1]
        coeffs = [_canon(c) for c in coeffs]
        return tuple(coeffs + [0] * (self.degree - len(coeffs)))

    def _t_powers(self):
        """t^k mod m for k = n .. 2n - 2, as rows of n canonical
        coordinates: what a product of two residues reduces by.  Built on
        first use."""
        if self._tpowers is None:
            n = self.degree
            low = [_canon(-c) for c in self.minpoly[:n]]     # t^n mod m
            rows = [low] if n >= 2 else []
            for _ in range(n - 2):
                top = rows[-1][-1]
                shifted = [0] + rows[-1][:-1]
                rows.append([_canon(a + top * b)
                             for a, b in zip(shifted, low)])
            self._tpowers = rows
        return self._tpowers

    def split_prime(self, i):
        """(P, roots, inverse Vandermonde matrix of the roots) for the i-th
        largest prime P < 2^31 that divides no denominator of m and at
        which m splits into distinct linear factors; found on first use and
        kept."""
        primes = self._split_primes
        P = primes[-1][0] - 2 if primes else 2 ** 31 - 1
        while len(primes) <= i:
            if _is_prime(P) and all(c.denominator % P for c in self.minpoly):
                m = [c.numerator * pow(c.denominator, -1, P) % P
                     for c in self.minpoly]
                roots = modp.split_roots(m, P)
                if len(roots) == self.degree:
                    primes.append((P, roots,
                                   modp.vandermonde_inverse(roots, P)))
            P -= 2
        return primes[i]

    def parse(self, text: str) -> "FieldElement":
        """Parse an element in the ``a`` syntax, e.g. ``-3/2*a+7``; over Q
        there is no ``a``."""
        if self.degree == 1:
            return self.element(parse_polynomial(text, "").get((), 0))
        return self.element(coefficient_list(parse_polynomial(text, "a")))

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                                 and self.minpoly == other.minpoly)

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        if self.is_rational:
            return "NumberField(Q)"
        return "NumberField(t: %s)" % format_minpoly(self)


class FieldElement:
    """A canonical residue in a NumberField.  Immutable.

    Every constructor path leaves the coordinates canonical (``_canon``):
    ints where integral, Fractions in lowest terms otherwise.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("%s is not rational" % self)
        return Fraction(self.coeffs[0])

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.field.degree == 1:
            return FieldElement(self.field,
                                (_canon(self.coeffs[0] + other.coeffs[0]),))
        return FieldElement(self.field, tuple(
            _canon(a + b) for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.field.degree == 1:
            return FieldElement(self.field,
                                (_canon(self.coeffs[0] - other.coeffs[0]),))
        return FieldElement(self.field, tuple(
            _canon(a - b) for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        """A rational factor only scales the other's coordinates."""
        x, k = self, other
        if type(other) is not int:
            if type(other) is not FieldElement or other.field is not x.field:
                other = self._coerce(other)
                if other is NotImplemented:
                    return NotImplemented
            x, k = (other, self) if any(other.coeffs[1:]) else (self, other)
            k = None if any(k.coeffs[1:]) else k.coeffs[0]
        if k is not None:
            return FieldElement(x.field,
                                tuple([_canon(a * k) for a in x.coeffs]))
        field = self.field
        n = field.degree
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        out = prod[:n]
        for c, row in zip(prod[n:], field._t_powers()):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return FieldElement(field, tuple(map(_canon, out)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: of the one coordinate of a rational
        element, else via extended gcd with the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        field = self.field
        if not any(self.coeffs[1:]):
            return FieldElement(field, (_canon(reciprocal(self.coeffs[0])),)
                                + field._zero.coeffs[1:])
        inv = poly_inverse_mod(list(self.coeffs), field.minpoly)
        if inv is None:
            raise ReducibleMinpoly(
                "%s is a zero divisor: the declared minimal polynomial %s is "
                "reducible" % (format_element(self), format_minpoly(field)))
        return FieldElement(field, field._reduce(inv))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv if other == 1 else inv * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- equality and ordering ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        # a rational element equals its int or Fraction value, so it hashes
        # like it
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field.minpoly, self.coeffs))

    def sort_key(self):
        """Deterministic total order on elements of one field (not
        algebraic)."""
        return tuple(self.coeffs)

    def __repr__(self):
        return format_element(self)


QQ = NumberField.rationals()


# ---------------------------------------------------------------------------
# resultants and interpolation over K, and the roots in K
# ---------------------------------------------------------------------------

def poly_resultant(p, q, field) -> FieldElement:
    """Resultant of two K[t] polynomials by the Euclidean algorithm."""
    p, q = poly_trim(p), poly_trim(q)
    res = field.one()
    while True:
        if not q:
            return field.zero() if len(p) > 1 else res
        if len(q) == 1:
            return res * q[0] ** (len(p) - 1)
        _, r = poly_divmod(p, q)
        dp, dq, dr = len(p) - 1, len(q) - 1, len(r) - 1
        sign = field.element((-1) ** (dp * dq))
        res = res * sign * q[-1] ** (dp - dr)
        p, q = q, r


def poly_interpolate(xs, ys, field):
    """The polynomial over K of degree < len(xs) through (xs[i], ys[i]).

    The nodes are rational, so each coordinate of K is interpolated over Q:
    Newton divided differences, expanded to the monomial basis by Horner.
    """
    xs = [Fraction(x) for x in xs]
    coords = [_qinterpolate(xs, [y.coeffs[j] for y in ys])
              for j in range(field.degree)]
    return poly_trim(FieldElement(field, tuple(map(_canon, column)))
                     for column in zip(*coords))


def _qinterpolate(xs, ys):
    """Dense Q-polynomial of degree < len(xs) through the given points; the
    nodes xs are Fractions, so every division is exact."""
    n = len(xs)
    c = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - k])
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # out <- out * (t - xs[i]) + c[i]; out has degree < n - 1 - i here
        for k in range(n - 1 - i, 0, -1):
            out[k] = out[k - 1] - xs[i] * out[k]
        out[0] = c[i] - xs[i] * out[0]
    return out


def root_gcd(p, q, field):
    """gcd(p, q) as ``find_roots_in_field`` takes it: over Q the primitive
    int list of ``_z_gcd``, with no monic Fraction copy, else monic."""
    if field.is_rational:
        return _z_gcd(_primitive(p), _primitive(q))
    return poly_gcd(p, q)


class RootsResult(NamedTuple):
    roots: list
    remaining_degree: int
    cofactor: list


def find_roots_in_field(f: Sequence[FieldElement],
                        field: NumberField = None) -> RootsResult:
    """The roots of f in K, sorted, the degree of the cofactor they leave,
    and that cofactor.

    The squarefree part of f is taken here, once, after the power of x
    that gives the root 0 is stripped; each root divides it once, and the
    cofactor, that part over the product of the (x - r), is squarefree
    and monic.  Over Q, where f may be an int or Fraction list, that part
    is primitive in Z[x], a root u/v divides it as v x - u, and the
    cofactor is made monic once.  The roots are complete for K = Q and
    quadratic K (p-adic lifting, ``lifted_roots``).  For deg K >= 3
    they are the rational roots, then the root of a linear cofactor, or
    the roots of a quadratic one whose discriminant is a rational square;
    the rest is reported through remaining_degree.
    """
    f = poly_trim(f)
    if not f:
        raise ValueError("root-finding on the zero polynomial")
    if field is None:
        field = f[0].field
    low = next(i for i, c in enumerate(f) if c)
    if field.is_rational:
        work = _z_squarefree(_primitive(f[low:]))
        roots = lifted_roots(work)
        for r in roots:
            work = _z_quotient(work, [-r.numerator, r.denominator])
        roots, work = ([field.element(c) for c in p]
                       for p in (roots, _monic(work)))
    else:
        work = poly_squarefree_part(f[low:])
        if len(work) <= 2:
            roots = [-work[0]] if len(work) == 2 else []
        elif field.degree == 2:
            roots = _quadratic_roots(work, field)
        else:
            roots = list(_rational_roots_in_extension(work, field))
        work = _divide_roots(work, roots)
        if field.degree >= 3 and len(work) in (2, 3):
            more = _small_cofactor_roots(work)
            roots += more
            work = _divide_roots(work, more)
    if low:
        roots.append(field.zero())
    roots.sort(key=FieldElement.sort_key)
    return RootsResult(roots, len(work) - 1, work)


def _divide_roots(p, roots):
    """The monic squarefree p over the product of the (x - r): one division
    by each root."""
    for r in roots:
        p = poly_divmod(p, [-r, p[-1]])[0]
    return p


def _quadratic_roots(f, field):
    """The roots in a quadratic K of a squarefree f: the candidates lifted
    from f's int coordinates in alpha = delta a that are roots of f."""
    delta = math.lcm(*(c.denominator for c in field.minpoly))
    m = [int(c * delta ** (2 - i)) for i, c in enumerate(field.minpoly)]
    scale = denominator(*f)
    pairs = [(int(c.coeffs[0] * scale * delta), int(c.coeffs[1] * scale))
             for c in f]
    cands = (field.element((x, y * delta)) for x, y in lifted_roots(pairs, m))
    return [c for c in cands if not poly_eval(f, c)]


def _rational_roots_in_extension(f, field):
    """Rational roots of a squarefree f in K[t]: the rational roots of the
    gcd of its coordinate polynomials, which divides f and so is
    squarefree too."""
    coord = []
    for j in range(field.degree):
        coord = _z_gcd(coord, _primitive([c.coeffs[j] for c in f]))
    for r in lifted_roots(coord):
        cand = field.element(r)
        if poly_eval(f, cand).is_zero():
            yield cand


def _small_cofactor_roots(g):
    """The root of a monic linear g, or the roots of a squarefree monic
    quadratic g whose discriminant is a rational square."""
    if len(g) == 2:
        return [-g[0]]
    disc = g[1] * g[1] - 4 * g[0]
    s = rational_is_square(disc.coeffs[0]) if disc.is_rational() else None
    if s is None:
        return []
    return [(s - g[1]) / 2, (-s - g[1]) / 2]
