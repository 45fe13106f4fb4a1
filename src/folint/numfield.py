"""Exact arithmetic in Q and in a simple number field K = Q(a), and the one
polynomial kernel of the package.

A field is described by a monic minimal polynomial over Q in the variable
``t``; degree 1 means K = Q.  Elements are stored as canonical residues,
i.e. polynomials in the generator of degree < deg(K) whose coordinates are
exact rationals: a plain ``int`` when integral, else a ``Fraction`` in
lowest terms (see ``_canon``).  Most coordinates met in practice are
integers, and int arithmetic skips Fraction's gcd normalisation; every
division of coordinates goes through a Fraction.  A residue field F_p of K
receives the elements without p in a denominator.

The univariate routines ``poly_*`` work on coefficient lists of int,
Fraction or FieldElement alike: the field inverts its elements with
``poly_inverse_mod`` on Fraction coordinates, and the resolution takes its
gcds, squarefree parts and quotient-algebra inverses over K from the same
code.  ``to_y_rows`` is the one bivariate form, rows over y of K[x] lists.
Resultants come exactly from their images mod word-size primes at which m
splits (``modp``).  Everything here is exact; no floats anywhere.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import modp
from .modp import _is_prime


class FieldMismatchError(ValueError):
    """Raised when combining elements of different number fields."""


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


def _exact(value):
    """value, an int, a Fraction or anything else ``Fraction`` accepts, as a
    canonical coordinate; a bool becomes an int."""
    if type(value) is int:
        return value
    return _canon(Fraction(value))


# ---------------------------------------------------------------------------
# univariate polynomials: lists of coefficients, low degree first
# ---------------------------------------------------------------------------
#
# One kernel for every exact coefficient type: int, Fraction and
# FieldElement.  A zero comes from the inputs (c * 0) and a coefficient is
# tested for zero by its truth value.  A division multiplies by 1 / lead,
# so the divisor's leading coefficient must be a Fraction or a
# FieldElement: an int one would give a float (``linalg.rref`` asks the
# same of its pivots).

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
    inv = 1 / den[-1]
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
    """Monic gcd; [] when p and q are both zero."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return _monic(p)


def _monic(p):
    if not p:
        return p
    inv = 1 / p[-1]
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
    inv = 1 / r1[0]
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
# rational roots
# ---------------------------------------------------------------------------

def _rational_roots(coeffs):
    """All rational roots of a Q-polynomial, sorted, by p-adic lifting.

    Let f be the squarefree integer part, a_n its leading coefficient and B
    the sum of its |coefficients|.  A root u/v of f has v | a_n and
    |a_n u/v| <= B, so a_n u/v is the symmetric residue of a_n r mod p^k
    for the Hensel lift r of u/v mod p, once p^k > 2B.  The primes only
    propose candidates; each one is kept only if it is an exact root.
    """
    p = poly_trim([Fraction(c) for c in coeffs])
    if not p:
        raise ValueError("zero polynomial has every root")
    low = next(i for i, c in enumerate(p) if c)
    roots = [Fraction(0)] if low else []
    p = p[low:]
    if len(p) <= 1:
        return roots
    p = poly_squarefree_part(p)
    den = math.lcm(*(c.denominator for c in p))
    f = [int(c * den) for c in p]
    content = math.gcd(*f)
    f = [c // content for c in f]
    df = [i * c for i, c in enumerate(f)][1:]
    lead, bound = f[-1], sum(abs(c) for c in f)
    modulus, lifted = _simple_roots_mod_prime(f, df)
    while modulus <= 2 * bound:
        # one Newton step doubles the p-adic precision of every simple root
        modulus *= modulus
        lifted = [(r - modp.evaluate(f, r, modulus) *
                   pow(modp.evaluate(df, r, modulus), -1, modulus)) % modulus
                  for r in lifted]
    for r in lifted:
        c = lead * r % modulus
        if 2 * c > modulus:
            c -= modulus
        cand = Fraction(c, lead)
        if poly_eval(f, cand) == 0:
            roots.append(cand)
    return sorted(roots)


def _simple_roots_mod_prime(f, df):
    """The first prime p not dividing the leading coefficient of the integer
    polynomial f at which every root of f mod p is simple, and those roots.
    For squarefree f only the primes dividing a_n or disc(f) are skipped."""
    p = 1
    while True:
        p += 1
        if f[-1] % p == 0 or not _is_prime(p):
            continue
        roots = [r for r in range(p) if modp.evaluate(f, r, p) == 0]
        if all(modp.evaluate(df, r, p) for r in roots):
            return p, roots


def rational_is_square(q):
    """Return sqrt(q) as a Fraction if q is a rational square, else None."""
    q = Fraction(q)
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


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
            if _rational_roots(coeffs):
                raise ValueError("minimal polynomial has a rational root, "
                                 "so it is reducible over Q")
            if len(poly_squarefree_part(coeffs)) <= self.degree:
                raise ValueError("minimal polynomial has a repeated factor, "
                                 "so it is reducible over Q")
        self.irreducibility_verified = self.degree <= 3
        self._zero = FieldElement(self, (0,) * self.degree)
        self._one = self.element(1)
        self._residue = None
        self._tpowers = None
        self._split_primes = []

    @classmethod
    def rationals(cls) -> "NumberField":
        return cls((0, 1))

    @classmethod
    def from_string(cls, text: str) -> "NumberField":
        """Parse a minimal polynomial such as ``t^2+t+1`` or ``t^2-5``."""
        return cls(_parse_univariate(text, "t"))

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def gen(self) -> "FieldElement":
        """The residue class of t (for K = Q this is the rational -m[0])."""
        if self.degree == 1:
            return self.element(-self.minpoly[0])
        c = [0] * self.degree
        c[1] = 1
        return FieldElement(self, tuple(c))

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

    def residue_field(self) -> "ResidueField":
        """The residue field of K at the largest prime below 2^31 at which
        the minimal polynomial has a root; found on first use."""
        if self._residue is None:
            self._residue = ResidueField(self)
        return self._residue

    def roots_mod_primes(self, below=2 ** 31):
        """(P, the distinct roots of m mod P) for each prime P < below that
        divides no denominator of m, largest first."""
        P = below - 1 - below % 2
        while True:
            if _is_prime(P) and all(c.denominator % P for c in self.minpoly):
                m = [c.numerator * pow(c.denominator, -1, P) % P
                     for c in self.minpoly]
                yield P, modp.split_roots(m, P)
            P -= 2

    def split_prime(self, i):
        """(P, roots, inverse Vandermonde matrix of the roots) for the i-th
        largest prime P < 2^31 at which m splits into distinct linear
        factors; found on first use and kept."""
        primes = self._split_primes
        walk = self.roots_mod_primes(primes[-1][0] if primes else 2 ** 31)
        while len(primes) <= i:
            P, roots = next(walk)
            if len(roots) == self.degree:
                primes.append((P, roots, modp.vandermonde_inverse(roots, P)))
        return primes[i]

    def parse(self, text: str) -> "FieldElement":
        """Parse an element in the ``a`` syntax, e.g. ``-3/2*a+7``."""
        return self.element(_parse_univariate(text, "a"))

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

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs
        self._hash = None

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
        if type(other) is int:
            return FieldElement(self.field,
                                tuple([_canon(a * other) for a in self.coeffs]))
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        n = field.degree
        if n == 1:
            return FieldElement(field,
                                (_canon(self.coeffs[0] * other.coeffs[0]),))
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
        """Multiplicative inverse via extended gcd with the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        field = self.field
        if field.degree == 1:
            c = self.coeffs[0]
            return FieldElement(field, (_canon(Fraction(c.denominator,
                                                        c.numerator)),))
        inv = poly_inverse_mod([Fraction(c) for c in self.coeffs],
                               field.minpoly)
        if inv is None:
            # the residue shares a factor with an unverified minimal polynomial
            raise ZeroDivisionError("element is a zero divisor; the declared "
                                    "minimal polynomial is reducible")
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
        if self._hash is None:
            self._hash = (hash(self.coeffs[0]) if self.is_rational()
                          else hash((self.field.minpoly, self.coeffs)))
        return self._hash

    def sort_key(self):
        """Deterministic total order on elements of one field (not algebraic)."""
        return tuple(self.coeffs)

    def __repr__(self):
        return format_element(self)


QQ = NumberField.rationals()


# ---------------------------------------------------------------------------
# a residue field of K
# ---------------------------------------------------------------------------

class UnluckyPrime(ArithmeticError):
    """An element of K has the residue prime in a denominator, so it has no
    image in the residue field."""


class Residue:
    """An element of the prime field F_p.  Immutable; ints multiply and
    divide in as their residues."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v          # the canonical residue, 0 <= v < p
        self.p = p

    def is_zero(self) -> bool:
        return self.v == 0

    def __add__(self, other):
        return Residue((self.v + other.v) % self.p, self.p)

    def __sub__(self, other):
        return Residue((self.v - other.v) % self.p, self.p)

    def __neg__(self):
        return Residue(-self.v % self.p, self.p)

    def __mul__(self, other):
        if type(other) is int:
            return Residue(self.v * other % self.p, self.p)
        return Residue(self.v * other.v % self.p, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "Residue":
        if self.v == 0:
            raise ZeroDivisionError("inverting zero in F_%d" % self.p)
        return Residue(pow(self.v, -1, self.p), self.p)

    def __truediv__(self, other):
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if type(other) is int:
            return (self.v - other) % self.p == 0
        return (isinstance(other, Residue) and self.v == other.v
                and self.p == other.p)

    def __ne__(self, other):
        if type(other) is int:
            return (self.v - other) % self.p != 0
        return not self == other

    def __repr__(self):
        return "%d (mod %d)" % (self.v, self.p)


class ResidueField:
    """F_p as the image of K = Q[t]/(m) under t -> r, where m(r) = 0 mod p.

    The elements of K whose coordinates have no p in a denominator form the
    ring Z_(p)[t]/(m), and reducing it mod p with t -> r is a ring
    homomorphism phi onto F_p.  A polynomial expression in such elements
    therefore maps to the same expression in their images: the rank of a
    matrix mod p is at most its rank in K, since a minor that is nonzero
    mod p is the image of a nonzero minor.
    """

    def __init__(self, field: NumberField):
        self.p, roots = next(pair for pair in field.roots_mod_primes()
                             if pair[1])
        self.r = roots[0]
        self._zero, self._one = Residue(0, self.p), Residue(1, self.p)

    def zero(self) -> Residue:
        return self._zero

    def one(self) -> Residue:
        return self._one

    def _reduce(self, q) -> Residue:
        if q.denominator % self.p == 0:
            raise UnluckyPrime("%d divides the denominator of %s" %
                               (self.p, q))
        return Residue(q.numerator * pow(q.denominator, -1, self.p) % self.p,
                       self.p)

    def image(self, x: FieldElement) -> Residue:
        """phi(x); raises UnluckyPrime when a coordinate of x has p in its
        denominator."""
        acc = self._zero
        for c in reversed(x.coeffs):
            acc = acc * self.r + self._reduce(c)
        return acc


# ---------------------------------------------------------------------------
# resultants over K
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


def bivariate_resultant(p, q, field):
    """Res_y of two bivariate dicts {(i, j): c} over K, as a K[x] list,
    from its images mod word-size primes (Collins 1971).

    Let m, n be the y-degrees of p and q, a, b their total degrees and
    k = [K:Q].  A p free of y gives p^n (q^m for a q free of y; 1 if both
    are).  Otherwise:

    - Scale.  With c, d the lcm of the coordinate denominators of p, q, the
      forms P = c p and Q = d q have int coordinates, and Res(P, Q) =
      c^n d^m Res(p, q), since c scales the n p-rows of the Sylvester matrix.
    - Nodes.  In a p-row i the entry of column l is the y^(l-i) coefficient,
      of x-degree at most a - (l - i), so each permutation product has
      x-degree at most n a + m b - sum_l l + sum_i i over both row sets,
      that is n a + m b - m n.  The x-degrees bx of the rows give the
      bound m bx(q) + n bx(p) too, and N = 1 + the smaller bound nodes
      determine Res_y.
    - Bound.  Read t as an indeterminate.  R = Res_y(P, Q) in Z[t, x] has
      |R|_1 <= |P|_1^n |Q|_1^m: a determinant is bounded by the product of
      its row sums, and |fg|_1 <= |f|_1 |g|_1.  R has t-degree at most
      (m + n)(k - 1), so E = max(0, (m + n)(k - 1) - k + 1) steps
      f -> delta f - lc_t(f) t^(D - k) (delta mu), D the formal t-degree of
      f and delta the lcm of the denominators of mu, end at delta^E R mod
      mu.  Each step multiplies the 1-norm by at most delta + |delta mu|_1.
      So T = delta^E c^n d^m Res(p, q) has int coordinates of absolute
      value at most B = |P|_1^n |Q|_1^m (delta + |delta mu|_1)^E.
    - Images.  At a prime P (``NumberField.split_prime``) mu has k distinct
      roots r_j, and t -> r_j, x -> x0 maps Z_(P)[t, x] onto F_P, taking
      delta mu, and so delta^E R - T, to 0.  When neither leading
      y-coefficient vanishes there, the Sylvester matrix keeps its shape
      and R maps to the resultant of the images.  Interpolation at N such
      x0 gives delta^E R(r_j, x) = T(r_j, x) mod P, and the inverse
      Vandermonde matrix of the r_j the coordinates of T mod P.  A prime at which some t -> r_j kills
      a leading coefficient is skipped.  Once the product M of the primes
      exceeds 2B, the symmetric residues mod M are T itself.
    """
    p_rows, q_rows = to_y_rows(p, field), to_y_rows(q, field)
    m, n = len(p_rows) - 1, len(q_rows) - 1
    if m < 1 or n < 1:
        base, power = (p_rows[0], n) if m < 1 else (q_rows[0], m)
        out = [field.one()]
        for _ in range(power):
            out = poly_mul(out, base)
        return out
    (p_int, c, p_norm), (q_int, d, q_norm) = map(_int_rows, (p_rows, q_rows))
    k = field.degree
    delta = math.lcm(*(x.denominator for x in field.minpoly))
    steps = max(0, (m + n) * (k - 1) - k + 1)
    bound = p_norm ** n * q_norm ** m * (
        delta + sum(abs(x * delta) for x in field.minpoly)) ** steps
    count = 1 + min(
        m * _x_degree(q_rows) + n * _x_degree(p_rows),
        n * _total_degree(p_rows) + m * _total_degree(q_rows) - m * n)
    coords, modulus, index = [0] * (count * k), 1, 0
    while modulus <= 2 * bound:
        P, roots, inverse = field.split_prime(index)
        index += 1
        images = modp.resultant_images(p_int, q_int, roots, inverse, count,
                                       P)
        if images is not None:
            scale = pow(delta, steps, P)
            coords = modp.crt(coords, modulus, [v * scale for v in images], P)
            modulus *= P
    den = delta ** steps * c ** n * d ** m
    coords = [_canon(Fraction(modp.symmetric(v, modulus), den))
              for v in coords]
    return poly_trim(FieldElement(field, tuple(coords[i:i + k]))
                     for i in range(0, len(coords), k))


def to_y_rows(poly, field):
    """Bivariate dict -> list over y-degree of K[x] coefficient lists, with
    no zero row on top (one zero row for the zero polynomial)."""
    zero = field.zero()
    rows = [[] for _ in range(max((j for _, j in poly), default=0) + 1)]
    for (i, j), c in poly.items():
        row = rows[j]
        if i >= len(row):
            row.extend([zero] * (i + 1 - len(row)))
        row[i] = c
    rows = [poly_trim(row) for row in rows]
    while len(rows) > 1 and not rows[-1]:
        rows.pop()
    return rows


def _int_rows(rows):
    """The rows times the lcm c of their coordinate denominators, as int
    coordinate tuples, with c and their 1-norm."""
    c = math.lcm(*(x.denominator for row in rows for e in row
                   for x in e.coeffs))
    out = [[tuple(x.numerator * (c // x.denominator) for x in e.coeffs)
            for e in row] for row in rows]
    return out, c, sum(abs(x) for row in out for e in row for x in e)


def _x_degree(rows):
    return max(len(row) - 1 for row in rows)


def _total_degree(rows):
    return max(len(row) - 1 + j for j, row in enumerate(rows) if row)


class RootsResult(NamedTuple):
    roots: list
    remaining_degree: int
    cofactor: list


def find_roots_in_field(f: Sequence[FieldElement], field: NumberField = None) -> RootsResult:
    """All roots of f that lie in K, plus the degree of the unsplit cofactor.

    Complete for K = Q (any degree, by p-adic lifting) and for
    quadratic K (by reduction to a rational bivariate system).  For fields of
    degree >= 3 only rational roots and roots of low-degree cofactors are
    found; any possibly-unsplit part is reported through remaining_degree.
    """
    f = poly_trim(f)
    if not f:
        raise ValueError("root-finding on the zero polynomial")
    if field is None:
        field = f[0].field
    roots = []
    work = list(f)

    def divide_out(r):
        nonlocal work
        while True:
            quo, rem = poly_divmod(work, [-r, field.one()])
            if rem:
                break
            work = quo
            if poly_degree(work) < 1:
                break

    for r in _roots_once(work, field):
        if r not in roots:
            roots.append(r)
    for r in roots:
        divide_out(r)
    # the division can reveal nothing new for complete strategies, but keep
    # looping for the generic fallback until no further roots appear
    progressed = True
    while progressed and poly_degree(work) >= 1:
        progressed = False
        for r in _roots_once(work, field):
            if r not in roots:
                roots.append(r)
                divide_out(r)
                progressed = True
    roots.sort(key=lambda e: e.sort_key())
    return RootsResult(roots, max(poly_degree(work), 0), work)


def _roots_once(f, field):
    deg = poly_degree(f)
    if deg < 1:
        return []
    if deg == 1:
        return [(-f[0]) / f[1]]
    if field.is_rational:
        coeffs = [c.as_fraction() for c in f]
        return [field.element(r) for r in _rational_roots(coeffs)]
    found = list(_rational_roots_in_extension(f, field))
    if deg == 2:
        found.extend(r for r in _quadratic_roots(f, field) if r not in found)
    elif field.degree == 2:
        found.extend(r for r in _quadratic_field_roots(f, field)
                     if r not in found)
    return found


def _rational_roots_in_extension(f, field):
    """Rational roots of f in K[t]: common rational roots of the coordinates."""
    coord = []
    for j in range(field.degree):
        coord = poly_gcd(coord, [Fraction(c.coeffs[j]) for c in f])
    for r in _rational_roots(coord):
        cand = field.element(r)
        if poly_eval(f, cand).is_zero():
            yield cand


def sqrt_in_field(d: FieldElement):
    """A square root of d in K, or None.  Complete for deg K <= 2."""
    field = d.field
    if d.is_zero():
        return field.zero()
    if field.is_rational:
        r = rational_is_square(d.as_fraction())
        return None if r is None else field.element(r)
    if field.degree != 2:
        if d.is_rational():
            r = rational_is_square(d.coeffs[0])
            if r is not None:
                return field.element(r)
        return None
    # (x + y*a)^2 = d over the quadratic field with a^2 = -p*a - q
    p, q = field.minpoly[1], field.minpoly[0]
    d0, d1 = Fraction(d.coeffs[0]), Fraction(d.coeffs[1])
    candidates = []
    if d1 == 0:
        r = rational_is_square(d0)
        if r is not None:
            candidates.append((r, Fraction(0)))
        denom = Fraction(p) ** 2 / 4 - q
        if denom != 0:
            y2 = d0 / denom
            ry = rational_is_square(y2)
            if ry is not None and ry != 0:
                candidates.append((p * ry / 2, ry))
    else:
        # y(2x - p y) = d1 and x^2 - q y^2 = d0 reduce to a biquadratic in y
        a4 = Fraction(p) ** 2 - 4 * q
        a2 = 2 * p * d1 - 4 * d0
        a0 = d1 ** 2
        for y2 in _quadratic_rational_roots(a4, a2, a0):
            ry = rational_is_square(y2)
            if ry is None or ry == 0:
                continue
            for y in (ry, -ry):
                x = (d1 + p * y * y) / (2 * y)
                candidates.append((x, y))
    for x, y in candidates:
        cand = field.element((x, y))
        if cand * cand == d:
            return cand
    return None


def _quadratic_rational_roots(a, b, c):
    """Rational roots of a*y^2 + b*y + c (a may be zero)."""
    if a == 0:
        if b == 0:
            return []
        return [Fraction(-c, 1) / b]
    disc = b * b - 4 * a * c
    r = rational_is_square(disc)
    if r is None:
        return []
    return sorted({(-b + r) / (2 * a), (-b - r) / (2 * a)})


def _quadratic_roots(f, field):
    """Roots in K of a quadratic with K coefficients."""
    c, b, a = f[0], f[1], f[2]
    disc = b * b - field.element(4) * a * c
    s = sqrt_in_field(disc)
    if s is None:
        return []
    two_a = field.element(2) * a
    r1 = (-b + s) / two_a
    r2 = (-b - s) / two_a
    return [r1] if r1 == r2 else [r1, r2]


def _quadratic_field_roots(f, field):
    """Roots in a quadratic K of arbitrary-degree f, by rational coordinates.

    Writing a candidate root as x + y*a turns f(x + y*a) = 0 into two
    polynomial equations over Q, solved exactly with a resultant.
    """
    gen = field.gen()
    n = poly_degree(f)
    # powers (x + y a)^k expanded as pairs of Q[x, y] dicts {(i, j): coeff}
    one = {(0, 0): Fraction(1)}
    p_m, q_m = field.minpoly[1], field.minpoly[0]

    def pair_mul(u, v):
        # (u0 + a u1)(v0 + a v1) with a^2 = -p a - q
        u0, u1 = u
        v0, v1 = v
        w0, w1, w2 = {}, {}, {}
        for (i, j), cu in u0.items():
            for (k, l), cv in v0.items():
                _acc(w0, (i + k, j + l), cu * cv)
        for (i, j), cu in u0.items():
            for (k, l), cv in v1.items():
                _acc(w1, (i + k, j + l), cu * cv)
        for (i, j), cu in u1.items():
            for (k, l), cv in v0.items():
                _acc(w1, (i + k, j + l), cu * cv)
        for (i, j), cu in u1.items():
            for (k, l), cv in v1.items():
                _acc(w2, (i + k, j + l), cu * cv)
        for key, c in w2.items():
            _acc(w0, key, -q_m * c)
            _acc(w1, key, -p_m * c)
        return (_clean(w0), _clean(w1))

    base = ({(1, 0): Fraction(1)}, {(0, 1): Fraction(1)})  # x + y a
    powers = [(one, {})]
    for _ in range(n):
        powers.append(pair_mul(powers[-1], base))
    P, Q = {}, {}
    for k, coeff in enumerate(f):
        c0, c1 = Fraction(coeff.coeffs[0]), Fraction(coeff.coeffs[1])
        p0, p1 = powers[k]
        # (c0 + a c1)(p0 + a p1)
        for key, c in p0.items():
            _acc(P, key, c0 * c)
            _acc(Q, key, c1 * c)
        for key, c in p1.items():
            _acc(Q, key, c0 * c)
            _acc(P, key, -q_m * c1 * c)
            _acc(Q, key, -p_m * c1 * c)
    P, Q = _clean(P), _clean(Q)
    ys = _bivariate_rational_solutions(P, Q)
    out = []
    for x0, y0 in ys:
        cand = field.element((x0, y0))
        if poly_eval(f, cand).is_zero() and cand not in out:
            out.append(cand)
    return out


def _acc(d, key, val):
    if val == 0:
        return
    cur = d.get(key)
    if cur is None:
        d[key] = val
    else:
        cur += val
        if cur == 0:
            del d[key]
        else:
            d[key] = cur


def _clean(d):
    return {k: v for k, v in d.items() if v != 0}


def _bivariate_rational_solutions(P, Q):
    """Common rational zeros of two coprime polynomials in Q[x, y]."""
    res = [Fraction(c.coeffs[0]) for c in bivariate_resultant(
        {k: QQ.element(c) for k, c in P.items()},
        {k: QQ.element(c) for k, c in Q.items()}, QQ)]
    xs = _rational_roots(res) if res else []
    sols = []
    for x0 in xs:
        sols.extend((x0, y0) for y0 in _common_univariate_roots(P, Q, x0))
    return sols


def _common_univariate_roots(P, Q, x_value):
    def substitute(poly):
        out = {}
        for (i, j), c in poly.items():
            _acc(out, j, c * x_value ** i)
        deg = max(out) if out else 0
        return [out.get(k, Fraction(0)) for k in range(deg + 1)]

    g = poly_gcd(substitute(P), substitute(Q))
    return _rational_roots(g) if g else []


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[a-zA-Z]|\^|\*|\+|-|\(|\))")


def tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("bad token at %r" % text[pos:pos + 12])
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    """Tiny recursive-descent parser shared by the element and form syntax.

    ``atom(name)`` must produce a value for a single-letter variable; the
    value type needs +, -, * and ** with int exponents, and scalar
    multiplication with Fraction.
    """

    def __init__(self, tokens, atom, const):
        self.tokens = tokens
        self.pos = 0
        self.atom = atom
        self.const = const

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        val = self.sum()
        if self.peek() is not None:
            raise ValueError("trailing input at token %r" % self.peek())
        return val

    def sum(self):
        sign = 1
        tok = self.peek()
        if tok in ("+", "-"):
            self.take()
            sign = -1 if tok == "-" else 1
        val = self.product()
        if sign < 0:
            val = -val
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            val = val - rhs if op == "-" else val + rhs
        return val

    def product(self):
        val = self.power()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                val = val * self.power()
            elif tok is not None and (tok[0].isdigit() or tok[0].isalpha()
                                      or tok == "("):
                val = val * self.power()
            else:
                return val

    def power(self):
        base = self.factor()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ValueError("exponent must be a positive integer")
            return base ** int(tok)
        return base

    def factor(self):
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            val = self.sum()
            if self.take() != ")":
                raise ValueError("missing closing parenthesis")
            return val
        if tok[0].isdigit():
            return self.const(Fraction(tok))
        if tok.isalpha():
            return self.atom(tok)
        raise ValueError("unexpected token %r" % tok)


def _parse_univariate(text, letter):
    """Parse a polynomial in one variable into its Fraction coefficients,
    low degree first."""

    class Poly(dict):
        def __add__(self, other):
            out = Poly(self)
            for k, v in other.items():
                out[k] = out.get(k, Fraction(0)) + v
            return out

        def __sub__(self, other):
            out = Poly(self)
            for k, v in other.items():
                out[k] = out.get(k, Fraction(0)) - v
            return out

        def __neg__(self):
            return Poly({k: -v for k, v in self.items()})

        def __mul__(self, other):
            out = Poly()
            for i, a in self.items():
                for j, b in other.items():
                    out[i + j] = out.get(i + j, Fraction(0)) + a * b
            return out

        def __pow__(self, e):
            out = Poly({0: Fraction(1)})
            for _ in range(e):
                out = out * self
            return out

    def atom(name):
        if name != letter:
            raise ValueError("unknown variable %r (expected %r)" %
                             (name, letter))
        return Poly({1: Fraction(1)})

    parser = _ExprParser(tokenize(text), atom, lambda q: Poly({0: q}))
    terms = {k: v for k, v in parser.parse().items() if v != 0}
    return [terms.get(i, Fraction(0)) for i in range(max(terms, default=0) + 1)]


def format_element(e: FieldElement) -> str:
    """Render in the field syntax: rationals as p/q, the generator as ``a``."""
    return join_terms(scaled_term(_fmt_q(c), _power("a", i))
                      for i, c in enumerate(e.coeffs) if c != 0)


def format_minpoly(field: NumberField) -> str:
    return join_terms(scaled_term(_fmt_q(c), _power("t", i))
                      for i, c in reversed(list(enumerate(field.minpoly)))
                      if c != 0)


def format_poly_in_t(coeffs: Iterable[FieldElement]) -> str:
    """Render a K[t] polynomial (certificates use this form)."""
    return join_terms(scaled_term(format_element(c), _power("t", i))
                      for i, c in reversed(list(enumerate(coeffs))) if c)


def _power(var, i):
    return "" if i == 0 else var if i == 1 else "%s^%d" % (var, i)


def scaled_term(body: str, mono: str) -> str:
    """The text of a coefficient, rendered as ``body``, times a monomial;
    an empty monomial stands for 1.  A coefficient with an inner sign is
    bracketed."""
    if not mono:
        return body
    if body == "1":
        return mono
    if body == "-1":
        return "-" + mono
    if "+" in body or "-" in body[1:]:
        return "(%s)*%s" % (body, mono)
    return "%s*%s" % (body, mono)


def join_terms(terms) -> str:
    """The text of a sum of nonzero terms; "0" for no terms."""
    text = ""
    for term in terms:
        text += term if not text or term.startswith("-") else "+" + term
    return text or "0"


def _fmt_q(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)
