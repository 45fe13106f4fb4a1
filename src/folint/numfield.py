"""Exact arithmetic in Q and in a simple number field K = Q(a), and the one
polynomial kernel of the package.

A field is described by a monic minimal polynomial over Q in the variable
``t``; degree 1 means K = Q.  Elements are stored as canonical residues,
i.e. polynomials in the generator of degree < deg(K) whose coordinates are
exact rationals: a plain ``int`` when integral, else a ``Fraction`` in
lowest terms (see ``_canon``).  Most coordinates met in practice are
integers, and int arithmetic skips Fraction's gcd normalisation.  An
element with int coordinates has an image mod P at each root of m mod P
(``residue``); callers that need images clear denominators first
(``denominator``), so no prime ever sits in one.

The univariate routines ``poly_*`` work on coefficient lists of int,
Fraction or FieldElement alike, and take int lists as they are: they
divide by ``reciprocal``, the one exact 1 / x, which is a Fraction for an
int x.  The field inverts its elements with ``poly_inverse_mod`` on their
own coordinates, and the resolution takes its gcds, squarefree parts and
quotient-algebra inverses over K from the same code.  ``to_y_rows`` is the
one bivariate form, rows over y of K[x] lists.  Resultants come exactly
from their images mod word-size primes at which m splits (``modp``).
Over Q, gcds run on primitive int lists (``_z_gcd``); the roots in Q and
in a quadratic K come from one p-adic lifting (``_squarefree_roots``).
``parse_polynomial`` reads every input expression.  Everything here is
exact; no floats anywhere.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from . import modp
from .modp import _is_prime


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


def _primitive(p):
    """p over Q times the one rational that makes it a primitive int list
    with a positive leading coefficient; [] for zero."""
    p = poly_trim(c.coeffs[0] if type(c) is FieldElement else c for c in p)
    den = math.lcm(*(c.denominator for c in p))
    p = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*p) if p and p[-1] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def _z_gcd(p, q):
    """The primitive gcd of primitive int lists by the primitive PRS
    (Collins 1967; Brown and Traub 1971).  Exact: in the pseudo-division
    lc(q)^e p = s q + r, e = deg p - deg q + 1, s, r in Z[x], lc(q) is a
    unit of Q, so gcd(q, r) = gcd(p, q) in Q[x], with r over its content
    too.  The degrees fall to a last nonzero term: the gcd up to a unit,
    primitive, so by Gauss's lemma a divisor of p and q in Z[x]."""
    while q:
        rem, n = p, len(q) - 1
        for k in range(len(p) - 1, n - 1, -1):
            c, rem = rem[k], [q[-1] * a for a in rem[:k]]
            for j in range(n):
                rem[k - n + j] -= c * q[j]
        p, q = q, _primitive(rem)
    return p


def _z_quotient(p, q):
    """p / q for int lists, q primitive, or RuntimeError.  By Gauss's lemma
    a q | p in Q[x] leaves an int quotient, so long division is exact."""
    rem, n, quo = list(p), len(q) - 1, []
    for k in range(len(rem) - 1, n - 1, -1):
        quo.append(rem[k] // q[-1])
        for j, b in enumerate(q):
            rem[k - n + j] -= quo[-1] * b
    if any(rem):
        raise RuntimeError("a divisor over Q leaves a remainder")
    return quo[::-1]


def _z_squarefree(f):
    """The squarefree part of a primitive int list, primitive."""
    return _z_quotient(f, _z_gcd(f, _primitive(poly_derivative(f))))


def _at_ratio(p, u, v, n):
    """v^n p(u / v) for n >= deg p, by homogeneous Horner."""
    acc, w = 0, v ** (n + 1 - len(p))
    for c in reversed(p):
        acc = acc * u + c * w
        w *= v
    return acc


# ---------------------------------------------------------------------------
# roots in Q and in a quadratic field
# ---------------------------------------------------------------------------

def _squarefree_roots(f, field):
    """The roots in K, [K:Q] = k <= 2, of a squarefree f, a primitive int
    list over Q, as Fractions or elements of K, by p-adic lifting at the k
    embeddings of K (von zur Gathen and Gerhard, ch. 15).

    alpha = delta a, delta the lcm of m's denominators, has a monic minimal
    polynomial m_alpha in Z[t]; scaled by a rational, f has int
    alpha-coordinates.  Let l be its leading coefficient, D = disc(m_alpha)
    N(l) (D = l for k = 1), A the 1-norm of m_alpha and |c| = |c_0| +
    |c_1| A for c = c_0 + c_1 alpha.

    - A root beta has D beta = u_0 + u_1 alpha in Z[alpha]: l beta is a
      root of the monic l^(n-1) f(x / l), so integral, as is N(l) / l, the
      conjugate of l, and disc(m_alpha) O_K lies in Z[alpha] (Cohen 1993,
      Prop. 4.4.4).
    - |u_0|, |u_1| <= B = 2 |disc| A S |l|, S = sum_i |f_i|: A bounds the
      roots alpha_j of m_alpha (Cauchy), so |c| bounds c at each complex
      embedding s_j, and Cauchy's bound with |s_j l| = |N(l)| / |s_j' l|
      gives |N(l) s_j beta| <= S |l|.  With d = alpha_1 - alpha_2, u_1 =
      (s_1 - s_2)(D beta) / d and u_0 = (alpha_1 s_2 - alpha_2 s_1)(D beta)
      / d, where D / d = d N(l) and |d| <= |disc|, a nonzero int.  For
      k = 1, Cauchy's bound is |l beta| <= B = S.
    - At the first prime p not dividing D at which m_alpha has k roots r_j
      and every image of f under alpha -> r_j only simple roots, Newton's
      method lifts both to p^e > 2B.  A root beta gives one lifted root x_j
      per image, the lift of (u_0 + u_1 r_j) / D, and the inverse
      Vandermonde matrix of the r_j maps (D x_j) to u mod p^e, whose
      symmetric residues are u.  A tuple beyond B is no root; the rest are
      kept if exact roots, for k = 1 if v^n f(u/v) = 0 in ints.
    """
    k = field.degree
    if len(f) <= 1:
        return []
    if k == 1:
        images, D, bound = [(f, poly_derivative(f))], f[-1], sum(map(abs, f))
    else:
        delta = math.lcm(*(c.denominator for c in field.minpoly))
        m = [int(c * delta ** (2 - i)) for i, c in enumerate(field.minpoly)]
        scale = denominator(*f)
        pairs = [(int(c.coeffs[0] * scale * delta), int(c.coeffs[1] * scale))
                 for c in f]
        (m0, m1, _), (l0, l1) = m, pairs[-1]
        disc, A = m1 * m1 - 4 * m0, 1 + abs(m0) + abs(m1)
        D = disc * (l0 * l0 - m1 * l0 * l1 + m0 * l1 * l1)
        bound = 2 * abs(disc) * A * (abs(l0) + abs(l1) * A) * sum(
            abs(x) + abs(y) * A for x, y in pairs)
    p = 1
    while True:
        p += 1
        if D % p == 0 or not _is_prime(p):
            continue
        if k > 1:
            rs = [r for r in range(p) if not modp.evaluate(m, r, p)]
            images = [_image(pairs, r, p) for r in rs]
        xs = [[x for x in range(p) if not modp.evaluate(g, x, p)]
              for g, _ in images]
        if len(xs) == k and all(modp.evaluate(dg, x, p) for (_, dg), row
                                in zip(images, xs) for x in row):
            break
    q = p
    while q <= 2 * bound:
        q *= q
        if k > 1:
            rs = _newton(m, poly_derivative(m), rs, q)
            images = [_image(pairs, r, q) for r in rs]
        xs = [_newton(g, dg, row, q) for (g, dg), row in zip(images, xs)]
    if k == 1:
        cands = [Fraction(modp.symmetric(D * x, q), D) for x in xs[0]]
        return [c for c in cands
                if not _at_ratio(f, c.numerator, c.denominator, len(f) - 1)]
    inverse, roots = modp.vandermonde_inverse(rs, q), []
    for tup in itertools.product(*xs):
        u = [modp.symmetric(D * sum(map(mul, row, tup)), q) for row in inverse]
        if max(map(abs, u)) <= bound:
            cand = field.element((Fraction(u[0], D),
                                  Fraction(u[1] * delta, D)))
            if not poly_eval(f, cand):
                roots.append(cand)
    return roots


def _image(pairs, r, q):
    """The images mod q of g = sum_i (x_i + alpha y_i) x^i and of g' under
    alpha -> r, from the pairs (x_i, y_i)."""
    g = [(x + r * y) % q for x, y in pairs]
    return g, [i * c for i, c in enumerate(g)][1:]


def _newton(g, dg, xs, q):
    """The roots mod q of g lifted from its simple roots xs mod sqrt(q)."""
    return [(x - modp.evaluate(g, x, q) * pow(modp.evaluate(dg, x, q), -1, q))
            % q for x in xs]


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
            squarefree = _z_squarefree(_primitive(coeffs))
            if _squarefree_roots(squarefree, QQ):
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
        """Multiplicative inverse via extended gcd with the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        field = self.field
        if field.degree == 1:
            return FieldElement(field, (_canon(reciprocal(self.coeffs[0])),))
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
        """Deterministic total order on elements of one field (not algebraic)."""
        return tuple(self.coeffs)

    def __repr__(self):
        return format_element(self)


QQ = NumberField.rationals()


# ---------------------------------------------------------------------------
# images mod a prime
# ---------------------------------------------------------------------------

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
    - Bound.  Read t as an indeterminate.  On the torus |t| = |x| = 1 an
      entry of the Sylvester matrix of P and Q has modulus at most the
      1-norm of the y-coefficient it holds, so Hadamard's inequality bounds
      R = Res_y(P, Q) in Z[t, x] there by H, the product over the rows of
      the 2-norms of those 1-norms: H^2 = (sum_j |P_j|_1^2)^n (sum_j
      |Q_j|_1^2)^m, P_j the y^j coefficient.  A coefficient is at most the
      maximum on the torus (Cauchy), so r_e,i, that of t^e x^i in R, is at
      most H.  R has t-degree at most (m + n)(k - 1), so E = max(0,
      (m + n)(k - 1) - k + 1) steps f -> delta f - lc_t(f) t^(D - k)
      (delta mu), D the formal t-degree of f and delta the lcm of the
      denominators of mu, take t^e to rows delta^E (t^e mod mu) with int
      coordinates.  So T = delta^E c^n d^m Res(p, q) = sum_e r_e (delta^E
      t^e mod mu), in the coordinates of x^i, has int coordinates, and its
      coordinate l is at most H times the sum over e of the absolute
      coordinates l of those rows; B is the largest of these.
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
    p_rows, q_rows = to_y_rows(p), to_y_rows(q)
    m, n = len(p_rows) - 1, len(q_rows) - 1
    if m < 1 or n < 1:
        base, power = (p_rows[0], n) if m < 1 else (q_rows[0], m)
        out = [field.one()]
        for _ in range(power):
            out = poly_mul(out, base)
        return out
    (p_int, c), (q_int, d) = map(_int_rows, (p_rows, q_rows))
    k = field.degree
    delta = math.lcm(*(x.denominator for x in field.minpoly))
    steps = max(0, (m + n) * (k - 1) - k + 1)
    hadamard = math.isqrt(_square_sum(p_int) ** n * _square_sum(q_int) ** m)
    power, sums = [delta ** steps] + [0] * (k - 1), [0] * k
    for _ in range((m + n) * (k - 1) + 1):
        sums = [s + abs(x) for s, x in zip(sums, power)]
        power = [(power[i - 1] if i else 0) - power[-1] * field.minpoly[i]
                 for i in range(k)]
    bound = (hadamard + 1) * max(sums)
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


def to_y_rows(poly):
    """Bivariate dict -> list over y-degree of K[x] coefficient lists, with
    no zero row on top (one zero row for the zero polynomial)."""
    zero = next(iter(poly.values()), 0) * 0
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
    coordinate tuples, with c."""
    c = denominator(*(e for row in rows for e in row))
    return [[tuple(x.numerator * (c // x.denominator) for x in e.coeffs)
             for e in row] for row in rows], c


def _square_sum(rows):
    """The sum over the rows of the square of their 1-norms."""
    return sum(sum(abs(x) for e in row for x in e) ** 2 for row in rows)


def _x_degree(rows):
    return max(len(row) - 1 for row in rows)


def _total_degree(rows):
    return max(len(row) - 1 + j for j, row in enumerate(rows) if row)


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
    quadratic K (p-adic lifting, ``_squarefree_roots``).  For deg K >= 3
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
        roots = _squarefree_roots(work, field)
        for r in roots:
            work = _z_quotient(work, [-r.numerator, r.denominator])
        roots, work = ([field.element(c) for c in p]
                       for p in (roots, _monic(work)))
    else:
        work = poly_squarefree_part(f[low:])
        if len(work) <= 2:
            roots = [-work[0]] if len(work) == 2 else []
        elif field.degree == 2:
            roots = _squarefree_roots(work, field)
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


def _rational_roots_in_extension(f, field):
    """Rational roots of a squarefree f in K[t]: the rational roots of the
    gcd of its coordinate polynomials, which divides f and so is
    squarefree too."""
    coord = []
    for j in range(field.degree):
        coord = _z_gcd(coord, _primitive([c.coeffs[j] for c in f]))
    for r in _squarefree_roots(coord, QQ):
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


def common_zeros(p, q, field):
    """The common zeros in K^2 of two bivariate dicts {(i, j): c} over K
    without a common factor, and the cofactors that escape K.

    The x-coordinates are the roots in K of Res_y(p, q); a side free of y
    needs no case of its own, since its resultant is a power of it, or 1
    when both sides are.  Over each such x0 the y-coordinates are the roots
    of gcd(p(x0, y), q(x0, y)).  Returns the points (x0, y0), ordered by x0
    then y0, and the escapes (x0, cofactor): for x0 None the cofactor of
    Res_y cuts out x-coordinates outside K, else the cofactor cuts out the
    y-coordinates over x0 outside K.  A zero resultant, a common factor,
    raises RuntimeError.  Cleared of denominators, the rows give v^n
    row(u/v) at x0 = u/v, v = denominator(x0): ints over Q, whose gcd stays
    the primitive int list that the root finder takes.
    """
    rx = bivariate_resultant(p, q, field)
    if not rx:
        raise RuntimeError("degenerate affine singular system")
    xs = find_roots_in_field(rx, field)
    escapes = [(None, xs.cofactor)] if xs.remaining_degree else []
    points = []
    ring = exact_ring(field)
    rows = [to_y_rows(f) for f in integral([p, q], ring)]
    n = max(len(row) for r in rows for row in r) - 1
    for x0 in xs.roots:
        v = denominator(x0)
        u = lift(x0, v, ring)
        at_x0 = [[_at_ratio(row, u, v, n) for row in r] for r in rows]
        g = (_z_gcd(*map(_primitive, at_x0)) if field.is_rational
             else poly_gcd(*at_x0))
        if len(g) < 2:
            continue
        ys = find_roots_in_field(g, field)
        if ys.remaining_degree:
            escapes.append((x0, ys.cofactor))
        points.extend((x0, y0) for y0 in ys.roots)
    return points, escapes


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------

_TOKEN = r"\s*(\d+/\d+|\d+|[a-zA-Z]|[-+*^()])"
_TOKENS = re.compile(_TOKEN)
_TOKENIZABLE = re.compile("(?:%s)*" % _TOKEN)
# the parser recurses four frames per parenthesis level; deeper input is
# refused long before Python's default recursion limit of 1000
_MAX_NESTING = 100


def parse_polynomial(text: str, letters: str) -> dict:
    """The polynomial over Q that text spells in the one-letter variables
    ``letters``, as {exponent tuple: int or Fraction} with no zero
    coefficient.  The grammar, with whitespace allowed before any token:

        sum     = [+|-] product {(+|-) product}
        product = power {[*] power}      (factors side by side multiply)
        power   = factor [^ digits]
        factor  = p/q | digits | letter | ( sum )

    Parentheses nest at most _MAX_NESTING deep.  A letter outside
    ``letters`` is refused when it is read.  Outside a polynomial in one
    variable the letter ``a`` can only mean the generator of a field that
    the reader has none of, and the message says so; an element of Q is
    read with no letters.
    """
    end = _TOKENIZABLE.match(text).end()
    if end < len(text):
        raise ValueError("bad token at %r" % text[end:end + 12])
    tokens = _TOKENS.findall(text) + [None]
    n = len(letters)
    one = (0,) * n
    units = {v: tuple(int(i == j) for j in range(n))
             for i, v in enumerate(letters)}
    pos = depth = 0

    def times(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return out

    def sum_():
        nonlocal pos
        val, sign = {}, "+"
        if tokens[pos] in ("+", "-"):
            sign = tokens[pos]
            pos += 1
        while True:
            for e, c in product().items():
                c = -c if sign == "-" else c
                val[e] = val[e] + c if e in val else c
            sign = tokens[pos]
            if sign not in ("+", "-"):
                return val
            pos += 1

    def product():
        nonlocal pos
        val = power()
        while True:
            tok = tokens[pos]
            if tok == "*":
                pos += 1
            elif tok is None or tok in "+-^)":
                return val
            val = times(val, power())

    def power():
        nonlocal pos
        base = factor()
        if tokens[pos] != "^":
            return base
        tok = tokens[pos + 1]
        pos += 2
        if tok is None or not tok.isdigit():
            raise ValueError("exponent must be a positive integer")
        val = {one: 1}
        for _ in range(int(tok)):
            val = times(val, base)
        return val

    def factor():
        nonlocal pos, depth
        tok = tokens[pos]
        pos += 1
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            depth += 1
            if depth > _MAX_NESTING:
                raise ValueError("parentheses nested more than %d deep"
                                 % _MAX_NESTING)
            val = sum_()
            if tokens[pos] != ")":
                raise ValueError("missing closing parenthesis")
            pos += 1
            depth -= 1
            return val
        if tok[0].isdigit():
            num, _, den = tok.partition("/")
            if den and not int(den):
                raise ValueError("zero denominator in %r" % tok)
            return {one: Fraction(int(num), int(den)) if den else int(num)}
        if tok in units:
            return {units[tok]: 1}
        if tok == "a" and n != 1:
            raise ValueError("generator 'a' used without a field: line")
        if tok.isalpha():
            # an element of Q is written in the syntax of K, with no a
            raise ValueError("unknown variable %r" % tok + (
                " (expected %r)" % (letters or "a") if n <= 1 else ""))
        raise ValueError("unexpected token %r" % tok)

    val = sum_()
    if tokens[pos] is not None:
        raise ValueError("trailing input at token %r" % tokens[pos])
    return {e: c for e, c in val.items() if c}


def coefficient_list(terms: dict) -> list:
    """The coefficients c_0, c_1, ... of {(k,): c_k}, a polynomial in one
    variable."""
    top = max(terms, default=(0,))[0]
    return [terms.get((k,), 0) for k in range(top + 1)]


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
