"""Z[x], lists of coefficients low degree first: the gcd, exact division
and squarefree part of primitive int lists (``_primitive``) that every gcd
and root over Q runs on, and the p-adic lifting that finds the roots in Q
and in a quadratic field (``lifted_roots``).  Only ``modp`` is imported.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from . import modp


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p):
    """p over Q times the one rational that makes it a primitive int list
    with a positive leading coefficient; [] for zero.  The coefficients are
    ints, Fractions or elements of Q, read by their one coordinate."""
    p = [c if type(c) in (int, Fraction) else c.coeffs[0] for c in p]
    while p and not p[-1]:
        p.pop()
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
    return _z_quotient(f, _z_gcd(f, _primitive(_derivative(f))))


def _at_ratio(p, u, v, n):
    """v^n p(u / v) for n >= deg p, by homogeneous Horner."""
    acc, w = 0, v ** (n + 1 - len(p))
    for c in reversed(p):
        acc = acc * u + c * w
        w *= v
    return acc


def rational_is_square(q):
    """Return sqrt(q) as a Fraction if q is a rational square, else None."""
    q = Fraction(q)
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def lifted_roots(f, m=None):
    """The roots in Q of a squarefree primitive int list f, as Fractions;
    or, for m = [m_0, m_1, 1] the minimal polynomial of an algebraic
    integer alpha of degree 2 and f a list of int pairs (x_i, y_i) for the
    squarefree sum_i (x_i + alpha y_i) x^i, the candidate roots in
    K = Q(alpha) as coordinate pairs (b_0, b_1), beta = b_0 + b_1 alpha,
    which the caller tests.  By p-adic lifting at the k = [K:Q] embeddings
    of K (von zur Gathen and Gerhard, ch. 15).

    Let l be f's leading coefficient, D = disc(m) N(l) (D = l for k = 1),
    A the 1-norm of m and |c| = |c_0| + |c_1| A for c = c_0 + c_1 alpha.

    - A root beta has D beta = u_0 + u_1 alpha in Z[alpha]: l beta is a
      root of the monic l^(n-1) f(x / l), so integral, as is N(l) / l, the
      conjugate of l, and disc(m) O_K lies in Z[alpha] (Cohen 1993,
      Prop. 4.4.4).
    - |u_0|, |u_1| <= B = 2 |disc| A S |l|, S = sum_i |f_i|: A bounds the
      roots alpha_j of m (Cauchy), so |c| bounds c at each complex
      embedding s_j, and Cauchy's bound with |s_j l| = |N(l)| / |s_j' l|
      gives |N(l) s_j beta| <= S |l|.  With d = alpha_1 - alpha_2, u_1 =
      (s_1 - s_2)(D beta) / d and u_0 = (alpha_1 s_2 - alpha_2 s_1)(D beta)
      / d, where D / d = d N(l) and |d| <= |disc|, a nonzero int.  For
      k = 1, Cauchy's bound is |l beta| <= B = S.
    - At the first prime p not dividing D at which m has k roots r_j and
      every image of f under alpha -> r_j only simple roots, Newton's
      method lifts both to p^e > 2B.  A root beta gives one lifted root x_j
      per image, the lift of (u_0 + u_1 r_j) / D, and the inverse
      Vandermonde matrix of the r_j maps (D x_j) to u mod p^e, whose
      symmetric residues are u.  A tuple beyond B is no root; for k = 1
      the rest are the roots that give v^n f(u/v) = 0 in ints.
    """
    if len(f) <= 1:
        return []
    if m is None:
        k, images, D = 1, [(f, _derivative(f))], f[-1]
        bound = sum(map(abs, f))
    else:
        (m0, m1, _), (l0, l1) = m, f[-1]
        k, disc, A = 2, m1 * m1 - 4 * m0, 1 + abs(m0) + abs(m1)
        D = disc * (l0 * l0 - m1 * l0 * l1 + m0 * l1 * l1)
        bound = 2 * abs(disc) * A * (abs(l0) + abs(l1) * A) * sum(
            abs(x) + abs(y) * A for x, y in f)
    p = 1
    while True:
        p += 1
        if D % p == 0 or not modp._is_prime(p):
            continue
        if k > 1:
            rs = [r for r in range(p) if not modp.evaluate(m, r, p)]
            images = [_image(f, r, p) for r in rs]
        xs = [[x for x in range(p) if not modp.evaluate(g, x, p)]
              for g, _ in images]
        if len(xs) == k and all(modp.evaluate(dg, x, p) for (_, dg), row
                                in zip(images, xs) for x in row):
            break
    q = p
    while q <= 2 * bound:
        q *= q
        if k > 1:
            rs = _newton(m, _derivative(m), rs, q)
            images = [_image(f, r, q) for r in rs]
        xs = [_newton(g, dg, row, q) for (g, dg), row in zip(images, xs)]
    if k == 1:
        cands = [Fraction(modp.symmetric(D * x, q), D) for x in xs[0]]
        return [c for c in cands
                if not _at_ratio(f, c.numerator, c.denominator, len(f) - 1)]
    inverse, cands = modp.vandermonde_inverse(rs, q), []
    for tup in itertools.product(*xs):
        u = [modp.symmetric(D * sum(map(mul, row, tup)), q) for row in inverse]
        if max(map(abs, u)) <= bound:
            cands.append((Fraction(u[0], D), Fraction(u[1], D)))
    return cands


def _image(pairs, r, q):
    """The images mod q of g = sum_i (x_i + alpha y_i) x^i and of g' under
    alpha -> r, from the pairs (x_i, y_i)."""
    g = [(x + r * y) % q for x, y in pairs]
    return g, _derivative(g)


def _newton(g, dg, xs, q):
    """The roots mod q of g lifted from its simple roots xs mod sqrt(q)."""
    return [(x - modp.evaluate(g, x, q) * pow(modp.evaluate(dg, x, q), -1, q))
            % q for x in xs]
