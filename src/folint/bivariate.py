"""Bivariate dicts {(i, j): c} over K, x^i y^j, in their one row form
``to_y_rows``: the resultant in y, exact from its images mod word-size
primes (``modp``), and the common zeros of two curves, from the roots of
that resultant and of the gcds over each of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import modp
from .numfield import (
    FieldElement, _canon, denominator, exact_ring, find_roots_in_field,
    integral, lift, poly_mul, poly_trim, root_gcd,
)
from .zpoly import _at_ratio


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
      Vandermonde matrix of the r_j the coordinates of T mod P.  A prime
      at which some t -> r_j kills a leading coefficient is skipped.  Once
      the product M of the primes exceeds 2B, the symmetric residues mod M
      are T itself.
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
    row(u/v) at x0 = u/v, v = denominator(x0): ints over Q, which
    ``root_gcd`` takes as they are.
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
        g = root_gcd(*([_at_ratio(row, u, v, n) for row in r] for r in rows),
                     field)
        if len(g) < 2:
            continue
        ys = find_roots_in_field(g, field)
        if ys.remaining_degree:
            escapes.append((x0, ys.cofactor))
        points.extend((x0, y0) for y0 in ys.roots)
    return points, escapes
