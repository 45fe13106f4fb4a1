"""Univariate polynomials over a prime field F_P, on plain ints.

A polynomial is a list of residues 0 <= c < P, low degree first, with no
trailing zeros (``[]`` is zero).  The primes in use lie below 2^31, so each
product of two residues is a machine-size int.  Besides the ring operations
this holds what a modular algorithm needs: a Euclidean resultant, Newton
interpolation on non-negative integer nodes, the Chinese remainder step with
a symmetric lift, rational reconstruction, the roots of a polynomial that
splits into distinct linear factors (a quadratic's in closed form, by
Euler's criterion and a Tonelli-Shanks square root, with no polynomial
power), the inverse of their Vandermonde matrix, and from these the image
of a bivariate resultant over a number field.  Matrices mod P have their
reduced row echelon form.  Nothing here depends on the rest of the
package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5 and 7 decide every
    n < 3,215,031,751 (Pomerance, Selfridge and Wagstaff 1980)."""
    if n >= 3215031751:
        raise ValueError("%d is beyond the proven Miller-Rabin range" % n)
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def mul(a, b, P):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return trim([c % P for c in out])


def divmod_(a, b, P):
    """Quotient and remainder of a by a nonzero b."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, P)
    quo = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k] * inv % P
        if c:
            quo[k - db] = c
            for j in range(db):
                rem[k - db + j] = (rem[k - db + j] - c * b[j]) % P
    return quo, trim(rem[:db])


def gcd(a, b, P):
    """The monic gcd; [] when both are zero."""
    while b:
        a, b = b, divmod_(a, b, P)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, P)
    return [c * inv % P for c in a]


def powmod(base, e, m, P):
    """base^e mod m, by squaring."""
    out, base = [1], divmod_(base, m, P)[1]
    while e:
        if e & 1:
            out = divmod_(mul(out, base, P), m, P)[1]
        base = divmod_(mul(base, base, P), m, P)[1]
        e >>= 1
    return out


def resultant(a, b, P):
    """Res(a, b) by the Euclidean algorithm, for a and b with nonzero
    leading coefficients: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a -
    deg r) Res(b, r) for r = a mod b, and Res(a, c) = c^deg a."""
    res = 1
    while len(b) > 1:
        r = divmod_(a, b, P)[1]
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        if da & db & 1:
            res = -res
        res = res * pow(b[-1], da - len(r) + 1, P) % P
        a, b = b, r
    return res * pow(b[0], len(a) - 1, P) % P


def interpolate(xs, ys, inverses, P):
    """The coefficients, low degree first and len(xs) of them, of the
    polynomial of degree < len(xs) through (xs[i], ys[i]) mod P.

    The nodes are increasing non-negative ints and ``inverses[d]`` is 1/d
    mod P for every difference d of two of them, so one table serves every
    interpolation on these nodes: Newton divided differences, expanded to
    the monomial basis by Horner.
    """
    n = len(xs)
    c = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inverses[xs[i] - xs[i - k]] % P
    out = [0] * n
    for i in range(n - 1, -1, -1):
        x = xs[i]
        for k in range(n - 1 - i, 0, -1):
            out[k] = (out[k - 1] - x * out[k]) % P
        out[0] = (c[i] - x * out[0]) % P
    return out


def crt(residues, modulus, images, P):
    """The residues mod modulus * P that are ``residues`` mod modulus and
    ``images`` mod P (Garner's step), for P prime to modulus."""
    inv = pow(modulus, -1, P)
    return [x + modulus * ((y - x) * inv % P)
            for x, y in zip(residues, images)]


def rational(x, modulus, bound):
    """The fraction n/d with n = d x mod modulus and |n|, d <= bound, or
    None when there is none (Wang 1981), for 2 bound^2 < modulus.  There is
    at most one: two such fractions n/d and n'/d' give n d' = n' d mod
    modulus with both sides below modulus / 2 in absolute value, so
    n d' = n' d.  The extended Euclidean algorithm on (modulus, x) keeps
    r_i = s_i x mod modulus, and its first remainder r_i <= bound gives
    the candidate."""
    r0, r1 = modulus, x % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not s1 or abs(s1) > bound or igcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def symmetric(x, modulus):
    """The representative of x mod modulus in (-modulus/2, modulus/2]."""
    x %= modulus
    return x - modulus if 2 * x > modulus else x


def split_roots(m, P):
    """The distinct roots of the monic m mod the odd prime P; m splits into
    distinct linear factors when there are deg m of them.  A quadratic is
    answered in closed form (``_quadratic_roots``), in the same order."""
    if len(m) == 3:
        return _quadratic_roots(m, P)
    return _generic_roots(m, P)


def _generic_roots(m, P):
    """``split_roots`` for m of any degree.

    gcd(m, x^P - x), where x^P - x = x (h^2 - 1) for h = x^((P-1)/2), is
    the product of the distinct linear factors of m.  Its gcd with
    (x + a)^((P-1)/2) - 1 keeps the factors whose root shifted by a is a
    nonzero square; for a = 0, 1, ... in turn each proper gcd is split
    further, then its cofactor.  The first root is the one that descending
    into every proper gcd reaches.
    """
    half = powmod([0, 1], (P - 1) // 2, m, P)
    power = divmod_([0] + mul(half, half, P), m, P)[1] + [0, 0]
    power[1] = (power[1] - 1) % P
    g = gcd(m, trim(power), P)
    roots = []
    if len(g) > 1:
        _split(g, 0, divmod_(half, g, P)[1], P, roots)
    return roots


def _quadratic_roots(m, P):
    """``split_roots`` for a monic quadratic m = x^2 + b x + c, in the
    order ``_generic_roots`` gives, with no polynomial power.

    The roots are (-b +- s) / 2 for s^2 = disc = b^2 - 4c: none when disc
    is not a square (Euler's criterion), the one root -b / 2 when disc = 0,
    where m = (x + b/2)^2, else two.  Of two roots the generic splitting
    keeps in its first proper gcd, and so reaches first, the root r for
    which r + a is a nonzero square, a >= 0 the least shift at which that
    holds for exactly one of them: at every smaller shift the gcd is 1 or
    m, which is not proper.
    """
    c, b, _ = m
    half, inv2 = (P - 1) // 2, (P + 1) // 2
    disc = (b * b - 4 * c) % P
    if not disc:
        return [-b * inv2 % P]
    if pow(disc, half, P) != 1:
        return []
    s = _sqrt(disc, P)
    roots = [(s - b) * inv2 % P, (-s - b) * inv2 % P]
    a = 0
    while True:
        first, second = (pow(r + a, half, P) == 1 for r in roots)
        if first != second:
            return roots if first else roots[::-1]
        a += 1


def _sqrt(n, P):
    """A square root of the nonzero square n mod the odd prime P
    (Tonelli-Shanks).  With P - 1 = q 2^e, q odd, and z the least
    non-square, the loop keeps r^2 = n t, t of order below 2^e and c of
    order exactly 2^e.  If t has order 2^i, b = c^(2^(e-i-1)) has order
    2^(i+1), so t b^2 has order below 2^i, and r b, b^2, i replace r, c,
    e until t = 1."""
    q, e = P - 1, 0
    while not q & 1:
        q, e = q >> 1, e + 1
    z = 2
    while pow(z, (P - 1) // 2, P) != P - 1:
        z += 1
    c, t, r = pow(z, q, P), pow(n, q, P), pow(n, (q + 1) // 2, P)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % P, i + 1
        b = pow(c, 1 << (e - i - 1), P)
        e, c = i, b * b % P
        t, r = t * c % P, r * b % P
    return r


def _split(g, a, half, P, roots):
    """Split g from the shift a on, where half is (x + a)^((P-1)/2) mod g
    or None."""
    while len(g) > 2:
        if half is None:
            half = powmod([a, 1], (P - 1) // 2, g, P)
        half = half + [0] * (1 - len(half))
        half[0] = (half[0] - 1) % P
        h = gcd(g, trim(half), P)
        a, half = a + 1, None
        if 2 <= len(h) < len(g):
            _split(h, a, None, P, roots)
            g = divmod_(g, h, P)[0]
    roots.append(-g[0] % P)


def vandermonde_inverse(roots, P):
    """W with sum_j W[i][j] v(r_j) = v_i for every v = sum_i v_i t^i of
    degree < len(roots): W[i][j] is the t^i coefficient of the Lagrange
    basis polynomial of r_j."""
    columns = []
    for j, r in enumerate(roots):
        basis, scale = [1], 1
        for s in roots[:j] + roots[j + 1:]:
            basis = mul(basis, [-s % P, 1], P)
            scale = scale * (r - s) % P
        inv = pow(scale, -1, P)
        columns.append([c * inv % P for c in basis])
    return [list(row) for row in zip(*columns)]


def resultant_images(p_rows, q_rows, roots, inverse, count, P):
    """The t-coordinates mod P of the first ``count`` x-coefficients of
    Res_y(p, q) mod mu, flat (coefficient-major), or None when some t -> r_j
    kills a leading y-coefficient of p or q.

    ``p_rows[j][i]`` holds the int t-coordinates of the x^i y^j coefficient
    of p; ``roots`` are the distinct roots r_j of mu mod P and ``inverse``
    their inverse Vandermonde matrix.  Each image under t -> r_j is
    interpolated from Euclidean resultants at the nodes x = 0, 1, ... where
    no leading y-coefficient vanishes under any t -> r_j.
    """
    reduced = []
    for r in roots:
        pair = [[[evaluate(e, r, P) for e in row] for row in rows]
                for rows in (p_rows, q_rows)]
        if not any(pair[0][-1]) or not any(pair[1][-1]):
            return None
        reduced.append(pair)
    nodes, x = [], 0
    while len(nodes) < count:
        if all(evaluate(pr[-1], x, P) and evaluate(qr[-1], x, P)
               for pr, qr in reduced):
            nodes.append(x)
        x += 1
    inverses = [0] + [pow(dx, -1, P) for dx in range(1, x)]
    values = [interpolate(nodes, [
        resultant([evaluate(row, x0, P) for row in pr],
                  [evaluate(row, x0, P) for row in qr], P) for x0 in nodes],
        inverses, P) for pr, qr in reduced]
    return [sum(w * v[i] for w, v in zip(row, values)) % P
            for i in range(count) for row in inverse]


def evaluate(a, x, modulus):
    """a(x) mod modulus, by Horner; the modulus need not be prime."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % modulus
    return acc


def rref(rows, P):
    """The reduced row echelon form mod P of a matrix of ints, as
    ``linalg.rref`` returns it: (the nonzero reduced rows, with entries in
    [0, P), and their pivot columns)."""
    m = [[v % P for v in row] for row in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        # the pivot row is zero left of c, so only columns c.. change
        inv = pow(m[r][c], -1, P)
        tail = [v * inv % P for v in m[r][c:]]
        m[r][c:] = tail
        for i in range(len(m)):
            f = m[i][c]
            if f and i != r:
                m[i][c:] = [(a - f * b) % P for a, b in zip(m[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots
