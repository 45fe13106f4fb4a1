import math
import random
from fractions import Fraction

import pytest

from folint import linalg, modp
from folint.numfield import QQ, poly_mul, poly_resultant


def _eval(a, x, P):
    return sum(c * pow(x, i, P) for i, c in enumerate(a)) % P


@pytest.mark.parametrize("P", [3, 5, 7, 11, 13])
def test_split_roots_against_brute_force(P):
    rng = random.Random(P)
    for _ in range(300):
        degree = rng.randint(1, 5)
        m = [rng.randrange(P) for _ in range(degree)] + [1]
        roots = [r for r in range(P) if _eval(m, r, P) == 0]
        assert sorted(modp.split_roots(m, P)) == roots


def test_split_roots_of_products_of_distinct_linear_factors():
    P = 2 ** 31 - 1
    rng = random.Random(1)
    for degree in range(1, 7):
        roots = rng.sample(range(P), degree)
        m = [1]
        for r in roots:
            m = modp.mul(m, [-r % P, 1], P)
        assert sorted(modp.split_roots(m, P)) == sorted(roots)
        # a repeated root is found once, and a factor without roots adds none
        m = modp.mul(m, [-roots[0] % P, 1], P)
        assert sorted(modp.split_roots(m, P)) == sorted(roots)
        m = modp.mul(m, [1, 0, 1], P)           # x^2 + 1, P = 3 mod 4
        assert sorted(modp.split_roots(m, P)) == sorted(roots)


# P = 1 mod 8 runs the Tonelli-Shanks loop with s >= 3 (P - 1 = q 2^s),
# P = 3 mod 4 has s = 1, P = 5 mod 8 has s = 2
CLOSED_FORM_PRIMES = [3, 5, 7, 11, 13, 17, 41, 73, 97, 101, 113, 257,
                      65537, 998244353, 2 ** 31 - 1, 2 ** 31 - 19]


@pytest.mark.parametrize("P", CLOSED_FORM_PRIMES)
def test_quadratic_closed_form_is_the_generic_splitting(P):
    # the same roots in the same order: none for a non-square
    # discriminant, one for a zero one, two for a nonzero square
    rng = random.Random(P)
    cases = [[rng.randrange(P), rng.randrange(P), 1] for _ in range(120)]
    for _ in range(15):
        r, s = rng.randrange(P), rng.randrange(P)
        cases.append(modp.mul([-r % P, 1], [-s % P, 1], P))
        cases.append(modp.mul([-r % P, 1], [-r % P, 1], P))
    kinds = set()
    for m in cases:
        roots = modp.split_roots(m, P)
        assert roots == modp._generic_roots(m, P)
        assert all(_eval(m, r, P) == 0 for r in roots)
        kinds.add(len(roots))
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("P", CLOSED_FORM_PRIMES)
def test_tonelli_shanks_square_roots(P):
    rng = random.Random(P)
    for _ in range(50):
        n = pow(rng.randrange(1, P), 2, P)
        assert pow(modp._sqrt(n, P), 2, P) == n


def test_a_double_root_does_not_split():
    # disc = 0 mod P: m = (x - r)^2 has the one root r, so m does not split
    # into distinct linear factors and split_prime skips P
    P = 97
    for r in range(P):
        m = modp.mul([-r % P, 1], [-r % P, 1], P)
        assert modp.split_roots(m, P) == [r]


def test_vandermonde_inverse_recovers_coordinates():
    P = 101
    roots = [3, 17, 55, 90]
    inverse = modp.vandermonde_inverse(roots, P)
    coords = [5, 0, 99, 42]
    values = [_eval(coords, r, P) for r in roots]
    assert [sum(w * v for w, v in zip(row, values)) % P
            for row in inverse] == coords


def test_interpolate_and_crt_recover_an_integer_polynomial():
    rng = random.Random(2)
    f = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(7)]
    xs = [0, 1, 3, 4, 5, 8, 9]            # nodes with gaps
    residues, modulus = [0] * len(f), 1
    for P in (2 ** 31 - 1, 2 ** 31 - 19):
        inverses = [0] + [pow(d, -1, P) for d in range(1, xs[-1] + 1)]
        ys = [_eval([c % P for c in f], x, P) for x in xs]
        images = modp.interpolate(xs, ys, inverses, P)
        residues = modp.crt(residues, modulus, images, P)
        modulus *= P
    assert [modp.symmetric(c, modulus) for c in residues] == f


def test_resultant_agrees_with_the_rational_one():
    rng = random.Random(3)
    P = 2 ** 31 - 1
    for _ in range(50):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [
            rng.choice([-3, -1, 1, 2])]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [
            rng.choice([-2, 1, 5])]
        if rng.random() < 0.2:
            common = [rng.randint(-3, 3), 1]
            a, b = ([int(c) for c in poly_mul(f, common)] for f in (a, b))
        exact = poly_resultant([QQ.element(c) for c in a],
                               [QQ.element(c) for c in b], QQ)
        assert modp.resultant([c % P for c in a], [c % P for c in b], P) == \
            Fraction(exact.coeffs[0]) % P


def _image(q, P):
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, P) % P


def test_rref_is_the_image_of_the_rational_one():
    # random int matrices, some of them products that lose rank over Q;
    # mod a large prime the reduced echelon form is the rational one's image
    rng = random.Random(4)
    P = 2 ** 31 - 1
    for _ in range(200):
        rows, cols, inner = (rng.randint(1, 6) for _ in range(3))
        left = [[rng.randint(-9, 9) for _ in range(inner)]
                for _ in range(rows)]
        right = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(inner)]
        matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                  for row in left]
        reduced, pivots = linalg.rref([[Fraction(v) for v in row]
                                       for row in matrix])
        assert modp.rref(matrix, P) == (
            [[_image(v, P) for v in row] for row in reduced], pivots)


def test_rref_mod_a_small_prime():
    # mod 5 the rank drops: the kernel read off the reduced rows still
    # annihilates every row mod 5, and has n - rank vectors
    rng = random.Random(5)
    P = 5
    for _ in range(200):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-20, 20) for _ in range(n)]
                  for _ in range(rng.randint(1, 6))]
        reduced, pivots = modp.rref(matrix, P)
        assert len(reduced) == len(pivots) <= min(len(matrix), n)
        for r, pc in enumerate(pivots):
            assert reduced[r][pc] == 1 and not any(reduced[r][:pc])
            assert all(row[pc] == 0 for i, row in enumerate(reduced)
                       if i != r)
        kernel = linalg.kernel(reduced, pivots, n, 0)
        assert len(kernel) == n - len(pivots)
        assert all(sum(a * b for a, b in zip(row, vec)) % P == 0
                   for row in matrix for vec in kernel)
    assert modp.rref([], P) == ([], [])
    assert modp.rref([[5, 10], [0, 0]], P) == ([], [])


def test_rational_reconstruction():
    rng = random.Random(6)
    modulus = (2 ** 31 - 1) * (2 ** 31 - 19)
    bound = math.isqrt(modulus // 2 - 1)
    for _ in range(300):
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        x = _image(q, modulus)
        assert modp.rational(x, modulus, bound) == q
        # a smaller bound never returns a fraction beyond it
        small = max(abs(q.numerator), q.denominator) - 1
        other = modp.rational(x, modulus, small)
        assert other is None or (max(abs(other.numerator),
                                     other.denominator) <= small
                                 and _image(other, modulus) == x)
    assert modp.rational(0, modulus, bound) == 0
    assert modp.rational(modulus - 1, modulus, 1) == -1
