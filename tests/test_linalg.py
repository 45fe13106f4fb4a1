"""Properties of the exact elimination kernel over Q and Q(i), and of the
polynomial kernel on int lists."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from folint import linalg
from folint.numfield import (
    QQ, FieldElement, NumberField, poly_degree, poly_divmod, poly_gcd,
    poly_inverse_mod, poly_squarefree_part, poly_trim,
)

from helpers import reference_rref

QI = NumberField((1, 0, 1))          # Q(i), i^2 = -1

small = st.integers(-3, 3)


@st.composite
def int_matrices(draw, extra_cols=0):
    """A 1..4 x 1..4 integer matrix, plus ``extra_cols`` more columns."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4)) + extra_cols
    return [[draw(small) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def qi_matrices(draw, extra_cols=0):
    """The same shapes over Q(i), entries a + b*i with a, b in -3..3."""
    rows = draw(int_matrices(extra_cols))
    return [[QI.element((v, draw(small))) for v in row] for row in rows]


def as_exact(rows):
    return [[v if isinstance(v, FieldElement) else Fraction(v) for v in row]
            for row in rows]


def matvec(rows, vec):
    return [sum((a * x for a, x in zip(row, vec)), start=0 * vec[0])
            for row in rows]


def no_float(value):
    """True when no float hides anywhere in a (nested) result.  A field
    element's coordinates must be exactly int or Fraction: no float, and no
    bool either."""
    if isinstance(value, float):
        return False
    if isinstance(value, FieldElement):
        return all(type(c) in (int, Fraction) for c in value.coeffs)
    if isinstance(value, (list, tuple)):
        return all(no_float(v) for v in value)
    return True


def check_kernel(rows):
    ncols = len(rows[0])
    reduced, pivots = linalg.rref(rows)
    kernel = linalg.nullspace(rows)
    assert len(reduced) == len(pivots) == linalg.rank(rows)
    assert linalg.rank(rows) + len(kernel) == ncols
    for vec in kernel:
        assert all(v == 0 for v in matvec(rows, vec))
    assert no_float(reduced) and no_float(kernel)


@settings(deadline=None)
@given(int_matrices())
def test_kernel_over_q(matrix):
    # a pivot is inverted exactly, so ints go in as they are
    check_kernel(matrix)
    check_kernel(as_exact(matrix))
    assert linalg.rref(matrix) == linalg.rref(as_exact(matrix))


@settings(deadline=None)
@given(qi_matrices())
def test_kernel_over_qi(rows):
    check_kernel(rows)


def _deficient_matrix(rng):
    """A seeded int matrix of known rank: rows drawn from a few random
    rows, mixed with random sparse rows, maybe a zero column."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
    base = [[rng.randint(-5, 5) for _ in range(ncols)]
            for _ in range(rng.randint(0, min(nrows, ncols)))]
    rows = []
    for _ in range(nrows):
        if base and rng.random() < 0.7:
            mix = [rng.randint(-3, 3) for _ in base]
            rows.append([sum(k * row[j] for k, row in zip(mix, base))
                         for j in range(ncols)])
        else:
            rows.append([rng.randint(-6, 6) if rng.random() < 0.5 else 0
                         for _ in range(ncols)])
    if rng.random() < 0.3:
        zero = rng.randrange(ncols)
        for row in rows:
            row[zero] = 0
    return rows


def test_fraction_free_rref_is_the_pivot_inverting_loop():
    # the same reduced rows and pivots as the loop that divides by each
    # pivot, on rank-deficient matrices, zero columns, row swaps and
    # negative pivots, over Z, Fraction and Q(i)
    rng = random.Random(30)
    seen = {"swap": 0, "negative": 0, "deficient": 0, "zero column": 0}
    for _ in range(300):
        rows = _deficient_matrix(rng)
        fractions = [[Fraction(v, rng.randint(1, 4)) for v in row]
                     for row in rows]
        gaussian = [[QI.element((v, rng.randint(-1, 1))) for v in row]
                    for row in rows]
        for matrix in (rows, fractions, gaussian):
            assert linalg.rref(matrix) == reference_rref(matrix)
        reduced, pivots = linalg.rref(rows)
        assert no_float(reduced)
        first = next((c for c in range(len(rows[0]))
                      if any(row[c] for row in rows)), None)
        seen["swap"] += first is not None and rows[0][first] == 0
        seen["negative"] += first is not None and any(
            row[first] < 0 for row in rows)
        seen["deficient"] += len(pivots) < min(len(rows), len(rows[0]))
        seen["zero column"] += any(not any(row[c] for row in rows)
                                   for c in range(len(rows[0])))
    assert all(seen.values()), seen


int_polys = st.lists(small, min_size=1, max_size=5)


@settings(deadline=None)
@given(int_polys, int_polys)
def test_int_polynomials_go_in_as_they_are(p, q):
    # the same results as on Fraction lists, and no float among them
    exact_p, exact_q = as_exact([p, q])
    results = [(poly_gcd(p, q), poly_gcd(exact_p, exact_q))]
    if poly_trim(q):
        results.append((poly_divmod(p, q), poly_divmod(exact_p, exact_q)))
    if poly_degree(q) >= 1:
        results.append((poly_inverse_mod(p, q),
                        poly_inverse_mod(exact_p, exact_q)))
    if poly_trim(p):
        results.append((poly_squarefree_part(p),
                        poly_squarefree_part(exact_p)))
    for from_ints, from_fractions in results:
        assert no_float(from_ints) and from_ints == from_fractions


@settings(deadline=None)
@given(int_matrices())
def test_rank_int_matches_rank_over_q(matrix):
    assert linalg.rank_int(matrix) == linalg.rank(as_exact(matrix))


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.data())
def test_rank_int_is_the_exact_rank_on_deficient_matrices(data):
    """A product of an n x k and a k x m integer matrix has rank at most k,
    so the draws with k < n lose rank over Q as well as mod p."""
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    big = st.integers(-10 ** 12, 10 ** 12)
    left = [[data.draw(big) for _ in range(k)] for _ in range(n)]
    right = [[data.draw(small) for _ in range(m)] for _ in range(k)]
    matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
              for row in left]
    assert linalg.rank_int(matrix) == linalg.rank(as_exact(matrix))


def test_rank_int_falls_back_when_the_rank_drops_mod_p():
    p = QQ.split_prime(0)[0]
    # mod p the first row vanishes, so the modular rank is 1 of 2
    assert linalg.rank_int([[p, 0], [0, 1]]) == 2
    # rows 1 and 2 agree mod p; the determinant is 2p
    assert linalg.rank_int([[p + 1, 2, 1], [1, 2, 1], [0, 0, 1]]) == 3
    assert linalg.rank_int([[p, 2 * p], [1, 2]]) == 1


def test_rank_int_is_exact_where_floats_are_not():
    # row 3 = row 1 - row 2; elimination in floats leaves a tiny residue
    # and reports rank 3
    assert linalg.rank_int([[3, 4, -8], [-1, 7, 6], [4, -3, -14]]) == 2


def _face_lp(G):
    """The LP of a singular stationarity face in ``is_p_sufficient``:
    G x = -nu (one scalar nu), sum x = 1, x >= 0, nu >= 0."""
    k = len(G)
    A = [list(row) + [1] for row in G] + [[1] * k + [0]]
    return A, [0] * k + [1]


def _face_is_singular(G):
    k = len(G)
    aug = [[Fraction(v) for v in row] + [Fraction(-1), Fraction(0)]
           for row in G]
    aug.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    return linalg.rref(aug)[1] != list(range(k + 1))


def test_lp_feasible_on_degenerate_singular_faces():
    # feasible only with nu = 0, e.g. x = (1/2, 1/2, 0): a degenerate
    # vertex on a face whose stationarity system is singular
    G = [[1, -1, -1], [-1, 1, 1], [-1, 1, 1]]
    assert _face_is_singular(G)
    assert linalg.lp_feasible(*_face_lp(G))
    # singular too, but G x > 0 for every x >= 0 with sum x = 1
    G = [[1, 1], [1, 1]]
    assert _face_is_singular(G)
    assert not linalg.lp_feasible(*_face_lp(G))


def test_lp_feasible_with_redundant_rows():
    # a repeated row and a zero right-hand side leave an artificial
    # variable basic at level 0 when phase 1 ends
    A = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert linalg.lp_feasible(A, [2, 2, 0])
    assert not linalg.lp_feasible(A, [2, 3, 0])
    assert not linalg.lp_feasible(A, [2, 2, -1])
