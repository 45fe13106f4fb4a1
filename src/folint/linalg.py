"""Small exact linear algebra kernel used across the package.

``rref`` is the one elimination loop over exact entries, int, Fraction or
FieldElement (``modp.rref`` is its twin on ints mod a prime), and rank and
nullspace are thin wrappers over it.  It inverts a pivot with
``numfield.reciprocal``, so int matrices go in as they are.  ``rank_int``
takes the rank of an integer matrix mod one prime first and eliminates
over Q only when that rank falls short of the row count.  The simplex is
the reference that the tests check cone membership against.
"""

from __future__ import annotations

from fractions import Fraction

from . import modp
from .numfield import QQ, reciprocal


def rref(rows):
    """Reduced row echelon form (on a copy); returns (rows, pivots), the
    nonzero reduced rows and their pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        # the pivot row is zero left of c, so only columns c.. change
        inv = reciprocal(m[r][c])
        tail = [v * inv for v in m[r][c:]]
        m[r][c:] = tail
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i][c:] = [a - f * b if b else a
                             for a, b in zip(m[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    """Rank of a matrix of int, Fraction or FieldElement entries."""
    return len(rref(rows)[0])


def rank_int(matrix) -> int:
    """Rank of an integer matrix.

    The rank over F_P, P = ``QQ.split_prime(0)``'s prime, is never larger
    than the rank over Q: a minor that is nonzero mod P is a nonzero
    integer.  So when the rank mod P equals the number of rows, it is the
    rank; only when it falls short do the rows go through an exact
    elimination over Q.
    """
    full = len(matrix)
    if len(modp.rref(matrix, QQ.split_prime(0)[0])[1]) == full:
        return full
    return rank(matrix)


def nullspace(rows):
    """Basis of the right kernel of a matrix of int, Fraction or
    FieldElement entries."""
    if not rows or not rows[0]:
        return []
    return kernel(*rref(rows), len(rows[0]), rows[0][0] * 0)


def kernel(reduced, pivots, ncols, zero):
    """The right kernel read off ``rref``'s output: one vector per free
    column, in column order, with a one there and minus the reduced entries
    at the pivots."""
    one = zero + 1
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def lp_feasible(A, b) -> bool:
    """Exact phase-1 simplex with Bland's rule: does A z = b admit z >= 0?"""
    m = len(A)
    n = len(A[0]) if m else 0
    rows, rhs = [], []
    for i in range(m):
        bi = Fraction(b[i])
        if bi < 0:
            rows.append([-Fraction(v) for v in A[i]])
            rhs.append(-bi)
        else:
            rows.append([Fraction(v) for v in A[i]])
            rhs.append(bi)
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0)
                      for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    for j in range(n, n + m):
        cost[j] += 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(tab[i][-1] / tab[i][enter], basis[i], i)
                  for i in range(m) if tab[i][enter] > 0]
        if not ratios:
            break
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[leave])]
        f = cost[enter]
        if f != 0:
            cost = [a - f * c for a, c in zip(cost, tab[leave])]
        basis[leave] = enter
    return -cost[-1] == 0
