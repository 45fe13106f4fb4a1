"""Small exact linear algebra kernel used across the package.

``rref`` is the one elimination loop over exact entries, int, Fraction or
FieldElement (``modp.rref`` is its twin on ints mod a prime), and rank and
nullspace are thin wrappers over it.  Over a field it inverts each pivot
with ``numfield.reciprocal``; an int matrix goes in as it is and is
eliminated fraction-free, in ints up to one division at the end.
``rank_int``
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
    nonzero reduced rows and their pivot columns.

    Gauss-Jordan with the first nonzero entry at or below row r as the
    pivot of each column.  Over a field the pivot row is scaled to 1 and
    its column cleared from the other rows.  An int matrix is eliminated
    fraction-free (Bareiss 1968) instead.  Let R be the matrix that
    Gauss-Jordan over Q reaches after k pivots, and d the determinant of
    the k x k pivot block in the input M with the same row swaps (d = 1
    for k = 0).  The loop keeps A = d R and divides by d once at the end.
    A and R have the same zeros, so they give the same pivots.  At the next
    pivot p = A[r][c] = d R[r][c], Gauss-Jordan makes row r into R_r /
    R[r][c] and every other row R_i - R[i][c] R_r / R[r][c].  The new
    block's determinant is d' = d R[r][c] = p by Schur's formula, so d' R'
    has row r equal to A_r, unchanged, and every other row (p A_i - A[i][c]
    A_r) / d.  Every entry of d' R' is a minor of M: a pivot row's by
    Cramer's rule, as d' R' = adj(B) M there for the pivot block B, and
    another row's by Schur's formula, det [[B, u], [w, x]] = det B (x - w
    B^-1 u).  So the division by d is exact in Z.  A row is zero left of
    its own pivot, and a row below r is zero left of c, so each row is
    updated from there on; over a field a row with a zero in column c
    keeps its entries.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ints = all(type(v) is int for row in m for v in row)
    pivots = []
    r, last = 0, 1
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top, p = m[r], m[r][c]
        if not ints:
            inv = reciprocal(p)
            top[c:] = [v * inv for v in top[c:]]
        for i, row in enumerate(m):
            f = row[c]
            if i == r:
                continue
            if ints:
                s = pivots[i] if i < r else c
                row[s:] = [(p * a - f * b) // last
                           for a, b in zip(row[s:], top[s:])]
            elif f:
                row[c:] = [a - f * b if b else a
                           for a, b in zip(row[c:], top[c:])]
        pivots.append(c)
        r, last = r + 1, p
        if r == len(m):
            break
    if ints:
        return [[a // last if a % last == 0 else Fraction(a, last)
                 for a in row] for row in m[:r]], pivots
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
