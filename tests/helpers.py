"""Helpers that only the tests use: ranks of integer class vectors, cone
equality, total-transform valuations and spans of forms."""

from __future__ import annotations

from typing import Sequence

from folint import linalg
from folint.cluster import Configuration
from folint.cones import RationalCone, contains
from folint.polyforms import HomogeneousForm, monomials


def rank_of_classes(vectors) -> int:
    return linalg.rank_int([list(v) for v in vectors])


def cone_equal(a: RationalCone, b: RationalCone) -> bool:
    """Equality as sets, by double inclusion of generators."""
    return (all(contains(b, g) for g in a.generators)
            and all(contains(a, g) for g in b.generators))


def total_valuations(mults, config: Configuration):
    """Valuation of the total transform along each exceptional divisor."""
    vals = [0] * config.size
    for i in range(config.size):
        vals[i] = mults[i] + sum(vals[j] for j in config.prox_to[i])
    return vals


def same_span(forms_a: Sequence[HomogeneousForm],
              forms_b: Sequence[HomogeneousForm]) -> bool:
    """Spans are compared by ranks of stacked coefficient matrices."""
    if not forms_a and not forms_b:
        return True
    degree = (forms_a[0] if forms_a else forms_b[0]).degree
    order = monomials(degree)
    rows_a = [f.coefficient_vector(order) for f in forms_a]
    rows_b = [f.coefficient_vector(order) for f in forms_b]
    ra = linalg.rank(rows_a)
    rb = linalg.rank(rows_b)
    rab = linalg.rank(rows_a + rows_b)
    return ra == rb == rab
