"""Foliations with a known rational first integral, built from line pencils.

A pencil F/G, with F and G products of rational lines, has the first integral
F/G, so its foliation ``G dF - F dG`` (saturated) must never be answered
``no_integral``.  Everything here uses plain integer/Fraction polynomials of
its own, so the generator and the oracle do not depend on the code under test.

A polynomial is a dict ``{(i, j, k): coefficient}`` for X^i Y^j Z^k.
"""

from __future__ import annotations

import random
from fractions import Fraction

# (numerator exponents, denominator exponents) of distinct lines L1, L2, ...
SHAPES = {
    "L1L2/L3L4": ((1, 1), (1, 1)),
    "L1^2L2/L3^2L4": ((2, 1), (2, 1)),
    "L1L2L3/L4^3": ((1, 1, 1), (3,)),
    "L1^3/L2^2L3": ((3,), (2, 1)),
}
COEFF_RANGE = 3


class Pencil:
    """One generated instance: the lines with their exponents and the
    saturated 1-form (A, B, C) that folint receives as text."""

    def __init__(self, shape, lines, weights, form):
        self.shape = shape
        self.lines = lines
        self.weights = weights
        self.form = form

    @property
    def degree(self) -> int:
        """deg F = deg G."""
        return sum(w for w in self.weights if w > 0)

    def fol_text(self) -> str:
        out = ["# pencil %s, lines %s" % (self.shape, self.lines)]
        for name, comp in zip("ABC", self.form):
            out.append("%s = %s" % (name, format_poly(comp)))
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def _add_into(out, poly, scale=1):
    for key, c in poly.items():
        v = out.get(key, 0) + scale * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def poly_partial(p, index):
    out = {}
    for e, c in p.items():
        if e[index]:
            key = list(e)
            key[index] -= 1
            out[tuple(key)] = c * e[index]
    return out


def line_poly(line):
    return {k: c for k, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)
            if c}


def format_poly(p) -> str:
    if not p:
        return "0"
    text = ""
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "*".join(v if k == 1 else "%s^%d" % (v, k)
                        for v, k in zip("XYZ", e) if k)
        mag = abs(c)
        if not mono:
            term = str(mag)
        elif mag == 1:
            term = mono
        else:
            term = "%s*%s" % (mag, mono)
        if not text:
            text = ("-" if c < 0 else "") + term
        else:
            text += ("-" if c < 0 else "+") + term
    return text


def log_form(lines, weights):
    """(prod L_i) * sum_i w_i dL_i / L_i, the 1-form G dF - F dG divided by
    the factor prod L_i^(|w_i| - 1) that every pencil of lines carries."""
    polys = [line_poly(l) for l in lines]
    comps = [{}, {}, {}]
    for i, (line, w) in enumerate(zip(lines, weights)):
        others = {(0, 0, 0): 1}
        for k, p in enumerate(polys):
            if k != i:
                others = poly_mul(others, p)
        for v in range(3):
            if line[v]:
                _add_into(comps[v], others, w * line[v])
    return tuple(comps)


def pencil_form(F, G):
    """The (unsaturated) components of G dF - F dG."""
    return tuple(_add_into(poly_mul(G, poly_partial(F, v)),
                           poly_mul(F, poly_partial(G, v)), -1)
                 for v in range(3))


def proportional(u, v) -> bool:
    """Are the 1-forms u and v proportional, i.e. is u ^ v = 0?"""
    for i, j in ((0, 1), (1, 2), (0, 2)):
        if _add_into(poly_mul(u[i], v[j]), poly_mul(u[j], v[i]), -1):
            return False
    return True


# ---------------------------------------------------------------------------
# degeneracy test: a common factor of A, B, C restricts to a common root on
# any line of the plane, finite or at the far end of the parametrisation
# ---------------------------------------------------------------------------

def _restrict(p, P, Q):
    """p(P + t Q) as a list of Fractions, lowest degree first."""
    out = [Fraction(0)]
    for e, c in p.items():
        term = [Fraction(c)]
        for v in range(3):
            for _ in range(e[v]):
                nxt = [Fraction(0)] * (len(term) + 1)
                for k, a in enumerate(term):
                    nxt[k] += a * P[v]
                    nxt[k + 1] += a * Q[v]
                term = nxt
        if len(term) > len(out):
            out.extend([Fraction(0)] * (len(term) - len(out)))
        for k, a in enumerate(term):
            out[k] += a
    while out and out[-1] == 0:
        out.pop()
    return out


def _urem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _has_common_factor(form, rng) -> bool:
    P = [rng.randint(-50, 50) for _ in range(3)]
    Q = [rng.randint(-50, 50) for _ in range(3)]
    at_q = [sum(c * Q[0] ** e[0] * Q[1] ** e[1] * Q[2] ** e[2]
                for e, c in comp.items()) for comp in form]
    if not any(at_q):
        return True
    g = []
    for comp in form:
        b = _restrict(comp, P, Q)
        while b:
            g, b = b, _urem(g, b)
    return len(g) != 1


def _independent(lines) -> bool:
    """No zero line and no two proportional lines."""
    for i, a in enumerate(lines):
        if not any(a):
            return False
        for b in lines[:i]:
            if (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0]) == (0, 0, 0):
                return False
    return True


def generate(seed, count: int):
    """``count`` pencils in an even, interleaved mix of the shapes; the same
    seed gives the same pencils.  Degenerate draws are redrawn."""
    rng = random.Random(seed)
    names = list(SHAPES)
    out = []
    for n in range(count):
        shape = names[n % len(names)]
        num, den = SHAPES[shape]
        weights = list(num) + [-e for e in den]
        while True:
            lines = [tuple(rng.randint(-COEFF_RANGE, COEFF_RANGE)
                           for _ in range(3)) for _ in weights]
            if not _independent(lines):
                continue
            form = log_form(lines, weights)
            if not _has_common_factor(form, rng):
                break
        out.append(Pencil(shape, lines, weights, form))
    return out
