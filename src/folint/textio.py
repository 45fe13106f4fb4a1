"""The text syntax: ``parse_polynomial`` reads every input expression into
an exponent dict over Q, and the ``format_*`` functions write elements
(through their ``coeffs``), minimal polynomials and K[t] polynomials back
in the same syntax.  Nothing of the package is imported here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

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


def format_element(e) -> str:
    """Render in the field syntax: rationals as p/q, the generator as ``a``."""
    return join_terms(scaled_term(_fmt_q(c), _power("a", i))
                      for i, c in enumerate(e.coeffs) if c != 0)


def format_minpoly(field) -> str:
    return join_terms(scaled_term(_fmt_q(c), _power("t", i))
                      for i, c in reversed(list(enumerate(field.minpoly)))
                      if c != 0)


def format_poly_in_t(coeffs) -> str:
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
