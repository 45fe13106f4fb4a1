"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints an ACCEPTANCE line.
"""

import os
import time
from fractions import Fraction

import pytest

from folint import engine, linalg
from folint.cli import _peek_field, load_config_file, load_foliation
from folint.cluster import is_p_sufficient, load_configuration
from folint.engine import (
    IndependentSystem, NotAnIndependentSystem, algorithm1, algorithm2,
    algorithm3, classify_conditions, delta_bound, memo_fastpath, pipeline,
)
from folint.linsys import basis, h0, strict_class
from folint.numfield import NumberField
from folint.polyforms import is_first_integral, is_invariant_curve, parse_form
from folint.resolve import build_configuration

from helpers import (
    hold_back_algorithm1, line_class, record_duals, same_span,
    total_exceptional_class,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def load(name):
    cfg_path = os.path.join(FIXTURES, name + ".cfg")
    field = _peek_field(cfg_path)
    omega, field = load_foliation(os.path.join(FIXTURES, name + ".fol"),
                                  field)
    config = load_config_file(cfg_path, field)
    return omega, config, field


class deadline:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, \
                "%s took %.1fs (target %ss)" % (self.label, elapsed,
                                                self.seconds)
            print("ACCEPTANCE %s PASS (%.2fs)" % (self.label, elapsed))


def test_criterion_1_example1():
    with deadline("1 example1", 10):
        omega, config, field = load("example1")
        line = parse_form("X-Z", field)
        conic = parse_form(
            "(8*a-1)*X^2+4*a*X*Y+8*Y^2+(2-8*a)*X*Z-4*a*Y*Z-Z^2", field)
        system = IndependentSystem([line, conic], config)
        T = system.T
        assert T == config.divisor(4, [2, 2, 1, 1, 1, 1, 1, 1, 1, 1])
        dec = system.decomposition()
        assert dec.alpha == (4, 0)
        assert dec.beta == {"q1": 2, "q2": 4, "q3": 3, "q4": 2, "q5": 1,
                            "q7": 3, "q8": 2, "q9": 1}
        assert h0(T, config) == 2
        F = parse_form("X^2*Z^2-2*X^3*Z+X^4+X*Y*Z^2-2*X^2*Y*Z+X^3*Y+Y^4",
                       field)
        G = parse_form("(X-Z)^4", field)
        assert same_span(basis(T, config), [F, G])
        verdict = algorithm2(omega, config, system)
        assert verdict.is_integral
        assert is_first_integral(verdict.numerator, verdict.denominator,
                                 omega)


def test_criterion_2_fig2():
    with deadline("2 fig2", 30):
        omega, field = load_foliation(os.path.join(FIXTURES, "fig2.fol"))
        config = build_configuration(omega)
        assert config.size == 13
        # the fig2 tree: a cusp cluster q1 q2 q3 and a
        # branch over q4 with satellite packets q5..q8 and q13
        names = [p.name for p in config.points]
        assert names == ["q%d" % i for i in range(1, 14)]
        prox = {(names[i], names[j])
                for i in range(config.size) for j in config.prox_to[i]}
        expected = {("q2", "q1"), ("q3", "q2"), ("q3", "q1"),
                    ("q5", "q4"), ("q6", "q5"), ("q6", "q4"),
                    ("q7", "q6"), ("q7", "q4"), ("q8", "q7"), ("q8", "q4"),
                    ("q9", "q8"), ("q10", "q9"), ("q11", "q10"),
                    ("q12", "q11"), ("q13", "q12"), ("q13", "q11")}
        assert prox == expected
        assert [p.name for p in config.points if p.dicritical] == \
            ["q3", "q13"]
        system = IndependentSystem([parse_form("Y"), parse_form("Z")],
                                   config)
        verdict = memo_fastpath(omega, config, system)
        assert verdict is not None and verdict.is_integral
        F1 = parse_form(
            "Y^10-2*X*Y^5*Z^4+2*Y^6*Z^4+X^2*Z^8-2*X*Y*Z^8+Y^2*Z^8")
        F2 = parse_form("Y^3*Z^7")
        assert same_span([verdict.numerator, verdict.denominator], [F1, F2])


def test_criterion_3_family_a59(monkeypatch):
    with deadline("3 family a=5/9", 120):
        omega, config, _ = load("family_a59")
        duals = record_duals(monkeypatch)
        result = algorithm3(omega, config)
        assert sorted(duals[0]) == sorted([
            (1, 0, 0, 0, 0), (1, -1, 0, 0, 0), (1, 0, -1, 0, 0),
            (2, 0, -1, -1, 0), (3, 0, -2, -1, -1)])
        assert result.verdict.outcome == "no_integral"
        assert [f.monic() for f in result.curve_set] == [parse_form("X+Z")]


def test_criterion_3_family_a861(monkeypatch):
    with deadline("3 family a=-861/100", 120):
        omega, config, _ = load("family_a861")
        duals = record_duals(monkeypatch)
        result = algorithm3(omega, config)
        assert len(duals[1]) == 27
        assert result.verdict.outcome == "no_integral"


def test_criterion_3_family_a0():
    with deadline("3 family a=0", 120):
        omega, config, _ = load("family_a0")
        verdict = pipeline(omega, config)
        assert verdict.is_integral
        F1 = parse_form("(X+Z)*(Z-Y)")
        F2 = parse_form("Z*(Y-X)")
        assert same_span([verdict.numerator, verdict.denominator], [F1, F2])


def test_criterion_4_penultimate():
    with deadline("4 penultimate", 60):
        omega, config, _ = load("penultimate")
        system = IndependentSystem([parse_form("Y-Z")], config)
        report = classify_conditions(system)
        assert 2 in report.conditions
        assert 1 not in report.conditions
        assert delta_bound(omega, system, report.decomposition) == 1
        verdict = algorithm2(omega, config, system)
        assert verdict.is_integral
        F1 = parse_form("Y^5-X^3*Y^2+2*X^3*Y*Z-X^3*Z^2")
        F2 = parse_form("(Y-Z)^5")
        assert same_span([verdict.numerator, verdict.denominator], [F1, F2])


def test_criterion_5_fig3(monkeypatch):
    # Algorithm 1 finds fig3's pencil at d = 6 and ends the run; held back,
    # the cone search finds the independent system that spans it too
    with deadline("5 fig3", 120):
        omega, config, field = load("fig3")
        assert field == NumberField.from_string("t^2+t+1")
        assert is_p_sufficient(config)
        F1 = parse_form("(X+Y)^2*X^2*Z^2", field)
        F2 = parse_form("(X+Y)^3*Y^3+X^3*Z^3", field)
        verdict = pipeline(omega, config)
        assert verdict.is_integral
        assert same_span([verdict.numerator, verdict.denominator], [F1, F2])
        hold_back_algorithm1(monkeypatch)
        result = algorithm3(omega, config)
        assert result.system is not None
        produced = {f.monic() for f in result.curve_set}
        expected = {parse_form(t, field).monic() for t in
                    ("X", "X+Y", "Z", "X*Y+Y^2+X*Z", "a*X*Y+a*Y^2+X*Z")}
        assert produced == expected
        verdict = memo_fastpath(omega, config, result.system)
        assert verdict is not None and verdict.is_integral
        assert same_span([verdict.numerator, verdict.denominator], [F1, F2])


def test_criterion_6_cubic_pencil():
    with deadline("6 cubic pencil", 60):
        omega, config, field = load("cubic_pencil")
        assert config.size == 9 and config.dicritical_count == 9
        a = field.element((0, 1))
        r5 = (17 * a - a ** 3) / 6
        one = field.one()
        X = parse_form("X", field)
        Y = parse_form("Y", field)
        Z = parse_form("Z", field)
        curves = [
            X - Y,
            X + Y,
            2 * X + Y * (r5 + 3),
            (-2) * X + Y * (r5 - 3),
            X * X - X * Y + Y * Y - 4 * Z * Z,
            X * X + X * Y + Y * Y - 2 * Z * Z,
            2 * X * X + X * Y * (r5 - 3) - Y * Y * (3 * r5 - 7)
            + Z * Z * (8 * r5 - 24),
            (-2) * X * X + X * Y * (r5 + 3) - Y * Y * (3 * r5 + 7)
            + Z * Z * (8 * r5 + 24),
        ]
        for curve in curves:
            assert is_invariant_curve(curve, omega)
        classes = [strict_class(c, config) for c in curves]
        assert all(cl.square() <= 0 for cl in classes)
        # only eight invariant curves exist but nine dicritical divisors;
        # their classes span far less than the needed rank (each pencil
        # member splits as line + conic, leaving rank 5), so no selection
        # can ever form an independent system
        rank = linalg.rank_int([cl.coordinates() for cl in classes])
        assert rank == 5 < config.size
        with pytest.raises(NotAnIndependentSystem):
            IndependentSystem(curves, config)
        with pytest.raises(NotAnIndependentSystem):
            IndependentSystem(curves + [curves[0]], config)
        with pytest.raises(NotAnIndependentSystem):
            IndependentSystem(curves[:1], config)


def test_cubic_pencil_decide_with_default_caps():
    # no independent system exists, so the cone search alone never ends;
    # Algorithm 1, running ahead of it, finds the cubic pencil
    with deadline("cubic pencil decide", 30):
        omega, config, field = load("cubic_pencil")
        verdict = pipeline(omega, config)
    assert verdict.is_integral
    assert is_first_integral(verdict.numerator, verdict.denominator, omega)
    F = parse_form("-3*X^3+8*X*Z^2+Y^3", field)
    G = parse_form("-X^3+3*X*Z^2+Y*Z^2", field)
    assert same_span([verdict.numerator, verdict.denominator], [F, G])


def test_cubic_pencil_has_no_quartic_pencil_quickly():
    # the degree-4 candidates come from D^2 = 0 and D.E~_q > 0 directly;
    # the [-d, d] sweep built 995,241 tuples here and kept none
    omega, config, field = load("cubic_pencil")
    with deadline("cubic pencil algorithm1 d=4", 3):
        verdict = algorithm1(omega, config, 4)
    assert verdict.outcome == "no_integral"


def test_criterion_7_property_suites():
    with deadline("7 property suites", 290):
        import test_cluster
        import test_cones
        import test_linsys
        import test_numfield

        # (a) h0 against the Taylor oracle on >= 200 random systems
        test_linsys.test_h0_matches_taylor_oracle_bulk()
        # (b) dual of dual on >= 100 random cones
        test_cones.test_dual_dual_identity_bulk()
        # (c) negative-square decision against randomized witness search
        test_cones.test_negative_square_against_witness_search()
        # (d) intersection-form and proximity invariants on all fixtures
        for name in ("example1", "fig2", "fig3", "penultimate",
                     "family_a59", "family_a861", "family_a0",
                     "cubic_pencil"):
            _, config, _ = load(name)
            line = line_class(config)
            assert line.intersect(line) == 1
            K = config.canonical_class()
            for i in range(config.size):
                ei = total_exceptional_class(config, i)
                assert ei.intersect(ei) == -1
                assert line.intersect(ei) == 0
                et = config.exceptional_strict_class(i)
                npx = len(config.proximate_children[i])
                assert et.square() == -1 - npx
                assert K.intersect(et) == -1 + npx
                for j in range(i):
                    ej = total_exceptional_class(config, j)
                    assert ei.intersect(ej) == 0
            for i in range(config.size):
                for j in config.prox_to[i]:
                    parent = config.parent_idx[i]
                    assert j == parent or j in config.prox_to[parent]
        # (e) exact field axioms on >= 1000 random triples
        test_numfield.test_field_axioms_bulk()


def test_criterion_8_negative_control():
    with deadline("8 negative control", 60):
        omega, config, _ = load("example1")
        verdict = algorithm1(omega, config, 3)
        assert verdict.outcome == "no_integral"
