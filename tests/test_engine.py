import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from folint import cones, engine, linsys, polyforms
from folint.cli import load_foliation, load_config_file
from folint.cluster import (
    Configuration, ConfigurationError, InfinitelyNearPoint,
    load_configuration, normalize_point,
)
from folint.engine import (
    Caps, IndependentSystem, NotAnIndependentSystem, Verdict, algorithm1,
    algorithm2, algorithm3, classify_conditions, delta_bound, memo_fastpath,
    pipeline, w_function,
)
from folint.linsys import strict_class
from folint.numfield import QQ, NumberField
from folint.polyforms import HomogeneousForm, ProjectiveOneForm, parse_form

from helpers import (
    bench_pencils, genus_bound, hold_back_algorithm1, lines_through,
    negative_curve_filter, one_form_from_pencil, pool_pencils,
    random_configuration, record_duals, same_span, trace_labels,
    unpruned_effective_multiplicities, variable, zero_sum_candidates,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def load(name):
    cfg_path = os.path.join(FIXTURES, name + ".cfg")
    from folint.cli import _peek_field
    field = _peek_field(cfg_path)
    omega, field = load_foliation(os.path.join(FIXTURES, name + ".fol"),
                                  field)
    config = load_config_file(cfg_path, field)
    return omega, config, field


# ---------------------------------------------------------------------------
# w and the degree bound
# ---------------------------------------------------------------------------

def test_w_function_small_k():
    assert w_function(1) == 1
    assert w_function(2) == Fraction(1, 2)
    assert w_function(6) == Fraction(1, 6)


def test_w_function_against_enumeration():
    for k in (4, 6, 12, 30):
        divisors = [s for s in range(1, k + 1) if k % s == 0]
        values = []
        for r in range(len(divisors) + 1):
            for sub in combinations(divisors, r):
                values.append(1 - sum(Fraction(s - 1, s) for s in sub))
        assert w_function(k) == min(v for v in values if v > 0)


def test_delta_bound_penultimate():
    omega, config, _ = load("penultimate")
    system = IndependentSystem([parse_form("Y-Z")], config)
    report = classify_conditions(system)
    assert 2 in report.conditions
    assert delta_bound(omega, system, report.decomposition) == 1


# ---------------------------------------------------------------------------
# independent systems and condition classification
# ---------------------------------------------------------------------------

def test_independent_system_validation():
    omega, config, field = load("example1")
    line = parse_form("X-Z", field)
    conic = parse_form("(8*a-1)*X^2+4*a*X*Y+8*Y^2+(2-8*a)*X*Z-4*a*Y*Z-Z^2",
                       field)
    system = IndependentSystem([line, conic], config)
    assert system.T == config.divisor(4, [2, 2, 1, 1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(NotAnIndependentSystem):
        IndependentSystem([line], config)
    with pytest.raises(NotAnIndependentSystem):
        IndependentSystem([line, line], config)
    # a short class list used to be reported as linearly dependent
    with pytest.raises(NotAnIndependentSystem, match="2 curves and 1 classes"):
        IndependentSystem([line, conic], config, classes=system.classes[:1])


def test_classify_conditions_example1():
    omega, config, field = load("example1")
    line = parse_form("X-Z", field)
    conic = parse_form("(8*a-1)*X^2+4*a*X*Y+8*Y^2+(2-8*a)*X*Z-4*a*Y*Z-Z^2",
                       field)
    system = IndependentSystem([line, conic], config)
    report = classify_conditions(system)
    assert 1 not in report.conditions
    assert 2 not in report.conditions
    assert 3 in report.conditions and report.alpha == 1


def test_algorithm2_reuses_the_sweep_h0(monkeypatch):
    omega, config, field = load("example1")
    line = parse_form("X-Z", field)
    conic = parse_form("(8*a-1)*X^2+4*a*X*Y+8*Y^2+(2-8*a)*X*Z-4*a*Y*Z-Z^2",
                       field)
    system = IndependentSystem([line, conic], config)
    report = classify_conditions(system)
    assert report.alpha_h0 == engine.linsys.h0(report.alpha * system.T,
                                               config) == 2
    seen = []
    real_h0 = engine.linsys.h0
    monkeypatch.setattr(engine.linsys, "h0",
                        lambda D, c: seen.append(D) or real_h0(D, c))
    assert algorithm2(omega, config, system).is_integral
    assert seen == [system.T]       # the sweep's one call, not repeated


@pytest.mark.parametrize("name", ["example1", "fig2", "penultimate"])
def test_basis_reuses_the_h0_elimination(monkeypatch, name):
    omega, config, _ = load(name)
    bases, rebuilt = [], []
    real_rows, real_basis = engine.linsys.condition_rows, engine.linsys.basis

    def rows(D, c):
        if bases and bases[-1] is not None:
            rebuilt.append(D)
        return real_rows(D, c)

    def basis(D, c):
        bases.append(D)
        try:
            return real_basis(D, c)
        finally:
            bases.append(None)

    monkeypatch.setattr(engine.linsys, "condition_rows", rows)
    monkeypatch.setattr(engine.linsys, "basis", basis)
    assert pipeline(omega, config).is_integral
    assert bases and rebuilt == []


def test_verdict_integral_runs_the_one_wedge_test():
    # F/G = X/Y is a first integral of Y dX - X dY; the common factor Z
    # goes before the test
    X, Y, Z = (variable(QQ, i) for i in range(3))
    omega = ProjectiveOneForm(Y, -X, Z * 0)
    verdict = Verdict.integral(X * Z, Y * Z, omega, "unused")
    assert verdict.is_integral
    assert (verdict.numerator, verdict.denominator) == (X, Y)
    verdict = Verdict.integral(X * Z, Z * Z, omega, "not invariant")
    assert verdict.outcome == "no_integral"
    assert verdict.reason == "not invariant"


def test_verdict_integral_reduces_only_a_pair_that_passes(monkeypatch):
    # family_a0's pencil with a planted common factor h comes back reduced;
    # a failing pair with the same factor is refused before the gcd's
    # fallback
    omega, _, _ = load("family_a0")
    F = parse_form("(X+Z)*(Z-Y)")
    G = parse_form("Z*(Y-X)")
    h = parse_form("X+2*Y-3*Z")
    calls = []
    fallback = polyforms._kernel_gcd
    monkeypatch.setattr(polyforms, "_kernel_gcd",
                        lambda f, g: calls.append(f) or fallback(f, g))
    verdict = Verdict.integral(F * h, G * h, omega, "unused")
    assert verdict.is_integral and calls
    assert verdict.numerator.degree == verdict.denominator.degree == 2
    assert verdict.numerator * G == verdict.denominator * F
    calls.clear()
    verdict = Verdict.integral(F * h, parse_form("X*Y") * h, omega,
                               "not invariant")
    assert (verdict.outcome, verdict.reason) == ("no_integral",
                                                 "not invariant")
    assert calls == []


@pytest.mark.parametrize("name", ["fig2", "family_a0", "penultimate"])
def test_pipeline_runs_one_wedge_test_per_integral(monkeypatch, name):
    omega, config, _ = load(name)
    calls = []
    real = engine.is_first_integral
    monkeypatch.setattr(engine, "is_first_integral",
                        lambda F, G, w: calls.append(F) or real(F, G, w))
    assert pipeline(omega, config).is_integral
    assert len(calls) == 1


def test_classify_conditions_lets_unexpected_errors_through(monkeypatch):
    omega, config, _ = load("penultimate")
    system = IndependentSystem([parse_form("Y-Z")], config)

    def inconsistent(*args):
        raise ConfigurationError("class does not decompose in A_S")

    monkeypatch.setattr(engine, "decompose_in_AS", inconsistent)
    report = classify_conditions(system, lam_max=1)
    assert report.decomposition is None and 2 not in report.conditions

    def broken(*args):
        raise ZeroDivisionError("a bug in the decomposition")

    monkeypatch.setattr(engine, "decompose_in_AS", broken)
    with pytest.raises(ZeroDivisionError):
        classify_conditions(system, lam_max=1)
    with pytest.raises(ZeroDivisionError):
        pipeline(omega, config)


def test_classify_conditions_synthetic_t_square():
    omega, config, _ = load("family_a0")
    # a single line through two of the four points is not an independent
    # system (s = 4); check condition (1) on a made-up one instead
    lines = [parse_form(t) for t in ("X-Y", "Y+Z", "Z", "X+Z")]
    system = IndependentSystem(lines, config)
    assert system.T.square() == 0


# ---------------------------------------------------------------------------
# the three algorithms
# ---------------------------------------------------------------------------

def test_condition_one_and_algorithm2_step_one():
    # two plane points, a line through each: T = L - E1 - E2 has square -1,
    # so condition (1) holds and the extraction returns "0" immediately
    text = ("point p origin=(0:0:1)\npoint q origin=(1:0:0)\n"
            "dicritical p q\n")
    config = load_configuration(text)
    omega = ProjectiveOneForm(variable(QQ, 1), -variable(QQ, 0),
                              HomogeneousForm(QQ, 1, {}))
    system = IndependentSystem([parse_form("X"), parse_form("Z")], config)
    assert system.T.square() == -1
    assert 1 in classify_conditions(system, lam_max=3).conditions
    assert algorithm2(omega, config, system).outcome == "no_integral"


def test_algorithm1_example1():
    omega, config, field = load("example1")
    verdict = algorithm1(omega, config, 4)
    F = parse_form("X^2*Z^2-2*X^3*Z+X^4+X*Y*Z^2-2*X^2*Y*Z+X^3*Y+Y^4", field)
    G = parse_form("(X-Z)^4", field)
    assert verdict.is_integral
    assert same_span([verdict.numerator, verdict.denominator], [F, G])
    assert algorithm1(omega, config, 3).outcome == "no_integral"


def test_algorithm1_fig2():
    omega, config, _ = load("fig2")
    verdict = algorithm1(omega, config, 10)
    F1 = parse_form("Y^10-2*X*Y^5*Z^4+2*Y^6*Z^4+X^2*Z^8-2*X*Y*Z^8+Y^2*Z^8")
    F2 = parse_form("Y^3*Z^7")
    assert verdict.is_integral
    assert same_span([verdict.numerator, verdict.denominator], [F1, F2])


FIXTURE_NAMES = ["cubic_pencil", "example1", "family_a0", "family_a59",
                 "family_a861", "fig2", "fig3", "penultimate"]


def test_pencil_candidates_are_the_filtered_sweep():
    # Algorithm 1's candidates against the [-d, d] sweep filtered on D^2 = 0
    # and D.E~_q > 0: on the fixtures for d <= 3, and on seeded random
    # configurations of at most 8 points for d <= 4
    configs = [load(name)[1] for name in FIXTURE_NAMES]
    rng = random.Random(16)
    seen = {"satellite": 0, "non-dicritical": 0, "candidate": 0}
    while len(configs) < 8 + 40:
        config = random_configuration(rng, QQ, mixed=True)
        if 2 <= config.size <= 8:
            configs.append(config)
            seen["satellite"] += sum(len(t) == 2 for t in config.prox_to)
            seen["non-dicritical"] += len(config.non_dicritical_indices())
    for i, config in enumerate(configs):
        for d in range(1, 4 if i < 8 else 5):
            expected = zero_sum_candidates(config, d)
            assert engine._pencil_multiplicities(config, d) == expected
            seen["candidate"] += len(expected)
    assert min(seen.values()) >= 10, seen


def test_cone_candidates_are_the_pruned_reference():
    # the cone search's candidates against the unpruned enumeration, kept
    # if they pass the negative-curve filter and p_a >= 0, in the same
    # order: on the fixtures for d <= 4 (cubic_pencil, with nine free
    # points, for d <= 3: its d = 4 reference has 1,953,125 tuples) and on
    # seeded random configurations of at most 8 points for d <= 4
    configs = [load(name)[1] for name in FIXTURE_NAMES]
    rng = random.Random(22)
    while len(configs) < 8 + 40:
        config = random_configuration(rng, QQ, mixed=True)
        if 2 <= config.size <= 8:
            configs.append(config)
    seen = {"kept": 0, "pruned by the bound": 0}
    for name, config in zip(FIXTURE_NAMES + [None] * 40, configs):
        for d in range(1, 4 if name == "cubic_pencil" else 5):
            passing = [e for e in unpruned_effective_multiplicities(config, d)
                       if negative_curve_filter(d, e)]
            expected = [e for e in passing if genus_bound(d, e)]
            assert engine._effective_multiplicities(config, d) == expected
            seen["kept"] += len(expected)
            seen["pruned by the bound"] += len(passing) - len(expected)
    assert min(seen.values()) >= 1000, seen


def test_unpruned_cone_search_admits_only_classes_with_p_a_at_least_0(
        monkeypatch, tmp_path):
    # with the unpruned candidates patched in, every class that enters V or
    # G satisfies the genus bound, and the duals, the curve set and the
    # verdict are those of the pruned search; Algorithm 1 is held back, or
    # it ends most of these runs before the search admits a class
    from folint.resolve import build_configuration
    hold_back_algorithm1(monkeypatch)
    inputs = [load(name)[:2] for name in ("fig3", "example1", "family_a861")]
    for i, pencil in enumerate(pool_pencils(20)):
        path = tmp_path / ("p%02d.fol" % i)
        path.write_text(pencil.fol_text())
        omega, _ = load_foliation(str(path))
        config = build_configuration(omega)
        if config.size >= 2:
            inputs.append((omega, config))
    assert len(inputs) >= 3 + 15
    duals = record_duals(monkeypatch)
    pruned = engine._effective_multiplicities

    def unpruned(config, d):
        return [e for e in unpruned_effective_multiplicities(config, d)
                if negative_curve_filter(d, e)]

    admitted = 0
    for omega, config in inputs:
        runs = []
        for candidates in (unpruned, pruned):
            monkeypatch.setattr(engine, "_effective_multiplicities",
                                candidates)
            seen = []
            duals.clear()
            result = algorithm3(omega, config, trace=seen.append)
            runs.append((result, list(duals), seen))
        (result, first_duals, seen), (other, other_duals, _) = runs
        for d, e, outcome in trace_labels(seen):
            if outcome in ("V+", "G+"):
                assert genus_bound(d, e), (d, e)
                admitted += 1
        assert other_duals == first_duals
        assert other.curve_set == result.curve_set
        assert other.verdict == result.verdict
        assert (other.system is None) == (result.system is None)
    assert admitted >= 100


def test_algorithm2_example1():
    omega, config, field = load("example1")
    line = parse_form("X-Z", field)
    conic = parse_form("(8*a-1)*X^2+4*a*X*Y+8*Y^2+(2-8*a)*X*Z-4*a*Y*Z-Z^2",
                       field)
    system = IndependentSystem([line, conic], config)
    verdict = algorithm2(omega, config, system)
    assert verdict.is_integral


def test_algorithm2_rejects_nonzero_t_square():
    omega, config, _ = load("family_a0")
    # distort: a system whose T has nonzero square cannot carry a pencil
    lines = [parse_form(t) for t in ("X-Y", "Y+Z", "Z", "X+Z")]
    system = IndependentSystem(lines, config)
    # here T^2 = 0, so instead check the early-return branch operates on a
    # synthetic system with one point removed from the span
    assert algorithm2(omega, config, system).is_integral


def test_algorithm2_on_pool_pencils_gives_the_pipeline_integral(tmp_path):
    # Algorithm 1 now ends the pool pencils' runs, so Algorithm 2 is run
    # here on the systems their invariant lines make, and must extract the
    # same F/G exactly
    from folint.resolve import build_configuration
    checked = set()
    for i, pencil in enumerate(pool_pencils(20)):
        path = tmp_path / ("p%02d.fol" % i)
        path.write_text(pencil.fol_text())
        omega, field = load_foliation(str(path))
        config = build_configuration(omega)
        verdict = pipeline(omega, config)
        X, Y, Z = (variable(field, k) for k in range(3))
        lines = [a * X + b * Y + c * Z for a, b, c in pencil.lines]
        for curves in combinations(lines, config.dicritical_count):
            try:
                system = IndependentSystem(curves, config)
            except NotAnIndependentSystem:
                continue
            found = algorithm2(omega, config, system)
            assert (found.numerator, found.denominator) == (
                verdict.numerator, verdict.denominator), i
            checked.add(i)
    assert len(checked) >= 10, checked


def test_pipeline_decides_the_degree_4_line_pencil(tmp_path):
    # L1L2L3L4/L5L6L7L8, drawn as the pool draws its pencils: the cone search
    # does not end at d = 1 in a minute, and Algorithm 1, running ahead of
    # it, finds the pencil at d = 4
    from folint.resolve import build_configuration
    pencils = bench_pencils()
    pencils.SHAPES = {"L1L2L3L4/L5L6L7L8": ((1, 1, 1, 1), (1, 1, 1, 1))}
    pencil, = pencils.generate(1, 1)
    path = tmp_path / "quartic.fol"
    path.write_text(pencil.fol_text())
    omega, _ = load_foliation(str(path))
    config = build_configuration(omega)
    seen = []
    verdict = pipeline(omega, config, trace=seen.append)
    expected = algorithm1(omega, config, 4)
    assert expected.is_integral
    assert (verdict.numerator, verdict.denominator) == (
        expected.numerator, expected.denominator)
    assert seen[-1] == "4 algorithm1 | integral"


def test_algorithm3_family_a59(monkeypatch):
    omega, config, _ = load("family_a59")
    duals = record_duals(monkeypatch)
    result = algorithm3(omega, config)
    assert result.verdict is not None
    assert result.verdict.outcome == "no_integral"
    assert [f.monic() for f in result.curve_set] == [parse_form("X+Z")]
    assert sorted(duals[0]) == sorted([
        (1, 0, 0, 0, 0), (1, -1, 0, 0, 0), (1, 0, -1, 0, 0),
        (2, 0, -1, -1, 0), (3, 0, -2, -1, -1)])


def test_algorithm3_family_a861(monkeypatch):
    omega, config, _ = load("family_a861")
    duals = record_duals(monkeypatch)
    result = algorithm3(omega, config)
    assert result.verdict.outcome == "no_integral"
    assert [f.monic() for f in result.curve_set] == [parse_form("X+Z")]
    assert len(duals[1]) == 27


def test_algorithm3_fig3(monkeypatch):
    # the cone search's own system: Algorithm 1 would end the run at d = 6
    hold_back_algorithm1(monkeypatch)
    omega, config, field = load("fig3")
    result = algorithm3(omega, config)
    assert result.system is not None
    produced = {f.monic() for f in result.curve_set}
    expected_texts = ["X", "X+Y", "Z", "X*Y+Y^2+X*Z", "a*X*Y+a*Y^2+X*Z"]
    expected = {parse_form(t, field).monic() for t in expected_texts}
    assert produced == expected


def test_algorithm3_debug_mode():
    omega, config, _ = load("family_a59")
    result = algorithm3(omega, config)
    assert result.verdict.outcome == "no_integral"


def test_algorithm3_strict_cone_growth():
    omega, config, _ = load("family_a861")
    seen = []

    def trace(line):
        seen.append(line)

    algorithm3(omega, config, trace=trace)
    accepted = [l for l in seen if l.endswith("V+")]
    assert len(accepted) >= 2       # V grows strictly, each was outside


def test_algorithm3_runs_algorithm1_once_per_degree():
    omega, config, _ = load("family_a861")
    seen = []
    result = algorithm3(omega, config, trace=seen.append)
    assert result.verdict.outcome == "no_integral"
    degrees = sorted({int(line.split()[0]) for line in seen})
    assert [l for l in seen if "algorithm1" in l] == [
        "%d algorithm1 | no_integral" % d for d in degrees]


@pytest.mark.parametrize("d_max", [2, 3, 30])
def test_algorithm3_runs_algorithm1_first_at_each_degree_up_to_d_max(d_max):
    # Algorithm 1 at d comes before every cone candidate of degree d, and
    # runs ahead of the cone search no further than d_max
    omega, config, _ = load("family_a861")
    seen = []
    algorithm3(omega, config, d_max=d_max, trace=seen.append)
    ahead = [int(l.split()[0]) for l in seen if "algorithm1" in l]
    assert ahead == list(range(1, len(ahead) + 1))
    assert ahead[-1] <= d_max
    for d, _, _ in trace_labels(seen):
        assert d <= d_max
        assert seen.index("%d algorithm1 | no_integral" % d) < seen.index(
            next(l for l in seen if l.startswith("%d [" % d)))


def test_algorithm3_runs_algorithm1_at_d_before_the_cone_search_at_d(
        monkeypatch):
    # with Algorithm 1 charged far more than the cone search, it never runs
    # ahead, and the trace of each degree still opens with its line
    hold_back_algorithm1(monkeypatch)
    monkeypatch.setattr(engine, "_pencil_multiplicities",
                        lambda config, d: range(10 ** 9))
    omega, config, _ = load("family_a861")
    seen = []
    algorithm3(omega, config, trace=seen.append)
    degrees = sorted({d for d, _, _ in trace_labels(seen)})
    assert len(degrees) >= 2
    assert [l for l in seen if "algorithm1" in l] == [
        "%d algorithm1 | no_integral" % d for d in degrees]
    for d in degrees:
        first = next(i for i, l in enumerate(seen) if l.startswith("%d [" % d))
        assert seen[first - 1] == "%d algorithm1 | no_integral" % d


@pytest.mark.parametrize("name", ["fig3", "family_a861"])
def test_algorithm3_builds_one_cone(name, monkeypatch):
    # V grows in place and each dual is read off it: neither a copy of V
    # nor a cone of a dual is built
    omega, config, _ = load(name)
    built = []
    init = cones.RationalCone.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cones.RationalCone, "__init__", counting)
    duals = record_duals(monkeypatch)
    seen = []
    algorithm3(omega, config, trace=seen.append)
    assert len(built) == 1
    assert sum(line.endswith("V+") for line in seen) >= 2
    assert duals


# ---------------------------------------------------------------------------
# shortcuts
# ---------------------------------------------------------------------------

def test_memo_fastpath_fig2():
    omega, config, _ = load("fig2")
    system = IndependentSystem([parse_form("Y"), parse_form("Z")], config)
    verdict = memo_fastpath(omega, config, system)
    assert verdict is not None and verdict.is_integral


def test_memo_fastpath_not_applicable():
    omega, config, _ = load("penultimate")
    system = IndependentSystem([parse_form("Y-Z")], config)
    assert memo_fastpath(omega, config, system) is None


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def test_pipeline_case1_family():
    # a = 1/3: neither 1 - a nor 1 + a is a rational square, so the single
    # dicritical point leaves only the line pencil, which is not invariant
    A = parse_form("Z*((1/3)*X*Z-Y^2+Z^2)")
    B = parse_form("Z*(X^2-Z^2)")
    C = parse_form("X*Y^2-(1/3)*X^2*Z-X*Z^2-X^2*Y+Y*Z^2")
    omega = ProjectiveOneForm(A, B, C)
    from folint.resolve import build_configuration
    config = build_configuration(omega)
    assert config.size == 1
    verdict = pipeline(omega, config)
    assert verdict.outcome == "no_integral"


def test_pipeline_pencil_of_lines():
    omega = ProjectiveOneForm(variable(QQ, 1), -variable(QQ, 0),
                              HomogeneousForm(QQ, 1, {}))
    text = "point p origin=(0:0:1)\ndicritical p\n"
    config = load_configuration(text)
    verdict = pipeline(omega, config)
    assert verdict.is_integral
    # seeded single points over Q and Q(i), a third of them at infinity:
    # the pencil is the reduced echelon kernel of the point's one row
    rng = random.Random(23)
    seen_infinity = 0
    for field in (QQ, NumberField((1, 0, 1))):
        for _ in range(24):
            coords = [field.element([Fraction(rng.randint(-5, 5),
                                              rng.randint(1, 4))
                                     for _ in range(field.degree)])
                      for _ in range(3)]
            if rng.random() < 1 / 3:
                coords[2] = field.zero()
            if all(c.is_zero() for c in coords):
                continue
            point = normalize_point(coords)
            seen_infinity += point[2].is_zero()
            config = Configuration([InfinitelyNearPoint(
                "p", origin=point, dicritical=True)], field)
            F, G = lines_through(point, field)
            verdict = pipeline(one_form_from_pencil(F, G), config)
            assert verdict.is_integral
            assert (verdict.numerator, verdict.denominator) == (F, G)
    assert seen_infinity >= 10


def test_pipeline_family_a0():
    omega, config, _ = load("family_a0")
    verdict = pipeline(omega, config)
    assert verdict.is_integral
    F1 = parse_form("(X+Z)*(Z-Y)")
    F2 = parse_form("Z*(Y-X)")
    assert same_span([verdict.numerator, verdict.denominator], [F1, F2])


def test_pipeline_outputs_verified_integrals():
    for name in ("fig2", "family_a0"):
        omega, config, _ = load(name)
        verdict = pipeline(omega, config)
        if verdict.is_integral:
            from folint.polyforms import is_first_integral
            assert is_first_integral(verdict.numerator, verdict.denominator,
                                     omega)


def test_pipeline_degree_consistency_fig2():
    # when the pipeline finds an integral of degree d, the fixed-degree
    # search at d reproduces the same pencil
    omega, config, _ = load("fig2")
    verdict = pipeline(omega, config)
    assert verdict.is_integral
    d = verdict.numerator.degree
    again = algorithm1(omega, config, d)
    assert again.is_integral
    assert same_span([verdict.numerator, verdict.denominator],
                     [again.numerator, again.denominator])


def test_lacinco_disjunction_on_p_sufficient_runs(monkeypatch):
    # for a P-sufficient configuration whose search returns a system, one of
    # the three listed sign conditions must hold; Algorithm 1 is held back,
    # or it ends fig3's run before the search returns one
    hold_back_algorithm1(monkeypatch)
    omega, config, _ = load("fig3")
    result = algorithm3(omega, config)
    system = result.system
    T = system.T
    K = config.canonical_class()
    dicritical = [config.exceptional_strict_class(q)
                  for q in config.dicritical_indices()]
    disjunction = (T.square() != 0
                   or any(T.intersect(e) < 0 for e in dicritical)
                   or K.intersect(T) < 0)
    assert disjunction


@pytest.mark.parametrize("name", ["fig3", "example1", "family_a861"])
def test_algorithm3_without_the_empty_kernel_record(name, monkeypatch):
    # the record of empty kernels only skips eliminations: emptied before
    # every kernel, the cone search gives the same trace and result; with
    # Algorithm 1 held back, example1 and fig3 reach the search's own end,
    # while on family_a861 Algorithm 1 runs, ahead to d = 9, and its own
    # h0 calls meet the emptied record too
    if name != "family_a861":
        hold_back_algorithm1(monkeypatch)
    duals = record_duals(monkeypatch)

    def run():
        omega, config, _ = load(name)
        seen = []
        duals.clear()
        result = algorithm3(omega, config, trace=seen.append)
        return seen, result, config.linsys_memo.empty, list(duals)

    seen, result, record, first_duals = run()
    assert record
    kernel = linsys._kernel

    def forgetting(D, config):
        config.linsys_memo.empty.clear()
        return kernel(D, config)

    monkeypatch.setattr(linsys, "_kernel", forgetting)
    again, other, _, other_duals = run()
    assert again == seen
    assert other.verdict == result.verdict
    assert other.curve_set == result.curve_set
    assert other_duals == first_duals
    assert (other.system is None) == (result.system is None)
    if result.system is not None:
        assert other.system.curves == result.system.curves
