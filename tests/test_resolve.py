from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path
import random
import sys

import pytest

from folint import numfield, resolve
from folint.cli import load_foliation, main
from folint.cluster import dump_configuration, load_configuration
from folint.engine import pipeline
from folint.numfield import (
    QQ, FieldElement, FieldExtensionNeeded, NumberField, poly_trim,
)
from folint.polyforms import HomogeneousForm, ProjectiveOneForm, parse_form
from folint.resolve import (
    LocalFoliation, _generator, _require_orbit_simple, blow_up_local,
    build_configuration, is_simple, local_at_plane_point, singular_points,
)

from helpers import (
    one_form_from_pencil, pool_pencils, proximity_matrix, radial_log_form,
    reference_is_simple, seeded_log_form, variable,
)


def local(a_terms, b_terms, field=QQ):
    series = {}
    for t, terms in enumerate((a_terms, b_terms)):
        for key, v in terms.items():
            series.setdefault(key, {})[t] = field.element(v)
    return LocalFoliation(field, series, (1, 1))


PENCIL = ProjectiveOneForm(variable(QQ, 1), -variable(QQ, 0),
                           HomogeneousForm(QQ, 1, {}))


def test_is_simple_saddle():
    # dual vector field u d/du - v d/dv: ratio -1
    saddle = local({(0, 1): 1}, {(1, 0): 1})
    assert is_simple(saddle)


def test_is_simple_node_ratio_two():
    # dual vector field u d/du + 2 v d/dv: ratio 2 is a positive rational
    node = local({(0, 1): 2}, {(1, 0): -1})
    assert not is_simple(node)


def test_is_simple_saddle_node_and_nilpotent():
    saddle_node = local({(0, 1): 1}, {(0, 2): 1})   # eigenvalues 1, 0
    assert is_simple(saddle_node)
    nilpotent = local({(0, 2): 1}, {(2, 0): 1})
    assert not is_simple(nilpotent)


def test_is_simple_complex_ratio():
    # trace 1, det 1: c = -1, so r^2 + r + 1 has no rational root -> simple
    f = local({(1, 0): 1, (0, 1): 1}, {(0, 1): 1})
    assert is_simple(f)


def _linear_part(a_u, a_v, b_u, b_v, field=None):
    """A local form with the given linear part, and a quadratic term that
    keeps it nonzero: ints as resolution builds them, or elements of
    ``field``."""
    make = field.element if field else int
    series = {(1, 0): {0: make(a_u), 1: make(b_u)},
              (0, 1): {0: make(a_v), 1: make(b_v)},
              (2, 0): {0: make(1)}}
    return LocalFoliation(field or QQ, series, (1, 1))


def test_is_simple_over_q_matches_the_field_element_reference():
    # (a_u, a_v, b_u, b_v): tr = a_v - b_u, det = a_u b_v - a_v b_u
    cases = [
        (0, 0, 0, 0),       # det = 0, tr = 0: nilpotent
        (1, 1, 0, 0),       # det = 0, tr != 0: saddle-node
        (1, 0, 0, 1),       # tr = 0, det = 1: c = -2
        (0, 1, -1, 0),      # det = 1, tr = 2: c = 2, disc = 0, ratio 1
        (0, 1, 1, 0),       # det = -1 < 0
        (0, 2, -1, 0),      # ratio 2: disc a nonzero square
        (0, 3, -1, 0),      # ratio 3
        (1, 1, -1, 1),      # tr = 2, det = 2: disc < 0
        (0, 3, -2, 1),      # tr = 5, det = 2: disc 17, not a square
    ]
    rng = random.Random(30)
    cases += [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(400)]
    verdicts = set()
    for case in cases:
        expected = reference_is_simple(_linear_part(*case, QQ))
        assert is_simple(_linear_part(*case)) == expected
        assert is_simple(_linear_part(*case, QQ)) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}
    gauss = NumberField((1, 0, 1))
    for case in cases[:60]:
        local_k = _linear_part(*case, gauss)
        assert is_simple(local_k) == reference_is_simple(local_k)


def test_resolution_over_q_divides_no_field_element(monkeypatch, tmp_path):
    # over Q the simplicity test reads its rationals off the int series, and
    # the gcds reach the root finder as primitive int lists: no
    # FieldElement division, one monic cofactor per root finding, and at
    # most half the 1,581 elements that the first ten pool pencils built
    # when both went through elements of Q
    forms = []
    for i, pencil in enumerate(pool_pencils(10)):
        path = tmp_path / ("p%02d.fol" % i)
        path.write_text(pencil.fol_text())
        forms.append(load_foliation(str(path))[0])
    counts = dict.fromkeys(("elements", "divisions", "monic", "roots"), 0)
    init, truediv = FieldElement.__init__, FieldElement.__truediv__
    monic, roots = numfield._monic, numfield.find_roots_in_field

    def counted(key, call):
        def wrapper(*args):
            counts[key] += 1
            return call(*args)
        return wrapper

    monkeypatch.setattr(FieldElement, "__init__", counted("elements", init))
    monkeypatch.setattr(FieldElement, "__truediv__",
                        counted("divisions", truediv))
    monkeypatch.setattr(numfield, "_monic", counted("monic", monic))
    finder = counted("roots", roots)
    monkeypatch.setattr(numfield, "find_roots_in_field", finder)
    monkeypatch.setattr(resolve, "find_roots_in_field", finder)
    for omega in forms:
        build_configuration(omega)
    assert counts["roots"] > 0 and counts["divisions"] == 0
    assert counts["monic"] == counts["roots"]
    assert counts["elements"] <= 1581 // 2


def test_blow_up_radial_is_dicritical():
    radial = local({(0, 1): 1}, {(1, 0): -1})
    result = blow_up_local(radial)
    assert result.dicritical
    assert result.chart1 == []
    assert not result.chart2.is_singular()


def test_blow_up_saddle():
    saddle = local({(0, 1): 1}, {(1, 0): 1})
    result = blow_up_local(saddle)
    assert not result.dicritical
    assert len(result.chart1) == 1
    c, child = result.chart1[0]
    assert c.is_zero()
    assert is_simple(child)
    assert result.chart2.is_singular()
    assert is_simple(result.chart2)


def test_blow_up_cusp_first_step_non_dicritical():
    # omega for the cuspidal foliation d(y^2 - x^3) = -3x^2 dx + 2y dy
    cusp = local({(2, 0): -3}, {(0, 1): 2})
    result = blow_up_local(cusp)
    assert not result.dicritical


def scaled(omega, lam, mu):
    """omega in the coordinates (U, V) with (u, v) = (lam U, mu V): a(lam U,
    mu V) lam dU + b(lam U, mu V) mu dV, with those scalings recorded."""
    series = {(i, j): {t: v * lam ** i * mu ** j * (lam, mu)[t]
                       for t, v in vec.items()}
              for (i, j), vec in omega.series.items()}
    return LocalFoliation(omega.field, series, (lam, mu))


def blow_up_outcome(omega):
    try:
        result = blow_up_local(omega)
    except FieldExtensionNeeded as err:
        return (str(err), err.certificate), []
    children = [child for _, child in result.chart1] + [result.chart2]
    return (result.dicritical, [(c, is_simple(child)) for c, child in
                                result.chart1], result.chart2.is_singular()), \
        children


def proportional(a, b):
    """Are the series a and b, over Q, proportional?"""
    pairs = [(QQ.element(a[key][t]), QQ.element(b[key].get(t, 0)))
             for key in a for t in a[key]]
    if a.keys() != b.keys() or not pairs:
        return a == b
    x, y = pairs[0]
    return all(u * y == v * x for u, v in pairs)


@pytest.mark.parametrize("scales", [(Fraction(1, 2), Fraction(3)),
                                    (Fraction(2, 3), Fraction(5, 7))])
def test_blow_up_through_axis_scalings(scales):
    # (2 v^2 - 2k u^2) du - u v dv has, on the exceptional, the points
    # w^2 = 2k with eigenvalue ratio 2: children at w = +-2 for k = 2, and
    # a conjugate pair that is not simple for k = 1.  In scaled coordinates
    # the stored roots and cofactors are scaled: the constants and the
    # certificate t^2 - 2 must come back unchanged, and every child must be
    # the true child in its recorded scalings, up to a constant factor
    cases = [local({(0, 2): 2, (2, 0): -2 * k}, {(1, 1): -1})
             for k in (2, 1)]
    cases += [local({(0, 1): 1}, {(1, 0): -1}),
              local({(0, 1): 1}, {(1, 0): 1}),
              local({(2, 0): -3}, {(0, 1): 2})]
    outcomes = [blow_up_outcome(omega) for omega in cases]
    assert outcomes[0][0][1] == [(QQ.element(-2), False),
                                 (QQ.element(2), False)]
    assert outcomes[1][0][1] == [QQ.element(-2), QQ.zero(), QQ.one()]
    for omega, (outcome, children) in zip(cases, outcomes):
        stored, stored_children = blow_up_outcome(scaled(omega, *scales))
        assert stored == outcome
        for child, stored_child in zip(children, stored_children):
            assert proportional(scaled(child, *stored_child.scales).series,
                                stored_child.series)


def test_orbit_with_constant_linear_part():
    # a = v^2 - 2, b = k*u*v at the conjugate points (0, +-sqrt 2): det and
    # tr^2 - 2 det lie in Q, so the eigenvalue-ratio invariant is a constant
    v0 = _generator([QQ.element(-2), QQ.zero(), QQ.one()], QQ)
    a = {(0, 2): QQ.one(), (0, 0): QQ.element(-2)}
    # k = 1: eigenvalues 2 sqrt 2 and -sqrt 2, of negative ratio -2
    _require_orbit_simple(a, {(1, 1): QQ.one()}, v0 * 0, v0, QQ)
    # k = -1: eigenvalues 2 sqrt 2 and sqrt 2, of ratio 2
    with pytest.raises(FieldExtensionNeeded):
        _require_orbit_simple(a, {(1, 1): QQ.element(-1)}, v0 * 0, v0, QQ)


def test_singular_points_pencil_of_lines():
    locus = singular_points(PENCIL)
    assert not locus.escaped
    assert len(locus.points) == 1
    x, y, z = locus.points[0]
    assert x.is_zero() and y.is_zero() and z == QQ.one()


def test_build_configuration_pencil_of_lines():
    config = build_configuration(PENCIL)
    assert config.size == 1
    assert config.points[0].dicritical
    assert config.points[0].origin == (QQ.zero(), QQ.zero(), QQ.one())


def test_escaped_dicritical_points_abort_with_certificate():
    # this pencil has base points over Q(sqrt 3); resolving over Q must stop
    # with the irreducible certificate rather than guessing
    f1 = parse_form("X*Z+3*Y*Z-Y^2")
    f2 = parse_form("Y*Z+3*X*Z-X^2")
    omega = one_form_from_pencil(f1, f2)
    with pytest.raises(FieldExtensionNeeded) as err:
        build_configuration(omega)
    assert err.value.certificate is not None


def test_escaped_simple_points_are_skipped():
    # family foliation at a = 5/9: the pair (1 : +-sqrt(14)/3 : 1) is
    # singular but simple; the resolution must certify that in the quotient
    # algebra and carry on over Q
    a = "5/9"
    A = parse_form("Z*(%s*X*Z-Y^2+Z^2)" % a)
    B = parse_form("Z*(X^2-Z^2)")
    C = parse_form("X*Y^2-%s*X^2*Z-X*Z^2-X^2*Y+Y*Z^2" % a)
    omega = ProjectiveOneForm(A, B, C)
    locus = singular_points(omega)
    assert locus.escaped
    config = build_configuration(omega)
    assert config.size == 4
    assert sum(1 for p in config.points if p.dicritical) == 2


def test_round_trip_of_emitted_configuration():
    config = build_configuration(PENCIL)
    text = dump_configuration(config)
    again = load_configuration(text)
    assert proximity_matrix(again) == proximity_matrix(config)


def test_depth_cap_is_an_error():
    from folint.resolve import DepthCapExceeded
    omega = ProjectiveOneForm(
        parse_form("2*Y*Z^5"), parse_form("-7*Y^5*Z-3*X*Z^5+Y*Z^5"),
        parse_form("7*Y^6+X*Y*Z^4-Y^2*Z^4"))
    with pytest.raises(DepthCapExceeded):
        build_configuration(omega, depth_cap=2)


FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.mark.parametrize("name", [
    "example1", "fig2", "fig3", "family_a0", "family_a59", "family_a861",
    "penultimate"])
def test_build_configuration_reproduces_fixture(name):
    omega, _ = load_foliation(str(FIXTURES / (name + ".fol")))
    lines = (FIXTURES / (name + ".cfg")).read_text().splitlines(True)
    expected = "".join(l for l in lines if not l.startswith("#"))
    assert dump_configuration(build_configuration(omega)) == expected


def line_pencils(rng, count):
    """Seeded foliations G dF - F dG of pencils F/G of products of distinct
    rational lines, the first k of them through (0:0:1).  Three lines of F
    through it make a triple point whose blow-up is pruned; three of F and
    two of G make a base point with two kept chart-1 children."""
    shapes = [((1, 1), (1, 1), 0), ((1, 1, 1), (3,), 3),
              ((1, 1, 1), (1, 1, 1), 5), ((2, 1), (2, 1), 0)]
    out = []
    while len(out) < count:
        top, bottom, k = shapes[len(out) % len(shapes)]
        lines = []
        while len(lines) < len(top) + len(bottom):
            coeffs = [rng.randint(-3, 3) for _ in range(3)]
            if len(lines) < k:
                coeffs[2] = 0
            first = next((c for c in coeffs if c), 0)
            line = tuple(Fraction(c, first) for c in coeffs) if first else ()
            if line and line not in lines:
                lines.append(line)
        lines = [parse_form("(%s)*X+(%s)*Y+(%s)*Z" % line) for line in lines]
        F = reduce(mul, (lines[i] ** e for i, e in enumerate(top)))
        G = reduce(mul, (lines[i] ** e for i, e in enumerate(bottom,
                                                              len(top))))
        out.append(one_form_from_pencil(F, G))
    return out


def assert_walk_order(config):
    """The order ``build_configuration`` promises: names q1..qm in list
    order, plane points in increasing coordinate ``sort_key``, each
    point's subtree right after it, and chart-1 siblings in increasing
    c before the chart-2 sibling; and no point kept without a dicritical
    divisor at or above it."""
    points = config.points
    assert [p.name for p in points] == ["q%d" % (i + 1)
                                        for i in range(len(points))]
    parent = {p.name: p.parent for p in points}

    def above(name):
        while parent[name] is not None:
            name = parent[name]
            yield name

    roots = [tuple(c.sort_key() for c in p.origin) for p in points
             if p.is_root()]
    assert roots == sorted(set(roots))
    for i, p in enumerate(points):
        subtree = [q.name for q in points if p.name in above(q.name)]
        assert [q.name for q in points[i + 1:][:len(subtree)]] == subtree
        # kept only if dicritical or keeping a child
        assert p.dicritical or subtree
        siblings = [(q.chart, q.c.sort_key() if q.chart == 1 else ())
                    for q in points if q.parent == p.name]
        assert siblings == sorted(set(siblings))


def test_walk_order_on_line_pencils_and_fixtures(monkeypatch):
    # every fixture that resolves over its field (not cubic_pencil), and
    # seeded line pencils; a point that is blown up but not emitted was
    # pruned
    from folint import resolve
    calls = []
    blow_up = resolve.blow_up_local
    monkeypatch.setattr(resolve, "blow_up_local",
                        lambda omega: calls.append(1) or blow_up(omega))
    forms = [load_foliation(str(path))[0] for path in
             sorted(FIXTURES.glob("*.fol")) if path.stem != "cubic_pencil"]
    forms += line_pencils(random.Random(24), 30)
    seen = {"points": 0, "pruned": 0, "chart 2": 0, "chart-1 siblings": 0}
    for omega in forms:
        calls.clear()
        config = build_configuration(omega)
        assert_walk_order(config)
        seen["points"] += config.size
        seen["pruned"] += len(calls) - config.size
        seen["chart 2"] += sum(p.chart == 2 for p in config.points)
        seen["chart-1 siblings"] += sum(
            sum(q.parent == p.name and q.chart == 1
                for q in config.points) >= 2 for p in config.points)
    assert min(seen.values()) >= 5, seen


def test_resolve_cubic_pencil_needs_a_field_extension(capsys):
    code = main(["resolve", "--machine", str(FIXTURES / "cubic_pencil.fol")])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out[:2] == ["verdict=inconclusive",
                       "reason=field extension required"]
    # the squarefree part of a resultant, so it pins bivariate_resultant
    assert out[2:] == ["certificate=t^14-15*t^12+81*t^10-640/3*t^8"
                       "+24380/81*t^6-18544/81*t^4+7040/81*t^2-1024/81"]


@pytest.mark.parametrize("fol, certificate, message", [
    # the pair (t : 1 : 0), t^2 = 2, on the line at infinity
    pytest.param(
        "A = 2*X*Z+Z^2\nB = -4*Y*Z\nC = -2*X^2-X*Z+4*Y^2\n", "t^2-2",
        "a conjugate singular point outside the base field is not simple",
        id="infinity"),
    pytest.param(
        "A = X^3*Z-2*X*Z^3+4*Y*Z^3\n"
        "B = X^3*Z-2*X*Z^3+4*Y^2*Z^2+4*Y*Z^3\n"
        "C = -X^4-X^3*Y+2*X^2*Z^2-2*X*Y*Z^2-4*Y^3*Z-4*Y^2*Z^2\n", "t^2-2",
        "a conjugate singular point with nilpotent linear part lies outside "
        "the base field", id="nilpotent"),
    # x^4 - 5x^2 + 6 = (x^2 - 2)(x^2 - 3): the y-gcd's leading coefficient
    # vanishes over one factor only, and that factor is the certificate
    pytest.param(
        "A = X^4*Z-5*X^2*Z^3+6*Z^5\nB = X^2*Y^2*Z-3*Y^2*Z^3+Y*Z^4\n"
        "C = -X^5+5*X^3*Z^2-X^2*Y^3-6*X*Z^4+3*Y^3*Z^2-Y^2*Z^3\n",
        "t^2-3", "zero divisor in the escape algebra", id="zero-divisor"),
    # x^2 = 2 and y^2 = 3: two y-coordinates over each conjugate x
    pytest.param(
        "A = Z*X^2-2*Z^3\nB = Z*Y^2-3*Z^3\nC = -X^3+2*X*Z^2-Y^3+3*Y*Z^2\n",
        "t^2-2", "conjugate singular points need a further extension",
        id="further-extension"),
])
def test_escaped_orbit_verdicts(tmp_path, capsys, fol, certificate, message):
    path = tmp_path / "escape.fol"
    path.write_text(fol)
    assert main(["resolve", "--machine", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verdict=inconclusive", "reason=field extension required",
        "certificate=" + certificate]
    omega, _ = load_foliation(str(path))
    with pytest.raises(FieldExtensionNeeded) as err:
        build_configuration(omega)
    assert str(err.value) == "%s (certificate %s)" % (message, certificate)


def test_resolve_y_free_pair_without_common_zeros(tmp_path, capsys):
    # in the chart Z = 1, A and B are free of y and cut out x^2 = 2 and
    # x^2 = 3: no affine common zero, so no orbit escapes to Q(sqrt 2)
    fol = tmp_path / "y_free.fol"
    fol.write_text("A = Z*X^2-2*Z^3\nB = Z*X^2-3*Z^3\n"
                   "C = -X^3+2*X*Z^2-Y*X^2+3*Y*Z^2\n")
    assert main(["resolve", "--machine", str(fol)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "point q1 origin=(1:-1:0)", "dicritical q1"]
    # the leaves y = -x - ln((x - r)/(x + r))/(2r) + c, r^2 = 3, are
    # transcendental
    assert main(["decide", "--machine", str(fol)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "verdict=no_integral"


def test_resolution_over_q_takes_no_euclidean_remainder(monkeypatch,
                                                        tmp_path):
    # over Q, poly_gcd, poly_squarefree_part and the root division run on
    # primitive int lists: none of them takes a remainder over Fraction or
    # over elements of Q; the log form's Euclid over K shows the counter
    # is live
    forms = []
    for i, pencil in enumerate(pool_pencils(10)):
        path = tmp_path / ("p%02d.fol" % i)
        path.write_text(pencil.fol_text())
        forms.append(load_foliation(str(path))[0])
    forms.append(seeded_log_form(3))
    counted = ("poly_gcd", "poly_squarefree_part", "_divide_roots")
    seen = {"over Q": [], "over K": []}
    divmod_ = numfield.poly_divmod

    def counting(num, den):
        caller = sys._getframe(1).f_code.co_name
        lead = (poly_trim(den) or [0])[-1]
        over_q = (type(lead) in (int, Fraction) or type(lead) is FieldElement
                  and lead.field.is_rational)
        if caller in counted:
            seen["over Q" if over_q else "over K"].append(caller)
        return divmod_(num, den)

    monkeypatch.setattr(numfield, "poly_divmod", counting)
    for omega in forms:
        build_configuration(omega)
    assert seen["over Q"] == [] and seen["over K"]


@pytest.mark.parametrize("seed", [3, 9])
def test_log_forms_have_no_integral(seed):
    # four lines with residues (1, -1, a, -a) over Q(sqrt 2): two dicritical
    # points, and no integral; resolution takes its squarefree parts over Q
    omega = seeded_log_form(seed)
    config = build_configuration(omega)
    assert config.size == 2
    assert pipeline(omega, config).outcome == "no_integral"


def test_six_line_radial_form_has_no_integral():
    # residues (1, 1, -1, -1, a, -a) over Q(sqrt 2): the four points where
    # a residue 1 meets a residue -1, and the point of a and -a, are radial
    # and so dicritical; the ratio -1/a at the point of 1 and a is
    # irrational, so there is no integral.  The affine resultant has
    # degree 19 over K, which resolution splits at its own degree
    omega = radial_log_form(NumberField((-2, 0, 1)), 2, 2, 1)
    config = build_configuration(omega)
    assert config.size == config.dicritical_count == 5
    assert pipeline(omega, config).outcome == "no_integral"
