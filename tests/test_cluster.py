from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folint import linalg
from folint.cluster import (
    Configuration, ConfigurationError, InfinitelyNearPoint, decompose_in_AS,
    dump_configuration, is_p_sufficient, load_configuration,
    proximity_gram_matrix, root_chart_images, t_from_system,
)
from folint.numfield import QQ


def pt(name, **kw):
    return InfinitelyNearPoint(name, **kw)


def chain(n, dicritical_last=True):
    """Free chain of n points over (0:0:1)."""
    points = [pt("q1", origin=(0, 0, 1))]
    for i in range(2, n + 1):
        points.append(pt("q%d" % i, parent="q%d" % (i - 1), chart=1,
                         c=QQ.element(1)))
    if dicritical_last:
        points[-1].dicritical = True
    return Configuration(points, QQ)


def fig1_config():
    """Two chains of length four hanging off a length-two stem."""
    points = [
        pt("q1", origin=(1, 0, 1)),
        pt("q2", parent="q1", chart=1, c=QQ.element(1)),
        pt("q3", parent="q2", chart=1, c=QQ.element(1)),
        pt("q4", parent="q3", chart=1, c=QQ.element(1)),
        pt("q5", parent="q4", chart=1, c=QQ.element(1)),
        pt("q6", parent="q5", chart=1, c=QQ.element(1)),
        pt("q7", parent="q2", chart=1, c=QQ.element(2)),
        pt("q8", parent="q7", chart=1, c=QQ.element(1)),
        pt("q9", parent="q8", chart=1, c=QQ.element(1)),
        pt("q10", parent="q9", chart=1, c=QQ.element(1)),
    ]
    for name in ("q6", "q10"):
        points[[p.name for p in points].index(name)].dicritical = True
    return Configuration(points, QQ)


def fig2_config():
    """A cusp cluster plus a long branch with two satellite packets."""
    points = [
        pt("q1", origin=(0, 0, 1)),
        pt("q2", parent="q1", chart=1, c=QQ.element(1)),
        pt("q3", parent="q2", chart=2),
        pt("q4", origin=(1, 0, 0)),
        pt("q5", parent="q4", chart=1, c=QQ.element(0)),
        pt("q6", parent="q5", chart=2),
        pt("q7", parent="q6", chart=1, c=QQ.element(0)),
        pt("q8", parent="q7", chart=1, c=QQ.element(0)),
        pt("q9", parent="q8", chart=1, c=QQ.element(1)),
        pt("q10", parent="q9", chart=1, c=QQ.element(1)),
        pt("q11", parent="q10", chart=1, c=QQ.element(1)),
        pt("q12", parent="q11", chart=1, c=QQ.element(1)),
        pt("q13", parent="q12", chart=2),
    ]
    for name in ("q3", "q13"):
        points[[p.name for p in points].index(name)].dicritical = True
    return Configuration(points, QQ)


def penultimate_config():
    points = [
        pt("q1", origin=(0, 0, 1)),
        pt("q2", parent="q1", chart=1, c=QQ.element(1)),
        pt("q3", parent="q2", chart=1, c=QQ.element(1)),
        pt("q4", parent="q3", chart=2),
    ]
    for i in range(5, 20):
        points.append(pt("q%d" % i, parent="q%d" % (i - 1), chart=1,
                         c=QQ.element(1)))
    points[-1].dicritical = True
    return Configuration(points, QQ)


def test_intersection_form_is_lorentzian():
    config = fig1_config()
    basis = [config.line_class()] + [config.total_exceptional_class(i)
                                     for i in range(config.size)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expected = 0 if i != j else (1 if i == 0 else -1)
            assert a.intersect(b) == expected


def test_fig2_proximities():
    config = fig2_config()
    names = lambda idxs: {config.points[i].name for i in idxs}
    assert names(config.prox_to[config.index["q3"]]) == {"q1", "q2"}
    assert names(config.prox_to[config.index["q8"]]) == {"q4", "q7"}
    assert names(config.prox_to[config.index["q13"]]) == {"q11", "q12"}
    # points proximate to q4 form the contiguous packet q5..q8
    assert names(config.proximate_children[config.index["q4"]]) == \
        {"q5", "q6", "q7", "q8"}


def test_proximity_closure():
    config = fig2_config()
    for i in range(config.size):
        for j in config.prox_to[i]:
            if config.parent_idx[i] != j:
                assert j in config.prox_to[config.parent_idx[i]]


def test_exceptional_strict_class():
    config = fig1_config()
    e2 = config.exceptional_strict_class("q2")
    assert e2.coordinates() == (0, 0, 1, -1, 0, 0, 0, -1, 0, 0, 0)
    leaf = config.exceptional_strict_class("q10")
    assert leaf == config.total_exceptional_class("q10")
    # squares and canonical products from the proximity matrix
    K = config.canonical_class()
    for i in range(config.size):
        et = config.exceptional_strict_class(i)
        npx = len(config.proximate_children[i])
        assert et.square() == -1 - npx
        assert K.intersect(et) == -1 + npx


def test_canonical_class():
    config = fig1_config()
    K = config.canonical_class()
    assert K.intersect(config.line_class()) == -3
    assert K.square() == 9 - config.size


def test_root_chart_images_reads_a_normalized_point():
    half, two = QQ.element(Fraction(1, 2)), QQ.element(2)
    assert root_chart_images((QQ.zero(), QQ.one(), half)) == (1, 0, half)
    with pytest.raises(ValueError):
        root_chart_images((QQ.zero(), two, QQ.one()))


def test_t_from_system_example1():
    config = fig1_config()
    line = config.divisor(1, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    conic = config.divisor(2, [1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    T = t_from_system([line, conic], config)
    assert T == config.divisor(4, [2, 2, 1, 1, 1, 1, 1, 1, 1, 1])
    assert T.square() == 0
    # orthogonality to the spanning set
    assert T.intersect(line) == 0
    assert T.intersect(conic) == 0
    for q in config.non_dicritical_indices():
        assert T.intersect(config.exceptional_strict_class(q)) == 0

    dec = decompose_in_AS(T, [line, conic], config)
    assert dec.alpha == (4, 0)
    assert dec.beta == {"q1": 2, "q2": 4, "q3": 3, "q4": 2, "q5": 1,
                        "q7": 3, "q8": 2, "q9": 1}


def test_t_from_system_fig2():
    config = fig2_config()
    line_y = config.divisor(1, [1, 0, 0, 1] + [0] * 9)
    line_z = config.divisor(1, [0, 0, 0, 1, 1] + [0] * 8)
    T = t_from_system([line_y, line_z], config)
    assert T == config.divisor(10, [2, 1, 1, 8, 2, 2, 2, 2, 2, 2, 2, 1, 1])
    assert T.square() == 0


def test_t_from_system_output_is_primitive():
    from math import gcd
    config = fig1_config()
    line = config.divisor(1, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    conic = config.divisor(2, [1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    for scale in (1, 2, 3):
        T = t_from_system([scale * line, conic], config)
        g = 0
        for v in T.coordinates():
            g = gcd(g, v)
        assert g == 1


def test_t_from_system_penultimate():
    config = penultimate_config()
    line = config.divisor(1, [1, 1, 1] + [0] * 16)
    T = t_from_system([line], config)
    assert T == config.divisor(5, [2, 2] + [1] * 17)
    dec = decompose_in_AS(T, [line], config)
    assert dec.alpha == (5,)
    expected = {"q1": 5 - 2, "q2": 6, "q3": 10}
    for i in range(4, 19):
        expected["q%d" % i] = 19 - i
    assert dec.beta == {k: Fraction(v) for k, v in expected.items()}


def test_t_from_system_rejects_dependent():
    config = fig1_config()
    line = config.divisor(1, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ConfigurationError):
        t_from_system([line, 2 * line], config)


def test_trivial_decomposition():
    points = [pt("p", origin=(0, 0, 1), dicritical=True)]
    config = Configuration(points, QQ)
    c = config.divisor(1, [1])
    dec = decompose_in_AS(c, [c], config)
    assert dec.alpha == (1,)
    assert dec.beta == {}


def plane_points(n):
    """n dicritical points of the plane: A_S is then just the classes."""
    return Configuration([pt("p%d" % i, origin=(i, 1, 1), dicritical=True)
                          for i in range(n)], QQ)


@st.composite
def class_systems(draw):
    """A configuration, 1..4 classes with entries in -3..3, and a class T
    that is, or (when drawn so) need not be, an integer combination of the
    classes and the strict non-dicritical exceptionals."""
    config = draw(st.sampled_from([plane_points(1), plane_points(3),
                                   chain(2), chain(3)]))
    small = st.integers(-3, 3)

    def some_class():
        return config.divisor(draw(small),
                              [draw(small) for _ in range(config.size)])

    classes = [some_class() for _ in range(draw(st.integers(1, 4)))]
    strict = [config.exceptional_strict_class(q)
              for q in config.non_dicritical_indices()]
    if draw(st.booleans()):
        T = some_class()
    else:
        T = config.divisor(0, [0] * config.size)
        for c in classes + strict:
            T = T + draw(small) * c
    return config, classes, strict, T


@settings(deadline=None)
@given(class_systems())
def test_decompose_in_AS_rebuilds_or_raises(system):
    config, classes, strict, T = system
    cols = [c.coordinates() for c in classes + strict]
    rows = [list(row) for row in zip(*cols)]
    aug = [row + [t] for row, t in zip(rows, T.coordinates())]
    if linalg.rank(aug) > linalg.rank(rows):
        with pytest.raises(ConfigurationError):
            decompose_in_AS(T, classes, config)
        return
    dec = decompose_in_AS(T, classes, config)
    coeffs = list(dec.alpha) + list(dec.beta.values())
    assert len(dec.alpha) == len(classes) and len(dec.beta) == len(strict)
    assert all(type(c) in (int, Fraction) for c in coeffs)
    rebuilt = [sum(c * col[r] for c, col in zip(coeffs, cols))
               for r in range(config.size + 1)]
    assert rebuilt == list(T.coordinates())
    # free unknowns are zero
    pivots = linalg.rref(rows)[1]
    assert all(c == 0 for j, c in enumerate(coeffs) if j not in pivots)


def test_decompose_in_AS_of_a_singular_system():
    # columns (1, 2) and (2, 4): rank 1, and the free unknown is zero
    config = plane_points(1)
    classes = [config.divisor(1, [-2]), config.divisor(2, [-4])]
    dec = decompose_in_AS(config.divisor(3, [-6]), classes, config)
    assert dec.alpha == (3, 0) and dec.beta == {}
    with pytest.raises(ConfigurationError):
        decompose_in_AS(config.divisor(3, [-7]), classes, config)


def test_simple_ideal_divisor():
    config = fig1_config()
    assert config.simple_ideal_divisor("q1").coordinates() == \
        (0, 1) + (0,) * 9
    assert config.simple_ideal_divisor("q2").coordinates() == \
        (0, 1, 1) + (0,) * 8
    # satellite: q3 in fig2 is proximate to both q1 and q2
    config2 = fig2_config()
    d3 = config2.simple_ideal_divisor("q3")
    assert d3.coordinates()[:4] == (0, 2, 1, 1)


def test_chain_gram_entries():
    config = chain(2)
    G = proximity_gram_matrix(config)
    assert G[0][0] == 8
    assert G[1][1] == 14


def test_p_sufficiency_small_configurations():
    # every configuration of fewer than 9 points is P-sufficient; the free
    # chain of 9 is not (the last diagonal entry of its G_C is not positive)
    for n in range(1, 10):
        assert is_p_sufficient(chain(n)) == (n <= 8)


def test_p_sufficiency_family_a59():
    text = """
point W origin=(0:1:0)
point q1 origin=(1:2/3:-1)
point q2 parent=q1 chart=1 c=1
point q3 parent=q2 chart=2
dicritical W q3
"""
    config = load_configuration(text)
    assert is_p_sufficient(config)


def test_load_dump_round_trip():
    config = fig2_config()
    text = dump_configuration(config)
    again = load_configuration(text)
    assert again.size == config.size
    assert again.proximity_matrix() == config.proximity_matrix()
    assert [p.dicritical for p in again.points] == \
        [p.dicritical for p in config.points]
    assert dump_configuration(again) == text


def test_dicritical_closure_enforced():
    points = [pt("q1", origin=(0, 0, 1)),
              pt("q2", parent="q1", chart=1, c=QQ.element(1), dicritical=True),
              pt("q3", parent="q1", chart=1, c=QQ.element(2))]
    with pytest.raises(ConfigurationError):
        Configuration(points, QQ)


def test_proximity_assertions_checked():
    text = """
point q1 origin=(0:0:1)
point q2 parent=q1 chart=1 c=1
dicritical q2
proximate q2 q1
"""
    load_configuration(text)
    bad = text + "proximate q1 q2\n"
    with pytest.raises(ConfigurationError):
        load_configuration(bad)
