import random

from folint import linalg
from folint.cones import (
    Dual, RationalCone, contains, dual, exists_negative_square, lorentz,
)
from helpers import cone_equal, cone_of, rank_of_classes

# Picard coordinates (L*, E_W*, E_1*, E_2*, E_3*) for the 4-point family
# configuration: strict exceptional classes plus one line class
V0_GENS = [
    (0, 1, 0, 0, 0),        # E~_W
    (0, 0, 1, -1, -1),      # E~_1
    (0, 0, 0, 1, -1),       # E~_2
    (0, 0, 0, 0, 1),        # E~_3
]
LINE_W12 = (1, -1, -1, -1, 0)

V1_DUAL_EXPECTED = sorted([
    (1, 0, 0, 0, 0),
    (1, -1, 0, 0, 0),
    (1, 0, -1, 0, 0),
    (2, 0, -1, -1, 0),
    (3, 0, -2, -1, -1),
])


def test_dual_of_family_cone_rays():
    v1 = RationalCone(V0_GENS + [LINE_W12])
    d = dual(v1)
    assert d.lineality == []
    assert d.extremal_rays == V1_DUAL_EXPECTED
    assert all(lorentz(r, r) >= 0 for r in d.extremal_rays)
    assert not exists_negative_square(d)


def test_contains():
    cone = RationalCone(V0_GENS)
    for g in cone.generators:
        assert contains(cone, g)
    assert not contains(cone, tuple(-v for v in V0_GENS[3]))
    # nonnegative combinations stay inside
    rng = random.Random(5)
    for _ in range(20):
        combo = [0] * 5
        for g in cone.generators:
            k = rng.randint(0, 4)
            combo = [a + k * b for a, b in zip(combo, g)]
        if any(combo):
            assert contains(cone, combo)
    # anything with a positive line coordinate is outside V0
    assert not contains(cone, LINE_W12)


def _negative_square_in(gens):
    return exists_negative_square(Dual([], RationalCone(gens).generators))


def test_exists_negative_square_basics():
    assert _negative_square_in([(0, 1, 0, 0, 0)])
    assert _negative_square_in([(1, 1, 0), (-1, 1, 0)])
    assert not _negative_square_in([(1, 0, 0), (1, 1, 0)])
    # a single null line, as two rays and as a lineality vector
    assert not _negative_square_in([(1, 1, 0), (-1, -1, 0)])
    assert not exists_negative_square(Dual([(1, 1, 0)], []))
    assert exists_negative_square(Dual([(1, 1, 0)], [(1, 0, 0)]))


def test_dual_certificate_tightness():
    cone = RationalCone(V0_GENS + [LINE_W12])
    d = dual(cone)
    for ray in d.extremal_rays:
        tight = [g for g in cone.generators if lorentz(ray, g) == 0]
        assert rank_of_classes(tight) >= cone.dim - 1


def _random_cone(rng, dim, count):
    gens = []
    while len(gens) < count:
        v = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(v):
            gens.append(v)
    return RationalCone(gens)


def _random_shaped_cone(rng, dim):
    """A random cone that may contain a line or span a proper subspace."""
    shape = rng.choice(("general", "line", "subspace"))
    count = rng.randint(1, dim + 2)
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    if shape == "subspace":
        basis = _random_cone(rng, dim, rng.randint(1, dim - 1)).generators
    gens = []
    while len(gens) < count:
        coeffs = [rng.randint(-3, 3) for _ in basis]
        v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                  for i in range(dim))
        if any(v):
            gens.append(v)
    if shape == "line":
        gens.append(tuple(-x for x in gens[0]))
    return RationalCone(gens, dim)


def _lp_contains(cone, x):
    """Reference membership: an exact simplex on x = sum lambda_i g_i."""
    A = [[g[r] for g in cone.generators] for r in range(cone.dim)]
    return linalg.lp_feasible(A, list(x))


def test_contains_matches_lp_bulk():
    """Membership read from the dual agrees with the simplex, inside (on
    nonnegative combinations of the generators) and outside."""
    rng = random.Random(77)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        dim = rng.randint(2, 8)
        cone = _random_shaped_cone(rng, dim)
        for _ in range(4):
            x = [0] * dim
            for g in cone.generators:
                k = rng.randint(0, 3)
                x = [a + k * b for a, b in zip(x, g)]
            assert _lp_contains(cone, x)
            assert contains(cone, x)
        for _ in range(6):
            x = [rng.randint(-4, 4) for _ in range(dim)]
            truth = _lp_contains(cone, x)
            assert contains(cone, x) == truth
            outcomes[truth] += 1
    assert min(outcomes.values()) >= 50


def test_incremental_dual_matches_fresh_dual():
    """The cone grown in place by with_generator, one step per generator,
    equals the cone built anew after every step; a generator that repeats
    one up to a positive factor changes nothing."""
    rng = random.Random(4242)
    repeats = 0
    for _ in range(80):
        dim = rng.randint(2, 8)
        gens = _random_shaped_cone(rng, dim).generators
        # repeat a generator and add a positive multiple of one
        for _ in range(2):
            gens.insert(rng.randint(1, len(gens)), rng.choice(gens))
        k, c = rng.randint(1, len(gens)), rng.randint(2, 4)
        gens.insert(k, tuple(c * v for v in gens[k - 1]))
        chain = RationalCone([], dim)
        for k, g in enumerate(gens, start=1):
            repeat = RationalCone([g]).generators[0] in chain.generators
            before = (list(chain.generators), list(chain.lineality),
                      dict(chain.rays))
            assert chain.with_generator(g) is None
            fresh = RationalCone(gens[:k], dim)
            assert chain.generators == fresh.generators
            assert chain.lineality == fresh.lineality
            assert chain.rays == fresh.rays
            assert dual(chain) == dual(fresh)
            if repeat:
                repeats += 1
                assert (chain.generators, chain.lineality,
                        chain.rays) == before
            # fraction-free: every entry stays a plain int
            assert all(type(v) is int for vec in list(chain.rays)
                       + chain.lineality for v in vec)
    assert repeats == 240


def test_dual_rays_extremal_bulk():
    """Every dual ray is extremal: the generators tight on it have rank
    dim - lineality - 1, and no two rays share their tight set.  The
    lineality is the orthogonal complement of the generators."""
    rng = random.Random(31337)
    for _ in range(120):
        dim = rng.randint(2, 8)
        cone = _random_shaped_cone(rng, dim)
        d = dual(cone)
        gens = cone.generators
        assert len(d.lineality) == dim - rank_of_classes(gens)
        assert rank_of_classes(d.lineality) == len(d.lineality)
        assert all(lorentz(g, l) == 0 for g in gens for l in d.lineality)
        tight_sets = set()
        for ray in d.extremal_rays:
            assert all(lorentz(g, ray) >= 0 for g in gens)
            tight = frozenset(g for g in gens if lorentz(g, ray) == 0)
            assert rank_of_classes(tight) == dim - len(d.lineality) - 1
            tight_sets.add(tight)
        assert len(tight_sets) == len(d.extremal_rays)


def test_dual_dual_identity_bulk():
    """Acceptance 7(b): dual of dual on >= 100 random cones, dim <= 8."""
    rng = random.Random(20240812)
    checked = 0
    while checked < 110:
        dim = rng.randint(2, 8)
        cone = _random_cone(rng, dim, rng.randint(1, dim + 2))
        dd = cone_of(dual(cone_of(dual(cone), dim)), dim)
        assert cone_equal(cone, dd)
        checked += 1


def test_dual_dual_canonical_rays_lower_dimensional():
    # a 2-dimensional cone inside Q^4
    cone = RationalCone([(1, 1, 0, 0), (1, 0, 1, 0)])
    dd = dual(cone_of(dual(cone), 4))
    assert cone_equal(cone, cone_of(dd, 4))
    assert sorted(dd.extremal_rays) == sorted(cone.generators)


def test_negative_square_against_witness_search():
    """Acceptance 7(c): one-sided agreement with randomized witness search."""
    rng = random.Random(999)
    checked = 0
    while checked < 210:
        dim = rng.randint(2, 6)
        cone = _random_cone(rng, dim, rng.randint(1, dim + 1))
        found = None
        for _ in range(120):
            coeffs = [rng.randint(0, 5) for _ in cone.generators]
            x = [0] * dim
            for k, g in zip(coeffs, cone.generators):
                x = [a + k * b for a, b in zip(x, g)]
            if any(x) and lorentz(x, x) < 0:
                found = x
                break
        if found is not None:
            assert _negative_square_in(cone.generators)
        checked += 1


def test_rank_of_classes():
    assert rank_of_classes([(1, 0, 0), (0, 0, 1)]) == 2
    assert rank_of_classes([(1, 2, 3), (2, 4, 6)]) == 1
    assert rank_of_classes([(0, 0), (0, 0)]) == 0


def test_dual_of_full_space_cone():
    # the dual of a spanning cone with interior is pointed
    cone = RationalCone([(1, 0), (0, 1), (-1, -1)])
    d = dual(cone)
    assert d.extremal_rays == []
    assert d.lineality == []


def test_primitive_normalization_and_dedup():
    cone = RationalCone([(2, 4), (1, 2), (3, 0)])
    assert cone.generators == [(1, 2), (1, 0)]
