"""Configurations of infinitely near points and the Picard lattice of the
surface obtained by blowing them up.

Points are listed in blow-up order (children after parents).  A point is
either a point of the projective plane (``origin=(x:y:z)``) or lies on the
exceptional divisor of its parent, located by blow-up chart data: chart 1 is
the substitution v = u*(w + c) with the new exceptional u = 0 and the point
at w = c; chart 2 is u = s*v, the exceptional's point at infinity (s = v = 0).
Proximity is derived from the chart data, never declared.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .numfield import QQ, FieldElement, NumberField
from .textio import format_element, format_minpoly


class ConfigurationError(ValueError):
    pass


class InfinitelyNearPoint:
    __slots__ = ("name", "parent", "origin", "chart", "c", "dicritical")

    def __init__(self, name: str, parent: Optional[str] = None,
                 origin=None, chart: Optional[int] = None,
                 c: Optional[FieldElement] = None, dicritical: bool = False):
        self.name = name
        self.parent = parent
        self.origin = origin
        self.chart = chart
        self.c = c
        self.dicritical = dicritical
        if (parent is None) == (origin is None):
            raise ConfigurationError(
                "point %s needs exactly one of origin/parent" % name)
        if parent is None and (chart is not None or c is not None):
            raise ConfigurationError("plane point %s has no chart or c" % name)
        if parent is not None:
            if chart not in (1, 2):
                raise ConfigurationError(
                    "point %s: chart must be 1 or 2" % name)
            if chart == 1 and c is None:
                raise ConfigurationError("point %s: chart 1 needs c" % name)
            if chart == 2 and c is not None:
                raise ConfigurationError("point %s: chart 2 takes no c" % name)

    def is_root(self) -> bool:
        return self.parent is None


def normalize_point(coords):
    """Scale projective coordinates so the first nonzero entry is 1."""
    for v in coords:
        if v == 1:
            return coords
        if v:
            inv = v.inverse()
            return tuple(inv * w for w in coords)
    raise ConfigurationError("(0:0:0) is not a projective point")


def root_chart_images(origin):
    """The canonical local chart at a plane point, as (pivot, a, b).

    The point is normalized (``normalize_point``), so its first nonzero
    coordinate, the pivot, is 1.  The chart sets the pivot variable to 1
    and the other two variables, in order, to u + a and v + b, so the point
    sits at u = v = 0; children's chart data are declared relative to these
    coordinates.
    """
    pivot = next(i for i, v in enumerate(origin) if v)
    if origin[pivot] != 1:
        raise ValueError("plane point %r is not normalized" % (origin,))
    a, b = (origin[i] for i in range(3) if i != pivot)
    return pivot, a, b


class LinsysMemo:
    """What ``linsys`` keeps per configuration, so that it lives as long as
    the configuration: its integral model's plan (ints over Q) and that
    plan reduced mod each split prime tried, one per root of the minimal
    polynomial, each with the series of the generic form at the points,
    kept for one degree at a time and up to ``linsys._KEPT`` of them; and
    the last kernel that ``h0`` returned, as ((d, e), vectors), for
    ``basis``; and ``empty``, for each degree d a plain list of the
    clamped multiplicity tuples whose kernel came out empty, scanned by
    ``linsys._kernel``: they prove h0 = 0 at every class of degree d at or
    above one of them.  A kernel is certified one of three ways: such an
    entry or a rank of n mod a prime proves it empty, and otherwise its
    vectors, lifted from primes, passed an exact check in K and are zero
    at every pivot after their free column.  Nothing in it refers to a
    ``DivisorClass``, so nothing points back at the configuration."""

    __slots__ = ("exact", "images", "kernel", "empty")

    def __init__(self):
        self.exact = None
        self.images = {}
        self.kernel = None
        self.empty = {}


class Configuration:
    """An ordered tree (forest) of infinitely near points: the dicritical
    configuration of a foliation, with derived proximity structure."""

    def __init__(self, points: Sequence[InfinitelyNearPoint],
                 field: NumberField = QQ):
        self.field = field
        self.points = list(points)
        self.index = {}
        for i, p in enumerate(self.points):
            if p.name in self.index:
                raise ConfigurationError("duplicate point id %r" % p.name)
            self.index[p.name] = i
        self.parent_idx = []
        for i, p in enumerate(self.points):
            if p.is_root():
                p.origin = normalize_point(tuple(field.element(v)
                                                 for v in p.origin))
                self.parent_idx.append(None)
            else:
                j = self.index.get(p.parent)
                if j is None or j >= i:
                    raise ConfigurationError(
                        "point %s: parent %s must appear earlier" %
                        (p.name, p.parent))
                self.parent_idx.append(j)
        self._check_locations()
        self._v_tag = self._derive_v_tags()
        # prox_to[i]: indices this point is proximate to
        self.prox_to = []
        for i, p in enumerate(self.points):
            targets = set()
            if self.parent_idx[i] is not None:
                targets.add(self.parent_idx[i])
            if self._v_tag[i] is not None:
                targets.add(self._v_tag[i])
            self.prox_to.append(frozenset(targets))
        self.proximate_children = [sorted(i for i in range(self.size)
                                          if j in self.prox_to[i])
                                   for j in range(self.size)]
        self._check_dicritical_closure()
        self.linsys_memo = LinsysMemo()

    # -- structure ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.points)

    def dicritical_indices(self):
        return [i for i, p in enumerate(self.points) if p.dicritical]

    def non_dicritical_indices(self):
        """N_F: points whose own exceptional divisor is not dicritical."""
        return [i for i, p in enumerate(self.points) if not p.dicritical]

    @property
    def dicritical_count(self) -> int:
        return len(self.dicritical_indices())

    def ancestors_or_self(self, i: int):
        out = []
        while i is not None:
            out.append(i)
            i = self.parent_idx[i]
        return out

    def _check_locations(self):
        roots = {}
        for i, p in enumerate(self.points):
            if p.is_root():
                key = tuple(c.coeffs for c in p.origin)
                if key in roots:
                    raise ConfigurationError(
                        "points %s and %s share a location" %
                        (self.points[roots[key]].name, p.name))
                roots[key] = i
        seen = {}
        for i, p in enumerate(self.points):
            if p.is_root():
                continue
            key = (self.parent_idx[i], p.chart,
                   p.c.coeffs if p.chart == 1 else None)
            if key in seen:
                raise ConfigurationError(
                    "points %s and %s share a location" %
                    (self.points[seen[key]].name, p.name))
            seen[key] = i

    def _derive_v_tags(self):
        tags = []
        for i, p in enumerate(self.points):
            if p.is_root():
                tags.append(None)
                continue
            j = self.parent_idx[i]
            if p.chart == 2:
                tags.append(self.parent_idx[j])
            elif p.c.is_zero():
                tags.append(tags[j])
            else:
                tags.append(None)
        return tags

    def _check_dicritical_closure(self):
        has_dicritical_above = [False] * self.size
        for i in range(self.size - 1, -1, -1):
            if self.points[i].dicritical:
                has_dicritical_above[i] = True
            if has_dicritical_above[i] and self.parent_idx[i] is not None:
                has_dicritical_above[self.parent_idx[i]] = True
        missing = [self.points[i].name for i in range(self.size)
                   if not has_dicritical_above[i]]
        if missing:
            raise ConfigurationError(
                "points %s have no dicritical divisor above or at them" %
                ", ".join(missing))

    def validate_proximity_assertions(self, assertions):
        for a, b in assertions:
            ia, ib = self.index.get(a), self.index.get(b)
            if ia is None or ib is None:
                raise ConfigurationError("proximate assertion on unknown "
                                         "points %s %s" % (a, b))
            if ib not in self.prox_to[ia]:
                raise ConfigurationError(
                    "asserted proximity %s -> %s disagrees with the chart "
                    "data" % (a, b))

    # -- divisor classes ------------------------------------------------

    def divisor(self, d: int, e: Sequence[int]) -> "DivisorClass":
        return DivisorClass(self, int(d), tuple(int(v) for v in e))

    def exceptional_strict_class(self, name_or_index) -> "DivisorClass":
        """[E~_q] = E_q* - sum of E_p* over p proximate to q."""
        q = self._idx(name_or_index)
        e = [0] * self.size
        e[q] = -1
        for p in self.proximate_children[q]:
            e[p] = 1
        return self.divisor(0, e)

    def canonical_class(self) -> "DivisorClass":
        return self.divisor(-3, [-1] * self.size)

    def simple_ideal_divisor(self, name_or_index) -> "DivisorClass":
        """D(p) with I_p O_Z = O_Z(-D(p)); multiplicities obey the proximity
        equalities m_q = sum of m_q' over q' proximate to q within the
        branch."""
        p = self._idx(name_or_index)
        branch = self.ancestors_or_self(p)
        mult = {p: 1}
        for q in branch[1:]:
            mult[q] = sum(mult[r] for r in branch if q in self.prox_to[r])
        e = [0] * self.size
        for q, m in mult.items():
            e[q] = -m
        return self.divisor(0, e)

    def _idx(self, name_or_index) -> int:
        if isinstance(name_or_index, int):
            return name_or_index
        return self.index[name_or_index]

    def __repr__(self):
        return "Configuration(%d points, %d dicritical)" % (
            self.size, self.dicritical_count)


class DivisorClass:
    """The class d L* - sum e_q E_q* in the Picard lattice of the sky."""

    __slots__ = ("config", "d", "e")

    def __init__(self, config: Configuration, d: int, e: tuple):
        if len(e) != config.size:
            raise ConfigurationError("class has %d multiplicities for %d "
                                     "points" % (len(e), config.size))
        self.config = config
        self.d = d
        self.e = e

    def intersect(self, other: "DivisorClass") -> int:
        if other.config is not self.config:
            raise ConfigurationError("classes on different configurations")
        return self.d * other.d - sum(a * b for a, b in zip(self.e, other.e))

    def square(self) -> int:
        return self.intersect(self)

    def coordinates(self):
        """Coordinates in the basis (L*, E_1*, ..., E_m*)."""
        return (self.d,) + tuple(-v for v in self.e)

    def __add__(self, other):
        return DivisorClass(self.config, self.d + other.d,
                            tuple(a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other):
        return DivisorClass(self.config, self.d - other.d,
                            tuple(a - b for a, b in zip(self.e, other.e)))

    def __mul__(self, k: int):
        return DivisorClass(self.config, self.d * k,
                            tuple(v * k for v in self.e))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, DivisorClass) and self.config is other.config
                and self.d == other.d and self.e == other.e)

    def __hash__(self):
        return hash((self.d, self.e))

    def __repr__(self):
        parts = []
        if self.d:
            parts.append("%dL*" % self.d if self.d != 1 else "L*")
        for i, v in enumerate(self.e):
            if v == 0:
                continue
            name = "E%d*" % (i + 1)
            if v == 1:
                parts.append("-" + name)
            elif v == -1:
                parts.append("+" + name)
            else:
                parts.append("%+d%s" % (-v, name))
        if not parts:
            return "0"
        text = "".join(parts)
        return text.lstrip("+") if text.startswith("+") else text


class Decomposition(NamedTuple):
    """[T] = sum alpha_i [C~_i] + sum beta_q [E~_q] over A_S."""
    alpha: tuple
    beta: dict


def t_from_system(s_classes: Sequence[DivisorClass],
                  config: Configuration) -> DivisorClass:
    """The primitive divisor orthogonal to an independent system: the one
    kernel vector of the stacked coordinate matrix, made a primitive integer
    vector.  Its entries are, up to sign, the maximal minors over their
    gcd."""
    nf = config.non_dicritical_indices()
    m = config.size
    if len(s_classes) + len(nf) != m:
        raise ConfigurationError(
            "system size %d + %d non-dicritical points != %d" %
            (len(s_classes), len(nf), m))
    classes = list(s_classes) + [config.exceptional_strict_class(q)
                                 for q in nf]
    kernel = linalg.nullspace([c.coordinates() for c in classes])
    if len(kernel) != 1:
        # m rows of m + 1 columns have rank m exactly when the kernel is a line
        raise ConfigurationError(
            "not an independent system: rank below %d" % m)
    den = lcm(*(v.denominator for v in kernel[0]))
    deltas = [abs(v.numerator) * (den // v.denominator) for v in kernel[0]]
    g = gcd(*deltas)
    return config.divisor(deltas[0] // g, [v // g for v in deltas[1:]])


def decompose_in_AS(T: DivisorClass, s_classes: Sequence[DivisorClass],
                    config: Configuration) -> Decomposition:
    """Exact rational coefficients of [T] on A_S; raises if inconsistent.

    A x = T exactly when (-x, 1) is in the kernel of [A | T], so the
    coefficients are read off the kernel vector whose one is in the last
    column; there is none when that column holds a pivot.  The other free
    columns are zero in that vector, so free unknowns are zero.
    """
    nf = config.non_dicritical_indices()
    cols = [c.coordinates() for c in s_classes]
    cols += [config.exceptional_strict_class(q).coordinates() for q in nf]
    rhs = T.coordinates()
    kernel = linalg.nullspace(list(zip(*cols, rhs)))
    if not kernel or not kernel[-1][-1]:
        raise ConfigurationError("class does not decompose in A_S")
    sol = [-v for v in kernel[-1][:-1]]
    alpha = tuple(sol[:len(s_classes)])
    beta = {config.points[q].name: sol[len(s_classes) + k]
            for k, q in enumerate(nf)}
    # reconstruction identity, exactly
    acc = [0] * (config.size + 1)
    for coeff, col in zip(sol, cols):
        for r in range(len(acc)):
            acc[r] += coeff * col[r]
    if acc != list(rhs):
        raise RuntimeError("the decomposition does not reconstruct T")
    return Decomposition(alpha, beta)


# ---------------------------------------------------------------------------
# P-sufficiency
# ---------------------------------------------------------------------------

def proximity_gram_matrix(config: Configuration):
    """G_C with g_pq = -9 D(p).D(q) - (K.D(p)) (K.D(q))."""
    K = config.canonical_class()
    divisors = [config.simple_ideal_divisor(i) for i in range(config.size)]
    kd = [K.intersect(D) for D in divisors]
    return [[-9 * divisors[p].intersect(divisors[q]) - kd[p] * kd[q]
             for q in range(config.size)] for p in range(config.size)]


def is_p_sufficient(config: Configuration) -> bool:
    """Exact strict-copositivity test of G_C by support enumeration.

    For each support F the stationarity system G_F x = mu, sum x = 1 is
    solved; a solution with x >= 0 and mu <= 0 certifies failure (its value
    is mu).  Supports whose system is singular are skipped, which loses
    nothing.  If G is not strictly copositive, take a minimiser x of x^T G x
    on the simplex with the least support F.  It is stationary on F with mu
    = x^T G x <= 0.  A kernel vector (y, t) of F's system would have
    G_F y = t, sum y = 0 and y != 0, so x^T G x would stay constant along
    x + s y until a coordinate reached zero, leaving a minimiser of smaller
    support.  So F's system is nonsingular, its unique solution is x, and F
    certifies the failure (or the diagonal check does, when |F| = 1).
    """
    G = proximity_gram_matrix(config)
    n = config.size
    if any(G[i][i] <= 0 for i in range(n)):
        return False
    for mask in range(1, 1 << n):
        support = [i for i in range(n) if mask >> i & 1]
        if len(support) == 1:
            continue            # singletons are the diagonal check
        k = len(support)
        aug = [[G[i][j] for j in support] + [-1, 0] for i in support]
        aug.append([1] * k + [0, 1])
        reduced, pivots = linalg.rref(aug)
        if pivots != list(range(k + 1)):
            continue
        # a pivot in every unknown: the unique solution is the last column
        x, mu = [row[-1] for row in reduced[:k]], reduced[k][-1]
        if mu <= 0 and all(v >= 0 for v in x):
            return False
    return True


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def read_field(text: str, like: NumberField = None) -> Optional[NumberField]:
    """The field of the ``field:`` line of a file's text, wherever the line
    stands, or None when there is none; a second such line is refused.  A
    declaration of ``like``'s field returns ``like`` itself."""
    declared = field_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("field:"):
            if field_line is not None:
                raise ConfigurationError("line %d: field is already given on "
                                         "line %d" % (lineno, field_line))
            field_line = lineno
            declared = NumberField.from_string(line.split(":", 1)[1].strip(),
                                               like)
    return declared


def load_configuration(text: str, field: NumberField = None) -> Configuration:
    """Parse the line-based configuration format (order = blow-up order)
    over the field of its ``field:`` line, wherever that line stands."""
    declared = read_field(text, field)
    if field is None:
        field = declared or QQ
    elif declared is not None and field != declared:
        raise ConfigurationError("field declaration disagrees with the "
                                 "caller's field")
    points = []
    dicritical = []
    assertions = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("field:"):
            continue
        parts = line.split()
        if parts[0] == "point":
            points.append(_parse_point(parts, field))
        elif parts[0] == "dicritical":
            dicritical.extend(parts[1:])
        elif parts[0] == "proximate":
            if len(parts) != 3:
                raise ConfigurationError("bad proximate line: %r" % raw)
            assertions.append((parts[1], parts[2]))
        else:
            raise ConfigurationError("unknown directive %r" % parts[0])
    names = {p.name for p in points}
    for name in dicritical:
        if name not in names:
            raise ConfigurationError("dicritical id %r is not a point" % name)
    for p in points:
        p.dicritical = p.name in dicritical
    config = Configuration(points, field)
    config.validate_proximity_assertions(assertions)
    return config


def _parse_point(parts, field):
    if len(parts) < 3:
        raise ConfigurationError("bad point line: %r" % " ".join(parts))
    name = parts[1]
    kv = {}
    for item in parts[2:]:
        k, eq, v = item.partition("=")
        if not eq or k not in ("origin", "parent", "chart", "c"):
            raise ConfigurationError("bad point attribute %r" % item)
        if k in kv:
            raise ConfigurationError("point %s: %s given twice" % (name, k))
        kv[k] = v
    origin = None
    if "origin" in kv:
        body = kv["origin"]
        if not (body.startswith("(") and body.endswith(")")):
            raise ConfigurationError("origin must look like (x:y:z)")
        coords = body[1:-1].split(":")
        if len(coords) != 3:
            raise ConfigurationError("origin needs three coordinates")
        origin = tuple(field.parse(c) for c in coords)
    chart = int(kv["chart"]) if "chart" in kv else None
    c = field.parse(kv["c"]) if "c" in kv else None
    return InfinitelyNearPoint(name, parent=kv.get("parent"), origin=origin,
                               chart=chart, c=c)


def dump_configuration(config: Configuration) -> str:
    lines = []
    if not config.field.is_rational:
        lines.append("field: %s" % format_minpoly(config.field))
    for i, p in enumerate(config.points):
        if p.is_root():
            coords = ":".join(format_element(c) for c in p.origin)
            lines.append("point %s origin=(%s)" % (p.name, coords))
        elif p.chart == 1:
            lines.append("point %s parent=%s chart=1 c=%s" %
                         (p.name, p.parent, format_element(p.c)))
        else:
            lines.append("point %s parent=%s chart=2" % (p.name, p.parent))
    dic = [p.name for p in config.points if p.dicritical]
    if dic:
        lines.append("dicritical " + " ".join(dic))
    for i in range(config.size):
        for j in sorted(config.prox_to[i]):
            lines.append("proximate %s %s" %
                         (config.points[i].name, config.points[j].name))
    return "\n".join(lines) + "\n"
