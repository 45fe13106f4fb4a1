"""The decision pipeline for rational first integrals: fixed-degree search,
the cone-of-curves certificate loop, and first-integral extraction from an
independent system of algebraic solutions."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence

from . import cones, linalg, linsys
from .cluster import Configuration, ConfigurationError, Decomposition, \
    DivisorClass, decompose_in_AS, t_from_system
from .numfield import residue
from .polyforms import (
    HomogeneousForm, ProjectiveOneForm, divides, foliation_degree, gcd3,
    is_first_integral, is_invariant_curve, monomials,
)


class NotAnIndependentSystem(ValueError):
    pass


@dataclass(frozen=True)
class Caps:
    d_max: int = 30
    lam_max: int = 60


@dataclass(frozen=True)
class Verdict:
    outcome: str                        # integral | no_integral | inconclusive
    numerator: Optional[HomogeneousForm] = None
    denominator: Optional[HomogeneousForm] = None
    reason: str = ""

    @classmethod
    def integral(cls, F, G, omega, otherwise: str) -> "Verdict":
        """F/G with common factors removed if it passes the wedge test,
        else no_integral with the reason ``otherwise``.

        The test runs on the pair as proposed and only a pair that passes
        is reduced.  With F = g F' and G = g G',
        G dF - F dG = g^2 (G' dF' - F' dG'), so the two pairs span the same
        pencil and pass or fail together, and F is proportional to G iff F'
        is to G', so a constant F/G is refused either way."""
        if not is_first_integral(F, G, omega):
            return cls.no_integral(otherwise)
        g = gcd3(F, G)
        if g.degree > 0:
            F, G = divides(g, F), divides(g, G)
        return cls("integral", F, G)

    @classmethod
    def no_integral(cls, reason) -> "Verdict":
        return cls("no_integral", reason=reason)

    @classmethod
    def inconclusive(cls, reason) -> "Verdict":
        return cls("inconclusive", reason=reason)

    @property
    def is_integral(self):
        return self.outcome == "integral"


class IndependentSystem:
    """s invariant curves with nonpositive strict squares whose classes,
    together with the strict non-dicritical exceptionals, have full rank."""

    def __init__(self, curves: Sequence[HomogeneousForm],
                 config: Configuration, classes=None):
        self.config = config
        self.curves = list(curves)
        if classes is None:
            classes = [linsys.strict_class(c, config) for c in curves]
        self.classes = list(classes)
        s = config.dicritical_count
        if not len(self.curves) == len(self.classes) == s:
            raise NotAnIndependentSystem(
                "%d curves and %d classes for %d dicritical divisors"
                % (len(self.curves), len(self.classes), s))
        for c, cl in zip(self.curves, self.classes):
            if cl.square() > 0:
                raise NotAnIndependentSystem(
                    "strict transform of a system curve has positive square")
        try:
            # the one rank proof: the m rows' kernel is a line
            self.T = t_from_system(self.classes, config)
        except ConfigurationError:
            raise NotAnIndependentSystem(
                "classes are linearly dependent") from None

    def decomposition(self) -> Decomposition:
        return decompose_in_AS(self.T, self.classes, self.config)


# ---------------------------------------------------------------------------
# the degree bound
# ---------------------------------------------------------------------------

def w_function(k: int) -> Optional[Fraction]:
    """Minimum positive value of 1 - sum (s-1)/s over all subsets of the
    divisors of k; None when no positive value exists."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    terms = [Fraction(s - 1, s) for s in range(1, k + 1) if k % s == 0]
    half = len(terms) // 2
    sums_a = _subset_sums(terms[:half])
    sums_b = sorted(_subset_sums(terms[half:]))
    best = None
    one = Fraction(1)
    for a in sums_a:
        # want the largest a + b strictly below 1
        idx = bisect_left(sums_b, one - a) - 1
        if idx >= 0:
            value = one - a - sums_b[idx]
            if best is None or value < best:
                best = value
    return best


def _subset_sums(terms):
    sums = {Fraction(0)}
    for t in terms:
        sums |= {s + t for s in sums}
    return sorted(sums)


def delta_bound(omega: ProjectiveOneForm, system: IndependentSystem,
                decomposition: Decomposition) -> Optional[Fraction]:
    """The upper bound for the multiplier alpha with D = alpha T; None means
    not well defined, which already rules out a rational first integral."""
    coeffs = list(decomposition.alpha) + list(decomposition.beta.values())
    if any(c <= 0 for c in coeffs):
        raise ValueError("the bound needs a strictly positive decomposition")
    # T is primitive (``cluster.t_from_system``), so gcd(r T) = r
    r = lcm(*(c.denominator for c in coeffs))
    numer = foliation_degree(omega) + 2 - sum(c.degree for c in system.curves)
    if numer <= 0:
        return None
    w = w_function(r)
    if w is None:
        return None
    denom = w * sum(a * c.degree
                    for a, c in zip(decomposition.alpha, system.curves))
    return Fraction(numer) / denom


# ---------------------------------------------------------------------------
# condition classification and Algorithm 2
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    conditions: set
    alpha: Optional[int]            # min of Sigma(F, S); None: hit lam_max
    alpha_h0: Optional[int]         # h0(alpha T), the sweep's value
    decomposition: Optional[Decomposition]


def _first_pencil_multiple(T: DivisorClass, config: Configuration, lams):
    """The first lam in lams with h0(lam T) >= 2 and that h0, or
    (None, None)."""
    for lam in lams:
        dim = linsys.h0(lam * T, config)
        if dim >= 2:
            return lam, dim
    return None, None


def classify_conditions(system: IndependentSystem,
                        lam_max: int = Caps.lam_max) -> ConditionReport:
    """Which of the three usability conditions the system satisfies."""
    conds = set()
    T = system.T
    if T.square() != 0:
        conds.add(1)
    decomposition = None
    try:
        decomposition = system.decomposition()
        coeffs = list(decomposition.alpha) + list(decomposition.beta.values())
        if coeffs and all(c > 0 for c in coeffs):
            conds.add(2)
    except ConfigurationError:
        decomposition = None
    alpha, alpha_h0 = _first_pencil_multiple(T, system.config,
                                             range(1, lam_max + 1))
    if alpha is not None:
        conds.add(3)
    return ConditionReport(conds, alpha, alpha_h0, decomposition)


def algorithm2(omega: ProjectiveOneForm, config: Configuration,
               system: IndependentSystem,
               lam_max: int = Caps.lam_max) -> Verdict:
    """First-integral extraction from an independent system."""
    T = system.T
    if T.square() != 0:
        return Verdict.no_integral("T^2 = %d is nonzero" % T.square())
    report = classify_conditions(system, lam_max=lam_max)
    if not report.conditions:
        return Verdict.inconclusive(
            "the system satisfies none of the usability conditions within "
            "the caps")
    # the condition sweep already tried every lambda <= lam_max
    alpha, dim = report.alpha, report.alpha_h0
    if 2 in report.conditions:
        bound = delta_bound(omega, system, report.decomposition)
        if bound is None:
            return Verdict.no_integral("the degree bound is not well defined")
        if alpha is None:
            alpha, dim = _first_pencil_multiple(
                T, config, range(lam_max + 1, int(bound) + 1))
        if alpha is None or alpha > bound:
            return Verdict.no_integral(
                "no multiple of T up to the bound %s moves in a pencil"
                % bound)
    # with T^2 = 0 a nonempty report without (2) holds condition (3)
    if dim > 2:
        return Verdict.no_integral("h0(alpha T) = %d exceeds 2" % dim)
    D = alpha * T
    F, G = linsys.basis(D, config)
    return Verdict.integral(F, G, omega,
                            "the candidate pencil is not invariant")


# ---------------------------------------------------------------------------
# Algorithm 1: fixed-degree decision
# ---------------------------------------------------------------------------

def _pencil_multiplicities(config: Configuration, d: int):
    """Algorithm 1's candidates, sorted: the e of D = d L* - sum e_q E_q*
    with D^2 = 0, D.E~_q > 0 at each dicritical q and D.E~_q = 0 elsewhere.

    The tails grow from the last point to the first, so the points p
    proximate to q are fixed when q is reached, and D.E~_q = e_q - forced
    with forced the sum of their e_p.  By induction from the leaves, where
    forced = 0, every entry is >= forced >= 0: the sum acc of e^2 grows with
    v, so the first v past d^2 ends its loop, and D^2 = d^2 - acc."""
    prox, tails = config.proximate_children, [(0, ())]
    for q in reversed(range(config.size)):
        dicritical, grown = config.points[q].dicritical, []
        for acc, t in tails:            # t = (e_{q+1}, ..., e_{m-1})
            forced = sum(t[p - q - 1] for p in prox[q])
            for v in range(forced + 1, d + 1) if dicritical else (forced,):
                if acc + v * v > d * d:
                    break
                grown.append((acc + v * v, (v,) + t))
        tails = grown
    return sorted(t for acc, t in tails if acc == d * d)


def _effective_multiplicities(config: Configuration, d: int):
    """The cone search's candidates, sorted: every e with D.E~_q >= 0 at
    each point, e_q <= d and p_a(D) >= 0 whose C^2 and K.C pass the
    adjunction filter of a negative curve, C^2 = K.C = -1 or C^2 < 0 and
    K.C >= 0 (algorithm3 says why these are the classes it needs).

    The induction of _pencil_multiplicities makes forced >= 0, so no entry
    is negative.  D^2 + K.D = d(d - 3) - sum e(e - 1), so p_a(D) >= 0 iff
    acc = sum e(e - 1) <= (d - 1)(d - 2).  v(v - 1) grows with v >= 0 and
    no tail's acc shrinks as it grows, so the first v past the bound ends
    its loop and no class with p_a >= 0 is lost."""
    prox, tails = config.proximate_children, [(0, ())]
    bound = (d - 1) * (d - 2)
    for q in reversed(range(config.size)):
        grown = []
        for acc, t in tails:
            for v in range(sum(t[p - q - 1] for p in prox[q]), d + 1):
                if acc + v * (v - 1) > bound:
                    break
                grown.append((acc + v * (v - 1), (v,) + t))
        tails = grown
    kept = []
    for acc, t in tails:
        # sum e^2 = acc + sum e
        C2, KC = d * d - acc - sum(t), sum(t) - 3 * d
        if C2 == KC == -1 or (C2 < 0 and KC >= 0):
            kept.append(t)
    return sorted(kept)


_POINT = (271828183, 314159265, 141421356)


def _wedge_at_point(omega: ProjectiveOneForm, d: int, P: int, r: int):
    """(F, G) -> R = p B - q A, the dX^dY coefficient of (G dF - F dG) ^
    omega, at a fixed point of F_P^3 for degree-d vectors mod P; omega's
    integral model goes through t -> r, and the monomials' values once."""
    x, y, z = ([pow(v, k, P) for k in range(d + omega.coefficient_degree)]
               for v in _POINT)
    a, b = (sum(residue(c, P, r) * x[i] * y[j] * z[k]
                for (i, j, k), c in comp.items()) for comp in omega.model[:2])
    # x[i - 1] at i = 0 is x[-1] times 0
    columns = [(x[i] * y[j] * z[k], i * x[i - 1] * y[j] * z[k],
                j * x[i] * y[j - 1] * z[k]) for i, j, k in monomials(d)]

    def wedge(F, G):
        f, fx, fy, g, gx, gy = (sum(u * w[s] for u, w in zip(vec, columns))
                                for vec in (F, G) for s in range(3))
        return ((g * fx - f * gx) * b - (g * fy - f * gy) * a) % P
    return wedge


def algorithm1(omega: ProjectiveOneForm, config: Configuration, d: int,
               candidates=None) -> Verdict:
    """Decide a rational first integral of the exact degree d, trying
    ``candidates`` when the caller has built them already, else
    ``_pencil_multiplicities(config, d)``.

    A candidate D is dropped inside ``linsys.h0`` by its ``screen`` if its
    kernel mod the first split prime P at the first root r proves h0(D) !=
    2 or |D| not invariant.  That kernel has dimension k >= h0(D): k = 1
    proves h0(D) <= 1.  Let k = h0(D) = 2, with exact kernel V.  P splits m
    into distinct roots, so P does not divide disc(m), and the localisation
    O of Z_(P)[t]/(m), where the conditions lie, at (P, t - r) is a DVR.  Its
    lattice L = V cap O^n is saturated and free of rank 2, and L mod P lies
    in the kernel of the images of the conditions, so in the kernel mod P
    (each row mod P is a multiple of an image, ``linsys._shift``): all are
    equal.  If |D| is invariant, an O-basis (F, G) of L has (G dF - F dG)
    ^ omega = 0 on omega's integral model, so mod P too, and a basis mod P
    is (F, G) mod P times an M in GL_2(F_P), scaling G dF - F dG by det M.
    So R = p B - q A nonzero at a point (``_wedge_at_point``) proves h0(D)
    != 2 or |D| not invariant, and the exact test rejects D too.  A zero,
    k = 0 or k > 2 decides nothing; ``h0`` records an empty kernel."""
    if d < 1:
        raise ValueError("degree must be positive")
    if candidates is None:
        candidates = _pencil_multiplicities(config, d)
    failure = "no degree-%d pencil is invariant" % d
    wedge = None

    def screen(P, r, kernel):
        nonlocal wedge
        if len(kernel) == 2 and wedge is None:
            wedge = _wedge_at_point(omega, d, P, r)
        return len(kernel) == 1 or len(kernel) == 2 and wedge(*kernel)

    for e in candidates:
        D = config.divisor(d, e)
        if linsys.h0(D, config, screen) != 2:
            continue
        F, G = linsys.basis(D, config)
        verdict = Verdict.integral(F, G, omega, failure)
        if verdict.is_integral:
            return verdict
    return Verdict.no_integral(failure)


# ---------------------------------------------------------------------------
# Algorithm 3: independent-system search under polyhedrality
# ---------------------------------------------------------------------------

@dataclass
class Algorithm3Result:
    """A verdict or the independent system for Algorithm 2, and the curves
    G found on the way; V's duals are read once each and not kept."""

    verdict: Optional[Verdict]
    system: Optional[IndependentSystem]
    curve_set: List[HomogeneousForm]


def algorithm3(omega: ProjectiveOneForm, config: Configuration,
               d_max: int = Caps.d_max, trace=None) -> Algorithm3Result:
    """Search for an independent system of algebraic solutions, growing the
    cone V and the curve set G degree by degree.

    V and G are made of classes of integral curves: a candidate D enters V
    when h0(D) = 1 and its unique section Q has strict class D, and G when
    Q is also invariant.  The strict transform of an integral curve C has
    p_a(C) >= 0, that is C^2 + K.C = d(d - 3) - sum e(e - 1) >= -2, and a
    negative one has C^2 = K.C = -1 or C^2 < 0 and K.C >= 0, so
    ``_effective_multiplicities`` builds only the classes that pass both.
    Pruning is sound: every class in V is still effective, so V stays in NE,
    and a smaller V has a larger dual, so the dual leaving the
    negative-square region still proves that no independent system exists.
    The result could differ from an unpruned search only where that search
    takes in a reducible unique section with p_a < 0, for example an
    elliptic curve with C^2 = 0 and h0 = 1 plus two disjoint (-2)-curves.

    The loop conditions are evaluated lazily: the negative-square test on the
    dual holds automatically before the first cone mutation (any root point
    with a child, or two plane points, produce a witness), so duals are only
    computed right after V grows.

    Algorithm 1 finds the pencils that need no independent system, and it
    runs ahead of the cone search, balanced by work: ``work1`` counts 1
    plus the candidates of each degree it has tried, ``work3`` the cone
    candidates reached, and before each cone candidate is examined
    Algorithm 1 tries its next degree while work1 <= work3.  It still runs
    at d before the cone search does, and d_max caps both.  Its integral is
    wedge-verified and returned at once; its no_integral decides nothing,
    so the cone search's verdicts, and its V+ and G+ lines, are those of a
    search with Algorithm 1 at each degree in turn.  The counts are counts,
    not clocks, so a trace is reproducible; its ``d algorithm1 |`` lines
    can come ahead of the cone lines of lower degrees.
    """
    if config.size < 2:
        raise ValueError("the cone search needs >= 2 points")
    s = config.dicritical_count
    nf = config.non_dicritical_indices()
    nf_rows = [config.exceptional_strict_class(q).coordinates() for q in nf]
    V = cones.RationalCone(
        [config.exceptional_strict_class(i).coordinates()
         for i in range(config.size)], dim=config.size + 1)
    g_curves: List[HomogeneousForm] = []
    g_classes: List[DivisorClass] = []

    done1 = work1 = work3 = 0

    def emit(line):
        if trace is not None:
            trace(line)

    def run_ahead(d):
        """Algorithm 1 up to degree d, then on while its work is behind;
        the result its integral ends the search with, or None."""
        nonlocal done1, work1
        while done1 < d or (done1 < d_max and work1 <= work3):
            done1 += 1
            candidates = _pencil_multiplicities(config, done1)
            work1 += 1 + len(candidates)
            found = algorithm1(omega, config, done1, candidates)
            emit("%d algorithm1 | %s" % (done1, found.outcome))
            if found.is_integral:
                return Algorithm3Result(found, None, g_curves)
        return None

    for d in range(1, d_max + 1):
        ended = run_ahead(d)
        if ended is not None:
            return ended
        for e in _effective_multiplicities(config, d):
            work3 += 1
            ended = run_ahead(d)
            if ended is not None:
                return ended
            D = config.divisor(d, e)
            label = "%d %s" % (d, list(e))
            if cones.contains(V, D.coordinates()):
                emit("%s | reject(in V)" % label)
                continue
            if linsys.h0(D, config) != 1:
                emit("%s | reject(h0 != 1)" % label)
                continue
            Q = linsys.basis(D, config)[0]
            if linsys.strict_class(Q, config) != D:
                emit("%s | reject(section class differs)" % label)
                continue
            V.with_generator(D.coordinates())
            emit("%s | V+" % label)
            if is_invariant_curve(Q, omega):
                for prior in g_curves:
                    if divides(prior, Q) is not None:
                        raise RuntimeError(
                            "a curve of G reappeared as a component")
                rows = [cl.coordinates() for cl in g_classes]
                rows.append(D.coordinates())
                rows.extend(nf_rows)
                if linalg.rank_int(rows) == len(rows):
                    g_curves.append(Q)
                    g_classes.append(D)
                    emit("%s | G+" % label)
            if len(g_curves) >= s:
                system = IndependentSystem(g_curves, config,
                                           classes=g_classes)
                return Algorithm3Result(None, system, g_curves)
            if not cones.exists_negative_square(cones.dual(V)):
                return Algorithm3Result(
                    Verdict.no_integral(
                        "the dual cone left the negative-square region with "
                        "only %d of %d solutions found" % (len(g_curves), s)),
                    None, g_curves)
    return Algorithm3Result(
        Verdict.inconclusive("degree cap %d reached; the cone of curves may "
                             "not be polyhedral" % d_max),
        None, g_curves)


# ---------------------------------------------------------------------------
# shortcuts and the full pipeline
# ---------------------------------------------------------------------------

def memo_fastpath(omega: ProjectiveOneForm, config: Configuration,
                  system: IndependentSystem) -> Optional[Verdict]:
    """When K.T < 0 the pencil, if any, is spanned by the T-system itself."""
    T = system.T
    if config.canonical_class().intersect(T) >= 0:
        return None
    if linsys.h0(T, config) != 2:
        return Verdict.no_integral("K.T < 0 but T does not move in a pencil")
    F, G = linsys.basis(T, config)
    return Verdict.integral(F, G, omega,
                            "K.T < 0 and the T-pencil is not invariant")


def pipeline(omega: ProjectiveOneForm, config: Configuration,
             caps: Caps = Caps(), trace=None) -> Verdict:
    """End-to-end decision: small configurations by hand, then the cone
    search followed by the memo shortcut or the extraction algorithm."""
    if config.size == 0:
        return Verdict.no_integral("no dicritical points")
    if config.size == 1:
        return algorithm1(omega, config, 1)
    result = algorithm3(omega, config, d_max=caps.d_max, trace=trace)
    if result.verdict is not None:
        return result.verdict
    system = result.system
    shortcut = memo_fastpath(omega, config, system)
    if shortcut is not None:
        return shortcut
    return algorithm2(omega, config, system, lam_max=caps.lam_max)
