"""Projective scalar kernel on the Riemann sphere.

All ratio-type quantities (cross-ratio, multi-ratio, star-ratio) and the
mutation Mobius map are evaluated through homogeneous coordinates (zeta,
w), the point at infinity being (1, 0); only mutate_about moves a finite
point relative to itself.  Each difference a - b enters formulas only as
n(a, b) = zeta_a w_b - zeta_b w_a, so points at infinity need no special
branches and cancellation of the common denominators is exact.

Finite points are plain Python complex numbers; INFINITY is a module
level singleton.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple, Union

from .errors import (
    CoincidentAnchors,
    CoincidentPoints,
    ConsecutiveCoincidence,
    DegenerateMap,
    IdenticalCircles,
    IndeterminateRatio,
)

ABS_TOL = 1e-12
REL_TOL = 1e-9
# relative triangle area below which three points count as collinear
COLLINEAR_REL = 1e-10
# Tolerances of the mutation kernel, in units of the spread: the largest
# distance of the four mutation values from the point they move.
COINCIDE_RTOL = 1e-12     # gap between consecutive values
DETERMINANT_RTOL = 1e-14  # |det| of the mutation map


class _Infinity:
    """The point at infinity of the Riemann sphere."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("miqueldyn-infinity")


INFINITY = _Infinity()

ExtendedComplex = Union[complex, _Infinity]


def is_infinite(z) -> bool:
    return isinstance(z, _Infinity)


def _lift(z) -> Tuple[complex, complex]:
    """Homogeneous coordinates (zeta, w) with w = 0 exactly at INFINITY."""
    if is_infinite(z):
        return 1 + 0j, 0j
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("finite ExtendedComplex values must have finite coordinates")
    return z, 1 + 0j


def _n(p: Tuple[complex, complex], q: Tuple[complex, complex]) -> complex:
    return p[0] * q[1] - q[0] * p[1]


def close(a, b, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    """Coincidence test for ExtendedComplex values.

    INFINITY is close only to itself.  Finite values compare with
    max(abs_tol, rel_tol * max(|a|, |b|)).
    """
    ia, ib = is_infinite(a), is_infinite(b)
    if ia or ib:
        return ia and ib
    a, b = complex(a), complex(b)
    return abs(a - b) <= max(abs_tol, rel_tol * max(abs(a), abs(b)))


def chordal(a, b) -> float:
    """Chordal metric on the sphere; handles INFINITY, range [0, 2]."""
    ia, ib = is_infinite(a), is_infinite(b)
    if ia and ib:
        return 0.0
    if ia:
        return 2.0 / math.sqrt(1.0 + abs(complex(b)) ** 2)
    if ib:
        return 2.0 / math.sqrt(1.0 + abs(complex(a)) ** 2)
    a, b = complex(a), complex(b)
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def _ratio(num: complex, den: complex) -> ExtendedComplex:
    # exact zeros only: genuine degeneracies produce exact coincidences in
    # the homogeneous products, while near-degenerate data legitimately
    # yields values far out on the sphere
    if num == 0 and den == 0:
        raise IndeterminateRatio("0/0 in projective ratio")
    if den == 0:
        return INFINITY
    return num / den


def cross_ratio(a, b, c, d) -> ExtendedComplex:
    """cro(a,b,c,d) = (a-b)(c-d) / ((b-c)(d-a)) on the Riemann sphere.

    Invariant under Mobius transformations applied to all four arguments.
    Raises IndeterminateRatio when the limit is genuinely 0/0 (for example
    three coincident arguments).
    """
    la, lb, lc, ld = _lift(a), _lift(b), _lift(c), _lift(d)
    return _ratio(_n(la, lb) * _n(lc, ld), _n(lb, lc) * _n(ld, la))


def multi_ratio(p1, p2, p3, p4, p5, p6) -> ExtendedComplex:
    """Six-point multi-ratio (p1-p2)(p3-p4)(p5-p6) / ((p2-p3)(p4-p5)(p6-p1)).

    Equals -1 exactly on Menelaus configurations (triangle cut by a
    transversal).  Invariant under Mobius transformations.
    """
    l1, l2, l3, l4, l5, l6 = (_lift(p) for p in (p1, p2, p3, p4, p5, p6))
    num = _n(l1, l2) * _n(l3, l4) * _n(l5, l6)
    den = _n(l2, l3) * _n(l4, l5) * _n(l6, l1)
    return _ratio(num, den)


def star_ratio(y, y1, y2, y3, y4) -> ExtendedComplex:
    """sr(y; y1..y4) = -((y1-y)(y3-y)) / ((y2-y)(y4-y)).

    The centre value y is weighted against the cyclically ordered
    neighbour values y1..y4, odd positions in the numerator.  Invariant
    under rotating the neighbours by two positions and under reversal.
    """
    ly = _lift(y)
    l1, l2, l3, l4 = _lift(y1), _lift(y2), _lift(y3), _lift(y4)
    num = _n(l1, ly) * _n(l3, ly) * l2[1] * l4[1]
    den = _n(l2, ly) * _n(l4, ly) * l1[1] * l3[1]
    res = _ratio(num, den)
    if is_infinite(res):
        return res
    return -res


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d), coefficients up to a common scale."""

    a: complex
    b: complex
    c: complex
    d: complex

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, z):
        return apply_mobius(self, z)


def apply_mobius(m: MobiusMap, z) -> ExtendedComplex:
    """Evaluate a Mobius map, totally: infinity maps to a/c, poles to infinity."""
    if is_infinite(z):
        if m.c == 0:
            if m.a == 0:
                raise DegenerateMap("zero row in Mobius map")
            return INFINITY
        return m.a / m.c
    z = complex(z)
    num = m.a * z + m.b
    den = m.c * z + m.d
    if den == 0:
        if num == 0:
            raise DegenerateMap("Mobius map evaluated at a base point of its kernel")
        return INFINITY
    return num / den


def mobius_mutation(z1, z2, z3, z4) -> MobiusMap:
    """Mutation map of four cyclically ordered values.

    Returns the trace-zero involution z -> (z C2 + C3) / (z C1 - C2) with

        C1 = z1 - z2 + z3 - z4
        C2 = z1 z3 - z2 z4
        C3 = z2 z3 z4 - z1 z3 z4 + z1 z2 z4 - z1 z2 z3

    computed homogeneously so any argument may be INFINITY.  For generic
    arguments it swaps z1 <-> z3 and z2 <-> z4; it depends only on the
    partition of the arguments into the two opposite pairs.  |det| equals
    |z1-z2| |z2-z3| |z3-z4| |z4-z1|.

    Raises ConsecutiveCoincidence when cyclically consecutive arguments
    coincide (opposite arguments may coincide: then the map fixes z1 and
    z2 and sends their midpoint to infinity).
    """
    vals = (z1, z2, z3, z4)
    for k in range(4):
        if close(vals[k], vals[(k + 1) % 4]):
            raise ConsecutiveCoincidence(
                "consecutive mutation values coincide at position %d" % k
            )
    (a1, w1), (a2, w2), (a3, w3), (a4, w4) = (_lift(v) for v in vals)
    c1 = a1 * w2 * w3 * w4 - a2 * w1 * w3 * w4 + a3 * w1 * w2 * w4 - a4 * w1 * w2 * w3
    c2 = a1 * a3 * w2 * w4 - a2 * a4 * w1 * w3
    c3 = a2 * a3 * a4 * w1 - a1 * a3 * a4 * w2 + a1 * a2 * a4 * w3 - a1 * a2 * a3 * w4
    m = MobiusMap(a=c2, b=c3, c=c1, d=-c2)
    scale = max(abs(c1), abs(c2), abs(c3))
    if scale == 0 or abs(m.det()) <= 1e-14 * scale * scale:
        raise DegenerateMap("mutation map has numerically vanishing determinant")
    return m


def mutation_coefficients(u1, u2, u3, u4):
    """(C2, C3, |C2^2 + C1 C3| = |det|) of mobius_mutation, on scalars or arrays."""
    c1 = u1 - u2 + u3 - u4
    c2 = u1 * u3 - u2 * u4
    c3 = u2 * u4 * (u1 + u3) - u1 * u3 * (u2 + u4)
    return c2, c3, abs(c2 * c2 + c1 * c3)


def mutate_about(c, z1, z2, z3, z4) -> ExtendedComplex:
    """apply_mobius(mobius_mutation(z1, z2, z3, z4), c), evaluated about c.

    With all values finite the map runs on u_k = (z_k - c) / s, s the
    spread max |z_k - c|, where it sends 0 to -C3/C2; the result and the
    COINCIDE_RTOL and DETERMINANT_RTOL tests commute with similarities.
    A value at INFINITY takes the homogeneous path; a NaN a ValueError.
    """
    zs = (z1, z2, z3, z4)
    if any(is_infinite(v) for v in (c,) + zs):
        return apply_mobius(mobius_mutation(*zs), c)
    if not all(cmath.isfinite(v) for v in (c,) + zs):
        raise ValueError("finite ExtendedComplex values must have finite coordinates")
    w = [complex(z) - c for z in zs]
    spread = max(abs(x) for x in w)
    u = [x / spread for x in w] if spread else w
    gap = min(abs(u[k] - u[k - 1]) for k in range(4))
    if gap <= COINCIDE_RTOL:
        raise ConsecutiveCoincidence("consecutive mutation values coincide", residual=gap,
                                     tolerance=COINCIDE_RTOL, scale=spread)
    c2, c3, det = mutation_coefficients(*u)
    if det <= DETERMINANT_RTOL:
        raise DegenerateMap("mutation map has numerically vanishing determinant",
                            residual=det, tolerance=DETERMINANT_RTOL, scale=spread)
    new = c - spread * (c3 / c2) if c2 else INFINITY
    return new if is_infinite(new) or cmath.isfinite(new) else INFINITY


def mobius_maps_equal(m1: MobiusMap, m2: MobiusMap, rtol: float = REL_TOL) -> bool:
    """Projective equality: coefficient vectors parallel up to rtol."""
    v1 = (m1.a, m1.b, m1.c, m1.d)
    v2 = (m2.a, m2.b, m2.c, m2.d)
    s1 = max(abs(x) for x in v1)
    s2 = max(abs(x) for x in v2)
    if s1 == 0 or s2 == 0:
        return s1 == s2
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(v1[i] * v2[j] - v1[j] * v2[i]) > rtol * s1 * s2:
                return False
    return True


@dataclass(frozen=True)
class Circle:
    """A circle or a straight line (circle through INFINITY).

    kind is "circle" (center, radius) or "line" (two finite anchor
    points p, q).  Construct via Circle.make_circle / Circle.make_line.
    """

    kind: str
    center: complex = 0j
    radius: float = 0.0
    p: complex = 0j
    q: complex = 0j

    @staticmethod
    def make_circle(center: complex, radius: float) -> "Circle":
        if radius <= 0:
            raise CoincidentPoints("circle radius must be positive")
        return Circle(kind="circle", center=complex(center), radius=float(radius))

    @staticmethod
    def make_line(p: complex, q: complex) -> "Circle":
        if close(p, q):
            raise CoincidentAnchors("line anchors coincide")
        return Circle(kind="line", p=complex(p), q=complex(q))

    def is_line(self) -> bool:
        return self.kind == "line"

    def distance_to(self, z) -> float:
        """Distance from a point to the circle (INFINITY: 0 iff line)."""
        if is_infinite(z):
            return 0.0 if self.is_line() else math.inf
        z = complex(z)
        if self.is_line():
            u = (self.q - self.p) / abs(self.q - self.p)
            return abs(((z - self.p) / u).imag)
        return abs(abs(z - self.center) - self.radius)

    def contains(self, z, tol: float = None) -> bool:
        if tol is None:
            scale = 1.0 if self.is_line() else max(1.0, self.radius)
            tol = REL_TOL * scale
        return self.distance_to(z) <= tol


def circle_center_of(c: Circle) -> ExtendedComplex:
    """Center of a circle; INFINITY for lines."""
    return INFINITY if c.is_line() else c.center


def circumcircle(p, q, r) -> Circle:
    """Circle or line through three pairwise distinct points.

    One argument may be INFINITY (result is the line through the other
    two).  Collinear finite triples yield a line.  Raises CoincidentPoints
    when two arguments coincide.
    """
    pts = (p, q, r)
    for i in range(3):
        for j in range(i + 1, 3):
            if close(pts[i], pts[j]):
                raise CoincidentPoints("circumcircle needs pairwise distinct points")
    inf_at = [i for i, z in enumerate(pts) if is_infinite(z)]
    if inf_at:
        fin = [complex(z) for z in pts if not is_infinite(z)]
        return Circle.make_line(fin[0], fin[1])
    p, q, r = complex(p), complex(q), complex(r)
    u = q - p
    v = r - p
    area2 = abs((u.conjugate() * v).imag)
    scale = max(abs(u), abs(v))
    if area2 <= COLLINEAR_REL * scale * scale:
        return Circle.make_line(p, q)
    center = p + (u * abs(v) ** 2 - v * abs(u) ** 2) / (u * v.conjugate() - u.conjugate() * v)
    return Circle.make_circle(center, abs(center - p))


def _sorted_points(pts: List[complex]) -> List[complex]:
    return sorted(pts, key=lambda z: (z.real, z.imag))


def _intersect_line_line(l1: Circle, l2: Circle):
    u1 = (l1.q - l1.p) / abs(l1.q - l1.p)
    u2 = (l2.q - l2.p) / abs(l2.q - l2.p)
    cross = (u1.conjugate() * u2).imag
    if abs(cross) <= ABS_TOL:
        scale = max(1.0, abs(l1.p), abs(l2.p))
        if l1.distance_to(l2.p) <= REL_TOL * scale:
            raise IdenticalCircles("the two lines coincide")
        return [INFINITY]
    # solve l1.p + t u1 = l2.p + s u2 for t
    t = ((u2.conjugate() * (l2.p - l1.p)).imag) / ((u2.conjugate() * u1).imag)
    return [l1.p + t * u1]


def _intersect_circle_line(c: Circle, l: Circle):
    u = (l.q - l.p) / abs(l.q - l.p)
    t = ((c.center - l.p) * u.conjugate()).real
    foot = l.p + t * u
    dist = abs(c.center - foot)
    tang_tol = REL_TOL * max(c.radius, 1.0)
    if abs(dist - c.radius) <= tang_tol:
        return [foot]
    if dist > c.radius:
        return []
    h = math.sqrt(c.radius ** 2 - dist ** 2)
    return _sorted_points([foot - h * u, foot + h * u])


def intersect_circles(c1: Circle, c2: Circle):
    """Intersection points of two circles/lines, deterministically ordered.

    Returns 0, 1 (tangency) or 2 points; two parallel lines return
    [INFINITY]; identical circles raise IdenticalCircles.  Finite point
    pairs are sorted lexicographically by (re, im).
    """
    if c1.is_line() and c2.is_line():
        return _intersect_line_line(c1, c2)
    if c1.is_line():
        return _intersect_circle_line(c2, c1)
    if c2.is_line():
        return _intersect_circle_line(c1, c2)
    scale = max(c1.radius, c2.radius)
    if close(c1.center, c2.center) and abs(c1.radius - c2.radius) <= REL_TOL * scale:
        raise IdenticalCircles("the two circles coincide")
    delta = c2.center - c1.center
    d = abs(delta)
    if d == 0:
        return []  # concentric, distinct radii
    u = delta / d
    tang_tol = REL_TOL * scale
    if abs(d - (c1.radius + c2.radius)) <= tang_tol:
        return [c1.center + u * c1.radius]
    if abs(d - abs(c1.radius - c2.radius)) <= tang_tol:
        s = 1.0 if c1.radius >= c2.radius else -1.0
        return [c1.center + s * u * c1.radius]
    if d > c1.radius + c2.radius or d < abs(c1.radius - c2.radius):
        return []
    a = (d * d + c1.radius ** 2 - c2.radius ** 2) / (2 * d)
    h2 = c1.radius ** 2 - a * a
    if h2 <= 0:
        return [c1.center + u * a]
    h = math.sqrt(h2)
    base = c1.center + u * a
    return _sorted_points([base + 1j * u * h, base - 1j * u * h])


def reflect_in_line(z, a, b) -> ExtendedComplex:
    """Reflect z in the line through finite anchors a and b.

    INFINITY is fixed.  Raises CoincidentAnchors when the anchors
    coincide or are not finite.
    """
    if is_infinite(a) or is_infinite(b) or close(a, b):
        raise CoincidentAnchors("reflection line needs two distinct finite anchors")
    if is_infinite(z):
        return INFINITY
    a, b = complex(a), complex(b)
    d = b - a
    e2 = d * d / (abs(d) ** 2)
    return a + e2 * (complex(z) - a).conjugate()
