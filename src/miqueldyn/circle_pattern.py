"""Circle patterns and face drawings over bipartite surface graphs.

A FaceDrawing assigns an ExtendedComplex value to every face; a
CirclePattern additionally places the vertices so that each face's
vertices lie on a circle around its value.  On the torus all values live
in per-face walk frames: a face's stored value is taken in the universal
cover chart where its walk-start vertex sits at its fundamental
position, and slot_alignment shifts translate between adjacent charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import (
    CollinearCenters,
    ConcyclicDegenerate,
    ConstructionFailure,
    DegenerateReflectionLine,
    IndeterminateRatio,
    InvalidFace,
    MiquelDynError,
    NonRealStarRatios,
    MonodromyFailure,
    NumericalTangencyAmbiguity,
    NumericDegeneracy,
)
from .geometry import (
    COINCIDE_RTOL,
    INFINITY,
    Circle,
    circumcircle,
    close,
    intersect_circles,
    is_infinite,
    mutate_about,
    reflect_in_line,
)
from .surface_graph import (
    SurfaceGraph,
    _quad_slots,
    mutate_at_face,
    slot_alignment,
)

Periods = Optional[Tuple[complex, complex]]


def _omega(periods: Periods, off) -> complex:
    if off == (0, 0):
        return 0j
    if periods is None:
        raise MiquelDynError("nonzero cover shift without torus periods")
    return off[0] * periods[0] + off[1] * periods[1]


@dataclass
class FaceDrawing:
    graph: SurfaceGraph
    values: Dict[int, object]
    periods: Periods = None

    def lifted_value(self, f: int, shift) -> object:
        v = self.values[f]
        if is_infinite(v):
            return INFINITY
        return v + _omega(self.periods, shift)

    def slot_value(self, f: int, k: int) -> object:
        """Value of the slot-k neighbour of f, lifted into f's frame."""
        g = self.graph
        eid, fwd = g.faces[f][k]
        n = g.edge_sides()[eid][not fwd]
        return self.lifted_value(n, slot_alignment(g, f, k))


@dataclass
class StarRatioField:
    values: Dict[int, object]
    classification: Dict[int, str]
    skipped: frozenset = field(default_factory=frozenset)

    def all_real(self) -> bool:
        return all(c in ("real", "real-positive")
                   for c in self.classification.values())

    def all_positive(self) -> bool:
        return all(c == "real-positive" for c in self.classification.values())


def _classify(value, rtol: float = 1e-9) -> str:
    if is_infinite(value):
        return "generic"
    if abs(value.imag) > rtol * max(1e-300, abs(value)):
        return "generic"
    return "real-positive" if value.real > 0 else "real"


def pattern_star_ratios(d: FaceDrawing, rtol: float = 1e-9) -> StarRatioField:
    """Star-ratio of the drawing at every evaluable face.

    At face f the ratio is -prod(in) / prod(out) over the dual edges at
    f, where a dual edge points from the forward-traversing face to the
    backward one and each factor is (neighbour value - face value) in
    f's frame.  Faces on or next to marked boundary faces are skipped.
    """
    g = d.graph
    sides = g.edge_sides()
    values: Dict[int, object] = {}
    classification: Dict[int, str] = {}
    skipped = set(g.boundary_faces)
    for f in sorted(g.faces):
        if f in g.boundary_faces:
            continue
        walk = g.faces[f]
        nbrs = [sides[eid][not fwd] for (eid, fwd) in walk]
        if any(n in g.boundary_faces for n in nbrs):
            skipped.add(f)
            continue
        zf = d.values[f]
        lf = (1 + 0j, 0j) if is_infinite(zf) else (complex(zf), 1 + 0j)
        num, den = 1 + 0j, 1 + 0j
        for k, (eid, fwd) in enumerate(walk):
            zn = d.lifted_value(nbrs[k], slot_alignment(g, f, k))
            ln = (1 + 0j, 0j) if is_infinite(zn) else (complex(zn), 1 + 0j)
            diff = ln[0] * lf[1] - lf[0] * ln[1]
            if fwd:  # dual edge leaves f
                den *= diff
                num *= ln[1]
            else:    # dual edge enters f
                num *= diff
                den *= ln[1]
        if num == 0 and den == 0:
            raise IndeterminateRatio("indeterminate star-ratio at face %d" % f)
        val = INFINITY if den == 0 else -num / den
        values[f] = val
        classification[f] = _classify(val, rtol)
    return StarRatioField(values, classification, frozenset(skipped))


@dataclass
class CirclePattern:
    graph: SurfaceGraph
    vertex_points: Dict[int, object]
    center_points: Dict[int, object]
    periods: Periods = None

    def centers_drawing(self) -> FaceDrawing:
        return FaceDrawing(self.graph, dict(self.center_points), self.periods)

    def lifted_face_vertices(self, f: int) -> List[object]:
        """Vertex positions along f's walk, lifted into f's frame."""
        g = self.graph
        shifts = g.face_shifts(f)
        out = []
        for p, s in enumerate(g.faces[f]):
            z = self.vertex_points[g.step_start(s)]
            out.append(z if is_infinite(z) else z + _omega(self.periods, shifts[p]))
        return out

    def face_circle(self, f: int) -> Circle:
        """The face's circle (or line) in its own frame."""
        c = self.center_points[f]
        pts = [z for z in self.lifted_face_vertices(f) if not is_infinite(z)]
        if is_infinite(c):
            return Circle.make_line(pts[0], next(p for p in pts if not close(p, pts[0])))
        rs = [abs(z - c) for z in pts]
        return Circle.make_circle(c, sum(rs) / len(rs))


def _finite(z) -> bool:
    """INFINITY, or a point with finite coordinates (not NaN)."""
    return is_infinite(z) or (math.isfinite(z.real) and math.isfinite(z.imag))


def validate_pattern(p: CirclePattern, rtol: float = 1e-9) -> List[str]:
    """Diagnostics for the circle pattern axioms; empty when valid."""
    from .surface_graph import validate_surface_graph

    out = validate_surface_graph(p.graph)
    if out:
        return out
    g = p.graph
    if g.surface == "torus" and p.periods is None:
        return ["torus pattern without periods"]
    for v in g.vertex_color:
        if v not in p.vertex_points:
            out.append("vertex %d has no position" % v)
        elif not _finite(p.vertex_points[v]):
            out.append("vertex %d has a non-finite position" % v)
    for f in g.faces:
        if f in g.boundary_faces:
            continue
        if f not in p.center_points:
            out.append("face %d has no centre" % f)
        elif not _finite(p.center_points[f]):
            out.append("face %d has a non-finite centre" % f)
    if out:
        return out

    sides = g.edge_sides()
    sidx = g.step_index()
    for eid in sorted(g.edges):
        e = g.edges[eid]
        zm, zp = p.vertex_points[e.minus], p.vertex_points[e.plus]
        zp_l = zp if is_infinite(zp) else zp + _omega(p.periods, e.offset)
        if close(zm, zp_l):
            out.append("edge %d joins coincident vertex positions" % eid)
        fl, fr = sides[eid][True], sides[eid][False]
        if fl in g.boundary_faces or fr in g.boundary_faces:
            continue
        # compare the two centres in fl's frame
        _, k = sidx[(eid, True)]
        cl = p.center_points[fl]
        cr = p.center_points[fr]
        cr_l = cr if is_infinite(cr) else cr + _omega(p.periods, slot_alignment(g, fl, k))
        if close(cl, cr_l):
            out.append("edge %d separates coincident centres" % eid)

    for f in sorted(g.faces):
        if f in g.boundary_faces:
            continue
        pts = p.lifted_face_vertices(f)
        if any(is_infinite(z) for z in pts):
            out.append("face %d has a vertex at infinity" % f)
            continue
        c = p.center_points[f]
        if is_infinite(c):
            # line face: all vertices collinear
            a = pts[0]
            b = next((z for z in pts[1:] if not close(z, a)), None)
            if b is None:
                out.append("face %d vertices all coincide" % f)
                continue
            line = Circle.make_line(a, b)
            scale = max(abs(z - a) for z in pts)
            if any(line.distance_to(z) > rtol * max(1.0, scale) for z in pts):
                out.append("face %d vertices not collinear for infinite centre" % f)
            continue
        rs = [abs(z - c) for z in pts]
        rbar = sum(rs) / len(rs)
        if rbar == 0 or (max(rs) - min(rs)) > rtol * rbar:
            out.append("face %d vertices not concyclic about its centre" % f)
    return out


def propagate_from_centers(d: FaceDrawing, seed_vertex: int, seed_value) -> CirclePattern:
    """Rebuild a circle pattern from its centre drawing and one vertex.

    Requires every star-ratio of d to be real.  Each edge transports a
    vertex value by reflection in the line through the two adjacent
    lifted centres; after the breadth-first sweep every edge is replayed
    and any mismatch raises MonodromyFailure (on the torus this detects
    drawings with no global pattern).
    """
    g = d.graph
    field_ = pattern_star_ratios(d)
    if not field_.all_real():
        bad = [f for f, c in field_.classification.items() if c == "generic"]
        raise NonRealStarRatios("non-real star-ratios at faces %s" % bad)
    if is_infinite(seed_value):
        raise MiquelDynError("seed vertex value must be finite")

    sides = g.edge_sides()
    sidx = g.step_index()

    def edge_context(eid):
        fl = sides[eid][True]
        fr = sides[eid][False]
        if fl in g.boundary_faces or fr in g.boundary_faces:
            return None
        f, k = sidx[(eid, True)]
        shifts = g.face_shifts(f)
        a = d.values[f]
        b = d.lifted_value(fr, slot_alignment(g, f, k))
        if is_infinite(a) or is_infinite(b):
            raise DegenerateReflectionLine("a centre at infinity borders edge %d" % eid)
        if close(a, b):
            raise DegenerateReflectionLine("coincident centres across edge %d" % eid)
        return a, b, shifts[k], shifts[k + 1]

    inc = g.vertex_edges()
    values: Dict[int, object] = {seed_vertex: complex(seed_value)}
    queue = [seed_vertex]
    while queue:
        v = queue.pop(0)
        for eid in inc[v]:
            ctx = edge_context(eid)
            if ctx is None:
                continue
            a, b, s_start, s_end = ctx
            sv = g.step_start((eid, True))
            ev = g.step_end((eid, True))
            if sv == v and ev not in values:
                w = reflect_in_line(values[v] + _omega(d.periods, s_start), a, b)
                values[ev] = w - _omega(d.periods, s_end)
                queue.append(ev)
            elif ev == v and sv not in values:
                w = reflect_in_line(values[v] + _omega(d.periods, s_end), a, b)
                values[sv] = w - _omega(d.periods, s_start)
                queue.append(sv)

    missing = [v for v in g.vertex_color if v not in values]
    if missing:
        raise MiquelDynError(
            "vertices %s not reachable by reflections from the seed" % missing
        )

    # replay every edge; a consistent drawing closes up exactly
    for eid in sorted(g.edges):
        ctx = edge_context(eid)
        if ctx is None:
            continue
        a, b, s_start, s_end = ctx
        sv = g.step_start((eid, True))
        ev = g.step_end((eid, True))
        want = reflect_in_line(values[sv] + _omega(d.periods, s_start), a, b)
        got = values[ev] + _omega(d.periods, s_end)
        scale = max(1.0, abs(want), abs(got))
        if abs(want - got) > 1e-9 * scale:
            raise MonodromyFailure(
                "reflection system does not close across edge %d" % eid
            )
    return CirclePattern(g, values, dict(d.values), d.periods)


def local_miquel(center, n_centers: List[object], corners: List[object],
                 spread: float, tol: float = 1e-6):
    """New corners and centre of one Miquel move, in the face's frame.

    n_centers[k] is the slot-k neighbour's centre and corners[k] the
    corner it shares with neighbour k+1.  The new centre is
    mutate_about(center, *n_centers).  New corner k, the second
    intersection of the circles k and k+1, is corner k reflected in the
    line through their centres (for a line: perpendicular to it).  Each
    neighbour centre (a line's: center) must be equidistant from the
    two corners on its circle, to tol * spread.
    """
    # chord k, shared with neighbour k, runs from corner k-1 to corner k
    chord = [abs(_point_gap(corners[k], a) - _point_gap(corners[k - 1], a))
             for k, a in enumerate(center if is_infinite(z) else z for z in n_centers)]
    for k in range(4):
        gap = max(chord[k], chord[(k + 1) % 4])
        if not gap <= tol * spread:  # NaN too
            raise NumericalTangencyAmbiguity(
                "corner %d is not an intersection of its circles" % k,
                residual=gap, tolerance=tol, scale=spread)
    second: List[object] = []
    for k in range(4):
        a, b = n_centers[k], n_centers[(k + 1) % 4]
        if is_infinite(a):    # neighbour k is the line through corners k-1, k
            a = b + 1j * (corners[k] - corners[k - 1])
        elif is_infinite(b):  # neighbour k+1 is the line through corners k, k+1
            b = a + 1j * (corners[(k + 1) % 4] - corners[k])
        second.append(reflect_in_line(corners[k], a, b))
    return second, mutate_about(center, *n_centers)


def _point_gap(a, b) -> float:
    ia, ib = is_infinite(a), is_infinite(b)
    if ia and ib:
        return 0.0
    if ia or ib:
        return float("inf")
    return abs(a - b)


def _moved_values(values, f: int, value, rec, periods: Periods) -> Dict[int, object]:
    """values with f's set to value and every re-anchored face in its new frame."""
    out = dict(values)
    out[f] = value
    for fid, delta in rec.anchor_shift.items():
        if not is_infinite(out[fid]):
            out[fid] -= _omega(periods, delta)
    return out


def miquel_move(p: CirclePattern, f: int) -> CirclePattern:
    pattern, _ = miquel_move_full(p, f)
    return pattern


def miquel_move_full(p: CirclePattern, f: int):
    """Miquel move at a valid face f (local_miquel), and the 4-mutation
    underneath.  Every check is relative to the spread: the largest
    distance of a finite centre of f or a neighbour from the first one.
    So the move commutes with similarities.  Returns (pattern,
    mutation record).
    """
    g = p.graph
    _quad_slots(g, f)
    shifts = g.face_shifts(f)
    cf = p.center_points[f]
    # the centre dict is only read here, so it is shared, not copied
    cd = FaceDrawing(g, p.center_points, p.periods)
    n_centers = [cd.slot_value(f, k) for k in range(4)]
    fin = [z for z in [cf] + n_centers if not is_infinite(z)]
    spread = max((abs(z - fin[0]) for z in fin), default=0.0)
    for k in range(4):
        if close(n_centers[k], n_centers[(k + 1) % 4], COINCIDE_RTOL * spread, 0.0):
            raise InvalidFace("consecutive neighbour centres of face %d coincide" % f)
        if close(n_centers[k], cf, COINCIDE_RTOL * spread, 0.0):
            raise InvalidFace("neighbour centre equals the centre of face %d" % f)
    # the finite centres must not lie on one line (an infinite one is on every line)
    far = max(fin, key=lambda z: abs(z - fin[0]))
    axis = (far - fin[0]) / spread
    off = max(abs(((z - fin[0]) * axis.conjugate()).imag) for z in fin)
    if off <= 1e-12 * spread:
        raise CollinearCenters("face %d: centres lie on one line" % f, face=f,
                               residual=off, tolerance=1e-12, scale=spread)

    corners = [p.vertex_points[g.step_end(s)] for s in g.faces[f]]
    corners = [z if is_infinite(z) else z + _omega(p.periods, shifts[k + 1])
               for k, z in enumerate(corners)]
    try:
        second, new_center = local_miquel(cf, n_centers, corners, spread)
    except NumericDegeneracy as exc:
        raise type(exc)("face %d: %s" % (f, exc), **dict(exc.fields(), face=f)) from exc

    g2, rec = mutate_at_face(g, f)
    new_vertices = p.vertex_points.copy()
    for k, (u, _leg) in rec.deleted.items():
        del new_vertices[u]
    for k in range(4):
        cid = rec.new_corners[k]
        tau = rec.corner_shift[k]
        if k in rec.inserted:
            z = second[k]
            new_vertices[cid] = z if is_infinite(z) else z - _omega(p.periods, tau)
        else:
            kept = new_vertices[cid]
            kept_l = kept if is_infinite(kept) else kept + _omega(p.periods, tau)
            gap = _point_gap(kept_l, second[k])
            if gap > 1e-7 * spread:
                raise ConstructionFailure(
                    "face %d: second intersection at corner %d misses the leg vertex"
                    % (f, k), face=f, residual=gap, tolerance=1e-7, scale=spread)

    new_centers = _moved_values(p.center_points, f, new_center, rec, p.periods)
    return CirclePattern(g2, new_vertices, new_centers, p.periods), rec


def mobius_mutation_move(d: FaceDrawing, f: int) -> FaceDrawing:
    """Centre-only mutation move: the face value maps through the
    mutation Mobius map of its four lifted neighbour values
    (mutate_about)."""
    _quad_slots(d.graph, f)
    new_val = mutate_about(d.values[f], *(d.slot_value(f, k) for k in range(4)))
    g2, rec = mutate_at_face(d.graph, f)
    return FaceDrawing(g2, _moved_values(d.values, f, new_val, rec, d.periods), d.periods)


def clifford_point_geometric(d: FaceDrawing, f: int, tol: float = 1e-8):
    """Geometric Clifford construction of the moved value at face f.

    Treats d(f) and its four lifted neighbour values as the base point
    and the consecutive intersections of four circles through it,
    rebuilds the circles, and returns the concurrence point of the four
    derived circumcircles.  Raises ConcyclicDegenerate when the five
    points are concyclic and ConstructionFailure when the concurrence
    does not materialise.
    """
    g = d.graph
    _quad_slots(g, f)
    base = d.values[f]
    js = [d.slot_value(f, k) for k in range(4)]
    pts = [base] + js
    fin = [q for q in pts if not is_infinite(q)]
    scale = max([1.0] + [abs(a - b) for a in fin for b in fin])
    if len(fin) == 5:
        try:
            circ = circumcircle(pts[0], pts[1], pts[2])
        except Exception:
            circ = None
        if circ is not None and all(
            circ.distance_to(q) <= 1e-10 * scale for q in pts
        ):
            raise ConcyclicDegenerate("the five points lie on one circle")

    def second_of(c1: Circle, c2: Circle, avoid):
        hits = intersect_circles(c1, c2)
        if not hits:
            raise ConstructionFailure("rebuilt circles do not meet")
        if len(hits) == 1:
            return avoid
        d0, d1 = _point_gap(hits[0], avoid), _point_gap(hits[1], avoid)
        return hits[1] if d0 <= d1 else hits[0]

    try:
        circles = [circumcircle(base, js[(k - 1) % 4], js[k]) for k in range(4)]
    except Exception as exc:
        raise ConstructionFailure("could not rebuild the four circles: %s" % exc)
    j13 = second_of(circles[0], circles[2], base)
    j24 = second_of(circles[1], circles[3], base)

    try:
        tilde = [
            circumcircle(js[k], js[(k - 1) % 4], j24 if k % 2 == 0 else j13)
            for k in range(4)
        ]
    except Exception as exc:
        raise ConstructionFailure("degenerate derived circle: %s" % exc)

    pair_hits = []
    for k in range(4):
        hits = intersect_circles(tilde[k], tilde[(k + 1) % 4])
        if not hits:
            raise ConstructionFailure("derived circles %d, %d do not meet" % (k, k + 1))
        pair_hits.append(hits)

    best, best_res = None, float("inf")
    for cand in pair_hits[0]:
        res = 0.0
        for hits in pair_hits[1:]:
            res = max(res, min(_point_gap(cand, h) for h in hits))
        if res < best_res:
            best, best_res = cand, res
    if is_infinite(best):
        if best_res <= tol * scale:
            return INFINITY
        raise ConstructionFailure("no common point of the derived circles")
    matched = [best]
    for hits in pair_hits[1:]:
        matched.append(min(hits, key=lambda h: _point_gap(best, h)))
    if any(is_infinite(m) for m in matched) or best_res > tol * scale:
        raise ConstructionFailure("derived circles do not concur within tolerance")
    return sum(matched) / 4.0
