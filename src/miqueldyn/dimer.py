"""Brute-force dimer statistics on bipartite surface graphs.

Matchings are enumerated exhaustively, so everything here is exact up
to float arithmetic; the urban-renewal check compares class-restricted
matching probabilities across one 4-mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import (
    CoincidentCenters,
    InfiniteCenter,
    InvalidFace,
    MiquelDynError,
    NotAValidQuad,
    TooLarge,
    WeightMismatchOutsideN,
)
from .geometry import close, is_infinite
from .surface_graph import SurfaceGraph, edge_neighbourhood, _quad_slots, slot_alignment

EdgeWeights = Dict[int, float]
FaceWeights = Dict[int, float]

MAX_ENUMERATION_VERTICES = 24


def enumerate_matchings(g: SurfaceGraph, max_vertices: int = MAX_ENUMERATION_VERTICES
                        ) -> List[Tuple[int, ...]]:
    """All perfect matchings as sorted edge-id tuples, sorted."""
    n = len(g.vertex_color)
    if n > max_vertices:
        raise TooLarge("%d vertices exceed the enumeration bound %d" % (n, max_vertices))
    inc = g.vertex_edges()
    out: List[Tuple[int, ...]] = []

    def rec(uncovered: frozenset, chosen: List[int]) -> None:
        if not uncovered:
            out.append(tuple(sorted(chosen)))
            return
        v = min(uncovered)
        for eid in inc[v]:
            e = g.edges[eid]
            o = e.plus if e.minus == v else e.minus
            if o != v and o in uncovered:
                chosen.append(eid)
                rec(uncovered - {v, o}, chosen)
                chosen.pop()

    rec(frozenset(g.vertex_color), [])
    # rec reaches itself through its closure; unbound, the cycle no longer
    # keeps every matching alive until the next full garbage collection
    del rec
    return sorted(out)


@dataclass
class MatchingEnsemble:
    matchings: List[Tuple[int, ...]]
    weights: List[float]
    Z: float
    probabilities: List[float]


def dimer_statistics(g: SurfaceGraph, w: EdgeWeights,
                     max_vertices: int = MAX_ENUMERATION_VERTICES) -> MatchingEnsemble:
    for eid in g.edges:
        if eid not in w:
            raise MiquelDynError("edge %d has no weight" % eid)
        if not w[eid] > 0:
            raise MiquelDynError("edge %d has non-positive weight" % eid)
    matchings = enumerate_matchings(g, max_vertices)
    weights = []
    for m in matchings:
        x = 1.0
        for eid in m:
            x *= w[eid]
        weights.append(x)
    Z = sum(weights)
    probs = [x / Z for x in weights] if Z > 0 else []
    return MatchingEnsemble(matchings, weights, Z, probs)


def face_weights(g: SurfaceGraph, w: EdgeWeights) -> FaceWeights:
    """Alternating edge-weight ratio per face: weights of edges whose
    dual points into the face over those pointing out of it."""
    out: FaceWeights = {}
    for f, walk in g.faces.items():
        t = 1.0
        for (eid, fwd) in walk:
            # forward traversal means the dual edge leaves f
            t = t / w[eid] if fwd else t * w[eid]
        out[f] = t
    return out


def weights_from_pattern(p) -> EdgeWeights:
    """Distances between adjacent lifted centres, one weight per edge
    with both sides away from the boundary."""
    from .circle_pattern import _omega

    g = p.graph
    sides = g.edge_sides()
    sidx = g.step_index()
    out: EdgeWeights = {}
    for eid in sorted(g.edges):
        fl, fr = sides[eid][True], sides[eid][False]
        if fl in g.boundary_faces or fr in g.boundary_faces:
            continue
        cl = p.center_points[fl]
        cr = p.center_points[fr]
        if is_infinite(cl) or is_infinite(cr):
            raise InfiniteCenter("edge %d touches a line face" % eid)
        _, k = sidx[(eid, True)]
        cr = cr + _omega(p.periods, slot_alignment(g, fl, k))
        if close(cl, cr):
            raise CoincidentCenters("edge %d joins coincident centres" % eid)
        out[eid] = abs(cl - cr)
    return out


def face_weight_update(t: FaceWeights, g: SurfaceGraph, f: int) -> FaceWeights:
    """Face-weight transformation under mutation at f.

    The moved face inverts; a neighbour gains a factor (1 + t_f) per
    dual edge out of f and (1 + 1/t_f)^-1 per dual edge into f.  The
    directions are pinned by the brute-force renewal check.
    """
    try:
        _quad_slots(g, f)
    except NotAValidQuad as exc:
        raise InvalidFace(str(exc))
    tf = t[f]
    out = dict(t)
    out[f] = 1.0 / tf
    sides = g.edge_sides()
    for (eid, fwd) in g.faces[f]:
        n = sides[eid][not fwd]
        if fwd:  # dual edge leaves f for n
            out[n] = out[n] * (1.0 + tf)
        else:    # dual edge enters f from n
            out[n] = out[n] / (1.0 + 1.0 / tf)
    return out


@dataclass
class UrbanRenewalReport:
    ok: bool
    max_discrepancy: float
    classes: int
    z_before: float
    z_after: float
    undefined: bool = False

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "max_discrepancy": self.max_discrepancy,
            "classes": self.classes,
            "z_before": self.z_before,
            "z_after": self.z_after,
            "undefined": self.undefined,
        }


def urban_renewal_check(g: SurfaceGraph, w: EdgeWeights, f: int,
                        g2: SurfaceGraph, w2: EdgeWeights,
                        tol: float = 1e-9,
                        max_vertices: int = MAX_ENUMERATION_VERTICES
                        ) -> UrbanRenewalReport:
    """Compare class-restricted matching probabilities across a
    mutation at f; classes are keyed by the matching outside the edge
    neighbourhood of f, which both graphs share."""
    n_before = set(edge_neighbourhood(g, f))
    n_after = set(edge_neighbourhood(g2, f))
    comp = set(g.edges) - n_before
    comp2 = set(g2.edges) - n_after
    if comp != comp2:
        raise MiquelDynError("graphs do not share the complement of the move")
    for eid in sorted(comp):
        a, b = w[eid], w2[eid]
        if abs(a - b) > 1e-12 * max(abs(a), abs(b), 1.0):
            raise WeightMismatchOutsideN(
                "edge %d changed weight outside the move neighbourhood" % eid
            )

    ens1 = dimer_statistics(g, w, max_vertices)
    ens2 = dimer_statistics(g2, w2, max_vertices)
    if ens1.Z == 0 or ens2.Z == 0:
        return UrbanRenewalReport(False, float("nan"), 0, ens1.Z, ens2.Z,
                                  undefined=True)

    def classes(ens: MatchingEnsemble) -> Dict[Tuple[int, ...], float]:
        sums: Dict[Tuple[int, ...], float] = {}
        for m, p in zip(ens.matchings, ens.probabilities):
            key = tuple(sorted(set(m) & comp))
            sums[key] = sums.get(key, 0.0) + p
        return sums

    c1, c2 = classes(ens1), classes(ens2)
    keys = set(c1) | set(c2)
    disc = max(abs(c1.get(k, 0.0) - c2.get(k, 0.0)) for k in keys)
    return UrbanRenewalReport(disc <= tol, disc, len(keys), ens1.Z, ens2.Z)
