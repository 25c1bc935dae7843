"""Brute-force dimer statistics on bipartite surface graphs.

Matchings are enumerated exhaustively, so everything here is exact up
to float arithmetic.  One recursion over a bitmask of uncovered
vertices folds every perfect matching into a sum of weights per class
key, storing no matching.  The urban-renewal check keys classes by the
edges outside the move and compares class probabilities across one
4-mutation in one pass per graph; enumerate_matchings and
dimer_statistics key over all edges, so each class is one matching.
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

# (mask of the two end vertices, edge weight, class key bit) of one edge
_Option = Tuple[int, float, int]


def _fold(u: int, x: float, key: int, options: List[List[_Option]],
          sums: Dict[int, float]) -> None:
    """Add x times the weight of every perfect matching of the vertex
    bits in u to sums, under key or'ed with the matching's key bits."""
    if not u:
        sums[key] = sums.get(key, 0.0) + x
        return
    for pair, we, bit in options[(u & -u).bit_length() - 1]:
        if u & pair == pair:
            _fold(u ^ pair, x * we, key | bit, options, sums)


def _class_sums(g: SurfaceGraph, w: Optional[EdgeWeights], key_bits: Dict[int, int],
                max_vertices: int = MAX_ENUMERATION_VERTICES) -> Dict[int, float]:
    """Summed weight of the perfect matchings of g per class key.

    A matching's key is the or of key_bits[e] over its edges (edges
    absent from key_bits add nothing) and its weight the product of
    w[e], or 1 when w is None.  Vertex k of the sorted vertex ids is bit
    k of the uncovered-vertex mask; the lowest uncovered vertex is
    matched next, so each matching is visited once and none is stored.
    """
    if w is not None:
        for eid in g.edges:
            if eid not in w:
                raise MiquelDynError("edge %d has no weight" % eid)
            if not w[eid] > 0:
                raise MiquelDynError("edge %d has non-positive weight" % eid)
    verts = sorted(g.vertex_color)
    n = len(verts)
    if n > max_vertices:
        raise TooLarge("%d vertices exceed the enumeration bound %d" % (n, max_vertices))
    pos = {v: k for k, v in enumerate(verts)}
    inc = g.vertex_edges()
    options: List[List[_Option]] = []
    for k, v in enumerate(verts):
        opts = []
        for eid in inc[v]:
            e = g.edges[eid]
            o = pos[e.plus if e.minus == v else e.minus]
            # partners below k are covered whenever k is the lowest bit
            if o > k:
                opts.append(((1 << k) | (1 << o), 1.0 if w is None else w[eid],
                             key_bits.get(eid, 0)))
        options.append(opts)
    sums: Dict[int, float] = {}
    _fold((1 << n) - 1, 1.0, 0, options, sums)
    return sums


def _key_bits(eids: List[int]) -> Dict[int, int]:
    return {eid: 1 << b for b, eid in enumerate(eids)}


def _decode(key: int, eids: List[int]) -> Tuple[int, ...]:
    return tuple(eids[b] for b in range(key.bit_length()) if key >> b & 1)


def enumerate_matchings(g: SurfaceGraph, max_vertices: int = MAX_ENUMERATION_VERTICES
                        ) -> List[Tuple[int, ...]]:
    """All perfect matchings as sorted edge-id tuples, sorted."""
    eids = sorted(g.edges)
    sums = _class_sums(g, None, _key_bits(eids), max_vertices)
    return sorted(_decode(key, eids) for key in sums)


@dataclass
class MatchingEnsemble:
    matchings: List[Tuple[int, ...]]
    weights: List[float]
    Z: float
    probabilities: List[float]


def dimer_statistics(g: SurfaceGraph, w: EdgeWeights,
                     max_vertices: int = MAX_ENUMERATION_VERTICES) -> MatchingEnsemble:
    """Every perfect matching with its weight and probability, the
    matchings sorted; keyed over all edges, each class is one matching."""
    eids = sorted(g.edges)
    sums = _class_sums(g, w, _key_bits(eids), max_vertices)
    pairs = sorted((_decode(key, eids), x) for key, x in sums.items())
    matchings = [m for m, _ in pairs]
    weights = [x for _, x in pairs]
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

    bits = _key_bits(sorted(comp))
    c1 = _class_sums(g, w, bits, max_vertices)
    c2 = _class_sums(g2, w2, bits, max_vertices)
    z1, z2 = sum(c1.values()), sum(c2.values())
    if z1 == 0 or z2 == 0:
        return UrbanRenewalReport(False, float("nan"), 0, z1, z2, undefined=True)
    keys = set(c1) | set(c2)
    disc = max(abs(c1.get(k, 0.0) / z1 - c2.get(k, 0.0) / z2) for k in keys)
    return UrbanRenewalReport(disc <= tol, disc, len(keys), z1, z2)
