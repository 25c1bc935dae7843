"""Bipartite quad mutation on combinatorial surfaces.

A SurfaceGraph is a CW decomposition of an oriented surface: vertices
carry a colour (+1/-1), edges are directed from their -1 end to their +1
end, and every face is a cyclic walk of directed steps (edge_id, forward)
listed counterclockwise, so the face lies on the left of each step.  The
dual edge of a primal edge is oriented from the face traversing it
forward to the face traversing it backward.

Torus graphs carry per-edge integer offsets: the universal-cover shift of
the plus end relative to the minus end in period units.  Offsets around
every face walk sum to zero (faces are disks).  All lift bookkeeping for
circle patterns reduces to accumulating these offsets along walks.

Graphs are immutable values.  Their incidence maps (which faces lie on
either side of an edge, where a step sits in its walk, the edges at a
vertex, the cover shifts along each walk) are built once per graph, on
first use; mutate_at_face hands the new graph copies of the old graph's
maps with only the entries around the moved face redone, so a move
costs no whole-graph rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Tuple

from .errors import NotAValidQuad, OddDimensions

Offset = Tuple[int, int]
Step = Tuple[int, bool]

_ZERO: Offset = (0, 0)


def _oadd(a: Offset, b: Offset) -> Offset:
    return (a[0] + b[0], a[1] + b[1])


def _osub(a: Offset, b: Offset) -> Offset:
    return (a[0] - b[0], a[1] - b[1])


def _oneg(a: Offset) -> Offset:
    return (-a[0], -a[1])


@dataclass(frozen=True)
class Edge:
    minus: int
    plus: int
    offset: Offset = _ZERO


@dataclass(frozen=True)
class SurfaceGraph:
    """An immutable surface graph with memoised incidence maps.

    The incidence maps (edge_sides, step_index, vertex_edges,
    vertex_degrees and the per-face face_shifts) are built on first use
    or handed over by mutate_at_face, and are never mutated after
    construction: callers must treat them as read-only.  The same memo
    holds the validate_surface_graph diagnostics and the array indices
    of lattice, which mutate_at_face never hands over.  The memo stays
    out of ==, repr and dataclasses.replace, which starts a fresh one.
    """

    surface: str  # "sphere" | "torus" | "plane-patch"
    vertex_color: Dict[int, int]
    edges: Dict[int, Edge]
    faces: Dict[int, Tuple[Step, ...]]
    boundary_faces: frozenset = field(default_factory=frozenset)
    _maps: Dict[Hashable, object] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def _memo(self, name: Hashable, build: Callable[[], object]):
        m = self._maps.get(name)
        if m is None:
            m = self._maps[name] = build()
        return m

    # -- elementary lookups ------------------------------------------------

    def step_start(self, step: Step) -> int:
        e = self.edges[step[0]]
        return e.minus if step[1] else e.plus

    def step_end(self, step: Step) -> int:
        e = self.edges[step[0]]
        return e.plus if step[1] else e.minus

    def step_offset(self, step: Step) -> Offset:
        o = self.edges[step[0]].offset
        return o if step[1] else _oneg(o)

    def face_degree(self, f: int) -> int:
        return len(self.faces[f])

    def face_vertices(self, f: int) -> List[int]:
        """Walk vertices, entry k is the start of step k."""
        return [self.step_start(s) for s in self.faces[f]]

    def face_shifts(self, f: int) -> List[Offset]:
        """Accumulated cover shifts; entry k is at the start of step k.

        Entry len(walk) closes back to (0, 0) on consistent graphs.
        """
        return self._memo("face_shifts", self._build_face_shifts)[f]

    def vertex_degrees(self) -> Dict[int, int]:
        return self._memo("vertex_degrees", self._build_vertex_degrees)

    def vertex_edges(self) -> Dict[int, List[int]]:
        """Incident edge ids per vertex, sorted."""
        return self._memo("vertex_edges", self._build_vertex_edges)

    def step_index(self) -> Dict[Step, Tuple[int, int]]:
        """(edge, flag) -> (face, walk position).  Each key appears once."""
        return self._memo("step_index", self._build_step_index)

    def edge_sides(self) -> Dict[int, Dict[bool, int]]:
        """edge -> {forward flag: face traversing the edge that way}."""
        return self._memo("edge_sides", self._build_edge_sides)

    # -- incidence builders ------------------------------------------------

    def _build_face_shifts(self) -> Dict[int, List[Offset]]:
        return {fid: _walk_shifts(self.edges, walk) for fid, walk in self.faces.items()}

    def _build_vertex_degrees(self) -> Dict[int, int]:
        deg = {v: 0 for v in self.vertex_color}
        for e in self.edges.values():
            deg[e.minus] += 1
            deg[e.plus] += 1
        return deg

    def _build_vertex_edges(self) -> Dict[int, List[int]]:
        inc = {v: [] for v in self.vertex_color}
        for eid in sorted(self.edges):
            e = self.edges[eid]
            inc[e.minus].append(eid)
            inc[e.plus].append(eid)
        return inc

    def _build_step_index(self) -> Dict[Step, Tuple[int, int]]:
        idx = {}
        for fid, walk in self.faces.items():
            for p, s in enumerate(walk):
                idx[s] = (fid, p)
        return idx

    def _build_edge_sides(self) -> Dict[int, Dict[bool, int]]:
        sides: Dict[int, Dict[bool, int]] = {}
        for fid, walk in self.faces.items():
            for (eid, fwd) in walk:
                sides.setdefault(eid, {})[fwd] = fid
        return sides


def _walk_shifts(edges: Dict[int, Edge], walk: Tuple[Step, ...]) -> List[Offset]:
    shifts = [_ZERO]
    for (eid, fwd) in walk:
        o = edges[eid].offset
        shifts.append(_oadd(shifts[-1], o if fwd else _oneg(o)))
    return shifts


# -- validation -------------------------------------------------------------


def validate_surface_graph(g: SurfaceGraph, min_vertex_degree: int = 3) -> List[str]:
    """Diagnostics for the surface-graph invariants; empty list when valid.

    They are worked out once per graph and min_vertex_degree; every call
    returns a fresh list, which the caller may extend.
    """
    return list(g._memo(("validate_surface_graph", min_vertex_degree),
                        lambda: tuple(_surface_graph_problems(g, min_vertex_degree))))


def _surface_graph_problems(g: SurfaceGraph, min_vertex_degree: int) -> List[str]:
    out: List[str] = []
    if g.surface not in ("sphere", "torus", "plane-patch"):
        out.append("unknown surface tag %r" % (g.surface,))
        return out
    for v, c in g.vertex_color.items():
        if c not in (1, -1):
            out.append("vertex %d has colour %r" % (v, c))
    for eid, e in g.edges.items():
        if e.minus not in g.vertex_color or e.plus not in g.vertex_color:
            out.append("edge %d references a missing vertex" % eid)
            continue
        if g.vertex_color.get(e.minus) != -1 or g.vertex_color.get(e.plus) != 1:
            out.append("edge %d is not directed from colour -1 to colour +1" % eid)
        if g.surface != "torus" and e.offset != _ZERO:
            out.append("edge %d has a nonzero offset on a %s" % (eid, g.surface))
    if out:
        return out

    # every edge is traversed once forward and once backward
    seen: Dict[Step, int] = {}
    for fid, walk in g.faces.items():
        if len(walk) == 0:
            out.append("face %d has an empty walk" % fid)
            continue
        for p, s in enumerate(walk):
            if s[0] not in g.edges:
                out.append("face %d references missing edge %d" % (fid, s[0]))
                continue
            seen[s] = seen.get(s, 0) + 1
            if g.step_end(s) != g.step_start(walk[(p + 1) % len(walk)]):
                out.append("face %d walk breaks at position %d" % (fid, p))
    for eid in g.edges:
        for fwd in (True, False):
            n = seen.get((eid, fwd), 0)
            if n != 1:
                out.append(
                    "edge %d traversed %d times with forward=%s" % (eid, n, fwd)
                )
    if out:
        return out

    # degree bounds; plane patches exempt boundary faces and their vertices
    exempt_vertices = set()
    for bf in g.boundary_faces:
        exempt_vertices.update(g.face_vertices(bf))
    deg = g.vertex_degrees()
    for v in sorted(g.vertex_color):
        if v in exempt_vertices:
            continue
        if deg[v] < min_vertex_degree:
            out.append("vertex %d has degree %d < %d" % (v, deg[v], min_vertex_degree))
    for fid in sorted(g.faces):
        if fid in g.boundary_faces:
            continue
        if g.face_degree(fid) < 2:
            out.append("face %d has degree %d < 2" % (fid, g.face_degree(fid)))

    # single corner cycle around every vertex (the CW condition)
    succ: Dict[int, Dict[Step, Step]] = {v: {} for v in g.vertex_color}
    for fid, walk in g.faces.items():
        n = len(walk)
        for p in range(n):
            s_in, s_out = walk[p], walk[(p + 1) % n]
            v = g.step_end(s_in)
            if s_in in succ[v]:
                out.append("vertex %d has a doubled corner" % v)
            succ[v][s_in] = s_out
    for v in sorted(g.vertex_color):
        trans = succ[v]
        if len(trans) != deg[v]:
            out.append("vertex %d has %d corners, degree %d" % (v, len(trans), deg[v]))
            continue
        if not trans:
            out.append("vertex %d is isolated" % v)
            continue
        start = next(iter(sorted(trans)))
        cur, count = start, 0
        while count < len(trans):
            nxt = trans[cur]
            # re-enter along the same edge from the other side
            cur = (nxt[0], not nxt[1])
            count += 1
            if cur == start:
                break
        if cur != start or count != len(trans):
            out.append("vertex %d link is not a single cycle" % v)

    # face walks close in the cover
    if g.surface == "torus":
        for fid in sorted(g.faces):
            if g.face_shifts(fid)[-1] != _ZERO:
                out.append("face %d walk does not close in the cover" % fid)

    chi = len(g.vertex_color) - len(g.edges) + len(g.faces)
    want = {"sphere": 2, "torus": 0, "plane-patch": 2}[g.surface]
    if chi != want:
        out.append("Euler characteristic %d, expected %d" % (chi, want))
    if g.surface == "plane-patch" and not g.boundary_faces:
        out.append("plane-patch without marked boundary faces")
    return out


# -- builders ----------------------------------------------------------------


def build_square_grid_torus(rows: int, cols: int) -> SurfaceGraph:
    """Square grid on the torus; rows and cols must be even and >= 2.

    Vertex (i, j) has id i*cols + j and colour +1 iff i+j is even.
    Horizontal edge ids are i*cols + j, vertical ids rows*cols + i*cols + j,
    face (i, j) has id i*cols + j with parity (i + j) % 2.
    """
    if rows < 2 or cols < 2 or rows % 2 or cols % 2:
        raise OddDimensions("grid dimensions must be even and at least 2")
    vid = lambda i, j: (i % rows) * cols + (j % cols)
    colors = {vid(i, j): 1 if (i + j) % 2 == 0 else -1
              for i in range(rows) for j in range(cols)}

    def mk_edge(a: int, b: int, geo: Offset) -> Edge:
        # a -> b is the geometric direction; store from the -1 end
        if colors[a] == -1:
            return Edge(minus=a, plus=b, offset=geo)
        return Edge(minus=b, plus=a, offset=_oneg(geo))

    edges: Dict[int, Edge] = {}
    for i in range(rows):
        for j in range(cols):
            geo_h = (1, 0) if j + 1 == cols else _ZERO
            edges[i * cols + j] = mk_edge(vid(i, j), vid(i, j + 1), geo_h)
            geo_v = (0, 1) if i + 1 == rows else _ZERO
            edges[rows * cols + i * cols + j] = mk_edge(vid(i, j), vid(i + 1, j), geo_v)

    def step(eid: int, start: int) -> Step:
        return (eid, edges[eid].minus == start)

    faces: Dict[int, Tuple[Step, ...]] = {}
    for i in range(rows):
        for j in range(cols):
            h_bot = i * cols + j
            h_top = ((i + 1) % rows) * cols + j
            v_left = rows * cols + i * cols + j
            v_right = rows * cols + i * cols + (j + 1) % cols
            faces[i * cols + j] = (
                step(h_bot, vid(i, j)),
                step(v_right, vid(i, j + 1)),
                step(h_top, vid(i + 1, j + 1)),
                step(v_left, vid(i + 1, j)),
            )
    return SurfaceGraph("torus", colors, edges, faces)


def grid_face_parity(rows: int, cols: int) -> Dict[int, int]:
    return {i * cols + j: (i + j) % 2 for i in range(rows) for j in range(cols)}


def build_square_grid_patch(rows: int, cols: int) -> SurfaceGraph:
    """rows x cols grid of faces in the plane, one marked outer face."""
    if rows < 1 or cols < 1:
        raise OddDimensions("patch dimensions must be at least 1")
    nv = cols + 1
    vid = lambda i, j: i * nv + j
    colors = {vid(i, j): 1 if (i + j) % 2 == 0 else -1
              for i in range(rows + 1) for j in range(cols + 1)}

    def mk_edge(a, b):
        if colors[a] == -1:
            return Edge(minus=a, plus=b)
        return Edge(minus=b, plus=a)

    edges: Dict[int, Edge] = {}
    h_id = lambda i, j: i * cols + j                  # (i,j) -> (i,j+1)
    v_id = lambda i, j: (rows + 1) * cols + i * nv + j  # (i,j) -> (i+1,j)
    for i in range(rows + 1):
        for j in range(cols):
            edges[h_id(i, j)] = mk_edge(vid(i, j), vid(i, j + 1))
    for i in range(rows):
        for j in range(cols + 1):
            edges[v_id(i, j)] = mk_edge(vid(i, j), vid(i + 1, j))

    def step(eid, start):
        return (eid, edges[eid].minus == start)

    faces: Dict[int, Tuple[Step, ...]] = {}
    for i in range(rows):
        for j in range(cols):
            faces[i * cols + j] = (
                step(h_id(i, j), vid(i, j)),
                step(v_id(i, j + 1), vid(i, j + 1)),
                step(h_id(i + 1, j), vid(i + 1, j + 1)),
                step(v_id(i, j), vid(i + 1, j)),
            )
    outer = rows * cols
    # the outer face walk is clockwise in the plane, so every boundary
    # edge is traversed opposite to its interior face
    walk: List[Step] = []
    for i in range(rows):  # left column, bottom to top
        walk.append(step(v_id(i, 0), vid(i, 0)))
    for j in range(cols):  # top row, left to right
        walk.append(step(h_id(rows, j), vid(rows, j)))
    for i in range(rows):  # right column, top to bottom
        walk.append(step(v_id(rows - 1 - i, cols), vid(rows - i, cols)))
    for j in range(cols):  # bottom row, right to left
        walk.append(step(h_id(0, cols - 1 - j), vid(0, cols - j)))
    faces[outer] = tuple(walk)
    return SurfaceGraph("plane-patch", colors, edges, faces,
                        boundary_faces=frozenset([outer]))


# -- quad neighbourhoods and mutation ----------------------------------------


def _quad_slots(g: SurfaceGraph, f: int) -> List[int]:
    """Neighbour faces across the four steps of f; validity checks."""
    if f not in g.faces:
        raise NotAValidQuad("no face %d" % f)
    walk = g.faces[f]
    if len(walk) != 4:
        raise NotAValidQuad("face %d has degree %d, not 4" % (f, len(walk)))
    sides = g.edge_sides()
    slots = []
    for (eid, fwd) in walk:
        n = sides[eid][not fwd]
        if n == f:
            raise NotAValidQuad("face %d is adjacent to itself" % f)
        slots.append(n)
    for k in range(4):
        if slots[k] == slots[(k + 1) % 4]:
            raise NotAValidQuad(
                "face %d has coinciding consecutive neighbours" % f
            )
    if g.boundary_faces:
        if f in g.boundary_faces or any(n in g.boundary_faces for n in slots):
            raise NotAValidQuad("face %d touches the boundary" % f)
    return slots


def edge_neighbourhood(g: SurfaceGraph, f: int) -> List[int]:
    """Edges incident only to f and its four neighbour slots, sorted."""
    slots = _quad_slots(g, f)
    allowed = set(slots) | {f}
    sides = g.edge_sides()
    cand = set()
    for face in allowed:
        for (eid, _) in g.faces[face]:
            cand.add(eid)
    return sorted(e for e in cand
                  if sides[e][True] in allowed and sides[e][False] in allowed)


@dataclass
class MutationRecord:
    """Bookkeeping for one 4-mutation, enough to transport geometry.

    corner_shift[k] is the cover shift of the new corner c_k in f's old
    walk frame; anchor_shift[face] is the shift of the rebuilt walk's
    start in that face's old frame (identity when absent).
    """

    face: int
    slots: Tuple[int, int, int, int]
    old_corners: Tuple[int, int, int, int]
    new_corners: Tuple[int, int, int, int]
    inserted: Dict[int, int]
    deleted: Dict[int, Tuple[int, int]]
    new_quad_edges: Tuple[int, int, int, int]
    new_leg_edges: Dict[int, int]
    old_corner_shift: Dict[int, Offset]
    corner_shift: Dict[int, Offset]
    anchor_shift: Dict[int, Offset]


def mutate_at_face(g: SurfaceGraph, f: int) -> Tuple[SurfaceGraph, MutationRecord]:
    """4-mutation at a valid quad face.

    Per corner: a degree-3 corner is deleted together with its third edge
    (always a leg separating the two adjacent neighbour slots) and the leg's
    far end becomes the new corner; any other corner stays and receives a
    new opposite-colour vertex joined by a new leg.  The four sides of f
    are rebuilt slot-aligned and the neighbour walks are spliced locally.
    The move is an involution up to the ids of re-created elements.
    """
    slots = _quad_slots(g, f)
    walk = list(g.faces[f])
    shifts = g.face_shifts(f)  # length 5, start/end at (0,0)
    deg = g.vertex_degrees()
    inc = g.vertex_edges()
    sides = g.edge_sides()
    sidx = g.step_index()

    # corner u_k is the end of step k, between slots k and k+1
    corners = [g.step_end(s) for s in walk]
    corner_shift_old = {k: shifts[k + 1] for k in range(4)}

    new_vc = g.vertex_color.copy()
    new_edges = g.edges.copy()
    next_vid = max(g.vertex_color) + 1
    next_eid = max(g.edges) + 1

    inserted: Dict[int, int] = {}
    deleted: Dict[int, Tuple[int, int]] = {}
    new_leg: Dict[int, int] = {}
    new_corner: List[int] = [0] * 4
    tau: Dict[int, Offset] = {}
    delete_at: List[bool] = [False] * 4

    # classify all corners before touching the graph
    quad_eids = [walk[k][0] for k in range(4)]
    for k in range(4):
        u = corners[k]
        if deg[u] == 3:
            legs = [e for e in inc[u] if e not in (walk[k][0], walk[(k + 1) % 4][0])]
            if len(legs) != 1:
                raise NotAValidQuad("corner %d of face %d is malformed" % (u, f))
            leg = legs[0]
            le = g.edges[leg]
            if set(sides[leg].values()) != {slots[k], slots[(k + 1) % 4]}:
                raise NotAValidQuad(
                    "third edge at corner %d does not separate the slots" % u
                )
            w = le.plus if le.minus == u else le.minus
            off = le.offset if le.minus == u else _oneg(le.offset)
            delete_at[k] = True
            deleted[k] = (u, leg)
            new_corner[k] = w
            tau[k] = _oadd(corner_shift_old[k], off)
    if len({leg for (_, leg) in deleted.values()}) != len(deleted):
        raise NotAValidQuad("two corners of face %d share a leg" % f)

    for k in range(4):
        if delete_at[k]:
            u, leg = deleted[k]
            del new_vc[u]
            del new_edges[leg]
        else:
            u = corners[k]
            nid = next_vid
            next_vid += 1
            new_vc[nid] = -g.vertex_color[u]
            inserted[k] = nid
            new_corner[k] = nid
            tau[k] = corner_shift_old[k]
            leg_id = next_eid
            next_eid += 1
            if g.vertex_color[u] == -1:
                new_edges[leg_id] = Edge(minus=u, plus=nid)
            else:
                new_edges[leg_id] = Edge(minus=nid, plus=u)
            new_leg[k] = leg_id

    # colour of c_k is opposite to u_k's in both cases
    for k in range(4):
        assert new_vc[new_corner[k]] == -g.vertex_color[corners[k]]

    # new quad edge at slot k runs c_{k-1} -> c_k along f's walk
    quad_new: List[int] = []
    quad_step_f: List[Step] = []
    for k in range(4):
        a, b = new_corner[(k - 1) % 4], new_corner[k]
        o = _osub(tau[k], tau[(k - 1) % 4])
        eid = next_eid
        next_eid += 1
        if new_vc[a] == -1:
            new_edges[eid] = Edge(minus=a, plus=b, offset=o)
            quad_step_f.append((eid, True))
        else:
            new_edges[eid] = Edge(minus=b, plus=a, offset=_oneg(o))
            quad_step_f.append((eid, False))
        quad_new.append(eid)
    for eid in quad_eids:
        del new_edges[eid]

    def leg_step(k: int, start: int) -> Step:
        eid = new_leg[k]
        return (eid, new_edges[eid].minus == start)

    new_faces = g.faces.copy()
    new_faces[f] = tuple(quad_step_f)
    anchor_shift: Dict[int, Offset] = {f: tau[3]}

    # splice each distinct neighbour's walk once
    by_face: Dict[int, List[int]] = {}
    for k, n in enumerate(slots):
        by_face.setdefault(n, []).append(k)
    for n, ks in by_face.items():
        old = list(g.faces[n])
        ln = len(old)
        nshifts = g.face_shifts(n)
        segs = []  # (start, length, replacement steps)
        for k in ks:
            eid, ffwd = walk[k]
            pos = sidx[(eid, not ffwd)]
            assert pos[0] == n
            p = pos[1]
            start, length = p, 1
            if delete_at[k]:
                # the leg into the corner sits right before the shared edge
                assert old[(p - 1) % ln][0] == deleted[k][1]
                start, length = (p - 1) % ln, length + 1
            if delete_at[(k - 1) % 4]:
                assert old[(p + 1) % ln][0] == deleted[(k - 1) % 4][1]
                length += 1
            repl: List[Step] = []
            if not delete_at[k]:
                repl.append(leg_step(k, corners[k]))
            qe = quad_new[k]
            repl.append((qe, new_edges[qe].minus == new_corner[k]))
            km = (k - 1) % 4
            if not delete_at[km]:
                repl.append(leg_step(km, inserted[km]))
            segs.append((start, length, repl))
        # rotate so the first segment starts at index 0, then splice
        rot = segs[0][0]
        rotated = old[rot:] + old[:rot]
        anchor_shift[n] = nshifts[rot]
        marks = sorted(((s - rot) % ln, l, r) for (s, l, r) in segs)
        rebuilt: List[Step] = []
        p = 0
        for (s, l, r) in marks:
            rebuilt.extend(rotated[p:s])
            rebuilt.extend(r)
            p = s + l
        rebuilt.extend(rotated[p:ln])
        new_faces[n] = tuple(rebuilt)

    out = SurfaceGraph(
        surface=g.surface,
        vertex_color=new_vc,
        edges=new_edges,
        faces=new_faces,
        boundary_faces=g.boundary_faces,
    )
    _carry_incidence(g, out, [f, *by_face],
                     set(quad_eids) | {leg for (_, leg) in deleted.values()},
                     quad_new + list(new_leg.values()),
                     [u for (u, _) in deleted.values()])
    rec = MutationRecord(
        face=f,
        slots=tuple(slots),
        old_corners=tuple(corners),
        new_corners=tuple(new_corner),
        inserted=inserted,
        deleted=deleted,
        new_quad_edges=tuple(quad_new),
        new_leg_edges=new_leg,
        old_corner_shift=corner_shift_old,
        corner_shift=dict(tau),
        anchor_shift=anchor_shift,
    )
    return out, rec


def _carry_incidence(g: SurfaceGraph, out: SurfaceGraph, touched: List[int],
                     removed: set, added: List[int], dropped: List[int]) -> None:
    """Give out, the mutation of g, its incidence maps: copies of g's with
    only the entries of the touched faces, the removed and added edges
    and the vertices at their ends redone.  g's maps stay as they are.
    mutate_at_face has built all of g's maps before it calls this."""
    # dict.copy clones the hash table; dict(m) would rehash every key of a
    # map that has seen deletions, as these have after the first move
    sides = g._maps["edge_sides"].copy()
    sidx = g._maps["step_index"].copy()
    shifts = g._maps["face_shifts"].copy()
    inc = g._maps["vertex_edges"].copy()
    deg = g._maps["vertex_degrees"].copy()
    for eid in removed:
        del sides[eid]
    for fid in touched:
        for s in g.faces[fid]:
            del sidx[s]
    new_eids = set(added)
    for fid in touched:
        walk = out.faces[fid]
        for p, s in enumerate(walk):
            sidx[s] = (fid, p)
            if s[0] in new_eids:
                # a fresh inner map, so g's entries are never written
                sides.setdefault(s[0], {})[s[1]] = fid
        shifts[fid] = _walk_shifts(out.edges, walk)

    for v in dropped:
        del inc[v]
        del deg[v]
    ends: Dict[int, List[int]] = {}
    for eid in removed:
        e = g.edges[eid]
        ends.setdefault(e.minus, [])
        ends.setdefault(e.plus, [])
    for eid in added:
        e = out.edges[eid]
        ends.setdefault(e.minus, []).append(eid)
        ends.setdefault(e.plus, []).append(eid)
    for v in sorted(ends):  # inserted vertices come last, in id order
        if v not in out.vertex_color:
            continue
        kept = [eid for eid in inc.get(v, ()) if eid not in removed]
        inc[v] = sorted(kept + ends[v])
        deg[v] = len(inc[v])
    out._maps.update(edge_sides=sides, step_index=sidx, face_shifts=shifts,
                     vertex_edges=inc, vertex_degrees=deg)


def slot_alignment(g: SurfaceGraph, f: int, k: int) -> Offset:
    """Cover shift t such that values of the slot-k neighbour, translated
    by t periods, live in f's walk frame."""
    walk = g.faces[f]
    eid, fwd = walk[k]
    shifts = g.face_shifts(f)
    m_f = shifts[k] if fwd else shifts[k + 1]
    n, p = g.step_index()[(eid, not fwd)]
    nshifts = g.face_shifts(n)
    m_n = nshifts[p + 1] if fwd else nshifts[p]
    return _osub(m_f, m_n)
