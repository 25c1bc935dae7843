"""Shared fixtures and structural comparison helpers."""

from miqueldyn.surface_graph import Edge, SurfaceGraph


def build_cube():
    """The cube as a sphere graph: 8 vertices, 12 edges, 6 quad faces.

    Vertex v encodes bits (x, y, z) as x + 2y + 4z; colour +1 iff an even
    number of bits.  Face walks are counterclockwise seen from outside.
    """
    color = {v: 1 if bin(v).count("1") % 2 == 0 else -1 for v in range(8)}
    pairs = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
             (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]
    edges = {}
    eid_of = {}
    for i, (a, b) in enumerate(pairs):
        m, p = (a, b) if color[a] == -1 else (b, a)
        edges[i] = Edge(minus=m, plus=p)
        eid_of[(a, b)] = i
        eid_of[(b, a)] = i

    def walk(seq):
        steps = []
        for k in range(len(seq)):
            a, b = seq[k], seq[(k + 1) % len(seq)]
            eid = eid_of[(a, b)]
            steps.append((eid, edges[eid].minus == a))
        return tuple(steps)

    faces = {
        0: walk([0, 2, 3, 1]),  # bottom
        1: walk([4, 5, 7, 6]),  # top
        2: walk([0, 1, 5, 4]),  # front
        3: walk([2, 6, 7, 3]),  # back
        4: walk([0, 4, 6, 2]),  # left
        5: walk([1, 3, 7, 5]),  # right
    }
    return SurfaceGraph("sphere", color, edges, faces)


def build_quad_sphere():
    """Two quadrilaterals glued along a 4-cycle (all vertices degree 2)."""
    color = {0: 1, 1: -1, 2: 1, 3: -1}
    edges = {
        0: Edge(minus=1, plus=0),
        1: Edge(minus=1, plus=2),
        2: Edge(minus=3, plus=2),
        3: Edge(minus=3, plus=0),
    }
    faces = {
        0: ((0, False), (1, True), (2, False), (3, True)),
        1: ((3, False), (2, True), (1, False), (0, True)),
    }
    return SurfaceGraph("sphere", color, edges, faces)


def adjacency(g: SurfaceGraph):
    adj = {v: set() for v in g.vertex_color}
    for e in g.edges.values():
        adj[e.minus].add(e.plus)
        adj[e.plus].add(e.minus)
    return adj


def infer_vertex_map(g1: SurfaceGraph, g2: SurfaceGraph):
    """Extend the identity on shared vertex ids to the re-created ones.

    New vertices are matched by colour plus their already-matched
    neighbour sets; raises if the correspondence is ambiguous.
    """
    n1, n2 = adjacency(g1), adjacency(g2)
    vm = {v: v for v in set(g1.vertex_color) & set(g2.vertex_color)}
    rest1 = [v for v in sorted(g1.vertex_color) if v not in vm]
    rest2 = set(g2.vertex_color) - set(vm.values())
    for _ in range(len(rest1) + 1):
        changed = False
        for v in list(rest1):
            known = frozenset(vm[x] for x in n1[v] if x in vm)
            if not known:
                continue
            cands = [w for w in sorted(rest2)
                     if g2.vertex_color[w] == g1.vertex_color[v]
                     and known <= frozenset(n2[w])]
            if len(cands) == 1:
                vm[v] = cands[0]
                rest1.remove(v)
                rest2.discard(cands[0])
                changed = True
        if not changed:
            break
    assert not rest1, "could not infer a vertex correspondence"
    return vm


def canonical_graph_form(g: SurfaceGraph, vmap=None):
    """Isomorphism certificate under a vertex relabelling.

    Edge ids are erased: edges become (minus, plus, offset) triples and
    face walks become rotation-minimal (vertex, step offset) cycles, so
    parallel edges compare by their walk context.
    """
    vm = vmap or {}
    ren = lambda v: vm.get(v, v)
    verts = sorted((ren(v), c) for v, c in g.vertex_color.items())
    edges = sorted((ren(e.minus), ren(e.plus), e.offset) for e in g.edges.values())
    faces = []
    for fid in sorted(g.faces):
        seq = [(ren(g.step_start(s)), g.step_offset(s)) for s in g.faces[fid]]
        rots = [tuple(seq[i:] + seq[:i]) for i in range(len(seq))]
        faces.append((fid, min(rots)))
    return (g.surface, verts, edges, tuple(faces), tuple(sorted(g.boundary_faces)))


def assert_graphs_equivalent(g1: SurfaceGraph, g2: SurfaceGraph):
    vm = infer_vertex_map(g1, g2)
    assert canonical_graph_form(g1, vm) == canonical_graph_form(g2)


def rectangular_torus_pattern(dx, dy):
    """Grid circle pattern on the torus with rectangular faces.

    dx, dy are positive column widths and row heights; vertex (i, j)
    sits at X[j] + 1j*Y[i] and every face circle is the circumcircle of
    one rectangle.  Uniform spacings give the isoradial square pattern.
    """
    from miqueldyn.circle_pattern import CirclePattern
    from miqueldyn.surface_graph import build_square_grid_torus

    cols, rows = len(dx), len(dy)
    g = build_square_grid_torus(rows, cols)
    X = [0.0]
    for d in dx:
        X.append(X[-1] + d)
    Y = [0.0]
    for d in dy:
        Y.append(Y[-1] + d)
    verts = {i * cols + j: complex(X[j], Y[i])
             for i in range(rows) for j in range(cols)}
    centers = {i * cols + j: complex((X[j] + X[j + 1]) / 2, (Y[i] + Y[i + 1]) / 2)
               for i in range(rows) for j in range(cols)}
    periods = (complex(X[cols], 0.0), complex(0.0, Y[rows]))
    return CirclePattern(g, verts, centers, periods)


def corner_off_circles_pattern(face=5, shift=1e-3):
    """The seed-7 4x4 Kasteleyn pattern with the first corner of face
    moved by shift, off the circles that meet there."""
    from miqueldyn.circle_pattern import CirclePattern
    from miqueldyn.lattice import generate_kasteleyn_cauchy_data

    p = generate_kasteleyn_cauchy_data(4, 4, seed=7, spread=0.5)
    v = p.graph.step_end(p.graph.faces[face][0])
    verts = dict(p.vertex_points)
    verts[v] += shift
    return CirclePattern(p.graph, verts, p.center_points, p.periods)
