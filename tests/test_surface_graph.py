import copy
import dataclasses

import pytest

from conftest import (
    assert_graphs_equivalent,
    build_cube,
    build_quad_sphere,
)
from miqueldyn.circle_pattern import miquel_move
from miqueldyn.errors import NotAValidQuad, OddDimensions
from miqueldyn.lattice import generate_kasteleyn_cauchy_data
from miqueldyn.surface_graph import (
    Edge,
    SurfaceGraph,
    build_square_grid_patch,
    build_square_grid_torus,
    edge_neighbourhood,
    grid_face_parity,
    mutate_at_face,
    slot_alignment,
    validate_surface_graph,
)


def test_torus_builder_counts():
    g = build_square_grid_torus(2, 2)
    assert len(g.vertex_color) == 4 and len(g.edges) == 8 and len(g.faces) == 4
    assert validate_surface_graph(g) == []
    g = build_square_grid_torus(4, 4)
    assert len(g.vertex_color) == 16 and len(g.edges) == 32 and len(g.faces) == 16
    assert validate_surface_graph(g) == []
    for bad in ((3, 4), (4, 3), (1, 2), (0, 0)):
        with pytest.raises(OddDimensions):
            build_square_grid_torus(*bad)


def test_patch_builder():
    g = build_square_grid_patch(2, 3)
    # 3x4 vertices, 3*3 + 2*4 edges, 6 interior faces plus the outer one
    assert len(g.vertex_color) == 12 and len(g.edges) == 17 and len(g.faces) == 7
    assert g.boundary_faces == frozenset([6])
    assert validate_surface_graph(g) == []


def test_cube_fixture_is_valid():
    g = build_cube()
    assert validate_surface_graph(g) == []
    assert all(g.face_degree(f) == 4 for f in g.faces)


def test_quad_sphere_validation_degrees():
    g = build_quad_sphere()
    diags = validate_surface_graph(g)
    assert diags and all("degree 2 < 3" in d for d in diags)
    assert validate_surface_graph(g, min_vertex_degree=2) == []


def test_validation_catches_orientation_and_bipartiteness():
    # a triangle doubled onto the sphere cannot be properly coloured
    color = {0: 1, 1: -1, 2: 1}
    edges = {
        0: Edge(minus=1, plus=0),
        1: Edge(minus=1, plus=2),
        2: Edge(minus=2, plus=0),  # joins two +1 vertices
    }
    faces = {
        0: ((0, False), (1, True), (2, False)),
        1: ((2, True), (1, False), (0, True)),
    }
    g = SurfaceGraph("sphere", color, edges, faces)
    diags = validate_surface_graph(g)
    assert any("not directed from colour -1" in d for d in diags)


def test_validation_catches_euler_mismatch():
    g = build_square_grid_torus(2, 2)
    g = dataclasses.replace(
        g, surface="sphere",
        edges={e: Edge(ed.minus, ed.plus) for e, ed in g.edges.items()})
    diags = validate_surface_graph(g)
    assert any("Euler characteristic" in d for d in diags)


def test_grid_face_parity():
    par = grid_face_parity(4, 4)
    assert par[0] == 0 and par[1] == 1 and par[4] == 1 and par[5] == 0
    assert sorted(par.values()).count(0) == 8


def test_edge_neighbourhood_is_own_boundary_on_grid():
    g = build_square_grid_torus(4, 4)
    f = 5
    own = sorted(e for (e, _) in g.faces[f])
    assert edge_neighbourhood(g, f) == own
    g2 = build_square_grid_torus(2, 2)
    assert edge_neighbourhood(g2, 0) == sorted(e for (e, _) in g2.faces[0])


def test_edge_neighbourhood_invalid_cases():
    g = build_quad_sphere()
    with pytest.raises(NotAValidQuad):
        edge_neighbourhood(g, 0)  # consecutive neighbour slots coincide
    cube = build_cube()
    with pytest.raises(NotAValidQuad):
        edge_neighbourhood(cube, 99)
    patch = build_square_grid_patch(4, 4)
    with pytest.raises(NotAValidQuad):
        edge_neighbourhood(patch, 0)  # touches the outer face
    assert edge_neighbourhood(patch, 5) == sorted(e for (e, _) in patch.faces[5])


def test_mutation_insert_case_counts_and_validity():
    g = build_square_grid_torus(4, 4)
    g2, rec = mutate_at_face(g, 5)
    assert validate_surface_graph(g2) == []
    assert set(g2.faces) == set(g.faces)
    assert len(g2.vertex_color) == len(g.vertex_color) + 4
    assert len(g2.edges) == len(g.edges) + 4
    assert len(rec.inserted) == 4 and not rec.deleted
    assert g2.face_degree(5) == 4
    # the moved face's new sides border the same slots in order
    sides = g2.edge_sides()
    for k, (eid, fwd) in enumerate(g2.faces[5]):
        assert sides[eid][not fwd] == rec.slots[k]


def test_mutation_changes_exactly_the_neighbourhood_edges():
    g = build_square_grid_torus(4, 4)
    g2, _ = mutate_at_face(g, 5)
    before, after = set(g.edges), set(g2.edges)
    sym = before ^ after
    assert sym == set(edge_neighbourhood(g, 5)) | set(edge_neighbourhood(g2, 5))
    assert len(edge_neighbourhood(g2, 5)) == 8
    # untouched faces keep their walks verbatim
    touched = {5, *mutate_at_face(g, 5)[1].slots}
    for fid in g.faces:
        if fid not in touched:
            assert g.faces[fid] == g2.faces[fid]


def test_mutation_delete_case_on_cube():
    g = build_cube()
    g2, rec = mutate_at_face(g, 0)
    assert validate_surface_graph(g2) == []
    assert len(rec.deleted) == 4 and not rec.inserted
    assert len(g2.vertex_color) == 4 and len(g2.edges) == 8 and len(g2.faces) == 6
    degs = sorted(g2.face_degree(f) for f in g2.faces)
    assert degs == [2, 2, 2, 2, 4, 4]
    assert sorted(rec.new_corners) == [4, 5, 6, 7]


def test_mutation_involution_insert_then_delete():
    for builder in (lambda: build_square_grid_torus(4, 4),
                    lambda: build_square_grid_torus(2, 2),
                    lambda: build_square_grid_torus(2, 4)):
        g = builder()
        for f in list(g.faces):
            g1, _ = mutate_at_face(g, f)
            assert validate_surface_graph(g1) == []
            g2, _ = mutate_at_face(g1, f)
            assert validate_surface_graph(g2) == []
            assert_graphs_equivalent(g, g2)


def test_mutation_involution_delete_then_insert():
    g = build_cube()
    g1, _ = mutate_at_face(g, 0)
    g2, _ = mutate_at_face(g1, 0)
    assert validate_surface_graph(g2) == []
    assert_graphs_equivalent(g, g2)


def test_mutation_mixed_corner_cases():
    # mutating a face adjacent to an already mutated one exercises the
    # one-leg and two-leg corner pictures
    g = build_square_grid_torus(4, 4)
    g1, _ = mutate_at_face(g, 5)
    for f2 in (0, 2, 8):  # diagonal faces share exactly one corner with 5
        g2, rec = mutate_at_face(g1, f2)
        assert validate_surface_graph(g2) == []
        assert len(rec.deleted) == 1 and len(rec.inserted) == 3
        g3, rec3 = mutate_at_face(g2, f2)
        assert validate_surface_graph(g3) == []
        assert_graphs_equivalent(g1, g3)
    # face 10 shares one corner with 5 and one with 7: two legs at once
    g2, _ = mutate_at_face(g1, 7)
    g3, rec = mutate_at_face(g2, 10)
    assert validate_surface_graph(g3) == []
    assert len(rec.deleted) == 2 and len(rec.inserted) == 2


def test_mutation_on_patch_interior():
    g = build_square_grid_patch(4, 4)
    g2, _ = mutate_at_face(g, 5)
    assert validate_surface_graph(g2) == []
    with pytest.raises(NotAValidQuad):
        mutate_at_face(g, 0)


def test_mutation_rejects_invalid_quads():
    with pytest.raises(NotAValidQuad):
        mutate_at_face(build_quad_sphere(), 0)
    cube = build_cube()
    g1, _ = mutate_at_face(cube, 0)
    bigon = next(f for f in g1.faces if g1.face_degree(f) == 2)
    with pytest.raises(NotAValidQuad):
        mutate_at_face(g1, bigon)


def test_dual_orientation_has_face_on_the_left():
    # on the planar patch the forward-traversing face of every interior
    # edge lies to the left of the minus -> plus direction
    rows = cols = 4
    g = build_square_grid_patch(rows, cols)
    nv = cols + 1
    pos = {i * nv + j: complex(j, i) for i in range(rows + 1) for j in range(cols + 1)}

    def centroid(f):
        vs = g.face_vertices(f)
        return sum(pos[v] for v in vs) / len(vs)

    sides = g.edge_sides()
    for eid, e in g.edges.items():
        fl = sides[eid][True]
        if fl in g.boundary_faces:
            continue
        d = pos[e.plus] - pos[e.minus]
        cross = (d.conjugate() * (centroid(fl) - pos[e.minus])).imag
        assert cross > 0


def test_slot_alignment_matches_grid_geometry():
    rows = cols = 4
    g = build_square_grid_torus(rows, cols)
    periods = (complex(cols, 0), complex(0, rows))
    centers = {i * cols + j: complex(j + 0.5, i + 0.5)
               for i in range(rows) for j in range(cols)}
    direction = [-1j, 1 + 0j, 1j, -1 + 0j]  # neighbour offsets for slots 0..3
    sides = g.edge_sides()
    for f in g.faces:
        for k, (eid, fwd) in enumerate(g.faces[f]):
            n = sides[eid][not fwd]
            t = slot_alignment(g, f, k)
            lifted = centers[n] + t[0] * periods[0] + t[1] * periods[1]
            assert lifted == centers[f] + direction[k]


# -- incidence maps: built once, carried across mutation ---------------------

INCIDENCE_MAPS = {"edge_sides", "step_index", "vertex_edges",
                  "vertex_degrees", "face_shifts"}


def incidence(g):
    return (g.edge_sides(), g.step_index(), g.vertex_edges(),
            g.vertex_degrees(), {f: g.face_shifts(f) for f in g.faces})


def assert_carried_maps_match_rebuild(g):
    # every map was handed over by mutate_at_face, none built on demand
    assert set(g._maps) == INCIDENCE_MAPS
    assert incidence(g) == incidence(dataclasses.replace(g))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_carried_incidence_matches_rebuild_over_sweeps(seed):
    rows = cols = 8
    p = generate_kasteleyn_cauchy_data(rows, cols, seed=seed, spread=0.5)
    parity = grid_face_parity(rows, cols)
    for sweep in range(3):
        for f in sorted(fid for fid, par in parity.items() if par == sweep % 2):
            p = miquel_move(p, f)
            assert_carried_maps_match_rebuild(p.graph)
    assert validate_surface_graph(p.graph) == []


def test_carried_incidence_matches_rebuild_on_sphere_and_patch():
    cube = build_cube()
    for f in cube.faces:
        g1, _ = mutate_at_face(cube, f)  # delete case at all four corners
        assert_carried_maps_match_rebuild(g1)
        g2, _ = mutate_at_face(g1, f)  # and back: insert case
        assert_carried_maps_match_rebuild(g2)
    g = build_quad_sphere()
    with pytest.raises(NotAValidQuad):
        mutate_at_face(g, 0)
    assert incidence(g) == incidence(dataclasses.replace(g))
    patch = build_square_grid_patch(4, 4)
    for f in (5, 6, 9, 10):
        g1, _ = mutate_at_face(patch, f)
        assert_carried_maps_match_rebuild(g1)
    # one leg, then two legs deleted at once
    t1, _ = mutate_at_face(build_square_grid_torus(4, 4), 5)
    t2, _ = mutate_at_face(t1, 0)
    assert_carried_maps_match_rebuild(t2)
    t3, _ = mutate_at_face(mutate_at_face(t1, 7)[0], 10)
    assert_carried_maps_match_rebuild(t3)


def test_mutation_leaves_the_old_graph_maps_unchanged():
    for g, f in ((build_square_grid_torus(4, 4), 5), (build_cube(), 0),
                 (build_square_grid_patch(4, 4), 5)):
        before = copy.deepcopy(incidence(g))
        g2, _ = mutate_at_face(g, f)
        g3, _ = mutate_at_face(g2, f)
        assert incidence(g) == before
        assert incidence(g) == incidence(dataclasses.replace(g))
        assert incidence(g2) == incidence(dataclasses.replace(g2))


def test_surface_graph_is_immutable():
    g = build_square_grid_torus(2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.surface = "sphere"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.faces = {}
    g.edge_sides()
    # the memo is not part of the value
    fresh = dataclasses.replace(g)
    assert fresh == g and not fresh._maps and g._maps
    assert repr(fresh) == repr(g) and "_maps" not in repr(g)
