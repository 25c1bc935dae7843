import numpy as np
import pytest

from conftest import (
    assert_graphs_equivalent,
    build_cube,
    corner_off_circles_pattern,
    infer_vertex_map,
    rectangular_torus_pattern,
)
from miqueldyn.circle_pattern import (
    CirclePattern,
    FaceDrawing,
    clifford_point_geometric,
    miquel_move,
    miquel_move_full,
    mobius_mutation_move,
    pattern_star_ratios,
    propagate_from_centers,
    validate_pattern,
    _omega,
)
from miqueldyn.errors import (
    CollinearCenters,
    ConcyclicDegenerate,
    InvalidFace,
    MonodromyFailure,
    NonRealStarRatios,
    NotAValidQuad,
    NumericalTangencyAmbiguity,
)
from miqueldyn.geometry import INFINITY, apply_mobius, mobius_mutation, star_ratio
from miqueldyn.surface_graph import build_square_grid_patch


def _seeded_pattern(rng, rows=4, cols=4, spread=0.4):
    dx = [1 + spread * (rng.random() - 0.5) for _ in range(cols)]
    dy = [1 + spread * (rng.random() - 0.5) for _ in range(rows)]
    return rectangular_torus_pattern(dx, dy)


def test_rectangular_pattern_validates():
    assert validate_pattern(rectangular_torus_pattern([1, 1], [1, 1])) == []
    assert validate_pattern(rectangular_torus_pattern([1, 2], [1, 3])) == []
    bad = rectangular_torus_pattern([1, 2], [1, 3])
    bad.vertex_points[0] += 0.05
    msgs = validate_pattern(bad)
    assert msgs and any("concyclic" in m for m in msgs)


def test_star_ratio_field_frozen_values():
    # unit grid: every star-ratio is exactly 1
    fld = pattern_star_ratios(rectangular_torus_pattern([1] * 4, [1] * 4).centers_drawing())
    for f in range(16):
        assert fld.values[f] == pytest.approx(1.0, abs=1e-12)
    assert fld.all_positive()

    # stretching x by 2 sends one face class to 1/4 and the other to 4
    fld = pattern_star_ratios(rectangular_torus_pattern([2] * 4, [1] * 4).centers_drawing())
    for i in range(4):
        for j in range(4):
            want = 0.25 if (i + j) % 2 == 0 else 4.0
            assert fld.values[i * 4 + j] == pytest.approx(want, abs=1e-12)

    # spacings (1,2) x (1,3) give 16/9 on even faces and 9/16 on odd ones
    fld = pattern_star_ratios(rectangular_torus_pattern([1, 2], [1, 3]).centers_drawing())
    assert fld.values[0] == pytest.approx(16 / 9, abs=1e-12)
    assert fld.values[1] == pytest.approx(9 / 16, abs=1e-12)
    assert fld.values[2] == pytest.approx(9 / 16, abs=1e-12)
    assert fld.values[3] == pytest.approx(16 / 9, abs=1e-12)
    assert fld.all_real() and fld.all_positive()


def test_star_ratios_of_embedded_patterns_are_positive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _seeded_pattern(rng)
        fld = pattern_star_ratios(p.centers_drawing())
        assert fld.all_positive()
        prod = 1 + 0j
        for v in fld.values.values():
            prod *= v
        assert prod == pytest.approx(1.0, abs=1e-9)


def test_propagation_recovers_vertices():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = _seeded_pattern(rng)
        q = propagate_from_centers(p.centers_drawing(), 0, p.vertex_points[0])
        for v, z in p.vertex_points.items():
            assert q.vertex_points[v] == pytest.approx(z, abs=1e-9)


def test_propagation_random_seed_still_closes():
    # the reflection system fixes the centres, not the radii
    p = rectangular_torus_pattern([1, 2], [1, 3])
    q = propagate_from_centers(p.centers_drawing(), 0, 0.37 + 0.21j)
    assert validate_pattern(q) == []
    assert q.vertex_points[0] != p.vertex_points[0]


def test_propagation_rejects_non_real_ratios():
    p = rectangular_torus_pattern([1, 1], [1, 1])
    d = p.centers_drawing()
    d.values[0] += 0.2 + 0.3j
    assert not pattern_star_ratios(d).all_real()
    with pytest.raises(NonRealStarRatios):
        propagate_from_centers(d, 0, 0.3 + 0.4j)


def test_propagation_monodromy_failure():
    """A real horizontal shift of one centre keeps every star-ratio real
    on the uniform 2x2 torus but admits no circle pattern."""
    p = rectangular_torus_pattern([1, 1], [1, 1])
    d = p.centers_drawing()
    d.values[0] += 0.3
    assert pattern_star_ratios(d).all_real()
    with pytest.raises(MonodromyFailure):
        propagate_from_centers(d, 0, 0.3 + 0.4j)

    # stretching one period leaves the ratios real and also fails to close
    d2 = p.centers_drawing()
    d2.periods = (d2.periods[0] * 1.1, d2.periods[1])
    assert pattern_star_ratios(d2).all_real()
    with pytest.raises(MonodromyFailure):
        propagate_from_centers(d2, 0, 0.3 + 0.4j)


def test_miquel_move_matches_mobius_map():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = _seeded_pattern(rng)
        for f in (0, 5, 15):
            cd = p.centers_drawing()
            nv = [cd.slot_value(f, k) for k in range(4)]
            want = apply_mobius(mobius_mutation(*nv), cd.values[f])
            q, rec = miquel_move_full(p, f)
            got = q.center_points[f] + _omega(q.periods, rec.anchor_shift[f])
            assert got == pytest.approx(want, abs=1e-8)


def test_miquel_move_error_names_face_residual_tolerance_scale():
    with pytest.raises(NumericalTangencyAmbiguity) as info:
        miquel_move(corner_off_circles_pattern(face=5), 5)
    err = info.value
    assert str(err) == "face 5: corner 0 is not an intersection of its circles"
    assert err.face == 5 and err.tolerance == 1e-6 and err.scale >= 1.0
    assert err.residual > err.tolerance * err.scale
    assert err.residual == pytest.approx(1e-3, rel=0.5)


def test_miquel_move_wrap_face_small_torus():
    p = rectangular_torus_pattern([1, 2], [1, 3])
    cd = p.centers_drawing()
    nv = [cd.slot_value(3, k) for k in range(4)]
    want = apply_mobius(mobius_mutation(*nv), cd.values[3])
    q, rec = miquel_move_full(p, 3)
    got = q.center_points[3] + _omega(q.periods, rec.anchor_shift[3])
    assert got == pytest.approx(want, abs=1e-8)


def test_miquel_isoradial_fixed_point():
    # tangent neighbour circles keep both the corners and the circle
    p = rectangular_torus_pattern([1] * 4, [1] * 4)
    q, rec = miquel_move_full(p, 5)
    assert sorted(rec.inserted) == [0, 1, 2, 3]
    for f in p.center_points:
        assert q.center_points[f] == pytest.approx(p.center_points[f], abs=1e-9)
    old = [p.vertex_points[p.graph.step_end(s)] for s in p.graph.faces[5]]
    new = [q.vertex_points[rec.new_corners[k]] for k in range(4)]
    for a, b in zip(old, new):
        assert b == pytest.approx(a, abs=1e-12)


def test_miquel_move_is_an_involution():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = _seeded_pattern(rng)
        q, rec1 = miquel_move_full(p, 5)
        assert sorted(rec1.inserted) == [0, 1, 2, 3]
        r, rec2 = miquel_move_full(q, 5)
        assert sorted(rec2.deleted) == [0, 1, 2, 3]
        assert_graphs_equivalent(p.graph, r.graph)
        vm = infer_vertex_map(p.graph, r.graph)
        for v, z in p.vertex_points.items():
            assert r.vertex_points[vm.get(v, v)] == pytest.approx(z, abs=1e-9)
        for f, c in p.center_points.items():
            assert r.center_points[f] == pytest.approx(c, abs=1e-9)


def test_miquel_new_center_ignores_radii():
    """Same centre drawing, different vertex seeds: the moved centre
    depends on the centres alone."""
    p = _seeded_pattern(np.random.default_rng(9))
    d = p.centers_drawing()
    seeds = [0.3 + 0.4j, -0.2 + 0.9j, 1.1 + 0.05j]
    results = []
    for s in seeds:
        pat = propagate_from_centers(d, 0, s)
        q, rec = miquel_move_full(pat, 5)
        results.append(q.center_points[5] + _omega(q.periods, rec.anchor_shift[5]))
    for z in results[1:]:
        assert z == pytest.approx(results[0], abs=1e-8)


def test_collinear_centers_rejected():
    # centre validity is checked before any circle is intersected
    p = rectangular_torus_pattern([1, 1], [1, 1])
    q = CirclePattern(p.graph, dict(p.vertex_points),
                      {0: 0.5 + 0j, 1: 1.5 + 0j, 2: 2.5 + 0j, 3: 3.5 + 0j},
                      (4.0 + 0j, 12.0 + 0j))
    with pytest.raises(CollinearCenters):
        miquel_move(q, 0)


def test_coincident_neighbour_centers_rejected():
    p = rectangular_torus_pattern([1, 1], [1, 1])
    centers = dict(p.center_points)
    centers[2] = 0.5 + 1.5j
    centers[1] = centers[2] - 2j  # equals the lifted below-neighbour at slot 0
    q = CirclePattern(p.graph, dict(p.vertex_points), centers, p.periods)
    with pytest.raises(InvalidFace):
        miquel_move(q, 0)


def test_boundary_faces_cannot_move():
    g = build_square_grid_patch(2, 2)
    verts = {v: 0j for v in g.vertex_color}
    centers = {f: 0j for f in g.faces if f not in g.boundary_faces}
    p = CirclePattern(g, verts, centers, None)
    with pytest.raises(NotAValidQuad):
        miquel_move(p, 0)


def test_line_face_patch_validates():
    """A strip whose middle face has collinear vertices carries the
    point at infinity as that face's centre."""
    g = build_square_grid_patch(1, 3)
    verts = {
        0: 0 - 2j, 1: 1 + 0j, 2: 2 + 0j, 3: 5 + 2j,
        4: 2.5 + 0.5j, 5: 4 + 0j, 6: 5 + 0j, 7: 2 + 2j,
    }
    centers = {0: 2.5 - 2j, 1: INFINITY, 2: 3.5 + 1j}
    p = CirclePattern(g, verts, centers, None)
    assert validate_pattern(p) == []
    assert p.face_circle(1).is_line()
    assert not p.face_circle(0).is_line()
    # every interior face of the strip touches the outer face
    fld = pattern_star_ratios(p.centers_drawing())
    assert fld.values == {}
    assert fld.skipped == frozenset(g.faces)


def test_mobius_mutation_move_involution():
    rng = np.random.default_rng(17)
    p = _seeded_pattern(rng)
    d = p.centers_drawing()
    d1 = mobius_mutation_move(d, 5)
    assert d1.values[5] != pytest.approx(d.values[5], abs=1e-6)
    d2 = mobius_mutation_move(d1, 5)
    assert_graphs_equivalent(d.graph, d2.graph)
    for f, v in d.values.items():
        assert d2.values[f] == pytest.approx(v, abs=1e-9)


def test_star_ratio_inverts_at_mutated_face():
    """The four corner colours flip under mutation, so the recomputed
    field value at f is the reciprocal; with the slot roles held fixed
    the star-ratio itself is preserved."""
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = _seeded_pattern(rng)
        d = p.centers_drawing()
        before = pattern_star_ratios(d).values[5]
        nv = [d.slot_value(5, k) for k in range(4)]
        d1 = mobius_mutation_move(d, 5)
        after = pattern_star_ratios(d1).values[5]
        assert after == pytest.approx(1 / before, abs=1e-10)
        same_roles = star_ratio(d1.values[5], *nv)
        assert same_roles == pytest.approx(star_ratio(d.values[5], *nv), abs=1e-10)


def test_clifford_point_matches_mobius_map():
    rng = np.random.default_rng(33)
    for _ in range(5):
        p = _seeded_pattern(rng)
        d = p.centers_drawing()
        nv = [d.slot_value(5, k) for k in range(4)]
        want = apply_mobius(mobius_mutation(*nv), d.values[5])
        got = clifford_point_geometric(d, 5)
        assert got == pytest.approx(want, abs=1e-8)


def test_clifford_point_fourfold_configuration():
    # four unit circles through 0 centred at the fourth roots of unity:
    # the mutation map degenerates to z -> -z
    g = build_cube()
    slots = [g.edge_sides()[eid][not fwd] for (eid, fwd) in g.faces[0]]
    values = {f: 10.0 + 1j * f for f in g.faces}  # unused filler
    base = 0j
    corners = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
    values[0] = base
    for k, f in enumerate(slots):
        values[f] = corners[k]
    d = FaceDrawing(g, values, None)
    got = clifford_point_geometric(d, 0)
    assert got == pytest.approx(-base, abs=1e-10)


def test_clifford_point_concyclic_rejected():
    g = build_cube()
    slots = [g.edge_sides()[eid][not fwd] for (eid, fwd) in g.faces[0]]
    values = {f: 10.0 + 1j * f for f in g.faces}
    values[0] = 1 + 0j
    for k, f in enumerate(slots):
        values[f] = [1j, -1 + 0j, -1j, (3 + 4j) / 5][k]
    with pytest.raises(ConcyclicDegenerate):
        clifford_point_geometric(FaceDrawing(g, values, None), 0)
