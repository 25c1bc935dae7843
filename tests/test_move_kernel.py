"""The graph Miquel move as one centre map plus four reflections.

miquel_move takes the new centre from the mutation map of the four
neighbour centres (geometry.mutate_about) and each new corner from a
reflection, with every check relative to the spread of the centres.
These tests hold it to Miquel's theorem (circle intersections), to the
homogeneous mutation map, and to similarities of the plane.
"""

import cmath
import math

import pytest

from miqueldyn.circle_pattern import (CirclePattern, _omega, miquel_move, miquel_move_full,
                                      mobius_mutation_move, validate_pattern)
from miqueldyn.dimer import urban_renewal_check, weights_from_pattern
from miqueldyn.errors import MiquelDynError, WeightMismatchOutsideN
from miqueldyn.geometry import (INFINITY, Circle, apply_mobius, circle_center_of,
                                circumcircle, intersect_circles, is_infinite,
                                mobius_mutation)
from miqueldyn.lattice import generate_kasteleyn_cauchy_data, make_torus_state
from miqueldyn.surface_graph import build_square_grid_patch, slot_alignment


def similar(p, a, t):
    """The pattern p under z -> a (z + t), its periods under z -> a z."""
    periods = None if p.periods is None else (a * p.periods[0], a * p.periods[1])
    return CirclePattern(p.graph,
                         {v: a * (z + t) for v, z in p.vertex_points.items()},
                         {f: z if is_infinite(z) else a * (z + t)
                          for f, z in p.center_points.items()},
                         periods)


def miquel_by_circles(p, f):
    """The move at f by Miquel's theorem, in f's frame: the far
    intersection of each pair of consecutive neighbour circles from the
    corner they share, and the circle through the first three."""
    g = p.graph
    sides = g.edge_sides()
    circles = []
    for k, (eid, fwd) in enumerate(g.faces[f]):
        circ = p.face_circle(sides[eid][not fwd])
        shift = _omega(p.periods, slot_alignment(g, f, k))
        circles.append(Circle.make_line(circ.p + shift, circ.q + shift) if circ.is_line()
                       else Circle.make_circle(circ.center + shift, circ.radius))
    shifts = g.face_shifts(f)
    corners = [p.vertex_points[g.step_end(s)] + _omega(p.periods, shifts[k + 1])
               for k, s in enumerate(g.faces[f])]
    far = [max(intersect_circles(circles[k], circles[(k + 1) % 4]),
               key=lambda z: abs(z - corners[k]))
           for k in range(4)]
    return far, circumcircle(*far[:3])


def moved(p, f):
    """New centre and new corners of the move at f, in f's old frame."""
    q, rec = miquel_move_full(p, f)
    centre = q.center_points[f]
    if not is_infinite(centre):
        centre += _omega(q.periods, rec.anchor_shift[f])
    corners = [q.vertex_points[rec.new_corners[k]] + _omega(q.periods, rec.corner_shift[k])
               for k in range(4)]
    return q, rec, centre, corners


def test_move_agrees_with_miquels_theorem():
    worst = 0.0
    for seed in range(4):
        p = generate_kasteleyn_cauchy_data(4, 4, seed=seed, spread=0.5)
        for f in range(16):
            _, rec, centre, corners = moved(p, f)
            far, circle = miquel_by_circles(p, f)
            assert sorted(rec.inserted) == [0, 1, 2, 3]
            worst = max([worst, abs(centre - circle.center) / circle.radius]
                        + [abs(corners[k] - far[k]) / circle.radius for k in range(4)])
    assert worst <= 1e-9


def test_thin_torus_moves_are_valid_and_renew():
    """On 10x2 seed 201 the circle-intersection move put new vertices
    on kept ones at faces 7 and 8, and the renewal check failed."""
    p = generate_kasteleyn_cauchy_data(10, 2, seed=201, spread=0.5)
    w = weights_from_pattern(p)
    for f in (7, 8):
        q = miquel_move(p, f)
        assert validate_pattern(q) == []
        rep = urban_renewal_check(p.graph, w, f, q.graph, weights_from_pattern(q), tol=1e-9)
        assert rep.ok and not rep.undefined, (f, rep)


def test_translated_and_scaled_moves_stay_valid():
    """4 seeds of 4x4 under the 9 maps z -> s (z + t): 576 moves."""
    for seed in range(4):
        p = generate_kasteleyn_cauchy_data(4, 4, seed=seed, spread=0.5)
        for t in (0, 1e5, 1e5 * (1 + 1j)):
            for s in (1, 1e-5, 1e5):
                q = similar(p, s, t)
                for f in range(16):
                    assert validate_pattern(miquel_move(q, f)) == [], (seed, t, s, f)


def test_clifford_move_commutes_with_translations():
    for seed in range(4):
        p = generate_kasteleyn_cauchy_data(4, 4, seed=seed, spread=0.5)
        d = p.centers_drawing()
        for t in (1e5, 1e5 * (1 + 1j), 1e6 * cmath.exp(2j)):
            e = similar(p, 1, t).centers_drawing()
            for f in range(16):
                got = mobius_mutation_move(e, f).values[f]
                want = mobius_mutation_move(d, f).values[f] + t
                assert abs(got - want) <= 1e-8, (seed, t, f)


def line_neighbour_patch(face):
    """A 3x3 patch of rectangles inverted in a point on the circle of
    face, which becomes a line (centre INFINITY)."""
    X, Y = (0.0, 1.0, 2.3, 3.1), (0.0, 0.9, 2.1, 3.2)
    g = build_square_grid_patch(3, 3)
    verts = {i * 4 + j: complex(X[j], Y[i]) for i in range(4) for j in range(4)}
    walk = [g.step_start(s) for s in g.faces[face]]
    c = circle_center_of(circumcircle(*(verts[v] for v in walk[:3])))
    pole = c + abs(verts[walk[0]] - c) * cmath.exp(-1.2j)
    verts = {v: 1 / (z - pole) for v, z in verts.items()}
    centers = {f: circle_center_of(circumcircle(*(verts[g.step_start(s)]
                                                  for s in g.faces[f][:3])))
               for f in range(9)}
    return CirclePattern(g, verts, centers, None)


@pytest.mark.parametrize("line_face", [1, 4])
def test_line_faces_move_by_miquels_theorem(line_face):
    """Face 1 is a neighbour of the moving face 4; then face 4 itself."""
    p = line_neighbour_patch(line_face)
    assert validate_pattern(p) == []
    assert is_infinite(p.center_points[line_face])
    q, rec, centre, corners = moved(p, 4)
    assert validate_pattern(q) == []
    far, circle = miquel_by_circles(p, 4)
    for k in range(4):
        assert abs(corners[k] - far[k]) <= 1e-12
    want = apply_mobius(mobius_mutation(*(p.centers_drawing().slot_value(4, k)
                                          for k in range(4))), p.center_points[4])
    assert abs(centre - want) <= 1e-12
    assert abs(centre - circle.center) <= 1e-12


def test_moves_commute_with_similarities():
    """z -> s e^(i theta) (z + t) with |t| <= 1e6 and |s| in [1e-5, 1e5]:
    both moves commute with it to 1e-8 face units, and for |t| <= 1e3 the
    renewal verdict and the ratio of the partition functions (in units
    of the weights) do not change."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, derandomize=True, deadline=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.sampled_from([(2, 2), (2, 4), (4, 2), (2, 6)]),
                      st.integers(0, 2 ** 16), st.integers(0, 11),
                      st.floats(-1.0, 6.0), st.floats(-5.0, 5.0),
                      st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
    def check(shape, seed, face, log_t, log_s, t_angle, theta):
        rows, cols = shape
        f = face % (rows * cols)
        a = 10.0 ** log_s * cmath.exp(1j * theta)
        t = cmath.rect(10.0 ** log_t, t_angle)
        m = lambda z: a * (z + t)
        p = generate_kasteleyn_cauchy_data(rows, cols, seed=seed, spread=0.5)
        q = similar(p, a, t)
        p2, q2 = miquel_move(p, f), miquel_move(q, f)
        for v, z in p2.vertex_points.items():
            assert abs(m(z) - q2.vertex_points[v]) <= 1e-8 * abs(a)
        for g, z in p2.center_points.items():
            assert abs(m(z) - q2.center_points[g]) <= 1e-8 * abs(a)
        d2 = mobius_mutation_move(p.centers_drawing(), f)
        e2 = mobius_mutation_move(q.centers_drawing(), f)
        for g, z in d2.values.items():
            assert abs(m(z) - e2.values[g]) <= 1e-8 * abs(a)
        if abs(t) > 1e3:  # see test_renewal_check_far_from_the_origin
            return
        reps = [urban_renewal_check(x.graph, weights_from_pattern(x), f,
                                    y.graph, weights_from_pattern(y), tol=1e-9)
                for x, y in ((p, p2), (q, q2))]
        assert reps[0].ok == reps[1].ok and reps[0].undefined == reps[1].undefined
        # weights are lengths, and a matching after the move has one edge
        # more per two inserted vertices
        extra = (len(p2.graph.vertex_color) - len(p.graph.vertex_color)) // 2
        ratios = [r.z_after / r.z_before for r in reps]
        assert ratios[1] == pytest.approx(ratios[0] * abs(a) ** extra, rel=1e-7)

    check()


@pytest.mark.xfail(raises=WeightMismatchOutsideN, strict=True,
                   reason="the renewal check compares the weights outside the move "
                          "to 1e-12 of their size, below the rounding of moving "
                          "centres between frames at coordinates near 1e6")
def test_renewal_check_far_from_the_origin():
    p = generate_kasteleyn_cauchy_data(2, 2, seed=0, spread=0.5)
    q = similar(p, cmath.exp(5j), cmath.rect(1e6, 1.0))
    q2 = miquel_move(q, 0)
    rep = urban_renewal_check(q.graph, weights_from_pattern(q), 0,
                              q2.graph, weights_from_pattern(q2), tol=1e-9)
    assert rep.ok


def test_non_finite_centre_is_an_invalid_pattern():
    p = generate_kasteleyn_cauchy_data(4, 4, seed=7, spread=0.5)
    p.center_points[5] = complex(math.nan, 0.0)
    assert validate_pattern(p) == ["face 5 has a non-finite centre"]
    with pytest.raises(MiquelDynError, match="^invalid pattern: face 5 has a non-finite centre$"):
        make_torus_state(p, 4, 4)
    p.center_points[5] = INFINITY
    p.vertex_points[3] = complex(0.0, math.inf)
    assert "vertex 3 has a non-finite position" in validate_pattern(p)
