"""Building grid-torus states: the array checks of make_torus_state
against validate_pattern, and the memos they keep on frozen graphs."""

import random

import numpy as np
import pytest

from conftest import rectangular_torus_pattern
from miqueldyn.circle_pattern import CirclePattern, _omega, miquel_move, validate_pattern
from miqueldyn.errors import MiquelDynError, NotAGridTorus
from miqueldyn.geometry import INFINITY
from miqueldyn.jsonio import pattern_from_json, pattern_to_json
from miqueldyn.lattice import (
    _quad_index,
    _valid_centres,
    generate_kasteleyn_cauchy_data,
    make_torus_state,
    miquel_dynamics_step,
)
from miqueldyn.surface_graph import (
    build_square_grid_torus,
    mutate_at_face,
    slot_alignment,
    validate_surface_graph,
)

SHAPES = [(r, c) for r in (2, 4, 6) for c in (2, 4, 6)]


def _copy(p):
    return CirclePattern(p.graph, dict(p.vertex_points), dict(p.center_points),
                         p.periods)


def relabelled(p, rng):
    """p through a JSON round trip with its vertex and edge ids permuted
    onto sparse ids and every list of the graph shuffled."""
    blob = pattern_to_json(p)
    g = blob["graph"]
    vids = [v["id"] for v in g["vertices"]]
    eids = [e["id"] for e in g["edges"]]
    vnew = dict(zip(vids, rng.sample(range(5, 5 + 3 * len(vids), 3), len(vids))))
    enew = dict(zip(eids, rng.sample(range(2, 2 + 7 * len(eids), 7), len(eids))))
    for v in g["vertices"]:
        v["id"] = vnew[v["id"]]
    for e in g["edges"]:
        e["id"], e["minus"], e["plus"] = enew[e["id"]], vnew[e["minus"]], vnew[e["plus"]]
    for f in g["faces"]:
        f["edge_cycle"] = [[enew[eid], d] for eid, d in f["edge_cycle"]]
    for key in ("vertices", "edges", "faces"):
        rng.shuffle(g[key])
    blob["vertices"] = {str(vnew[int(v)]): z for v, z in blob["vertices"].items()}
    return pattern_from_json(blob)


def move_corner(p, rng, factor):
    """A corner of a random face moved off its circle by factor * 1e-9
    times that face's radius."""
    g = p.graph
    f = rng.choice(sorted(g.faces))
    k = rng.randrange(4)
    z = p.lifted_face_vertices(f)[k]
    c = p.center_points[f]
    q = _copy(p)
    v = g.step_start(g.faces[f][k])
    q.vertex_points[v] += factor * 1e-9 * (z - c)
    return q


def join_edge_ends(p, rng):
    g = p.graph
    e = g.edges[rng.choice(sorted(g.edges))]
    q = _copy(p)
    q.vertex_points[e.plus] = p.vertex_points[e.minus] - _omega(p.periods, e.offset)
    return q


def join_centres(p, rng):
    """The centres on the two sides of a random edge made to coincide."""
    g = p.graph
    eid = rng.choice(sorted(g.edges))
    left, k = g.step_index()[(eid, True)]
    right = g.edge_sides()[eid][False]
    q = _copy(p)
    q.center_points[right] = (p.center_points[left]
                              - _omega(p.periods, slot_alignment(g, left, k)))
    return q


def vertex_at_infinity(p, rng):
    q = _copy(p)
    q.vertex_points[rng.choice(sorted(q.vertex_points))] = INFINITY
    return q


def centre_at_infinity(p, rng):
    q = _copy(p)
    q.center_points[rng.choice(sorted(q.center_points))] = INFINITY
    return q


def drop_vertex(p, rng):
    q = _copy(p)
    del q.vertex_points[rng.choice(sorted(q.vertex_points))]
    return q


def drop_centre(p, rng):
    q = _copy(p)
    del q.center_points[rng.choice(sorted(q.center_points))]
    return q


PERTURBATIONS = [
    lambda p, rng: p,
    lambda p, rng: move_corner(p, rng, 0.5),
    lambda p, rng: move_corner(p, rng, 2.0),
    join_edge_ends,
    join_centres,
    vertex_at_infinity,
    centre_at_infinity,
    drop_vertex,
    drop_centre,
]


def test_array_checks_accept_exactly_the_valid_patterns():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    outcomes = set()

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.sampled_from(SHAPES), st.integers(0, 3),
                      st.sampled_from(range(len(PERTURBATIONS))), st.booleans(),
                      st.integers(0, 2 ** 32))
    def check(shape, seed, which, relabel, choice):
        rows, cols = shape
        rng = random.Random(choice)
        p = generate_kasteleyn_cauchy_data(rows, cols, seed, 0.5)
        q = relabelled(p, rng) if relabel else p
        q = PERTURBATIONS[which](q, rng)
        problems = validate_pattern(q)
        accepted = _valid_centres(q) is not None
        assert accepted == (problems == [])
        outcomes.add((which, accepted))
        if problems:
            with pytest.raises(MiquelDynError) as info:
                make_torus_state(q, rows, cols)
            assert str(info.value) == "invalid pattern: " + "; ".join(problems)
            return
        s = make_torus_state(q, rows, cols)
        if which == 0:
            t = make_torus_state(p, rows, cols)
            assert np.array_equal(s.centers, t.centers)
            assert s.anchor == t.anchor

    check()
    # both sides of the corner tolerance, and the unperturbed patterns
    assert {(0, True), (1, True), (2, False)} <= outcomes
    assert not any(accepted for which, accepted in outcomes if which > 2)


def translated(p, b):
    return CirclePattern(p.graph, {v: z + b for v, z in p.vertex_points.items()},
                         {f: z + b for f, z in p.center_points.items()}, p.periods)


@pytest.mark.parametrize("dx, dy, flagged", [
    # every edge and every centre pair 1 apart: both coincide
    ([1.0] * 4, [1.0] * 4, {"joins coincident vertex positions",
                            "separates coincident centres"}),
    # vertical edges 1 long, centres at least 2.5 apart: only the edges
    ([4.0] * 4, [1.0, 4.0] * 2, {"joins coincident vertex positions"}),
])
def test_coincidences_are_found_on_concyclic_faces(dx, dy, flagged):
    # dyadic coordinates 2**30 out keep every face exactly concyclic,
    # while the 1e-9 relative coincidence tolerance exceeds 1
    p = translated(rectangular_torus_pattern(dx, dy), 2 ** 30 * (1 + 1j))
    problems = validate_pattern(p)
    assert {text.split(" ", 2)[2] for text in problems} == flagged
    assert _valid_centres(p) is None
    with pytest.raises(MiquelDynError) as info:
        make_torus_state(p, 4, 4)
    assert str(info.value) == "invalid pattern: " + "; ".join(problems)
    near = translated(rectangular_torus_pattern(dx, dy), 2 ** 20 * (1 + 1j))
    assert validate_pattern(near) == []
    assert _valid_centres(near) is not None


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 4), (4, 2), (4, 6)])
def test_quad_index_matches_the_graph_lookups(rows, cols):
    p = generate_kasteleyn_cauchy_data(rows, cols, 1, 0.5)
    graphs = [p.graph, relabelled(p, random.Random(rows * cols)).graph,
              miquel_move(p, 1).graph]
    for g in graphs:
        assert validate_surface_graph(g) == []
        q = _quad_index(g)
        if any(len(walk) != 4 for walk in g.faces.values()):
            assert q is None
            continue
        assert q.face_ids == sorted(g.faces)
        sides = g.edge_sides()
        for f, fid in enumerate(q.face_ids):
            walk = g.faces[fid]
            assert [q.vertex_ids[v] for v in q.corners[f]] == g.face_vertices(fid)
            assert list(map(tuple, q.shifts[f].tolist())) == g.face_shifts(fid)[:4]
            assert [q.face_ids[n] for n in q.nbrs[f]] == [sides[e][not fwd]
                                                         for e, fwd in walk]
            assert list(map(tuple, q.align[f].tolist())) == [
                slot_alignment(g, fid, k) for k in range(4)]
    assert _quad_index(graphs[2]) is None  # the moved face's neighbours are hexagons


def test_validate_surface_graph_returns_a_fresh_list():
    g = build_square_grid_torus(4, 4)
    first = validate_surface_graph(g)
    first.append("edited by the caller")
    assert validate_surface_graph(g) == []
    broken = type(g)("torus", dict(g.vertex_color), dict(g.edges),
                     {f: w for f, w in g.faces.items() if f != 3})
    problems = validate_surface_graph(broken)
    assert problems
    problems.clear()
    assert validate_surface_graph(broken) != []
    # the memo is per minimum degree
    assert validate_surface_graph(g, min_vertex_degree=5) != []
    assert validate_surface_graph(g) == []


def test_invalid_pattern_leaves_the_shared_graph_valid():
    good = generate_kasteleyn_cauchy_data(4, 4, 1, 0.5)
    bad = move_corner(generate_kasteleyn_cauchy_data(4, 4, 0, 0.5), random.Random(0), 1e3)
    assert bad.graph is good.graph
    problems = validate_pattern(bad)
    assert problems
    with pytest.raises(MiquelDynError, match="invalid pattern"):
        make_torus_state(bad, 4, 4)
    assert validate_pattern(bad) == problems
    assert validate_surface_graph(good.graph) == []
    assert validate_pattern(good) == []
    assert make_torus_state(good, 4, 4).centers.shape == (4, 4)


def test_mutated_graph_starts_with_fresh_memos():
    p = generate_kasteleyn_cauchy_data(4, 4, 2, 0.5)
    make_torus_state(p, 4, 4)
    memos = {"quad_index", ("grid_frames", 4, 4), ("validate_surface_graph", 3)}
    assert memos <= set(p.graph._maps)
    g2, _ = mutate_at_face(p.graph, 5)
    assert not memos & set(g2._maps)
    assert validate_surface_graph(g2) == []
    moved = miquel_move(p, 5)
    assert validate_pattern(moved) == []
    assert _valid_centres(moved) is None  # not all quads any more
    with pytest.raises(NotAGridTorus):
        make_torus_state(moved, 4, 4)
    # a whole parity sweep gives a grid again, with new ids and new memos
    s = miquel_dynamics_step(make_torus_state(p, 4, 4))
    q = p
    for f in (0, 2, 5, 7, 8, 10, 13, 15):
        q = miquel_move(q, f)
    t = make_torus_state(q, 4, 4, step_parity=1)
    assert _valid_centres(q) is not None
    assert np.max(np.abs(t.centers - t.centers[0, 0] - s.centers + s.centers[0, 0])) < 1e-9


def test_patterns_of_one_shape_share_one_graph():
    a = generate_kasteleyn_cauchy_data(4, 6, 0, 0.5)
    b = generate_kasteleyn_cauchy_data(4, 6, 1, 0.2)
    assert a.graph is b.graph
    assert generate_kasteleyn_cauchy_data(6, 4, 0, 0.5).graph is not a.graph
    assert a.graph == build_square_grid_torus(4, 6)
