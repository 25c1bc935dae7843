"""Octahedral propagation, dynamics steps, and the Cauchy-data generator."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from miqueldyn.circle_pattern import (
    CirclePattern,
    miquel_move,
    pattern_star_ratios,
    validate_pattern,
)
from miqueldyn.errors import (
    ConsecutiveCoincidence,
    ConstructionFailure,
    DegenerateMap,
    DegenerateRow,
    InfiniteCenter,
    MiquelDynError,
    MonodromyFailure,
    OctahedronRelationFailure,
    StencilDegenerate,
    WindowExhausted,
)
from miqueldyn.geometry import (
    INFINITY,
    apply_mobius,
    chordal,
    is_infinite,
    mobius_maps_equal,
    mobius_mutation,
    star_ratio,
)
from miqueldyn.lattice import (
    COINCIDE_RTOL,
    DETERMINANT_RTOL,
    VERTEX_RTOL,
    OctahedralPatch,
    TorusPatternState,
    _sample_spacings,
    direction_star_ratios,
    generate_kasteleyn_cauchy_data,
    make_torus_state,
    miquel_dynamics_step,
    octahedra_of,
    patch_from_pattern,
    propagate_octahedral,
    torus_displacement,
    torus_vertices,
    transversal_star_ratios,
)
from miqueldyn.surface_graph import build_square_grid_torus, grid_face_parity


def small_patch(ring, below, filler=10 + 10j) -> OctahedralPatch:
    # 3x3 box holding one full stencil around the center column
    values = {}
    patch = OctahedralPatch(((-1, 1), (-1, 1), (0, 1)))
    for p in patch.level_points(0):
        values[p] = filler
    values[(0, 0, 0)] = below
    for p, v in zip([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], ring):
        values[p] = v
    return OctahedralPatch(patch.window, values)


def test_stencil_frozen_examples():
    prop = propagate_octahedral(small_patch((1, 1j, -1, -1j), 0j), 2)
    assert abs(prop.values[(0, 0, 2)]) < 1e-15
    prop = propagate_octahedral(small_patch((0j, 1, 0j, 1), 0.5), 2)
    assert is_infinite(prop.values[(0, 0, 2)])


def test_window_exhausted():
    patch = small_patch((1, 1j, -1, -1j), 0j)
    with pytest.raises(WindowExhausted):
        propagate_octahedral(patch, 3)


def test_cauchy_validation():
    patch = small_patch((1, 1j, -1, -1j), 0j)
    with pytest.raises(MiquelDynError):
        propagate_octahedral(patch, 1)
    missing = OctahedralPatch(patch.window, dict(patch.values))
    del missing.values[(1, 1, 0)]
    with pytest.raises(MiquelDynError):
        propagate_octahedral(missing, 2)
    tainted = OctahedralPatch(patch.window, dict(patch.values))
    tainted.values[(1, 0, 0)] = 3j
    with pytest.raises(MiquelDynError):
        propagate_octahedral(tainted, 2)


def test_stencil_degenerate():
    patch = small_patch((1, 1, -1, -1j), 0j)
    with pytest.raises(StencilDegenerate):
        propagate_octahedral(patch, 2)


def test_direction_star_ratios_frozen():
    sr1, sr2, sr3 = direction_star_ratios((1, -1), (1j, -1j), (0j, 0j))
    assert abs(sr1 - 1) < 1e-12
    assert abs(sr2 + 0.5) < 1e-12
    assert abs(sr3 + 2) < 1e-12
    zm = 1j / math.sqrt(2)
    sr1, sr2, sr3 = direction_star_ratios((1, -1), (1j, -1j), (-zm, zm))
    assert abs(sr1 - 3) < 1e-12
    assert abs(sr2 + 0.25) < 1e-12
    assert abs(sr3 + 4.0 / 3.0) < 1e-12
    assert abs(sr1 * sr2 * sr3 - 1) < 1e-12


def test_direction_star_ratios_rejects_open_octahedron():
    with pytest.raises(OctahedronRelationFailure):
        direction_star_ratios((1, -1), (1j, -1j), (5 + 5j, 0j))


def test_generator_determinism_and_kasteleyn():
    a = generate_kasteleyn_cauchy_data(4, 4, 42, 0.5)
    b = generate_kasteleyn_cauchy_data(4, 4, 42, 0.5)
    assert a.vertex_points == b.vertex_points
    assert a.center_points == b.center_points
    assert a.periods == b.periods
    assert validate_pattern(a) == []
    field = pattern_star_ratios(a.centers_drawing())
    assert field.all_real() and field.all_positive()


def test_generator_isoradial_at_zero_spread():
    p = generate_kasteleyn_cauchy_data(4, 6, 11, 0.0)
    assert p.periods == (6 + 0j, 4j)
    assert p.vertex_points[0] == 0j
    assert p.center_points[0] == 0.5 + 0.5j
    field = pattern_star_ratios(p.centers_drawing())
    assert all(abs(v - 1) < 1e-12 for v in field.values.values())


def test_generator_degenerate_row():
    with pytest.raises(DegenerateRow):
        generate_kasteleyn_cauchy_data(4, 4, 1, -0.5)
    rng = np.random.default_rng(12345)
    with pytest.raises(DegenerateRow):
        _sample_spacings(rng, 50, 1e12, retries=0)


def test_reality_and_positivity_propagate():
    state = make_torus_state(generate_kasteleyn_cauchy_data(4, 4, 42, 0.5), 4, 4)
    prop = propagate_octahedral(patch_from_pattern(state, pad=4), 5)
    for level in range(2, 6):
        ratios = transversal_star_ratios(prop, level)
        assert ratios
        for sr in ratios.values():
            assert abs(sr.imag) <= 1e-9 * abs(sr)
            assert sr.real > 0


def test_octahedron_relations_and_asymmetry_on_propagated_patch():
    state = make_torus_state(generate_kasteleyn_cauchy_data(4, 4, 7, 0.6), 4, 4)
    prop = propagate_octahedral(patch_from_pattern(state, pad=3), 4)
    seen = 0
    for _, pairs in octahedra_of(prop):
        sr1, sr2, sr3 = direction_star_ratios(*pairs)
        assert sr1.real > 0
        assert sr2.real < 0 and sr3.real < 0
        assert abs(sr1 * sr2 * sr3 - 1) < 1e-10
        seen += 1
    assert seen > 50


def test_star_ratio_preserved_through_levels():
    state = make_torus_state(generate_kasteleyn_cauchy_data(4, 4, 9, 0.5), 4, 4)
    prop = propagate_octahedral(patch_from_pattern(state, pad=3), 4)
    for (x, y, c), pairs in octahedra_of(prop):
        (xp, xm), (yp, ym), (zp, zm) = pairs
        assert chordal(star_ratio(zm, xp, yp, xm, ym),
                       star_ratio(zp, xp, yp, xm, ym)) < 1e-9


def test_mutation_map_same_for_any_transversal_pair():
    state = make_torus_state(generate_kasteleyn_cauchy_data(4, 4, 13, 0.5), 4, 4)
    prop = propagate_octahedral(patch_from_pattern(state, pad=3), 3)
    probes = (0.4 + 0.2j, -1.5 + 0.9j, 3.0 - 2.0j)
    for _, ((xp, xm), (yp, ym), (zp, zm)) in octahedra_of(prop):
        maps = [
            mobius_mutation(xp, yp, xm, ym),
            mobius_mutation(yp, zp, ym, zm),
            mobius_mutation(xp, zp, xm, zm),
        ]
        for other in maps[1:]:
            assert mobius_maps_equal(maps[0], other, rtol=1e-8)
            for z in probes:
                assert chordal(apply_mobius(maps[0], z),
                               apply_mobius(other, z)) < 1e-8


def test_make_torus_state_validation():
    p = generate_kasteleyn_cauchy_data(4, 4, 1, 0.3)
    with pytest.raises(MiquelDynError):
        make_torus_state(p, 3, 4)
    broken = type(p)(p.graph, dict(p.vertex_points), dict(p.center_points), p.periods)
    broken.vertex_points[0] += 0.5
    with pytest.raises(MiquelDynError):
        make_torus_state(broken, 4, 4)


def test_torus_state_rejects_odd_or_non_complex_centres():
    s = make_torus_state(generate_kasteleyn_cauchy_data(4, 4, 1, 0.3), 4, 4)
    for Z in (s.centers[:, :3], s.centers[:3], s.centers.ravel(), s.centers.real):
        with pytest.raises(MiquelDynError):
            TorusPatternState(Z, s.periods, s.anchor)


def test_dynamics_isoradial_fixed_point():
    p0 = generate_kasteleyn_cauchy_data(4, 4, 0, 0.0)
    state = make_torus_state(p0, 4, 4)
    s1 = miquel_dynamics_step(state)
    assert s1.step_parity == 1
    for f in p0.center_points:
        assert torus_displacement(s1.pattern.center_points[f],
                                  p0.center_points[f], p0.periods) < 1e-9
    # tangency keeps every second intersection at the old corner
    old = sorted((round(z.real, 6), round(z.imag, 6))
                 for z in p0.vertex_points.values())
    new = sorted((round(z.real, 6), round(z.imag, 6))
                 for z in s1.pattern.vertex_points.values())
    assert old == new
    s2 = miquel_dynamics_step(s1)
    assert s2.step_parity == 0
    for f in p0.center_points:
        assert torus_displacement(s2.pattern.center_points[f],
                                  p0.center_points[f], p0.periods) < 1e-9


def test_dynamics_slice_identification():
    p = generate_kasteleyn_cauchy_data(4, 4, 3, 0.4)
    s1 = miquel_dynamics_step(make_torus_state(p, 4, 4))
    par = grid_face_parity(4, 4)
    assert validate_pattern(s1.pattern) == []
    for f, parity in par.items():
        gap = torus_displacement(s1.pattern.center_points[f],
                                 p.center_points[f], p.periods)
        if parity == 1:
            assert gap < 1e-12
        else:
            assert gap > 1e-6


def test_dynamics_order_independence():
    p = generate_kasteleyn_cauchy_data(4, 4, 21, 0.4)
    par = grid_face_parity(4, 4)
    moving = sorted(f for f in par if par[f] == 0)
    shuffled = list(moving)
    random.Random(5).shuffle(shuffled)
    assert shuffled != moving
    a = p
    for f in moving:
        a = miquel_move(a, f)
    b = p
    for f in shuffled:
        b = miquel_move(b, f)
    # ids of re-created vertices depend on the order, the geometry must not
    assert validate_pattern(a) == [] and validate_pattern(b) == []
    for f in a.center_points:
        assert torus_displacement(a.center_points[f], b.center_points[f],
                                  p.periods) < 1e-12
    assert len(a.vertex_points) == len(b.vertex_points)
    assert all(len(w) == 4 for w in a.graph.faces.values())
    assert all(len(w) == 4 for w in b.graph.faces.values())
    matched = set()
    for va, za in a.vertex_points.items():
        gap, vb = min(((torus_displacement(za, zb, p.periods), w)
                       for w, zb in b.vertex_points.items()),
                      key=lambda t: t[0])
        assert gap < 1e-12
        assert a.graph.vertex_color[va] == b.graph.vertex_color[vb]
        matched.add(vb)
    assert len(matched) == len(b.vertex_points)


def test_two_steps_match_octahedral_propagation():
    p = generate_kasteleyn_cauchy_data(4, 4, 3, 0.4)
    state = make_torus_state(p, 4, 4)
    prop = propagate_octahedral(patch_from_pattern(state, pad=3), 3)
    s1 = miquel_dynamics_step(state)
    s2 = miquel_dynamics_step(s1)
    checked = 0
    for (x, y, z), v in prop.values.items():
        if z < 2:
            continue
        fid = (y % 4) * 4 + (x % 4)
        target = s1.pattern if z == 2 else s2.pattern
        assert torus_displacement(v, target.center_points[fid], p.periods) < 1e-9
        checked += 1
    assert checked > 40


# -- the array sweep against its oracles --------------------------------------

def graph_sweep(p, rows, cols, parity):
    """One sweep of graph-level Miquel moves, face by face."""
    par = grid_face_parity(rows, cols)
    for f in sorted(par):
        if par[f] == parity:
            p = miquel_move(p, f)
    return p


def similar(p, a, b):
    """The pattern p under z -> a z + b (periods under z -> a z)."""
    return CirclePattern(p.graph,
                         {v: a * z + b for v, z in p.vertex_points.items()},
                         {f: a * z + b for f, z in p.center_points.items()},
                         (a * p.periods[0], a * p.periods[1]))


def test_swept_pattern_is_the_canonical_grid():
    p = generate_kasteleyn_cauchy_data(4, 6, 8, 0.5)
    s = miquel_dynamics_step(make_torus_state(p, 4, 6))
    assert s.rows == 4 and s.cols == 6 and s.step_parity == 1
    assert s.pattern is s.pattern
    assert s.pattern.graph == build_square_grid_torus(4, 6)
    assert validate_pattern(s.pattern) == []
    assert s.pattern.vertex_points[0] == s.anchor
    assert s.pattern.center_points == dict(enumerate(s.centers.ravel().tolist()))


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("a, b", [
    (1.0, 1e5 * (1 + 1j)),      # graph sweep: ConstructionFailure in sweep 1
    (1e5, 0.0),
    (1e-5, 0.0),
    (cmath.exp(0.7j), 0.0),
    (2.0 * cmath.exp(-2.0j), -3e4 + 7e4j),
])
def test_sweep_commutes_with_similarities(n, a, b):
    for seed in (0, 1):
        p = generate_kasteleyn_cauchy_data(n, n, seed, 0.5)
        s = make_torus_state(p, n, n)
        t = make_torus_state(similar(p, a, b), n, n)
        period = abs(a * p.periods[0])
        for _ in range(20):
            s = miquel_dynamics_step(s)
            t = miquel_dynamics_step(t)
            assert np.max(np.abs(a * s.centers + b - t.centers)) <= 1e-9 * period
            assert abs(a * s.anchor + b - t.anchor) <= 1e-9 * period
            t.pattern  # every vertex check passes


def _q(z):
    return (Fraction(z.real), Fraction(z.imag))


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def exact_sweep(Z, periods, parity):
    """The centre recurrence in Gaussian rationals, one face at a time:
    with w_k the lifted south, east, north and west neighbours minus the
    centre, the new centre is centre - c3 / c2."""
    rows, cols = len(Z), len(Z[0])
    ox, oy = periods
    out = [row[:] for row in Z]
    for i in range(rows):
        for j in range(cols):
            if (i + j) % 2 != parity:
                continue
            c = Z[i][j]
            s = Z[i - 1][j] if i else _csub(Z[rows - 1][j], oy)
            e = Z[i][j + 1] if j + 1 < cols else _cadd(Z[i][0], ox)
            n = Z[i + 1][j] if i + 1 < rows else _cadd(Z[0][j], oy)
            w = Z[i][j - 1] if j else _csub(Z[i][cols - 1], ox)
            w1, w2, w3, w4 = (_csub(z, c) for z in (s, e, n, w))
            c2 = _csub(_cmul(w1, w3), _cmul(w2, w4))
            c3 = _csub(_cmul(_cmul(w2, w4), _cadd(w1, w3)),
                       _cmul(_cmul(w1, w3), _cadd(w2, w4)))
            out[i][j] = _csub(c, _cdiv(c3, c2))
    return out


def test_sweep_matches_exact_gaussian_rationals():
    p = generate_kasteleyn_cauchy_data(4, 4, 1, 0.5)
    # dyadic centres keep the exact numbers short; the recurrence needs
    # no circle pattern, only centres
    Z = np.round(make_torus_state(p, 4, 4).centers * 1024) / 1024
    periods = (complex(round(p.periods[0].real * 1024) / 1024, 0.0),
               complex(0.0, round(p.periods[1].imag * 1024) / 1024))
    s = TorusPatternState(Z, periods, 0j)
    exact = [[_q(z) for z in row] for row in Z.tolist()]
    exact_periods = tuple(_q(z) for z in periods)
    for k in range(10):
        exact = exact_sweep(exact, exact_periods, k % 2)
        s = miquel_dynamics_step(s)
        want = np.array([[complex(float(x), float(y)) for x, y in row]
                         for row in exact])
        assert np.max(np.abs(s.centers - want)) <= 1e-12 * abs(periods[0])


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sweep_matches_graph_moves(n, seed):
    p = generate_kasteleyn_cauchy_data(n, n, seed, 0.5)
    s = make_torus_state(p, n, n)
    q = p
    for k in range(2):
        q = graph_sweep(q, n, n, k % 2)
        s = miquel_dynamics_step(s)
        gap = max(torus_displacement(q.center_points[f], z, p.periods)
                  for f, z in enumerate(s.centers.ravel()))
        assert gap <= 1e-9 * abs(p.periods[0])


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 4), (4, 2), (4, 6)])
def test_relabelled_pattern_gives_the_same_centres(rows, cols):
    p = generate_kasteleyn_cauchy_data(rows, cols, 3, 0.5)
    s = miquel_dynamics_step(make_torus_state(p, rows, cols))
    q = graph_sweep(p, rows, cols, 0)
    assert q.graph != s.pattern.graph  # ids and walks were relabelled
    t = make_torus_state(q, rows, cols, step_parity=1)
    scale = abs(p.periods[0])
    for _ in range(4):
        shift = t.centers[0, 0] - s.centers[0, 0]
        assert torus_displacement(shift, 0j, p.periods) <= 1e-9 * scale
        assert np.max(np.abs(t.centers - s.centers - shift)) <= 1e-9 * scale
        assert abs(t.anchor - s.anchor - shift) <= 1e-9 * scale
        s, t = miquel_dynamics_step(s), miquel_dynamics_step(t)


def rotated_walks(p, turn):
    """p with face f's walk started turn(f) steps later, each centre
    moved into its new walk frame."""
    g = p.graph
    faces, centers = {}, {}
    for f, walk in g.faces.items():
        r = turn(f)
        faces[f] = walk[r:] + walk[:r]
        sx, sy = g.face_shifts(f)[r]
        centers[f] = p.center_points[f] - sx * p.periods[0] - sy * p.periods[1]
    graph = type(g)(g.surface, g.vertex_color, g.edges, faces)
    return CirclePattern(graph, p.vertex_points, centers, p.periods)


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 4), (4, 2), (4, 4)])
def test_any_walk_start_gives_the_same_chart(rows, cols):
    p = generate_kasteleyn_cauchy_data(rows, cols, 5, 0.5)
    s = make_torus_state(p, rows, cols)
    for turn in (lambda f: 1, lambda f: f % 4, lambda f: (3 * f + 1) % 4):
        t = make_torus_state(rotated_walks(p, turn), rows, cols)
        assert np.max(np.abs(t.centers - s.centers)) <= 1e-12
        assert abs(t.anchor - s.anchor) <= 1e-12


def test_make_torus_state_rejects_other_face_layouts():
    p = generate_kasteleyn_cauchy_data(4, 4, 2, 0.5)
    g = p.graph
    swap = {0: 1, 1: 0}
    faces = {swap.get(f, f): w for f, w in g.faces.items()}
    centers = {swap.get(f, f): c for f, c in p.center_points.items()}
    shuffled = CirclePattern(type(g)(g.surface, g.vertex_color, g.edges, faces),
                             p.vertex_points, centers, p.periods)
    assert validate_pattern(shuffled) == []
    with pytest.raises(MiquelDynError, match="grid torus"):
        make_torus_state(shuffled, 4, 4)
    # the same graph read as 2x8 has the wrong neighbours
    with pytest.raises(MiquelDynError, match="grid torus"):
        make_torus_state(p, 2, 8)


# -- numeric failure stays an exception, with its fields -----------------------

def isoradial_state(edit=None):
    """The 4x4 isoradial state, centres edited by edit(Z) in place."""
    s = make_torus_state(generate_kasteleyn_cauchy_data(4, 4, 0, 0.0), 4, 4)
    Z = s.centers.copy()
    if edit is not None:
        edit(Z)
    return TorusPatternState(Z, s.periods, s.anchor, 0)


def _coincide(Z):
    Z[1, 2] = Z[0, 1]


def _near_three(Z):
    Z[1, 2] = Z[0, 1] + 1e-8
    Z[2, 1] = Z[0, 1] + 2e-8


def _to_infinity(Z):
    c = Z[1, 1]
    Z[0, 1] = Z[2, 1] = c - 0.5
    Z[1, 0] = Z[1, 2] = c + 0.5


SWEEP_FAILURES = [
    # edit, error, face, largest residual, tolerance, scale
    (_coincide, ConsecutiveCoincidence, 2, 0.0, COINCIDE_RTOL, 1.0),
    (_near_three, DegenerateMap, 5, DETERMINANT_RTOL, DETERMINANT_RTOL, None),
    (_to_infinity, InfiniteCenter, 5, 0.0, 0.0, 0.5),
]


@pytest.mark.parametrize("edit, error, face, residual, tolerance, scale",
                         SWEEP_FAILURES)
def test_sweep_failures_carry_their_fields(edit, error, face, residual,
                                           tolerance, scale):
    with pytest.raises(error, match="^face %d: " % face) as info:
        miquel_dynamics_step(isoradial_state(edit))
    err = info.value
    assert err.face == face
    assert err.tolerance == tolerance
    assert 0.0 <= err.residual <= residual
    if scale is not None:
        assert err.scale == pytest.approx(scale)
    assert set(err.fields()) == {"face", "residual", "tolerance", "scale"}


def test_vertex_failures_carry_their_fields():
    def along_edge(Z):  # every reflection line moves: the wraps do not close
        Z[1, 1] += 0.1

    def up_column(Z):  # moves one line of column 0: only the top wrap opens
        Z[1, 0] += 0.1j

    def across_edges(Z):  # moves along both reflection lines of face 5
        Z[1, 1] += 0.1j

    for edit, error, face in ((along_edge, MonodromyFailure, 4),
                              (up_column, MonodromyFailure, 0),
                              (across_edges, ConstructionFailure, 5)):
        s = isoradial_state(edit)
        with pytest.raises(error, match="^face %d: " % face) as info:
            s.pattern
        err = info.value
        assert err.face == face and err.tolerance == VERTEX_RTOL
        assert err.residual > VERTEX_RTOL
        assert err.scale == pytest.approx(torus_vertices(s).radius.ravel()[face])


def test_unmeasured_degeneracies_have_no_fields():
    err = DegenerateRow("spread must be nonnegative")
    assert err.fields() == {} and err.face is None and str(err) == "spread must be nonnegative"
