import gc
import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import build_quad_sphere, rectangular_torus_pattern
from miqueldyn.circle_pattern import (
    miquel_move,
    pattern_star_ratios,
    propagate_from_centers,
)
from miqueldyn.dimer import (
    dimer_statistics,
    enumerate_matchings,
    face_weight_update,
    face_weights,
    urban_renewal_check,
    weights_from_pattern,
)
from miqueldyn.errors import InvalidFace, TooLarge, WeightMismatchOutsideN
from miqueldyn.lattice import generate_kasteleyn_cauchy_data
from miqueldyn.surface_graph import (
    SurfaceGraph,
    build_square_grid_torus,
    edge_neighbourhood,
    mutate_at_face,
)


def brute_force_matchings(g):
    """Oracle: filter all edge subsets."""
    verts = sorted(g.vertex_color)
    out = []
    for r in range(len(verts) // 2 + 1):
        for sub in itertools.combinations(sorted(g.edges), r):
            covered = []
            for eid in sub:
                covered.append(g.edges[eid].minus)
                covered.append(g.edges[eid].plus)
            if sorted(covered) == verts:
                out.append(tuple(sub))
    return sorted(out)


def test_quad_sphere_matchings():
    g = build_quad_sphere()
    ms = enumerate_matchings(g)
    assert ms == [(0, 2), (1, 3)]
    ens = dimer_statistics(g, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
    assert ens.Z == pytest.approx(2.0)
    assert ens.probabilities == [pytest.approx(0.5), pytest.approx(0.5)]
    # alternating weights a, b, a, b give Z = a^2 + b^2
    a, b = 2.0, 3.0
    ens = dimer_statistics(g, {0: a, 1: b, 2: a, 3: b})
    assert ens.Z == pytest.approx(a * a + b * b)


def test_odd_vertex_count_has_no_matchings():
    g = SurfaceGraph("sphere", {0: 1}, {}, {})
    assert enumerate_matchings(g) == []


def _product(w, m):
    x = 1.0
    for eid in m:
        x *= w[eid]
    return x


def test_torus_2x2_matchings_against_brute_force():
    g = build_square_grid_torus(2, 2)
    ms = enumerate_matchings(g)
    assert len(ms) == 8
    assert ms == brute_force_matchings(g)
    ens = dimer_statistics(g, {e: 1.0 for e in g.edges})
    assert ens.Z == pytest.approx(8.0)
    assert sum(ens.probabilities) == pytest.approx(1.0, abs=1e-12)

    # the mutated 2x4 torus has double edges; the quad sphere has
    # degree-2 vertices
    g24 = build_square_grid_torus(2, 4)
    moved, _ = mutate_at_face(g24, 1)
    assert max(Counter((e.minus, e.plus) for e in moved.edges.values()).values()) == 2
    rng = np.random.default_rng(17)
    for h in (g24, moved, build_quad_sphere()):
        ms = enumerate_matchings(h)
        assert ms == brute_force_matchings(h)
        w = {e: float(np.exp(rng.normal())) for e in h.edges}
        ens = dimer_statistics(h, w)
        assert ens.matchings == ms
        for m, x in zip(ens.matchings, ens.weights):
            assert x == pytest.approx(_product(w, m), rel=1e-15, abs=0)
        assert ens.probabilities == [x / ens.Z for x in ens.weights]


def test_enumeration_bound():
    g = build_square_grid_torus(6, 6)
    with pytest.raises(TooLarge):
        enumerate_matchings(g)
    # the bound is configurable
    assert len(enumerate_matchings(g, max_vertices=36)) > 0


def test_enumeration_frees_its_matchings_without_the_cycle_collector():
    g = build_square_grid_torus(2, 4)
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_matchings(g)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_face_weights_unit_and_single_heavy_edge():
    g = build_square_grid_torus(2, 2)
    w = {e: 1.0 for e in g.edges}
    assert all(v == pytest.approx(1.0) for v in face_weights(g, w).values())

    w[0] = 2.0  # the edge between faces 0 and 2
    t = face_weights(g, w)
    assert sorted(round(v, 12) for v in t.values()) == [0.5, 1.0, 1.0, 2.0]
    assert {f for f, v in t.items() if v != 1.0} == {0, 2}
    prod = 1.0
    for v in t.values():
        prod *= v
    assert prod == pytest.approx(1.0, abs=1e-9)


def test_weights_from_pattern_spacings():
    p = rectangular_torus_pattern([1] * 4, [1] * 4)
    w = weights_from_pattern(p)
    assert all(v == pytest.approx(1.0) for v in w.values())

    p = rectangular_torus_pattern([2] * 4, [1] * 4)
    w = weights_from_pattern(p)
    for eid in p.graph.edges:
        want = 1.0 if eid < 16 else 2.0  # horizontal edges see vertical spacing
        assert w[eid] == pytest.approx(want)


def test_face_weights_match_star_ratios():
    rng = np.random.default_rng(13)
    for _ in range(10):
        dx = [1 + 0.4 * (rng.random() - 0.5) for _ in range(4)]
        dy = [1 + 0.4 * (rng.random() - 0.5) for _ in range(4)]
        p = rectangular_torus_pattern(dx, dy)
        t = face_weights(p.graph, weights_from_pattern(p))
        sr = pattern_star_ratios(p.centers_drawing())
        for f, v in t.items():
            assert v == pytest.approx(sr.values[f].real, rel=1e-9)


def test_face_weight_update_examples():
    g = build_square_grid_torus(2, 2)
    t = {f: 1.0 for f in g.faces}
    out = face_weight_update(t, g, 0)
    assert out[0] == pytest.approx(1.0)
    # at unit weight every touched dual edge contributes a factor 2
    vals = sorted(round(out[f], 12) for f in (1, 2))
    assert vals == [0.25, 4.0]

    t = {f: 1.0 for f in g.faces}
    t[0] = 3.0
    out = face_weight_update(t, g, 0)
    assert out[0] == pytest.approx(1 / 3)


def test_face_weight_update_per_instance_factors():
    """On the 2x2 torus both dual edges between f and a given neighbour
    point the same way, so that neighbour collects the factor twice."""
    g = build_square_grid_torus(2, 2)
    t = {0: 3.0, 1: 1.0, 2: 1.0, 3: 1.0 / 3.0}
    out = face_weight_update(t, g, 0)
    assert out[1] == pytest.approx(16.0)
    assert out[2] == pytest.approx((1 + 1 / 3.0) ** -2)
    prod = out[0] * out[1] * out[2] * out[3]
    assert prod == pytest.approx(1.0, rel=1e-12)


def test_face_weight_update_is_involution():
    rng = np.random.default_rng(23)
    g = build_square_grid_torus(4, 4)
    g2, _ = mutate_at_face(g, 5)
    for _ in range(20):
        t = {f: float(np.exp(rng.normal())) for f in g.faces}
        t2 = face_weight_update(t, g, 5)
        back = face_weight_update(t2, g2, 5)
        for f, v in t.items():
            assert back[f] == pytest.approx(v, rel=1e-10)


def test_face_weight_update_rejects_bad_face():
    g = build_quad_sphere()
    with pytest.raises(InvalidFace):
        face_weight_update({0: 1.0, 1: 1.0}, g, 0)


def _renewal_pair(p, f):
    q = miquel_move(p, f)
    return p.graph, weights_from_pattern(p), q.graph, weights_from_pattern(q)


def test_urban_renewal_from_miquel_move():
    rng = np.random.default_rng(41)
    for rows, cols, f in ((2, 2, 0), (4, 4, 5)):
        for _ in range(3):
            dx = [1 + 0.4 * (rng.random() - 0.5) for _ in range(cols)]
            dy = [1 + 0.4 * (rng.random() - 0.5) for _ in range(rows)]
            p = rectangular_torus_pattern(dx, dy)
            g, w, g2, w2 = _renewal_pair(p, f)
            rep = urban_renewal_check(g, w, f, g2, w2)
            assert rep.ok, rep
            assert rep.max_discrepancy <= 1e-9
            assert rep.classes > 1


def test_urban_renewal_detects_perturbation():
    p = rectangular_torus_pattern([1, 2], [1, 3])
    g, w, g2, w2 = _renewal_pair(p, 0)
    inside = sorted(set(edge_neighbourhood(g2, 0)) & set(w2))
    w2[inside[0]] *= 1.01
    rep = urban_renewal_check(g, w, 0, g2, w2)
    assert not rep.ok
    assert rep.max_discrepancy > 1e-9
    _assert_renewal_matches_reference(g, w, 0, g2, w2)


def _reference_matchings(g):
    """Perfect matchings by recursion over frozensets of uncovered
    vertices, each stored as a sorted edge-id tuple."""
    inc = g.vertex_edges()
    out = []

    def rec(uncovered, chosen):
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
    return sorted(out)


def _reference_renewal(g, w, f, g2, w2, tol=1e-9):
    """The urban-renewal check from stored matchings: per-matching
    probabilities summed per class of edges outside the move."""
    comp = set(g.edges) - set(edge_neighbourhood(g, f))

    def classes(h, wh):
        ms = _reference_matchings(h)
        weights = [_product(wh, m) for m in ms]
        z = sum(weights)
        sums = {}
        for m, x in zip(ms, weights):
            key = tuple(sorted(set(m) & comp))
            sums[key] = sums.get(key, 0.0) + x / z
        return z, sums

    (z1, c1), (z2, c2) = classes(g, w), classes(g2, w2)
    keys = set(c1) | set(c2)
    disc = max(abs(c1.get(k, 0.0) - c2.get(k, 0.0)) for k in keys)
    return {"ok": disc <= tol, "undefined": False, "classes": len(keys),
            "z_before": z1, "z_after": z2, "max_discrepancy": disc}


def _assert_renewal_matches_reference(g, w, f, g2, w2):
    got = urban_renewal_check(g, w, f, g2, w2).as_dict()
    want = _reference_renewal(g, w, f, g2, w2)
    for key in ("ok", "undefined", "classes"):
        assert got[key] == want[key], (key, f)
    for key in ("z_before", "z_after"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0), (key, f)
    assert abs(got["max_discrepancy"] - want["max_discrepancy"]) <= 1e-12, f


def test_urban_renewal_matches_the_stored_matching_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.sampled_from([(2, 2), (2, 4), (4, 2), (2, 6)]),
                      st.integers(min_value=0, max_value=2 ** 32 - 1),
                      st.floats(min_value=0.0, max_value=0.8),
                      st.sampled_from([1.0, 1.0, 1.01, 0.5, 2.0]),
                      st.integers(min_value=0, max_value=7))
    def check(shape, seed, spread, bump, pick):
        rows, cols = shape
        p = generate_kasteleyn_cauchy_data(rows, cols, seed=seed, spread=spread)
        for f in range(rows * cols):
            g, w, g2, w2 = _renewal_pair(p, f)
            # a changed weight inside the move breaks renewal
            inside = sorted(set(edge_neighbourhood(g2, f)) & set(w2))
            w2[inside[pick % len(inside)]] *= bump
            _assert_renewal_matches_reference(g, w, f, g2, w2)

    check()


def test_urban_renewal_rejects_outside_mismatch():
    rng = np.random.default_rng(2)
    dx = [1 + 0.4 * (rng.random() - 0.5) for _ in range(4)]
    dy = [1 + 0.4 * (rng.random() - 0.5) for _ in range(4)]
    p = rectangular_torus_pattern(dx, dy)
    g, w, g2, w2 = _renewal_pair(p, 5)
    outside = sorted(set(g.edges) - set(edge_neighbourhood(g, 5)))
    w2[outside[0]] *= 1.01
    with pytest.raises(WeightMismatchOutsideN):
        urban_renewal_check(g, w, 5, g2, w2)


def test_update_rule_matches_renewal_weights():
    """tau of psi after the move equals the mutation formula applied to
    tau of psi before it, at every face at once."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        dx = [1 + 0.4 * (rng.random() - 0.5) for _ in range(4)]
        dy = [1 + 0.4 * (rng.random() - 0.5) for _ in range(4)]
        p = rectangular_torus_pattern(dx, dy)
        g, w, g2, w2 = _renewal_pair(p, 5)
        got = face_weights(g2, w2)
        want = face_weight_update(face_weights(g, w), g, 5)
        for f, v in want.items():
            assert got[f] == pytest.approx(v, rel=1e-9)
