import numpy as np
import pytest

from miqueldyn.errors import (
    CoincidentAnchors,
    CoincidentPoints,
    ConsecutiveCoincidence,
    DegenerateMap,
    IdenticalCircles,
    IndeterminateRatio,
)
from miqueldyn.geometry import (
    INFINITY,
    Circle,
    MobiusMap,
    apply_mobius,
    chordal,
    circle_center_of,
    circumcircle,
    close,
    cross_ratio,
    intersect_circles,
    is_infinite,
    mobius_maps_equal,
    mobius_mutation,
    multi_ratio,
    mutate_about,
    mutation_coefficients,
    reflect_in_line,
    star_ratio,
)


def _rpt(rng, box=3.0):
    return complex(rng.uniform(-box, box), rng.uniform(-box, box))


def _random_mobius(rng):
    while True:
        m = MobiusMap(_rpt(rng), _rpt(rng), _rpt(rng), _rpt(rng))
        if abs(m.det()) > 0.1:
            return m


def test_cross_ratio_basic_values():
    assert close(cross_ratio(0, 1, INFINITY, 2), 0.5)
    assert cross_ratio(1 + 1j, 1 + 1j, 0, 2) == 0
    with pytest.raises(IndeterminateRatio):
        cross_ratio(1, 1, 1, 0)


def test_cross_ratio_infinity_matches_finite_limit():
    big = 1e9
    a, b, d = 0.3 + 0.1j, -1.2 + 0.4j, 2.0 - 0.7j
    lim = cross_ratio(a, b, big, d)
    exact = cross_ratio(a, b, INFINITY, d)
    assert abs(lim - exact) < 1e-6


def test_cross_ratio_mobius_invariance():
    rng = np.random.default_rng(7041)
    for _ in range(200):
        pts = [_rpt(rng) for _ in range(4)]
        m = _random_mobius(rng)
        c0 = cross_ratio(*pts)
        c1 = cross_ratio(*[apply_mobius(m, p) for p in pts])
        assert abs(c0 - c1) <= 1e-10 * max(1.0, abs(c0))


def test_multi_ratio_menelaus_is_minus_one():
    # triangle 0, 1, i cut by the transversal y = 0.2 x + 0.05
    a12, a23, a13 = 1 + 0j, 1j, 0j
    b1 = -0.25 + 0j            # on the real axis side
    b3 = 0.05j                 # on the imaginary axis side
    x = 0.95 / 1.2             # on the side x + y = 1
    b2 = complex(x, 1 - x)
    mr = multi_ratio(a12, b2, a23, b3, a13, b1)
    assert abs(mr + 1) < 1e-12


def test_multi_ratio_mobius_invariance():
    rng = np.random.default_rng(2210)
    for _ in range(100):
        pts = [_rpt(rng) for _ in range(6)]
        m = _random_mobius(rng)
        v0 = multi_ratio(*pts)
        v1 = multi_ratio(*[apply_mobius(m, p) for p in pts])
        assert abs(v0 - v1) <= 1e-9 * max(1.0, abs(v0))


def test_star_ratio_values():
    assert close(star_ratio(0, 1, 1j, -1, -1j), 1.0)
    assert close(star_ratio(INFINITY, 1, 1j, -1, -1j), -1.0)
    assert close(star_ratio(0, 1, 2, 3, 4), -3.0 / 8.0)
    # anisotropy: stretching the numerator pair scales the ratio
    assert close(star_ratio(0, 2, 1j, -2, -1j), 4.0)
    assert close(star_ratio(0, 1j, 2, -1j, -2), 0.25)


def test_star_ratio_symsetry_rotation_and_reversal():
    rng = np.random.default_rng(913)
    for _ in range(50):
        y, y1, y2, y3, y4 = (_rpt(rng) for _ in range(5))
        s = star_ratio(y, y1, y2, y3, y4)
        assert abs(s - star_ratio(y, y3, y4, y1, y2)) < 1e-12 * max(1, abs(s))
        assert abs(s - star_ratio(y, y1, y4, y3, y2)) < 1e-12 * max(1, abs(s))


def test_mobius_mutation_fourfold_example():
    m = mobius_mutation(1, 1j, -1, -1j)
    # coefficients (C1, C2, C3) = (0, -2, 0), the map z -> -z
    assert m.c == 0 and abs(m.a + 2) < 1e-15 and abs(m.b) < 1e-15
    assert close(apply_mobius(m, 1j), -1j)
    assert close(apply_mobius(m, 0.2 + 0j), -0.2 + 0j)
    assert is_infinite(apply_mobius(m, INFINITY))


def test_mobius_mutation_degenerate_pairs_example():
    # opposite values coincide: the map fixes both and blows up the midpoint
    m = mobius_mutation(0, 1, 0, 1)
    assert abs(m.c + 2) < 1e-15 and abs(m.a + 1) < 1e-15 and abs(m.b) < 1e-15
    assert close(apply_mobius(m, 0j), 0.0)
    assert close(apply_mobius(m, 1 + 0j), 1.0)
    assert is_infinite(apply_mobius(m, 0.5 + 0j))


def test_mobius_mutation_consecutive_coincidence_raises():
    with pytest.raises(ConsecutiveCoincidence):
        mobius_mutation(1, 1, 2, 3)
    with pytest.raises(ConsecutiveCoincidence):
        mobius_mutation(1, 2, 3, 1)


def test_mobius_mutation_with_infinite_arguments():
    # both infinite opposite slots: affine reflection z -> (a + b) - z
    a, b = 0.7 - 0.2j, -1.1 + 0.5j
    m = mobius_mutation(INFINITY, a, INFINITY, b)
    assert close(apply_mobius(m, 0j), a + b)
    assert is_infinite(apply_mobius(m, INFINITY))
    # one infinite slot: mob(inf, 1, 0, -1) is z -> -1/z
    m2 = mobius_mutation(INFINITY, 1, 0, -1)
    assert close(apply_mobius(m2, INFINITY), 0.0)
    assert is_infinite(apply_mobius(m2, 0j))
    assert close(apply_mobius(m2, 1 + 0j), -1.0)
    assert close(apply_mobius(m2, -1 + 0j), 1.0)


def test_mobius_mutation_trace_zero_exact():
    rng = np.random.default_rng(5150)
    for _ in range(50):
        m = mobius_mutation(*(_rpt(rng) for _ in range(4)))
        assert m.a + m.d == 0


def test_mobius_mutation_swaps_opposite_values():
    rng = np.random.default_rng(660)
    for _ in range(100):
        z1, z2, z3, z4 = (_rpt(rng) for _ in range(4))
        m = mobius_mutation(z1, z2, z3, z4)
        assert chordal(apply_mobius(m, z1), z3) < 1e-9
        assert chordal(apply_mobius(m, z3), z1) < 1e-9
        assert chordal(apply_mobius(m, z2), z4) < 1e-9
        assert chordal(apply_mobius(m, z4), z2) < 1e-9


def test_mobius_mutation_is_involution():
    rng = np.random.default_rng(661)
    for _ in range(100):
        m = mobius_mutation(*(_rpt(rng) for _ in range(4)))
        z = _rpt(rng)
        zz = apply_mobius(m, apply_mobius(m, z))
        assert chordal(z, zz) < 1e-9


def test_mobius_mutation_depends_only_on_pair_partition():
    rng = np.random.default_rng(662)
    for _ in range(50):
        z1, z2, z3, z4 = (_rpt(rng) for _ in range(4))
        m = mobius_mutation(z1, z2, z3, z4)
        assert mobius_maps_equal(m, mobius_mutation(z3, z4, z1, z2))
        assert mobius_maps_equal(m, mobius_mutation(z1, z4, z3, z2))


def test_mobius_mutation_determinant_modulus():
    rng = np.random.default_rng(663)
    for _ in range(100):
        z1, z2, z3, z4 = (_rpt(rng) for _ in range(4))
        m = mobius_mutation(z1, z2, z3, z4)
        prod = (z1 - z2) * (z2 - z3) * (z3 - z4) * (z4 - z1)
        assert abs(abs(m.det()) - abs(prod)) <= 1e-9 * abs(prod)


def test_mobius_mutation_preserves_star_ratio():
    rng = np.random.default_rng(664)
    for _ in range(200):
        z1, z2, z3, z4 = (_rpt(rng) for _ in range(4))
        m = mobius_mutation(z1, z2, z3, z4)
        z = _rpt(rng)
        s0 = star_ratio(z, z1, z2, z3, z4)
        s1 = star_ratio(apply_mobius(m, z), z1, z2, z3, z4)
        assert abs(s0 - s1) <= 1e-9 * max(1.0, abs(s0))


def test_star_ratio_cross_ratio_decomposition():
    # sr(z)/sr(Mz) = cro(z, z1, Mz, z2) cro(z, z3, Mz, z4)
    rng = np.random.default_rng(665)
    for _ in range(100):
        z1, z2, z3, z4 = (_rpt(rng) for _ in range(4))
        m = mobius_mutation(z1, z2, z3, z4)
        z = _rpt(rng)
        mz = apply_mobius(m, z)
        lhs = star_ratio(z, z1, z2, z3, z4) / star_ratio(mz, z1, z2, z3, z4)
        rhs = cross_ratio(z, z1, mz, z2) * cross_ratio(z, z3, mz, z4)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_apply_mobius_totality():
    m = MobiusMap(1, 2, 1, -1)  # z -> (z + 2)/(z - 1)
    assert close(apply_mobius(m, INFINITY), 1.0)
    assert is_infinite(apply_mobius(m, 1 + 0j))
    assert close(apply_mobius(m, 0j), -2.0)


def test_circumcircle_cases():
    c = circumcircle(1, 1j, -1)
    assert not c.is_line()
    assert abs(c.center) < 1e-12 and abs(c.radius - 1) < 1e-12
    line = circumcircle(0, 1, 2)
    assert line.is_line()
    through_inf = circumcircle(0, 1, INFINITY)
    assert through_inf.is_line()
    with pytest.raises(CoincidentPoints):
        circumcircle(0, 0, 1)
    with pytest.raises(CoincidentPoints):
        circumcircle(INFINITY, INFINITY, 1)


def test_circle_center_of():
    assert close(circle_center_of(Circle.make_circle(2 + 1j, 3.0)), 2 + 1j)
    assert is_infinite(circle_center_of(Circle.make_line(0, 1)))


def test_intersect_two_circles():
    u = Circle.make_circle(0, 1.0)
    v = Circle.make_circle(1, 1.0)
    pts = intersect_circles(u, v)
    assert len(pts) == 2
    s3 = np.sqrt(3.0) / 2
    assert close(pts[0], 0.5 - 1j * s3) and close(pts[1], 0.5 + 1j * s3)
    assert intersect_circles(u, Circle.make_circle(2, 1.0)) == [1 + 0j]
    assert intersect_circles(u, Circle.make_circle(5, 1.0)) == []
    with pytest.raises(IdenticalCircles):
        intersect_circles(u, Circle.make_circle(0, 1.0))


def test_intersect_circle_line():
    u = Circle.make_circle(0, 1.0)
    axis = Circle.make_line(-2, 2)
    assert intersect_circles(u, axis) == [-1 + 0j, 1 + 0j]
    tangent = Circle.make_line(1, 1 + 1j)
    assert intersect_circles(u, tangent) == [1 + 0j]
    assert intersect_circles(u, Circle.make_line(3, 3 + 1j)) == []


def test_intersect_lines():
    axis = Circle.make_line(0, 1)
    assert intersect_circles(axis, Circle.make_line(1j, 1 + 1j)) == [INFINITY]
    assert intersect_circles(axis, Circle.make_line(1j, 1)) == [1 + 0j]
    with pytest.raises(IdenticalCircles):
        intersect_circles(axis, Circle.make_line(2, 3))


def test_reflect_in_line_values():
    assert close(reflect_in_line(1j, 0, 1), -1j)
    assert close(reflect_in_line(3 + 4j, 0, 1j), -3 + 4j)
    assert is_infinite(reflect_in_line(INFINITY, 0, 1))
    with pytest.raises(CoincidentAnchors):
        reflect_in_line(1j, 1, 1)


def test_reflect_in_line_involution():
    rng = np.random.default_rng(4040)
    for _ in range(50):
        z, a, b = _rpt(rng), _rpt(rng), _rpt(rng)
        if close(a, b):
            continue
        assert close(reflect_in_line(reflect_in_line(z, a, b), a, b), z)


def test_mutate_about_is_the_homogeneous_map():
    rng = np.random.default_rng(71)
    for _ in range(200):
        c, *zs = (_rpt(rng) for _ in range(5))
        want = apply_mobius(mobius_mutation(*zs), c)
        assert abs(mutate_about(c, *zs) - want) <= 1e-9 * max(1.0, abs(want))
    # a value at infinity takes the homogeneous path itself
    for args in [(INFINITY, 1, 1j, -1, -1j), (0.3j, INFINITY, 1j, -1, -1j),
                 (0.2, 1, 1j, INFINITY, -1j)]:
        assert mutate_about(*args) == apply_mobius(mobius_mutation(*args[1:]), args[0])
    # the pole of the map is the point at infinity
    assert mutate_about(0j, 1, 1j, -1, -1j) == 0j
    assert mutate_about(0j, 1, 1j, 2, -2j) is INFINITY
    with pytest.raises(ValueError):
        mutate_about(complex(float("nan"), 0), 1, 1j, -1, -1j)


def test_mutate_about_commutes_with_similarities():
    rng = np.random.default_rng(72)
    for _ in range(100):
        c, *zs = (_rpt(rng) for _ in range(5))
        a = 10.0 ** rng.uniform(-5, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        t = complex(*rng.uniform(-1e6, 1e6, 2))
        moved = mutate_about(a * (c + t), *(a * (z + t) for z in zs))
        assert abs(moved - a * (mutate_about(c, *zs) + t)) <= 1e-8 * abs(a)


def test_mutate_about_degeneracy_is_relative():
    # a gap of 1e-7 of the spread, far from the origin
    at = [1e6 + 0j, 1e6 + 1, 1e6 + 1 + 1e-7j, 1e6 - 1, 1e6 - 1j]
    with pytest.raises(ConsecutiveCoincidence):
        mobius_mutation(*at[1:])
    assert not is_infinite(mutate_about(*at))
    with pytest.raises(ConsecutiveCoincidence) as info:
        mutate_about(0j, 1, 1 + 1e-13, -1, -1j)
    assert info.value.tolerance == 1e-12 and info.value.scale == pytest.approx(1.0)
    with pytest.raises(DegenerateMap):
        mutate_about(0j, 1, 1 + 1e-4, 1 + 2e-4, 1 + 3e-4)


def test_mutation_coefficients_run_on_arrays():
    rng = np.random.default_rng(73)
    u = rng.normal(size=(4, 50)) + 1j * rng.normal(size=(4, 50))
    arrays = mutation_coefficients(*u)
    for m in range(50):
        scalars = mutation_coefficients(*(complex(x) for x in u[:, m]))
        for x, y in zip(arrays, scalars):
            assert abs(x[m] - y) <= 1e-13 * max(1.0, abs(y))
