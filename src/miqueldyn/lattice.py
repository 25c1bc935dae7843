"""Octahedral-lattice propagation and Miquel dynamics on torus patterns.

Values live on the even-parity points of an integer box.  A point
(x, y, z) with x+y+z odd is the center of a lattice octahedron; the
propagation equation transports the value below it to the value above
it by the mutation map of its four ring values

    z(x, y, c+1) = mob(z(x+1, y, c), z(x, y+1, c),
                       z(x-1, y, c), z(x, y-1, c)) (z(x, y, c-1)).

Two full consecutive levels (the Cauchy data) determine everything
above them on a window that loses one ring per level.  A Miquel
dynamics step on a torus pattern is the same equation applied to the
centers of every face of one parity class: the centres of the circles
form a Clifford lattice.  So on the square-grid torus the centres are
the whole state, and miquel_dynamics_step is one array recurrence over
them; vertices are reflected out of one anchor vertex only when a
pattern is read.  The graph-level miquel_move shares the sweep's kernel,
so it checks the sweep's charts and vertices; the oracle for a moved
centre is the homogeneous apply_mobius(mobius_mutation(...)).
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .circle_pattern import CirclePattern, validate_pattern
from .errors import (
    ConsecutiveCoincidence,
    ConstructionFailure,
    DegenerateMap,
    DegenerateRow,
    InfiniteCenter,
    MiquelDynError,
    MonodromyFailure,
    NotAGridTorus,
    OctahedronRelationFailure,
    StencilDegenerate,
    WindowExhausted,
)
from .geometry import (
    ABS_TOL,
    COINCIDE_RTOL,
    DETERMINANT_RTOL,
    REL_TOL,
    ExtendedComplex,
    apply_mobius,
    chordal,
    is_infinite,
    mobius_mutation,
    mutation_coefficients,
    star_ratio,
)
from .surface_graph import SurfaceGraph, build_square_grid_torus, validate_surface_graph

LatticePoint = Tuple[int, int, int]
Box = Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]

RELATION_TOL = 1e-10


@dataclass
class OctahedralPatch:
    """Values on the even-parity points of an integer box.

    window is ((x0, x1), (y0, y1), (z0, z1)) with inclusive bounds; the
    two levels z0 and z0+1 form the Cauchy data and must be complete
    over the x/y box.  Higher levels shrink by one ring each.
    """

    window: Box
    values: Dict[LatticePoint, ExtendedComplex] = field(default_factory=dict)

    def level_bounds(self, level: int) -> Tuple[int, int, int, int]:
        """x/y bounds of the lattice points available at a level."""
        (x0, x1), (y0, y1), (z0, _) = self.window
        shrink = max(0, level - (z0 + 1))
        return x0 + shrink, x1 - shrink, y0 + shrink, y1 - shrink

    def level_points(self, level: int) -> Iterator[LatticePoint]:
        ax0, ax1, ay0, ay1 = self.level_bounds(level)
        for x in range(ax0, ax1 + 1):
            for y in range(ay0, ay1 + 1):
                if (x + y + level) % 2 == 0:
                    yield (x, y, level)


def _check_cauchy(patch: OctahedralPatch) -> None:
    (_, _), (_, _), (z0, z1) = patch.window
    if z1 < z0 + 1:
        raise MiquelDynError("window must span at least two levels")
    for level in (z0, z0 + 1):
        for p in patch.level_points(level):
            if p not in patch.values:
                raise MiquelDynError("Cauchy data misses lattice point %s" % (p,))
    for p in patch.values:
        if sum(p) % 2:
            raise MiquelDynError("odd-parity point %s carries a value" % (p,))


def _ring(values: Dict[LatticePoint, ExtendedComplex], a: int, b: int, c: int):
    # cyclic order +x, +y, -x, -y around the octahedron center (a, b, c)
    return (values[(a + 1, b, c)], values[(a, b + 1, c)],
            values[(a - 1, b, c)], values[(a, b - 1, c)])


def propagate_octahedral(patch: OctahedralPatch, target_level: int) -> OctahedralPatch:
    """Fill levels above the Cauchy data up to target_level.

    Each new level loses one ring of the x/y window; running past the
    point where the window is empty raises WindowExhausted.  Coinciding
    consecutive ring values raise StencilDegenerate naming the center.
    """
    _check_cauchy(patch)
    (x0, x1), (y0, y1), (z0, z1) = patch.window
    if target_level <= z1:
        raise MiquelDynError("target level %d is already filled" % target_level)
    values = dict(patch.values)
    for level in range(z1 + 1, target_level + 1):
        out = OctahedralPatch(((x0, x1), (y0, y1), (z0, level)), values)
        filled = 0
        for (x, y, _) in out.level_points(level):
            center = (x, y, level - 1)
            try:
                ring = _ring(values, *center)
            except KeyError as missing:
                raise MiquelDynError(
                    "stencil at %s misses ring point %s" % (center, missing))
            try:
                mat = mobius_mutation(*ring)
            except ConsecutiveCoincidence as err:
                raise StencilDegenerate(
                    "stencil at %s: %s" % (center, err)) from err
            values[(x, y, level)] = apply_mobius(mat, values[(x, y, level - 2)])
            filled += 1
        if filled == 0:
            raise WindowExhausted(
                "window is empty at level %d before reaching %d"
                % (level, target_level))
    return OctahedralPatch(((x0, x1), (y0, y1), (z0, target_level)), values)


def transversal_star_ratios(patch: OctahedralPatch, level: int):
    """Star-ratio below each octahedron center on a level, keyed by (x, y).

    The star at odd center (x, y, level) weighs the value at
    (x, y, level-1) against the four ring values of the level; the
    propagation preserves it, so the value above gives the same ratio.
    """
    out: Dict[Tuple[int, int], ExtendedComplex] = {}
    ax0, ax1, ay0, ay1 = patch.level_bounds(level)
    for x in range(ax0 + 1, ax1):
        for y in range(ay0 + 1, ay1):
            if (x + y + level) % 2 == 0:
                continue
            below = (x, y, level - 1)
            if below not in patch.values:
                continue
            try:
                ring = _ring(patch.values, x, y, level)
            except KeyError:
                continue
            out[(x, y)] = star_ratio(patch.values[below], *ring)
    return out


def octahedra_of(patch: OctahedralPatch) -> Iterator[Tuple[LatticePoint, Tuple]]:
    """All fully populated octahedra: center and its three axis pairs."""
    (_, _), (_, _), (z0, z1) = patch.window
    for c in range(z0 + 1, z1):
        ax0, ax1, ay0, ay1 = patch.level_bounds(c + 1)
        for x in range(ax0, ax1 + 1):
            for y in range(ay0, ay1 + 1):
                if (x + y + c) % 2 == 0:
                    continue
                needed = [(x + 1, y, c), (x - 1, y, c), (x, y + 1, c),
                          (x, y - 1, c), (x, y, c + 1), (x, y, c - 1)]
                if any(p not in patch.values for p in needed):
                    continue
                v = patch.values
                pairs = ((v[needed[0]], v[needed[1]]),
                         (v[needed[2]], v[needed[3]]),
                         (v[needed[4]], v[needed[5]]))
                yield (x, y, c), pairs


def direction_star_ratios(x_pair, y_pair, z_pair, tol: float = RELATION_TOL):
    """The three directional star-ratios of one octahedron.

    Arguments are the (plus, minus) value pairs along the three axes.
    Returns (sr1, sr2, sr3) where sr1 is the star along z, sr2 along y
    and sr3 along x; on a closed octahedron they satisfy

        sr2 = -1 / (1 + sr1),   sr3 = -(1 + 1/sr1),   sr1 sr2 sr3 = 1,

    checked within tol (OctahedronRelationFailure otherwise).  In
    particular a positive sr1 forces both transversal ratios negative.
    """
    xp, xm = x_pair
    yp, ym = y_pair
    zp, zm = z_pair
    sr1 = star_ratio(zm, xp, yp, xm, ym)
    sr2 = star_ratio(yp, zp, xp, zm, xm)
    sr3 = star_ratio(xp, yp, zp, ym, zm)
    if any(is_infinite(s) for s in (sr1, sr2, sr3)):
        raise OctahedronRelationFailure("infinite directional star-ratio")
    gap2 = chordal(sr2, -1.0 / (1.0 + sr1))
    gap3 = chordal(sr3, -(1.0 + 1.0 / sr1))
    gap_prod = abs(sr1 * sr2 * sr3 - 1.0)
    if max(gap2, gap3, gap_prod) > tol:
        raise OctahedronRelationFailure(
            "octahedron relations violated: %.3e %.3e %.3e"
            % (gap2, gap3, gap_prod))
    return sr1, sr2, sr3


def torus_displacement(a, b, periods) -> float:
    """Distance between two representatives modulo the period lattice.

    Mutation moves re-anchor face frames, so center representatives can
    legitimately jump by integer period combinations; this removes the
    nearest lattice vector before measuring.
    """
    if is_infinite(a) or is_infinite(b):
        return 0.0 if is_infinite(a) and is_infinite(b) else math.inf
    ox, oy = periods
    diff = complex(a) - complex(b)
    det = ox.real * oy.imag - ox.imag * oy.real
    if det == 0:
        raise MiquelDynError("periods are linearly dependent")
    s = (diff.real * oy.imag - diff.imag * oy.real) / det
    t = (ox.real * diff.imag - ox.imag * diff.real) / det
    return abs(diff - round(s) * ox - round(t) * oy)


# -- Miquel dynamics on the square-grid torus ------------------------------

# Tolerances of the array sweep.  Each is relative, so a sweep commutes
# with translating, scaling and rotating the pattern.  The kernel's two,
# COINCIDE_RTOL and DETERMINANT_RTOL, are geometry's.
VERTEX_RTOL = 1e-9        # closure and concyclicity gaps / radius of the face


@dataclass(eq=False)
class TorusPatternState:
    """Miquel dynamics state on the rows x cols square-grid torus.

    centers[i, j] is the centre of face (i, j), id i*cols + j, and anchor
    the position of grid vertex (0, 0), both in one chart of the
    universal cover: the chart in which every face of
    build_square_grid_torus(rows, cols) has its walk frame.  Across the
    last column a neighbour is shifted by periods[0], across the last row
    by periods[1].  The centres are the dynamical state; the anchor only
    fixes where the vertices go.  step_parity is the face parity class
    (i + j) % 2 that moves next.  pattern builds the CirclePattern on
    first use, on the canonical grid graph.
    """

    centers: np.ndarray
    periods: Tuple[complex, complex]
    anchor: complex
    step_parity: int = 0
    _pattern: Optional[CirclePattern] = field(default=None, repr=False)

    def __post_init__(self):
        # the sweep moves a whole parity class at once, which needs every
        # face's neighbours, across the wraps too, to have the other parity
        Z = self.centers
        if not (isinstance(Z, np.ndarray) and Z.ndim == 2 and np.iscomplexobj(Z)):
            raise MiquelDynError("centers must be a 2-D complex array")
        if Z.shape[0] % 2 or Z.shape[1] % 2:
            raise MiquelDynError("grid dimensions must be even")

    @property
    def rows(self) -> int:
        return self.centers.shape[0]

    @property
    def cols(self) -> int:
        return self.centers.shape[1]

    @property
    def pattern(self) -> CirclePattern:
        if self._pattern is None:
            self._pattern = _grid_pattern(self)
        return self._pattern


@functools.lru_cache(maxsize=8)
def _grid_graph(rows: int, cols: int):
    # graphs are frozen, so every pattern of one shape shares its graph
    return build_square_grid_torus(rows, cols)


def make_torus_state(pattern: CirclePattern, rows: int, cols: int,
                     step_parity: int = 0) -> TorusPatternState:
    """Dynamics state of a valid rows x cols square-grid torus pattern.

    Face (i, j) must have id i*cols + j, with faces (i, j+1) and (i+1, j)
    across its edges towards periods[0] and periods[1]; vertex and edge
    ids and the walk frames may be anything.  The state's pattern is the
    given one until the first sweep.

    What depends on the graph alone is worked out once per graph object
    and kept in its memo: its validity, the walk incidence as index
    arrays (_quad_index) and each face's frame in the chart
    (_grid_frames).  Per pattern, _valid_centres makes the checks of
    validate_pattern on arrays and the centres are lifted into the chart
    in one expression.  Whenever the array checks do not vouch for the
    pattern, validate_pattern runs and gives the diagnostics.
    """
    if rows % 2 or cols % 2:
        raise MiquelDynError("grid dimensions must be even")
    values = _valid_centres(pattern)
    if values is None:
        problems = validate_pattern(pattern)
        if problems:
            raise MiquelDynError("invalid pattern: " + "; ".join(problems))
    centers, anchor = _grid_chart(pattern, rows, cols, values)
    return TorusPatternState(centers, pattern.periods, anchor, step_parity % 2,
                             pattern)


class _QuadIndex(NamedTuple):
    """The walk incidence of a graph of quad faces, as index arrays.

    Faces and vertices are numbered by their place in face_ids and
    vertex_ids, the sorted ids.  Edge e, in sorted id order, runs from
    vertex minus[e] to plus[e] with offset[e].  Step k of face f's walk
    starts at corners[f, k], with cover shift shifts[f, k] (face_shifts),
    and has face nbrs[f, k] across it, align[f, k] its slot_alignment.
    left, right and across are those of the one step that traverses
    each edge forward.  Shared through the graph's memo: read-only.
    """

    face_ids: list
    vertex_ids: list
    minus: np.ndarray
    plus: np.ndarray
    offset: np.ndarray
    corners: np.ndarray
    shifts: np.ndarray
    nbrs: np.ndarray
    align: np.ndarray
    left: np.ndarray
    right: np.ndarray
    across: np.ndarray


def _quad_index(g: SurfaceGraph) -> Optional[_QuadIndex]:
    """The graph's _QuadIndex, None unless g is valid and every face is
    a quad.  None is not memoised: that graph is worked out again, which
    costs a scan of its walks."""
    return g._memo("quad_index", lambda: _build_quad_index(g))


def _build_quad_index(g: SurfaceGraph) -> Optional[_QuadIndex]:
    if validate_surface_graph(g) or any(len(walk) != 4 for walk in g.faces.values()):
        return None
    face_ids, vertex_ids, edge_ids = sorted(g.faces), sorted(g.vertex_color), sorted(g.edges)
    ends = np.array([(e.minus, e.plus) + e.offset for e in map(g.edges.get, edge_ids)])
    minus = np.searchsorted(vertex_ids, ends[:, 0])
    plus = np.searchsorted(vertex_ids, ends[:, 1])
    offset = ends[:, 2:]
    # steps[f, k] = (edge position, forward flag)
    steps = np.array([g.faces[f] for f in face_ids])
    e, fwd = np.searchsorted(edge_ids, steps[..., 0]), steps[..., 1].astype(bool)
    corners = np.where(fwd, minus[e], plus[e])
    walk = np.zeros((len(face_ids), 5, 2), dtype=int)
    walk[:, 1:] = np.cumsum(np.where(fwd[..., None], offset[e], -offset[e]), axis=1)
    # the other step along each edge: its two steps are 2e + forward
    at = np.empty(2 * len(edge_ids), dtype=int)
    at[2 * e + fwd] = np.arange(e.size).reshape(e.shape)
    nbrs, p = np.divmod(at[2 * e + ~fwd], 4)
    f, k = np.indices(e.shape)
    near = np.where(fwd[..., None], walk[f, k], walk[f, k + 1])
    far = np.where(fwd[..., None], walk[nbrs, p + 1], walk[nbrs, p])
    align = near - far
    return _QuadIndex(face_ids, vertex_ids, minus, plus, offset, corners,
                      walk[:, :4], nbrs, align, f[fwd], nbrs[fwd], align[fwd])


def _lift(shift: np.ndarray, periods) -> np.ndarray:
    """shift[..., 0] periods[0] + shift[..., 1] periods[1], and exactly 0j
    where the shift is (0, 0): circle_pattern._omega on arrays."""
    ox, oy = periods
    out = shift[..., 0] * ox + shift[..., 1] * oy
    out[~shift.any(axis=-1)] = 0
    return out


def _values(points: dict, ids: list) -> Optional[np.ndarray]:
    """points[i] for i in ids as a complex array; None if one is missing
    or is not a number (INFINITY, say)."""
    try:
        return np.fromiter(map(points.__getitem__, ids), complex, len(ids))
    except (KeyError, TypeError, ValueError):
        return None


def _apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where geometry.close(a, b) is false; a NaN counts as close."""
    return np.abs(a - b) > np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(a), np.abs(b)))


PATTERN_RTOL = 1e-9  # the rtol make_torus_state validates with, validate_pattern's default


def _valid_centres(p: CirclePattern) -> Optional[np.ndarray]:
    """The centres by sorted face id if p passes every check of
    validate_pattern, else None.

    The checks and their arithmetic are validate_pattern's, each in the
    frame of the face it belongs to, so acceptance means that
    validate_pattern(p) is empty.  None only means that these checks do
    not vouch for p: a value at INFINITY, a missing key, a graph that is
    not all quads or has boundary faces, or any flagged or NaN residual.
    """
    q = _quad_index(p.graph)
    if q is None or p.graph.boundary_faces or p.periods is None:
        return None
    V = _values(p.vertex_points, q.vertex_ids)
    C = _values(p.center_points, q.face_ids)
    if V is None or C is None:
        return None
    if not _apart(V[q.minus], V[q.plus] + _lift(q.offset, p.periods)).all():
        return None
    if not _apart(C[q.left], C[q.right] + _lift(q.across, p.periods)).all():
        return None
    radii = np.abs(V[q.corners] + _lift(q.shifts, p.periods) - C[:, None])
    mean = (radii[:, 0] + radii[:, 1] + radii[:, 2] + radii[:, 3]) / 4
    spread = radii.max(axis=1) - radii.min(axis=1)
    if not ((mean != 0) & (spread <= PATTERN_RTOL * mean)).all():
        return None
    return C


# east, north, west, south: slot m of face (i, j) is east_slot + m
_GRID_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))


def _grid_frames(g: SurfaceGraph, rows: int, cols: int):
    """Frame offsets of the faces of a valid grid torus graph, and face
    0's east slot; NotAGridTorus if g is not the rows x cols grid.

    A face's east slot is the one whose neighbour is face (i, j+1); on
    the 2x2 torus, where the east and west neighbours are one face, it
    is the one that lifts that face one period[0] further than the west
    slot does.  Each face's frame offset from face 0's is accumulated
    along row 0 and then up the columns, never across a wrap, and every
    slot of every face is checked against the grid.  Depends on the
    graph only, so it runs once per graph and shape.
    """
    return g._memo(("grid_frames", rows, cols), lambda: _build_grid_frames(g, rows, cols))


def _build_grid_frames(g: SurfaceGraph, rows: int, cols: int):
    n = rows * cols
    if g.surface != "torus" or sorted(g.faces) != list(range(n)):
        raise NotAGridTorus("not a %dx%d grid torus: face ids must be 0..%d"
                            % (rows, cols, n - 1))
    q = _quad_index(g)
    if q is None:
        f = next(f for f, walk in g.faces.items() if len(walk) != 4)
        sides = g.edge_sides()
        raise NotAGridTorus("not a %dx%d grid torus: face %d has neighbours %s"
                            % (rows, cols, f, [sides[e][not fwd] for e, fwd in g.faces[f]]))
    i, j = np.divmod(np.arange(n), cols)
    want = np.stack([(i + di) % rows * cols + (j + dj) % cols
                     for di, dj in _GRID_STEPS], axis=1)
    wrap = np.stack([np.stack([(j + dj) // cols, (i + di) // rows], axis=-1)
                     for di, dj in _GRID_STEPS], axis=1)
    # match[f, k]: the neighbours from slot k on are the grid's from east on
    match = np.stack([(np.roll(q.nbrs, -k, axis=1) == want).all(axis=1)
                      for k in range(4)], axis=1)
    east_lift = (q.align - np.roll(q.align, -2, axis=1) == (1, 0)).all(axis=-1)
    match &= (match.sum(axis=1) == 1)[:, None] | east_lift
    found = match.sum(axis=1) == 1
    if not found.all():
        f = next(f for f in g.faces if not found[f])
        raise NotAGridTorus("not a %dx%d grid torus: face %d has neighbours %s"
                            % (rows, cols, f, q.nbrs[f].tolist()))
    east = match.argmax(axis=1)
    # align of the east, north, west and south slots
    align = q.align[np.arange(n)[:, None], (east[:, None] + np.arange(4)) % 4]
    step = align.reshape(rows, cols, 4, 2)
    frame = np.zeros((rows, cols, 2), dtype=int)
    frame[0, 1:] = np.cumsum(step[0, :-1, 0], axis=0)
    frame[1:] = frame[0] + np.cumsum(step[:-1, :, 1], axis=0)
    frame = frame.reshape(n, 2)
    # the same offsets must hold across every edge, wraps included
    lifted = (frame[:, None] + align == frame[want] + wrap).all(axis=-1)
    if not lifted.all():
        f = int(np.flatnonzero(~lifted.all(axis=1))[0])
        m = int(np.flatnonzero(~lifted[f])[0])
        raise NotAGridTorus("not a %dx%d grid torus: face %d is not lifted to face %d "
                            "along the grid" % (rows, cols, f, want[f, m]))
    frame.flags.writeable = False
    return frame, int(east[0])


def _grid_chart(p: CirclePattern, rows: int, cols: int,
                values: Optional[np.ndarray]):
    """Centres of a valid grid torus pattern in face 0's frame, and the
    anchor, grid vertex (0, 0) there.

    values are the centres by face id, or None to read them from p.  Every slot of every
    face is checked against the grid (_grid_frames) before any value is
    read.
    """
    frame, east = _grid_frames(p.graph, rows, cols)
    if values is None:
        for f in range(rows * cols):
            if is_infinite(p.center_points[f]):
                raise InfiniteCenter("face %d: centre at infinity" % f, face=f)
        values = np.array([p.center_points[f] for f in range(rows * cols)], dtype=complex)
    centers = (values + _lift(frame, p.periods)).reshape(rows, cols)
    anchor = p.lifted_face_vertices(0)[(east - 1) % 4]
    if is_infinite(anchor):
        raise InfiniteCenter("face 0: corner at infinity", face=0)
    return centers, complex(anchor)


@functools.lru_cache(maxsize=16)
def _stencil(rows: int, cols: int, parity: int):
    """Faces of one parity class and their neighbours, as flat indices.

    Returns (ids, nbrs, kx, ky): nbrs[m] holds the south, east, north
    and west neighbours of the faces ids in the cyclic slot order of the
    grid walks, each to be lifted into the chart by kx periods[0] +
    ky periods[1].  The arrays are shared, so they are read-only.
    """
    i, j = np.divmod(np.arange(rows * cols), cols)
    ids = np.flatnonzero((i + j) % 2 == parity)
    ni = i[ids] + np.array([-1, 0, 1, 0])[:, None]
    nj = j[ids] + np.array([0, 1, 0, -1])[:, None]
    out = (ids, ni % rows * cols + nj % cols, nj // cols, ni // rows)
    for a in out:
        a.flags.writeable = False
    return out


def _raise_at(error, message: str, bad: np.ndarray, ids: np.ndarray,
              residual: np.ndarray, tolerance: float, scale: np.ndarray) -> None:
    """Raise error at the lowest face id among the flagged entries."""
    k = int(np.flatnonzero(bad)[0])
    f = int(ids[k])
    raise error("face %d: %s" % (f, message), face=f, residual=float(residual[k]),
                tolerance=tolerance, scale=float(scale[k]))


def _mutated_centers(C: np.ndarray, nbrs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The mutation map of each face's four neighbours applied to its centre.

    nbrs[k] are the lifted neighbour centres z_k in cyclic order and ids
    the face ids of the entries.  The map is evaluated with
    w_k = z_k - C in units of the spread s = max |w_k|, where it sends 0
    to -c3(w) / c2(w): geometry.mutate_about over arrays, with a moved
    centre at infinity an error.
    """
    w = nbrs - C
    spread = np.abs(w).max(axis=0)
    u = w / np.where(spread > 0, spread, 1.0)
    gap = np.abs(u - u[[1, 2, 3, 0]]).min(axis=0)
    bad = gap <= COINCIDE_RTOL
    if bad.any():
        _raise_at(ConsecutiveCoincidence, "consecutive neighbour centres coincide",
                  bad, ids, gap, COINCIDE_RTOL, spread)
    c2, c3, det = mutation_coefficients(*u)
    bad = det <= DETERMINANT_RTOL
    if bad.any():
        _raise_at(DegenerateMap, "mutation map has numerically vanishing determinant",
                  bad, ids, det, DETERMINANT_RTOL, spread)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        new = C - spread * (c3 / c2)
    bad = ~np.isfinite(new)
    if bad.any():
        _raise_at(InfiniteCenter, "moved centre is at infinity",
                  bad, ids, np.abs(c2), 0.0, spread)
    return new


def _reflect(z, a, b):
    """Reflection of z in the line through a and b (arrays or scalars)."""
    d = b - a
    return a + d / d.conjugate() * (z - a).conjugate()


def miquel_dynamics_step(state: TorusPatternState) -> TorusPatternState:
    """Move every face of the current parity class and flip the parity.

    Each moving face's centre goes through the mutation map of its four
    lifted neighbours, all at once, which is exact because same-parity
    faces share no moved data.  The anchor goes to the second
    intersection of the two unmoved circles through grid vertex (0, 0),
    its reflection in the line through their centres.  Vertices are not
    stored, so none can drift off its circles; they are derived when the
    pattern is read.
    """
    Z, periods, parity = state.centers, state.periods, state.step_parity
    rows, cols = Z.shape
    ox, oy = periods
    ids, nbrs, kx, ky = _stencil(rows, cols, parity)
    flat = Z.ravel()
    out = flat.copy()
    out[ids] = _mutated_centers(flat[ids], flat[nbrs] + (kx * ox + ky * oy), ids)
    out = out.reshape(rows, cols)
    if parity == 0:   # faces (0, -1) and (-1, 0) stay at vertex (0, 0)
        a, b = Z[0, -1] - ox, Z[-1, 0] - oy
    else:             # faces (0, 0) and (-1, -1) stay
        a, b = Z[0, 0], Z[-1, -1] - ox - oy
    anchor = complex(_reflect(state.anchor, complex(a), complex(b)))
    return TorusPatternState(out, periods, anchor, 1 - parity)


class VertexGrid(NamedTuple):
    """Vertices of a grid torus state and the relative residuals per face.

    points[i, j] is grid vertex (i, j), id i*cols + j, in the state's
    chart; radius[i, j] the mean distance of face (i, j)'s corners from
    its centre; closure[i, j] the gap between the vertex (i, j) reached
    across a wrap and the stored one, over that radius (zero off row 0
    and column 0); concyclic[i, j] the spread of the corner distances
    over that radius.
    """

    points: np.ndarray
    radius: np.ndarray
    closure: np.ndarray
    concyclic: np.ndarray


def torus_vertices(state: TorusPatternState) -> VertexGrid:
    """Grid vertices reflected out of the anchor, and their residuals.

    Down column 0, each vertex is the reflection of the one below in the
    line through the centres on either side of their edge; then every
    row at once, column by column, the same across the edges of each
    column.  Rows and columns run one past the torus, so that the last
    vertices come back across the wraps to be checked against the first.
    """
    Z, (ox, oy) = state.centers, state.periods
    rows, cols = Z.shape
    # P[i + 1, j + 1] is face (i, j) for -1 <= i <= rows and -1 <= j <= cols
    P = np.pad(Z, 1, mode="wrap")
    P[0] -= oy
    P[-1] += oy
    P[:, 0] -= ox
    P[:, -1] += ox
    V = np.empty((rows + 1, cols + 1), dtype=complex)
    left, right = P[1:-1, 0].tolist(), P[1:-1, 1].tolist()
    column = [complex(state.anchor)]
    for i in range(rows):
        column.append(_reflect(column[i], left[i], right[i]))
    V[:, 0] = column
    for j in range(cols):
        V[:, j + 1] = _reflect(V[:, j], P[:-1, j + 1], P[1:, j + 1])

    points = V[:-1, :-1].copy()
    top = V[-1, :-1] - oy
    far = V[:-1, -1] - ox
    # corners as the pattern stores them: the wraps lift the first ones
    V[-1, :-1] = points[0] + oy
    V[:-1, -1] = points[:, 0] + ox
    V[-1, -1] = points[0, 0] + ox + oy
    radii = np.abs(np.stack([V[:-1, :-1], V[:-1, 1:], V[1:, 1:], V[1:, :-1]]) - Z)
    radius = radii.mean(axis=0)
    concyclic = (radii.max(axis=0) - radii.min(axis=0)) / radius
    closure = np.zeros((rows, cols))
    closure[0] = np.abs(top - points[0]) / radius[0]
    closure[:, 0] = np.maximum(closure[:, 0], np.abs(far - points[:, 0]) / radius[:, 0])
    return VertexGrid(points, radius, closure, concyclic)


def _grid_pattern(state: TorusPatternState) -> CirclePattern:
    """The state's circle pattern on the canonical grid graph."""
    grid = torus_vertices(state)
    ids = np.arange(grid.points.size)
    for error, residual, message in (
            (MonodromyFailure, grid.closure,
             "reflections of the anchor do not close across the wrap"),
            (ConstructionFailure, grid.concyclic,
             "corners are not concyclic about the centre")):
        bad = ~(residual <= VERTEX_RTOL).ravel()
        if bad.any():
            _raise_at(error, message, bad, ids, residual.ravel(), VERTEX_RTOL,
                      grid.radius.ravel())
    return CirclePattern(_grid_graph(state.rows, state.cols),
                         dict(enumerate(grid.points.ravel().tolist())),
                         dict(enumerate(state.centers.ravel().tolist())),
                         state.periods)


def _sample_spacings(rng, count: int, spread: float, retries: int = 100):
    """Positive grid spacings 1 + spread*U(-1/2, 1/2), resampled if tiny."""
    if spread < 0:
        raise DegenerateRow("spread must be nonnegative")
    out = []
    for _ in range(count):
        for attempt in range(retries + 1):
            gap = 1.0 + spread * rng.uniform(-0.5, 0.5)
            if gap > 1e-9:
                out.append(gap)
                break
            if attempt == retries:
                raise DegenerateRow(
                    "no admissible spacing after %d retries" % retries)
    return out


def generate_kasteleyn_cauchy_data(rows: int, cols: int, seed: int,
                                   spread: float = 0.5) -> CirclePattern:
    """Random rectangular torus pattern with an all-real-positive field.

    Vertices sit on a rectangular grid with seeded row/column spacings;
    every face center is the crossing of its diagonals' perpendicular
    bisectors, which keeps every star-ratio real and positive (the
    Kasteleyn condition).  spread 0 gives the regular isoradial pattern;
    the same seed always reproduces the same pattern.
    """
    if rows % 2 or cols % 2 or rows < 2 or cols < 2:
        raise MiquelDynError("grid dimensions must be even and at least 2")
    rng = np.random.default_rng(seed)
    dx = _sample_spacings(rng, cols, spread)
    dy = _sample_spacings(rng, rows, spread)
    xs = [0.0]
    for gap in dx:
        xs.append(xs[-1] + gap)
    ys = [0.0]
    for gap in dy:
        ys.append(ys[-1] + gap)

    g = _grid_graph(rows, cols)
    vertex_points = {i * cols + j: complex(xs[j], ys[i])
                     for i in range(rows) for j in range(cols)}
    center_points = {i * cols + j: complex((xs[j] + xs[j + 1]) / 2.0,
                                           (ys[i] + ys[i + 1]) / 2.0)
                     for i in range(rows) for j in range(cols)}
    periods = (complex(xs[cols], 0.0), complex(0.0, ys[rows]))
    return CirclePattern(g, vertex_points, center_points, periods)


def patch_from_pattern(state: TorusPatternState, pad: int = 2) -> OctahedralPatch:
    """Cauchy data from a torus pattern's centers on the universal cover.

    Lattice x runs along columns and y along rows; face (i, j) sits at
    (x, y) = (j, i) with copies shifted by the periods.  Faces of the
    parity class that moves next land on the base level z0 = step_parity
    (which makes the lattice parities come out even), the others on
    z0 + 1, so one dynamics step computes exactly level z0 + 2.
    """
    rows, cols = state.rows, state.cols
    centers = state.centers.tolist()
    ox, oy = state.periods
    z0 = state.step_parity
    values: Dict[LatticePoint, ExtendedComplex] = {}
    for x in range(-pad, cols + pad):
        for y in range(-pad, rows + pad):
            lift = centers[y % rows][x % cols] \
                + (x - x % cols) // cols * ox + (y - y % rows) // rows * oy
            par = ((y % rows) + (x % cols)) % 2
            level = z0 if par == state.step_parity else z0 + 1
            if (x + y + level) % 2:
                raise MiquelDynError("face parity disagrees with lattice parity")
            values[(x, y, level)] = lift
    window = ((-pad, cols + pad - 1), (-pad, rows + pad - 1), (z0, z0 + 1))
    return OctahedralPatch(window, values)
