"""Checks of each workload's outputs against the oracles.

Every check reads the program's output as data (JSON text, SVG text or
plain dicts) and compares it with a value computed in oracles.py, or
with a property the output must have.  A failed check raises
CheckFailed with the largest gap it saw.
"""

import json
import xml.etree.ElementTree as ET

import numpy as np

import oracles

# A centre may sit this far (times the longer period) off the recurrence.
# Today's completed sweeps drift by at most about 1e-9 of a period.
CENTRE_TOL = 1e-8
# Spread of a face's four corner radii, relative to their mean.
CIRCLE_TOL = 1e-7
STAR_RATIO_TOL = 1e-10
VERTEX_TOL = 1e-9
# Star-ratios of octahedral rings, relative to max(1, |value|).
OCTAHEDRON_TOL = 1e-8
PERMANENT_TOL = 1e-9
PROBABILITY_TOL = 1e-9

_SVG = "{http://www.w3.org/2000/svg}"


class CheckFailed(AssertionError):
    pass


def _require(ok, message, *args):
    if not ok:
        raise CheckFailed(message % args)


def _complex(v):
    _require(isinstance(v, list) and len(v) == 2, "expected [re, im], got %r", v)
    return complex(v[0], v[1])


def pattern_arrays(blob, rows, cols):
    """(centre array indexed [i, j], vertex dict, periods) of a pattern blob."""
    periods = tuple(_complex(v) for v in blob["periods"])
    centres = np.array([[_complex(blob["centers"][str(i * cols + j)])
                         for j in range(cols)] for i in range(rows)])
    vertices = {int(k): _complex(v) for k, v in blob["vertices"].items()}
    return centres, vertices, periods


def _graph(graph):
    edges = {e["id"]: (e["minus"], e["plus"], tuple(e.get("offset", (0, 0))))
             for e in graph["edges"]}
    faces = {f["id"]: [(eid, d == 1) for eid, d in f["edge_cycle"]]
             for f in graph["faces"]}
    return edges, faces


# -- dynamics -------------------------------------------------------------------

def check_face_circles(blob, periods):
    """Each face's corners, lifted along its walk, lie on a circle about its centre."""
    ox, oy = periods
    edges, faces = _graph(blob["graph"])
    vertices = {int(k): _complex(v) for k, v in blob["vertices"].items()}
    for fid, walk in faces.items():
        c = _complex(blob["centers"][str(fid)])
        shift = (0, 0)
        radii = []
        for eid, fwd in walk:
            minus, plus, off = edges[eid]
            start = minus if fwd else plus
            radii.append(abs(vertices[start] + shift[0] * ox + shift[1] * oy - c))
            sign = 1 if fwd else -1
            shift = (shift[0] + sign * off[0], shift[1] + sign * off[1])
        _require(shift == (0, 0), "face %d: walk offsets sum to %s", fid, shift)
        mean = sum(radii) / len(radii)
        _require(max(radii) - min(radii) <= CIRCLE_TOL * mean,
                 "face %d: corner radii spread %.3e of %.3e",
                 fid, max(radii) - min(radii), mean)


def check_square_grid_torus(graph, rows, cols):
    """The graph is the rows x cols square grid on the torus, face ids kept."""
    n = rows * cols
    edges, faces = _graph(graph)
    colours = {v["id"]: v["color"] for v in graph["vertices"]}
    _require(len(colours) == n and len(edges) == 2 * n and len(faces) == n,
             "%d vertices, %d edges, %d faces on a %dx%d torus",
             len(colours), len(edges), len(faces), rows, cols)
    _require(set(faces) == set(range(n)), "face ids are not 0..%d", n - 1)
    degree = dict.fromkeys(colours, 0)
    for minus, plus, _ in edges.values():
        _require(colours[minus] == -1 and colours[plus] == 1,
                 "edge %d-%d is not directed from colour -1 to +1", minus, plus)
        degree[minus] += 1
        degree[plus] += 1
    _require(set(degree.values()) == {4}, "vertex degrees %s", sorted(set(degree.values())))
    sides = oracles.face_sides(faces)
    for fid, walk in faces.items():
        _require(len(walk) == 4, "face %d has degree %d", fid, len(walk))
        starts = [edges[e][0] if fwd else edges[e][1] for e, fwd in walk]
        ends = [edges[e][1] if fwd else edges[e][0] for e, fwd in walk]
        _require(ends == starts[1:] + starts[:1], "face %d: walk does not close", fid)
        i, j = divmod(fid, cols)
        want = [i * cols + (j + 1) % cols, (i + 1) % rows * cols + j,
                i * cols + (j - 1) % cols, (i - 1) % rows * cols + j]
        got = [sides[e][not fwd] for e, fwd in walk]
        _require(any(got == want[k:] + want[:k] for k in range(4)),
                 "face %d: neighbours %s, want a rotation of %s", fid, got, want)


def check_sweep(blob, expected, rows, cols):
    """A pattern written after a sweep: centres equal the recurrence
    modulo the periods, faces are circles about their centres, and the
    graph is the square grid again."""
    centres, _, periods = pattern_arrays(blob, rows, cols)
    scale = max(abs(p) for p in periods)
    gap = float(oracles.period_distance(centres, expected, periods).max())
    _require(gap <= CENTRE_TOL * scale,
             "centre off the recurrence by %.3e (tolerance %.3e)", gap, CENTRE_TOL * scale)
    check_face_circles(blob, periods)
    check_square_grid_torus(blob["graph"], rows, cols)


# -- inspect --------------------------------------------------------------------

def check_inspect(blob, rows, cols, validate_report, star_report, svg_text, propagated):
    """Outputs of validate, star-ratios --json, export-svg and
    propagate_from_centers on one grid pattern."""
    centres, vertices, periods = pattern_arrays(blob, rows, cols)
    n = rows * cols

    report = json.loads(validate_report)
    _require(report.get("ok") is True and report.get("problems") == [],
             "validate reports %r", report)

    report = json.loads(star_report)
    _require(sorted(report["values"], key=int) == [str(f) for f in range(n)]
             and report["skipped"] == [],
             "%d star-ratios, %d skipped", len(report["values"]), len(report["skipped"]))
    got = np.array([_complex(report["values"][str(f)]) for f in range(n)])
    _require(report["all_real"] is True and report["all_positive"] is True,
             "star-ratios reported not all real positive")
    _require(bool(np.all(np.abs(got.imag) <= STAR_RATIO_TOL * np.abs(got)))
             and bool(np.all(got.real > 0)), "a star-ratio is not real positive")
    product = complex(np.prod(got))
    _require(abs(product - 1) <= 1e-9, "product of star-ratios is %r", product)
    want = oracles.grid_star_ratios(centres, periods).ravel()
    gap = float(np.max(np.abs(got - want) / np.abs(want)))
    _require(gap <= STAR_RATIO_TOL, "star-ratio off by %.3e relative", gap)

    root = ET.fromstring(svg_text)
    circles = [el for el in root.iter(_SVG + "circle") if el.get("class") == "face-circle"]
    _require(len(circles) == n, "SVG draws %d face circles for %d faces", len(circles), n)
    drawn = np.array([complex(float(el.get("cx")), -float(el.get("cy"))) for el in circles])
    gap = float(np.max(np.abs(drawn - centres.ravel())))
    _require(gap <= 1e-5, "SVG circle centre off by %.3e", gap)

    ids = sorted(vertices)
    _require(sorted(propagated) == ids, "propagated pattern has other vertices")
    gap = float(oracles.period_distance([propagated[v] for v in ids],
                                        [vertices[v] for v in ids], periods).max())
    scale = max(abs(p) for p in periods)
    _require(gap <= VERTEX_TOL * scale, "propagated vertex off by %.3e", gap)


# -- renewal --------------------------------------------------------------------

def renewal_expectation(before, after, face):
    """Permanents before and after the move at face, after checking that
    the edges off the move keep their weights and their probabilities.

    before and after are (edges {id: (minus, plus)}, weights {id: w},
    faces {id: [(edge, forward), ...]}).  Returns (Z before, Z after).
    """
    (e1, w1, f1), (e2, w2, f2) = before, after
    outside = oracles.edges_outside_move(f1, face)
    _require(outside == oracles.edges_outside_move(f2, face),
             "the move at face %d changes edges off its neighbourhood", face)
    for eid in outside:
        _require(e1[eid] == e2[eid] and abs(w1[eid] - w2[eid]) <= 1e-12 * w1[eid],
                 "edge %d off the move changed", eid)
    z1, p1 = oracles.edge_probabilities(e1, w1, outside)
    z2, p2 = oracles.edge_probabilities(e2, w2, outside)
    gap = max(abs(p1[e] - p2[e]) for e in outside)
    _require(gap <= PROBABILITY_TOL,
             "edge probability off the move at face %d changes by %.3e", face, gap)
    return z1, z2


def check_renewal(report_text, face, z_before, z_after):
    report = json.loads(report_text)
    _require(report.get("ok") is True and report.get("undefined") is False
             and report.get("face") == face, "renewal report %r", report)
    for key, want in (("z_before", z_before), ("z_after", z_after)):
        got = report[key]
        _require(abs(got - want) <= PERMANENT_TOL * abs(want),
                 "%s is %r, the permanent is %r", key, got, want)


# -- octahedral -----------------------------------------------------------------

def _dense_levels(values, x0, y0, shape, levels):
    """values {(x, y, level): z} as an array [level, x - x0, y - y0], NaN where absent."""
    V = np.full((len(levels),) + shape, np.nan, dtype=complex)
    index = {lev: k for k, lev in enumerate(levels)}
    for (x, y, lev), z in values.items():
        V[index[lev], x - x0, y - y0] = complex(z)
    return V


def _ring_star_ratios(V, centre, value):
    """Star-ratio of V[value] against the ring of V[centre], at every interior point."""
    ring = V[centre]
    with np.errstate(invalid="ignore"):
        return oracles.star_ratio(V[value][1:-1, 1:-1], ring[2:, 1:-1], ring[1:-1, 2:],
                                  ring[:-2, 1:-1], ring[1:-1, :-2])


def check_octahedral(values, window, trajectory, periods, transversal):
    """Propagated octahedral values against the centre recurrence.

    values is the propagated patch, window its ((x0, x1), (y0, y1),
    (z0, top)), trajectory[k] the centres after k sweeps and transversal
    the program's star-ratios at the top level.  Level z0 + 1 + k holds
    the centres after k sweeps, lifted to the universal cover; at every
    level the ring's star-ratio with the value below equals the one with
    the value above.
    """
    (x0, x1), (y0, y1), (z0, top) = window
    rows, cols = trajectory[0].shape
    ox, oy = periods
    levels = list(range(z0, top + 1))
    V = _dense_levels(values, x0, y0, (x1 - x0 + 1, y1 - y0 + 1), levels)
    xs, ys = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1), indexing="ij")
    lift = (xs // cols) * ox + (ys // rows) * oy
    scale = max(abs(ox), abs(oy))
    for k, lev in enumerate(levels):
        have = ~np.isnan(V[k])
        _require(bool(np.all((xs[have] + ys[have] + lev) % 2 == 0)),
                 "odd lattice point carries a value at level %d", lev)
        want = trajectory[max(lev - z0 - 1, 0)][ys % rows, xs % cols] + lift
        gap = float(np.max(np.abs(V[k][have] - want[have]), initial=0.0))
        _require(gap <= CENTRE_TOL * scale,
                 "level %d off the recurrence by %.3e", lev, gap)
    for k in range(1, len(levels) - 1):
        below = _ring_star_ratios(V, k, k - 1)
        above = _ring_star_ratios(V, k, k + 1)
        both = ~np.isnan(below) & ~np.isnan(above)
        gap = float(np.max(np.abs(below[both] - above[both]) /
                           np.maximum(1.0, np.abs(below[both])), initial=0.0))
        _require(gap <= OCTAHEDRON_TOL,
                 "star-ratio changes across level %d by %.3e", levels[k], gap)
    top_sr = _ring_star_ratios(V, len(levels) - 1, len(levels) - 2)
    ix, iy = np.nonzero(~np.isnan(top_sr))
    mine = {(int(a) + x0 + 1, int(b) + y0 + 1): top_sr[a, b] for a, b in zip(ix, iy)}
    _require(mine and set(transversal) == set(mine),
             "transversal star-ratios at %d points, want %d", len(transversal), len(mine))
    gap = max(abs(complex(transversal[p]) - mine[p]) / max(1.0, abs(mine[p])) for p in mine)
    _require(gap <= OCTAHEDRON_TOL, "transversal star-ratio off by %.3e", gap)
