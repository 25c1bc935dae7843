"""Canonical JSON for graphs, patterns, drawings, weights, and patches.

Every emitter produces one canonical byte form: keys sorted, no
whitespace, floats printed with 17 significant digits (enough to round
trip a double), the point at infinity as the string "inf".  Files are
written atomically so a crashed run never leaves a half-written file.
canonical_dumps is the one emitter: a single pass appends every token to
one list, which is joined once.
"""

import contextlib
import json
import math
import os
import tempfile
from typing import TYPE_CHECKING, Dict, Iterator, List, TextIO

from .circle_pattern import CirclePattern, FaceDrawing
from .errors import SchemaError
from .geometry import Circle, INFINITY, is_infinite
from .surface_graph import Edge, SurfaceGraph, validate_surface_graph

if TYPE_CHECKING:
    from .lattice import OctahedralPatch


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise SchemaError("non-finite number in canonical JSON")
    if x == 0.0:
        return "0"
    # "%.17g" keeps an exact short form for integral values
    return "%.17g" % x


# json.dumps quotes a string this way (ensure_ascii) after a slower setup
_quote = json.encoder.encode_basestring_ascii


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, %.17g floats."""
    out: List[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: List[str]) -> None:
    # exact containers first; every other value takes the checks below in
    # their old order, so subclasses and numpy scalars keep their rules
    t = type(obj)
    if t is list or t is tuple:
        _emit_array(obj, out)
    elif t is dict:
        _emit_object(obj, out)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int):
        # not repr(): an IntEnum member must print as its value
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, (list, tuple)):
        _emit_array(obj, out)
    elif isinstance(obj, dict):
        _emit_object(obj, out)
    else:
        raise SchemaError("cannot serialize %r" % type(obj))


# The two container loops write exact floats and ints in place: they are
# nearly every value in a pattern, and a call per value would cost more
# than the formatting.

def _emit_array(items, out: List[str]) -> None:
    append = out.append
    append("[")
    first = True
    for v in items:
        if first:
            first = False
        else:
            append(",")
        t = type(v)
        if t is float:
            append(_fmt_float(v))
        elif t is int:
            append(int.__repr__(v))
        else:
            _emit(v, out)
    append("]")


def _emit_object(obj, out: List[str]) -> None:
    for k in obj:
        if not isinstance(k, str):
            raise SchemaError("canonical JSON keys must be strings")
    append = out.append
    append("{")
    first = True
    for k in sorted(obj):
        if first:
            first = False
        else:
            append(",")
        append(_quote(k))
        append(":")
        v = obj[k]
        t = type(v)
        if t is float:
            append(_fmt_float(v))
        elif t is int:
            append(int.__repr__(v))
        else:
            _emit(v, out)
    append("}")


@contextlib.contextmanager
def open_text_atomic(path: str) -> Iterator[TextIO]:
    """A text handle whose contents replace path only once the block
    exits normally; on an exception path is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    with open_text_atomic(path) as handle:
        handle.write(text)


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, canonical_dumps(obj) + "\n")


def read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


# -- scalar values ---------------------------------------------------------

def complex_to_json(z):
    if is_infinite(z):
        return "inf"
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v):
    if v == "inf":
        return INFINITY
    if isinstance(v, (list, tuple)) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise SchemaError("non-finite coordinate in %r" % (v,))
        return z
    raise SchemaError("expected [re, im] or \"inf\", got %r" % (v,))


def circle_to_json(c: Circle) -> Dict:
    if c.is_line():
        return {"kind": "line", "a": complex_to_json(c.p), "b": complex_to_json(c.q)}
    return {"kind": "circle", "center": complex_to_json(c.center),
            "radius": float(c.radius)}


def _finite_from_json(v) -> complex:
    z = complex_from_json(v)
    if is_infinite(z):
        raise SchemaError("expected a finite point, got \"inf\"")
    return complex(z)


def circle_from_json(d) -> Circle:
    if not isinstance(d, dict) or "kind" not in d:
        raise SchemaError("circle object needs a \"kind\" field")
    try:
        if d["kind"] == "line":
            return Circle.make_line(_finite_from_json(d["a"]),
                                    _finite_from_json(d["b"]))
        if d["kind"] == "circle":
            return Circle.make_circle(_finite_from_json(d["center"]),
                                      float(d["radius"]))
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError("malformed circle JSON: %s" % err) from err
    raise SchemaError("unknown circle kind %r" % d["kind"])


# -- surface graphs --------------------------------------------------------

def graph_to_json(g: SurfaceGraph) -> Dict:
    edges: List[Dict] = []
    for eid in sorted(g.edges):
        e = g.edges[eid]
        entry: Dict = {"id": eid, "minus": e.minus, "plus": e.plus}
        if e.offset != (0, 0):
            entry["offset"] = list(e.offset)
        edges.append(entry)
    faces = [{"id": fid,
              "edge_cycle": [[eid, 1 if fwd else -1] for eid, fwd in g.faces[fid]]}
             for fid in sorted(g.faces)]
    out = {
        "surface": g.surface,
        "vertices": [{"id": v, "color": g.vertex_color[v]}
                     for v in sorted(g.vertex_color)],
        "edges": edges,
        "faces": faces,
    }
    if g.boundary_faces:
        out["boundary_faces"] = sorted(g.boundary_faces)
    return out


def graph_from_json(d) -> SurfaceGraph:
    try:
        colors = {int(v["id"]): int(v["color"]) for v in d["vertices"]}
        edges = {}
        for e in d["edges"]:
            offset = tuple(e.get("offset", (0, 0)))
            edges[int(e["id"])] = Edge(minus=int(e["minus"]), plus=int(e["plus"]),
                                       offset=(int(offset[0]), int(offset[1])))
        faces = {}
        for f in d["faces"]:
            steps = []
            for eid, direction in f["edge_cycle"]:
                if direction not in (1, -1):
                    raise SchemaError("edge_cycle direction must be 1 or -1")
                steps.append((int(eid), direction == 1))
            faces[int(f["id"])] = tuple(steps)
        boundary = frozenset(int(b) for b in d.get("boundary_faces", ()))
        g = SurfaceGraph(surface=d["surface"], vertex_color=colors,
                         edges=edges, faces=faces, boundary_faces=boundary)
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError("malformed graph JSON: %s" % err) from err
    problems = validate_surface_graph(g)
    if problems:
        raise SchemaError("graph fails validation: " + "; ".join(problems))
    return g


# -- patterns and drawings ---------------------------------------------------

def _periods_to_json(periods):
    if periods is None:
        return None
    return [complex_to_json(periods[0]), complex_to_json(periods[1])]


def _periods_from_json(v):
    if v is None:
        return None
    return (complex_from_json(v[0]), complex_from_json(v[1]))


def pattern_to_json(p: CirclePattern) -> Dict:
    out = {
        "graph": graph_to_json(p.graph),
        "vertices": {str(v): complex_to_json(z)
                     for v, z in p.vertex_points.items()},
        "centers": {str(f): complex_to_json(z)
                    for f, z in p.center_points.items()},
    }
    if p.periods is not None:
        out["periods"] = _periods_to_json(p.periods)
    return out


def pattern_from_json(d) -> CirclePattern:
    try:
        g = graph_from_json(d["graph"])
        vertices = {int(k): complex_from_json(v) for k, v in d["vertices"].items()}
        centers = {int(k): complex_from_json(v) for k, v in d["centers"].items()}
    except (KeyError, TypeError, AttributeError) as err:
        raise SchemaError("malformed pattern JSON: %s" % err) from err
    return CirclePattern(g, vertices, centers, _periods_from_json(d.get("periods")))


def drawing_to_json(d: FaceDrawing) -> Dict:
    out = {
        "graph": graph_to_json(d.graph),
        "centers": {str(f): complex_to_json(z) for f, z in d.values.items()},
    }
    if d.periods is not None:
        out["periods"] = _periods_to_json(d.periods)
    return out


def drawing_from_json(d) -> FaceDrawing:
    try:
        g = graph_from_json(d["graph"])
        centers = {int(k): complex_from_json(v) for k, v in d["centers"].items()}
    except (KeyError, TypeError, AttributeError) as err:
        raise SchemaError("malformed drawing JSON: %s" % err) from err
    return FaceDrawing(g, centers, _periods_from_json(d.get("periods")))


# -- edge weights -----------------------------------------------------------

def weights_to_json(w: Dict[int, float]) -> Dict:
    return {str(eid): float(v) for eid, v in w.items()}


def weights_from_json(d) -> Dict[int, float]:
    try:
        return {int(k): float(v) for k, v in d.items()}
    except (TypeError, ValueError, AttributeError) as err:
        raise SchemaError("malformed weights JSON: %s" % err) from err


# -- clifford configurations --------------------------------------------------

def _index_key(idx) -> str:
    return "".join(str(m) for m in sorted(idx))


def clifford_config_to_json(cfg) -> Dict:
    return {
        "n": cfg.n,
        "points": {_index_key(i): complex_to_json(z)
                   for i, z in cfg.points.items()},
        "circles": {_index_key(i): circle_to_json(c)
                    for i, c in cfg.circles.items()},
        "centers": {_index_key(i): complex_to_json(z)
                    for i, z in cfg.centers.items()},
    }


# -- octahedral patches -------------------------------------------------------

def patch_to_json(patch: "OctahedralPatch") -> Dict:
    return {
        "window": [list(patch.window[0]), list(patch.window[1]),
                   list(patch.window[2])],
        "values": {"%d,%d,%d" % p: complex_to_json(z)
                   for p, z in patch.values.items()},
    }


def patch_from_json(d) -> "OctahedralPatch":
    # lattice brings in numpy, which no other reader or writer here needs
    from .lattice import OctahedralPatch
    try:
        window = tuple((int(lo), int(hi)) for lo, hi in d["window"])
        if len(window) != 3:
            raise SchemaError("window needs three axis ranges")
        values = {}
        for key, v in d["values"].items():
            x, y, z = (int(part) for part in key.split(","))
            values[(x, y, z)] = complex_from_json(v)
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise SchemaError("malformed patch JSON: %s" % err) from err
    return OctahedralPatch(window, values)
