import collections
import enum
import json
import math

import numpy as np
import pytest

from conftest import rectangular_torus_pattern
from miqueldyn.circle_pattern import FaceDrawing, validate_pattern
from miqueldyn.errors import SchemaError
from miqueldyn.geometry import Circle, INFINITY
from miqueldyn.jsonio import (canonical_dumps, circle_from_json, circle_to_json,
                              complex_from_json, complex_to_json, drawing_from_json,
                              drawing_to_json, graph_from_json, graph_to_json,
                              open_text_atomic, patch_from_json, patch_to_json,
                              pattern_from_json,
                              pattern_to_json, read_json, weights_from_json,
                              weights_to_json, write_json_atomic)
from miqueldyn.lattice import OctahedralPatch, generate_kasteleyn_cauchy_data
from miqueldyn.surface_graph import (build_square_grid_patch,
                                     build_square_grid_torus)


def test_canonical_float_format():
    assert canonical_dumps(0.1) == "0.10000000000000001"
    assert canonical_dumps(1.0) == "1"
    assert canonical_dumps(-2.5) == "-2.5"
    assert canonical_dumps(True) == "true"
    assert canonical_dumps(None) == "null"
    assert canonical_dumps({"b": 1, "a": [2, "x"]}) == '{"a":[2,"x"],"b":1}'


def test_canonical_rejects_bad_values():
    with pytest.raises(SchemaError):
        canonical_dumps(float("nan"))
    with pytest.raises(SchemaError):
        canonical_dumps(float("inf"))
    with pytest.raises(SchemaError):
        canonical_dumps({1: "non-string key"})


def test_complex_round_trip():
    assert complex_to_json(1.5 - 2j) == [1.5, -2.0]
    assert complex_from_json([1.5, -2.0]) == 1.5 - 2j
    assert complex_to_json(INFINITY) == "inf"
    assert complex_from_json("inf") is INFINITY
    with pytest.raises(SchemaError):
        complex_from_json("nonsense")
    with pytest.raises(SchemaError):
        complex_from_json([1.0])


def test_circle_round_trip():
    c = Circle.make_circle(1 + 2j, 0.75)
    assert circle_from_json(circle_to_json(c)) == c
    line = Circle.make_line(0j, 3 + 1j)
    assert circle_from_json(circle_to_json(line)) == line
    with pytest.raises(SchemaError):
        circle_from_json({"kind": "blob"})
    with pytest.raises(SchemaError):
        circle_from_json({"kind": "line", "a": "inf", "b": [0.0, 0.0]})


def test_graph_round_trip_torus():
    g = build_square_grid_torus(2, 4)
    blob = graph_to_json(g)
    text = canonical_dumps(blob)
    g2 = graph_from_json(json.loads(text))
    assert canonical_dumps(graph_to_json(g2)) == text
    assert g2.surface == "torus"
    assert g2.vertex_color == g.vertex_color
    assert g2.edges == g.edges
    assert g2.faces == g.faces


def test_graph_round_trip_patch_keeps_boundary():
    g = build_square_grid_patch(2, 3)
    g2 = graph_from_json(graph_to_json(g))
    assert g2.boundary_faces == g.boundary_faces
    assert canonical_dumps(graph_to_json(g2)) == canonical_dumps(graph_to_json(g))


def test_graph_schema_errors():
    blob = graph_to_json(build_square_grid_torus(2, 2))
    broken = json.loads(canonical_dumps(blob))
    del broken["vertices"]
    with pytest.raises(SchemaError):
        graph_from_json(broken)

    broken = json.loads(canonical_dumps(blob))
    broken["faces"][0]["edge_cycle"][0][1] = 2
    with pytest.raises(SchemaError):
        graph_from_json(broken)

    # structurally parseable but fails dual-orientation validation
    broken = json.loads(canonical_dumps(blob))
    broken["vertices"][0]["color"] = broken["vertices"][1]["color"]
    with pytest.raises(SchemaError):
        graph_from_json(broken)


def test_pattern_round_trip_bytes():
    p = rectangular_torus_pattern([1.0, 1.3, 0.8, 0.9], [1.0, 0.7])
    text = canonical_dumps(pattern_to_json(p))
    p2 = pattern_from_json(json.loads(text))
    assert canonical_dumps(pattern_to_json(p2)) == text
    assert validate_pattern(p2) == []
    assert p2.periods == p.periods


def test_pattern_from_generator_round_trip():
    p = generate_kasteleyn_cauchy_data(2, 4, seed=11)
    text = canonical_dumps(pattern_to_json(p))
    p2 = pattern_from_json(json.loads(text))
    assert canonical_dumps(pattern_to_json(p2)) == text
    assert p2.vertex_points == p.vertex_points
    assert p2.center_points == p.center_points


def test_drawing_round_trip():
    p = generate_kasteleyn_cauchy_data(2, 2, seed=5)
    d = p.centers_drawing()
    text = canonical_dumps(drawing_to_json(d))
    d2 = drawing_from_json(json.loads(text))
    assert canonical_dumps(drawing_to_json(d2)) == text
    assert isinstance(d2, FaceDrawing)
    assert d2.values == d.values


def test_weights_round_trip():
    w = {0: 1.5, 3: 0.25, 7: 2.0}
    assert weights_from_json(weights_to_json(w)) == w
    with pytest.raises(SchemaError):
        weights_from_json({"3": "heavy"})


def test_patch_round_trip():
    patch = OctahedralPatch(
        window=((-1, 1), (-1, 1), (0, 1)),
        values={(0, 0, 0): 1 + 2j, (1, 1, 0): INFINITY, (1, 0, 1): -0.5j},
    )
    text = canonical_dumps(patch_to_json(patch))
    patch2 = patch_from_json(json.loads(text))
    assert patch2.window == patch.window
    assert patch2.values == patch.values
    assert canonical_dumps(patch_to_json(patch2)) == text


def test_atomic_write_and_read(tmp_path):
    target = tmp_path / "out.json"
    obj = pattern_to_json(rectangular_torus_pattern([1.0, 1.0], [1.0, 1.0]))
    write_json_atomic(str(target), obj)
    write_json_atomic(str(target), obj)
    raw = target.read_bytes()
    assert raw.endswith(b"\n")
    assert read_json(str(target)) == json.loads(raw.decode())
    assert list(tmp_path.iterdir()) == [target]


def test_streamed_atomic_write_replaces_only_on_success(tmp_path):
    target = tmp_path / "trace.json"
    with open_text_atomic(str(target)) as handle:
        handle.write("[1")
        assert not target.exists()
        handle.write(",2]\n")
    assert target.read_text() == "[1,2]\n"
    with pytest.raises(RuntimeError):
        with open_text_atomic(str(target)) as handle:
            handle.write("[3")
            raise RuntimeError("step failed")
    assert target.read_text() == "[1,2]\n"
    assert list(tmp_path.iterdir()) == [target]


def _dumps_with_json_quoting(obj) -> str:
    # canonical_dumps as it was written with json.dumps quoting every string
    if obj is None or obj is True or obj is False or isinstance(obj, (int, float)):
        return canonical_dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps_with_json_quoting(v) for v in obj) + "]"
    return "{" + ",".join("%s:%s" % (json.dumps(k), _dumps_with_json_quoting(obj[k]))
                          for k in sorted(obj)) + "}"


def test_key_quoting_matches_json_dumps():
    keys = ["plain", "", "café", "über", 'say "hi"', "back\\slash",
            "tab\there", "nl\n", "nul\x00", "bell\x07", "del\x7f",
            " sep", "astral \U0001F600", "\ud800 lone"]
    blob = {k: k for k in keys}
    assert canonical_dumps(blob) == json.dumps(blob, sort_keys=True,
                                               separators=(",", ":"))
    for k in keys:
        assert canonical_dumps({k: 1}) == "{%s:1}" % json.dumps(k)
        assert canonical_dumps(k) == json.dumps(k)


def test_pattern_drawing_and_patch_bytes_unchanged_by_quoting():
    p = generate_kasteleyn_cauchy_data(4, 6, seed=3)
    patch = OctahedralPatch(
        window=((-1, 1), (-1, 1), (0, 1)),
        values={(0, 0, 0): 1 + 2j, (1, 1, 0): INFINITY, (1, 0, 1): -0.5j},
    )
    for blob in (pattern_to_json(p), drawing_to_json(p.centers_drawing()),
                 patch_to_json(patch)):
        assert canonical_dumps(blob) == _dumps_with_json_quoting(blob)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def test_int_subclass_prints_its_value():
    text = canonical_dumps([_Level.LOW, {"level": _Level.HIGH}])
    assert text == '[1,{"level":2}]'
    assert json.loads(text) == [1, {"level": 2}]


def test_types_outside_json_keep_their_rules():
    assert canonical_dumps([np.float64(0.1), np.float64(-0.0)]) == "[0.10000000000000001,0]"
    assert canonical_dumps(collections.OrderedDict(b=(1,), a=[])) == '{"a":[],"b":[1]}'
    for bad in (np.int64(1), np.bool_(True), {1, 2}, [1j], {"k": object()}):
        with pytest.raises(SchemaError, match="cannot serialize"):
            canonical_dumps(bad)
    with pytest.raises(SchemaError, match="non-finite"):
        canonical_dumps({"a": [1.0, np.float64("inf")]})


# -- the recursive emitter canonical_dumps replaced, kept as the reference ---

def _reference_fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise SchemaError("non-finite number in canonical JSON")
    if x == 0.0:
        return "0"
    # "%.17g" keeps an exact short form for integral values
    return "%.17g" % x


_quote = json.encoder.encode_basestring_ascii


def _reference_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, %.17g floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _reference_fmt_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise SchemaError("canonical JSON keys must be strings")
        items = ("%s:%s" % (_quote(k), _reference_dumps(obj[k]))
                 for k in sorted(obj))
        return "{" + ",".join(items) + "}"
    raise SchemaError("cannot serialize %r" % type(obj))


def _outcome(dumps, obj):
    try:
        return dumps(obj)
    except SchemaError as err:
        return ("SchemaError", str(err))


def test_emitter_matches_the_recursive_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    edge_floats = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1e16, 0.1, math.nan, math.inf, -math.inf]
    scalars = st.one_of(
        st.none(), st.booleans(),
        st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
        st.integers(max_value=-2 ** 64, min_value=-2 ** 200),
        st.floats(), st.sampled_from(edge_floats), st.floats().map(np.float64),
        st.text(), st.sampled_from([np.int64(3), np.bool_(False), frozenset()]),
    )
    mixed_keys = st.one_of(st.text(), st.integers(), st.none(), st.floats())

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=6),
            st.lists(children, max_size=6).map(tuple),
            st.dictionaries(st.text(), children, max_size=6),
            st.dictionaries(st.text(), children, max_size=6).map(collections.OrderedDict),
            st.dictionaries(mixed_keys, children, min_size=1, max_size=3),
        )

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.recursive(scalars, containers, max_leaves=20))
    def check(obj):
        assert _outcome(canonical_dumps, obj) == _outcome(_reference_dumps, obj)

    check()


def test_complex_from_json_refuses_non_finite_coordinates():
    for bad in (["NaN", 0.0], [0.0, float("nan")], [float("inf"), 0.0], ["-inf", 1.0]):
        with pytest.raises(SchemaError):
            complex_from_json(bad)
    assert complex_from_json("inf") is INFINITY
