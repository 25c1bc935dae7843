import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corner_off_circles_pattern
import miqueldyn
from miqueldyn import cli, lattice
from miqueldyn.cli import run_command
from miqueldyn.jsonio import (canonical_dumps, drawing_from_json, pattern_from_json,
                              pattern_to_json, read_json, write_json_atomic)
from miqueldyn.circle_pattern import validate_pattern


def run(*argv):
    return run_command(list(argv))


def run_json(*argv):
    result = run_command(list(argv) + ["--json"])
    return result.exit_code, json.loads(result.report)


@pytest.fixture
def pattern_file(tmp_path):
    out = str(tmp_path / "p.json")
    result = run("gen-pattern", "--size", "4x4", "--seed", "7",
                 "--kasteleyn", "--out", out)
    assert result.exit_code == 0
    return out


def test_gen_then_validate(pattern_file):
    result = run("validate", pattern_file)
    assert result.exit_code == 0
    assert "ok: True" in result.report
    code, report = run_json("validate", pattern_file)
    assert code == 0
    assert report == {"command": "validate", "ok": True, "problems": []}


def test_gen_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert run("gen-pattern", "--size", "2x4", "--seed", "3",
                   "--out", out).exit_code == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_star_ratios_report(pattern_file):
    code, report = run_json("star-ratios", pattern_file)
    assert code == 0
    assert report["all_real"] is True
    assert report["all_positive"] is True
    assert len(report["values"]) == 16
    prod = complex(*report["product"])
    assert prod == pytest.approx(1.0, abs=1e-9)


def test_miquel_move_twice_returns(tmp_path, pattern_file):
    q = str(tmp_path / "q.json")
    q2 = str(tmp_path / "q2.json")
    assert run("miquel-move", pattern_file, "--face", "5",
               "--out", q).exit_code == 0
    assert run("miquel-move", q, "--face", "5", "--out", q2).exit_code == 0

    p = pattern_from_json(read_json(pattern_file))
    r = pattern_from_json(read_json(q2))
    assert validate_pattern(r) == []
    for f, c in p.center_points.items():
        assert r.center_points[f] == pytest.approx(c, abs=1e-7)

    def key(values):
        return sorted((round(z.real, 6), round(z.imag, 6))
                      for z in values.values())

    assert key(p.vertex_points) == key(r.vertex_points)


def test_check_urban_renewal(pattern_file):
    code, report = run_json("check-urban-renewal", pattern_file,
                            "--face", "5")
    assert code == 0
    assert report["ok"] is True
    assert report["undefined"] is False
    assert report["max_discrepancy"] <= 1e-9


def test_check_urban_renewal_error_names_the_face(tmp_path):
    path = str(tmp_path / "off.json")
    write_json_atomic(path, pattern_to_json(corner_off_circles_pattern(face=5)))
    code, report = run_json("check-urban-renewal", path, "--face", "5")
    assert code == 2
    assert report["error"] == "NumericalTangencyAmbiguity"
    assert report["message"] == "face 5: corner 0 is not an intersection of its circles"
    assert report["face"] == 5 and report["tolerance"] == 1e-6
    assert report["residual"] > report["tolerance"] * report["scale"] > 0


def test_clifford_move_centers_only(tmp_path, pattern_file):
    out = str(tmp_path / "moved.json")
    assert run("clifford-move", pattern_file, "--face", "5",
               "--out", out).exit_code == 0
    blob = read_json(out)
    assert "centers" in blob and "graph" in blob
    assert "vertices" not in blob
    d = drawing_from_json(blob)
    assert len(d.values) == 16


def test_dynamics_trace(tmp_path):
    out = str(tmp_path / "run")
    code, report = run_json("dynamics", "--steps", "2", "--seed", "1",
                            "--size", "2x2", "--out", out)
    assert code == 0
    assert report["files"] == ["pattern_000.json", "pattern_001.json",
                               "pattern_002.json", "trace.json"]
    trace = read_json(str(tmp_path / "run" / "trace.json"))
    assert len(trace) == 3
    for i, blob in enumerate(trace):
        p = pattern_from_json(blob)
        assert validate_pattern(p) == []
        step = read_json(str(tmp_path / "run" / ("pattern_%03d.json" % i)))
        assert step == blob
    # trace.json is the canonical list of the step texts, byte for byte
    steps = [(tmp_path / "run" / ("pattern_%03d.json" % i)).read_bytes()
             for i in range(3)]
    for raw, blob in zip(steps, trace):
        assert raw == canonical_dumps(blob).encode() + b"\n"
    raw = (tmp_path / "run" / "trace.json").read_bytes()
    assert raw == b"[" + b",".join(s[:-1] for s in steps) + b"]\n"
    assert sorted(os.listdir(out)) == report["files"]


def test_dynamics_from_pattern_file(tmp_path, pattern_file):
    out = str(tmp_path / "run2")
    code, report = run_json("dynamics", "--steps", "1", "--size", "4x4",
                            "--pattern", pattern_file, "--out", out)
    assert code == 0
    first = read_json(str(tmp_path / "run2" / "pattern_000.json"))
    assert first == read_json(pattern_file)
    # wrong --size for the file is a usage error
    assert run("dynamics", "--steps", "1", "--size", "2x2",
               "--pattern", pattern_file, "--out", out).exit_code == 64


def test_odd_or_small_sizes_are_usage_errors(tmp_path):
    out = str(tmp_path / "never.json")
    out_dir = str(tmp_path / "never")
    for size in ("3x3", "0x0", "2x3", "1x2", "0x4"):
        for argv in (["gen-pattern", "--size", size, "--seed", "0", "--out", out],
                     ["dynamics", "--size", size, "--steps", "1", "--out", out_dir]):
            code, report = run_json(*argv)
            assert code == 64, argv
            assert report == {"error": "usage", "message": "--size dimensions must "
                              "be even and at least 2, got %r" % size}, argv
    assert not os.path.exists(out)
    assert not os.path.exists(out_dir)


def test_pattern_of_another_grid_shape_is_a_usage_error(tmp_path):
    wide = str(tmp_path / "wide.json")
    assert run("gen-pattern", "--size", "2x10", "--seed", "0", "--out", wide).exit_code == 0
    out = str(tmp_path / "run")
    # same face count, transposed shape: the graph is not a 10x2 grid
    code, report = run_json("dynamics", "--steps", "1", "--size", "10x2",
                            "--pattern", wide, "--out", out)
    assert code == 64
    assert report == {"error": "usage", "message": "not a 10x2 grid torus: "
                      "face 0 has neighbours [10, 1, 10, 9]"}
    assert not os.path.exists(out)
    assert run("dynamics", "--steps", "1", "--size", "2x10",
               "--pattern", wide, "--out", out).exit_code == 0


def test_export_svg_layer_counts(tmp_path, pattern_file):
    out = str(tmp_path / "p.svg")
    assert run("export-svg", pattern_file, "--layers", "centers,dual",
               "--out", out).exit_code == 0
    text = open(out).read()
    # 4x4 torus: 16 faces, 32 edges
    assert text.count('class="center"') == 16
    assert text.count('class="dual"') == 32
    assert text.count('class="face-circle"') == 0
    first = open(out, "rb").read()
    assert run("export-svg", pattern_file, "--layers", "centers,dual",
               "--out", out).exit_code == 0
    assert open(out, "rb").read() == first


def test_export_svg_default_layers(tmp_path, pattern_file):
    out = str(tmp_path / "full.svg")
    code, report = run_json("export-svg", pattern_file, "--out", out)
    assert code == 0
    assert report["layers"] == ["circles", "centers", "edges"]
    text = open(out).read()
    assert text.count('class="face-circle"') + text.count('class="face-line"') == 16
    assert text.count('class="edge"') == 32


def test_commands_in_one_process_share_no_flags(tmp_path, pattern_file, capsys):
    assert cli._build_parser() is cli._build_parser()
    code, report = run_json("validate", pattern_file)
    assert code == 0 and report["ok"] is True
    result = run("validate", pattern_file)
    assert result.exit_code == 0
    assert result.report.splitlines()[0] == "command: validate"

    out = str(tmp_path / "p.svg")
    assert run("export-svg", pattern_file, "--layers", "circles",
               "--out", out).exit_code == 0
    assert open(out).read().count('class="edge"') == 0
    code, report = run_json("export-svg", pattern_file, "--out", out)
    assert code == 0
    assert report["layers"] == ["circles", "centers", "edges"]
    assert open(out).read().count('class="edge"') == 32

    assert run("--version").exit_code == 0
    assert capsys.readouterr().out.strip() == miqueldyn.__version__
    code, report = run_json("validate", pattern_file)
    assert code == 0 and report["ok"] is True


def test_usage_errors():
    assert run("no-such-command").exit_code == 64
    assert run().exit_code == 64
    assert run("gen-pattern", "--size", "4by4", "--seed", "1",
               "--out", "x.json").exit_code == 64
    assert run("export-svg", "p.json", "--layers", "centers,bogus",
               "--out", "x.svg").exit_code == 64
    result = run("validate", "/nonexistent/path.json")
    assert result.exit_code == 64


def test_bad_numbers_are_usage_errors(tmp_path, pattern_file):
    out = str(tmp_path / "never.json")
    out_dir = str(tmp_path / "never")
    gen = ["gen-pattern", "--size", "2x2", "--out", out]
    dyn = ["dynamics", "--size", "2x2", "--out", out_dir]
    for argv in (
        ["validate", pattern_file, "--tol", "nan"],
        ["validate", pattern_file, "--tol", "inf"],
        ["validate", pattern_file, "--tol", "0"],
        ["validate", pattern_file, "--tol", "-1e-9"],
        ["check-urban-renewal", pattern_file, "--face", "5", "--tol", "nan"],
        gen + ["--seed", "-1"],
        gen + ["--seed", "1", "--spread", "inf"],
        gen + ["--seed", "1", "--spread", "nan"],
        dyn + ["--steps", "-2"],
        dyn + ["--steps", "1", "--seed", "-1"],
        dyn + ["--steps", "1", "--spread", "-inf"],
    ):
        # rejected while parsing, before --json is known
        result = run(*argv)
        assert result.exit_code == 64, argv
        assert "error: usage" in result.report.splitlines(), argv
    assert not os.path.exists(out)
    assert not os.path.exists(out_dir)


def test_write_failures_are_usage_errors(tmp_path, pattern_file):
    # a path under a regular file cannot be written, also by root
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    out = str(blocker / "out")
    for argv in (
        ["gen-pattern", "--size", "2x2", "--seed", "1", "--out", out],
        ["miquel-move", pattern_file, "--face", "5", "--out", out],
        ["clifford-move", pattern_file, "--face", "5", "--out", out],
        ["clifford-config", fourfold_config(tmp_path), "--out", out],
        ["export-svg", pattern_file, "--out", out],
        ["dynamics", "--size", "2x2", "--steps", "1", "--out", out],
    ):
        code, report = run_json(*argv)
        assert code == 64, argv
        assert report["error"] == "usage", argv
        assert report["message"].startswith("cannot write %s: " % out), argv
    assert blocker.read_text() == ""


def test_degeneracy_exit_code(tmp_path):
    out = str(tmp_path / "bad.json")
    result = run("gen-pattern", "--size", "2x2", "--seed", "1",
                 "--spread", "-0.5", "--out", out)
    assert result.exit_code == 2
    assert "DegenerateRow" in result.report


def _dynamics_on_edited_centres(tmp_path, monkeypatch, edit, *flags):
    """dynamics from the 4x4 isoradial pattern, its state's centres
    edited after step 0 is written from the unedited pattern."""
    real = lattice.make_torus_state

    def edited(p, rows, cols):
        state = real(p, rows, cols)
        edit(state.centers)
        return state

    # dynamics imports make_torus_state from lattice when it runs
    monkeypatch.setattr(lattice, "make_torus_state", edited)
    return run("dynamics", "--steps", "1", "--size", "4x4", "--spread", "0",
               "--out", str(tmp_path / "run"), *flags)


def test_dynamics_error_json_carries_face_residual_tolerance_scale(tmp_path,
                                                                   monkeypatch):
    def coincide(Z):
        Z[1, 2] = Z[0, 1]

    result = _dynamics_on_edited_centres(tmp_path, monkeypatch, coincide, "--json")
    assert result.exit_code == 2
    assert json.loads(result.report) == {
        "error": "ConsecutiveCoincidence",
        "message": "face 2: consecutive neighbour centres coincide",
        "face": 2, "residual": 0.0, "tolerance": 1e-12, "scale": 1.0}
    result = _dynamics_on_edited_centres(tmp_path, monkeypatch, coincide)
    assert result.exit_code == 2
    assert "face: 2" in result.report.splitlines()
    assert "tolerance: 1e-12" in result.report.splitlines()

    def shear(Z):
        Z[1, 2] += 0.1

    result = _dynamics_on_edited_centres(tmp_path, monkeypatch, shear, "--json")
    assert result.exit_code == 2
    report = json.loads(result.report)
    assert report["error"] in ("MonodromyFailure", "ConstructionFailure")
    assert report["message"].startswith("face %d: " % report["face"])
    assert report["tolerance"] == 1e-9 and report["residual"] > 1e-9
    assert report["scale"] > 0


def test_validation_failure_exit_codes(tmp_path, pattern_file):
    # well-formed JSON, geometrically inconsistent pattern
    blob = read_json(pattern_file)
    some_vertex = sorted(blob["vertices"])[0]
    blob["vertices"][some_vertex] = [100.0, 100.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    result = run("validate", str(bad))
    assert result.exit_code == 1
    assert "problems" in result.report

    # not a pattern at all
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"surface": "torus"}')
    assert run("validate", str(garbage)).exit_code == 1


def fourfold_config(tmp_path):
    blob = {
        "base": [0.0, 0.0],
        "circles": [
            {"kind": "circle", "center": [1.0, 0.0], "radius": 1.0},
            {"kind": "circle", "center": [0.0, 1.0], "radius": 1.0},
            {"kind": "circle", "center": [-1.0, 0.0], "radius": 1.0},
            {"kind": "circle", "center": [0.0, -1.0], "radius": 1.0},
        ],
    }
    path = tmp_path / "fourfold.json"
    path.write_text(json.dumps(blob))
    return str(path)


def test_clifford_config_fourfold(tmp_path):
    path = fourfold_config(tmp_path)
    out = str(tmp_path / "cfg.json")
    code, report = run_json("clifford-config", path, "--out", out)
    assert code == 0
    assert report["n"] == 4
    assert report["incidence_residual"] < 1e-12
    assert report["shift_residual"] < 1e-12
    assert report["cross_ratio_residual"] < 1e-12
    m1, m2 = report["menelaus"]
    assert complex(*m1) == pytest.approx(-1.0, abs=1e-10)
    assert complex(*m2) == pytest.approx(-1.0, abs=1e-10)
    cfg = read_json(out)
    assert complex(*cfg["points"]["1234"]) == pytest.approx(0, abs=1e-12)
    assert set(cfg["circles"]) == {"1", "2", "3", "4",
                                   "123", "124", "134", "234"}


def test_clifford_config_three_circles(tmp_path):
    blob = {
        "base": [0.0, 0.0],
        "circles": [
            {"kind": "circle", "center": [1.0, 0.2], "radius": abs(1 + 0.2j)},
            {"kind": "circle", "center": [-0.4, 1.1], "radius": abs(-0.4 + 1.1j)},
            {"kind": "circle", "center": [-0.7, -0.9], "radius": abs(-0.7 - 0.9j)},
        ],
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(blob))
    code, report = run_json("clifford-config", str(path))
    assert code == 0
    assert report["n"] == 3
    assert "shift_residual" not in report
    assert report["incidence_residual"] < 1e-9


def test_clifford_config_errors(tmp_path):
    blob = {"base": [0.0, 0.0],
            "circles": [{"kind": "circle", "center": [1.0, 0.0], "radius": 1.0}]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(blob))
    assert run("clifford-config", str(path)).exit_code == 64

    # consecutive members tangent at the base point
    blob = {
        "base": [0.0, 0.0],
        "circles": [
            {"kind": "circle", "center": [1.0, 0.0], "radius": 1.0},
            {"kind": "circle", "center": [2.0, 0.0], "radius": 2.0},
            {"kind": "circle", "center": [-1.0, 0.0], "radius": 1.0},
            {"kind": "circle", "center": [0.0, -1.0], "radius": 1.0},
        ],
    }
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(blob))
    assert run("clifford-config", str(path)).exit_code == 2


def _declared_entry_point():
    """The `miqueldyn` target in pyproject.toml's [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["miqueldyn"]


def _check_console_script(command, tmp_path, env=None):
    """Run three invocations of `command` as separate processes."""
    def call(*argv):
        return subprocess.run(command + list(argv), capture_output=True,
                              text=True, cwd=tmp_path, env=env)

    out = str(tmp_path / "p.json")
    proc = call("gen-pattern", "--size", "2x2", "--seed", "9",
                "--out", out, "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "gen-pattern"
    proc = call("validate", out)
    assert proc.returncode == 0
    proc = call("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_console_script(tmp_path):
    """The declared entry point works as a process, without an install.

    The child interpreter does what the wrapper generated by pip does:
    import the declared function and exit with its return value.  It
    imports miqueldyn from the same tree as this test process.
    """
    target = _declared_entry_point()
    assert target == "miqueldyn.cli:main"
    module, func = target.split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'miqueldyn'; sys.exit({func}())")
    source_root = str(Path(miqueldyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    _check_console_script([sys.executable, "-c", wrapper], tmp_path, env)


@pytest.mark.skipif(shutil.which("miqueldyn") is None,
                    reason="miqueldyn console script not installed")
def test_installed_console_script(tmp_path):
    """The wrapper that `pip install` puts on PATH works end to end."""
    _check_console_script([shutil.which("miqueldyn")], tmp_path)


# the names miqueldyn takes from lattice on first access
LATTICE_NAMES = ("OctahedralPatch", "TorusPatternState", "direction_star_ratios",
                 "generate_kasteleyn_cauchy_data", "make_torus_state",
                 "miquel_dynamics_step", "octahedra_of", "patch_from_pattern",
                 "propagate_octahedral", "torus_displacement",
                 "transversal_star_ratios")

# Runs in a fresh interpreter: argv[1] is a JSON list of argument lists
# that must not load numpy, the last line printed is a JSON summary.
NO_NUMPY_CHILD = """
import json, sys
import miqueldyn
from miqueldyn.cli import run_command

def loaded():
    return ["numpy" in sys.modules, "miqueldyn.lattice" in sys.modules]

argvs = json.loads(sys.argv[1])
codes = [run_command(argv).exit_code for argv in argvs[:-1]]
before = loaded()
codes.append(run_command(argvs[-1]).exit_code)
print(json.dumps({"codes": codes, "before": before, "after": loaded()}))
"""


def test_lattice_names_resolve_through_lattice(monkeypatch):
    from miqueldyn import (OctahedralPatch, TorusPatternState,
                           direction_star_ratios, generate_kasteleyn_cauchy_data,
                           make_torus_state, miquel_dynamics_step, octahedra_of,
                           patch_from_pattern, propagate_octahedral,
                           torus_displacement, transversal_star_ratios)
    imported = (OctahedralPatch, TorusPatternState, direction_star_ratios,
                generate_kasteleyn_cauchy_data, make_torus_state,
                miquel_dynamics_step, octahedra_of, patch_from_pattern,
                propagate_octahedral, torus_displacement,
                transversal_star_ratios)
    listed = dir(miqueldyn)
    for name, value in zip(LATTICE_NAMES, imported):
        assert value is getattr(lattice, name)
        assert getattr(miqueldyn, name) is getattr(lattice, name)
        assert name in listed
    # never cached: a rebinding in lattice shows through the package
    monkeypatch.setattr(lattice, "make_torus_state", len)
    assert miqueldyn.make_torus_state is len
    with pytest.raises(AttributeError):
        miqueldyn.no_such_name


def test_only_array_commands_load_numpy(tmp_path, pattern_file):
    """--version and the seven commands that never touch arrays run
    without numpy or lattice; gen-pattern then loads both."""
    out = str(tmp_path / "out")
    argvs = [
        ["--version"],
        ["validate", pattern_file],
        ["star-ratios", pattern_file],
        ["export-svg", pattern_file, "--out", out + ".svg"],
        ["miquel-move", pattern_file, "--face", "5", "--out", out + "1.json"],
        ["clifford-move", pattern_file, "--face", "5", "--out", out + "2.json"],
        ["clifford-config", fourfold_config(tmp_path), "--out", out + "3.json"],
        ["check-urban-renewal", pattern_file, "--face", "5"],
        ["gen-pattern", "--size", "2x2", "--seed", "1", "--out", out + "4.json"],
    ]
    source_root = str(Path(miqueldyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["codes"] == [0] * len(argvs)
    assert summary["before"] == [False, False]
    assert summary["after"] == [True, True]


def test_validate_refuses_a_nan_centre(tmp_path, pattern_file):
    blob = read_json(pattern_file)
    blob["centers"]["5"] = ["NaN", 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(blob))
    result = run("validate", str(path))
    assert result.exit_code != 0
    assert "ok: True" not in result.report
    code, report = run_json("validate", str(path))
    assert code != 0 and report["error"] == "SchemaError"
