"""Command line front end.

Every subcommand reads and writes the canonical JSON formats, reports
either human-readable lines or (with --json) one canonical JSON object,
and maps failures to stable exit codes: 0 success, 1 validation
failure, 2 numeric degeneracy, 64 usage error.
"""

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import __version__
from .circle_pattern import (miquel_move, mobius_mutation_move,
                             pattern_star_ratios, validate_pattern)
from .clifford import (build_c3, build_c4, incidence_residual,
                       menelaus_multiratios, verify_cross_ratio_system,
                       verify_shift_identities)
from .dimer import urban_renewal_check, weights_from_pattern
from .errors import (MiquelDynError, NotAGridTorus, NumericDegeneracy,
                     SchemaError, UsageError)
from .jsonio import (canonical_dumps, circle_from_json, clifford_config_to_json,
                     complex_from_json, complex_to_json, drawing_to_json,
                     open_text_atomic, pattern_from_json, pattern_to_json,
                     read_json, write_json_atomic, write_text_atomic)
from .svg import DEFAULT_LAYERS, pattern_to_svg


@dataclass
class CommandResult:
    exit_code: int
    report: str


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit; surface a typed error instead
    def error(self, message):
        raise UsageError(message)


def _parse_size(text: str):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise UsageError("--size must look like ROWSxCOLS, got %r" % text)
    rows, cols = int(m.group(1)), int(m.group(2))
    if rows % 2 or cols % 2 or rows < 2 or cols < 2:
        raise UsageError("--size dimensions must be even and at least 2, got %r" % text)
    return rows, cols


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text) from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return x


def _positive_float(text: str) -> float:
    x = _finite_float(text)
    if x <= 0:
        raise argparse.ArgumentTypeError("must be > 0, got %r" % text)
    return x


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a whole number: %r" % text) from None
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %r" % text)
    return n


@contextlib.contextmanager
def _writing(path: str):
    """Report a failure to write path as a usage error, as reads are."""
    try:
        yield
    except OSError as err:
        raise UsageError("cannot write %s: %s" % (path, err)) from err


def _load_pattern(path: str):
    try:
        blob = read_json(path)
    except OSError as err:
        raise UsageError("cannot read %s: %s" % (path, err)) from err
    except ValueError as err:
        raise SchemaError("%s is not JSON: %s" % (path, err)) from err
    return pattern_from_json(blob)


def _text_lines(d: Dict, indent: str = "") -> List[str]:
    lines = []
    for k, v in d.items():
        if isinstance(v, dict):
            lines.append("%s%s:" % (indent, k))
            lines.extend(_text_lines(v, indent + "  "))
        elif isinstance(v, list):
            lines.append("%s%s: %s" % (indent, k, " ".join(str(x) for x in v)))
        else:
            lines.append("%s%s: %s" % (indent, k, v))
    return lines


def _render(report: Dict, as_json: bool) -> str:
    if as_json:
        return canonical_dumps(report)
    return "\n".join(_text_lines(report))


# -- subcommand handlers ------------------------------------------------------

def _cmd_validate(args):
    p = _load_pattern(args.pattern)
    problems = validate_pattern(p, rtol=args.tol)
    report = {"command": "validate", "ok": not problems, "problems": problems}
    return (0 if not problems else 1), report


def _cmd_gen_pattern(args):
    # lattice loads numpy; only this command and dynamics need either
    from .lattice import generate_kasteleyn_cauchy_data
    rows, cols = _parse_size(args.size)
    p = generate_kasteleyn_cauchy_data(rows, cols, seed=args.seed,
                                       spread=args.spread)
    with _writing(args.out):
        write_json_atomic(args.out, pattern_to_json(p))
    report = {
        "command": "gen-pattern",
        "rows": rows, "cols": cols,
        "seed": args.seed, "spread": args.spread,
        "kasteleyn": True,
        "vertices": len(p.vertex_points),
        "faces": len(p.center_points),
        "out": args.out,
    }
    return 0, report


def _cmd_star_ratios(args):
    p = _load_pattern(args.pattern)
    field = pattern_star_ratios(p.centers_drawing(), rtol=args.tol)
    product = 1 + 0j
    for v in field.values.values():
        product *= v
    report = {
        "command": "star-ratios",
        "values": {str(f): complex_to_json(field.values[f])
                   for f in sorted(field.values)},
        "classification": {str(f): field.classification[f]
                           for f in sorted(field.classification)},
        "skipped": sorted(field.skipped),
        "all_real": field.all_real(),
        "all_positive": field.all_positive(),
        "product": complex_to_json(product),
    }
    return 0, report


def _cmd_miquel_move(args):
    p = _load_pattern(args.pattern)
    p2 = miquel_move(p, args.face)
    with _writing(args.out):
        write_json_atomic(args.out, pattern_to_json(p2))
    report = {
        "command": "miquel-move",
        "face": args.face,
        "vertices": len(p2.vertex_points),
        "faces": len(p2.center_points),
        "out": args.out,
    }
    return 0, report


def _cmd_clifford_move(args):
    p = _load_pattern(args.pattern)
    d2 = mobius_mutation_move(p.centers_drawing(), args.face)
    with _writing(args.out):
        write_json_atomic(args.out, drawing_to_json(d2))
    report = {
        "command": "clifford-move",
        "face": args.face,
        "centers": len(d2.values),
        "out": args.out,
    }
    return 0, report


def _cmd_dynamics(args):
    from .lattice import (generate_kasteleyn_cauchy_data, make_torus_state,
                          miquel_dynamics_step)
    rows, cols = _parse_size(args.size)
    if args.pattern is not None:
        p = _load_pattern(args.pattern)
        if len(p.graph.faces) != rows * cols:
            raise UsageError("--size %s does not match the pattern's %d faces"
                             % (args.size, len(p.graph.faces)))
    else:
        p = generate_kasteleyn_cauchy_data(rows, cols, seed=args.seed,
                                           spread=args.spread)
    try:
        state = make_torus_state(p, rows, cols)
    except NotAGridTorus as err:
        raise UsageError(str(err)) from err
    files = []

    def dump(index: int, pattern) -> str:
        text = canonical_dumps(pattern_to_json(pattern))
        name = "pattern_%03d.json" % index
        write_text_atomic(os.path.join(args.out, name), text + "\n")
        files.append(name)
        return text

    # each step is serialised once: the text goes to its own file and is
    # streamed into trace.json, which appears only when every step is done
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        with open_text_atomic(os.path.join(args.out, "trace.json")) as trace:
            trace.write("[" + dump(0, state.pattern))
            for step in range(1, args.steps + 1):
                state = miquel_dynamics_step(state)
                trace.write("," + dump(step, state.pattern))
            trace.write("]\n")
    files.append("trace.json")
    report = {
        "command": "dynamics",
        "steps": args.steps,
        "rows": rows, "cols": cols,
        "final_parity": state.step_parity,
        "out": args.out,
        "files": files,
    }
    return 0, report


def _cmd_check_urban_renewal(args):
    p = _load_pattern(args.pattern)
    w = weights_from_pattern(p)
    p2 = miquel_move(p, args.face)
    w2 = weights_from_pattern(p2)
    rep = urban_renewal_check(p.graph, w, args.face, p2.graph, w2, tol=args.tol)
    report = {"command": "check-urban-renewal", "face": args.face}
    report.update(rep.as_dict())
    code = 0 if rep.ok and not rep.undefined else 1
    return code, report


def _cmd_clifford_config(args):
    try:
        blob = read_json(args.input)
    except OSError as err:
        raise UsageError("cannot read %s: %s" % (args.input, err)) from err
    except ValueError as err:
        raise SchemaError("%s is not JSON: %s" % (args.input, err)) from err
    try:
        base = complex_from_json(blob["base"])
        circles = [circle_from_json(c) for c in blob["circles"]]
    except (KeyError, TypeError) as err:
        raise SchemaError("config input needs \"base\" and \"circles\": %s"
                          % err) from err
    if len(circles) == 4:
        cfg = build_c4(base, circles, tol=args.tol)
    elif len(circles) == 3:
        cfg = build_c3(base, circles, tol=args.tol)
    else:
        raise UsageError("need exactly 3 or 4 circles, got %d" % len(circles))

    cross = verify_cross_ratio_system(cfg)
    report = {
        "command": "clifford-config",
        "n": cfg.n,
        "config": clifford_config_to_json(cfg),
        "incidence_residual": incidence_residual(cfg),
        "cross_ratio_residual": cross.max_residual(),
        "opposite_face_residual": cross.opposite_faces,
    }
    if cfg.n == 4:
        shift = verify_shift_identities(cfg)
        m1, m2 = menelaus_multiratios(cfg)
        report["shift_residual"] = shift.max_residual()
        report["tetrahedron_residual"] = cross.tetrahedra
        report["menelaus"] = [complex_to_json(m1), complex_to_json(m2)]
    if args.out is not None:
        with _writing(args.out):
            write_json_atomic(args.out, clifford_config_to_json(cfg))
        report["out"] = args.out
    return 0, report


def _cmd_export_svg(args):
    p = _load_pattern(args.pattern)
    layers = tuple(s for s in args.layers.split(",") if s)
    if not layers:
        raise UsageError("--layers needs at least one layer name")
    text = pattern_to_svg(p, layers)
    with _writing(args.out):
        write_text_atomic(args.out, text)
    report = {
        "command": "export-svg",
        "layers": list(layers),
        "bytes": len(text.encode()),
        "out": args.out,
    }
    return 0, report


# -- wiring -------------------------------------------------------------------

# argparse keeps no state between parse_args calls, so one parser serves
# every command a process runs
@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as canonical JSON")
    common.add_argument("--tol", type=_positive_float, default=1e-9,
                        help="tolerance for validation checks")

    parser = _Parser(prog="miqueldyn",
                     description="circle patterns, Miquel dynamics, and "
                                 "dimer checks on surface graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    sp = sub.add_parser("validate", parents=[common],
                        help="check a pattern file for consistency")
    sp.add_argument("pattern")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("gen-pattern", parents=[common],
                        help="generate a torus pattern with real positive "
                             "star ratios")
    sp.add_argument("--size", required=True, help="ROWSxCOLS, both even")
    sp.add_argument("--seed", type=_count, required=True)
    sp.add_argument("--spread", type=_finite_float, default=0.5,
                    help="row/column spacing jitter, 0 gives the isoradial grid")
    sp.add_argument("--kasteleyn", action="store_true",
                    help="accepted for clarity; generated patterns always are")
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_gen_pattern)

    sp = sub.add_parser("star-ratios", parents=[common],
                        help="report the star ratio field of a pattern")
    sp.add_argument("pattern")
    sp.set_defaults(handler=_cmd_star_ratios)

    sp = sub.add_parser("miquel-move", parents=[common],
                        help="apply the local move at a quad face")
    sp.add_argument("pattern")
    sp.add_argument("--face", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_miquel_move)

    sp = sub.add_parser("clifford-move", parents=[common],
                        help="apply the mutation to face centers only")
    sp.add_argument("pattern")
    sp.add_argument("--face", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_clifford_move)

    sp = sub.add_parser("dynamics", parents=[common],
                        help="run full-sweep dynamics and write the trace")
    sp.add_argument("--steps", type=_count, required=True)
    sp.add_argument("--seed", type=_count, default=0)
    sp.add_argument("--size", required=True, help="ROWSxCOLS, both even")
    sp.add_argument("--spread", type=_finite_float, default=0.5)
    sp.add_argument("--pattern", default=None,
                    help="start from this pattern instead of generating one")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(handler=_cmd_dynamics)

    sp = sub.add_parser("check-urban-renewal", parents=[common],
                        help="compare dimer statistics across one move")
    sp.add_argument("pattern")
    sp.add_argument("--face", type=int, required=True)
    sp.set_defaults(handler=_cmd_check_urban_renewal)

    sp = sub.add_parser("clifford-config", parents=[common],
                        help="build a point/circle configuration and report "
                             "its incidences")
    sp.add_argument("input", help="JSON with \"base\" and \"circles\"")
    sp.add_argument("--out", default=None,
                    help="also write the configuration as JSON")
    sp.set_defaults(handler=_cmd_clifford_config)

    sp = sub.add_parser("export-svg", parents=[common],
                        help="render a pattern to SVG")
    sp.add_argument("pattern")
    sp.add_argument("--layers", default=",".join(DEFAULT_LAYERS),
                    help="comma separated: circles, centers, edges, dual")
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_export_svg)

    return parser


def run_command(argv: Optional[List[str]] = None) -> CommandResult:
    parser = _build_parser()
    as_json = False
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as err:
            # --help and --version print and exit inside argparse
            return CommandResult(int(err.code or 0), "")
        if getattr(args, "subcommand", None) is None:
            raise UsageError("a subcommand is required")
        as_json = getattr(args, "json", False)
        code, report = args.handler(args)
        return CommandResult(code, _render(report, as_json))
    except UsageError as err:
        report = {"error": "usage", "message": str(err)}
        return CommandResult(64, _render(report, as_json))
    except NumericDegeneracy as err:
        report = {"error": type(err).__name__, "message": str(err)}
        # JSON holds no NaN or infinity, so a non-finite number is left out
        report.update((k, v) for k, v in err.fields().items()
                      if not (isinstance(v, float) and not math.isfinite(v)))
        return CommandResult(2, _render(report, as_json))
    except MiquelDynError as err:
        report = {"error": type(err).__name__, "message": str(err)}
        return CommandResult(1, _render(report, as_json))


def main() -> None:
    result = run_command(sys.argv[1:])
    if result.report:
        print(result.report)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
