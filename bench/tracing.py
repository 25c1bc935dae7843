"""Per-layer call counts and self times, taken from outside the program.

A Tracer wraps the public functions of each miqueldyn module (and the
SurfaceGraph methods) and rebinds every module attribute that referred
to the original, so calls between modules go through the wrapper too.
Self time is a call's duration minus the time of traced calls nested in
it.  A function that calls itself is counted and timed at its outermost
call only.  A listed function the program no longer has is skipped.
"""

import functools
import sys
import time

# Functions traced per layer; "Class.method" names a method.
LAYERS = {
    "geometry": ("mobius_mutation", "apply_mobius", "intersect_circles",
                 "circumcircle", "reflect_in_line", "star_ratio"),
    "surface_graph": ("SurfaceGraph.edge_sides", "SurfaceGraph.step_index",
                      "SurfaceGraph.vertex_edges", "SurfaceGraph.vertex_degrees",
                      "SurfaceGraph.face_shifts", "slot_alignment",
                      "mutate_at_face", "validate_surface_graph"),
    "circle_pattern": ("miquel_move", "local_miquel", "pattern_star_ratios",
                       "validate_pattern", "propagate_from_centers"),
    "lattice": ("generate_kasteleyn_cauchy_data", "make_torus_state",
                "miquel_dynamics_step", "patch_from_pattern",
                "propagate_octahedral", "transversal_star_ratios"),
    "dimer": ("weights_from_pattern", "enumerate_matchings", "dimer_statistics",
              "urban_renewal_check"),
    "jsonio": ("pattern_to_json", "pattern_from_json", "canonical_dumps",
               "write_json_atomic", "read_json"),
    "svg": ("pattern_to_svg",),
    "cli": ("run_command",),
}

# Calls that end in an exception, counted for these functions.
FAILURE_COUNTS = ("lattice.miquel_dynamics_step", "circle_pattern.miquel_move")
# Matchings produced, counted from the result's length.
RESULT_COUNTS = {"dimer.enumerate_matchings": "dimer.enumerate_matchings.matchings"}

PACKAGE = "miqueldyn"
SPAN_LIMIT = 20000


def traced_names():
    return ["%s.%s" % (layer, fn) for layer, fns in LAYERS.items() for fn in fns]


def count_names():
    return ["%s.failed" % name for name in FAILURE_COUNTS] + list(RESULT_COUNTS.values())


class Tracer:
    """Install with install(), count while enabled is true, restore with uninstall().

    spans keeps (span id, name, start, end, parent span id or -1) for
    the first SPAN_LIMIT traced calls, in the order they ended.
    """

    def __init__(self):
        self.enabled = False
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(count_names(), 0)
        self.spans = []
        self._stack = []  # [child seconds, span id] per open traced call
        self._next_span = 0
        self._active = set()
        self._patches = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, fns in LAYERS.items():
            module = sys.modules.get("%s.%s" % (PACKAGE, layer))
            if module is None:
                continue
            for fn in fns:
                owner_name, _, attr = fn.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                name = "%s.%s" % (layer, fn)
                wrapper = self._wrap(name, original)
                self._rebind(owner, attr, original, wrapper)
                if owner is module:
                    for other in modules:
                        if other is not module and other.__dict__.get(attr) is original:
                            self._rebind(other, attr, original, wrapper)
                self.calls[name] = 0
                self.self_s[name] = 0.0

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, name, fn):
        failed = name + ".failed" if name in FAILURE_COUNTS else None
        result_count = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or name in self._active:
                return fn(*args, **kwargs)
            self._active.add(name)
            parent = self._stack[-1][1] if self._stack else -1
            frame = [0.0, self._next_span]
            self._next_span += 1
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failed:
                    self.counts[failed] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                self._active.discard(name)
                took = end - start
                self.calls[name] += 1
                self.self_s[name] += took - frame[0]
                if self._stack:
                    self._stack[-1][0] += took
                if frame[1] < SPAN_LIMIT:
                    self.spans.append((frame[1], name, start, end, parent))
            if result_count:
                self.counts[result_count] += len(result)
            return result

        return traced
