"""Circle pattern dynamics: mutation moves, star-ratios, dimer urban renewal.

The names this package takes from ``lattice`` (the torus state, the
array sweep and octahedral propagation) are resolved on first access
through ``__getattr__``.  ``lattice`` is the one module that needs
numpy, and importing the two is most of the cost of ``import
miqueldyn``; only ``gen-pattern`` and ``dynamics`` use them, so every
other command starts without them.  The names are looked up on each
access, never cached here, so ``miqueldyn.X is miqueldyn.lattice.X``
holds also while ``lattice.X`` is rebound.  Every other submodule is
imported eagerly.
"""

__version__ = "0.1.0"

from .geometry import (
    INFINITY,
    Circle,
    ExtendedComplex,
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
    reflect_in_line,
    star_ratio,
)

from .surface_graph import (
    Edge,
    SurfaceGraph,
    build_square_grid_patch,
    build_square_grid_torus,
    grid_face_parity,
    mutate_at_face,
    slot_alignment,
    validate_surface_graph,
)
from .circle_pattern import (
    CirclePattern,
    FaceDrawing,
    StarRatioField,
    clifford_point_geometric,
    miquel_move,
    miquel_move_full,
    mobius_mutation_move,
    pattern_star_ratios,
    propagate_from_centers,
    validate_pattern,
)
from .clifford import (
    CliffordConfiguration,
    build_c3,
    build_c4,
    incidence_residual,
    menelaus_multiratios,
    verify_cross_ratio_system,
    verify_shift_identities,
)
from .dimer import (
    MatchingEnsemble,
    UrbanRenewalReport,
    dimer_statistics,
    enumerate_matchings,
    face_weight_update,
    face_weights,
    urban_renewal_check,
    weights_from_pattern,
)
from .jsonio import (
    canonical_dumps,
    circle_from_json,
    circle_to_json,
    clifford_config_to_json,
    complex_from_json,
    complex_to_json,
    drawing_from_json,
    drawing_to_json,
    graph_from_json,
    graph_to_json,
    patch_from_json,
    patch_to_json,
    pattern_from_json,
    pattern_to_json,
    read_json,
    weights_from_json,
    weights_to_json,
    write_json_atomic,
    write_text_atomic,
)
from .svg import pattern_to_svg
from .cli import CommandResult, main, run_command

_LATTICE_NAMES = frozenset((
    "OctahedralPatch",
    "TorusPatternState",
    "direction_star_ratios",
    "generate_kasteleyn_cauchy_data",
    "make_torus_state",
    "miquel_dynamics_step",
    "octahedra_of",
    "patch_from_pattern",
    "propagate_octahedral",
    "torus_displacement",
    "transversal_star_ratios",
))


def __getattr__(name):
    if name in _LATTICE_NAMES:
        from . import lattice
        return getattr(lattice, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _LATTICE_NAMES)
