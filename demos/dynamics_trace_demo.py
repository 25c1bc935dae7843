"""Full-sweep dynamics on a random torus pattern.

Generates a 4x4 torus pattern with real positive star-ratios and runs
a fixed number of full parity sweeps.  Each sweep moves the centres of
one parity class through the mutation map of their neighbours; the
vertices are reflected out of one anchor vertex whenever the pattern is
read, and any numeric failure would raise instead of returning garbage.
Every few sweeps the demo prints the range of the star-ratio field,
which stays real and positive, and the largest relative residual of the
derived vertices.  The regular isoradial pattern does not move at all
(it is a fixed point of the dynamics).
"""

from miqueldyn import (
    generate_kasteleyn_cauchy_data,
    make_torus_state,
    miquel_dynamics_step,
    pattern_star_ratios,
    torus_displacement,
)
from miqueldyn.lattice import torus_vertices

ROWS, COLS = 4, 4
SWEEPS = 200

print("== random spacings ==")
p = generate_kasteleyn_cauchy_data(ROWS, COLS, seed=7, spread=0.5)
state = make_torus_state(p, ROWS, COLS)
for sweep in range(SWEEPS + 1):
    if sweep % 25 == 0:
        field = pattern_star_ratios(state.pattern.centers_drawing())
        srs = [field.values[f].real for f in sorted(field.values)]
        grid = torus_vertices(state)
        residual = max(grid.closure.max(), grid.concyclic.max())
        print("sweep %3d: parity %d, sr range [%.4f, %.4f], all real positive %s, "
              "vertex residual %.1e"
              % (sweep, state.step_parity, min(srs), max(srs),
                 field.all_positive(), residual))
    if sweep < SWEEPS:
        state = miquel_dynamics_step(state)

print()
print("== uniform spacings (isoradial) ==")
p0 = generate_kasteleyn_cauchy_data(ROWS, COLS, seed=0, spread=0.0)
state = make_torus_state(p0, ROWS, COLS)
stepped = miquel_dynamics_step(state)
moved = max(
    torus_displacement(p0.center_points[f],
                       stepped.pattern.center_points[f], p0.periods)
    for f in p0.center_points
)
print("largest center displacement after one sweep: %.2e" % moved)
print("(displacements are measured modulo the period lattice, so a")
print(" representative that jumps by whole periods counts as unmoved)")
