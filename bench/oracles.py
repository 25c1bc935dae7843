"""Computations made apart from miqueldyn, used to check its outputs.

Nothing here imports the program.  The centre recurrence, the
star-ratio, Ryser's permanent and the lattice reduction are written from
their definitions; the exact Gaussian-rational recurrence and the
brute-force permanent exist to test the fast versions.
"""

import itertools
from fractions import Fraction

import numpy as np


# -- square-grid centre recurrence ---------------------------------------------

def _neighbours(Z, periods):
    """Lifted right, up, left and down neighbours of every cell.

    Z[i, j] is the centre of face (i, j) in the fundamental chart; a
    neighbour across the seam is shifted by one period.
    """
    ox, oy = periods
    right = np.roll(Z, -1, axis=1)
    right[:, -1] += ox
    up = np.roll(Z, -1, axis=0)
    up[-1, :] += oy
    left = np.roll(Z, 1, axis=1)
    left[:, 0] -= ox
    down = np.roll(Z, 1, axis=0)
    down[0, :] -= oy
    return right, up, left, down


def star_ratio(z, z1, z2, z3, z4):
    """-(z1-z)(z3-z) / ((z2-z)(z4-z)) over cyclically ordered neighbours."""
    return -(z1 - z) * (z3 - z) / ((z2 - z) * (z4 - z))


def centre_sweep(Z, periods, parity):
    """One Miquel sweep of the face centres of one parity class.

    With s the star-ratio of a face against its four neighbours, the
    moved centre is (z1 + z3 + s (z2 + z4)) / (1 + s) - z.
    """
    z1, z2, z3, z4 = _neighbours(Z, periods)
    s = star_ratio(Z, z1, z2, z3, z4)
    moved = (z1 + z3 + s * (z2 + z4)) / (1 + s) - Z
    i, j = np.indices(Z.shape)
    return np.where((i + j) % 2 == parity, moved, Z)


def centre_trajectory(Z, periods, parity, sweeps):
    """[Z, Z after 1 sweep, ..., Z after `sweeps` sweeps], parities alternating."""
    out = [np.array(Z, dtype=complex)]
    for k in range(sweeps):
        out.append(centre_sweep(out[-1], periods, (parity + k) % 2))
    return out


def grid_star_ratios(Z, periods):
    """Star-ratio field of a square-grid centre array, in miqueldyn's
    orientation: -(z_r-z)(z_l-z) / ((z_u-z)(z_d-z)) on faces with i+j
    odd and its reciprocal on faces with i+j even."""
    right, up, left, down = _neighbours(Z, periods)
    s = star_ratio(Z, right, up, left, down)
    i, j = np.indices(Z.shape)
    return np.where((i + j) % 2 == 1, s, 1 / s)


def period_distance(a, b, periods):
    """|a - b| after removing the nearest combination of the periods."""
    ox, oy = periods
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    det = ox.real * oy.imag - ox.imag * oy.real
    s = np.round((d.real * oy.imag - d.imag * oy.real) / det)
    t = np.round((ox.real * d.imag - ox.imag * d.real) / det)
    return np.abs(d - s * ox - t * oy)


# -- exact Gaussian rationals ----------------------------------------------------

class GaussianRational:
    """a + b i with Fraction parts; enough arithmetic for the recurrence."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z):
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __add__(self, other):
        other = _gq(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _gq(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _gq(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _gq(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gq(other)
        norm = other.re * other.re + other.im * other.im
        return GaussianRational((self.re * other.re + self.im * other.im) / norm,
                                (self.im * other.re - self.re * other.im) / norm)

    def __rtruediv__(self, other):
        return _gq(other) / self


def _gq(x):
    return x if isinstance(x, GaussianRational) else GaussianRational.from_complex(x)


def exact_centre_sweep(Z, periods, parity):
    """centre_sweep on nested lists of GaussianRational, without rounding."""
    rows, cols = len(Z), len(Z[0])
    ox, oy = periods
    out = [list(row) for row in Z]
    for i in range(rows):
        for j in range(cols):
            if (i + j) % 2 != parity:
                continue
            z = Z[i][j]
            z1 = Z[i][(j + 1) % cols] + (ox if j + 1 == cols else 0)
            z2 = Z[(i + 1) % rows][j] + (oy if i + 1 == rows else 0)
            z3 = Z[i][j - 1] - (ox if j == 0 else 0)
            z4 = Z[i - 1][j] - (oy if i == 0 else 0)
            s = -((z1 - z) * (z3 - z)) / ((z2 - z) * (z4 - z))
            out[i][j] = (z1 + z3 + s * (z2 + z4)) / (s + 1) - z
    return out


# -- permanents and dimer statistics -------------------------------------------

def ryser_permanent(A):
    """Permanent of a square matrix by Ryser's inclusion-exclusion formula.

    perm A = (-1)^n sum over column subsets S of (-1)^|S| prod_i sum_{j in S} a_ij,
    evaluated for all 2^n subsets at once.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 0:
        return 1.0
    masks = np.arange(1 << n)
    members = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    row_sums = members @ A.T
    signs = np.where(members.sum(axis=1) % 2 == n % 2, 1.0, -1.0)
    return float(np.dot(signs, np.prod(row_sums, axis=1)))


def brute_permanent(A):
    """Permanent as the sum over all permutations; for tests only."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return float(sum(np.prod([A[i, p[i]] for i in range(n)])
                     for p in itertools.permutations(range(n))))


def biadjacency(edges, weights):
    """Weighted biadjacency matrix of a bipartite graph.

    edges maps an edge id to its (minus, plus) ends, minus ends on the
    rows; parallel edges add up.  Returns (matrix, row index, column index).
    """
    rows = sorted({m for m, _ in edges.values()})
    cols = sorted({p for _, p in edges.values()})
    if len(rows) != len(cols):
        raise ValueError("colour classes differ in size: %d and %d"
                         % (len(rows), len(cols)))
    r = {v: k for k, v in enumerate(rows)}
    c = {v: k for k, v in enumerate(cols)}
    B = np.zeros((len(rows), len(cols)))
    for eid, (m, p) in edges.items():
        B[r[m], c[p]] += weights[eid]
    return B, r, c


def edge_probabilities(edges, weights, eids):
    """Z and the probability that each edge in eids is in the random
    matching: w_e perm(minor) / perm, the minor dropping e's row and column."""
    B, r, c = biadjacency(edges, weights)
    Z = ryser_permanent(B)
    probs = {}
    for eid in eids:
        m, p = edges[eid]
        minor = np.delete(np.delete(B, r[m], axis=0), c[p], axis=1)
        probs[eid] = weights[eid] * ryser_permanent(minor) / Z
    return Z, probs


def face_sides(faces):
    """edge id -> {forward: face}, from face walks of (edge, forward) steps."""
    sides = {}
    for fid, walk in faces.items():
        for eid, fwd in walk:
            sides.setdefault(eid, {})[fwd] = fid
    return sides


def edges_outside_move(faces, f):
    """Edges with a side off the move at f, that is off f and its neighbours."""
    sides = face_sides(faces)
    allowed = {f} | {sides[eid][not fwd] for eid, fwd in faces[f]}
    return {eid for eid, s in sides.items() if not set(s.values()) <= allowed}


def grid_edge_weights(Z, periods):
    """Centre-distance weight of every edge of a square-grid torus.

    Uses the grid numbering of miqueldyn's build_square_grid_torus:
    horizontal edge i*cols+j lies between faces (i, j) and (i-1, j),
    vertical edge rows*cols + i*cols+j between faces (i, j) and (i, j-1).
    """
    rows, cols = Z.shape
    _, _, left, down = _neighbours(Z, periods)
    weights = {}
    for i in range(rows):
        for j in range(cols):
            weights[i * cols + j] = abs(Z[i, j] - down[i, j])
            weights[rows * cols + i * cols + j] = abs(Z[i, j] - left[i, j])
    return weights
