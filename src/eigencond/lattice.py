"""Unit-side triangular lattice: enumeration, extremal prefixes, disk counts.

Sites carry integer coordinates (a, b) and live at z = (a + b/2) + i*b*sqrt(3)/2,
so the squared modulus is the integer quadratic form q = a^2 + a*b + b^2.  All
disk-membership and ordering decisions are made on that exact integer form,
which makes enumeration reproducible bit for bit: points are sorted by
modulus, ties broken by argument in [0, 2*pi).

A radius maps to an integer bound Q in one place (_radius_bound), and one
integer row table decides the disk q <= Q (shells._disk_rows): with
t = 2a + b, 4q = t^2 + 3b^2, so row b holds the t of b's parity with
t^2 <= 4Q - 3b^2.  Enumeration expands each row into its consecutive a
(_sites_within); counts and sums of q need no site and no numpy, and live in
the shells module (_shell_sums, lattice_prefix_sums), whose names are
imported here.  first_n_sites takes the last shell q_max of the prefix from
lattice_prefix_sums and enumerates the disk q <= q_max only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .linalg import pow2_scale, prescale
from .shells import (_CELL_RADIUS, _MAX_SHELL_BOUND, CELL_AREA,  # noqa: F401
                     _disk_rows, _shell_sums, lattice_prefix_sums)

ROW_HEIGHT = CELL_AREA  # sqrt(3)/2: generator columns are (1, 0) and (1/2, sqrt(3)/2)

# A closed disk of radius r admits |z| <= r*(1 + slack): lattice moduli are
# irrational except on a sparse set, but radii like r=1 hit points exactly
# and must not be lost to rounding.
_BOUNDARY_SLACK = 8.0 * np.finfo(float).eps

# Up to this many points the full distance matrix (at most 64k entries) is
# faster than a k-d tree, and it spares importing scipy.spatial, which adds
# about 8 MB of resident memory to a process.
_MATRIX_MAX = 256

# k-d-tree constants.  The tree proposes _CANDIDATES nearest points per query
# point (itself included); a point whose farthest candidate lies within
# _TIE_RTOL of its nearest may have tied neighbours outside that set, and so
# may a point whose nearest candidate is closer than _TINY after prescaling,
# where squared distances lose precision to underflow.
_CANDIDATES = 8
_TIE_RTOL = 1e-12
_TINY = 2.0 ** -500


@dataclass(frozen=True, eq=False)
class LatticeSites:
    """Lattice sites in enumeration order, held as read-only arrays.

    a and b are the integer coordinates (int64) and z the complex embedding
    (a + b/2) + i*b*sqrt(3)/2 (complex128).  len() is the number of sites.
    """

    a: np.ndarray
    b: np.ndarray
    z: np.ndarray

    @classmethod
    def from_coords(cls, a: np.ndarray, b: np.ndarray) -> "LatticeSites":
        """Sites with int64 coordinates a, b; z is built from them exactly."""
        z = np.empty(a.size, dtype=np.complex128)
        z.real = a + 0.5 * b
        z.imag = b * ROW_HEIGHT
        for arr in (a, b, z):
            arr.setflags(write=False)
        return cls(a, b, z)

    def __len__(self) -> int:
        return self.a.size

    def prefix(self, n: int) -> "LatticeSites":
        """The first n sites."""
        return LatticeSites(self.a[:n], self.b[:n], self.z[:n])


def pair_distances(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs of the points z: dz[i, j] = z_i - z_j and d = |dz|, with
    d = inf on the diagonal so that a minimum runs over distinct pairs."""
    dz = z[:, None] - z[None, :]
    d = np.abs(dz)
    d.flat[::z.size + 1] = np.inf
    return dz, d


def nearest_neighbor_distances(points) -> np.ndarray:
    """Distance from each point to its nearest other point.

    Every returned value is np.abs(z_i - z_j) for a minimizing j, so the
    result equals a scan over all pairs bit for bit.  Up to _MATRIX_MAX
    points that scan is what runs; above it a k-d tree selects the
    candidates.  Coincident points give distance 0.
    """
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = z.size
    if n < 2:
        raise UsageError("nearest-neighbor distances need at least two points")
    if not np.all(np.isfinite(z)):
        raise UsageError("nearest-neighbor distances need finite points")
    if n > _MATRIX_MAX:
        return _kd_tree_nearest(z)
    return pair_distances(z)[1].min(axis=1)


def _kd_tree_nearest(z: np.ndarray) -> np.ndarray:
    """nearest_neighbor_distances of more than _CANDIDATES finite points."""
    # imported here: scipy.spatial adds a noticeable share to the CLI's start-up
    from scipy.spatial import cKDTree

    # an exact power-of-two prescale keeps squared distances inside the
    # float range without rounding any coordinate
    zs, _ = prescale(z)
    xy = np.column_stack((zs.real, zs.imag))
    tree = cKDTree(xy)
    dist, idx = tree.query(xy, k=_CANDIDATES)
    own = np.arange(z.size)
    out = np.full(z.size, np.inf)
    for c in range(_CANDIDATES):
        d = np.abs(z - z[idx[:, c]])
        d[idx[:, c] == own] = np.inf
        np.minimum(out, d, out=out)
    nearest = dist[:, 1]
    doubt = np.flatnonzero((dist[:, -1] <= nearest * (1.0 + _TIE_RTOL)) | (nearest < _TINY))
    if doubt.size:
        radius = nearest[doubt] * (1.0 + _TIE_RTOL) + _TINY
        for i, js in zip(doubt, tree.query_ball_point(xy[doubt], radius)):
            js = np.asarray(js)
            out[i] = np.abs(z[i] - z[js[js != i]]).min()
    return out


def pairwise_min_separation(points) -> float:
    """Exact minimum |z_i - z_j| over distinct pairs."""
    return float(np.min(nearest_neighbor_distances(points)))


class Configuration:
    """Immutable finite multiset of complex points with a cached minimum separation.

    Gaps are measured on the points prescaled by an exact power of two
    (linalg.prescale), where no difference of two points can overflow;
    min_separation and nearest_neighbor_distances map them back exactly
    with pow2_scale, and only that last step can leave the float range.
    The cache is computed on first access from nearest_neighbor_distances;
    constructors that know the separation analytically (the lattice prefix)
    may pass it in.  Distinct points that the prescale rounds together (they
    span more than the float range) raise NumericalError where a gap is
    first computed.  Values are safe to share across threads.
    """

    def __init__(self, points, min_separation: float | None = None):
        pts = np.array(points, dtype=np.complex128).ravel()
        if pts.size == 0:
            raise UsageError("a configuration needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise UsageError("configuration points must be finite")
        pts.setflags(write=False)
        self._points = pts
        self._scaled, self._exp = prescale(pts)
        self._scaled.setflags(write=False)
        if min_separation is not None:
            min_separation = float(min_separation)
            if not (math.isfinite(min_separation) and min_separation >= 0.0):
                raise UsageError("min_separation must be finite and nonnegative")
            min_separation = float(pow2_scale(min_separation, self._exp))
        self._scaled_gap = min_separation

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return self._points.size

    def __len__(self) -> int:
        return self._points.size

    @property
    def prescaled(self) -> tuple[np.ndarray, int]:
        """(points * 2^s, s), the largest |re| or |im| of a point in [1/2, 1)."""
        return self._scaled, self._exp

    @property
    def scaled_min_separation(self) -> float:
        """Minimum pairwise distance of the prescaled points; defined only for n >= 2."""
        if self._scaled_gap is None:
            if self.n < 2:
                raise UsageError("min_separation is undefined for a single point")
            self.scaled_nearest_neighbor_distances()
        return self._scaled_gap

    @property
    def min_separation(self) -> float:
        """Minimum pairwise distance; defined only for n >= 2."""
        return float(pow2_scale(self.scaled_min_separation, -self._exp))

    def scaled_nearest_neighbor_distances(self) -> np.ndarray:
        """nearest_neighbor_distances of the prescaled points; fills an empty
        separation cache, raising NumericalError if distinct points scale to one."""
        nnd = nearest_neighbor_distances(self._scaled)
        if self._scaled_gap is None:
            gap = float(nnd.min())
            if gap == 0.0 and np.unique(self._points).size == self.n:
                raise NumericalError(
                    "the points span more than the float range: distinct points coincide "
                    f"when scaled by 2^{self._exp} to bring the largest coordinate into [1/2, 1)")
            self._scaled_gap = gap
        return nnd

    def nearest_neighbor_distances(self) -> np.ndarray:
        """nearest_neighbor_distances of the points; fills an empty separation cache."""
        return pow2_scale(self.scaled_nearest_neighbor_distances(), -self._exp)

    def __repr__(self) -> str:
        return f"Configuration(n={self.n})"


def _radius_bound(r, closed: bool) -> int:
    """Largest Q with q <= Q exactly on the sites |z| <= r (closed, with
    boundary slack) or |z| < r; q is an integer, so that is floor(limit),
    or ceil(limit) - 1 for the strict limit.  Rejects Q > _MAX_SHELL_BOUND."""
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise UsageError(f"radius must be finite and nonnegative, got {r!r}")
    with np.errstate(over="ignore"):
        limit = (r * (1.0 + _BOUNDARY_SLACK)) ** 2 if closed else r * r
    if limit > _MAX_SHELL_BOUND:
        raise UsageError(f"radius {r!r} is too large: q bound above {_MAX_SHELL_BOUND}")
    return math.floor(limit) if closed else math.ceil(limit) - 1


def _sites_within(bound: int) -> LatticeSites:
    """Every site with q <= bound, in enumeration order (enumerate_lattice_in_disk)."""
    half = np.array(_disk_rows(bound), dtype=np.int64)
    rows = np.arange(1 - half.size, half.size, dtype=np.int64)
    t = half[np.abs(rows)]
    count = t + 1
    bb = np.repeat(rows, count)
    # row b holds the consecutive a = (-T - b)/2, ..., (T - b)/2 from site
    # index cumsum(count) - count on
    shift = (-t - rows) // 2 - (np.cumsum(count) - count)
    aa = np.arange(bb.size, dtype=np.int64) + np.repeat(shift, count)
    q = aa * (aa + bb) + bb * bb
    angle = np.mod(np.arctan2(bb * ROW_HEIGHT, aa + 0.5 * bb), 2.0 * math.pi)
    order = np.lexsort((angle, q))
    del q, angle
    aa = aa[order]
    bb = bb[order]
    del order
    return LatticeSites.from_coords(aa, bb)


def enumerate_lattice_in_disk(r, closed: bool = True) -> LatticeSites:
    """Every lattice point with |z| <= r (closed, with boundary slack) or |z| < r.

    Deterministic order: by the integer squared modulus, ties broken by
    argument in [0, 2*pi).  No two sites tie: distinct sites of equal
    modulus r lie on one circle at least 1 apart, so their arguments differ
    by at least 1/r, far above the rounding of the computed angles.
    """
    return _sites_within(_radius_bound(r, closed))


def lattice_count(r) -> int:
    """Number of lattice points in the closed disk of radius r."""
    return _shell_sums(_radius_bound(r, closed=True))[0]


def first_n_sites(n: int) -> LatticeSites:
    """The first n lattice sites in increasing modulus order (deterministic ties)."""
    q_max, _ = lattice_prefix_sums(n)
    return _sites_within(q_max).prefix(int(n))


def first_n_lattice_points(n: int) -> Configuration:
    """Configuration of the first n lattice points by increasing modulus.

    The minimum separation of any lattice subset containing a nearest pair is
    exactly 1, so the cache is set analytically; recomputing it from the
    points reproduces it to a few ulps (the embedding rounds b*sqrt(3)/2 per
    row).
    """
    z = first_n_sites(n).z
    return Configuration(z, min_separation=1.0 if z.size >= 2 else None)
