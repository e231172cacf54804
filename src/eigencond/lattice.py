"""Unit-side triangular lattice: enumeration, extremal prefixes, disk counts.

Sites carry integer coordinates (a, b) and live at z = (a + b/2) + i*b*sqrt(3)/2,
so the squared modulus is the integer quadratic form q = a^2 + a*b + b^2.  All
disk-membership and ordering decisions are made on that exact integer form,
which makes enumeration reproducible bit for bit: points are sorted by
modulus, ties broken by argument in [0, 2*pi).

A radius maps to an integer bound Q in one place (_radius_bound), and one
integer row table decides the disk q <= Q (_disk_rows): with t = 2a + b,
4q = t^2 + 3b^2, so row b holds the t of b's parity with t^2 <= 4Q - 3b^2.
Enumeration expands each row into its consecutive a (_sites_within); counts
and sums of q need no site, as each row's are closed forms (_shell_sums).
The first n sites end in the shell q = q_max; lattice_prefix_sums finds it in
one pass over the sites between two disks that bracket it, and first_n_sites
enumerates the disk q <= q_max only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_HEIGHT = math.sqrt(3.0) / 2.0  # generator columns are (1, 0) and (1/2, sqrt(3)/2)
CELL_AREA = ROW_HEIGHT             # determinant of the generator matrix

# A closed disk of radius r admits |z| <= r*(1 + slack): lattice moduli are
# irrational except on a sparse set, but radii like r=1 hit points exactly
# and must not be lost to rounding.
_BOUNDARY_SLACK = 8.0 * np.finfo(float).eps

# Largest bound Q that the row table accepts.  Every _shell_sums row term
# stays below 2^61 in int64 there (about 8 Q^1.5); the disk holds ~3.1e11 sites.
_MAX_SHELL_BOUND = 2 ** 38

# Circumradius of a lattice site's hexagonal Voronoi cell (area CELL_AREA).
# The cells of the sites with q <= Q lie in the disk of radius
# sqrt(Q) + _CELL_RADIUS and cover the disk of radius sqrt(Q) - _CELL_RADIUS,
# which brackets the count N(Q) between the two disk areas over CELL_AREA.
_CELL_RADIUS = 1.0 / math.sqrt(3.0)

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
        raise ValueError("nearest-neighbor distances need at least two points")
    if not np.all(np.isfinite(z)):
        raise ValueError("nearest-neighbor distances need finite points")
    if n > _MATRIX_MAX:
        return _kd_tree_nearest(z)
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _kd_tree_nearest(z: np.ndarray) -> np.ndarray:
    """nearest_neighbor_distances of more than _CANDIDATES finite points."""
    # imported here: scipy.spatial adds a noticeable share to the CLI's start-up
    from scipy.spatial import cKDTree

    xy = np.column_stack((z.real, z.imag))
    # an exact power-of-two prescale keeps squared distances inside the
    # float range without rounding any coordinate
    _, exponent = np.frexp(np.max(np.abs(xy)))
    xy = np.ldexp(xy, -exponent)
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

    The cache is computed on first access from nearest_neighbor_distances;
    constructors that know the separation analytically (the lattice prefix, a
    translation) may pass it in.  Values are safe to share across threads.
    """

    def __init__(self, points, min_separation: float | None = None):
        pts = np.array(points, dtype=np.complex128).ravel()
        if pts.size == 0:
            raise ValueError("a configuration needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("configuration points must be finite")
        pts.setflags(write=False)
        self._points = pts
        if min_separation is not None:
            min_separation = float(min_separation)
            if not (math.isfinite(min_separation) and min_separation >= 0.0):
                raise ValueError("min_separation must be finite and nonnegative")
        self._min_sep = min_separation

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return self._points.size

    def __len__(self) -> int:
        return self._points.size

    @property
    def min_separation(self) -> float:
        """Minimum pairwise distance; defined only for n >= 2."""
        if self._min_sep is None:
            if self.n < 2:
                raise ValueError("min_separation is undefined for a single point")
            self._min_sep = pairwise_min_separation(self._points)
        return self._min_sep

    def nearest_neighbor_distances(self) -> np.ndarray:
        """nearest_neighbor_distances of the points; fills an empty separation cache."""
        nnd = nearest_neighbor_distances(self._points)
        if self._min_sep is None:
            self._min_sep = float(nnd.min())
        return nnd

    def __repr__(self) -> str:
        return f"Configuration(n={self.n})"


def _radius_bound(r, closed: bool) -> int:
    """Largest Q with q <= Q exactly on the sites |z| <= r (closed, with
    boundary slack) or |z| < r; q is an integer, so that is floor(limit),
    or ceil(limit) - 1 for the strict limit.  Rejects Q > _MAX_SHELL_BOUND."""
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
    with np.errstate(over="ignore"):
        limit = (r * (1.0 + _BOUNDARY_SLACK)) ** 2 if closed else r * r
    if limit > _MAX_SHELL_BOUND:
        raise ValueError(f"radius {r!r} is too large: q bound above {_MAX_SHELL_BOUND}")
    return math.floor(limit) if closed else math.ceil(limit) - 1


def _disk_rows(bound: int) -> np.ndarray:
    """Row table of the disk q <= bound: entry b >= 0 is the largest |t| of
    b's parity with t^2 <= 4 bound - 3b^2, so rows b and -b each hold the
    T + 1 sites t = -T, -T + 2, ..., T.  Empty for a negative bound."""
    if bound > _MAX_SHELL_BOUND:  # int64 row terms could overflow
        raise ValueError(f"shell bound {bound} exceeds {_MAX_SHELL_BOUND}")
    b = np.arange(math.isqrt(4 * bound // 3) + 1 if bound >= 0 else 0, dtype=np.int64)
    # isqrt(x): x < 2^41 is exact in a float and its correctly rounded root
    # lies within 2^-31 of sqrt(x), while a non-square's root is at least
    # 2^-22 below the next integer, so truncation cannot round up
    t = np.sqrt((4 * bound - 3 * b * b).astype(float)).astype(np.int64)
    return t - ((t - b) & 1)


def _sites_within(bound: int) -> LatticeSites:
    """Every site with q <= bound, in enumeration order (enumerate_lattice_in_disk)."""
    half = _disk_rows(bound)
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


def _shell_sums(bound: int) -> tuple[int, int]:
    """Exact (count, sum of q) over the lattice sites with q <= bound.

    O(sqrt(bound)) time and memory: the totals of each row of _disk_rows are
    closed forms, row b > 0 counted twice (for itself and for row -b).
    """
    t = _disk_rows(int(bound))
    b = np.arange(t.size, dtype=np.int64)
    count = t + 1
    # 4q = t^2 + 3b^2, and t^2 summed over t = -T, -T + 2, ..., T is T(T + 1)(T + 2)/3
    four_q = t * (t + 1) * (t + 2) // 3 + 3 * b * b * count
    count[1:] *= 2
    four_q[1:] *= 2
    return int(count.sum()), sum(four_q.tolist()) // 4


def lattice_prefix_sums(n: int) -> tuple[int, int]:
    """(q_max, sum of q) over the first n lattice sites, as exact ints.

    q_max is the smallest Q with N(Q) >= n, where N(Q) counts the sites with
    q <= Q; the sites beyond the last full shell all have q = q_max, so both
    depend only on n.  The Voronoi-cell bracket (_CELL_RADIUS), widened by one
    for rounding, gives N(lo) < n <= N(hi).  _shell_sums(lo) counts and sums
    the disk q <= lo; the about 4.4 sqrt(n) sites with lo < q <= hi are listed
    from the two row tables and counted per shell, which locates q_max and
    sums q below it in the same pass.  No site of the prefix is enumerated:
    O(sqrt(n)) time and memory.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    s = math.sqrt(n * CELL_AREA / math.pi)
    lo = math.floor((s - _CELL_RADIUS) ** 2) - 1 if s > _CELL_RADIUS else -1
    hi = math.ceil((s + _CELL_RADIUS) ** 2) + 1
    inside, q_sum = _shell_sums(lo)
    # rows b >= 0 of the annulus lo < q <= hi hold t = start, start + 2, ..., top
    # with t >= 0; a row the disk q <= lo misses starts at t = 0 or 1
    top = _disk_rows(hi)
    b = np.arange(top.size, dtype=np.int64)
    start = b & 1
    below = _disk_rows(lo)
    start[:below.size] = below + 2
    count = (top - start) // 2 + 1
    first = np.cumsum(count) - count
    bb = np.repeat(b, count)
    t = 2 * np.arange(bb.size, dtype=np.int64) + np.repeat(start - 2 * first, count)
    # each site stands for its mirror images at -t and at -b
    weight = (1 + (t > 0)) * (1 + (bb > 0))
    shells = np.bincount((t * t + 3 * bb * bb) // 4 - (lo + 1), weights=weight,
                         minlength=hi - lo).astype(np.int64)
    k = int(np.searchsorted(np.cumsum(shells), n - inside))
    q_max = lo + 1 + k
    # the annulus holds about 8.4 sqrt(hi) sites, so its sum of q stays below
    # 8.4 hi^1.5 < 2^61 in int64 for hi <= _MAX_SHELL_BOUND
    inside += int(shells[:k].sum())
    q_sum += int(shells[:k] @ np.arange(lo + 1, q_max, dtype=np.int64))
    return q_max, q_sum + (n - inside) * q_max


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
