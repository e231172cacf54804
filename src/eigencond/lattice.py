"""Unit-side triangular lattice: enumeration, extremal prefixes, disk counts.

Sites carry integer coordinates (a, b) and live at z = (a + b/2) + i*b*sqrt(3)/2,
so the squared modulus is the integer quadratic form a^2 + a*b + b^2.  All
disk-membership and ordering decisions are made on that exact integer form,
which makes enumeration reproducible bit for bit: points are sorted by
modulus, ties broken by argument in [0, 2*pi).
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

    def __repr__(self) -> str:
        return f"Configuration(n={self.n})"


def _validate_radius(r) -> float:
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
    return r


def _scan_rows(limit: float, strict: bool):
    """Yield (a_values, b) per lattice row with a^2 + ab + b^2 (<) <= limit."""
    if limit < 0.0:
        return
    bmax = int(math.floor(math.sqrt(limit / 0.75))) + 1 if limit > 0.0 else 0
    for b in range(-bmax, bmax + 1):
        rem = limit - 0.75 * b * b
        if rem < 0.0:
            continue
        half = math.sqrt(rem)
        a = np.arange(int(math.ceil(-0.5 * b - half)) - 1,
                      int(math.floor(-0.5 * b + half)) + 2, dtype=np.int64)
        q = a * (a + b) + b * b
        a = a[(q < limit) if strict else (q <= limit)]
        if a.size:
            yield a, b


def enumerate_lattice_in_disk(r, closed: bool = True) -> LatticeSites:
    """Every lattice point with |z| <= r (closed, with boundary slack) or |z| < r.

    Deterministic order: by the integer squared modulus, ties broken by
    argument in [0, 2*pi).  No two sites tie: distinct sites of equal
    modulus r lie on one circle at least 1 apart, so their arguments differ
    by at least 1/r, far above the rounding of the computed angles.
    """
    r = _validate_radius(r)
    if closed:
        limit, strict = (r * (1.0 + _BOUNDARY_SLACK)) ** 2, False
    else:
        limit, strict = r * r, True
    rows = list(_scan_rows(limit, strict))
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return LatticeSites.from_coords(empty, empty)
    aa = np.concatenate([a for a, _ in rows])
    bb = np.concatenate([np.full(a.size, b, dtype=np.int64) for a, b in rows])
    q = aa * (aa + bb) + bb * bb
    angle = np.mod(np.arctan2(bb * ROW_HEIGHT, aa + 0.5 * bb), 2.0 * math.pi)
    order = np.lexsort((angle, q))
    return LatticeSites.from_coords(aa[order], bb[order])


def lattice_count(r) -> int:
    """Number of lattice points in the closed disk of radius r."""
    r = _validate_radius(r)
    limit = (r * (1.0 + _BOUNDARY_SLACK)) ** 2
    return sum(a.size for a, _ in _scan_rows(limit, strict=False))


def first_n_sites(n: int) -> LatticeSites:
    """The first n lattice sites in increasing modulus order (deterministic ties)."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    # invert the density count pi r^2 / cell area, then grow until enough
    r = math.sqrt(n * CELL_AREA / math.pi) + 2.0
    while True:
        sites = enumerate_lattice_in_disk(r, closed=True)
        if len(sites) >= n:
            return sites.prefix(n)
        r *= 1.3


def first_n_lattice_points(n: int) -> Configuration:
    """Configuration of the first n lattice points by increasing modulus.

    The minimum separation of any lattice subset containing a nearest pair is
    exactly 1, so the cache is set analytically; recomputing it from the
    points reproduces it to a few ulps (the embedding rounds b*sqrt(3)/2 per
    row).
    """
    z = first_n_sites(n).z
    return Configuration(z, min_separation=1.0 if z.size >= 2 else None)


def translate_to_centroid(c: Configuration) -> Configuration:
    """Shift a configuration so its mean is zero; distances are unchanged."""
    pts = c.points
    shifted = pts - pts.mean()
    return Configuration(shifted, min_separation=c._min_sep)
