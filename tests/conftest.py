"""Shared helpers and hypothesis settings for the suite."""

import math

import numpy as np
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


def random_unitary(rng, n):
    """Haar unitary via phase-corrected QR of a complex Ginibre sample."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_distinct_points(rng, n, min_gap=0.05, spread=2.0):
    """Random complex points whose pairwise gaps all exceed min_gap."""
    while True:
        z = spread * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_gap:
            return z


def brute_nearest_neighbor_distances(points):
    """Oracle: nearest-neighbour distance of every point by a scan over all
    pairs, holding at most ~2M pairwise entries at a time."""
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = z.size
    out = np.empty(n, dtype=float)
    block = max(1, (1 << 21) // n)
    for lo in range(0, n, block):
        d = np.abs(z[lo:lo + block, None] - z[None, :])
        rows = np.arange(d.shape[0])
        d[rows, lo + rows] = np.inf
        out[lo:lo + d.shape[0]] = d.min(axis=1)
    return out


def brute_min_separation(points):
    """Oracle: minimum pairwise distance by a scan over all pairs."""
    return float(brute_nearest_neighbor_distances(points).min())
