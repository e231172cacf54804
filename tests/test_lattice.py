"""Lattice enumeration, disk counts, and configuration behavior."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (brute_min_separation, brute_nearest_neighbor_distances,
                      four_key_lattice_sites, reference_prefix_sums)
import eigencond.lattice
from eigencond.cli import MAX_REPRODUCE_N
from eigencond.lattice import (CELL_AREA, Configuration, _kd_tree_nearest, _shell_sums,
                               enumerate_lattice_in_disk, first_n_lattice_points,
                               first_n_sites, lattice_count, lattice_prefix_sums,
                               nearest_neighbor_distances, pairwise_min_separation)

DENSITY = 2.0 * math.pi / math.sqrt(3.0)  # limit of count / r^2


def coords(sites):
    """The (a, b) pairs of a LatticeSites, in enumeration order."""
    return list(zip(sites.a.tolist(), sites.b.tolist()))


def brute_disk_sites(r, closed=True):
    """Oracle: scan a generous box and filter on the exact integer form."""
    bound = int(math.ceil(2.0 * r)) + 3
    limit = (r * (1.0 + 8.0 * np.finfo(float).eps)) ** 2 if closed else r * r
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            q = a * a + a * b + b * b
            if (q <= limit) if closed else (q < limit):
                out.add((a, b))
    return out


def test_disk_r_half_contains_only_origin():
    pts = enumerate_lattice_in_disk(0.5, closed=True)
    assert coords(pts) == [(0, 0)]


def test_disk_r1_closed_has_seven_points():
    pts = enumerate_lattice_in_disk(1.0, closed=True)
    assert len(pts) == 7
    assert set(coords(pts)) == brute_disk_sites(1.0, closed=True)


def test_disk_r1_open_excludes_the_unit_ring():
    assert len(enumerate_lattice_in_disk(1.0, closed=False)) == 1


def test_disk_r0():
    assert len(enumerate_lattice_in_disk(0.0, closed=True)) == 1
    assert len(enumerate_lattice_in_disk(0.0, closed=False)) == 0


@pytest.mark.parametrize("r", [2.5, 5.0, 7.3, 11.0])
def test_disk_matches_bruteforce(r):
    pts = enumerate_lattice_in_disk(r, closed=True)
    assert set(coords(pts)) == brute_disk_sites(r, closed=True)
    assert len(set(coords(pts))) == len(pts)  # no duplicates


def test_disk_r50_count_and_error_band():
    # count frozen from the brute-force oracle; deviation from the area term
    # pi r^2 / (sqrt(3)/2) stays within 2 * r^(2/3)
    pts = enumerate_lattice_in_disk(50.0, closed=True)
    assert len(pts) == 9061
    main_term = math.pi * 50.0 ** 2 / (math.sqrt(3.0) / 2.0)
    assert abs(len(pts) - main_term) <= 2.0 * 50.0 ** (2.0 / 3.0)


def test_ordering_modulus_then_angle_then_coords():
    pts = enumerate_lattice_in_disk(1.0, closed=True)
    assert coords(pts) == [
        (0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


# r = 7 and sqrt(3) put r^2 on a shell; 1 +- 1 ulp straddle the unit ring
BOUNDARY_RADII = [7.0, math.sqrt(3.0), math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("r, closed", [(0.0, True), (1.0, True), (37.25, False),
                                       (160.5, True),
                                       *((r, closed) for r in BOUNDARY_RADII
                                         for closed in (True, False))])
def test_disk_order_matches_four_key_oracle(r, closed):
    # (a, b) never decide the order: no two sites tie on (modulus, argument)
    sites = enumerate_lattice_in_disk(r, closed=closed)
    a, b = four_key_lattice_sites(r, closed)
    assert np.array_equal(sites.a, a) and np.array_equal(sites.b, b)


@given(st.floats(min_value=0.0, max_value=60.0), st.booleans())
def test_any_disk_matches_four_key_oracle(r, closed):
    test_disk_order_matches_four_key_oracle(r, closed)


def test_prefixes_match_four_key_oracle():
    a, b = four_key_lattice_sites(185.0)
    for n in (1, 2, 7, 8, 100, 4999, 20000, 65432, 100000):
        sites = first_n_sites(n)
        assert np.array_equal(sites.a, a[:n]) and np.array_equal(sites.b, b[:n]), n


def test_first_n_sites_scans_the_disk_once(monkeypatch):
    expected = coords(first_n_sites(5000))
    calls = []
    sites_within = eigencond.lattice._sites_within

    def counted(bound):
        calls.append(bound)
        return sites_within(bound)

    def forbidden(r):
        raise AssertionError("first_n_sites counted the disk before enumerating it")

    monkeypatch.setattr(eigencond.lattice, "lattice_count", forbidden)
    monkeypatch.setattr(eigencond.lattice, "_sites_within", counted)
    assert coords(first_n_sites(5000)) == expected
    assert len(calls) == 1


def sorted_q(bound):
    """Oracle: the sorted integer forms q of the disk q <= bound, from the
    bounding-box scan, with their exact running sums (q_sum[k] = sum of the
    k smallest)."""
    a, b = four_key_lattice_sites(math.sqrt(bound))
    q = a * (a + b) + b * b
    assert q[-1] <= bound
    return q, [0] + np.cumsum(q).tolist()


def test_shell_sums_match_enumeration_for_every_small_bound():
    q, q_sum = sorted_q(2000)
    assert _shell_sums(-1) == (0, 0)
    assert _shell_sums(0) == (1, 0)
    for bound in range(2001):
        count = int(np.searchsorted(q, bound, side="right"))
        assert _shell_sums(bound) == (count, q_sum[count]), bound


def test_shell_sums_on_and_next_to_shell_boundaries():
    q, q_sum = sorted_q(40000)
    shells = np.unique(q)
    for shell in [*shells[:20], *shells[len(shells) // 2::997], shells[-1]]:
        for bound in (int(shell) - 1, int(shell), int(shell) + 1):
            if bound > 40000:
                continue
            count = int(np.searchsorted(q, bound, side="right"))
            assert _shell_sums(bound) == (count, q_sum[count]), bound


def test_prefix_sums_match_enumeration():
    q, q_sum = sorted_q(36000)  # more than 10^5 sites
    sizes = [*range(1, 301), *np.random.default_rng(7).integers(301, 100_001, 60).tolist(),
             100_000]
    for n in sizes:
        assert lattice_prefix_sums(n) == (int(q[n - 1]), q_sum[n]), n
    with pytest.raises(ValueError):
        lattice_prefix_sums(0)


def test_prefix_sums_match_bisection_oracle():
    memo = {}

    def shell_sums(bound):
        if bound not in memo:
            memo[bound] = _shell_sums(bound)
        return memo[bound]

    for n in range(1, 30_001):
        assert lattice_prefix_sums(n) == reference_prefix_sums(n, shell_sums), n
    # on and just past a full shell, at every scale: n = N(Q) and N(Q) + 1
    full = {_shell_sums(int(bound))[0] for bound in np.geomspace(1, 2.5e8, 240)}
    assert len(full) >= 200
    for count in sorted(full):
        for n in (count, count + 1):
            assert lattice_prefix_sums(n) == reference_prefix_sums(n), n
    # log-uniform up to the reproduce cap, so that every scale is sampled
    rng = np.random.default_rng(13)
    sizes = np.exp(rng.uniform(math.log(30_001), math.log(MAX_REPRODUCE_N), 300))
    for n in [*sizes.astype(np.int64).tolist(), 10 ** 9]:
        assert lattice_prefix_sums(n) == reference_prefix_sums(n), n


def test_shell_sums_reject_bounds_beyond_int64_terms():
    # at the largest bound the row terms do not wrap: count and sum keep to
    # the disk's area pi Q / CELL_AREA and its integral pi Q^2 / (2 CELL_AREA)
    bound = 2 ** 38
    count, q_sum = _shell_sums(bound)
    assert count == pytest.approx(math.pi * bound / CELL_AREA, rel=1e-9)
    assert q_sum == pytest.approx(math.pi * bound ** 2 / (2.0 * CELL_AREA), rel=1e-9)
    with pytest.raises(ValueError):
        _shell_sums(2 ** 38 + 1)
    with pytest.raises(ValueError):
        lattice_count(1e6)


def test_first_n_sites_identical_with_bounded_peak():
    # oracle: enumerate a disk that surely holds n sites, then take the
    # prefix, as the growth loop this replaces did
    n = 10 ** 6
    tracemalloc.start()
    try:
        sites = first_n_sites(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * n  # the four-array enumeration this replaces peaked at 89
    wide = enumerate_lattice_in_disk(math.sqrt(n * CELL_AREA / math.pi) + 2.0).prefix(n)
    assert np.array_equal(sites.a, wide.a) and np.array_equal(sites.b, wide.b)
    assert sites.z.tobytes() == wide.z.tobytes()


def test_enumeration_is_bit_stable():
    first = enumerate_lattice_in_disk(12.5, closed=True)
    second = enumerate_lattice_in_disk(12.5, closed=True)
    assert coords(first) == coords(second)
    assert first.z.tobytes() == second.z.tobytes()


def test_sorted_prefixes_are_consistent():
    small = coords(first_n_sites(40))
    large = coords(first_n_sites(150))
    assert large[:40] == small


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, 1e200])
def test_rejects_bad_radius(bad):
    with pytest.raises(ValueError):
        enumerate_lattice_in_disk(bad)
    with pytest.raises(ValueError):
        lattice_count(bad)


def test_count_examples():
    assert lattice_count(0.0) == 1
    assert lattice_count(1.0) == 7
    assert lattice_count(100.0) == 36295
    assert abs(lattice_count(100.0) - DENSITY * 100.0 ** 2) / (DENSITY * 100.0 ** 2) < 0.01


def test_count_equals_enumeration_cardinality():
    for r in (0.0, 1.0, 3.3, 9.0, 20.0):
        assert lattice_count(r) == len(enumerate_lattice_in_disk(r, closed=True))


@given(st.floats(min_value=0.0, max_value=40.0), st.floats(min_value=0.0, max_value=5.0))
def test_count_monotone(r, bump):
    assert lattice_count(r) <= lattice_count(r + bump)


@pytest.mark.parametrize("r", [50.0, 100.0, 200.0])
def test_count_density_limit(r):
    assert abs(lattice_count(r) / r ** 2 - DENSITY) / DENSITY < 0.02


def test_first_n_origin_first():
    c = first_n_lattice_points(1)
    assert c.n == 1 and c.points[0] == 0.0


def test_first_n_seven():
    c = first_n_lattice_points(7)
    moduli = sorted(np.abs(c.points))
    assert moduli[0] == 0.0
    assert np.allclose(moduli[1:], 1.0, rtol=0, atol=1e-15)
    assert c.min_separation == 1.0


def test_first_n_rejects_zero():
    with pytest.raises(ValueError):
        first_n_lattice_points(0)


def test_first_n_10k_max_modulus_band():
    c = first_n_lattice_points(10_000)
    limit = 3.0 ** 0.25 * math.sqrt(10_000) / math.sqrt(2.0 * math.pi)
    assert 0.95 * limit <= np.abs(c.points).max() <= 1.05 * limit


@pytest.mark.parametrize("n", [2, 7, 50, 200, 500])
def test_first_n_min_separation_is_one(n):
    c = first_n_lattice_points(n)
    assert c.min_separation == 1.0
    # brute force reproduces the analytic value to a few ulps (the embedding
    # rounds b*sqrt(3)/2 per row)
    assert abs(brute_min_separation(c.points) - 1.0) <= 1e-13


def test_lattice_centroid_shift_below_unity():
    c = first_n_lattice_points(100)
    assert abs(c.points.mean()) < 1.0


@given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10_000))
def test_min_separation_matches_bruteforce(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert Configuration(z).min_separation == brute_min_separation(z)


def test_configuration_neighbour_distances_fill_an_empty_cache(monkeypatch):
    z = np.array([0.0, 1.0, 3.0, 3.5j])
    fresh = Configuration(z)
    assert np.array_equal(fresh.nearest_neighbor_distances(), brute_nearest_neighbor_distances(z))
    monkeypatch.setattr(eigencond.lattice, "pairwise_min_separation", None)  # no second search
    assert fresh.min_separation == brute_min_separation(z)
    given_gap = Configuration(z, min_separation=0.25)
    given_gap.nearest_neighbor_distances()
    assert given_gap.min_separation == 0.25


def test_sites_arrays_and_embedding():
    sites = enumerate_lattice_in_disk(3.0)
    assert sites.a.dtype == sites.b.dtype == np.int64
    assert sites.z.dtype == np.complex128
    assert len(sites) == sites.a.size == sites.b.size == sites.z.size
    # each z is exactly the scalar embedding (a + b/2) + i*b*sqrt(3)/2
    assert sites.z.tolist() == [complex(a + 0.5 * b, b * (math.sqrt(3.0) / 2.0))
                                for a, b in coords(sites)]
    with pytest.raises(ValueError):
        sites.z[0] = 1.0


def _point_family(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "duplicates":
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return z[rng.integers(0, max(1, n // 3), size=n)]  # every value repeats
    if kind == "grid":
        side = int(math.isqrt(n)) + 1
        g = np.arange(side)
        return (g[:, None] + 1j * g[None, :]).ravel()[:n]  # up to 4 tied neighbours
    if kind == "lattice":
        return first_n_lattice_points(n).points
    raise ValueError(kind)


@given(st.sampled_from(["gaussian", "duplicates", "grid", "lattice"]),
       st.integers(min_value=9, max_value=600),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=-600, max_value=600))
def test_nearest_neighbors_match_bruteforce(kind, n, seed, k):
    # the public function switches to the tree above 256 points; the tree
    # itself is checked at every size
    z = _point_family(kind, n, seed) * 2.0 ** k
    expected = brute_nearest_neighbor_distances(z)
    assert np.array_equal(nearest_neighbor_distances(z), expected)
    assert np.array_equal(_kd_tree_nearest(z), expected)


_RING = np.exp(2j * np.pi * np.arange(12) / 12)
_CLOUD = _point_family("gaussian", 300, 3)


@pytest.mark.parametrize("z", [
    np.zeros(20, dtype=complex),                      # all coincident
    _RING,                                            # 12 near-equal gaps
    np.append(_RING, 0.0),                            # 12 neighbours tied at 1
    np.array([0.0, 2.0 ** -1070, 1.0, 1.0 + 2.0 ** -600, 3.0, 7.0, 9.0, 11.0, 20.0]),
    _CLOUD * 2.0 ** 1000,                             # squares overflow unscaled
    _CLOUD * 2.0 ** -1000,                            # squares underflow unscaled
    # a cluster whose squared gaps are subnormal after prescaling
    np.append(_point_family("gaussian", 60, 13) * 2.0 ** -535, 1.0),
])
def test_nearest_neighbors_ties_and_extreme_gaps(z):
    assert np.array_equal(_kd_tree_nearest(z), brute_nearest_neighbor_distances(z))


def test_nearest_neighbors_lattice_prefix_20k():
    z = first_n_lattice_points(20_000).points
    assert np.array_equal(nearest_neighbor_distances(z),
                          brute_nearest_neighbor_distances(z))


def test_nearest_neighbors_reject_bad_input():
    with pytest.raises(ValueError):
        nearest_neighbor_distances([1.0])
    with pytest.raises(ValueError):
        nearest_neighbor_distances([0.0, complex(math.inf, 0.0)])


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration([])
    with pytest.raises(ValueError):
        Configuration([1.0, complex(math.nan, 0.0)])
    with pytest.raises(ValueError):
        _ = Configuration([1.0]).min_separation
    with pytest.raises(ValueError):
        Configuration([0.0, 1.0], min_separation=-1.0)


def test_configuration_points_are_immutable():
    c = Configuration([0.0, 1.0])
    with pytest.raises(ValueError):
        c.points[0] = 5.0
