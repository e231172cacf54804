"""Exact shell arithmetic of the triangular lattice, in Python ints.

A site with integer coordinates (a, b) has squared modulus
q = a^2 + a*b + b^2, and with t = 2a + b, 4q = t^2 + 3b^2.  So the disk
q <= Q is a table of rows (_disk_rows): row b holds the t of b's parity with
t^2 <= 4Q - 3b^2.  Counts and sums of q over a disk are closed forms per row
(_shell_sums).  The first n sites end in the shell q = q_max, which
lattice_prefix_sums finds in one pass over the rows; with the prefix's
minimum gap of exactly 1 that gives the separation functionals S_2 and S_inf
(lattice_prefix_functionals).  The leading constants c_p and growth scales
n^(1/2 + 1/p) they are compared against live here too.

All of it is exact integer arithmetic on Python ints, and the module imports
nothing beyond the standard library: the CLI's reproduce runs without numpy.
The lattice module enumerates sites from the same row table.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from operator import mul

from .errors import NumericalError, UsageError

CELL_AREA = math.sqrt(3.0) / 2.0  # determinant of the generator matrix

# Largest bound Q that the row table accepts.  Python ints cannot overflow,
# but lattice._sites_within holds the table and the sites' coordinates and
# squared moduli in int64, and the disk q <= 2^38 already has about 6e5 rows
# and 3.1e11 sites.
_MAX_SHELL_BOUND = 2 ** 38

# Circumradius of a lattice site's hexagonal Voronoi cell (area CELL_AREA).
# The cells of the sites with q <= Q lie in the disk of radius
# sqrt(Q) + _CELL_RADIUS and cover the disk of radius sqrt(Q) - _CELL_RADIUS,
# which brackets the count N(Q) between the two disk areas over CELL_AREA.
_CELL_RADIUS = 1.0 / math.sqrt(3.0)


def _validate_p(p) -> float:
    p = float(p)
    if math.isnan(p) or p <= 0.0:
        raise UsageError(f"p must be positive (math.inf allowed), got {p!r}")
    if math.isinf(1.0 / p):  # p below 5.6e-309: out of float range, not bad input
        raise NumericalError(f"1/p overflows at p = {p!r}")
    return p


def _disk_rows(bound: int) -> list[int]:
    """Row table of the disk q <= bound: entry b >= 0 is the largest |t| of
    b's parity with t^2 <= 4 bound - 3b^2, so rows b and -b each hold the
    T + 1 sites t = -T, -T + 2, ..., T.  Empty for a negative bound."""
    if bound > _MAX_SHELL_BOUND:
        raise UsageError(f"shell bound {bound} exceeds {_MAX_SHELL_BOUND}")
    four = 4 * bound
    rows = []
    for b in range(math.isqrt(four // 3) + 1 if bound >= 0 else 0):
        t = math.isqrt(four - 3 * b * b)
        rows.append(t - ((t - b) & 1))
    return rows


def _shell_sums(bound: int) -> tuple[int, int]:
    """Exact (count, sum of q) over the lattice sites with q <= bound.

    O(sqrt(bound)) time: the totals of each row of _disk_rows are closed
    forms, row b > 0 counted twice (for itself and for row -b).
    """
    count = four_q = 0
    for b, t in enumerate(_disk_rows(int(bound))):
        w = 2 if b else 1
        # 4q = t^2 + 3b^2, and t^2 summed over t = -T, -T + 2, ..., T is T(T + 1)(T + 2)/3
        count += w * (t + 1)
        four_q += w * (t * (t + 1) * (t + 2) // 3 + 3 * b * b * (t + 1))
    return count, four_q // 4


def lattice_prefix_sums(n: int) -> tuple[int, int]:
    """(q_max, sum of q) over the first n lattice sites, as exact ints.

    q_max is the smallest Q with N(Q) >= n, where N(Q) counts the sites with
    q <= Q; the sites beyond the last full shell all have q = q_max, so both
    depend only on n.  The Voronoi-cell bracket (_CELL_RADIUS), widened by one
    for rounding, gives N(lo) < n <= N(hi).  One pass over the rows of the
    disk q <= hi counts and sums the part of each row inside q <= lo in
    closed form (as _shell_sums does), and bins the about 4.4 sqrt(n) sites
    with lo < q <= hi by shell, which locates q_max and sums q below it.  No
    site of the prefix is enumerated: O(sqrt(n)) time and memory.
    """
    n = int(n)
    if n < 1:
        raise UsageError("n must be at least 1")
    s = math.sqrt(n * CELL_AREA / math.pi)
    lo = math.floor((s - _CELL_RADIUS) ** 2) - 1 if s > _CELL_RADIUS else -1
    hi = math.ceil((s + _CELL_RADIUS) ** 2) + 1
    inner = _disk_rows(lo)  # the rows b < len(inner) meet the disk q <= lo
    meets = len(inner)
    shells = [0] * (hi - lo)  # site counts of the shells q = lo + 1, ..., hi
    first = lo + 1
    inside = four_q = 0
    for b, top in enumerate(_disk_rows(hi)):
        w = 2 if b else 1  # row b > 0 stands for row -b too
        b3 = 3 * b * b
        if b < meets:
            low = inner[b]
            inside += w * (low + 1)
            four_q += w * (low * (low + 1) * (low + 2) // 3 + b3 * (low + 1))
            t = low + 2
        else:
            t = b & 1
        # the row's sites t, t + 2, ..., top in the annulus: q = (t^2 + 3b^2)/4
        # grows by t + 1 from one to the next, and t > 0 stands for -t too
        i = (t * t + b3) // 4 - first
        if t == 0:
            shells[i] += w
            i, t = i + 1, 2
        while t <= top:
            shells[i] += 2 * w
            i += t + 1
            t += 2
    running = list(accumulate(shells))
    k = bisect_left(running, n - inside)
    q_max = first + k
    if k:
        inside += running[k - 1]
    q_sum = four_q // 4 + sum(map(mul, shells[:k], range(first, q_max)))
    return q_max, q_sum + (n - inside) * q_max


def lattice_prefix_functionals(n: int) -> tuple[float, float]:
    """S_2 and S_inf of the first n lattice sites, from exact shell sums.

    The prefix's minimum gap is exactly 1, so S_2 = sqrt(sum q) and
    S_inf = sqrt(q_max), both correctly rounded.  sum q passes 2^53 near
    n = 2.6e8, where sqrt(float(sum q)) would round twice; q_max is at most
    _MAX_SHELL_BOUND, so float(q_max) is exact.  No site is enumerated
    (lattice_prefix_sums).
    """
    if int(n) < 2:
        raise UsageError("the separation functional needs at least two points")
    q_max, q_sum = lattice_prefix_sums(n)
    return _sqrt_int(q_sum), math.sqrt(float(q_max))


def _sqrt_int(m: int) -> float:
    """sqrt(m) correctly rounded, for an int m >= 0.

    r = isqrt(m * 4^k), with k such that r has at least 56 bits, is the root
    of m * 4^k or truncates it.  2r plus a sticky bit, set when r truncates,
    lies strictly between the same two rounding boundaries as the exact
    2 sqrt(m * 4^k), so one int-to-float conversion rounds it correctly and
    ldexp scales it back exactly.
    """
    k = max(0, (112 - m.bit_length()) // 2)
    shifted = m << 2 * k
    r = math.isqrt(shifted)
    return math.ldexp(float(2 * r + (r * r != shifted)), -k - 1)


def proposition_constant(p) -> float:
    """Leading-order coefficient c_p of the minimal separation functional.

    c_p = (2/(p+2))^(1/p) * 3^(1/4)/sqrt(2*pi); the limit p -> inf is
    3^(1/4)/sqrt(2*pi), and c_2 = 3^(1/4)/(2*sqrt(pi)).
    """
    p = _validate_p(p)
    base = 3.0 ** 0.25 / math.sqrt(2.0 * math.pi)
    if math.isinf(p):
        return base
    return (2.0 / (p + 2.0)) ** (1.0 / p) * base


def _growth_scale(n: int, p: float) -> float:
    """n^(1/2 + 1/p), the growth of min S_p.

    At p = inf it is math.sqrt(n), correctly rounded; n ** 0.5 is 1 ulp off
    at some n (2921 is the first above 100).
    """
    if math.isinf(p):
        return math.sqrt(float(n))
    try:
        return float(n) ** (0.5 + 1.0 / p)
    except OverflowError:
        raise NumericalError(f"n^(1/2 + 1/p) overflows at n = {n}, p = {p!r}") from None
