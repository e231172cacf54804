"""Scale-invariant separation functionals and their leading-order constants.

S_p of a configuration is the p-norm of the point moduli divided by the
minimum pairwise gap.  S_2 and S_inf coincide with the Frobenius- and
operator-norm eigenvector conditioning of the diagonal matrix built from the
points, and for the triangular-lattice prefix they grow like
c_p * n^(1/2 + 1/p) with c_p = (2/(p+2))^(1/p) * 3^(1/4) / sqrt(2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .lattice import Configuration, first_n_lattice_points, lattice_prefix_sums


def _validate_p(p) -> float:
    p = float(p)
    if math.isnan(p) or p <= 0.0:
        raise ValueError(f"p must be positive (math.inf allowed), got {p!r}")
    return p


def _power_terms(moduli: np.ndarray, p: float):
    """top = max m_i and the terms (m_i/top)^p; terms is None when the norm is top."""
    top = float(moduli.max())
    if math.isinf(p) or top == 0.0:
        return top, None
    return top, (moduli / top) ** p


def _norm_from_sum(top: float, power_sum, p: float) -> float:
    """top * power_sum^(1/p), the last step of every modulus p-norm."""
    try:
        return top * float(power_sum) ** (1.0 / p)
    except OverflowError:
        raise NumericalError(f"the {p!r}-norm of the moduli overflows") from None


def modulus_p_norm(moduli, p: float) -> float:
    """(sum m_i^p)^(1/p), computed as max * (sum (m_i/max)^p)^(1/p).

    The rescaling keeps large p (>= 100) from overflowing; a result beyond
    the float range (tiny p) raises NumericalError.
    """
    top, terms = _power_terms(np.asarray(moduli, dtype=float), p)
    return top if terms is None else _norm_from_sum(top, np.sum(terms), p)


def separation_functional(c: Configuration, p) -> float:
    """p-norm of the moduli over the minimum gap; +inf when points coincide.

    Invariant under rescaling and rotation of the configuration.
    """
    p = _validate_p(p)
    if c.n < 2:
        raise ValueError("the separation functional needs at least two points")
    gap = c.min_separation
    if gap == 0.0:
        return math.inf
    return modulus_p_norm(np.abs(c.points), p) / gap


def lattice_prefix_functionals(n: int) -> tuple[float, float]:
    """S_2 and S_inf of the first n lattice sites, from exact shell sums.

    The prefix's minimum gap is exactly 1, so S_2 = sqrt(sum q) and
    S_inf = sqrt(q_max); each exact integer is rounded to a float once.  No
    site is enumerated (lattice_prefix_sums).
    """
    if int(n) < 2:
        raise ValueError("the separation functional needs at least two points")
    q_max, q_sum = lattice_prefix_sums(n)
    return math.sqrt(float(q_sum)), math.sqrt(float(q_max))


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


@dataclass(frozen=True)
class AsymptoticRow:
    """One convergence-table entry: raw functional value against c_p * n^(1/2+1/p)."""

    n: int
    raw: float
    scale: float
    ratio: float
    target: float


def convergence_study(p, n_values: Sequence[int],
                      generator: Callable[[int], Configuration] | None = None,
                      ) -> list[AsymptoticRow]:
    """Evaluate S_p over a generator at increasing n, normalized by the growth scale.

    Without a generator the lattice prefix is used; at p = 2 and inf its
    functional comes from lattice_prefix_functionals, with no enumeration.
    """
    p = _validate_p(p)
    ns = [int(v) for v in n_values]
    if not ns:
        raise ValueError("n_values must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be strictly increasing")
    gen = first_n_lattice_points if generator is None else generator
    target = proposition_constant(p)
    rows = []
    exact = generator is None and p in (2.0, math.inf)
    for n in ns:
        if exact:
            raw = lattice_prefix_functionals(n)[0 if p == 2.0 else 1]
        else:
            raw = separation_functional(gen(n), p)
        scale = _growth_scale(n, p)
        rows.append(AsymptoticRow(n=n, raw=raw, scale=scale, ratio=raw / scale,
                                  target=target))
    return rows
