"""Scale-invariant separation functionals and their leading-order constants.

S_p of a configuration is the p-norm of the point moduli divided by the
minimum pairwise gap.  S_2 and S_inf coincide with the Frobenius- and
operator-norm eigenvector conditioning of the diagonal matrix built from the
points, and for the triangular-lattice prefix they grow like
c_p * n^(1/2 + 1/p) with c_p = (2/(p+2))^(1/p) * 3^(1/4) / sqrt(2*pi).
c_p (proposition_constant), the growth scale and the prefix's exact S_2 and
S_inf (lattice_prefix_functionals) are defined in the numpy-free shells
module and imported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DuplicatePointsError, NumericalError, UsageError
from .lattice import Configuration, first_n_lattice_points
from .shells import (_growth_scale, _validate_p, lattice_prefix_functionals,
                     proposition_constant)


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
        raise UsageError("the separation functional needs at least two points")
    # both terms in the prescaled frame: the ratio is scale-free, and there
    # no gap or modulus leaves the float range
    gap = c.scaled_min_separation
    if gap == 0.0:
        return math.inf
    return modulus_p_norm(np.abs(c.prescaled[0]), p) / gap


@dataclass(frozen=True)
class AsymptoticRow:
    """One convergence-table entry: raw functional value against c_p * n^(1/2+1/p)."""

    n: int
    raw: float
    scale: float
    ratio: float
    target: float


def convergence_study(p, n_values: Sequence[int],
                      points: Sequence[complex] | np.ndarray | None = None,
                      ) -> list[AsymptoticRow]:
    """Evaluate S_p on the first n points at increasing n, normalized by the growth scale.

    points are a configuration's points in their given order; each row takes
    the first n of them.  Asking for more points than given is bad input,
    rejected before any work, and a prefix holding coincident points raises
    DuplicatePointsError.  Without points the lattice prefix is used; at
    p = 2 and inf its functional comes from lattice_prefix_functionals, with
    no enumeration.
    """
    p = _validate_p(p)
    ns = [int(v) for v in n_values]
    if not ns:
        raise UsageError("n_values must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError("n_values must be strictly increasing")
    if ns[0] < 2:
        raise UsageError("the separation functional needs at least two points")
    if points is not None and ns[-1] > len(points):
        raise UsageError(f"the configuration has {len(points)} points, need {ns[-1]}")
    target = proposition_constant(p)
    rows = []
    for n in ns:
        if points is not None:
            config = Configuration(points[:n])
            if config.min_separation == 0.0:
                raise DuplicatePointsError(f"the first {n} points are not pairwise distinct")
            raw = separation_functional(config, p)
        elif p in (2.0, math.inf):
            raw = lattice_prefix_functionals(n)[0 if p == 2.0 else 1]
        else:
            raw = separation_functional(first_n_lattice_points(n), p)
        scale = _growth_scale(n, p)
        rows.append(AsymptoticRow(n=n, raw=raw, scale=scale, ratio=raw / scale,
                                  target=target))
    return rows
