"""Eigenvalue and eigenvector condition numbers for dense complex matrices.

For a simple eigenpair (lam, x) with unit left eigenvector y, the eigenvalue
condition number is 1/|y^H x|.  The eigenvector condition number is
1/sigma_min(B - lam*I), where B is the trailing block after rotating x into
the first coordinate with a Householder completion; it is +inf exactly when
that block is singular (repeated eigenvalue).  A fast path reproduces both
numbers for diagonal matrices from pairwise gaps without forming any matrix,
and a randomized experiment checks the first-order perturbation law
|lam_hat - lam| <= eps*||A||*kappa_lam + O(eps^2) empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClusteredSpectrumError, DuplicatePointsError, NumericalError
from .extremal import modulus_p_norm
from .lattice import (Configuration, nearest_neighbor_distances,
                      pairwise_min_separation)
from .linalg import (EIG_GAP_TOL, EIG_RESIDUAL_TOL, _simple_gap, _svd_eigenpair,
                     as_matrix, frobenius_norm, operator_norm, right_eigenvector,
                     schur, smallest_singular_value, unitary_with_first_column)

OVERLAP_TOL = 1e-14        # |y^H x| below this reports kappa_lambda = +inf
BLOCK_RESIDUAL_TOL = 1e-8  # * ||A||_F: first-column spike allowed in the block form

# Matching tolerance for the perturbation experiment: two perturbed
# eigenvalues within this fraction of the unperturbed gap of each other are
# treated as ambiguous and the trial is excluded.
_MATCH_MARGIN = 1e-9


@dataclass(frozen=True)
class EigenpairReport:
    """Condition numbers for one eigenvalue.

    x and y are unit right/left eigenvectors; the diagonal fast path leaves
    them as None (they are standard basis vectors).  kappa_x is math.inf when
    the deflated block is exactly singular.
    """

    eigenvalue: complex
    x: np.ndarray | None
    y: np.ndarray | None
    kappa_lambda: float
    kappa_x: float
    residuals: tuple[float, float]


@dataclass(frozen=True)
class ConditionReport:
    """Per-eigenpair condition numbers plus the norm-scaled aggregates.

    kappa_max_* = (max over eigenvectors of kappa_x) * ||A||_*; the maxima
    run over eigenvectors only, eigenvalue condition numbers are reported but
    never aggregated.
    """

    per_eigenpair: list[EigenpairReport]
    kappa_max_frob: float
    kappa_max_op: float
    norm_frob: float
    norm_op: float


def _spectrum_order(values: np.ndarray) -> np.ndarray:
    """Deterministic eigenvalue ordering: modulus, argument in [0, 2pi), re, im."""
    angle = np.mod(np.angle(values), 2.0 * math.pi)
    return np.lexsort((values.imag, values.real, angle, np.abs(values)))


def _overlap_kappa(x: np.ndarray, y: np.ndarray) -> float:
    overlap = abs(complex(y.conj() @ x))
    if overlap < OVERLAP_TOL:
        return math.inf
    # unit vectors give kappa >= 1; the clamp absorbs last-ulp rounding
    return max(1.0, 1.0 / overlap)


def kappa_lambda(a, lam, *, residual_tol: float = EIG_RESIDUAL_TOL,
                 gap_tol: float = EIG_GAP_TOL) -> float:
    """Eigenvalue condition number ||y|| ||x|| / |y^H x| for simple lam."""
    m = as_matrix(a, square=True)
    lam = complex(lam)
    _simple_gap(m, lam, float(np.linalg.norm(m)), gap_tol)
    x, y, _, _ = _svd_eigenpair(m, lam, residual_tol)
    return _overlap_kappa(x, y)


def _kappa_x_from_vector(m: np.ndarray, lam: complex, x: np.ndarray,
                         block_tol: float) -> float:
    """1/sigma_min(B - lam*I) with B the deflated block for eigenvector x."""
    q = unitary_with_first_column(x)
    t = q.conj().T @ m @ q
    anorm = float(np.linalg.norm(m))
    spike = float(np.linalg.norm(t[1:, 0]))
    if spike > block_tol * (anorm if anorm > 0.0 else 1.0):
        raise NumericalError(
            f"block form verification failed: first-column residual {spike:.3e} "
            "(the supplied vector is not an eigenvector to tolerance)")
    b = t[1:, 1:]
    smin = smallest_singular_value(b - lam * np.eye(b.shape[0]))
    return math.inf if smin == 0.0 else 1.0 / smin


def kappa_x(a, lam, *, residual_tol: float = EIG_RESIDUAL_TOL,
            block_tol: float = BLOCK_RESIDUAL_TOL) -> float:
    """Eigenvector condition number for lam; +inf when lam is repeated."""
    m = as_matrix(a, square=True)
    if m.shape[0] == 1:
        raise ValueError("kappa_x is undefined for 1x1 matrices: no deflated block")
    lam = complex(lam)
    x = right_eigenvector(m, lam, residual_tol=residual_tol)
    return _kappa_x_from_vector(m, lam, x, block_tol)


def _require_simple_spectrum(lams: np.ndarray, anorm: float, gap_tol: float) -> None:
    threshold = gap_tol * anorm
    if nearest_neighbor_distances(lams).min() <= threshold:
        close = np.abs(lams[:, None] - lams[None, :]) <= threshold
        clustered = [(complex(lams[i]), complex(lams[j]))
                     for i, j in np.argwhere(np.triu(close, 1))]
        raise ClusteredSpectrumError(
            f"spectrum is clustered below {threshold:.3e}: {clustered}",
            cluster=[c for pair in clustered for c in pair])


def condition_report(a, *, residual_tol: float = EIG_RESIDUAL_TOL,
                     gap_tol: float = EIG_GAP_TOL,
                     block_tol: float = BLOCK_RESIDUAL_TOL) -> ConditionReport:
    """Full conditioning report via the Schur route; requires a simple spectrum."""
    m = as_matrix(a, square=True)
    if m.shape[0] < 2:
        raise ValueError("condition reports need n >= 2")
    eigs = schur(m).eigenvalues
    lams = eigs[_spectrum_order(eigs)]
    nf = frobenius_norm(m)
    _require_simple_spectrum(lams, nf, gap_tol)
    no = operator_norm(m)
    rows = []
    for lam in lams:
        lam = complex(lam)
        x, y, res_r, res_l = _svd_eigenpair(m, lam, residual_tol)
        rows.append(EigenpairReport(
            eigenvalue=lam, x=x, y=y,
            kappa_lambda=_overlap_kappa(x, y),
            kappa_x=_kappa_x_from_vector(m, lam, x, block_tol),
            residuals=(res_r, res_l)))
    kx_max = max(row.kappa_x for row in rows)
    return ConditionReport(per_eigenpair=rows, kappa_max_frob=kx_max * nf,
                           kappa_max_op=kx_max * no, norm_frob=nf, norm_op=no)


def condition_report_diagonal(c: Configuration) -> ConditionReport:
    """Conditioning of Diag(z_1, ..., z_n) from pairwise gaps alone.

    kappa_lambda = 1 for every entry, kappa_x(e_i) is the reciprocal nearest
    gap, and the aggregates are ||z||_2 / min gap and ||z||_inf / min gap.
    Per-point gaps are floored at the configuration's cached global
    separation so the report is consistent with it to the last bit.
    """
    pts = c.points
    if c.n < 2:
        raise ValueError("condition reports need n >= 2")
    nnd = nearest_neighbor_distances(pts)
    gap = c.min_separation
    if gap == 0.0 or float(nnd.min()) == 0.0:
        raise DuplicatePointsError("diagonal entries must be pairwise distinct")
    order = _spectrum_order(pts)
    gaps = np.maximum(nnd[order], gap)
    rows = [EigenpairReport(eigenvalue=complex(z), x=None, y=None,
                            kappa_lambda=1.0, kappa_x=1.0 / float(d),
                            residuals=(0.0, 0.0))
            for z, d in zip(pts[order], gaps)]
    moduli = np.abs(pts)
    nf = modulus_p_norm(moduli, 2.0)
    no = float(moduli.max())
    return ConditionReport(per_eigenpair=rows, kappa_max_frob=nf / gap,
                           kappa_max_op=no / gap, norm_frob=nf, norm_op=no)


@dataclass(frozen=True)
class PerturbationRow:
    """Worst observed first-order ratios for one eigenvalue over all trials."""

    eigenvalue: complex
    kappa_lambda: float
    kappa_x: float
    shift_ratio: float
    angle_ratio: float


@dataclass(frozen=True)
class PerturbationResult:
    rows: list[PerturbationRow]
    trials: int
    excluded_trials: int
    epsilon: float
    norm_kind: str
    seed: int


def _matrix_norm(m: np.ndarray, kind: str) -> float:
    return float(np.linalg.norm(m)) if kind == "frob" else \
        float(np.linalg.svd(m, compute_uv=False)[0])


def _match_eigenvalues(lams: np.ndarray, w: np.ndarray, min_gap: float):
    """Greedy nearest-neighbor matching; None when ambiguous or colliding."""
    used = set()
    match = []
    for lam in lams:
        d = np.abs(w - lam)
        order = np.argsort(d)
        j = int(order[0])
        if d.size > 1 and d[order[1]] - d[j] <= _MATCH_MARGIN * min_gap:
            return None
        if j in used:
            return None
        used.add(j)
        match.append(j)
    return match


def perturbation_experiment(a, epsilon: float, trials: int = 100,
                            norm_kind: str = "frob", seed: int = 0,
                            *, residual_tol: float = EIG_RESIDUAL_TOL,
                            gap_tol: float = EIG_GAP_TOL) -> PerturbationResult:
    """Empirical check of the first-order perturbation law.

    Each trial draws a complex Ginibre matrix E normalized to unit chosen
    norm, perturbs A by eps*||A||*E, matches perturbed eigenpairs to the
    originals by nearest eigenvalue (ambiguous trials are excluded and
    counted), and records |lam_hat - lam| / (eps*||A||) and the principal
    angle arccos|x_hat^H x| / (eps*||A||), keeping per-eigenvalue maxima.

    Requires eps <= min_gap / (10*||A||) so the matching is unambiguous.
    """
    if norm_kind not in ("frob", "op"):
        raise ValueError(f"norm_kind must be 'frob' or 'op', got {norm_kind!r}")
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    trials = int(trials)
    if trials < 1:
        raise ValueError("at least one trial is required")
    m = as_matrix(a, square=True)
    base = condition_report(m, residual_tol=residual_tol, gap_tol=gap_tol)
    n = m.shape[0]
    lams = np.array([row.eigenvalue for row in base.per_eigenpair])
    vecs = np.stack([row.x for row in base.per_eigenpair], axis=1)
    norm_scale = base.norm_frob if norm_kind == "frob" else base.norm_op
    min_gap = pairwise_min_separation(lams)
    if epsilon > min_gap / (10.0 * norm_scale):
        raise ValueError(
            f"epsilon {epsilon:g} too large for unambiguous matching: need "
            f"eps <= min_gap/(10*||A||) = {min_gap / (10.0 * norm_scale):.3e}")
    scale = epsilon * norm_scale
    shift_max = np.zeros(n)
    angle_max = np.zeros(n)
    excluded = 0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        e = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        e /= _matrix_norm(e, norm_kind)
        w, v = np.linalg.eig(m + scale * e)
        match = _match_eigenvalues(lams, w, min_gap)
        if match is None:
            excluded += 1
            continue
        for i, j in enumerate(match):
            shift_max[i] = max(shift_max[i], abs(w[j] - lams[i]))
            overlap = min(1.0, abs(complex(v[:, j].conj() @ vecs[:, i])))
            angle_max[i] = max(angle_max[i], math.acos(overlap))
    rows = [PerturbationRow(eigenvalue=complex(lams[i]),
                            kappa_lambda=base.per_eigenpair[i].kappa_lambda,
                            kappa_x=base.per_eigenpair[i].kappa_x,
                            shift_ratio=shift_max[i] / scale,
                            angle_ratio=angle_max[i] / scale)
            for i in range(n)]
    return PerturbationResult(rows=rows, trials=trials, excluded_trials=excluded,
                              epsilon=epsilon, norm_kind=norm_kind, seed=seed)
