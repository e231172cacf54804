"""Eigenvalue and eigenvector condition numbers for dense complex matrices.

For a simple eigenpair (lam, x) with unit left eigenvector y, the eigenvalue
condition number is 1/|y^H x|.  The eigenvector condition number is
1/sigma_min(B), where B = T22 - lam*I is the trailing block of a Schur form
reordered so that lam leads its diagonal; B represents A - lam*I on the
orthogonal complement of x, and kappa_x is +inf exactly when B is singular
(repeated eigenvalue).  All of it comes from one verified Schur form of the
matrix prescaled by an exact power of two (linalg.schur_eigenpair does the
per-eigenpair work); the standalone kappa_lambda / kappa_x are thin wrappers
over the same engine.  A fast path reproduces both numbers for diagonal
matrices from pairwise gaps without forming any matrix, and a randomized
experiment checks the first-order perturbation law
|lam_hat - lam| <= eps*||A||*kappa_lam + O(eps^2) empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClusteredSpectrumError, DuplicatePointsError
from .extremal import modulus_p_norm, separation_functional
from .lattice import (Configuration, nearest_neighbor_distances,
                      pairwise_min_separation)
from .linalg import (EIG_GAP_TOL, EIG_RESIDUAL_TOL, as_matrix, frobenius_norm,
                     locate_eigenpair, one_blas_thread, operator_norm, pow2_scale,
                     prescale, schur, schur_eigenpair, verified_residuals)

OVERLAP_TOL = 1e-14        # |y^H x| below this reports kappa_lambda = +inf

# Matching tolerance for the perturbation experiment: two perturbed
# eigenvalues within this fraction of the unperturbed gap of each other are
# treated as ambiguous and the trial is excluded.
_MATCH_MARGIN = 1e-9


@dataclass(frozen=True)
class EigenpairReport:
    """Condition numbers for one eigenvalue.

    x and y are unit right/left eigenvectors; the diagonal fast path leaves
    them as None (they are standard basis vectors).  kappa_x is math.inf when
    the reordered Schur block is exactly singular.  residuals are the right
    and left eigenvector residual norms, in the units of A.
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


def _overlap_kappa(inv_overlap: float) -> float:
    """kappa_lambda from 1/|y^H x|: +inf when |y^H x| < OVERLAP_TOL."""
    if not 1.0 / inv_overlap >= OVERLAP_TOL:
        return math.inf
    # the norm of [1; w] is >= 1; the clamp absorbs last-ulp rounding
    return max(1.0, inv_overlap)


def _kappa_x(sigma_min: float, s: int) -> float:
    """1/sigma_min of the block of A * 2^s, mapped back to A exactly."""
    return math.inf if sigma_min == 0.0 else float(pow2_scale(1.0 / sigma_min, s))


def kappa_lambda(a, lam) -> float:
    """Eigenvalue condition number ||y|| ||x|| / |y^H x| for simple lam."""
    pair, _ = locate_eigenpair(a, lam, simple=True)
    return _overlap_kappa(pair.inv_overlap)


def kappa_x(a, lam) -> float:
    """Eigenvector condition number for lam; +inf when lam is repeated."""
    m = as_matrix(a, square=True)
    if m.shape[0] == 1:
        raise ValueError("kappa_x is undefined for 1x1 matrices: no deflated block")
    pair, s = locate_eigenpair(m, lam)
    return _kappa_x(pair.sigma_min, s)


def _require_simple_spectrum(lams: np.ndarray, anorm: float, s: int) -> None:
    """Raise ClusteredSpectrumError listing every pair closer than EIG_GAP_TOL*anorm.

    lams and anorm belong to A * 2^s; the message reports values of A.
    """
    threshold = EIG_GAP_TOL * anorm
    if nearest_neighbor_distances(lams).min() <= threshold:
        close = np.abs(lams[:, None] - lams[None, :]) <= threshold
        values = pow2_scale(lams, -s)
        clustered = [(complex(values[i]), complex(values[j]))
                     for i, j in np.argwhere(np.triu(close, 1))]
        raise ClusteredSpectrumError(
            f"spectrum is clustered below {pow2_scale(threshold, -s):.3e}: {clustered}",
            cluster=[c for pair in clustered for c in pair])


@one_blas_thread()
def condition_report(a) -> ConditionReport:
    """Full conditioning report from one Schur form; requires a simple spectrum.

    The matrix is prescaled by an exact power of two, so kappa_max_* and
    every kappa_lambda are bit-identical under A -> 2^k A, and kappa_x and
    the norms scale exactly.  Each eigenpair costs one reorder, one
    triangular solve and one SVD of the (n-1) block (linalg.schur_eigenpair);
    the residuals of all of them are verified together afterwards.
    """
    m = as_matrix(a, square=True)
    if m.shape[0] < 2:
        raise ValueError("condition reports need n >= 2")
    ms, s = prescale(m)
    form = schur(ms)
    eigs = form.eigenvalues
    order = _spectrum_order(eigs)
    lams = eigs[order]
    nf = float(np.linalg.norm(ms))
    _require_simple_spectrum(lams, nf, s)
    no = operator_norm(ms)
    pairs = [schur_eigenpair(form, int(k)) for k in order]
    tol = EIG_RESIDUAL_TOL * (nf if nf > 0.0 else 1.0)
    res_r = verified_residuals(ms, lams, np.stack([p.x for p in pairs], axis=1), tol)
    res_l = verified_residuals(ms, lams, np.stack([p.y for p in pairs], axis=1), tol,
                               left=True)
    values = pow2_scale(lams, -s)
    residuals = pow2_scale(np.stack([res_r, res_l], axis=1), -s)
    rows = [EigenpairReport(
                eigenvalue=complex(values[i]), x=p.x, y=p.y,
                kappa_lambda=_overlap_kappa(p.inv_overlap),
                kappa_x=_kappa_x(p.sigma_min, s),
                residuals=tuple(residuals[i].tolist()))
            for i, p in enumerate(pairs)]
    kx_max = _kappa_x(min(p.sigma_min for p in pairs), 0)
    return ConditionReport(per_eigenpair=rows, kappa_max_frob=kx_max * nf,
                           kappa_max_op=kx_max * no, norm_frob=float(pow2_scale(nf, -s)),
                           norm_op=float(pow2_scale(no, -s)))


def condition_report_diagonal(c: Configuration) -> ConditionReport:
    """Conditioning of Diag(z_1, ..., z_n) from pairwise gaps alone.

    kappa_lambda = 1 for every entry, kappa_x(e_i) is the reciprocal nearest
    gap, and the aggregates are the separation functionals S_2 and S_inf
    (||z||_2 / min gap and ||z||_inf / min gap).  Per-point gaps are floored
    at the configuration's global separation so the report is consistent
    with it to the last bit.
    """
    pts = c.points
    if c.n < 2:
        raise ValueError("condition reports need n >= 2")
    nnd = c.nearest_neighbor_distances()
    gap = c.min_separation
    if gap == 0.0 or float(nnd.min()) == 0.0:
        raise DuplicatePointsError("diagonal entries must be pairwise distinct")
    order = _spectrum_order(pts)
    kx = (1.0 / np.maximum(nnd[order], gap)).tolist()
    rows = [EigenpairReport(eigenvalue=z, x=None, y=None, kappa_lambda=1.0,
                            kappa_x=k, residuals=(0.0, 0.0))
            for z, k in zip(pts[order].tolist(), kx)]
    moduli = np.abs(pts)
    return ConditionReport(per_eigenpair=rows,
                           kappa_max_frob=separation_functional(c, 2.0),
                           kappa_max_op=separation_functional(c, math.inf),
                           norm_frob=modulus_p_norm(moduli, 2.0),
                           norm_op=float(moduli.max()))


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


def _match_eigenvalues(lams: np.ndarray, w: np.ndarray, min_gap: float):
    """Greedy nearest-neighbor matching; None when ambiguous or colliding.

    Each original eigenvalue takes its nearest perturbed one.  The matching
    is ambiguous when the two nearest lie within _MATCH_MARGIN * min_gap of
    each other, and colliding when two originals take the same one.
    """
    d = np.abs(w[None, :] - lams[:, None])
    if w.size > 1:
        nearest = np.partition(d, 1, axis=1)
        if np.any(nearest[:, 1] - nearest[:, 0] <= _MATCH_MARGIN * min_gap):
            return None
    match = d.argmin(axis=1)
    if np.unique(match).size < match.size:
        return None
    return match.tolist()


@one_blas_thread()
def perturbation_experiment(a, epsilon: float, trials: int = 100,
                            norm_kind: str = "frob", seed: int = 0) -> PerturbationResult:
    """Empirical check of the first-order perturbation law.

    Each trial draws a complex Ginibre matrix E normalized to unit chosen
    norm, perturbs A by eps*||A||*E, matches perturbed eigenpairs to the
    originals by nearest eigenvalue (ambiguous trials are excluded and
    counted), and records |lam_hat - lam| / (eps*||A||) and the principal
    angle atan2(||x_hat - x x^H x_hat||, |x^H x_hat|) / (eps*||A||), keeping
    per-eigenvalue maxima.
    Trial t draws E from the stream default_rng((seed, t)), so no two seeds
    share a trial.

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
    base = condition_report(m)
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
        rng = np.random.default_rng((seed, t))
        e = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        e /= frobenius_norm(e) if norm_kind == "frob" else operator_norm(e)
        w, v = np.linalg.eig(m + scale * e)
        match = _match_eigenvalues(lams, w, min_gap)
        if match is None:
            excluded += 1
            continue
        for i, j in enumerate(match):
            shift_max[i] = max(shift_max[i], abs(w[j] - lams[i]))
        # theta = atan2(||x_hat - x (x^H x_hat)||, |x^H x_hat|) resolves small
        # angles, which acos(|x^H x_hat|) loses below ~1e-8
        xh = v[:, match]
        xh /= np.linalg.norm(xh, axis=0)
        overlap = np.sum(vecs.conj() * xh, axis=0)
        sine = np.linalg.norm(xh - vecs * overlap, axis=0)
        np.maximum(angle_max, np.arctan2(sine, np.abs(overlap)), out=angle_max)
    rows = [PerturbationRow(eigenvalue=complex(lams[i]),
                            kappa_lambda=base.per_eigenpair[i].kappa_lambda,
                            kappa_x=base.per_eigenpair[i].kappa_x,
                            shift_ratio=shift_max[i] / scale,
                            angle_ratio=angle_max[i] / scale)
            for i in range(n)]
    return PerturbationResult(rows=rows, trials=trials, excluded_trials=excluded,
                              epsilon=epsilon, norm_kind=norm_kind, seed=seed)
