"""Eigenvalue and eigenvector condition numbers for dense complex matrices.

For a simple eigenpair (lam, x) with unit left eigenvector y, the eigenvalue
condition number is 1/|y^H x|.  The eigenvector condition number is
1/sigma_min(B), where B = T22 - lam*I is the trailing block of a Schur form
reordered so that lam leads its diagonal; B represents A - lam*I on the
orthogonal complement of x, and kappa_x is +inf exactly when B is singular
(repeated eigenvalue).  All of it comes from one verified Schur form of the
matrix prescaled by an exact power of two (linalg.schur_eigenpair does the
per-eigenpair work); the standalone kappa_lambda / kappa_x are thin wrappers
over the same engine.  When the form is normal to working precision
(linalg.NORMAL_DEPARTURE_C) kappa_x is the reciprocal spectral gap and the
report costs O(n^3) in all; otherwise each eigenpair takes one SVD, and from
_PARALLEL_MIN_N on the report runs them on _WORKERS threads, one per CPU
the process may use, gathered by eigenpair index so that the bits do not
depend on scheduling.  A fast path reproduces both numbers for diagonal
matrices from pairwise gaps, measured on the points prescaled by an exact
power of two, without forming any matrix.  A randomized experiment checks
the first-order perturbation law |lam_hat - lam| <= eps*||A||*kappa_lam +
O(eps^2) empirically; each trial refines the report's eigenpairs by the
classical perturbation expansion and keeps them under a residual
certificate, and runs LAPACK's eig only where the certificate fails.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ClusteredSpectrumError, DuplicatePointsError, UsageError
from .extremal import modulus_p_norm
from .lattice import Configuration, nearest_neighbor_distances, pair_distances
from .linalg import (_UNIT_ROUNDOFF, as_matrix, frobenius_norm, locate_eigenpair,
                     one_blas_thread, operator_norm, pow2_scale, prescale, schur,
                     schur_eigenpair, verified_residuals)

OVERLAP_TOL = 1e-14        # |y^H x| below this reports kappa_lambda = +inf
_LISTED_PAIRS = 10         # close pairs named by a clustered spectrum's error

# Threads for the per-eigenpair SVDs of a non-normal report: one per CPU the
# process may run on, the calling thread included.  The SVD releases the GIL
# (linalg._least_singular_value); the reorder and the solve around it hold
# it.  Below _PARALLEL_MIN_N the report stays on one thread.  Measured on 2
# CPUs (median per report, one thread against two): Ginibre 6.8 -> 7.5 ms at
# n = 20, 22.2 -> 23.5 at 40, 22.9 -> 25.3 at 50, 39.5 -> 36.8 at 60, 80 ->
# 68 at 80 and 302 -> 202 at 120; Grcar 21.5 -> 22.1 at 40, 36.0 -> 37.4 at
# 60, 99 -> 74 at 80 and 407 -> 220 at 120.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_PARALLEL_MIN_N = 60

# Matching tolerance for the perturbation experiment: two perturbed
# eigenvalues within this fraction of the unperturbed gap of each other are
# treated as ambiguous and the trial is excluded.
_MATCH_MARGIN = 1e-9

# Refined trial eigenpairs (_refined_eigenpairs): the perturbation expansion
# runs at most _REFINE_STEPS steps, and a pair is kept only when its residual
# is at most _CERTIFY_C * n * u * ||A'||_F, u the unit roundoff.  Measured on
# Ginibre, normal and Grcar matrices at n = 2-40: the benchmark's trials
# certify in 3-4 steps (the cap is twice that), with residuals up to 3.1
# (n = 3) and 0.31 (n = 40) in units of n u ||A'||_F, where eig's own reach
# 4.2 and 0.50.
_REFINE_STEPS = 8
_CERTIFY_C = 4.0


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
    never aggregated.  min_gap is the smallest distance between two
    eigenvalues, in the units of A.
    """

    per_eigenpair: list[EigenpairReport]
    kappa_max_frob: float
    kappa_max_op: float
    norm_frob: float
    norm_op: float
    min_gap: float


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
        raise UsageError("kappa_x is undefined for 1x1 matrices: no deflated block")
    pair, s = locate_eigenpair(m, lam)
    return _kappa_x(pair.sigma_min, s)


def _require_simple_spectrum(lams: np.ndarray, threshold: float, s: int) -> float:
    """The minimum gap of lams; ClusteredSpectrumError on pairs at most
    threshold (cluster_tol) apart.

    The error lists the first _LISTED_PAIRS in spectrum order, and the total
    count of pairs when there are more.  lams and threshold belong to A * 2^s;
    the message reports values of A.
    """
    gap = float(nearest_neighbor_distances(lams).min())
    if gap <= threshold:
        close = np.argwhere(np.triu(pair_distances(lams)[1] <= threshold, 1))
        values = pow2_scale(lams, -s)
        clustered = [(complex(values[i]), complex(values[j]))
                     for i, j in close[:_LISTED_PAIRS]]
        more = f", {len(close)} pairs in all" if len(close) > _LISTED_PAIRS else ""
        raise ClusteredSpectrumError(
            f"spectrum is clustered below {pow2_scale(threshold, -s):.3e}: {clustered}{more}",
            cluster=[c for pair in clustered for c in pair])
    return gap


def _eigenpairs(form, order: list[int]) -> list:
    """schur_eigenpair(form, k) for each k of order, in that order.

    A form that needs an SVD per eigenpair and has at least _PARALLEL_MIN_N
    rows is shared out among the calling thread and _WORKERS - 1 helpers,
    each taking the next index from one iterator; results land in their
    index's slot, and a helper's error is raised here.  ThreadPoolExecutor.map
    with a task per eigenpair, or with a fixed share of order per thread,
    measured slower on 2 CPUs: dense_cond's op_tail_s rose by 12-23% and
    10-24% in batches of 10 paired benchmark runs (BENCH_42.json).
    """
    if form.normal or _WORKERS < 2 or len(order) < _PARALLEL_MIN_N:
        return [schur_eigenpair(form, k) for k in order]
    from concurrent.futures import ThreadPoolExecutor

    pairs = [None] * len(order)
    tasks = iter(enumerate(order))  # next() on it is atomic under the GIL

    def drain():
        for i, k in tasks:
            pairs[i] = schur_eigenpair(form, k)

    with ThreadPoolExecutor(_WORKERS - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(_WORKERS - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return pairs


@one_blas_thread()
def condition_report(a) -> ConditionReport:
    """Full conditioning report from one Schur form; requires a simple spectrum.

    The matrix is prescaled by an exact power of two, so kappa_max_* and
    every kappa_lambda are bit-identical under A -> 2^k A, and kappa_x and
    the norms scale exactly.  Each eigenpair costs one reorder, one
    triangular solve and, unless the Schur form is normal to working
    precision, one SVD of the (n-1) block (linalg.schur_eigenpair); the
    residuals of all of them are verified together afterwards.
    """
    m = as_matrix(a, square=True)
    if m.shape[0] < 2:
        raise UsageError("condition reports need n >= 2")
    ms, s = prescale(m)
    form = schur(ms)
    eigs = form.eigenvalues
    order = _spectrum_order(eigs)
    lams = eigs[order]
    nf = form.norm
    gap = _require_simple_spectrum(lams, form.cluster_tol, s)
    no = operator_norm(ms)
    pairs = _eigenpairs(form, order.tolist())
    tol = form.residual_tol
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
                           norm_op=float(pow2_scale(no, -s)),
                           min_gap=float(pow2_scale(gap, -s)))


def condition_report_diagonal(c: Configuration) -> ConditionReport:
    """Conditioning of Diag(z_1, ..., z_n) from pairwise gaps alone.

    kappa_lambda = 1 for every entry, kappa_x(e_i) is the reciprocal nearest
    gap, and the aggregates are the separation functionals S_2 and S_inf
    (||z||_2 / min gap and ||z||_inf / min gap).  Per-point gaps are floored
    at the configuration's global separation so the report is consistent
    with it to the last bit.
    """
    if c.n < 2:
        raise UsageError("condition reports need n >= 2")
    zs, s = c.prescaled
    nnd = c.scaled_nearest_neighbor_distances()
    gap = c.scaled_min_separation
    if gap == 0.0 or float(nnd.min()) == 0.0:
        raise DuplicatePointsError("diagonal entries must be pairwise distinct")
    order = _spectrum_order(zs)
    kx = pow2_scale(1.0 / np.maximum(nnd[order], gap), s).tolist()
    rows = [EigenpairReport(eigenvalue=z, x=None, y=None, kappa_lambda=1.0,
                            kappa_x=k, residuals=(0.0, 0.0))
            for z, k in zip(c.points[order].tolist(), kx)]
    moduli = np.abs(zs)
    norm_frob = modulus_p_norm(moduli, 2.0)
    norm_op = float(moduli.max())
    return ConditionReport(per_eigenpair=rows, kappa_max_frob=norm_frob / gap,
                           kappa_max_op=norm_op / gap,
                           norm_frob=float(pow2_scale(norm_frob, -s)),
                           norm_op=float(pow2_scale(norm_op, -s)),
                           min_gap=c.min_separation)


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


def _refined_eigenpairs(a1: np.ndarray, delta: np.ndarray, lams: np.ndarray,
                        x: np.ndarray, x_inv: np.ndarray):
    """Eigenpairs (w, v) of a1 = A + delta refined from those of A, or None.

    In the eigenbasis x of A (x_inv its inverse) a1 is diag(lams) + G with
    G = x_inv delta x.  The classical perturbation expansion iterates
    V <- G V / (mu_k - lam_j) off the diagonal, V_kk = 1, with
    mu = lams + diag(G V), until no entry of V moves by more than 4u or for
    _REFINE_STEPS steps.  The columns of x V, scaled to unit norm, are kept
    only when every one has ||a1 v_k - mu_k v_k|| <= _CERTIFY_C * n * u *
    ||a1||_F, the size of the residuals LAPACK's eig leaves.
    """
    n = lams.size
    u = _UNIT_ROUNDOFF
    g = x_inv @ (delta @ x)
    v = np.eye(n, dtype=np.complex128)
    with np.errstate(all="ignore"):  # a diverging expansion fails the certificate
        for _ in range(_REFINE_STEPS):
            gv = g @ v
            denom = (lams + gv.diagonal())[None, :] - lams[:, None]
            np.fill_diagonal(denom, 1.0)
            step = gv / denom
            np.fill_diagonal(step, 1.0)
            moved = np.abs(step - v).max()
            v = step
            if moved <= 4.0 * u:
                break
        w = lams + np.sum(g * v.T, axis=1)
        v = x @ v
        v /= np.linalg.norm(v, axis=0)
        res = np.linalg.norm(a1 @ v - v * w, axis=0)
    if not np.all(res <= _CERTIFY_C * n * u * np.linalg.norm(a1)):
        return None
    return w, v


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

    The trials run on A prescaled by an exact power of two 2^s, whose
    eigenvalues, gaps and norm stay in the float range wherever ||A|| falls:
    shift_ratio is the same for A and 2^k A, and angle_ratio scales exactly.

    A trial's eigenpairs come from the base report's: in its eigenbasis X,
    with X^-1 = diag(1/(y_k^H x_k)) Y^H, the perturbed matrix is diag(lam) +
    X^-1 (eps*||A||*E) X, and _refined_eigenpairs iterates the perturbation
    expansion on it.  They are kept only when every residual is within
    _CERTIFY_C * n * u * ||A'||_F; otherwise, and for every trial when some
    kappa_lambda is inf, the trial runs np.linalg.eig on A'.  The refined
    shift mu - lam does not lose the digits that eig's difference of two
    factorizations loses to cancellation.

    Requires eps <= min_gap / (10*||A||) so the matching is unambiguous.
    """
    if norm_kind not in ("frob", "op"):
        raise UsageError(f"norm_kind must be 'frob' or 'op', got {norm_kind!r}")
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise UsageError("epsilon must be positive and finite")
    trials = int(trials)
    if trials < 1:
        raise UsageError("at least one trial is required")
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    m = as_matrix(a, square=True)
    ms, s = prescale(m)
    try:
        base = condition_report(ms)  # ms = A * 2^s is its own prescaled form
    except ClusteredSpectrumError:
        condition_report(m)  # the same error, naming the eigenvalues of A
        raise
    n = ms.shape[0]
    lams = np.array([row.eigenvalue for row in base.per_eigenpair])
    vecs = np.stack([row.x for row in base.per_eigenpair], axis=1)
    # x^-1 = diag(1/(y_k^H x_k)) Y^H; no refinement without every overlap
    if all(math.isfinite(row.kappa_lambda) for row in base.per_eigenpair):
        left = np.stack([row.y for row in base.per_eigenpair], axis=1).conj()
        vecs_inv = (left / np.sum(left * vecs, axis=0)).T
    else:
        vecs_inv = None
    norm_scale = base.norm_frob if norm_kind == "frob" else base.norm_op
    min_gap = base.min_gap
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
        delta = scale * e
        a1 = ms + delta
        pairs = None if vecs_inv is None else _refined_eigenpairs(a1, delta, lams, vecs,
                                                                  vecs_inv)
        w, v = np.linalg.eig(a1) if pairs is None else pairs
        match = _match_eigenvalues(lams, w, min_gap)
        if match is None:
            excluded += 1
            continue
        # np.hypot rounds as Python's complex abs does; np.abs on a complex
        # array can differ from both in the last bits
        d = w[match] - lams
        np.maximum(shift_max, np.hypot(d.real, d.imag), out=shift_max)
        # theta = atan2(||x_hat - x (x^H x_hat)||, |x^H x_hat|) resolves small
        # angles, which acos(|x^H x_hat|) loses below ~1e-8
        xh = v[:, match]
        xh /= np.linalg.norm(xh, axis=0)
        overlap = np.sum(vecs.conj() * xh, axis=0)
        sine = np.linalg.norm(xh - vecs * overlap, axis=0)
        np.maximum(angle_max, np.arctan2(sine, np.abs(overlap)), out=angle_max)
    # scale = eps * ||A|| * 2^s; the angles are scale-free, so their ratio
    # to eps * ||A|| is 2^s times theirs to scale
    eigenvalues = pow2_scale(lams, -s).tolist()
    shift_ratio = (shift_max / scale).tolist()
    angle_ratio = pow2_scale(angle_max / scale, s).tolist()
    rows = [PerturbationRow(eigenvalue=eigenvalues[i], kappa_lambda=row.kappa_lambda,
                            kappa_x=float(pow2_scale(row.kappa_x, s)),
                            shift_ratio=shift_ratio[i], angle_ratio=angle_ratio[i])
            for i, row in enumerate(base.per_eigenpair)]
    return PerturbationResult(rows=rows, trials=trials, excluded_trials=excluded,
                              epsilon=epsilon, norm_kind=norm_kind, seed=seed)
