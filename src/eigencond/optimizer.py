"""Soft-min descent for near-optimal point configurations of the separation functional.

The nonsmooth minimum gap is replaced by the log-sum-exp soft-min
    softmin_beta = -(1/beta) * log sum_{i<j} exp(-beta * |z_i - z_j|),
a smooth lower bound on the true minimum that converges to it as beta grows.
Descent runs through an increasing beta schedule (continuation) with
backtracking line search; the functional is scale-invariant, so after every
accepted step the configuration is renormalized to hard minimum gap 1, which
removes the flat scaling direction.  Each run finishes with a coordinate-wise
line-search polish on the exact objective, and the reported objective is
always re-evaluated with the hard minimum on the returned points.

p = inf is optimized through a p = 64 surrogate (smoothness) while tracking
and polishing the true max-modulus objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .extremal import modulus_p_norm, separation_functional
from .lattice import Configuration, first_n_lattice_points

BASE_BETAS = (10.0, 30.0, 100.0, 300.0)  # scaled by n when no schedule is given
BASE_STEPS = (0.1, 0.05, 0.02, 0.01)
_SURROGATE_P_FOR_INF = 64.0
_POLISH_ROUNDS = 80
_POLISH_STEP = 0.05
_BACKTRACK_LIMIT = 30
# exp of an argument at or below this is exactly 0, and numpy's exp is slow
# on such arguments, so the soft objective does not evaluate it there
_EXP_FLOOR = -746.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters; identical configs (same seed) give bit-identical runs."""

    n: int
    p: float = 2.0
    beta_schedule: tuple[float, ...] | None = None
    step_schedule: tuple[float, ...] | None = None
    restarts: int = 1
    max_iters: int = 300
    seed: int = 0
    init: str = "lattice"  # "lattice" | "random" | "file"
    init_points: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("optimization needs n >= 2")
        p = float(self.p)
        if math.isnan(p) or p <= 0.0:
            raise ValueError("p must be positive (math.inf allowed)")
        if self.beta_schedule is not None:
            betas = tuple(float(b) for b in self.beta_schedule)
            if not betas or any(b <= 0.0 for b in betas):
                raise ValueError("beta_schedule must be nonempty and positive")
            if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
                raise ValueError("beta_schedule must be increasing")
            object.__setattr__(self, "beta_schedule", betas)
        if self.step_schedule is not None:
            steps = tuple(float(s) for s in self.step_schedule)
            if not steps or any(s <= 0.0 for s in steps):
                raise ValueError("step_schedule must be nonempty and positive")
            object.__setattr__(self, "step_schedule", steps)
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.init not in ("lattice", "random", "file"):
            raise ValueError(f"init must be 'lattice', 'random' or 'file', got {self.init!r}")
        if self.init == "file":
            if self.init_points is None:
                raise ValueError("init='file' requires init_points")
            pts = tuple(complex(z) for z in self.init_points)
            if len(pts) != self.n:
                raise ValueError(f"init_points has {len(pts)} points, expected n={self.n}")
            object.__setattr__(self, "init_points", pts)

    def resolved_schedules(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        betas = self.beta_schedule or tuple(b * self.n for b in BASE_BETAS)
        steps = self.step_schedule or BASE_STEPS
        if len(steps) == 1:
            steps = steps * len(betas)
        if len(steps) != len(betas):
            raise ValueError("step_schedule length must match beta_schedule")
        return betas, steps


@dataclass(frozen=True)
class OptimizerResult:
    """Best configuration found; objective is the hard functional of best."""

    best: Configuration
    objective: float
    trace: tuple[tuple[int, float], ...]
    init_objective: float


def _pair_distances(z: np.ndarray):
    dz = z[:, None] - z[None, :]
    d = np.abs(dz)
    np.fill_diagonal(d, np.inf)
    return dz, d


def _hard_value(d: np.ndarray, moduli: np.ndarray, p: float) -> float:
    """Hard objective of points with pair distances d and moduli."""
    gap = float(d.min())
    if gap == 0.0:
        return math.inf
    return modulus_p_norm(moduli, p) / gap


def _rescale_gauge(z: np.ndarray) -> np.ndarray:
    """Normalize the hard minimum gap to 1 (no-op on coincident points)."""
    _, d = _pair_distances(z)
    gap = float(d.min())
    return z if gap == 0.0 else z / gap


def _soft_eval(z: np.ndarray, p: float, beta: float, with_grad: bool,
               pairs, moduli):
    """Soft objective, the soft gap, and optionally the gradient.

    pairs is _pair_distances(z) and moduli is np.abs(z); the caller builds
    them, so one build can serve several evaluations.
    """
    dz, d = pairs
    dmin = float(d.min())
    if dmin == 0.0:
        raise NumericalError("coincident points: the soft gap is not defined")
    # max-exponent subtraction: entries of d - dmin are >= 0 (diag stays inf)
    x = -beta * (d - dmin)
    e = np.zeros_like(d)
    np.exp(x, out=e, where=x > _EXP_FLOOR)
    del x  # freed before the gradient's n x n temporaries
    s = float(e.sum()) / 2.0
    softmin = dmin - math.log(s) / beta
    num = modulus_p_norm(moduli, p)
    f = num / softmin
    if not with_grad:
        return f, softmin, None
    if math.isinf(p):
        raise ValueError("the gradient needs finite p (use a large-p surrogate)")
    top = float(moduli.max())
    u = moduli / top
    power_sum = float(np.sum(u ** p))
    grad_num = np.zeros(z.size, dtype=np.complex128)
    nz = moduli > 0.0
    grad_num[nz] = (num / (top * power_sum)) * u[nz] ** (p - 1.0) * (z[nz] / moduli[nz])
    # pair weight for {i, j} is e_ij / s with s the sum over unordered pairs;
    # each row of the full matrix visits every pair containing i exactly once
    unit = dz / d  # diagonal: 0 / inf = 0
    grad_soft = ((e / s) * unit).sum(axis=1)
    grad = (grad_num - f * grad_soft) / softmin
    return f, softmin, grad


def soft_separation_functional(c: Configuration, p, beta) -> float:
    """Smooth surrogate of the separation functional: p-norm over soft-min gap.

    softmin_beta <= hard min always, with hard_min - softmin_beta bounded by
    log(n*(n-1)/2)/beta.
    """
    p = float(p)
    beta = float(beta)
    if math.isnan(p) or p <= 0.0:
        raise ValueError("p must be positive")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if c.n < 2:
        raise ValueError("need at least two points")
    z = np.array(c.points)
    return _soft_eval(z, p, beta, False, _pair_distances(z), np.abs(z))[0]


def gradient(c: Configuration, p, beta) -> np.ndarray:
    """Analytic gradient of the soft objective, one complex number per point.

    Real and imaginary parts are the partial derivatives with respect to the
    point's real and imaginary coordinates.
    """
    p = float(p)
    beta = float(beta)
    if math.isnan(p) or p <= 0.0 or math.isinf(p):
        raise ValueError("the gradient needs finite positive p")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if c.n < 2:
        raise ValueError("need at least two points")
    z = np.array(c.points)
    return _soft_eval(z, p, beta, True, _pair_distances(z), np.abs(z))[2]


def _descend(z0: np.ndarray, p_smooth: float, p_true: float,
             betas, steps, max_iters: int):
    """Continuation descent; tracks the best hard objective ever visited.

    The pair distances and moduli of each accepted configuration are built
    once and serve both its hard objective and the next gradient.
    """
    z = _rescale_gauge(z0)
    pairs, moduli = _pair_distances(z), np.abs(z)
    best_z = z.copy()
    best_val = _hard_value(pairs[1], moduli, p_true)
    trace = [(0, best_val)]
    it = 0
    for beta, step0 in zip(betas, steps):
        step = step0
        for _ in range(max_iters):
            it += 1
            f, _, g = _soft_eval(z, p_smooth, beta, True, pairs, moduli)
            gmax = float(np.abs(g).max())
            if not math.isfinite(gmax) or gmax == 0.0:
                break
            accepted = False
            s = step
            for _ in range(_BACKTRACK_LIMIT):
                cand = z - s * g
                cand_pairs = _pair_distances(cand)
                try:
                    fc, soft_c, _ = _soft_eval(cand, p_smooth, beta, False,
                                               cand_pairs, np.abs(cand))
                except NumericalError:
                    fc, soft_c = math.inf, -1.0
                if soft_c > 0.0 and fc < f:
                    z = cand / float(cand_pairs[1].min())  # _rescale_gauge(cand)
                    # free both old pair sets before building the new one
                    pairs = cand_pairs = None
                    pairs, moduli = _pair_distances(z), np.abs(z)
                    step = min(s * 1.5, 4.0 * step0)
                    accepted = True
                    break
                s *= 0.5
            val = _hard_value(pairs[1], moduli, p_true)
            trace.append((it, val))
            if val < best_val:
                best_val = val
                best_z = z.copy()
            if not accepted:
                break
    return best_z, best_val, trace


def _polish(z0: np.ndarray, p_true: float):
    """Coordinate-wise line search on the exact objective, shrinking steps.

    Moving one point only changes one row of the distance matrix, so
    candidate moves are scored incrementally in O(n): the minimum gap over
    pairs not involving the moved point is cached per state (it differs from
    the global minimum only for the two endpoints of the minimizing pair).
    """
    z = _rescale_gauge(z0.copy())
    n = z.size
    _, d = _pair_distances(z)
    moduli = np.abs(z)

    def current_state():
        gap = float(d.min())
        val = _hard_value(d, moduli, p_true)
        excl = {}
        a, b = divmod(int(np.argmin(d)), n)
        for k in (a, b):
            masked = d.copy()
            masked[k, :] = np.inf
            masked[:, k] = np.inf
            excl[k] = float(masked.min())
        return gap, excl, val

    gap, excl, val = current_state()
    step = _POLISH_STEP
    for _ in range(_POLISH_ROUNDS):
        improved = False
        for i in range(n):
            for delta in (step, -step, 1j * step, -1j * step):
                zi = z[i] + delta
                row = np.abs(z - zi)
                row[i] = np.inf
                gap_new = min(excl.get(i, gap), float(row.min()))
                if gap_new <= 0.0:
                    continue
                m_new = moduli.copy()
                m_new[i] = abs(zi)
                if modulus_p_norm(m_new, p_true) / gap_new < val:
                    z[i] = zi
                    d[i, :] = row
                    d[:, i] = row
                    moduli[i] = abs(zi)
                    gap, excl, val = current_state()
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-8:
                break
    return z, val


def _initial_points(cfg: OptimizerConfig, restart: int) -> np.ndarray:
    rng = np.random.default_rng((cfg.seed, restart))
    if cfg.init == "random":
        # density-matched to the lattice: n points uniform in a disk whose
        # area is n times the lattice cell area
        radius = math.sqrt(math.sqrt(3.0) * cfg.n / (2.0 * math.pi))
        rad = radius * np.sqrt(rng.uniform(size=cfg.n))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=cfg.n)
        return rad * np.exp(1j * ang)
    if cfg.init == "lattice":
        base = np.array(first_n_lattice_points(cfg.n).points)
    else:
        base = np.array(cfg.init_points, dtype=np.complex128)
    if restart == 0:
        return base
    jitter = 0.1 * (rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n))
    return base + jitter


def optimize(cfg: OptimizerConfig) -> OptimizerResult:
    """Multi-restart continuation descent plus hard polish.

    Restarts use independently derived seeds; the winner is chosen by
    (objective, restart index) so any execution order gives the same result.
    The returned objective can never exceed the objective of the nominal
    (restart-0) initial configuration.
    """
    p_true = float(cfg.p)
    p_smooth = _SURROGATE_P_FOR_INF if math.isinf(p_true) else p_true
    betas, steps = cfg.resolved_schedules()
    if cfg.init == "lattice":
        init_config = first_n_lattice_points(cfg.n)
    else:
        init_config = Configuration(_initial_points(cfg, 0))
    init_objective = separation_functional(init_config, p_true)
    # the start competes as candidate -1 so no run can return anything worse
    candidates = [(init_objective, -1, init_config, [(0, init_objective)])]
    for restart in range(cfg.restarts):
        z0 = _initial_points(cfg, restart)
        best_z, best_val, trace = _descend(z0, p_smooth, p_true, betas, steps,
                                           cfg.max_iters)
        polished_z, polished_val = _polish(best_z, p_true)
        if polished_val < best_val:
            best_z, best_val = polished_z, polished_val
            trace.append((trace[-1][0] + 1, best_val))
        candidates.append((best_val, restart, Configuration(best_z), trace))
    _, _, best, trace = min(candidates, key=lambda c: (c[0], c[1]))
    objective = separation_functional(best, p_true)
    return OptimizerResult(best=best, objective=objective, trace=tuple(trace),
                           init_objective=init_objective)
