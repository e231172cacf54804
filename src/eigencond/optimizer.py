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
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UsageError
from .extremal import (_norm_from_sum, _power_terms, _validate_p, modulus_p_norm,
                       separation_functional)
from .lattice import Configuration, first_n_lattice_points, pair_distances
from .linalg import prescale

BASE_BETAS = (10.0, 30.0, 100.0, 300.0)  # scaled by n
BASE_STEPS = (0.1, 0.05, 0.02, 0.01)
_SURROGATE_P_FOR_INF = 64.0
_POLISH_ROUNDS = 80
_POLISH_STEP = 0.05
# candidate moves scored in one array pass: on the polish inputs of
# n = 12-60 runs, 32-64 were fastest, and 16 or a whole round were slower
_POLISH_WINDOW = 48
# a vectorized polish score this close to acceptance is decided again by the
# scalar p-norm, whose last bit numpy's array ** does not always reproduce
_POLISH_FLAG_TOL = 1e-12
_BACKTRACK_LIMIT = 30
# exp of an argument at or below this is exactly 0, and numpy's exp is slow
# on such arguments, so the soft objective does not evaluate it there
_EXP_FLOOR = -746.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters; identical configs (same seed) give bit-identical runs.

    init is the start: "lattice", "random" or the n points (kept as a tuple)."""

    n: int
    p: float = 2.0
    restarts: int = 1
    max_iters: int = 300
    seed: int = 0
    init: str | tuple[complex, ...] = "lattice"

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("optimization needs n >= 2")
        _validate_p(self.p)
        if self.restarts < 1:
            raise UsageError("restarts must be at least 1")
        if self.max_iters < 1:
            raise UsageError("max_iters must be at least 1")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if isinstance(self.init, str):
            if self.init not in ("lattice", "random"):
                raise UsageError("init must be 'lattice', 'random' or n points, "
                                 f"got {self.init!r}")
        else:
            pts = tuple(complex(z) for z in self.init)
            if len(pts) != self.n:
                raise UsageError(f"init has {len(pts)} points, expected n={self.n}")
            object.__setattr__(self, "init", pts)


def _schedules(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The descent's beta and step per continuation stage at n points."""
    return tuple(b * n for b in BASE_BETAS), BASE_STEPS


@dataclass(frozen=True)
class OptimizerResult:
    """Best configuration found; objective is the hard functional of best."""

    best: Configuration
    objective: float
    trace: tuple[tuple[int, float], ...]
    init_objective: float


class _State(NamedTuple):
    """What the optimizer reads off points z, built once by _state(z, p)."""

    z: np.ndarray
    dz: np.ndarray  # pair_distances(z): the differences z_i - z_j
    d: np.ndarray  # and the distances, inf on the diagonal
    moduli: np.ndarray
    dmin: float  # the minimum gap
    num: float | None  # the p-norm of the moduli; None when dmin = 0
    u: np.ndarray | None  # moduli / max moduli; None at p = inf or dmin = 0
    scale: float | None  # turns u^(p - 1) into the p-norm's gradient; as u


def _state(z: np.ndarray, p: float) -> _State:
    """The _State of z for the p-norm of its moduli."""
    dz, d = pair_distances(z)
    moduli = np.abs(z)
    dmin = float(d.min())
    if dmin == 0.0:
        return _State(z, dz, d, moduli, dmin, None, None, None)
    top = float(moduli.max())
    if math.isinf(p):
        return _State(z, dz, d, moduli, dmin, top, None, None)
    u = moduli / top
    power_sum = np.sum(u ** p)
    num = _norm_from_sum(top, power_sum, p)
    return _State(z, dz, d, moduli, dmin, num, u, num / (top * float(power_sum)))


def _gauged(z: np.ndarray) -> np.ndarray:
    """z scaled to hard minimum gap 1 (z itself when points coincide).

    The gap is measured on z prescaled by an exact power of two, where no
    difference of two points overflows; in the normal float range the
    result is z / gap to the last bit.
    """
    zs, _ = prescale(z)
    gap = float(pair_distances(zs)[1].min())
    return z if gap == 0.0 else zs / gap


def _soft_eval(st: _State, p: float, beta: float, with_grad: bool):
    """Soft objective, the soft gap, and the gradient or, without it, the hard gap.

    st is _state(z, p); one state serves every evaluation at z.
    """
    z, dz, d, moduli, dmin, num, u, scale = st
    if dmin == 0.0:
        raise NumericalError("coincident points: the soft gap is not defined")
    # max-exponent subtraction: entries of d - dmin are >= 0 (diag stays inf)
    x = d - dmin
    x *= -beta
    e = np.zeros_like(d)
    np.exp(x, out=e, where=x > _EXP_FLOOR)
    del x  # freed before the gradient's n x n temporaries
    s = float(e.sum()) / 2.0
    softmin = dmin - math.log(s) / beta
    f = num / softmin
    if not with_grad:
        return f, softmin, dmin
    if math.isinf(p):
        raise UsageError("the gradient needs finite p (use a large-p surrogate)")
    if moduli.all():
        grad_num = scale * u ** (p - 1.0) * (z / moduli)
    else:
        grad_num = np.zeros(z.size, dtype=np.complex128)
        nz = moduli > 0.0
        grad_num[nz] = scale * u[nz] ** (p - 1.0) * (z[nz] / moduli[nz])
    # pair weight for {i, j} is e_ij / s with s the sum over unordered pairs;
    # each row of the full matrix visits every pair containing i exactly once
    unit = dz * (1.0 / d)  # diagonal: 0 * (1 / inf) = 0
    e /= s
    unit *= e
    grad_soft = unit.sum(axis=1)
    grad = (grad_num - f * grad_soft) / softmin
    return f, softmin, grad


def _soft_at(c: Configuration, p, beta, with_grad: bool):
    """_soft_eval at the points of c, after checking the arguments of
    soft_separation_functional and gradient; the gradient needs finite p."""
    p = _validate_p(p)
    beta = float(beta)
    if with_grad and math.isinf(p):
        raise UsageError("the gradient needs finite p")
    if beta <= 0.0:
        raise UsageError("beta must be positive")
    if c.n < 2:
        raise UsageError("need at least two points")
    return _soft_eval(_state(np.array(c.points), p), p, beta, with_grad)


def soft_separation_functional(c: Configuration, p, beta) -> float:
    """Smooth surrogate of the separation functional: p-norm over soft-min gap.

    softmin_beta <= hard min always, with hard_min - softmin_beta bounded by
    log(n*(n-1)/2)/beta.
    """
    return _soft_at(c, p, beta, False)[0]


def gradient(c: Configuration, p, beta) -> np.ndarray:
    """Analytic gradient of the soft objective, one complex number per point.

    Real and imaginary parts are the partial derivatives with respect to the
    point's real and imaginary coordinates.
    """
    return _soft_at(c, p, beta, True)[2]


def _descend(z0: np.ndarray, p_smooth: float, p_true: float,
             betas, steps, max_iters: int):
    """Continuation descent; tracks the best hard objective ever visited.

    The _State of each accepted configuration is built once and serves both
    its hard objective and every gradient taken there.  An iteration that
    accepts no step keeps the configuration and its hard objective.
    """

    def hard(st):
        if st.dmin == 0.0:
            return math.inf
        num = st.num if p_true == p_smooth else modulus_p_norm(st.moduli, p_true)
        return num / st.dmin

    st = _state(_gauged(z0), p_smooth)
    val = hard(st)
    best_z, best_val = st.z.copy(), val
    trace = [(0, val)]
    it = 0
    for beta, step0 in zip(betas, steps):
        step = step0
        for _ in range(max_iters):
            it += 1
            f, _, g = _soft_eval(st, p_smooth, beta, True)
            gmax = float(np.abs(g).max())
            if not math.isfinite(gmax) or gmax == 0.0:
                break
            accepted = False
            s = step
            for _ in range(_BACKTRACK_LIMIT):
                cand = st.z - s * g
                try:
                    cand_st = _state(cand, p_smooth)
                    fc, soft_c, gap_c = _soft_eval(cand_st, p_smooth, beta, False)
                except NumericalError:
                    fc, soft_c = math.inf, -1.0
                cand_st = None  # freed before any new state is built, as st is below
                if soft_c > 0.0 and fc < f:
                    st = None
                    st = _state(cand / gap_c, p_smooth)  # _gauged(cand)
                    val = hard(st)
                    step = min(s * 1.5, 4.0 * step0)
                    accepted = True
                    break
                s *= 0.5
            trace.append((it, val))
            if val < best_val:
                best_val = val
                best_z = st.z.copy()
            if not accepted:
                break
    return best_z, best_val, trace


def _polish(z0: np.ndarray, p_true: float):
    """Coordinate-wise line search on the exact objective, shrinking steps.

    Moves are tried in a fixed order (point by point, four directions each)
    and each improving move is taken at once.  Moving one point only changes
    one row of the distance matrix, so a move is scored in O(n): the minimum
    gap over pairs not involving the moved point is cached per state (it
    differs from the global minimum only for the two endpoints of the
    minimizing pair), and so are the p-norm's terms (m_j/top)^p, of which a
    move that keeps top replaces one.  The next _POLISH_WINDOW moves are
    scored in one array pass against the current state; since a rejected move
    changes nothing, taking the first accepted one and scoring on from the
    move after it visits the same states as trying the moves one by one.
    Every acceptance is decided by the same scalar expression as a lone move.
    """
    st = _state(_gauged(z0.copy()), p_true)
    z, d, moduli = st.z, st.d, st.moduli  # updated in place by accepted moves
    val = math.inf if st.dmin == 0.0 else st.num / st.dmin
    del st  # frees its pair differences
    n = z.size

    def excluded_gaps():
        """excl[k]: minimum gap over the pairs without point k."""
        flat = int(np.argmin(d))
        a, b = divmod(flat, n)
        scratch = d.copy()
        scratch[[a, b], :] = np.inf
        scratch[:, [a, b]] = np.inf
        rest = float(scratch.min())  # pairs with neither endpoint
        excl = np.full(n, d.flat[flat])
        # d[b, a] is the smallest entry of row b, so the row's second
        # smallest is its minimum without a
        excl[a] = min(rest, float(np.partition(d[b], 1)[1]))
        excl[b] = min(rest, float(np.partition(d[a], 1)[1]))
        return excl

    excl = excluded_gaps()
    top, terms = _power_terms(moduli, p_true)
    point = np.repeat(np.arange(n), 4)  # move m shifts point m // 4
    slot = np.arange(_POLISH_WINDOW)
    step = _POLISH_STEP
    for _ in range(_POLISH_ROUNDS):
        improved = False
        shifts = np.tile(np.array([step, -step, 1j * step, -1j * step]), n)
        start = 0
        while start < 4 * n:
            idx = point[start:start + _POLISH_WINDOW]
            k = slot[:idx.size]
            zs = z[idx] + shifts[start:start + _POLISH_WINDOW]
            rows = np.abs(z[None, :] - zs[:, None])
            rows[k, idx] = np.inf
            gaps = np.minimum(excl[idx], rows.min(axis=1))
            m_new = np.hypot(zs.real, zs.imag)  # bitwise abs(zs[j])
            # a move that keeps top changes one of the state's terms
            keeps = (moduli[idx] < top) & (m_new <= top)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                if terms is None:
                    approx = top / gaps
                else:
                    sums = np.repeat(terms[None, :], idx.size, axis=0)
                    sums[k, idx] = (np.minimum(m_new, top) / top) ** p_true
                    approx = top * sums.sum(axis=1) ** (1.0 / p_true) / gaps
            # decided exactly below: moves near acceptance (NaN included)
            # and moves whose p-norm is not the state's terms with one replaced
            near = ~(approx >= val * (1.0 + _POLISH_FLAG_TOL))
            flagged = ((gaps > 0.0) & (near | ~keeps)).nonzero()[0]
            next_start = start + idx.size
            for j in flagged:
                i = idx[j]
                if not keeps[j]:
                    m_vec = moduli.copy()
                    m_vec[i] = m_new[j]
                    norm = modulus_p_norm(m_vec, p_true)
                elif terms is None:
                    norm = top
                else:
                    norm = _norm_from_sum(top, sums[j].sum(), p_true)
                gap_new = float(gaps[j])
                if norm / gap_new < val:
                    z[i] = zs[j]
                    d[i, :] = rows[j]
                    d[:, i] = rows[j]
                    moduli[i] = m_new[j]
                    val = norm / gap_new  # the new state's p-norm and gap
                    if not keeps[j]:
                        top, terms = _power_terms(moduli, p_true)
                    elif terms is not None:
                        terms = sums[j].copy()
                    excl = excluded_gaps()
                    improved = True
                    next_start = start + j + 1
                    break
            start = next_start
        if not improved:
            step *= 0.5
            if step < 1e-8:
                break
    return z, val


def _initial_points(cfg: OptimizerConfig, restart: int, base=None) -> np.ndarray:
    """The points a restart starts from.

    A random start draws them from the stream (seed, restart).  Otherwise
    they are base, the run's nominal start, jittered from that stream;
    optimize starts restart 0 from base itself without calling this.
    """
    rng = np.random.default_rng((cfg.seed, restart))
    if cfg.init == "random":
        # density-matched to the lattice: n points uniform in a disk whose
        # area is n times the lattice cell area
        radius = math.sqrt(math.sqrt(3.0) * cfg.n / (2.0 * math.pi))
        rad = radius * np.sqrt(rng.uniform(size=cfg.n))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=cfg.n)
        return rad * np.exp(1j * ang)
    jitter = 0.1 * (rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n))
    return base + jitter


def optimize(cfg: OptimizerConfig) -> OptimizerResult:
    """Multi-restart continuation descent plus hard polish.

    Restarts use independently derived seeds; the winner is chosen by
    (objective, restart index) so any execution order gives the same result.
    Restart 0 starts from the nominal start, which is built once per run.
    The returned objective can never exceed the nominal start's objective.
    """
    p_true = float(cfg.p)
    p_smooth = _SURROGATE_P_FOR_INF if math.isinf(p_true) else p_true
    betas, steps = _schedules(cfg.n)
    if cfg.init == "lattice":
        init_config = first_n_lattice_points(cfg.n)
    elif cfg.init == "random":
        init_config = Configuration(_initial_points(cfg, 0))
    else:
        init_config = Configuration(cfg.init)
    base = init_config.points
    init_objective = separation_functional(init_config, p_true)
    # the start competes as candidate -1 so no run can return anything worse
    candidates = [(init_objective, -1, init_config, [(0, init_objective)])]
    for restart in range(cfg.restarts):
        z0 = base if restart == 0 else _initial_points(cfg, restart, base)
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
