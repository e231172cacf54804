"""Shared helpers and hypothesis settings for the suite."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


@pytest.fixture()
def blas_threads():
    """Thread counts of the OpenBLAS runtimes in the process: set(k) sets
    every one to k, counts() returns the set of their counts.  The counts
    found before the test are restored after it."""
    from eigencond.linalg import _openblas_runtimes

    controls = [control for _, control in _openblas_runtimes() if control is not None]
    if not controls:
        pytest.skip("no OpenBLAS runtime with a thread control in this process")
    saved = [get() for get, _ in controls]

    def set_all(k):
        for _, put in controls:
            put(k)

    yield SimpleNamespace(set=set_all, counts=lambda: {get() for get, _ in controls})
    for (_, put), count in zip(controls, saved):
        put(count)


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


def four_key_lattice_sites(r, closed=True):
    """Oracle: (a, b) of every lattice site with |z| <= r (closed, with the
    package's boundary slack) or |z| < r, found by scanning a bounding box
    and sorted by four keys: the integer squared modulus, the argument in
    [0, 2*pi), then a, then b."""
    bound = int(math.ceil(2.0 * r)) + 3
    a, b = (m.ravel() for m in np.meshgrid(np.arange(-bound, bound + 1, dtype=np.int64),
                                           np.arange(-bound, bound + 1, dtype=np.int64)))
    q = a * (a + b) + b * b
    if closed:
        keep = q <= (r * (1.0 + 8.0 * np.finfo(float).eps)) ** 2
    else:
        keep = q < r * r
    a, b, q = a[keep], b[keep], q[keep]
    angle = np.mod(np.arctan2(b * (math.sqrt(3.0) / 2.0), a + 0.5 * b), 2.0 * math.pi)
    order = np.lexsort((b, a, angle, q))
    return a[order], b[order]


# Oracles of the shell arithmetic in eigencond.shells: the numpy row table,
# shell sums and annulus pass that it replaced, in int64, and the bisection
# that came before the annulus pass.

def reference_disk_rows(bound):
    """Oracle of shells._disk_rows as an int64 array, by a float square root:
    x < 2^41 is exact in a float and its correctly rounded root lies within
    2^-31 of sqrt(x), while a non-square's root is at least 2^-22 below the
    next integer, so truncation cannot round up."""
    b = np.arange(math.isqrt(4 * bound // 3) + 1 if bound >= 0 else 0, dtype=np.int64)
    t = np.sqrt((4 * bound - 3 * b * b).astype(float)).astype(np.int64)
    return t - ((t - b) & 1)


def reference_shell_sums(bound):
    """Oracle of shells._shell_sums: the closed-form row totals in int64."""
    t = reference_disk_rows(int(bound))
    b = np.arange(t.size, dtype=np.int64)
    count = t + 1
    four_q = t * (t + 1) * (t + 2) // 3 + 3 * b * b * count
    count[1:] *= 2
    four_q[1:] *= 2
    return int(count.sum()), sum(four_q.tolist()) // 4


def _prefix_bracket(n):
    from eigencond.shells import _CELL_RADIUS, CELL_AREA

    s = math.sqrt(n * CELL_AREA / math.pi)
    lo = math.floor((s - _CELL_RADIUS) ** 2) - 1 if s > _CELL_RADIUS else -1
    return lo, math.ceil((s + _CELL_RADIUS) ** 2) + 1


def reference_annulus_prefix_sums(n):
    """Oracle of shells.lattice_prefix_sums: the same bracket and annulus
    pass over numpy int64 arrays, binned with np.bincount."""
    lo, hi = _prefix_bracket(n)
    inside, q_sum = reference_shell_sums(lo)
    top = reference_disk_rows(hi)
    b = np.arange(top.size, dtype=np.int64)
    start = b & 1
    below = reference_disk_rows(lo)
    start[:below.size] = below + 2
    count = (top - start) // 2 + 1
    first = np.cumsum(count) - count
    bb = np.repeat(b, count)
    t = 2 * np.arange(bb.size, dtype=np.int64) + np.repeat(start - 2 * first, count)
    weight = (1 + (t > 0)) * (1 + (bb > 0))
    shells = np.bincount((t * t + 3 * bb * bb) // 4 - (lo + 1), weights=weight,
                         minlength=hi - lo).astype(np.int64)
    k = int(np.searchsorted(np.cumsum(shells), n - inside))
    q_max = lo + 1 + k
    inside += int(shells[:k].sum())
    q_sum += int(shells[:k] @ np.arange(lo + 1, q_max, dtype=np.int64))
    return q_max, q_sum + (n - inside) * q_max


def reference_prefix_sums(n, shell_sums=None):
    """Oracle of shells.lattice_prefix_sums: q_max, the smallest Q with
    N(Q) >= n, by bisection on the Voronoi-cell bracket, and the sum of q
    from the shell sums below q_max.  shell_sums(Q) gives (N(Q), sum of q
    over q <= Q); reference_shell_sums by default."""
    shell_sums = shell_sums or reference_shell_sums
    lo, hi = _prefix_bracket(n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if shell_sums(mid)[0] >= n:
            hi = mid
        else:
            lo = mid
    inside, q_sum = shell_sums(hi - 1)
    return hi, q_sum + (n - inside) * hi


def unitary_with_first_column(x, *, tol=1e-12):
    """Unitary matrix whose first column is the given unit vector.

    Householder construction: with alpha = -x_1/|x_1| (alpha = -1 when
    x_1 = 0) the reflector H mapping x to alpha*e_1 is never degenerate, and
    Q = H * diag(alpha, 1, ..., 1) satisfies Q e_1 = x.
    """
    v = np.asarray(x, dtype=np.complex128).ravel()
    if v.size < 1 or not np.all(np.isfinite(v)):
        raise ValueError("expected a finite nonempty vector")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"expected a unit vector, got norm {nrm!r}")
    alpha = -(v[0] / abs(v[0])) if v[0] != 0 else -1.0 + 0.0j
    w = v.copy()
    w[0] -= alpha
    q = np.eye(v.size, dtype=np.complex128) - 2.0 * np.outer(w, w.conj()) / (w.conj() @ w)
    q[:, 0] *= alpha
    return q


def svd_condition_report(a, residual_tol=1e-8, block_tol=1e-8):
    """Oracle: condition numbers by two SVDs and a Householder similarity
    per eigenvalue, with no reordered Schur form.

    Eigenvalues come from np.linalg.eigvals in the package's spectrum order.
    For each, the last singular vectors of A - lam*I are the right and left
    eigenvectors; kappa_lambda = 1/|y^H x| (inf below 1e-14) and kappa_x =
    1/sigma_min of the block Q^H A Q [1:, 1:] - lam*I, where Q is the
    Householder completion of x.  Returns (eigenvalues, kappa_lambda,
    kappa_x, kappa_max_frob, kappa_max_op).
    """
    m = np.asarray(a, dtype=np.complex128)
    n = m.shape[0]
    anorm = float(np.linalg.norm(m))
    lams = np.linalg.eigvals(m)
    angle = np.mod(np.angle(lams), 2.0 * math.pi)
    lams = lams[np.lexsort((lams.imag, lams.real, angle, np.abs(lams)))]
    tol = residual_tol * anorm
    kl, kx = [], []
    for lam in lams:
        u, s, vh = np.linalg.svd(m - lam * np.eye(n))
        assert s[-1] <= tol, f"{lam} is not an eigenvalue: sigma_min {s[-1]:.3e}"
        x, y = vh[-1].conj(), u[:, -1]
        overlap = abs(complex(y.conj() @ x))
        kl.append(np.inf if overlap < 1e-14 else max(1.0, 1.0 / overlap))
        q = unitary_with_first_column(x / np.linalg.norm(x))
        t = q.conj().T @ m @ q
        assert np.linalg.norm(t[1:, 0]) <= block_tol * anorm
        smin = np.linalg.svd(t[1:, 1:] - lam * np.eye(n - 1), compute_uv=False)[-1]
        kx.append(np.inf if smin == 0.0 else 1.0 / smin)
    kx = np.array(kx)
    no = float(np.linalg.svd(m, compute_uv=False)[0])
    return lams, np.array(kl), kx, kx.max() * anorm, kx.max() * no


# Oracles of the optimizer's fast paths: the descent and polish as they were
# before windowed polish scoring and the single-pass soft objective, scoring
# every polish move with a full modulus_p_norm.  reference_polish may log
# each accepted move as (point, was_at_top, raised_top, top_was_tied).

def reference_pair_distances(z):
    dz = z[:, None] - z[None, :]
    d = np.abs(dz)
    np.fill_diagonal(d, np.inf)
    return dz, d


def reference_hard_value(d, moduli, p):
    from eigencond.extremal import modulus_p_norm

    gap = float(d.min())
    if gap == 0.0:
        return math.inf
    return modulus_p_norm(moduli, p) / gap


def reference_rescale_gauge(z):
    _, d = reference_pair_distances(z)
    gap = float(d.min())
    return z if gap == 0.0 else z / gap


def reference_soft_eval(z, p, beta, with_grad, pairs, moduli):
    from eigencond.errors import NumericalError
    from eigencond.extremal import modulus_p_norm

    dz, d = pairs
    dmin = float(d.min())
    if dmin == 0.0:
        raise NumericalError("coincident points: the soft gap is not defined")
    x = -beta * (d - dmin)
    e = np.zeros_like(d)
    np.exp(x, out=e, where=x > -746.0)
    del x
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
    unit = dz / d
    grad_soft = ((e / s) * unit).sum(axis=1)
    grad = (grad_num - f * grad_soft) / softmin
    return f, softmin, grad


def reference_descend(z0, p_smooth, p_true, betas, steps, max_iters):
    from eigencond.errors import NumericalError

    z = reference_rescale_gauge(z0)
    pairs, moduli = reference_pair_distances(z), np.abs(z)
    best_z = z.copy()
    best_val = reference_hard_value(pairs[1], moduli, p_true)
    trace = [(0, best_val)]
    it = 0
    for beta, step0 in zip(betas, steps):
        step = step0
        for _ in range(max_iters):
            it += 1
            f, _, g = reference_soft_eval(z, p_smooth, beta, True, pairs, moduli)
            gmax = float(np.abs(g).max())
            if not math.isfinite(gmax) or gmax == 0.0:
                break
            accepted = False
            s = step
            for _ in range(30):
                cand = z - s * g
                cand_pairs = reference_pair_distances(cand)
                try:
                    fc, soft_c, _ = reference_soft_eval(cand, p_smooth, beta, False,
                                                        cand_pairs, np.abs(cand))
                except NumericalError:
                    fc, soft_c = math.inf, -1.0
                if soft_c > 0.0 and fc < f:
                    z = cand / float(cand_pairs[1].min())
                    pairs = cand_pairs = None
                    pairs, moduli = reference_pair_distances(z), np.abs(z)
                    step = min(s * 1.5, 4.0 * step0)
                    accepted = True
                    break
                s *= 0.5
            val = reference_hard_value(pairs[1], moduli, p_true)
            trace.append((it, val))
            if val < best_val:
                best_val = val
                best_z = z.copy()
            if not accepted:
                break
    return best_z, best_val, trace


def reference_polish(z0, p_true, log=None):
    from eigencond.extremal import modulus_p_norm

    z = reference_rescale_gauge(z0.copy())
    n = z.size
    _, d = reference_pair_distances(z)
    moduli = np.abs(z)

    def current_state():
        gap = float(d.min())
        val = reference_hard_value(d, moduli, p_true)
        excl = {}
        a, b = divmod(int(np.argmin(d)), n)
        for k in (a, b):
            masked = d.copy()
            masked[k, :] = np.inf
            masked[:, k] = np.inf
            excl[k] = float(masked.min())
        return gap, excl, val

    gap, excl, val = current_state()
    step = 0.05
    for _ in range(80):
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
                    if log is not None:
                        top = float(moduli.max())
                        log.append((i, moduli[i] == top, abs(zi) > top,
                                    np.count_nonzero(moduli == top) > 1))
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


def reference_optimize(cfg):
    """optimize(cfg) run through the reference descent and polish."""
    import eigencond.optimizer as opt

    with pytest.MonkeyPatch.context() as m:
        m.setattr(opt, "_descend", reference_descend)
        m.setattr(opt, "_polish", reference_polish)
        return opt.optimize(cfg)


def reference_match_eigenvalues(lams, w, min_gap, margin=1e-9):
    """Oracle of conditioning._match_eigenvalues: one argsort per eigenvalue."""
    used = set()
    match = []
    for lam in lams:
        d = np.abs(w - lam)
        order = np.argsort(d)
        j = int(order[0])
        if d.size > 1 and d[order[1]] - d[j] <= margin * min_gap:
            return None
        if j in used:
            return None
        used.add(j)
        match.append(j)
    return match
