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
