"""Dense complex matrix kernels: Schur form, eigenpairs, singular values, norms.

Factorizations delegate to LAPACK through numpy/scipy; every factor handed
back is re-checked against explicit residual tolerances, and eigenvector
extraction flags clustered spectra instead of returning garbage.  The
tolerances below are fixed: every check of the package reads them.

Eigenpairs come from one engine (schur_eigenpair, after LAPACK's xTREXC /
xTRSNA): the Schur form T = Q^H A Q is reordered so that the eigenvalue
sits at T[0, 0]; then x = Q e_1, the left eigenvector comes from one
triangular solve with the trailing block, and that block shifted by lam
gives sigma_min for kappa_x.  Engine entry points prescale A by an exact
power of two (prescale), so nothing depends on where ||A|| falls in the
float range.

scipy.linalg is imported inside schur and schur_eigenpair, the only
functions that call it, so that importing the package and running the
subcommands that factor no matrix do not pay for loading it.

Engine entry points run under one_blas_thread, which pins numpy's and
scipy's OpenBLAS runtimes to one thread: at these sizes a second thread
costs more than it saves, and the last bits of a factorization would
otherwise depend on the host's thread count.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ClusteredSpectrumError, NumericalError

EIG_RESIDUAL_TOL = 1e-8   # * ||A||_F: residual to accept lambda as an eigenvalue
EIG_GAP_TOL = 1e-8        # * ||A||_F: eigenvalues closer than this are clustered
UNITARY_TOL = 1e-12       # * n: for ||Q^H Q - I||_F
TRIANGULAR_TOL = 1e-12    # * ||A||_F: for the strictly lower part of T
RECONSTRUCT_TOL = 1e-10   # * ||A||_F: for ||A - Q T Q^H||_F


# (get, set) thread-count symbols of the OpenBLAS runtimes that numpy
# (libscipy_openblas64_) and scipy (libscipy_openblas) wheels bundle
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_runtimes() -> tuple[tuple[str, tuple | None], ...]:
    """(file name, (get, set) or None) for each OpenBLAS library in the process.

    Libraries are found by their paths in /proc/self/maps after scipy.linalg
    is imported, so scipy's runtime is among them; get and set are the
    library's thread-count functions, None where it exports neither pair of
    _OPENBLAS_THREAD_SYMBOLS.  Where /proc/self/maps cannot be read
    (not Linux) no library is found.  Looked up once per process.
    """
    import ctypes

    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS)

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({parts[5].strip() for parts in (ln.split(maxsplit=5) for ln in fh)
                            if len(parts) == 6 and "openblas" in parts[5].lower()})
    except OSError:
        return ()
    runtimes = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        control = None
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                control = (get, put)
                break
        runtimes.append((os.path.basename(path), control))
    return tuple(runtimes)


def pinned_blas_threads() -> dict[str, int | None]:
    """Thread count of each OpenBLAS library while one_blas_thread holds:
    1, or None where the library exports no thread control."""
    return {name: None if control is None else 1 for name, control in _openblas_runtimes()}


_pin_lock = threading.Lock()
_pin_holders = 0
_pin_saved: list[int] = []


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, the function) with every OpenBLAS
    runtime that exports a thread control pinned to one thread.

    The setting is process-wide: the first holder saves each runtime's
    count and pins it, nested and concurrent holders share the pin, and the
    last one out restores the saved counts, also when the block raises.
    """
    global _pin_holders, _pin_saved
    controls = [control for _, control in _openblas_runtimes() if control is not None]
    with _pin_lock:
        if _pin_holders == 0:
            _pin_saved = [get() for get, _ in controls]
            for _, put in controls:
                put(1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                for (_, put), count in zip(controls, _pin_saved):
                    put(count)


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and convert to a dense complex matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ValueError(f"expected a 2-d matrix with positive dimensions, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def pow2_scale(z, e: int):
    """z * 2^e for real or complex scalars and arrays, parts scaled apart.

    Exact unless a part leaves the normal float range; past the top it
    gives +-inf, where the math module's ldexp would raise.
    """
    z = np.asarray(z)
    with np.errstate(over="ignore", under="ignore"):
        if not np.iscomplexobj(z):
            return np.ldexp(z, e)
        out = np.empty_like(z)
        out.real = np.ldexp(z.real, e)
        out.imag = np.ldexp(z.imag, e)
    return out


def prescale(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m * 2^s, s) with the largest |re| or |im| of an entry in [1/2, 1).

    The factor is an exact power of two read off frexp, never off a norm
    that could overflow, so quantities computed from the scaled matrix map
    back by an exact ldexp and do not depend on where ||m|| falls in the
    float range.  The zero matrix comes back with s = 0.
    """
    peak = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    if peak == 0.0:
        return m, 0
    s = -math.frexp(peak)[1]
    return pow2_scale(m, s), s


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(as_matrix(m)))


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


@dataclass(frozen=True)
class SchurForm:
    """Unitary q and upper-triangular t with a = q t q^H."""

    q: np.ndarray
    t: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """Diagonal of t: the full eigenvalue multiset of the source matrix."""
        return np.diag(self.t).copy()

    def reconstruct(self) -> np.ndarray:
        return self.q @ self.t @ self.q.conj().T


def schur(a) -> SchurForm:
    """Complex Schur decomposition with verified residuals.

    Raises NumericalError if the QR iteration fails to converge or any of the
    unitarity / triangularity / reconstruction residuals exceeds tolerance.
    """
    import scipy.linalg

    m = as_matrix(a, square=True)
    n = m.shape[0]
    try:
        t, q = scipy.linalg.schur(m, output="complex")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Schur iteration failed to converge: {exc}") from exc
    anorm = float(np.linalg.norm(m))
    unit_err = float(np.linalg.norm(q.conj().T @ q - np.eye(n)))
    if unit_err > UNITARY_TOL * n:
        raise NumericalError(f"Schur factor not unitary: residual {unit_err:.3e}")
    tri_err = float(np.linalg.norm(np.tril(t, -1)))
    if tri_err > TRIANGULAR_TOL * max(anorm, 1e-300):
        raise NumericalError(f"Schur factor not triangular: residual {tri_err:.3e}")
    recon_err = float(np.linalg.norm(m - q @ t @ q.conj().T))
    if recon_err > RECONSTRUCT_TOL * max(anorm, 1e-300):
        raise NumericalError(f"Schur reconstruction residual too large: {recon_err:.3e}")
    return SchurForm(q=q, t=t)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-modulus entry is real positive (first on ties)."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if pivot != 0:
        v = v * (pivot.conjugate() / abs(pivot))
    return v


class SchurEigenpair(NamedTuple):
    """One eigenpair read off a Schur form reordered so that lam = T[0, 0].

    With T = [[lam, t], [0, T22]], Q the reordered unitary factor and
    B = T22 - lam*I: x = Q e_1 exactly, w solves B^H w = -t^H, the left
    eigenvector is y = Q [1; w] / ||[1; w]||, and inv_overlap = ||[1; w]||
    = 1/|y^H x|.  sigma_min is the least singular value of B, which
    represents A - lam*I on the orthogonal complement of x.  When B is
    singular in working precision (lam repeated exactly, or a gap below the
    normal float range) the solve fails: y is then all NaN, which fails
    every residual check, and inv_overlap is inf.  x and y are phase-fixed
    like every eigenvector of this module.
    """

    eigenvalue: complex
    x: np.ndarray
    y: np.ndarray
    inv_overlap: float
    sigma_min: float


# The left solve scales its right-hand side down by a power of two when its
# solution could exceed 2^_SOLVE_EXP_LIMIT (||w|| <= ||t|| / sigma_min), far
# enough below the overflow threshold that no partial sum can reach it.
_SOLVE_EXP_LIMIT = 512


def schur_eigenpair(form: SchurForm, k: int) -> SchurEigenpair:
    """Eigenpair of the k-th diagonal entry of a Schur form.

    One reorder (ztrexc moves t_kk to T[0, 0]; diagonal entries move
    exactly), one SVD of the triangular (n-1) block and one triangular
    solve, all through scipy's BLAS/LAPACK only: interleaving numpy's
    separately linked BLAS runtime in a per-eigenpair loop costs more than
    the loop's own work.
    """
    import scipy.linalg
    from scipy.linalg import blas, lapack

    t, q, info = lapack.ztrexc(form.t, form.q, k + 1, 1)
    if info != 0:
        raise NumericalError(f"Schur reordering failed: ztrexc info {info}")
    n = t.shape[0]
    lam = complex(t[0, 0])
    x = _fix_phase(q[:, 0].copy())
    if n == 1:
        return SchurEigenpair(lam, x, x, 1.0, math.inf)
    b = np.triu(t[1:, 1:])
    diag = np.arange(n - 1)
    b[diag, diag] -= lam
    smin = float(scipy.linalg.svdvals(b, check_finite=False)[-1])
    v = np.empty(n, dtype=np.complex128)
    v[0] = 1.0
    v[1:] = -t[0, 1:].conj()
    shift = max(0, math.frexp(blas.dznrm2(v[1:]))[1] - math.frexp(smin)[1]
                - _SOLVE_EXP_LIMIT)
    if shift:
        v = pow2_scale(v, -shift)
    v[1:] = blas.ztrsv(b, v[1:], trans=2)
    if not np.all(np.isfinite(v)):
        # B is singular in working precision: an exact zero on its diagonal,
        # or one whose reciprocal overflows
        return SchurEigenpair(lam, x, np.full(n, np.nan, dtype=np.complex128),
                              math.inf, smin)
    nrm = blas.dznrm2(v)
    y = _fix_phase(blas.zgemv(1.0 / nrm, q, v))
    return SchurEigenpair(lam, x, y, float(pow2_scale(nrm, shift)), smin)


def verified_residuals(m: np.ndarray, lams: np.ndarray, vectors: np.ndarray,
                       tol: float, *, left: bool = False) -> np.ndarray:
    """Residual norm of every column, ||m v - lam v|| or with left=True
    ||m^H v - conj(lam) v||, from one matrix product for all columns.

    Raises NumericalError unless every residual is <= tol (a NaN fails).
    """
    if left:
        m, lams = m.conj().T, lams.conj()
    res = np.linalg.norm(m @ vectors - vectors * lams, axis=0)
    if not np.all(res <= tol):
        worst = float(np.max(np.where(np.isnan(res), np.inf, res)))
        side = "left" if left else "right"
        raise NumericalError(f"{side} eigenvector residual {worst:.3e} exceeds "
                             f"tolerance {tol:.3e}")
    return res


@one_blas_thread()
def locate_eigenpair(a, lam, *, simple: bool = False) -> tuple[SchurEigenpair, int]:
    """Engine entry for one eigenvalue: prescale, Schur form, locate, reorder.

    lam is matched to the nearest Schur diagonal entry, which must lie
    within EIG_RESIDUAL_TOL * ||A||_F of it (else ValueError).  With simple
    the entry must also lie farther than EIG_GAP_TOL * ||A||_F from the rest
    of the diagonal (else ClusteredSpectrumError), and the left eigenvector
    is verified along with the right one.  Returns the pair for the
    prescaled matrix A * 2^s, and s.
    """
    ms, s = prescale(as_matrix(a, square=True))
    form = schur(ms)
    diag = form.eigenvalues
    lam = complex(lam)
    dist = np.abs(diag - complex(pow2_scale(lam, s)))
    k = int(np.argmin(dist))
    anorm = float(np.linalg.norm(ms))
    tol = EIG_RESIDUAL_TOL * (anorm if anorm > 0.0 else 1.0)
    if simple and diag.size > 1:
        gap = float(np.min(np.abs(np.delete(diag, k) - diag[k])))
        threshold = EIG_GAP_TOL * anorm
        if gap <= threshold:
            raise ClusteredSpectrumError(
                f"eigenvalue {lam!r} is not simple: nearest other eigenvalue at distance "
                f"{pow2_scale(gap, -s):.3e} (threshold {pow2_scale(threshold, -s):.3e})",
                cluster=(lam,))
    if dist[k] > tol:
        raise ValueError(f"{lam!r} is not an eigenvalue within tolerance (nearest "
                         f"eigenvalue at distance {pow2_scale(dist[k], -s):.3e} > "
                         f"{pow2_scale(tol, -s):.3e})")
    pair = schur_eigenpair(form, k)
    lams = np.array([pair.eigenvalue])
    verified_residuals(ms, lams, pair.x[:, None], tol)
    if simple:
        verified_residuals(ms, lams, pair.y[:, None], tol, left=True)
    return pair, s


def right_eigenvector(a, lam) -> np.ndarray:
    """Unit right eigenvector for lam (no simplicity requirement)."""
    return locate_eigenpair(a, lam)[0].x


def right_left_eigenpair(a, lam):
    """Unit right and left eigenvectors (x, y) for a simple eigenvalue lam.

    Phases are fixed so each vector's largest-modulus entry is real positive.
    Raises ValueError when lam is not an eigenvalue to tolerance and
    ClusteredSpectrumError when it is not numerically simple.
    """
    pair, _ = locate_eigenpair(a, lam, simple=True)
    return pair.x, pair.y


def write_matrix(path, a) -> None:
    """Write a square matrix as text: a header line n, then n*n lines "re im".

    Floats use shortest round-trip formatting, so read_matrix restores the
    exact bits.
    """
    m = as_matrix(a, square=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]}\n")
        for v in m.ravel():
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def read_matrix(path) -> np.ndarray:
    """Read the matrix text format written by write_matrix."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}: header must be the matrix dimension") from exc
    if n < 1:
        raise ValueError(f"{path}: dimension must be positive, got {n}")
    if len(lines) - 1 != n * n:
        raise ValueError(f"{path}: expected {n * n} entry lines, found {len(lines) - 1}")
    out = np.empty(n * n, dtype=np.complex128)
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {k + 2}: expected 're im'")
        out[k] = complex(float(parts[0]), float(parts[1]))
    return as_matrix(out.reshape(n, n), square=True)
