"""Dense complex matrix kernels: Schur form, eigenpairs, singular values, norms.

Factorizations delegate to LAPACK through numpy/scipy; every factor handed
back is re-checked against explicit residual tolerances, and eigenvector
extraction flags clustered spectra instead of returning garbage.  The
tolerances below are fixed and read by every check (via SchurForm for eigenpairs).

Eigenpairs come from one engine (schur_eigenpair, after LAPACK's xTREXC /
xTRSNA): the Schur form T = Q^H A Q is reordered so that the eigenvalue
sits at T[0, 0]; then x = Q e_1, the left eigenvector comes from one
triangular solve with the trailing block, and that block shifted by lam
gives sigma_min for kappa_x.  Engine entry points prescale A by an exact
power of two (prescale), so nothing depends on where ||A|| falls in the
float range.

sigma_min has two sources.  schur records the departure from normality
||triu(T, 1)||_F of the form it verified; when that is at most
NORMAL_DEPARTURE_C * n * u * ||A||_F (u the unit roundoff, SchurForm.normal)
sigma_min is the spectral gap min_{j != k} |t_jj - t_kk|, which Weyl's
inequality certifies to within the departure, no more than the SVD's own
error.  Otherwise it is the least singular value from LAPACK's zgesdd,
called through ctypes (_least_singular_value), which releases the GIL, so
that callers may run the SVDs of several eigenpairs on parallel threads.
Normal matrices, the paper's perfectly conditioned ones, then cost O(n^3)
in all instead of one O(n^3) SVD per eigenpair.

scipy.linalg is imported inside the functions that call it, so that
importing the package and running the subcommands that factor no matrix do
not pay for loading it.

Engine entry points run under one_blas_thread, which pins numpy's and
scipy's OpenBLAS runtimes to one thread: at these sizes a second thread
costs more than it saves, and the last bits of a factorization would
otherwise depend on the host's thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ClusteredSpectrumError, NumericalError, UsageError

EIG_RESIDUAL_TOL = 1e-8   # * ||A||_F: residual to accept lambda as an eigenvalue
EIG_GAP_TOL = 1e-8        # * ||A||_F: eigenvalues closer than this are clustered
UNITARY_TOL = 1e-12       # * n: for ||Q^H Q - I||_F
TRIANGULAR_TOL = 1e-12    # * ||A||_F: for the strictly lower part of T
RECONSTRUCT_TOL = 1e-10   # * ||A||_F: for ||A - Q T Q^H||_F

# A Schur form is normal to working precision when ||triu(T, 1)||_F is at
# most NORMAL_DEPARTURE_C * n * u * ||A||_F.  Measured in those units on
# verified Schur forms over n = 2-300 (seeds 1000-1005 and 2000-2299): normal
# matrices (lattice or Gaussian spectra, Hermitian, unitary) reached at most
# 4.3 (n = 3), falling to 0.7 at n = 40 and 0.2 at n = 300; Ginibre and
# random upper-triangular matrices were at least 2e13, Grcar matrices (n >= 3)
# far above 1e13, and near-normal D + N with ||N||_F = 1e-13 ||D||_F at
# least 3.  8 keeps every measured normal matrix, with room to spare.
NORMAL_DEPARTURE_C = 8.0
_UNIT_ROUNDOFF = 2.0 ** -53


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
        raise UsageError(f"expected a 2-d matrix with positive dimensions, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise UsageError("matrix entries must be finite")
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
    """(m * 2^s, s) with the largest |re| or |im| of an entry of the matrix
    or point array m in [1/2, 1).

    The factor is an exact power of two read off frexp, never off a norm
    that could overflow, so quantities computed from the scaled matrix map
    back by an exact ldexp and do not depend on where ||m|| falls in the
    float range.  An all-zero m comes back with s = 0.
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
    """Unitary q and upper-triangular t with a = q t q^H.

    departure is ||triu(t, 1)||_F, the departure from normality, and norm
    is ||a||_F.
    """

    q: np.ndarray
    t: np.ndarray
    departure: float
    norm: float

    @property
    def normal(self) -> bool:
        """True when t is normal to working precision: departure <=
        NORMAL_DEPARTURE_C * n * u * norm."""
        n = self.t.shape[0]
        return self.departure <= NORMAL_DEPARTURE_C * n * _UNIT_ROUNDOFF * self.norm

    @property
    def residual_tol(self) -> float:
        """Largest accepted eigenpair residual: EIG_RESIDUAL_TOL * ||a||_F (1 if a = 0)."""
        return EIG_RESIDUAL_TOL * (self.norm if self.norm > 0.0 else 1.0)

    @property
    def cluster_tol(self) -> float:
        """Eigenvalues at most EIG_GAP_TOL * ||a||_F apart are clustered."""
        return EIG_GAP_TOL * self.norm

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
    return SchurForm(q=q, t=t, departure=float(np.linalg.norm(np.triu(t, 1))), norm=anorm)


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


@functools.cache
def _zgesdd():
    """LAPACK's zgesdd from scipy's cython_lapack, as a ctypes function.

    ctypes releases the GIL for the length of each call.  It is the same
    routine in the same library that scipy.linalg.svdvals calls.
    """
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["zgesdd"]
    api = ctypes.pythonapi
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    address = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 15)(address)


def _least_singular_value(b: np.ndarray) -> float:
    """Smallest singular value of the square matrix b, without the GIL.

    One zgesdd call with jobz = 'N' after a workspace query, the call and
    the workspace size that scipy.linalg.svdvals(b)[-1] makes, so the bits
    are its bits.
    """
    m = b.shape[0]
    a = np.array(b, dtype=np.complex128, order="F")
    s = np.empty(m)
    rwork = np.empty(7 * m)
    iwork = np.empty(8 * m, dtype=np.int32)
    work = np.empty(1, dtype=np.complex128)
    info = ctypes.c_int(0)
    dim = ctypes.byref(ctypes.c_int(m))
    one = ctypes.byref(ctypes.c_int(1))

    def call(lwork: int) -> None:
        _zgesdd()(b"N", dim, dim, a.ctypes.data, dim, s.ctypes.data, work.ctypes.data, one,
                  work.ctypes.data, one, work.ctypes.data, ctypes.byref(ctypes.c_int(lwork)),
                  rwork.ctypes.data, iwork.ctypes.data, ctypes.byref(info))
        if info.value != 0:
            raise NumericalError(f"singular value decomposition failed: zgesdd info {info.value}")

    call(-1)  # the workspace query writes the optimal size to work[0]
    lwork = max(1, int(work[0].real))
    work = np.empty(lwork, dtype=np.complex128)
    call(lwork)
    return float(s[-1])


# The left solve scales its right-hand side down by a power of two when its
# solution could exceed 2^_SOLVE_EXP_LIMIT (||w|| <= ||t|| / sigma_min), far
# enough below the overflow threshold that no partial sum can reach it.
_SOLVE_EXP_LIMIT = 512


def schur_eigenpair(form: SchurForm, k: int) -> SchurEigenpair:
    """Eigenpair of the k-th diagonal entry of a Schur form.

    One reorder (ztrexc moves t_kk to T[0, 0]; diagonal entries move
    exactly), sigma_min of the triangular (n-1) block B and one triangular
    solve, all through scipy's BLAS/LAPACK only: interleaving numpy's
    separately linked BLAS runtime in a per-eigenpair loop costs more than
    the loop's own work.

    sigma_min is the spectral gap g = min_{j != k} |t_jj - t_kk| when the
    form is normal to working precision (form.normal), and the least
    singular value of B from zgesdd otherwise.  Why the gap is certified:
    write T = D + N, D diagonal and N strictly upper triangular.  An exact
    reordering is a unitary similarity that keeps the diagonal as a
    multiset and keeps ||N||_F (||T||_F and ||D||_F are both unchanged), and
    the strictly upper part of its trailing block is a submatrix of its N.
    So B = (D_22 - t_kk I) + N_22, where the diagonal matrix has least
    singular value g, and Weyl's inequality for singular values gives
    |sigma_min(B) - g| <= ||N_22||_2 <= ||N||_F.  Under the rule ||N||_F <=
    NORMAL_DEPARTURE_C * n * u * ||A||_F that is no more than the error
    bound of the SVD itself, p(n) * u * ||B||_2 with p a modest function of
    n (LAPACK Users' Guide, section 4.9).  The computed reordering adds
    rounding of the same order to N_22; on normal matrices at n <= 120 the
    gap and zgesdd's sigma_min differed by at most 1.2 * n * u * ||A||_F.
    The differences t_jj - t_kk are exact up to one rounding, and np.hypot
    rounds their moduli correctly to within an ulp (np.abs on a complex
    array does not).
    """
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
    if form.normal:
        gaps = np.delete(form.t.diagonal(), k) - lam
        smin = float(np.hypot(gaps.real, gaps.imag).min())
    else:
        smin = _least_singular_value(b)
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
    within the form's residual_tol of it (else UsageError).  With simple
    the entry must also lie farther than its cluster_tol from the rest of
    the diagonal (else ClusteredSpectrumError), and the left eigenvector is
    verified along with the right one.  Returns the pair for the
    prescaled matrix A * 2^s, and s.
    """
    ms, s = prescale(as_matrix(a, square=True))
    form = schur(ms)
    diag = form.eigenvalues
    lam = complex(lam)
    dist = np.abs(diag - complex(pow2_scale(lam, s)))
    k = int(np.argmin(dist))
    tol = form.residual_tol
    if simple and diag.size > 1:
        gap = float(np.min(np.abs(np.delete(diag, k) - diag[k])))
        if gap <= form.cluster_tol:
            raise ClusteredSpectrumError(
                f"eigenvalue {lam!r} is not simple: nearest other eigenvalue at distance "
                f"{pow2_scale(gap, -s):.3e} (threshold {pow2_scale(form.cluster_tol, -s):.3e})",
                cluster=(lam,))
    if dist[k] > tol:
        raise UsageError(f"{lam!r} is not an eigenvalue within tolerance (nearest "
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
    Raises UsageError when lam is not an eigenvalue to tolerance and
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
    """Read the matrix text format written by write_matrix.  An unreadable
    or non-ASCII file raises UsageError `cannot read matrix file PATH: ...`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            stripped = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read matrix file {path}: {exc}") from exc
    lines = [ln for ln in stripped if ln]
    if not lines:
        raise UsageError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise UsageError(f"{path}: header must be the matrix dimension") from exc
    if n < 1:
        raise UsageError(f"{path}: dimension must be positive, got {n}")
    if len(lines) - 1 != n * n:
        raise UsageError(f"{path}: expected {n * n} entry lines, found {len(lines) - 1}")
    out = np.empty(n * n, dtype=np.complex128)
    try:
        for k, ln in enumerate(lines[1:]):
            re, im = ln.split()
            out[k] = complex(float(re), float(im))
    except ValueError as exc:
        lineno = [i for i, ln in enumerate(stripped, 1) if ln][k + 1]  # blanks count
        raise UsageError(f"{path}: line {lineno}: expected 're im'") from exc
    return as_matrix(out.reshape(n, n), square=True)
