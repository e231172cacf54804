"""High-precision references from mpmath, independent of LAPACK and of the
package's float arithmetic.  mpmath is a test dependency (pyproject.toml)."""

import mpmath
import numpy as np

DIGITS = 40


def eigenvalues(*terms):
    """Eigenvalues, at DIGITS digits, of the exact sum of the float matrices
    terms (mpmath's mpc values, in mpmath's order)."""
    with mpmath.workdps(DIGITS):
        total = mpmath.matrix(np.asarray(terms[0]).tolist())
        for m in terms[1:]:
            total += mpmath.matrix(np.asarray(m).tolist())
        return mpmath.eig(total, left=False, right=False)


def eigenvalue_shifts(before, after, lams):
    """after_j - before_i for each lam_k, rounded to complex: before_i is the
    reference eigenvalue nearest to lam_k and after_j the one nearest to
    before_i.  The difference is taken at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        shifts = []
        for lam in lams:
            b = min(before, key=lambda z: abs(z - complex(lam)))
            a = min(after, key=lambda z: abs(z - b))
            shifts.append(complex(a - b))
    return np.array(shifts)


def condition_numbers(a, overlap_tol=1e-14):
    """(eigenvalues, kappa_lambda, kappa_x) of the float matrix a, each
    rounded to complex or float, at DIGITS digits.

    mpmath's eig gives the right and left eigenvectors x and y.  kappa_lambda
    = ||x|| ||y|| / |y^H x|, +inf when |y^H x| of the unit vectors is below
    overlap_tol (the package's OVERLAP_TOL rule), and kappa_x = 1 /
    sigma_min(Q^H (A - lam I) Q) with Q the last n - 1 columns of a full QR
    factor of x, the singular values from mpmath's svd_c.
    """
    with mpmath.workdps(DIGITS):
        m = mpmath.matrix(np.asarray(a, dtype=complex).tolist())
        n = m.rows
        lams, left, right = mpmath.eig(m, left=True, right=True)
        kl, kx = [], []
        for k, lam in enumerate(lams):
            x = right[:, k]
            x /= mpmath.norm(x)
            w = left[k, :]  # w A = lam w, so y = w^H
            w /= mpmath.norm(w)
            overlap = abs(sum(w[j] * x[j] for j in range(n)))
            kl.append(float("inf") if overlap < overlap_tol else float(1 / overlap))
            q = mpmath.qr(x, mode="full")[0]
            perp = q[:, 1:]
            block = perp.transpose_conj() * (m - lam * mpmath.eye(n)) * perp
            sigma = mpmath.svd_c(block, compute_uv=False)
            kx.append(float(1 / min(sigma[j] for j in range(n - 1))))
        return np.array([complex(v) for v in lams]), np.array(kl), np.array(kx)
