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
