"""The floor under every matrix: kappa_max(A) >= S_p(spec A), with equality for
normal A, and the diagonal report as the matrix-free twin of the gap path.

kappa_x(lam_k) = 1/sigma_min(T22 - lam_k I), and sigma_min of a matrix is at
most the modulus of each of its eigenvalues, so kappa_x(lam_k) >= 1/min_{j !=
k} |lam_j - lam_k|.  With ||A||_F >= ||lam||_2 (Schur) and ||A||_2 >=
max |lam|, kappa_max_frob >= S_2(spec) and kappa_max_op >= S_inf(spec).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_unitary
from eigencond.conditioning import condition_report, condition_report_diagonal
from eigencond.errors import ClusteredSpectrumError
from eigencond.extremal import separation_functional
from eigencond.lattice import Configuration, first_n_lattice_points
from eigencond.linalg import pow2_scale

SLACK = 1e-8  # the relative slack of acceptance criterion 5
EPS = float(np.finfo(float).eps)


def floor_matrix(family, n, rng):
    """Ginibre, normal with a Gaussian spectrum, rotated Grcar, or upper
    triangular with its strictly upper part scaled by 1, 1e-4 or 1e-8."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if family == "ginibre":
        return g / math.sqrt(2.0 * n)
    if family == "uppertri":
        return np.diag(np.diag(g)) + float(rng.choice([1.0, 1e-4, 1e-8])) * np.triu(g, 1)
    q = random_unitary(rng, n)
    if family == "normal":
        return (q * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ q.conj().T
    grcar = np.eye(n) - np.eye(n, k=-1) + sum(np.eye(n, k=j) for j in (1, 2, 3))
    return q.conj().T @ grcar @ q


@given(st.sampled_from(["ginibre", "normal", "grcar", "uppertri"]),
       st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2 ** 20),
       st.integers(min_value=-1000, max_value=1000))
def test_kappa_max_is_at_least_the_separation_functional(family, n, seed, k):
    a = pow2_scale(floor_matrix(family, n, np.random.default_rng(seed)), k)
    try:
        report = condition_report(a)
    except ClusteredSpectrumError:
        return
    spectrum = Configuration([row.eigenvalue for row in report.per_eigenpair])
    s2, sinf = separation_functional(spectrum, 2.0), separation_functional(spectrum, math.inf)
    assert report.kappa_max_frob >= s2 * (1.0 - SLACK)
    assert report.kappa_max_op >= sinf * (1.0 - SLACK)
    if family == "normal":
        assert report.kappa_max_frob == pytest.approx(s2, rel=SLACK)
        assert report.kappa_max_op == pytest.approx(sinf, rel=SLACK)


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2 ** 20),
       st.integers(min_value=-1000, max_value=1000))
def test_dense_diagonal_matches_the_diagonal_report(n, seed, k):
    # Diag(z) as a dense matrix takes the gap path; the diagonal report reads
    # the same gaps off the points, through np.abs rather than np.hypot
    rng = np.random.default_rng(seed)
    z = pow2_scale(rng.standard_normal(n) + 1j * rng.standard_normal(n), k)
    dense = condition_report(np.diag(z))
    diag = condition_report_diagonal(Configuration(z))
    for rd, rz in zip(dense.per_eigenpair, diag.per_eigenpair):
        assert rd.eigenvalue == rz.eigenvalue
        assert rd.kappa_x == pytest.approx(rz.kappa_x, rel=4.0 * EPS, abs=0.0)
    assert dense.kappa_max_frob == pytest.approx(diag.kappa_max_frob, rel=8.0 * EPS)
    assert dense.kappa_max_op == pytest.approx(diag.kappa_max_op, rel=8.0 * EPS)


@pytest.mark.parametrize("n", [39, 42, 61, 300])
def test_diagonal_report_respects_the_analytic_separation(n):
    # the lattice prefix passes its separation, 1.0, in analytically; the
    # float embedding rounds some nearest distances to 1 - 2^-53, so kappa_x
    # stays at most 1/min_separation only because of the floor
    c = first_n_lattice_points(n)
    assert c.min_separation == 1.0
    assert np.any(c.nearest_neighbor_distances() < 1.0)
    report = condition_report_diagonal(c)
    assert all(row.kappa_x <= 1.0 / c.min_separation for row in report.per_eigenpair)
