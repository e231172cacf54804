"""sigma_min from the spectral gap on normal Schur forms, the SVDs of the
others on worker threads, and a 40-digit reference for both."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg

import eigencond.conditioning
import eigencond.linalg
from conftest import random_unitary
from reference import condition_numbers
from eigencond.conditioning import condition_report, kappa_x
from eigencond.errors import NumericalError
from eigencond.lattice import first_n_lattice_points
from eigencond.linalg import SchurForm, _least_singular_value, schur, schur_eigenpair

U = 2.0 ** -53  # unit roundoff
# linalg.NORMAL_DEPARTURE_C as measured, typed again: the forms below sit at
# fixed multiples of it, so a changed constant moves them across the rule
C = 8.0


def dense_matrix(family, n, seed):
    """Ginibre, normal Q diag(z) Q^H with a scaled lattice spectrum (the
    benchmark's normal family), a unitarily rotated Grcar matrix, or a
    random upper-triangular matrix."""
    rng = np.random.default_rng(seed)
    if family == "ginibre":
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
    if family == "uppertri":
        return np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = random_unitary(rng, n)
    if family == "normal":
        return (q * (1.3 * np.exp(0.4j) * first_n_lattice_points(n).points)) @ q.conj().T
    grcar = np.eye(n) - np.eye(n, k=-1) + sum(np.eye(n, k=j) for j in (1, 2, 3))
    return q.conj().T @ grcar @ q


@pytest.fixture()
def svd_calls(monkeypatch):
    """The number of SVDs the engine has run since the test began."""
    calls = []
    engine = eigencond.linalg._least_singular_value

    def counted(b):
        calls.append(b.shape[0])
        return engine(b)

    monkeypatch.setattr(eigencond.linalg, "_least_singular_value", counted)
    return calls


def form_with_departure(n, units, seed=0):
    """SchurForm(I, D + N) whose departure ||N||_F is exactly units * C * n *
    u * ||T||_F up to one rounding, for a spectrum with gaps near 1."""
    rng = np.random.default_rng(seed)
    d = first_n_lattice_points(n).points * np.exp(0.3j)
    nil = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    # ||T||_F^2 = ||D||_F^2 + ||N||_F^2, solved for the wanted ratio
    ratio = units * C * n * U
    target = ratio * np.linalg.norm(d) / math.sqrt(1.0 - ratio ** 2)
    t = np.diag(d) + nil * (target / np.linalg.norm(nil))
    return SchurForm(q=np.eye(n, dtype=complex), t=t,
                     departure=float(np.linalg.norm(np.triu(t, 1))),
                     norm=float(np.linalg.norm(t)))


def gap(values, k):
    d = np.delete(values, k) - values[k]
    return float(np.hypot(d.real, d.imag).min())


class TestTheRule:
    def test_schur_records_departure_and_norm(self):
        a = dense_matrix("ginibre", 12, seed=3)
        form = schur(a)
        assert form.departure == float(np.linalg.norm(np.triu(form.t, 1)))
        assert form.norm == float(np.linalg.norm(a))
        assert not form.normal

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_ten_times_above_c_runs_the_svd(self, svd_calls, n):
        form = form_with_departure(n, 10.0)
        assert form.departure == pytest.approx(10.0 * C * n * U * form.norm,
                                               rel=1e-6)
        assert not form.normal
        for k in range(n):
            schur_eigenpair(form, k)
        assert svd_calls == [n - 1] * n

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_ten_times_below_c_takes_the_gap(self, svd_calls, n):
        form = form_with_departure(n, 0.1)
        assert form.departure == pytest.approx(0.1 * C * n * U * form.norm,
                                               rel=1e-6)
        assert form.normal
        for k in range(n):
            assert schur_eigenpair(form, k).sigma_min == gap(form.eigenvalues, k)
        assert svd_calls == []

    @pytest.mark.parametrize("n", [40, 80, 120])
    def test_normal_matrices_take_the_gap(self, svd_calls, n):
        # their departures measure 0.3-0.7 in units of n u ||A||_F, between
        # C / 100 and C / 10
        report = condition_report(dense_matrix("normal", n, seed=n))
        assert svd_calls == []
        values = np.array([row.eigenvalue for row in report.per_eigenpair])
        for k, row in enumerate(report.per_eigenpair):
            assert row.kappa_x == pytest.approx(1.0 / gap(values, k), rel=1e-13)

    @pytest.mark.parametrize("family", ["ginibre", "grcar"])
    def test_non_normal_matrices_run_one_svd_per_eigenpair(self, svd_calls, family):
        condition_report(dense_matrix(family, 30, seed=1))
        assert svd_calls == [29] * 30

    def test_the_gap_is_certified_within_the_departure(self):
        # Weyl: |sigma_min(B) - gap| <= ||N||_F, plus the SVD's own rounding,
        # which the rule allows for, on both sides of the rule
        for units in (0.1, 10.0, 1e6):
            form = form_with_departure(12, units, seed=4)
            rounding = C * 12 * U * form.norm
            for k in range(12):
                t, _, _ = scipy.linalg.lapack.ztrexc(form.t, form.q, k + 1, 1)
                b = np.triu(t[1:, 1:]) - t[0, 0] * np.eye(11)
                sigma = _least_singular_value(b)
                assert abs(sigma - gap(form.eigenvalues, k)) <= form.departure + rounding

    @pytest.mark.parametrize("family", ["normal", "ginibre"])
    def test_kappa_x_equals_the_report_row(self, family):
        a = dense_matrix(family, 16, seed=2)
        for row in condition_report(a).per_eigenpair:
            assert kappa_x(a, row.eigenvalue) == row.kappa_x

    @pytest.mark.parametrize("diagonal", [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    def test_repeated_eigenvalue_of_a_normal_matrix_is_infinite(self, diagonal):
        a = np.diag(diagonal).astype(complex)
        assert schur(a).normal
        assert kappa_x(a, 1.0) == math.inf


class TestThreads:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_does_not_change_the_bits(self, monkeypatch, workers):
        # 8 workers on fewer CPUs, switching threads every microsecond: a
        # lost or doubled eigenpair index would change the report
        a = dense_matrix("ginibre", 60, seed=8)
        assert not schur(a).normal
        assert 60 >= eigencond.conditioning._PARALLEL_MIN_N
        reports = []
        interval = sys.getswitchinterval()
        try:
            for count in (1, workers):
                monkeypatch.setattr(eigencond.conditioning, "_WORKERS", count)
                sys.setswitchinterval(1e-6)
                reports.append(condition_report(a))
        finally:
            sys.setswitchinterval(interval)
        one, many = reports
        assert (one.kappa_max_frob, one.kappa_max_op) == (many.kappa_max_frob, many.kappa_max_op)
        for r1, r2 in zip(one.per_eigenpair, many.per_eigenpair, strict=True):
            assert (r1.eigenvalue, r1.kappa_lambda, r1.kappa_x, r1.residuals) == \
                (r2.eigenvalue, r2.kappa_lambda, r2.kappa_x, r2.residuals)
            assert np.array_equal(r1.x, r2.x) and np.array_equal(r1.y, r2.y)

    def test_the_svd_is_scipys_svdvals(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 59, 119):
            b = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            assert _least_singular_value(b) == scipy.linalg.svdvals(b)[-1]

    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        def failing(form, k):
            raise NumericalError(f"eigenpair {k}")

        monkeypatch.setattr(eigencond.conditioning, "_WORKERS", 2)
        monkeypatch.setattr(eigencond.conditioning, "schur_eigenpair", failing)
        with pytest.raises(NumericalError, match="eigenpair"):
            condition_report(dense_matrix("grcar", 60, seed=1))


# Relative error against the 40-digit reference, measured at n = 3, 4, 6 and
# 8 over seeds 100-149 of the four families: at most 8.8e-15 for
# kappa_lambda and 2.4e-14 for kappa_x (upper triangular).
REFERENCE_RTOL = 1e-13


class TestAgainstTheReference:
    @pytest.mark.parametrize("family, n, seed", [
        ("normal", 6, 1), ("normal", 8, 2),      # the gap
        ("ginibre", 6, 3), ("ginibre", 8, 4),    # the SVD
        ("grcar", 8, 5), ("uppertri", 6, 6),
    ])
    def test_kappa_lambda_and_kappa_x(self, family, n, seed):
        a = dense_matrix(family, n, seed)
        assert schur(a).normal == (family == "normal")
        lams, kl, kx = condition_numbers(a)
        report = condition_report(a)
        for row in report.per_eigenpair:
            j = int(np.argmin(np.abs(lams - row.eigenvalue)))
            assert row.kappa_lambda == pytest.approx(kl[j], rel=REFERENCE_RTOL)
            assert row.kappa_x == pytest.approx(kx[j], rel=REFERENCE_RTOL)
