"""Condition numbers: closed-form examples, dual-route consistency, perturbation law."""

import math

import numpy as np
import pytest

from conftest import random_distinct_points, random_unitary
from eigencond.conditioning import (condition_report, condition_report_diagonal,
                                    kappa_lambda, kappa_x,
                                    perturbation_experiment)
from eigencond.errors import ClusteredSpectrumError, DuplicatePointsError
from eigencond.lattice import Configuration, first_n_lattice_points


def report_fields(report):
    return ([(r.eigenvalue, r.kappa_lambda, r.kappa_x) for r in report.per_eigenpair],
            report.kappa_max_frob, report.kappa_max_op, report.norm_frob, report.norm_op)


def assert_reports_close(a, b, rel=1e-8):
    assert len(a.per_eigenpair) == len(b.per_eigenpair)
    for ra, rb in zip(a.per_eigenpair, b.per_eigenpair):
        assert abs(ra.eigenvalue - rb.eigenvalue) <= rel * max(1.0, abs(ra.eigenvalue))
        assert ra.kappa_lambda == pytest.approx(rb.kappa_lambda, rel=rel)
        assert ra.kappa_x == pytest.approx(rb.kappa_x, rel=rel)
    assert a.kappa_max_frob == pytest.approx(b.kappa_max_frob, rel=rel)
    assert a.kappa_max_op == pytest.approx(b.kappa_max_op, rel=rel)
    assert a.norm_frob == pytest.approx(b.norm_frob, rel=rel)
    assert a.norm_op == pytest.approx(b.norm_op, rel=rel)


class TestKappaLambda:
    def test_diagonal_eigenvalues_are_perfectly_conditioned(self):
        rng = np.random.default_rng(1)
        z = random_distinct_points(rng, 6, min_gap=0.3)
        a = np.diag(z)
        for lam in z:
            assert kappa_lambda(a, lam) == pytest.approx(1.0, abs=1e-12)

    def test_shear_block(self):
        a = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert kappa_lambda(a, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_near_defective_closed_form(self):
        delta = 1e-3
        a = np.array([[0.0, 1.0], [0.0, delta]], dtype=complex)
        expected = math.sqrt(1.0 + delta * delta) / delta
        assert kappa_lambda(a, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_at_least_one(self):
        rng = np.random.default_rng(2)
        g = (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
        for lam in np.linalg.eigvals(g):
            assert kappa_lambda(g, lam) >= 1.0

    def test_identity_is_ill_posed(self):
        with pytest.raises(ClusteredSpectrumError):
            kappa_lambda(np.eye(2, dtype=complex), 1.0)


class TestKappaX:
    def test_one_by_one_block(self):
        a = np.array([[0.0, 5.0], [0.0, 2.0]], dtype=complex)
        assert kappa_x(a, 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_diagonal_reciprocal_gap(self):
        a = np.diag([0.0, 1.0, 3.0]).astype(complex)
        assert kappa_x(a, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_identity_is_infinite(self):
        assert math.isinf(kappa_x(np.eye(2, dtype=complex), 1.0))

    def test_rejects_1x1(self):
        with pytest.raises(ValueError):
            kappa_x(np.array([[2.0]], dtype=complex), 2.0)


class TestConditionReport:
    def test_diag_0_1(self):
        report = condition_report(np.diag([0.0, 1.0]).astype(complex))
        assert report.kappa_max_frob == pytest.approx(1.0, rel=1e-12)
        assert report.kappa_max_op == pytest.approx(1.0, rel=1e-12)

    def test_diag_0_1_2(self):
        report = condition_report(np.diag([0.0, 1.0, 2.0]).astype(complex))
        assert report.kappa_max_frob == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert report.kappa_max_op == pytest.approx(2.0, rel=1e-12)

    def test_eigenvalues_ordered_by_modulus_then_angle(self):
        report = condition_report(np.diag([2.0, -1.0, 1.0, 0.5j]).astype(complex))
        eigs = [r.eigenvalue for r in report.per_eigenpair]
        keys = [(abs(z), math.atan2(z.imag, z.real) % (2.0 * math.pi)) for z in eigs]
        assert keys == sorted(keys)

    def test_unitary_conjugation_invariance(self):
        # 100 seeded (A, U) pairs; A built with separated eigenvalues so the
        # deterministic row ordering matches across the conjugation
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            z = random_distinct_points(rng, n, min_gap=0.4)
            if np.min(np.diff(np.sort(np.abs(z)))) < 1e-3:
                continue  # modulus near-tie would make row order fragile
            a = np.diag(z) + 0.1 * (rng.standard_normal((n, n))
                                    + 1j * rng.standard_normal((n, n)))
            u = random_unitary(rng, n)
            assert_reports_close(condition_report(u.conj().T @ a @ u),
                                 condition_report(a))

    def test_kappa_lambda_is_one_for_normal_matrices(self):
        rng = np.random.default_rng(77)
        samples = []
        for n in (4, 6):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            samples.append(g + g.conj().T)      # Hermitian
            samples.append(random_unitary(rng, n))
        for a in samples:
            report = condition_report(a)
            for row in report.per_eigenpair:
                assert abs(row.kappa_lambda - 1.0) <= 1e-10

    def test_clustered_spectrum_is_rejected(self):
        with pytest.raises(ClusteredSpectrumError):
            condition_report(np.eye(3, dtype=complex))

    def test_clustered_pairs_are_listed_in_spectrum_order(self):
        with pytest.raises(ClusteredSpectrumError) as info:
            condition_report(np.diag([3.0, 0.0, 3.0, 0.0, 1.0]).astype(complex))
        assert info.value.cluster == (0j, 0j, 3 + 0j, 3 + 0j)
        assert str(info.value).endswith("[(0j, 0j), ((3+0j), (3+0j))]")

    def test_zeroing_offdiagonal_never_helps_the_full_matrix(self):
        # an upper-triangular matrix cannot beat its own diagonal: dropping
        # the strictly upper part shrinks the norm and every deflated block
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = random_distinct_points(rng, 5, min_gap=0.4)
            a = np.diag(z) + np.triu(rng.standard_normal((5, 5))
                                     + 1j * rng.standard_normal((5, 5)), 1)
            full = condition_report(a)
            diag = condition_report(np.diag(z))
            assert diag.kappa_max_frob <= full.kappa_max_frob * (1.0 + 1e-10)
            assert diag.kappa_max_op <= full.kappa_max_op * (1.0 + 1e-10)


class TestDiagonalFastPath:
    def test_two_points(self):
        report = condition_report_diagonal(Configuration([0.0, 1.0]))
        assert report.kappa_max_frob == pytest.approx(1.0, rel=1e-15)
        assert report.kappa_max_op == pytest.approx(1.0, rel=1e-15)

    def test_seven_lattice_points(self):
        report = condition_report_diagonal(first_n_lattice_points(7))
        assert report.kappa_max_frob == pytest.approx(math.sqrt(6.0), rel=1e-12)
        assert report.kappa_max_op == pytest.approx(1.0, rel=1e-15)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePointsError):
            condition_report_diagonal(Configuration([1.0, 1.0, 2.0]))

    def test_kappa_lambda_is_one_everywhere(self):
        report = condition_report_diagonal(first_n_lattice_points(10))
        assert all(r.kappa_lambda == 1.0 for r in report.per_eigenpair)
        assert all(r.x is None and r.y is None for r in report.per_eigenpair)

    @pytest.mark.parametrize("seed,n", [(0, 5), (1, 12), (2, 30)])
    def test_matches_full_schur_route(self, seed, n):
        rng = np.random.default_rng(seed)
        z = random_distinct_points(rng, n, min_gap=0.2)
        fast = condition_report_diagonal(Configuration(z))
        slow = condition_report(np.diag(z))
        assert_reports_close(fast, slow)
        for report in (fast, slow):
            assert report.kappa_max_op <= report.kappa_max_frob * (1.0 + 1e-12)


class TestPerturbationExperiment:
    def test_diagonal_first_order_law(self):
        a = np.diag([0.0, 1.0, 2.0]).astype(complex)
        result = perturbation_experiment(a, 1e-6, trials=100, norm_kind="frob", seed=0)
        assert result.excluded_trials == 0
        for row in result.rows:
            assert row.shift_ratio <= row.kappa_lambda * (1.0 + 1e-4)
            assert row.angle_ratio <= row.kappa_x * (1.0 + 1e-3)

    def test_operator_norm_variant(self):
        a = np.diag([0.0, 1.0, 2.0]).astype(complex)
        result = perturbation_experiment(a, 1e-6, trials=20, norm_kind="op", seed=1)
        assert result.excluded_trials == 0
        for row in result.rows:
            assert row.shift_ratio <= 1.0 + 1e-4

    def test_identity_is_rejected(self):
        with pytest.raises(ClusteredSpectrumError):
            perturbation_experiment(np.eye(2, dtype=complex), 1e-8)

    def test_too_large_epsilon_is_rejected(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            perturbation_experiment(a, 0.5)

    def test_deterministic_given_seed(self):
        a = np.diag([0.0, 1.0, 3.0]).astype(complex)
        r1 = perturbation_experiment(a, 1e-6, trials=10, seed=5)
        r2 = perturbation_experiment(a, 1e-6, trials=10, seed=5)
        assert r1.rows == r2.rows

    def test_bad_arguments(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            perturbation_experiment(a, -1e-6)
        with pytest.raises(ValueError):
            perturbation_experiment(a, 1e-6, trials=0)
        with pytest.raises(ValueError):
            perturbation_experiment(a, 1e-6, norm_kind="nuclear")
