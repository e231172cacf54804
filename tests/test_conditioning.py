"""Condition numbers: closed-form examples, dual-route consistency, perturbation law."""

import math

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

import eigencond.conditioning
import eigencond.lattice
from conftest import (random_distinct_points, random_unitary,
                      reference_match_eigenvalues, svd_condition_report)
from reference import eigenvalue_shifts, eigenvalues
from eigencond.conditioning import (condition_report, condition_report_diagonal,
                                    kappa_lambda, kappa_x,
                                    perturbation_experiment)
from eigencond.cli import main
from eigencond.errors import ClusteredSpectrumError, DuplicatePointsError, NumericalError
from eigencond.extremal import separation_functional
from eigencond.lattice import Configuration, first_n_lattice_points, pairwise_min_separation
from eigencond.linalg import (locate_eigenpair, pow2_scale, prescale, right_eigenvector,
                              right_left_eigenpair, write_matrix)

EPS = float(np.finfo(float).eps)
U = EPS / 2.0  # unit roundoff


def dense_matrix(family, n, seed):
    """Ginibre, normal Q diag(z) Q^H with a lattice spectrum, or a unitarily
    rotated Grcar matrix (-1 subdiagonal, ones on the diagonal and three
    superdiagonals)."""
    rng = np.random.default_rng(seed)
    if family == "ginibre":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return g / math.sqrt(2.0 * n)
    q = random_unitary(rng, n)
    if family == "normal":
        z = 1.3 * np.exp(0.4j) * first_n_lattice_points(n).points
        return (q * z) @ q.conj().T
    grcar = np.eye(n) - np.eye(n, k=-1) + sum(np.eye(n, k=j) for j in (1, 2, 3))
    return q.conj().T @ grcar @ q


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

    def test_left_solve_beyond_the_float_range(self):
        # w = (-1e160, 5e319): the solve scales its right-hand side down
        # by a power of two instead of overflowing.  The spectrum is
        # clustered, so the engine is asked without the simplicity check
        a = np.array([[0.0, 1.0, 0.0], [0.0, 1e-160, 1.0], [0.0, 0.0, 2e-160]],
                     dtype=complex)
        pair, _ = locate_eigenpair(a, 0.0)
        assert pair.inv_overlap == math.inf
        assert eigencond.conditioning._overlap_kappa(pair.inv_overlap) == math.inf
        assert np.allclose(pair.y, [0.0, 0.0, 1.0], rtol=0, atol=1e-15)

    def test_at_least_one(self):
        rng = np.random.default_rng(2)
        g = (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
        for lam in np.linalg.eigvals(g):
            assert kappa_lambda(g, lam) >= 1.0

    def test_one_by_one(self):
        assert kappa_lambda(np.array([[2.0 - 1.0j]]), 2.0 - 1.0j) == 1.0

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

    def test_subnormal_gap_is_infinite(self):
        # 1/1e-310 overflows; the left solve fails too, which kappa_x ignores
        a = np.diag([0.0, 1e-310, 1.0]).astype(complex)
        assert kappa_x(a, 0.0) == math.inf
        assert kappa_x(a, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_beyond_the_float_range(self):
        # a gap of 2^-1030 puts kappa_x = 2^1030 past the largest float, while
        # the scale-invariant aggregate stays exact
        a = np.diag([0.0, 2.0 ** -1030]).astype(complex)
        assert kappa_x(a, 0.0) == math.inf
        report = condition_report(a)
        assert report.kappa_max_frob == 1.0 and report.kappa_max_op == 1.0
        assert report.norm_frob == 2.0 ** -1030

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

    @pytest.mark.parametrize("gap, clustered", [(0.9e-8, True), (1.1e-8, False)])
    def test_cluster_threshold_is_eig_gap_tol(self, gap, clustered):
        # a pair 10% inside EIG_GAP_TOL * ||A||_F is clustered, 10% outside is not
        a = np.diag([1.0, 1.0, 3.0]).astype(complex)
        a[1, 1] += gap * np.linalg.norm(a)
        if clustered:
            with pytest.raises(ClusteredSpectrumError):
                condition_report(a)
        else:
            assert len(condition_report(a).per_eigenpair) == 3

    def test_clustered_pairs_are_listed_in_spectrum_order(self):
        with pytest.raises(ClusteredSpectrumError) as info:
            condition_report(np.diag([3.0, 0.0, 3.0, 0.0, 1.0]).astype(complex))
        assert info.value.cluster == (0j, 0j, 3 + 0j, 3 + 0j)
        assert str(info.value).endswith("[(0j, 0j), ((3+0j), (3+0j))]")

    @pytest.mark.parametrize("copies, pairs", [(5, 10), (6, 15)])
    def test_clustered_listing_is_bounded(self, copies, pairs):
        # equal eigenvalues 0 and distinct ones 1, 2: at most ten pairs are
        # listed, and the total count is added only when some are left out
        a = np.diag([0.0] * copies + [1.0, 2.0]).astype(complex)
        with pytest.raises(ClusteredSpectrumError) as info:
            condition_report(a)
        listed = min(pairs, 10)
        assert info.value.cluster == (0j,) * (2 * listed)
        tail = "" if pairs <= 10 else f", {pairs} pairs in all"
        assert str(info.value).endswith("[" + ", ".join(["(0j, 0j)"] * listed) + "]" + tail)

    def test_failed_residual_check_raises(self, monkeypatch, capsys, tmp_path):
        # an eigenvector that is not one fails verification: the report
        # raises NumericalError rather than returning, and cond exits 2
        engine = eigencond.conditioning.schur_eigenpair

        def corrupted(form, k):
            pair = engine(form, k)
            return pair._replace(x=np.roll(pair.x, 1))

        monkeypatch.setattr(eigencond.conditioning, "schur_eigenpair", corrupted)
        a = dense_matrix("ginibre", 6, 2)
        with pytest.raises(NumericalError, match="right eigenvector residual"):
            condition_report(a)
        path = tmp_path / "a.mat"
        write_matrix(path, a)
        assert main(["cond", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: right eigenvector residual")

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

    @pytest.mark.parametrize("family", ["ginibre", "normal", "grcar"])
    def test_min_gap_is_the_spectrum_separation(self, family):
        a = dense_matrix(family, 12, seed=5)
        report = condition_report(a)
        lams = [row.eigenvalue for row in report.per_eigenpair]
        assert report.min_gap == pairwise_min_separation(lams)
        for k in (-600, 3, 600):
            assert condition_report(a * 2.0 ** k).min_gap == math.ldexp(report.min_gap, k)


class TestSchurEngine:
    @pytest.mark.parametrize("family", ["ginibre", "normal", "grcar"])
    @pytest.mark.parametrize("n", [3, 17, 60])
    def test_matches_svd_oracle(self, family, n):
        a = dense_matrix(family, n, seed=n)
        report = condition_report(a)
        lams, kl, kx, kmax_frob, kmax_op = svd_condition_report(a)
        nf = float(np.linalg.norm(a))
        eigs = np.array([row.eigenvalue for row in report.per_eigenpair])
        match = [int(np.argmin(np.abs(lams - z))) for z in eigs]
        assert sorted(match) == list(range(n))
        for row, j in zip(report.per_eigenpair, match):
            for got, want in ((row.kappa_lambda, kl[j]), (row.kappa_x, kx[j])):
                tol = 1e-10 + 8.0 * EPS * nf * want
                assert abs(got - want) <= tol * max(got, want), (row.eigenvalue, got, want)
        tol = 1e-10 + 8.0 * EPS * nf * kx.max()
        assert report.kappa_max_frob == pytest.approx(kmax_frob, rel=tol)
        assert report.kappa_max_op == pytest.approx(kmax_op, rel=tol)
        assert report.norm_frob == pytest.approx(nf, rel=1e-14)

    @pytest.mark.parametrize("family", ["ginibre", "grcar"])
    def test_wrappers_agree_with_report_row_by_row(self, family):
        a = dense_matrix(family, 12, seed=5)
        report = condition_report(a)
        for row in report.per_eigenpair:
            lam = row.eigenvalue
            assert kappa_lambda(a, lam) == row.kappa_lambda
            assert kappa_x(a, lam) == row.kappa_x
            x, y = right_left_eigenpair(a, lam)
            assert np.array_equal(x, row.x) and np.array_equal(y, row.y)
            assert np.array_equal(right_eigenvector(a, lam), row.x)

    def test_two_blas_threads_give_the_one_thread_bits(self, blas_threads):
        a = dense_matrix("ginibre", 120, seed=5)
        blas_threads.set(1)
        one = condition_report(a)
        blas_threads.set(2)
        two = condition_report(a)
        assert report_fields(two) == report_fields(one)
        for row in two.per_eigenpair[::30]:
            assert kappa_lambda(a, row.eigenvalue) == row.kappa_lambda
            assert kappa_x(a, row.eigenvalue) == row.kappa_x

    def test_residuals_are_reported_in_the_units_of_a(self):
        a = dense_matrix("ginibre", 10, seed=3)
        for scale in (1.0, 2.0 ** -600):
            report = condition_report(a * scale)
            nf = report.norm_frob
            for row in report.per_eigenpair:
                lam = row.eigenvalue
                res_r = np.linalg.norm((a * scale) @ row.x - lam * row.x)
                assert row.residuals[0] == pytest.approx(res_r, rel=1e-6, abs=1e-15 * nf)
                assert max(row.residuals) <= 1e-8 * nf

    @pytest.mark.parametrize("scale", [2.0 ** 530, 1e160, 2.0 ** -530, 2.0 ** -1000, 1e-300])
    def test_far_from_unit_scale(self, scale):
        a = dense_matrix("ginibre", 8, seed=11)
        base = condition_report(a)
        scaled = condition_report(a * scale)
        assert scaled.kappa_max_frob == pytest.approx(base.kappa_max_frob, rel=1e-12)
        assert scaled.kappa_max_op == pytest.approx(base.kappa_max_op, rel=1e-12)
        for r0, r1 in zip(base.per_eigenpair, scaled.per_eigenpair):
            assert r1.kappa_lambda == pytest.approx(r0.kappa_lambda, rel=1e-12)
            assert r1.kappa_x * scale == pytest.approx(r0.kappa_x, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=8),
           st.integers(min_value=-1000, max_value=1000))
    def test_power_of_two_scaling_is_exact(self, seed, n, k):
        # entries have |re| and |im| in [2^-20, 2^20], so every 2^k multiple
        # stays a normal float
        rng = np.random.default_rng(seed)
        c = int(rng.integers(-18, 17))
        parts = [rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(1.0, 2.0, (n, n))
                 * np.exp2(c + rng.integers(-2, 3, (n, n))) for _ in range(2)]
        a = parts[0] + 1j * parts[1]
        b = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
        try:
            base = condition_report(a)
        except ClusteredSpectrumError:
            with pytest.raises(ClusteredSpectrumError):
                condition_report(b)
            return
        scaled = condition_report(b)
        assert scaled.kappa_max_frob == base.kappa_max_frob
        assert scaled.kappa_max_op == base.kappa_max_op
        for r0, r1 in zip(base.per_eigenpair, scaled.per_eigenpair):
            assert r1.kappa_lambda == r0.kappa_lambda
            assert r1.kappa_x == math.ldexp(r0.kappa_x, -k)
            assert np.array_equal(r1.x, r0.x) and np.array_equal(r1.y, r0.y)


# eigenvalues 1, ..., 5, one of them _LAM5
_A5 = np.diag(np.arange(1.0, 6.0)) + np.triu(np.full((5, 5), 0.5 + 0.5j), 1)
_LAM5 = 3.0


class TestBlasPin:
    @pytest.mark.parametrize("call, error", [
        (lambda: condition_report(_A5), None),
        (lambda: kappa_lambda(_A5, _LAM5), None),
        (lambda: kappa_x(_A5, _LAM5), None),
        (lambda: right_left_eigenpair(_A5, _LAM5), None),
        (lambda: perturbation_experiment(_A5, 1e-8, trials=2), None),
        (lambda: condition_report(np.eye(3, dtype=complex)), ClusteredSpectrumError),
        (lambda: right_left_eigenpair(np.eye(2, dtype=complex), 1.0), ClusteredSpectrumError),
        (lambda: kappa_x(_A5, 99.0), ValueError),
    ])
    def test_thread_counts_are_restored(self, blas_threads, call, error):
        blas_threads.set(2)
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert blas_threads.counts() == {2}

    def test_trials_stay_pinned_after_the_nested_report(self, blas_threads, monkeypatch):
        blas_threads.set(2)
        seen = []
        real = eigencond.conditioning._match_eigenvalues

        def spy(lams, w, min_gap):
            seen.append(blas_threads.counts())
            return real(lams, w, min_gap)

        monkeypatch.setattr(eigencond.conditioning, "_match_eigenvalues", spy)
        perturbation_experiment(_A5, 1e-8, trials=3)
        assert seen == [{1}] * 3
        assert blas_threads.counts() == {2}


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

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_aggregates_are_the_separation_functionals(self, scale):
        # the aggregates are the report's own norms over the gap, which are
        # S_2 and S_inf to the last bit
        rng = np.random.default_rng(7)
        configs = [first_n_lattice_points(n) for n in (2, 7, 61, 300)]
        configs += [Configuration(scale * c.points) for c in configs]
        configs += [Configuration(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
                    for n in (2, 3, 40, 257, 300)]
        for c in configs:
            report = condition_report_diagonal(c)
            assert report.kappa_max_frob == separation_functional(c, 2.0)
            assert report.kappa_max_op == separation_functional(c, math.inf)


    def test_points_near_the_top_of_the_float_range(self):
        # z_1 - z_2 = 2e308 overflows; in the prescaled frame the gap and the
        # moduli stay finite, and only the gap in the units of the points,
        # min_separation, leaves the float range
        c = Configuration([1e308, -1e308])
        report = condition_report_diagonal(c)
        assert report.kappa_max_frob == separation_functional(c, 2.0)
        assert report.kappa_max_frob == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert report.kappa_max_op == separation_functional(c, math.inf) == 0.5
        assert report.norm_frob == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        for row in report.per_eigenpair:
            assert row.kappa_x == pytest.approx(0.5e-308, rel=1e-12)
        assert c.min_separation == math.inf

    @given(st.integers(min_value=0, max_value=2 ** 20), st.integers(min_value=2, max_value=300),
           st.integers(min_value=-1000, max_value=1000))
    def test_power_of_two_scaling_keeps_the_bits(self, seed, n, k):
        # dyadic coordinates in [-4, 4) at spacing 2^-18 stay normal under
        # every 2^k here; both the <= 256-point scan and the k-d tree run
        rng = np.random.default_rng(seed)
        z = np.unique(rng.integers(-2 ** 20, 2 ** 20, n) + 1j * rng.integers(-2 ** 20, 2 ** 20, n))
        z = np.ldexp(z.real, -18) + 1j * np.ldexp(z.imag, -18)
        base, scaled = Configuration(z), Configuration(pow2_scale(z, k))
        r0, rk = condition_report_diagonal(base), condition_report_diagonal(scaled)
        assert (rk.kappa_max_frob, rk.kappa_max_op) == (r0.kappa_max_frob, r0.kappa_max_op)
        for p in (2.0, 3.0, math.inf):
            assert separation_functional(scaled, p) == separation_functional(base, p)
        assert np.array_equal(scaled.nearest_neighbor_distances(),
                              pow2_scale(base.nearest_neighbor_distances(), k))
        assert scaled.min_separation == math.ldexp(base.min_separation, k)
        assert r0.min_gap == pairwise_min_separation(z)
        assert rk.min_gap == math.ldexp(r0.min_gap, k)


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

    def test_clustered_error_names_the_eigenvalues_of_a(self):
        # the trials run on A / 16 here; the error reports A's values
        a = np.diag([0.0, 8.0, 8.0]).astype(complex)
        with pytest.raises(ClusteredSpectrumError) as trials_error:
            perturbation_experiment(a, 1e-8)
        with pytest.raises(ClusteredSpectrumError) as report_error:
            condition_report(a)
        assert trials_error.value.cluster == (8.0, 8.0)
        assert str(trials_error.value) == str(report_error.value)

    def test_too_large_epsilon_is_rejected(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            perturbation_experiment(a, 0.5)

    def test_seeds_draw_independent_trials(self):
        # trial t of seed s draws from the stream (s, t): seed s + 1 must not
        # replay trial 1 of seed s, so the worst ratios over seed 0's two
        # trials differ from the worst over seed 0's first and seed 1's first
        a = np.diag([0.0, 1.0, 3.0]).astype(complex)
        two = perturbation_experiment(a, 1e-6, trials=2, seed=0)
        first = perturbation_experiment(a, 1e-6, trials=1, seed=0)
        other = perturbation_experiment(a, 1e-6, trials=1, seed=1)
        for r2, r1 in zip(two.rows, first.rows):
            assert r1.shift_ratio <= r2.shift_ratio and r1.angle_ratio <= r2.angle_ratio
        replayed = [max(r1.shift_ratio, ro.shift_ratio)
                    for r1, ro in zip(first.rows, other.rows)]
        assert [r.shift_ratio for r in two.rows] != replayed

    def test_small_angles_are_resolved(self):
        # acos(|x^H x_hat|) cannot resolve angles below ~1e-8: it read 0 for
        # six of these eigenvectors and exceeded the first-order bound for one
        a = dense_matrix("ginibre", 30, 3)
        result = perturbation_experiment(a, 1e-9, trials=50, seed=1)
        angles = [row.angle_ratio for row in result.rows]
        assert result.excluded_trials == 0
        assert min(angles) > 0.0 and len(set(angles)) == 30
        for row in result.rows:
            assert row.angle_ratio <= row.kappa_x

    def test_angle_ratio_does_not_depend_on_eps(self):
        # every eps draws the same trial matrices, so the first-order ratios
        # agree up to O(eps) and the rounding of the perturbed eigenvectors
        a = dense_matrix("ginibre", 30, 3)
        tiny, small = (perturbation_experiment(a, eps, trials=50, seed=1)
                       for eps in (1e-9, 1e-7))
        for r9, r7 in zip(tiny.rows, small.rows):
            assert r9.angle_ratio == pytest.approx(r7.angle_ratio, rel=1e-4)

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_power_of_two_scaling_is_exact(self, k):
        # the trials run on the prescaled matrix, which 2^k A shares with A:
        # shift ratios keep their bits, and angle ratios scale by exactly 2^-k
        a = np.diag(first_n_lattice_points(12).points)
        base = perturbation_experiment(a, 1e-6, trials=20, seed=1)
        scaled = perturbation_experiment(pow2_scale(a, k), 1e-6, trials=20, seed=1)
        assert scaled.excluded_trials == base.excluded_trials == 0
        for r0, r1 in zip(base.rows, scaled.rows):
            assert r1.shift_ratio == r0.shift_ratio
            assert pow2_scale(r1.angle_ratio, k) == r0.angle_ratio
            assert r1.eigenvalue == complex(pow2_scale(r0.eigenvalue, k))
            assert r1.kappa_x == math.ldexp(r0.kappa_x, -k)

    def test_shifts_match_the_scalar_loop(self, monkeypatch):
        # the array maximum of np.hypot gives the bits of the per-eigenvalue
        # loop max(shift, abs(w[j] - lam)) that it replaced
        a = dense_matrix("ginibre", 12, 5)
        trials = []
        match = eigencond.conditioning._match_eigenvalues

        def recording(lams, w, min_gap):
            trials.append((lams, w, match(lams, w, min_gap)))
            return trials[-1][2]

        monkeypatch.setattr(eigencond.conditioning, "_match_eigenvalues", recording)
        result = perturbation_experiment(a, 1e-8, trials=20, seed=2)
        shift = [0.0] * 12
        for lams, w, matched in trials:
            for i, j in enumerate(matched):
                shift[i] = max(shift[i], abs(w[j] - lams[i]))
        scale = 1e-8 * float(np.linalg.norm(prescale(a)[0]))
        assert result.excluded_trials == 0
        assert [row.shift_ratio for row in result.rows] == [x / scale for x in shift]

    @pytest.mark.parametrize("diagonal", [[1e-320, 0.0], [1e308, -1e308]],
                             ids=["subnormal", "huge"])
    def test_norms_beyond_the_float_range(self, diagonal):
        # ||A||, min_gap and eps*||A|| of these lose their bits or overflow;
        # those of the prescaled matrix cannot, so every trial counts and the
        # shift ratios obey kappa_lambda = 1
        result = perturbation_experiment(np.diag(diagonal), 1e-6, trials=20, seed=1)
        assert result.excluded_trials == 0
        for row in result.rows:
            assert 0.0 < row.shift_ratio <= 1.0 + 1e-4
            assert not math.isnan(row.angle_ratio)

    @pytest.mark.parametrize("k", [1020, -1040, -1060])
    def test_scalings_that_overflow_or_round(self, k):
        # 2^1020 A has ||A|| near the top of the float range; below 2^-1022
        # the entries round to subnormals, which can reorder equal moduli, so
        # rows are matched by eigenvalue and agree only to the first order
        a = np.diag(first_n_lattice_points(12).points)
        base = perturbation_experiment(a, 1e-6, trials=20, seed=1)
        scaled = perturbation_experiment(pow2_scale(a, k), 1e-6, trials=20, seed=1)
        assert scaled.excluded_trials == 0
        values = np.array([row.eigenvalue for row in base.rows])
        for row in scaled.rows:
            i = np.argmin(np.abs(values - pow2_scale(row.eigenvalue, -k)))
            assert row.shift_ratio == pytest.approx(base.rows[i].shift_ratio, rel=1e-3)

    def test_deterministic_given_seed(self):
        a = np.diag([0.0, 1.0, 3.0]).astype(complex)
        r1 = perturbation_experiment(a, 1e-6, trials=10, seed=5)
        r2 = perturbation_experiment(a, 1e-6, trials=10, seed=5)
        assert r1.rows == r2.rows

    def test_one_neighbour_search_per_run(self, monkeypatch):
        # the matching margin reads the base report's min_gap
        calls = []
        search = eigencond.lattice.nearest_neighbor_distances

        def counted(points):
            calls.append(None)
            return search(points)

        monkeypatch.setattr(eigencond.conditioning, "nearest_neighbor_distances", counted)
        monkeypatch.setattr(eigencond.lattice, "nearest_neighbor_distances", counted)
        perturbation_experiment(dense_matrix("ginibre", 12, seed=3), 1e-8, trials=3)
        assert len(calls) == 1

    def test_excluded_trials_do_not_count(self, monkeypatch):
        # a trial whose matching fails is counted and leaves the row maxima
        # alone: they equal the maxima over the remaining trials, each taken
        # from a run that keeps that trial only
        a = dense_matrix("ginibre", 5, 4)
        trials = 6
        match = eigencond.conditioning._match_eigenvalues

        def run(kept):
            calls = []

            def chosen(lams, w, min_gap):
                calls.append(None)
                return match(lams, w, min_gap) if len(calls) - 1 in kept else None

            monkeypatch.setattr(eigencond.conditioning, "_match_eigenvalues", chosen)
            result = perturbation_experiment(a, 1e-8, trials=trials, seed=3)
            assert len(calls) == trials and result.excluded_trials == trials - len(kept)
            return np.array([(r.shift_ratio, r.angle_ratio) for r in result.rows])

        single = [run({t}) for t in range(trials)]
        kept = {0, 2, 3}
        assert np.array_equal(run(kept), np.maximum.reduce([single[t] for t in kept]))
        assert not np.array_equal(run(kept), run(set(range(trials))))
        assert not run(set()).any()

    def test_bad_arguments(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            perturbation_experiment(a, -1e-6)
        with pytest.raises(ValueError):
            perturbation_experiment(a, 1e-6, trials=0)
        with pytest.raises(ValueError):
            perturbation_experiment(a, 1e-6, norm_kind="nuclear")


def eigenbasis(a):
    """(ms, base report, lams, X, X^-1) of A prescaled, as the perturbation
    experiment builds them, with X^-1 = diag(1/(y_k^H x_k)) Y^H."""
    ms, _ = prescale(a)
    base = condition_report(ms)
    lams = np.array([row.eigenvalue for row in base.per_eigenpair])
    x = np.stack([row.x for row in base.per_eigenpair], axis=1)
    yh = np.stack([row.y for row in base.per_eigenpair]).conj()
    return ms, base, lams, x, yh / np.sum(yh * x.T, axis=1)[:, None]


def trial_delta(n, scale, seed, t):
    """scale * E of trial t of seed, drawn as the perturbation experiment
    draws it (unit Frobenius norm)."""
    rng = np.random.default_rng((seed, t))
    e = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    e /= np.linalg.norm(e)
    return scale * e


def worst_residual(a1, w, v):
    """max_k ||A' v_k - w_k v_k|| over unit columns v_k, in units of n u ||A'||_F."""
    res = np.linalg.norm(a1 @ v - v * w, axis=0)
    return float(res.max() / (a1.shape[0] * U * np.linalg.norm(a1)))


def benchmark_eps(base, lams):
    """eps of the dense benchmark's perturb operations: the matching bound
    over 4, capped so that the first-order shift stays below 1e-4 of the gap."""
    nf = base.norm_frob
    gap = pairwise_min_separation(lams)
    kappa = max(row.kappa_lambda for row in base.per_eigenpair)
    return min(gap / (40.0 * nf), 1e-4 * gap / (nf * kappa))


class TestRefinedTrials:
    """Trials refine the base eigenpairs and keep them only under the
    residual certificate ||A' x - mu x|| <= 4 n u ||A'||_F; others run eig."""

    @pytest.mark.parametrize("family, seed, trial", [("ginibre", 1, 5), ("grcar", 2, 9)])
    def test_eight_steps_and_a_certificate_of_four(self, monkeypatch, family, seed, trial):
        # at 0.999 of the matching bound the expansion converges slowly:
        # after eight steps these trials' worst residuals are 6.0 and 20 in
        # units of n u ||A'||_F, above the certificate, and a ninth step
        # brings them to 0.98 and 0.83.  So a looser certificate or a ninth
        # step would keep them
        ms, _, lams, x, x_inv = eigenbasis(dense_matrix(family, 12, seed))
        delta = trial_delta(12, 0.999 * pairwise_min_separation(lams) / 10.0, 0, trial)
        args = (ms + delta, delta, lams, x, x_inv)
        refine = eigencond.conditioning._refined_eigenpairs
        assert refine(*args) is None
        monkeypatch.setattr(eigencond.conditioning, "_CERTIFY_C", math.inf)
        assert worst_residual(args[0], *refine(*args)) > 4.0
        monkeypatch.setattr(eigencond.conditioning, "_REFINE_STEPS", 9)
        assert worst_residual(args[0], *refine(*args)) <= 1.0

    @pytest.mark.parametrize("family", ["ginibre", "normal", "grcar"])
    def test_benchmark_eps_needs_no_eig(self, monkeypatch, family):
        eig_calls = []
        real_eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: eig_calls.append(None) or real_eig(m))
        for n in (12, 40):
            a = dense_matrix(family, n, 0)
            _, base, lams, _, _ = eigenbasis(a)
            result = perturbation_experiment(a, benchmark_eps(base, lams), trials=20, seed=4)
            assert result.excluded_trials == 0
        assert eig_calls == []

    def test_fallback_runs_on_a_real_input(self, monkeypatch):
        # at 0.999 of the matching bound most Grcar trials fall back, some
        # do not; the matcher runs once per trial on whichever eigenvalues
        # the trial kept, every kept refinement meets the certificate, and
        # the ratios agree with a run that takes eig on every trial
        a = dense_matrix("grcar", 12, 2)
        _, base, lams, _, _ = eigenbasis(a)
        eps = 0.999 * pairwise_min_separation(lams) / (10.0 * base.norm_frob)
        module = eigencond.conditioning
        refine, match, real_eig = module._refined_eigenpairs, module._match_eigenvalues, np.linalg.eig
        kept, eig_calls, matched = [], [], []

        def refine_spy(a1, *args):
            pairs = refine(a1, *args)
            kept.append(None if pairs is None else worst_residual(a1, *pairs))
            return pairs

        monkeypatch.setattr(module, "_refined_eigenpairs", refine_spy)
        monkeypatch.setattr(module, "_match_eigenvalues",
                            lambda *args: matched.append(None) or match(*args))
        monkeypatch.setattr(np.linalg, "eig", lambda m: eig_calls.append(None) or real_eig(m))
        mixed = perturbation_experiment(a, eps, trials=30, seed=0)
        certified = [r for r in kept if r is not None]
        assert len(matched) == len(kept) == 30 and len(eig_calls) == 30 - len(certified)
        assert 0 < len(certified) < 30 and max(certified) <= 4.0
        monkeypatch.setattr(module, "_refined_eigenpairs", lambda *args: None)
        every_eig = perturbation_experiment(a, eps, trials=30, seed=0)
        assert mixed.excluded_trials == every_eig.excluded_trials
        for r1, r2 in zip(mixed.rows, every_eig.rows):
            assert r1.shift_ratio == pytest.approx(r2.shift_ratio, rel=1e-6)
            assert r1.angle_ratio == pytest.approx(r2.angle_ratio, rel=1e-6)

    def test_infinite_kappa_lambda_runs_eig(self, monkeypatch):
        # no inverse eigenbasis without every overlap y^H x: this Jordan-like
        # matrix (superdiagonal ones, diagonal spread 7e-3) reports
        # kappa_lambda = inf, so no trial tries the refinement
        a = (np.diag(np.arange(8) * 1e-3) + np.eye(8, k=1)).astype(complex)
        assert any(math.isinf(row.kappa_lambda) for row in condition_report(a).per_eigenpair)
        refined = []
        monkeypatch.setattr(eigencond.conditioning, "_refined_eigenpairs",
                            lambda *args: refined.append(None))
        perturbation_experiment(a, 1e-12, trials=3)
        assert refined == []

    @pytest.mark.parametrize("family", ["ginibre", "normal", "grcar"])
    def test_shifts_are_closer_to_a_40_digit_reference(self, family):
        # the refined shift is mu - lam with mu = lam + (G V)_kk; eig's is the
        # difference of two factorizations.  On seeds 10-39, two trials each
        # at n = 8, the refined worst relative error was at most 9.3e-10 and
        # at most 0.17 of eig's on the same trial
        a = dense_matrix(family, 8, 0)
        ms, base, lams, x, x_inv = eigenbasis(a)
        scale = benchmark_eps(base, lams) * base.norm_frob
        gap = pairwise_min_separation(lams)
        before = eigenvalues(ms)
        for t in range(2):
            delta = trial_delta(8, scale, 0, t)
            a1 = ms + delta
            exact = eigenvalue_shifts(before, eigenvalues(ms, delta), lams)
            errors = []
            for w, _ in (eigencond.conditioning._refined_eigenpairs(a1, delta, lams, x, x_inv),
                         np.linalg.eig(a1)):
                d = w[eigencond.conditioning._match_eigenvalues(lams, w, gap)] - lams
                errors.append(float(np.max(np.abs(d - exact) / np.abs(exact))))
            refined, lapack = errors
            assert refined <= lapack and refined <= 3e-9


class TestEigenvalueMatching:
    """_match_eigenvalues makes the argsort oracle's decisions."""

    @given(st.integers(min_value=0, max_value=2 ** 20), st.integers(min_value=1, max_value=40),
           st.booleans(), st.booleans(), st.floats(min_value=-6.0, max_value=0.5))
    def test_matches_the_argsort_oracle(self, seed, n, snap, snap_w, log_noise):
        rng = np.random.default_rng(seed)
        lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if snap:
            lams = np.round(lams * 2.0) / 2.0  # repeated values: collisions
        w = lams + 10.0 ** log_noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if snap_w:
            w = np.round(w * 2.0) / 2.0  # grid points: equal distances, ambiguity
        min_gap = float(np.abs(lams[:, None] - lams[None, :])[~np.eye(n, dtype=bool)].min()) \
            if n > 1 else 1.0
        margin = eigencond.conditioning._MATCH_MARGIN
        assert (eigencond.conditioning._match_eigenvalues(lams, w, min_gap)
                == reference_match_eigenvalues(lams, w, min_gap, margin))

    def test_ambiguous_and_colliding_matches(self):
        match = eigencond.conditioning._match_eigenvalues
        assert match(np.array([0j]), np.array([0.1 + 0j]), 1.0) == [0]
        assert match(np.array([0j, 1 + 0j]), np.array([1.01 + 0j, 0.02j]), 1.0) == [1, 0]
        assert match(np.array([0j]), np.array([1 + 0j, -1 + 0j]), 1.0) is None  # tie
        assert match(np.array([0j]), np.array([1 + 0j, 5 + 0j, -1 + 0j]), 1.0) is None
        assert match(np.array([0j, 1 + 0j]), np.array([0.5 + 0j, 3 + 0j]), 1.0) is None

    @pytest.mark.parametrize("apart, matched", [(1e-6, True), (2.0 ** -30, False)])
    def test_margin_is_one_billionth_of_the_gap(self, apart, matched):
        # the two nearest perturbed eigenvalues of 0 lie apart * min_gap apart
        # in distance (2^-30 < 1e-9 < 1e-6); min_gap = 2
        lams = np.array([0j, 2 + 0j])
        w = np.array([0.5j, -(0.5 + 2.0 * apart) + 0j, 2.1 + 0j])
        result = eigencond.conditioning._match_eigenvalues(lams, w, 2.0)
        assert result == ([0, 2] if matched else None)
