"""Schur form, eigenpairs, singular values, norms, and the matrix file format."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_unitary, unitary_with_first_column
from eigencond.errors import ClusteredSpectrumError, NumericalError
from eigencond.linalg import (as_matrix, frobenius_norm, one_blas_thread,
                              operator_norm, pinned_blas_threads, read_matrix,
                              right_eigenvector, right_left_eigenpair, schur,
                              write_matrix)


def ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def charpoly_roots(a):
    """Oracle: eigenvalues as characteristic-polynomial roots.

    Coefficients come from the Faddeev-LeVerrier trace recursion, which never
    touches an eigenvalue or Schur solver.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ (m + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(m) / k)
    return np.roots(np.array(coeffs))


def sort_complex(values):
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))]


class TestSchur:
    def test_triangular_input_is_fixed_point(self):
        a = np.array([[1.0, 2.0 + 1.0j], [0.0, 3.0]], dtype=complex)
        form = schur(a)
        assert np.allclose(form.t, a, rtol=0, atol=1e-12)
        assert np.allclose(form.q, np.eye(2), rtol=0, atol=1e-12)

    def test_symmetric_2x2_eigenvalues(self):
        form = schur(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(sort_complex(form.eigenvalues), [-1.0, 1.0], atol=1e-14)

    def test_seeded_ginibre_reconstruction(self):
        rng = np.random.default_rng(42)
        a = ginibre(rng, 20)
        form = schur(a)
        assert np.linalg.norm(a - form.reconstruct()) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(np.tril(form.t, -1)) <= 1e-12 * np.linalg.norm(a)
        n = a.shape[0]
        assert np.linalg.norm(form.q.conj().T @ form.q - np.eye(n)) <= 1e-12 * n

    @pytest.mark.parametrize("spoil, message", [
        # q scaled by 1 + 1e-9 and t by its inverse square: q t q^H keeps
        # its value, and only the unitarity check can see the change
        (lambda t, q: (t / (1.0 + 1e-9) ** 2, q * (1.0 + 1e-9)), "not unitary"),
        # t off by 1e-9 * ||A||_F in one diagonal entry: only the
        # reconstruction check can see the change
        (lambda t, q: (t + np.diag([1e-9 * np.linalg.norm(t)] + [0.0] * (len(t) - 1)), q),
         "reconstruction residual"),
    ], ids=["q", "t"])
    def test_spoiled_factor_is_rejected(self, monkeypatch, spoil, message):
        import scipy.linalg

        exact = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur", lambda m, output: spoil(*exact(m, output)))
        a = ginibre(np.random.default_rng(7), 6)
        with pytest.raises(NumericalError, match=message):
            schur(a)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            schur(np.zeros((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            schur(np.array([[math.inf, 0.0], [0.0, 1.0]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_eigenvalues_match_charpoly_roots(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            a = ginibre(rng, n)
            got = sort_complex(schur(a).eigenvalues)
            want = sort_complex(charpoly_roots(a))
            assert np.allclose(got, want, rtol=0, atol=1e-8)


class TestSingularValuesAndNorms:
    def test_norm_examples(self):
        d = np.diag([1.0, 2.0]).astype(complex)
        assert operator_norm(d) == 2.0
        assert frobenius_norm(d) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert operator_norm(nil) == 1.0
        assert frobenius_norm(nil) == 1.0

    def test_unitary_norms(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 9):
            q = random_unitary(rng, n)
            assert abs(operator_norm(q) - 1.0) <= 1e-12
            assert abs(frobenius_norm(q) - math.sqrt(n)) <= 1e-10

    @given(st.integers(min_value=0, max_value=500))
    def test_norm_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        m = ginibre(rng, n)
        op, fro = operator_norm(m), frobenius_norm(m)
        assert op <= fro * (1.0 + 1e-12)
        assert fro <= math.sqrt(n) * op * (1.0 + 1e-12)


class TestUnitaryCompletion:
    def test_e1_gives_identity(self):
        q = unitary_with_first_column(np.array([1.0, 0.0, 0.0], dtype=complex))
        assert np.allclose(q, np.eye(3), rtol=0, atol=1e-15)

    def test_e2_swaps_coordinates(self):
        q = unitary_with_first_column(np.array([0.0, 1.0], dtype=complex))
        assert np.allclose(q[:, 0], [0.0, 1.0], rtol=0, atol=1e-15)
        assert np.allclose(q.conj().T @ q, np.eye(2), rtol=0, atol=1e-14)

    @given(st.integers(min_value=0, max_value=2000))
    def test_random_unit_vector_completion(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x /= np.linalg.norm(x)
        q = unitary_with_first_column(x)
        assert np.linalg.norm(q.conj().T @ q - np.eye(8)) <= 1e-12 * 8
        assert np.linalg.norm(q[:, 0] - x) <= 1e-12

    def test_rejects_non_unit_input(self):
        with pytest.raises(ValueError):
            unitary_with_first_column(np.array([1.0, 1.0], dtype=complex))


class TestEigenpairs:
    def test_diagonal_eigenpair(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        x, y = right_left_eigenpair(a, 2.0)
        e2 = np.array([0.0, 1.0, 0.0])
        assert np.allclose(x, e2, rtol=0, atol=1e-12)
        assert np.allclose(y, e2, rtol=0, atol=1e-12)

    def test_jordan_like_left_vector(self):
        a = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        x, y = right_left_eigenpair(a, 0.0)
        assert np.allclose(x, [1.0, 0.0], rtol=0, atol=1e-12)
        assert np.allclose(y, np.array([1.0, -1.0]) / math.sqrt(2.0), rtol=0, atol=1e-12)
        assert abs(complex(y.conj() @ x)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_phase_convention(self):
        rng = np.random.default_rng(23)
        a = ginibre(rng, 6)
        lam = schur(a).eigenvalues[0]
        x, y = right_left_eigenpair(a, lam)
        for v in (x, y):
            k = int(np.argmax(np.abs(v)))
            assert v[k].real > 0.0
            assert abs(v[k].imag) <= 1e-14

    def test_residuals_meet_tolerance(self):
        rng = np.random.default_rng(29)
        a = ginibre(rng, 9)
        anorm = frobenius_norm(a)
        for lam in schur(a).eigenvalues:
            x, y = right_left_eigenpair(a, lam)
            assert np.linalg.norm(a @ x - lam * x) <= 1e-8 * anorm
            assert np.linalg.norm(y.conj() @ a - lam * y.conj()) <= 1e-8 * anorm
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-14

    def test_rejects_non_eigenvalue(self):
        with pytest.raises(ValueError):
            right_left_eigenpair(np.diag([1.0, 2.0]).astype(complex), 5.0)

    def test_flags_repeated_eigenvalues(self):
        with pytest.raises(ClusteredSpectrumError):
            right_left_eigenpair(np.eye(2, dtype=complex), 1.0)
        with pytest.raises(ClusteredSpectrumError):
            right_left_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 0.0)

    def test_right_eigenvector_skips_simplicity(self):
        x = right_eigenvector(np.eye(2, dtype=complex), 1.0)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-14


class TestOneBlasThread:
    def test_pins_and_restores(self, blas_threads):
        blas_threads.set(2)
        with one_blas_thread():
            assert blas_threads.counts() == {1}
        assert blas_threads.counts() == {2}
        with pytest.raises(RuntimeError):
            with one_blas_thread():
                raise RuntimeError
        assert blas_threads.counts() == {2}

    def test_nested_use_restores_the_outer_count(self, blas_threads):
        blas_threads.set(2)
        with one_blas_thread():
            with one_blas_thread():
                assert blas_threads.counts() == {1}
            assert blas_threads.counts() == {1}
        assert blas_threads.counts() == {2}

    def test_concurrent_holders_share_the_pin(self, blas_threads):
        # a holder that restored the counts while another still held the pin
        # would let that one read 2
        blas_threads.set(2)
        unpinned = []

        def hold():
            for _ in range(300):
                with one_blas_thread():
                    counts = blas_threads.counts()
                    if counts != {1}:
                        unpinned.append(counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hold) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert unpinned == []
        assert blas_threads.counts() == {2}

    def test_pinned_counts_cover_every_library(self, blas_threads):
        pinned = pinned_blas_threads()
        assert 1 in pinned.values() and set(pinned.values()) <= {1, None}


class TestMatrixFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        a = ginibre(rng, 5)
        a[0, 0] = complex(1.0 / 3.0, -0.0)
        a[1, 0] = complex(1e-300, 1.23456789e12)
        path = tmp_path / "m.mat"
        write_matrix(path, a)
        b = read_matrix(path)
        assert a.tobytes() == b.tobytes()

    def test_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("")
        with pytest.raises(ValueError):
            read_matrix(path)
        path.write_text("2\n1 0\n")
        with pytest.raises(ValueError):
            read_matrix(path)
        path.write_text("x\n")
        with pytest.raises(ValueError):
            read_matrix(path)
        path.write_text("1\n1 0 5\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    @pytest.mark.parametrize("entry", ["3 0 7", "3", "3 x"])
    def test_errors_name_the_file_line(self, tmp_path, entry):
        # blank lines are skipped but still counted: the bad entry is line 6
        path = tmp_path / "blank.mat"
        path.write_text(f"2\n\n1 0\n\n0 0\n{entry}\n1 1\n")
        with pytest.raises(ValueError) as info:
            read_matrix(path)
        assert str(info.value) == f"{path}: line 6: expected 're im'"


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3), dtype=complex), square=True)
    with pytest.raises(ValueError):
        as_matrix(np.array([[complex(math.nan, 0.0)]]))
