"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion alongside the assertions.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_unitary
from eigencond.cli import reproduce_rows
from eigencond.conditioning import (condition_report, condition_report_diagonal,
                                    perturbation_experiment)
from eigencond.extremal import convergence_study, separation_functional
from eigencond.lattice import Configuration, first_n_lattice_points, lattice_count
from eigencond.linalg import schur
from eigencond.optimizer import OptimizerConfig, gradient, optimize, soft_separation_functional

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def verdict(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def lattice_10k():
    return first_n_lattice_points(10_000)


@pytest.fixture(scope="module")
def reproduce_cli_run(tmp_path_factory):
    """One timed `reproduce --n 10000` through the real CLI."""
    out = tmp_path_factory.mktemp("reproduce") / "out.csv"
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "eigencond", "reproduce", "--n", "10000",
         "--output", str(out)],
        capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in out.read_text().splitlines()[1:]:
        name, _, measured, target, deviation = line.split(",")
        rows[name] = (float(measured), float(target), float(deviation))
    return rows, elapsed


def test_criterion_1_frobenius_theorem_constant(reproduce_cli_run):
    rows, elapsed = reproduce_cli_run
    measured, target, deviation = rows["frobenius"]
    assert target == pytest.approx(3.0 ** 0.25 / (2.0 * math.sqrt(math.pi)), rel=1e-15)
    devs = [reproduce_rows(n)[0]["rel_deviation"] for n in (100, 1000, 10_000)]
    ok = (deviation < 0.03 and elapsed < 60.0
          and devs[0] > devs[1] > devs[2])
    verdict(1, ok,
            f"kappa_max_frob/n = {measured:.7f} vs {target:.7f} "
            f"(dev {deviation:.2%}, limit 3%); runtime {elapsed:.1f}s < 60s; "
            f"deviations at n=100,1000,10000: {devs[0]:.2%} > {devs[1]:.2%} > {devs[2]:.2%}")


def test_criterion_2_operator_theorem_constant(reproduce_cli_run):
    rows, _ = reproduce_cli_run
    measured, target, deviation = rows["operator"]
    assert target == pytest.approx(3.0 ** 0.25 / math.sqrt(2.0 * math.pi), rel=1e-15)
    verdict(2, deviation < 0.03,
            f"kappa_max_op/sqrt(n) = {measured:.7f} vs {target:.7f} "
            f"(dev {deviation:.2%}, limit 3%)")


def test_criterion_3_general_p_constants(lattice_10k):
    details = []
    ok = True
    for p in (1.0, 2.0, 4.0):
        (row,) = convergence_study(p, [10_000], points=lattice_10k.points)
        deviation = abs(row.ratio - row.target) / row.target
        ok = ok and deviation < 0.05
        details.append(f"p={p:g}: ratio {row.ratio:.6f} vs {row.target:.6f} "
                       f"(dev {deviation:.2%})")
    verdict(3, ok, "; ".join(details) + " (limit 5%)")


def test_criterion_4_lemma_density():
    density = 2.0 * math.pi / math.sqrt(3.0)
    details = []
    ok = True
    for r in (50.0, 100.0, 200.0):
        ratio = lattice_count(r) / r ** 2
        deviation = abs(ratio - density) / density
        ok = ok and deviation < 0.02
        details.append(f"r={r:g}: count/r^2 = {ratio:.5f} (dev {deviation:.3%})")
    verdict(4, ok, "; ".join(details) + f" vs 2*pi/sqrt(3) = {density:.5f} (limit 2%)")


def _distinct_spectrum(rng, n):
    """Random diagonal entries with pairwise gaps and distinct moduli."""
    while True:
        z = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        gaps = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(gaps, np.inf)
        moduli = np.sort(np.abs(z))
        if gaps.min() > 0.1 and np.min(np.diff(moduli)) > 1e-3:
            return z


def _reports_match(a, b, rel):
    rows = zip(a.per_eigenpair, b.per_eigenpair)
    return (len(a.per_eigenpair) == len(b.per_eigenpair)
            and all(abs(ra.eigenvalue - rb.eigenvalue) <= 1e-8
                    and abs(ra.kappa_lambda - rb.kappa_lambda) <= rel * ra.kappa_lambda
                    and abs(ra.kappa_x - rb.kappa_x) <= rel * ra.kappa_x
                    for ra, rb in rows)
            and abs(a.kappa_max_frob - b.kappa_max_frob) <= rel * a.kappa_max_frob
            and abs(a.kappa_max_op - b.kappa_max_op) <= rel * a.kappa_max_op)


def test_criterion_5_oracle_equivalence_and_unitary_invariance():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(2, 51))
        z = _distinct_spectrum(rng, n)
        fast = condition_report_diagonal(Configuration(z))
        slow = condition_report(np.diag(z))
        if not _reports_match(fast, slow, 1e-8):
            verdict(5, False, f"trial {trial}: diagonal fast path diverges from Schur path")
        u = random_unitary(rng, n)
        conjugated = condition_report(u.conj().T @ np.diag(z) @ u)
        if not _reports_match(slow, conjugated, 1e-8):
            verdict(5, False, f"trial {trial}: report not unitarily invariant")
    verdict(5, True, "50 seeded diagonals (n up to 50): diagonal fast path == Schur "
                     "path and both unitarily invariant within 1e-8 relative")


def test_criterion_6_perturbation_law():
    config = first_n_lattice_points(20)
    result = perturbation_experiment(np.diag(config.points), 1e-6, trials=200,
                                     norm_kind="frob", seed=0)
    shift_ok = all(row.shift_ratio <= row.kappa_lambda * (1.0 + 1e-3)
                   for row in result.rows)
    angle_ok = all(row.angle_ratio <= row.kappa_x * (1.0 + 1e-2)
                   for row in result.rows)
    worst_shift = max(row.shift_ratio / row.kappa_lambda for row in result.rows)
    worst_angle = max(row.angle_ratio / row.kappa_x for row in result.rows)
    verdict(6, shift_ok and angle_ok and result.excluded_trials == 0,
            f"200 trials on diag(lattice_20), eps=1e-6: worst shift/kappa_lambda "
            f"= {worst_shift:.3f} (limit 1.001), worst angle/kappa_x = "
            f"{worst_angle:.3f} (limit 1.01), excluded trials {result.excluded_trials}")


def test_criterion_7_optimizer_oracles():
    r2 = optimize(OptimizerConfig(n=2, p=2.0, init="random", seed=0, restarts=2))
    r3 = optimize(OptimizerConfig(n=3, p=2.0, init="random", seed=0, restarts=2))
    lattice100 = optimize(OptimizerConfig(n=100, p=2.0, init="lattice", seed=0,
                                          max_iters=60))
    lattice_objective = separation_functional(first_n_lattice_points(100), 2.0)
    two_ok = abs(r2.objective - 1.0 / math.sqrt(2.0)) <= 1e-3
    three_ok = abs(r3.objective - 1.0) <= 1e-3
    lattice_ok = (lattice100.objective <= lattice100.init_objective
                  and lattice100.init_objective == lattice_objective)
    verdict(7, two_ok and three_ok and lattice_ok,
            f"n=2: {r2.objective:.6f} vs 1/sqrt(2) = {1.0 / math.sqrt(2.0):.6f}; "
            f"n=3: {r3.objective:.6f} vs 1.0 (tolerance 1e-3); n=100 lattice init: "
            f"{lattice100.objective:.6f} <= start {lattice100.init_objective:.6f}")


def test_criterion_8_numerical_kernels():
    # gradient vs central finite differences on 20 seeded configurations
    rng = np.random.default_rng(77)
    worst_grad = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 12))
        z = _distinct_spectrum(rng, n)
        c = Configuration(z)
        p, beta = 2.0, float(rng.uniform(10.0, 120.0))
        g = gradient(c, p, beta)
        h = 1e-6 * float(np.abs(z[:, None] - z[None, :]).max())
        fd = np.zeros(n, dtype=complex)
        for i in range(n):
            for unit in (1.0, 1.0j):
                zp, zm = z.copy(), z.copy()
                zp[i] += unit * h
                zm[i] -= unit * h
                fp = soft_separation_functional(Configuration(zp), p, beta)
                fm = soft_separation_functional(Configuration(zm), p, beta)
                fd[i] += unit * (fp - fm) / (2.0 * h)
        worst_grad = max(worst_grad, float(np.max(np.abs(g - fd)) / np.max(np.abs(g))))
    grad_ok = worst_grad <= 1e-5

    # Schur reconstruction on 500 seeded matrices with n <= 30
    rng = np.random.default_rng(88)
    worst_recon = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 31))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        form = schur(a)
        rel = float(np.linalg.norm(a - form.reconstruct()) / np.linalg.norm(a))
        worst_recon = max(worst_recon, rel)
    recon_ok = worst_recon <= 1e-10

    verdict(8, grad_ok and recon_ok,
            f"gradient vs finite differences: worst rel err {worst_grad:.2e} "
            f"(limit 1e-5); Schur reconstruction on 500 matrices: worst rel "
            f"residual {worst_recon:.2e} (limit 1e-10)")
