"""Soft-min objective, analytic gradient, and the descent optimizer."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eigencond.optimizer as opt
from conftest import (random_distinct_points, reference_descend, reference_optimize,
                      reference_pair_distances, reference_polish,
                      reference_rescale_gauge, reference_soft_eval)
from eigencond.errors import NumericalError, UsageError
from eigencond.extremal import (modulus_p_norm, proposition_constant,
                                separation_functional)
from eigencond.lattice import Configuration, first_n_lattice_points
from eigencond.optimizer import (OptimizerConfig, gradient, optimize,
                                 soft_separation_functional)

INF = math.inf

# Proven minima of S_inf(n) = max|z_i| / min gap.  With the gap scaled to 1,
# that is (R/r - 1)/2 for the densest packing of n equal circles of radius r
# in a circle of radius R, whose optimality is proven for n <= 13 and n = 19
# (Pirl 1969 and Melissen 1994 for small n; F. Fodor for n = 19 in 1999, n = 12
# in 2000 and n = 13 in 2003).  The values are the closed forms: a regular
# n-gon for n = 2-6, a centre and a hexagon for n = 7, a centre and a regular
# (n-1)-gon for n = 8 and 9, and the packings of n = 11, 13 and 19.
P_INF_OPTIMA = {
    **{n: 1.0 / (2.0 * math.sin(math.pi / n)) for n in range(2, 7)},
    7: 1.0,
    **{n: 1.0 / (2.0 * math.sin(math.pi / (n - 1))) for n in (8, 9)},
    11: 1.0 / (2.0 * math.sin(math.pi / 9.0)),
    13: (1.0 + math.sqrt(5.0)) / 2.0,
    19: 2.0 * math.cos(math.pi / 12.0),
}


def soft_objective(z, p, beta):
    return soft_separation_functional(Configuration(z), p, beta)


def finite_difference_gradient(z, p, beta, h):
    g = np.zeros(z.size, dtype=complex)
    for i in range(z.size):
        for unit in (1.0, 1.0j):
            zp, zm = z.copy(), z.copy()
            zp[i] += unit * h
            zm[i] -= unit * h
            g[i] += unit * (soft_objective(zp, p, beta) - soft_objective(zm, p, beta)) / (2.0 * h)
    return g


class TestSoftFunctional:
    def test_single_pair_soft_min_is_exact(self):
        c = Configuration([0.0, 1.0])
        for beta in (1.0, 10.0, 1e4):
            assert soft_separation_functional(c, 2.0, beta) == separation_functional(c, 2.0)

    def test_three_collinear_points_closed_form(self):
        # gaps {1, 1, 2}: softmin = 1 - log(2 + e^{-beta})/beta
        c = Configuration([0.0, 1.0, 2.0])
        beta = 50.0
        numerator = modulus_p_norm(np.abs(c.points), 2.0)
        softmin = numerator / soft_separation_functional(c, 2.0, beta)
        expected = 1.0 - math.log(2.0 + math.exp(-beta)) / beta
        assert softmin == pytest.approx(expected, rel=1e-12)
        assert abs(softmin - 1.0) < 0.02

    @given(st.integers(min_value=0, max_value=200))
    def test_log_sum_exp_bound(self, seed):
        rng = np.random.default_rng(seed)
        z = random_distinct_points(rng, 10, min_gap=0.1)
        c = Configuration(z)
        hard = c.min_separation
        pairs = c.n * (c.n - 1) / 2.0
        numerator = modulus_p_norm(np.abs(z), 2.0)
        for beta in (10.0, 100.0, 1000.0):
            softmin = numerator / soft_separation_functional(c, 2.0, beta)
            assert softmin <= hard + 1e-12
            assert hard - softmin <= math.log(pairs) / beta + 1e-12

    def test_infinite_p_is_max_modulus_over_soft_gap(self):
        # the only caller of _state's p = inf branch: max |z| / softmin.  The
        # lattice prefix ties its minimum gap on many pairs, so the value
        # falls to S_inf like log(pairs) / beta
        c = first_n_lattice_points(12)
        z = c.points
        d = np.abs(z[:, None] - z[None, :])[np.triu_indices(z.size, 1)]
        top, hard = float(np.abs(z).max()), float(d.min())
        s_inf = separation_functional(c, INF)
        previous = INF
        for beta in (10.0, 100.0, 1e3, 1e4, 1e6):
            softmin = hard - math.log(np.sum(np.exp(-beta * (d - hard)))) / beta
            value = soft_separation_functional(c, INF, beta)
            assert value == pytest.approx(top / softmin, rel=1e-13)
            assert s_inf < value < previous
            assert value <= top / (hard - math.log(d.size) / beta)
            previous = value
        assert value == pytest.approx(s_inf, rel=1e-5)

    def test_coincident_points_raise(self):
        with pytest.raises(NumericalError):
            soft_separation_functional(Configuration([1.0, 1.0]), 2.0, 10.0)

    def test_argument_validation(self):
        c = Configuration([0.0, 1.0])
        with pytest.raises(ValueError):
            soft_separation_functional(c, -1.0, 10.0)
        with pytest.raises(ValueError):
            soft_separation_functional(c, 2.0, 0.0)


class TestGradient:
    @pytest.mark.parametrize("seed,p,beta", [
        (0, 2.0, 10.0), (1, 2.0, 100.0), (2, 4.0, 30.0), (3, 1.0, 50.0)])
    def test_matches_central_differences(self, seed, p, beta):
        rng = np.random.default_rng(seed)
        z = random_distinct_points(rng, 8, min_gap=0.3)
        diameter = np.abs(z[:, None] - z[None, :]).max()
        g = gradient(Configuration(z), p, beta)
        fd = finite_difference_gradient(z, p, beta, 1e-6 * diameter)
        assert np.max(np.abs(g - fd)) <= 1e-5 * np.max(np.abs(g))

    def test_symmetric_triangle_is_critical_modulo_gauge(self):
        tri = np.array([np.exp(2j * math.pi * k / 3) for k in range(3)]) / math.sqrt(3.0)
        g = gradient(Configuration(tri), 2.0, 77.0)
        flat = np.concatenate([g.real, g.imag])
        # project out the two flat directions at the symmetric point:
        # rotation (i*z) and scale (z)
        for direction in (1j * tri, tri):
            v = np.concatenate([direction.real, direction.imag])
            v /= np.linalg.norm(v)
            flat -= (flat @ v) * v
        assert np.linalg.norm(flat) <= 1e-8

    def test_gradient_sum_sees_only_the_numerator(self):
        # the soft-min is translation invariant, so the gradient total equals
        # the numerator term's total
        rng = np.random.default_rng(12)
        z = random_distinct_points(rng, 6, min_gap=0.3)
        p, beta = 2.0, 40.0
        c = Configuration(z)
        g_total = gradient(c, p, beta).sum()
        moduli = np.abs(z)
        numerator = modulus_p_norm(moduli, p)
        softmin = numerator / soft_separation_functional(c, p, beta)
        grad_num = (numerator / np.sum(moduli ** p)) * moduli ** (p - 1.0) * (z / moduli)
        assert abs(g_total - grad_num.sum() / softmin) <= 1e-10 * abs(g_total)

    def test_rejects_infinite_p_and_coincident_points(self):
        c = Configuration([0.0, 1.0])
        with pytest.raises(ValueError):
            gradient(c, INF, 10.0)
        with pytest.raises(NumericalError):
            gradient(Configuration([1.0, 1.0]), 2.0, 10.0)


class TestOptimize:
    def test_two_points_reach_the_antipodal_optimum(self):
        cfg = OptimizerConfig(n=2, p=2.0, init="random", seed=0, restarts=2)
        result = optimize(cfg)
        assert abs(result.objective - 1.0 / math.sqrt(2.0)) <= 1e-3

    def test_three_points_reach_the_equilateral_optimum(self):
        cfg = OptimizerConfig(n=3, p=2.0, init="random", seed=0, restarts=2)
        result = optimize(cfg)
        assert abs(result.objective - 1.0) <= 1e-3

    def test_never_worse_than_the_start(self):
        cfg = OptimizerConfig(n=30, p=2.0, init="lattice", seed=0, max_iters=40)
        result = optimize(cfg)
        assert result.objective <= result.init_objective
        assert result.init_objective == separation_functional(first_n_lattice_points(30), 2.0)

    def test_objective_is_recomputed_on_the_returned_points(self):
        cfg = OptimizerConfig(n=5, p=2.0, init="random", seed=3, max_iters=50)
        result = optimize(cfg)
        assert result.objective == separation_functional(result.best, 2.0)

    def test_deterministic_given_seed(self):
        cfg = OptimizerConfig(n=6, p=2.0, init="random", seed=11, max_iters=30, restarts=2)
        r1, r2 = optimize(cfg), optimize(cfg)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.best.points, r2.best.points)
        assert r1.objective == r2.objective

    def test_respects_the_leading_order_floor(self):
        # the optimizer may not beat the asymptotic bound by a margin: that
        # would signal an objective bug
        for n, iters in ((25, 30), (100, 30), (400, 10)):
            cfg = OptimizerConfig(n=n, p=2.0, init="lattice", seed=0, max_iters=iters)
            result = optimize(cfg)
            floor = proposition_constant(2.0) * n
            assert result.objective / floor >= 0.85

    def test_infinite_p_uses_the_true_objective(self):
        cfg = OptimizerConfig(n=5, p=INF, init="random", seed=2, max_iters=40)
        result = optimize(cfg)
        assert result.objective == separation_functional(result.best, INF)
        assert result.objective <= result.init_objective

    def test_file_init(self):
        points = first_n_lattice_points(4).points
        cfg = OptimizerConfig(n=4, p=2.0, init=points, seed=0, max_iters=20)
        assert cfg.init == tuple(complex(z) for z in points)
        result = optimize(cfg)
        assert result.objective <= result.init_objective
        assert result.init_objective == separation_functional(Configuration(points), 2.0)

    def test_trace_is_nonincreasing_at_the_end(self):
        cfg = OptimizerConfig(n=8, p=2.0, init="random", seed=7, max_iters=60)
        result = optimize(cfg)
        objectives = [v for _, v in result.trace]
        assert objectives[-1] == min(objectives)
        assert result.trace[0][0] == 0

    @pytest.mark.parametrize("init", ["lattice", "random"])
    @pytest.mark.parametrize("n", sorted(P_INF_OPTIMA))
    def test_never_below_a_proven_optimum(self, n, init):
        # a wrong objective, gauge or S_inf could report a value below the
        # true minimum; rounding may take the last bits under it, no more
        result = optimize(OptimizerConfig(n=n, p=INF, init=init, seed=0))
        assert result.objective >= P_INF_OPTIMA[n] * (1.0 - 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n=1)
        with pytest.raises(ValueError):
            OptimizerConfig(n=3, p=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(n=3, restarts=0)
        for init in ("file", "sobol", (0.0, 1.0), (0.0, 1.0, 2.0, 3.0)):
            with pytest.raises(UsageError):
                OptimizerConfig(n=3, init=init)
        # the start points are init itself: no field can hold points a run ignores
        with pytest.raises(TypeError):
            OptimizerConfig(n=3, init="random", init_points=(0.0, 1.0, 2j))
        with pytest.raises(ValueError):
            OptimizerConfig(n=3, seed=-1)


def same_bits(a, b) -> bool:
    """Equal arrays of the same dtype, compared byte for byte (signed zeros too)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_result(fast, oracle) -> bool:
    return (same_bits(fast.best.points, oracle.best.points)
            and repr((fast.objective, fast.init_objective, fast.trace))
            == repr((oracle.objective, oracle.init_objective, oracle.trace)))


# a square of tied moduli around a cramped interior: polish moves the
# interior while two or more points share the top modulus
TIED_TOP = np.array([2, -2, 2j, -2j, 0.1, 0.25 + 0.1j, -0.1 + 0.2j])
P_VALUES = (0.5, 2.0, 3.0, 64.0, INF)


def polish_starts():
    """(label, z0, p) polish inputs: a tied top, and random and jittered
    lattice starts at several sizes."""
    cases = [("tied", TIED_TOP, p) for p in P_VALUES]
    for n, init in ((5, "random"), (12, "random"), (12, "lattice"), (30, "lattice")):
        cfg = OptimizerConfig(n=n, init=init, seed=n)
        z0 = opt._initial_points(cfg, 0 if init == "random" else 1,
                                 first_n_lattice_points(n).points)
        cases += [(f"{init}{n}", z0, p) for p in (0.5, 2.0, 64.0, INF)]
    return cases


class TestFastPathsMatchOracles:
    """The optimizer's fast paths give the bits of the reference descent and
    polish in conftest."""

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30, 60])
    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("init", ["random", "lattice"])
    def test_optimize_grid(self, n, p, init):
        cfg = OptimizerConfig(n=n, p=p, init=init, seed=n, max_iters=30)
        assert same_result(optimize(cfg), reference_optimize(cfg))

    @settings(max_examples=20)
    @given(n=st.sampled_from([2, 3, 5, 12, 30, 60]), p=st.sampled_from(P_VALUES),
           init=st.sampled_from(["random", "lattice"]),
           seed=st.integers(0, 2 ** 20), max_iters=st.integers(1, 25))
    def test_optimize_any_seed(self, n, p, init, seed, max_iters):
        cfg = OptimizerConfig(n=n, p=p, init=init, seed=seed, max_iters=max_iters)
        assert same_result(optimize(cfg), reference_optimize(cfg))

    def test_descent_shares_the_norm_of_each_state(self, monkeypatch):
        # at p_true = p_smooth the hard objective reuses the p-norm the soft
        # objective takes, so the descent calls modulus_p_norm not once
        n = 12
        betas, steps = opt._schedules(n)
        z0 = opt._initial_points(OptimizerConfig(n=n, init="random", seed=5), 0)
        z_ref, v_ref, trace_ref = reference_descend(z0, 2.0, 2.0, betas, steps, 40)

        def forbidden(moduli, p):
            raise AssertionError("the descent took a p-norm a second time")

        monkeypatch.setattr(opt, "modulus_p_norm", forbidden)
        z, v, trace = opt._descend(z0, 2.0, 2.0, betas, steps, 40)
        assert same_bits(z, z_ref) and repr((v, trace)) == repr((v_ref, trace_ref))

    def test_polish_covers_top_moves_and_ties(self):
        events = np.zeros(3, dtype=int)
        for label, z0, p in polish_starts():
            log = []
            z_ref, v_ref = reference_polish(z0, p, log)
            z, v = opt._polish(z0, p)
            assert same_bits(z, z_ref) and repr(v) == repr(v_ref), (label, p)
            events += np.array([entry[1:] for entry in log]).sum(axis=0)
        at_top, raised_top, tied = events
        # the argmax point moved, a move raised top, and moves were taken
        # while two points shared the top modulus
        assert at_top > 0 and raised_top > 0 and tied > 0

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 10 ** 6])
    def test_polish_at_any_window(self, monkeypatch, window):
        # window 1 puts every accepted move on the last slot of its window;
        # 10**6 scores a whole round per pass
        monkeypatch.setattr(opt, "_POLISH_WINDOW", window)
        for label, z0, p in polish_starts()[::4]:
            z_ref, v_ref = reference_polish(z0, p)
            z, v = opt._polish(z0, p)
            assert same_bits(z, z_ref) and repr(v) == repr(v_ref), (label, p)

    @pytest.mark.parametrize("n", [6, 24, 25, 40])
    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0, 64.0])
    def test_soft_eval(self, n, p):
        rng = np.random.default_rng(n)
        z = random_distinct_points(rng, n, min_gap=0.01)
        if n == 6:
            z[0] = 0.0  # a zero modulus takes the masked numerator gradient
        for beta in (3.0, 30.0 * n, 3000.0 * n):
            st = opt._state(z, p)
            ref_pairs = reference_pair_distances(z)
            assert same_bits(st.d, ref_pairs[1])
            f, soft, grad = opt._soft_eval(st, p, beta, True)
            f_ref, soft_ref, grad_ref = reference_soft_eval(z, p, beta, True, ref_pairs,
                                                            np.abs(z))
            assert repr((f, soft)) == repr((f_ref, soft_ref))
            assert same_bits(grad, grad_ref)
            f, soft, gap = opt._soft_eval(st, p, beta, False)
            assert repr((f, soft)) == repr((f_ref, soft_ref))
            assert repr(gap) == repr(float(ref_pairs[1].min()))

    def test_gauge_matches_oracle(self):
        rng = np.random.default_rng(300)
        z = random_distinct_points(rng, 300, min_gap=0.01) * 3.7
        assert same_bits(opt._gauged(z), reference_rescale_gauge(z))
        coincident = np.array([1.0 + 2.0j, 0.5j, 1.0 + 2.0j])
        assert opt._gauged(coincident) is coincident

    def test_descent_peak_memory(self):
        # the soft objective's n x n temporaries: 65 n^2 bytes at the peak
        # (a rejected candidate's distances are freed before the next one)
        n = 200
        cfg = OptimizerConfig(n=n, init="random", seed=1)
        betas, steps = opt._schedules(n)
        z0 = opt._initial_points(cfg, 0)
        tracemalloc.start()
        try:
            opt._descend(z0, 2.0, 2.0, betas, steps, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 68 * n * n


class TestNumpyAssumptions:
    """Properties of numpy that the fast paths' bit identity rests on.  A numpy
    whose kernels break one of them fails here first."""

    @staticmethod
    def complex_sample(size, seed=0):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3, size)
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    def test_hypot_equals_scalar_abs(self):
        z = self.complex_sample(20000)
        scalar = np.array([abs(v) for v in z])
        assert same_bits(np.hypot(z.real, z.imag), scalar)

    def test_abs_of_difference_rows_is_position_free(self):
        # polish scores a window of moves as one 2-D |z - z_j| array
        z = self.complex_sample(61)
        zs = self.complex_sample(37, seed=1)
        block = np.abs(z[None, :] - zs[:, None])
        assert all(same_bits(block[j], np.abs(z - zs[j])) for j in range(zs.size))

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0, 64.0, 1.0 / 64.0, 1.0 / 3.0])
    def test_power_is_the_same_on_short_arrays(self, p):
        u = np.random.default_rng(2).uniform(0.0, 1.0, 4099)
        full = u ** p
        for size in (1, 2, 3, 7, 8, 9, 48):
            for start in (0, 1, 5, 4000):
                assert same_bits(u[start:start + size] ** p, full[start:start + size])

    def test_row_sums_equal_one_dimensional_sums(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 12, 30, 61, 300):
            block = rng.uniform(0.0, 1.0, (48, n)) ** 3.0
            sums = block.sum(axis=1)
            assert all(same_bits(sums[j], np.sum(block[j].copy())) for j in range(48))

    def test_exp_floor_is_exact(self):
        x = -np.random.default_rng(4).uniform(0.0, 2000.0, (40, 40))
        x[0, 0] = -np.inf
        floored = np.zeros_like(x)
        np.exp(x, out=floored, where=x > opt._EXP_FLOOR)
        assert same_bits(floored, np.exp(x))
