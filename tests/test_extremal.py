"""Separation functionals, leading-order constants, and convergence tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distinct_points
from eigencond.conditioning import condition_report_diagonal
from eigencond.errors import NumericalError
from eigencond.extremal import (_growth_scale, convergence_study, modulus_p_norm,
                                proposition_constant, separation_functional)
from eigencond.lattice import Configuration, first_n_lattice_points

INF = math.inf


def equilateral_triangle():
    # side 1, centered at the origin: circumradius 1/sqrt(3)
    return Configuration([np.exp(2j * math.pi * k / 3) / math.sqrt(3.0) for k in range(3)])


class TestSeparationFunctional:
    def test_two_points(self):
        c = Configuration([0.0, 1.0])
        assert separation_functional(c, 2.0) == 1.0
        assert separation_functional(c, INF) == 1.0

    def test_equilateral_triangle_is_unity(self):
        assert separation_functional(equilateral_triangle(), 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_duplicates_give_infinity(self):
        assert math.isinf(separation_functional(Configuration([1.0, 1.0]), 2.0))

    def test_rejects_bad_p_and_small_n(self):
        c = Configuration([0.0, 1.0])
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                separation_functional(c, bad)
        with pytest.raises(ValueError):
            separation_functional(Configuration([1.0]), 2.0)

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        z = random_distinct_points(rng, 8, min_gap=0.1)
        for p in (1.0, 2.0, 4.0, INF):
            base = separation_functional(Configuration(z), p)
            for t in (1e-3, 1.0, 1e3):
                scaled = separation_functional(Configuration(t * z), p)
                assert abs(scaled - base) <= 1e-10 * base

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        z = random_distinct_points(rng, 8, min_gap=0.1)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        for p in (1.0, 2.0, INF):
            base = separation_functional(Configuration(z), p)
            rotated = separation_functional(Configuration(np.exp(1j * theta) * z), p)
            assert abs(rotated - base) <= 1e-10 * base

    def test_nonincreasing_in_p(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            z = random_distinct_points(rng, 10, min_gap=0.2)
            values = [separation_functional(Configuration(z), p) for p in (1.0, 2.0, 4.0, INF)]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi * (1.0 + 1e-12)

    def test_large_p_does_not_overflow(self):
        c = first_n_lattice_points(50)
        value = separation_functional(c, 200.0)
        assert math.isfinite(value)
        assert value >= separation_functional(c, INF)


class TestPropositionConstant:
    def test_p2_closed_form(self):
        c2 = proposition_constant(2.0)
        assert c2 == pytest.approx(3.0 ** 0.25 / (2.0 * math.sqrt(math.pi)), rel=1e-15)
        assert c2 == pytest.approx(0.3712565, rel=1e-5)

    def test_pinf_closed_form(self):
        cinf = proposition_constant(INF)
        assert cinf == pytest.approx(3.0 ** 0.25 / math.sqrt(2.0 * math.pi), rel=1e-15)
        assert cinf == pytest.approx(0.5250375, rel=1e-5)

    def test_sqrt2_identity(self):
        assert proposition_constant(2.0) == pytest.approx(
            proposition_constant(INF) / math.sqrt(2.0), rel=1e-15)

    def test_large_p_limit(self):
        cinf = proposition_constant(INF)
        assert abs(proposition_constant(1e3) - cinf) / cinf < 0.01

    def test_rejects_nonpositive_p(self):
        for bad in (0.0, -2.0, math.nan):
            with pytest.raises(ValueError):
                proposition_constant(bad)


class TestTheoremLinkage:
    def test_diagonal_aggregates_equal_functionals_exactly(self):
        rng = np.random.default_rng(17)
        configs = [first_n_lattice_points(50), Configuration(random_distinct_points(rng, 20, 0.2))]
        for c in configs:
            report = condition_report_diagonal(c)
            assert report.kappa_max_frob == separation_functional(c, 2.0)
            assert report.kappa_max_op == separation_functional(c, INF)


class TestConvergenceStudy:
    def test_row_structure(self):
        rows = convergence_study(2.0, [100, 400])
        assert [r.n for r in rows] == [100, 400]
        for row in rows:
            assert row.scale == float(row.n)  # n^(1/2 + 1/2)
            assert row.ratio == row.raw / row.scale
            assert row.target == proposition_constant(2.0)

    def test_infinite_p_scale_is_sqrt_n(self):
        (row,) = convergence_study(INF, [100])
        assert row.scale == 10.0

    def test_lattice_ratios_approach_target(self):
        rows = convergence_study(2.0, [100, 1000])
        devs = [abs(r.ratio - r.target) / r.target for r in rows]
        assert devs[0] < 0.01
        assert devs[1] < devs[0]

    def test_custom_generator(self):
        calls = []

        def gen(n):
            calls.append(n)
            return first_n_lattice_points(n)

        rows = convergence_study(INF, [10, 20], generator=gen)
        assert calls == [10, 20]
        assert all(math.isfinite(r.ratio) for r in rows)

    def test_rejects_bad_n_values(self):
        with pytest.raises(ValueError):
            convergence_study(2.0, [])
        with pytest.raises(ValueError):
            convergence_study(2.0, [100, 100])
        with pytest.raises(ValueError):
            convergence_study(2.0, [200, 100])


class TestConvergenceMargin:
    """The margin ratio / target of a convergence_study row (the asymptotics
    column) is S_p over the leading-order value c_p * n^(1/2+1/p)."""

    @staticmethod
    def row(config, p=2.0):
        (row,) = convergence_study(p, [config.n], generator=lambda n: config)
        return row

    def test_antipodal_pair(self):
        row = self.row(Configuration([-0.5, 0.5]))
        assert row.raw == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert row.target * row.scale == pytest.approx(2.0 * proposition_constant(2.0),
                                                       rel=1e-15)
        # closed form: sqrt(pi) / (sqrt(2) * 3^(1/4))
        expected_margin = math.sqrt(math.pi) / (math.sqrt(2.0) * 3.0 ** 0.25)
        assert row.ratio / row.target == pytest.approx(expected_margin, rel=1e-12)
        assert row.ratio / row.target < 1.0  # legal at finite n: the value is asymptotic

    def test_equilateral_triangle(self):
        row = self.row(equilateral_triangle())
        assert row.raw == pytest.approx(1.0, rel=1e-12)
        expected_margin = 2.0 * math.sqrt(math.pi) / (3.0 * 3.0 ** 0.25)
        assert row.ratio / row.target == pytest.approx(expected_margin, rel=1e-12)

    def test_lattice_10k(self):
        row = self.row(first_n_lattice_points(10_000))
        assert 0.97 <= row.ratio / row.target <= 1.05


class TestFloatRange:
    """A result beyond the float range raises NumericalError, not OverflowError."""

    def test_p_norm_overflow(self):
        with pytest.raises(NumericalError):
            modulus_p_norm([1.0, 0.5, 0.25], 0.001)  # 3^1000
        with pytest.raises(NumericalError):
            separation_functional(first_n_lattice_points(5), 0.001)
        with pytest.raises(NumericalError):
            convergence_study(0.001, [100, 200])

    def test_growth_scale_overflow(self):
        # the p-norm of the moduli {0, 1} is 1 at every p, so only the scale
        # n^(1/2 + 1/p) leaves the float range
        pair = Configuration([0.0, 1.0])
        assert separation_functional(pair, 0.0005) == 1.0
        with pytest.raises(NumericalError):
            _growth_scale(2, 0.0005)
        with pytest.raises(NumericalError):
            convergence_study(0.0005, [2], generator=lambda n: pair)

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.sampled_from([0.01, 0.5, 1.0, 2.0, 3.0, 64.0, 1000.0]))
    def test_values_in_range_keep_their_bits(self, seed, p):
        m = np.abs(np.random.default_rng(seed).standard_normal(17))
        top = float(m.max())
        expected = top * float(np.sum((m / top) ** p)) ** (1.0 / p)
        assert repr(modulus_p_norm(m, p)) == repr(expected)
