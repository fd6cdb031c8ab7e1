import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from branchknot.cpoly import CPoly


def coeffs_equal(p, q):
    return p.coeffs.shape == q.coeffs.shape and np.array_equal(p.coeffs, q.coeffs)


class TestArithmetic:
    def test_add_cancellation(self):
        s = CPoly([1, 1]) + CPoly([-1, 1])
        assert coeffs_equal(s, CPoly([0, 2]))

    def test_add_identity(self):
        p = CPoly([2, 0, 1j])
        assert coeffs_equal(p + CPoly.zero(), p)

    def test_add_disjoint_support(self):
        s = CPoly([0, 0, 1]) + CPoly([0, 0, 0, 1])
        assert coeffs_equal(s, CPoly([0, 0, 1, 1]))

    def test_mul_monomials(self):
        assert coeffs_equal(CPoly([0, 1]) * CPoly([0, 0, 0, 1]),
                            CPoly.monomial(4))

    def test_mul_identity(self):
        p = CPoly([3, -2j, 1])
        assert coeffs_equal(p * CPoly([1]), p)

    def test_mul_conjugate_factors(self):
        assert coeffs_equal(CPoly([1, 1]) * CPoly([1, -1]), CPoly([1, 0, -1]))

    def test_mul_degree_adds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = CPoly(rng.standard_normal(rng.integers(1, 9)) + 0j)
            q = CPoly(rng.standard_normal(rng.integers(1, 9)) + 0j)
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).degree == p.degree + q.degree


class TestCalculus:
    def test_derivative(self):
        assert coeffs_equal(CPoly.monomial(3).derivative(), CPoly([0, 0, 3]))
        assert CPoly([5]).derivative().is_zero
        assert coeffs_equal(CPoly([0, 0, 0.5]).derivative(), CPoly([0, 1]))

    def test_antiderivative(self):
        assert coeffs_equal(CPoly([0, 1]).antiderivative(), CPoly([0, 0, 0.5]))
        assert CPoly.zero().antiderivative().is_zero
        assert coeffs_equal(CPoly([0, 0, 3]).antiderivative(), CPoly.monomial(3))

    def test_round_trip_exact_for_power_of_two_divisors(self):
        # degree <= 1 integrates with divisors 1 and 2: exact for any float
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = CPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert coeffs_equal(p.antiderivative().derivative(), p)

    def test_round_trip_within_one_ulp(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = CPoly(rng.standard_normal(12) + 1j * rng.standard_normal(12))
            back = p.antiderivative().derivative()
            np.testing.assert_allclose(back.coeffs, p.coeffs, rtol=5e-16, atol=0)

    def test_antiderivative_vanishes_at_zero(self):
        p = CPoly([3, 2, 1]).antiderivative()
        assert p(0) == 0


class TestEval:
    def test_examples(self):
        assert CPoly.monomial(2)(2.0) == 4.0
        p = CPoly([7, 1, 2])
        assert p(0) == 7
        assert CPoly([1, 1])(1j) == 1 + 1j

    def test_eval_of_product_matches(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            np_, nq = rng.integers(1, 21), rng.integers(1, 21)
            p = CPoly(rng.standard_normal(np_) + 1j * rng.standard_normal(np_))
            q = CPoly(rng.standard_normal(nq) + 1j * rng.standard_normal(nq))
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            lhs = (p * q)(z)
            rhs = p(z) * q(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_vectorized(self):
        p = CPoly([1, 0, 1])
        zs = np.array([0, 1, 1j])
        assert np.allclose(p(zs), [1, 2, 0])


class TestValuation:
    def test_examples(self):
        assert CPoly([0, 0, 1, 0, 0, 1]).valuation() == 2
        assert CPoly.zero().valuation() == math.inf
        # a coefficient below 1e-10 of the largest one counts as zero
        assert CPoly([0, 1e-14, 0, 1]).valuation() == 3

    def test_additive_under_product(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = CPoly.monomial(rng.integers(0, 5)) * CPoly(
                rng.standard_normal(3) + 1j * rng.standard_normal(3) + 10)
            q = CPoly.monomial(rng.integers(0, 5)) * CPoly(
                rng.standard_normal(3) + 1j * rng.standard_normal(3) + 10)
            assert (p * q).valuation() == p.valuation() + q.valuation()


class TestRoots:
    def test_simple(self):
        r = sorted(CPoly([-1, 0, 1]).roots(), key=lambda c: c.real)
        assert np.allclose(r, [-1, 1])

    def test_double_root_at_zero(self):
        assert np.allclose(CPoly.monomial(2).roots(), [0, 0])

    def test_planted_cubic(self):
        planted = np.array([1.0, 1j, 2.0])
        p = CPoly(np.poly(planted)[::-1])
        got = p.roots()
        cost = np.abs(got[:, None] - planted[None, :])
        ri, ci = linear_sum_assignment(cost)
        assert cost[ri, ci].max() < 1e-8

    def test_planted_random_in_disk(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(2, 9)
            planted = rng.uniform(0.1, 0.9, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            p = CPoly(np.poly(planted)[::-1])
            got = p.roots()
            cost = np.abs(got[:, None] - planted[None, :])
            ri, ci = linear_sum_assignment(cost)
            assert cost[ri, ci].max() < 1e-8

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            CPoly([3]).roots()
        with pytest.raises(ValueError):
            CPoly.zero().roots()


def test_zero_polynomial_canonical():
    assert CPoly([0, 0, 0]).is_zero
    assert CPoly([0, 0, 0]).degree == -1
    assert CPoly.zero()(0.5 + 0.5j) == 0


def test_shift_down():
    p = CPoly([0, 0, 2, 3])
    assert coeffs_equal(p.shift_down(2), CPoly([2, 3]))
    with pytest.raises(ValueError):
        CPoly([1, 2]).shift_down(1)


def test_wire_format_round_trip():
    p = CPoly([1 + 2j, 0, -3j])
    assert coeffs_equal(CPoly.from_pairs(p.to_pairs(), "p"), p)
