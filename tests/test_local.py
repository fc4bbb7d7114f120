"""p-adic densities: histograms, unit exponential sums, local factors.

Histograms and exponential sums are cross-checked against direct brute-force
enumeration; local factors against the exact rational partial sums.
"""
import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from sympy import totient

from circlekit.local import (B_of_q, BudgetExceeded, mu_p, nu_count,
                             padic_nonsingular_witness, singular_series,
                             unit_exp_sum, unit_residues, value_histogram)
from circlekit.poly import parse_polynomial


def brute_histogram(b, q, units):
    dom = [x for x in range(q) if math.gcd(x, q) == 1] if q > 1 and units \
        else list(range(q)) if not units else [0]
    if q == 1:
        dom = [0]
    hist = [0] * q
    for pt in product(dom, repeat=b.n):
        hist[b.evaluate(pt) % q] += 1
    return hist


def brute_unit_exp_sum(b, m, q):
    if q == 1:
        return 1.0 + 0j
    dom = [x for x in range(q) if math.gcd(x, q) == 1]
    return sum(cmath.exp(2j * cmath.pi * m * b.evaluate(pt) / q)
               for pt in product(dom, repeat=b.n))


POLYS = [
    "n=1\n1 1\n",                                  # x1
    "n=2\n1 2 0\n1 0 2\n-5 0 0\n",                 # x1^2 + x2^2 - 5
    "n=2\n1 1 0\n1 0 1\n-6 0 0\n",                 # x1 + x2 - 6
    "n=2\n1 1 1\n1 1 0\n",                         # non-separable: x1 x2 + x1
    "n=3\n2 1 0 0\n3 0 2 0\n-1 0 0 3\n",           # mixed degrees
]


class TestHistograms:
    @pytest.mark.parametrize("text", POLYS)
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12])
    def test_matches_brute_force(self, text, q):
        b = parse_polynomial(text)
        got = value_histogram(b, q, units=True)
        assert [int(x) for x in got] == brute_histogram(b, q, True)

    @pytest.mark.parametrize("q", [2, 3, 6, 8])
    def test_full_residue_mode(self, q):
        b = parse_polynomial("n=2\n1 2 0\n-1 0 1\n")
        got = value_histogram(b, q, units=False)
        assert [int(x) for x in got] == brute_histogram(b, q, False)

    def test_unit_convention_q1(self):
        assert list(unit_residues(1)) == [0]
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n")
        hist = value_histogram(b, 1, units=True)
        assert int(hist[0]) == 1

    def test_totals(self):
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        q = 9
        hist = value_histogram(b, q, units=True)
        assert int(np.sum(hist)) == len(unit_residues(q)) ** 2

    def test_budget_guard(self):
        b = parse_polynomial("n=2\n1 1 1\n")       # not separable
        with pytest.raises(BudgetExceeded):
            value_histogram(b, 97, budget=100)
        separable = parse_polynomial("n=2\n1 1 0\n1 0 1\n")
        with pytest.raises(BudgetExceeded):
            value_histogram(separable, 10 ** 4, units=False, budget=100)


class TestExponentialSums:
    @pytest.mark.parametrize("text", POLYS[:4])
    @pytest.mark.parametrize("q,m", [(1, 0), (3, 1), (4, 3), (5, 2), (9, 4)])
    def test_unit_sum_matches_brute(self, text, q, m):
        b = parse_polynomial(text)
        if q > 1 and math.gcd(m, q) != 1:
            return
        got = unit_exp_sum(b, m, q)
        assert abs(got - brute_unit_exp_sum(b, m, q)) < 1e-9

    def test_unit_sum_rejects_nonunit(self):
        b = parse_polynomial("n=1\n1 1\n")
        with pytest.raises(ValueError):
            unit_exp_sum(b, 2, 4)

    @pytest.mark.parametrize("text", POLYS[:4])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_B_is_average_of_unit_sums(self, text, q):
        b = parse_polynomial(text)
        phin = int(totient(q)) ** b.n
        direct = sum(brute_unit_exp_sum(b, m, q)
                     for m in range(q) if math.gcd(m, q) == 1) / phin
        assert abs(B_of_q(b, q) - direct) < 1e-9

    def test_B_at_one(self):
        b = parse_polynomial("n=2\n1 1 1\n")
        assert B_of_q(b, 1) == 1.0

    def test_B_nearly_real(self):
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        for q in (3, 4, 5, 7, 9, 16):
            assert abs(B_of_q(b, q).imag) < 1e-9


class TestUnitSolutionCounts:
    def brute_nu(self, b, p, t):
        q = p ** t
        dom = [x for x in range(q) if x % p]
        return sum(1 for pt in product(dom, repeat=b.n)
                   if b.evaluate(pt) % q == 0)

    @pytest.mark.parametrize("text", POLYS[:4])
    @pytest.mark.parametrize("p,t", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (5, 1), (7, 1)])
    def test_matches_brute(self, text, p, t):
        b = parse_polynomial(text)
        assert nu_count(b, p, t).nu == self.brute_nu(b, p, t)

    def test_lifting_path_agrees(self):
        # force the fallback by starving the histogram budget
        b = parse_polynomial("n=2\n1 1 1\n-1 0 0\n")   # x1 x2 = 1
        got = nu_count(b, 3, 3, budget=100)
        assert got.nu == self.brute_nu(b, 3, 3)


class TestLocalFactors:
    def test_partial_sums_are_the_nu_ratios(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        f = mu_p(b, 3, t_max=3)
        for t, s in enumerate(f.partial_sums, start=1):
            nu = nu_count(b, 3, t).nu
            phin = int(totient(3 ** t)) ** b.n
            assert s == Fraction(3 ** t * nu, phin)

    def test_complex_partials_match_rational(self):
        # 1 + sum_{j<=t} B(p^j) equals the rational partial sum
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        for p in (2, 3, 5, 7):
            f = mu_p(b, p, t_max=3)
            acc = 1.0 + 0j
            for t in range(1, len(f.partial_sums) + 1):
                acc += B_of_q(b, p ** t)
                assert abs(acc - float(f.partial_sums[t - 1])) < 1e-9

    def test_vanishing_factor(self):
        b = parse_polynomial("n=1\n1 1\n")      # x1 = 0 has no unit solution
        f = mu_p(b, 2)
        assert f.mu_p == 0 and f.stabilized_at == 1

    def test_odd_prime_stabilization(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        f = mu_p(b, 5, t_max=4)
        assert f.stabilized_at is not None
        assert f.partial_sums[-1] == f.partial_sums[f.stabilized_at - 1]

    def test_series_product_and_tail(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        est, factors = singular_series(b, 30, t_max=4)
        direct = 1.0
        for f in factors:
            direct *= float(f.mu_p)
        assert est.product == pytest.approx(direct, rel=1e-12)
        assert est.tail_bound >= 0
        assert {f.p for f in factors} == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}

    def test_series_zero_obstruction(self):
        b = parse_polynomial("n=1\n1 1\n")
        est, _ = singular_series(b, 10)
        assert est.product == 0.0


class TestWitnesses:
    def test_witness_found(self):
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        w = padic_nonsingular_witness(b, 5)
        assert w is not None
        assert b.evaluate(w.point) % w.modulus == 0
        g = b.gradient()[w.unit_gradient_index - 1]
        assert g.evaluate(w.point) % 5 != 0

    def test_no_witness_for_obstructed(self):
        b = parse_polynomial("n=1\n1 1\n")      # units never solve x = 0
        assert padic_nonsingular_witness(b, 2) is None
