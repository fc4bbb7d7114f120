"""p-adic densities: histograms, unit exponential sums, local factors.

Histograms and exponential sums are cross-checked against direct brute-force
enumeration; local factors against the exact rational partial sums.
"""
import cmath
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from sympy import totient

from circlekit import local
from circlekit.local import (B_of_q, _linear_split, mu_p, nu_count,
                             singular_series, unit_exp_sum, unit_residues,
                             value_histogram)
from circlekit.poly import (BudgetExceeded, Polynomial, gram_matrix,
                            parse_polynomial, residue_histogram)
from circlekit.primes import primes_up_to


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
# ((x1 - x2)^2 + 27 x3)(x1 - 2 x2): at p = 3 its partial sums read
# 3, 6, 6, 3/2, 3/2, 3/2, so two equal ones do not make a limit
SINGULAR_AT_3 = ("n=3\n1 3 0 0\n-4 2 1 0\n5 1 2 0\n-2 0 3 0\n27 1 0 1\n"
                 "-54 0 1 1\n")
# 1 x1^3 + 2 x2^3 + 4 x3^3 + 5 x4^3: at p = 3 a budget of 300 fits its
# histograms mod 9, not mod 27, and a budget of 100 neither those nor the
# root's 6 singular zeros
DISTINCT_CUBES = "n=4\n1 3 0 0 0\n2 0 3 0 0\n4 0 0 3 0\n5 0 0 0 3\n"


def cubes(n):
    """x1^3 + ... + xn^3: at p = 3 every unit zero is singular."""
    return Polynomial(n, {tuple(3 if j == i else 0 for j in range(n)): 1
                          for i in range(n)})


SINGULAR = [
    SINGULAR_AT_3,
    "n=3\n1 3 0 0\n1 0 3 0\n1 0 0 3\n-3 0 0 0\n",  # every zero mod 3 singular
    "n=2\n3 2 0\n3 0 2\n-6 0 0\n",                  # content 3
]


class TestHistograms:
    @pytest.mark.parametrize("text", POLYS)
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12])
    def test_matches_brute_force(self, text, q):
        b = parse_polynomial(text)
        got = value_histogram(b, q)
        assert [int(x) for x in got] == brute_histogram(b, q, True)

    @pytest.mark.parametrize("q", [2, 3, 6, 8])
    def test_full_residue_mode(self, q):
        # all of (Z/q)^n: the residue histogram of weight 1 everywhere
        b = parse_polynomial("n=2\n1 2 0\n-1 0 1\n")
        got = residue_histogram(b, q, np.ones(q, np.int64))
        assert [int(x) for x in got] == brute_histogram(b, q, False)

    def test_unit_convention_q1(self):
        assert list(unit_residues(1)) == [0]
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n")
        hist = value_histogram(b, 1)
        assert int(hist[0]) == 1

    def test_totals(self):
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        q = 9
        hist = value_histogram(b, q)
        assert int(np.sum(hist)) == len(unit_residues(q)) ** 2

    def test_budget_guard(self, enum_limit):
        b = parse_polynomial("n=2\n1 1 1\n")       # not separable
        separable = parse_polynomial("n=2\n1 1 0\n1 0 1\n")
        with enum_limit(100):
            with pytest.raises(BudgetExceeded):
                value_histogram(b, 97)
            with pytest.raises(BudgetExceeded):     # before any allocation
                value_histogram(b, 10 ** 16 + 61)
            with pytest.raises(BudgetExceeded):
                residue_histogram(separable, 10 ** 4,
                                  np.ones(10 ** 4, np.int64))


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

    def test_B_checks_the_budget_before_allocating(self, enum_limit):
        # q = 10^6 + 3 residues, units and a length-q DFT took 46 MB
        # before the histogram's own check refused the modulus
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        tracemalloc.start()
        try:
            with enum_limit(1000), pytest.raises(BudgetExceeded):
                B_of_q(b, 10 ** 6 + 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestUnitSolutionCounts:
    def brute_nu(self, b, p, t):
        q = p ** t
        dom = [x for x in range(q) if x % p]
        return sum(1 for pt in product(dom, repeat=b.n)
                   if b.evaluate(pt) % q == 0)

    @pytest.mark.parametrize("text", POLYS[:4] + SINGULAR)
    @pytest.mark.parametrize("p,t", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (3, 3), (5, 1), (7, 1)])
    def test_matches_brute(self, text, p, t):
        b = parse_polynomial(text)
        assert nu_count(b, p, t).nu == self.brute_nu(b, p, t)

    def test_many_singular_zeros_of_a_diagonal_form(self):
        # 1,398,102 singular unit zeros mod 3, none of them walked
        b = cubes(22)
        assert nu_count(b, 3, 2).nu == value_histogram(b, 9)[0]

    def test_histograms_beyond_a_cut_tree(self, enum_limit):
        # 8 distinct cubes on a budget of 1000: the tree is cut at the
        # root's singular zeros, histograms count mod 9 but not mod 27
        b = distinct_cubes([1, 2, 4, 5, 7, 8, 10, 11])
        with enum_limit(1000):
            assert nu_count(b, 3, 2).nu == value_histogram(b, 9)[0]
            with pytest.raises(BudgetExceeded):
                nu_count(b, 3, 3)
        # 4 on a budget of 300: the tree, with no histogram, reaches mod 27
        b = parse_polynomial(DISTINCT_CUBES)
        with enum_limit(300):
            assert nu_count(b, 3, 2).nu == self.brute_nu(b, 3, 2)
            assert nu_count(b, 3, 3).nu == self.brute_nu(b, 3, 3)

    def test_linear_children_charged_their_walk(self, enum_limit):
        # 3 (x1 x2 + x3) at p = 3: the 8 unit zeros mod 3 are all singular,
        # and the 4 with x1 x2 + x3 = 0 mod 3 refine to nodes linear in
        # y3 that walk 3^2 rows, the other 4 to nodes that are nonzero
        # constants mod 3, with no zero to walk for.  The root walks 2^3
        # points and must leave room for 8 children at the least walk, 3^2,
        # before it refines them: 8 + 8 * 9 = 80, of which 8 + 4 * 9 = 44
        # is spent.  Walking the constant nodes' 3^3 points each took 152.
        b = parse_polynomial("n=3\n3 1 1 0\n3 0 0 1\n")
        with enum_limit(80):
            f = mu_p(b, 3, t_max=3)
        assert f.flags == () and f.method == "hensel_tree(1)"
        assert f.nu_values == [self.brute_nu(b, 3, t) for t in (1, 2, 3)]
        with enum_limit(79):
            assert mu_p(b, 3, t_max=3).flags != ()

    def test_lifting_path_agrees(self, enum_limit):
        # a non-separable b takes the tree, even on a small budget
        b = parse_polynomial("n=2\n1 1 1\n-1 0 0\n")   # x1 x2 = 1
        with enum_limit(100):
            got = nu_count(b, 3, 3)
        assert got.nu == self.brute_nu(b, 3, 3)

    @pytest.mark.parametrize("p", [2, 3, 5, 19])
    def test_refine_matches_compose(self, p):
        # the coefficients of g(x0 + p y), read by the binomial theorem,
        # against the composition into the variables y
        rng = random.Random(p)
        for _ in range(30):
            n = rng.randint(1, 3)
            g = Polynomial(n, {tuple(rng.randint(0, 3) for _ in range(n)):
                               rng.randint(-30, 30) for _ in range(5)})
            rows = np.array([[rng.randint(0, p - 1) for _ in range(n)]
                             for _ in range(4)], dtype=np.int64)
            y = [Polynomial.variable(n, i + 1) for i in range(n)]
            want = [local._divided(n, g.compose(
                [int(x) + p * y[i] for i, x in enumerate(row)], n).terms, p)
                for row in rows]
            assert list(local._refine(g, rows, p)) == want, (g, p)


class TestLinearVariable:
    """b = A x_j + B: where A(x') is a unit the zero x_j is solved for, not
    enumerated; the counts must be those of the histograms."""

    # (x2 - x3) x1 + x2 - x3: A = B = 0 on the rows x2 = x3
    VANISHING = "n=3\n1 1 1 0\n-1 1 0 1\n1 0 1 0\n-1 0 0 1\n"
    # x1 x2 + x2 + x3: where x3 = -x2 the solved x1 is 0, not a unit
    NONUNIT = "n=3\n1 1 1 0\n1 0 1 0\n1 0 0 1\n"
    CONE = "n=3\n1 1 1 0\n-1 0 0 2\n"

    @pytest.mark.parametrize("text,p", [
        (SINGULAR_AT_3, 3),         # A = 27 (x1 - 2 x2) = 0 mod 3
        (SINGULAR_AT_3, 5),         # A vanishes on the rows x1 = 2 x2
        (VANISHING, 2), (VANISHING, 3), (VANISHING, 5),
        (NONUNIT, 2), (NONUNIT, 3), (NONUNIT, 5),
        (CONE, 2), (CONE, 3), (CONE, 5),
    ])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_histograms(self, text, p, t):
        b = parse_polynomial(text)
        assert nu_count(b, p, t).nu == value_histogram(b, p ** t)[0]

    def test_path_taken(self):
        assert _linear_split(parse_polynomial(SINGULAR_AT_3), 3) is None
        assert _linear_split(parse_polynomial(SINGULAR_AT_3), 5)[0] == 3
        assert _linear_split(parse_polynomial(self.CONE), 3)[0] == 1

    def test_unit_constraint_at_the_root(self):
        # x1 x2 + x2 + x3 mod 5: A = x2 is a unit on every row, and B is
        # zero on the 4 rows x3 = -x2, whose solved x1 = 0 is no unit
        b = parse_polynomial(self.NONUNIT)
        assert nu_count(b, 5, 1).nu == 16 - 4

    def test_zero_rows_charged_before_expansion(self, monkeypatch,
                                                enum_limit):
        # at p = 7 the root walks 6^2 rows x' and 6 of them have
        # A = B = 0; expanding those costs 6 * 6 more, 72 in all
        b = parse_polynomial(self.VANISHING)
        expanded = []
        real = local._expand
        monkeypatch.setattr(local, "_expand",
                            lambda *a: expanded.append(a) or real(*a))
        with enum_limit(71), pytest.raises(BudgetExceeded):
            nu_count(b, 7, 1)
        assert expanded == []
        with enum_limit(72):
            nu = nu_count(b, 7, 1).nu
        assert nu == value_histogram(b, 7)[0] == 6 * 6 + 6 * 5


def random_separable(rng, p):
    """c + f_1(x_1) + ... + f_n(x_n), n <= 3, each f_i a monomial or a
    binomial, coefficients often divisible by p, at least one monomial."""
    n = rng.randint(1, 3)
    terms = {(0,) * n: rng.randint(-20, 20)}
    for i in range(n):
        e = [0] * n
        for d in rng.sample(range(1, 5), 1 if i == 0 else rng.randint(1, 2)):
            e[i] = d
            terms[tuple(e)] = rng.choice([1, -1]) * rng.randint(1, 4) * \
                p ** rng.choice([0, 0, 1, 2])
    return Polynomial(n, terms)


def distinct_cubes(a):
    """sum a_i x_i^3 over the coefficients ``a``."""
    n = len(a)
    return Polynomial(n, {tuple(3 if j == i else 0 for j in range(n)): c
                          for i, c in enumerate(a)})


class TestHenselValuation:
    """A separable b with a monomial part a x_i^d: levels t <= 2 v_p(a d) + 1
    from histograms, the rest by Hensel's valuation lemma.  Counts must be
    those of the Hensel tree, and the level it proves no later."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_forms_match_the_tree(self, p):
        rng = random.Random(p)
        for _ in range(40):
            b = random_separable(rng, p)
            tau = local._lemma_tau(b, p)
            nus, closing, method, cut = local._hensel_valuation(
                b, p, 4, tau, 10 ** 8)
            tree, proved, _, _ = local._hensel_tree(b, p, 4, 10 ** 8)
            assert nus == tree and cut is None, b
            assert method == f"hensel_valuation({tau})"
            if proved is not None:
                assert closing is not None and closing <= proved, b

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_small_budgets_never_lose_to_the_tree(self, p):
        # whichever path _levels takes, it counts no fewer levels than the
        # tree on the same budget, and proves a level wherever the tree does
        rng = random.Random(10 + p)
        for _ in range(40):
            b = random_separable(rng, p)
            full = local._hensel_tree(b, p, 4, 10 ** 8)[0]
            for budget in (30, 300, 3000):
                nus, closing, _, _ = local._levels(b, p, 4, budget)
                tree, proved, _, _ = local._hensel_tree(b, p, 4, budget)
                assert nus == full[:len(nus)] and len(nus) >= len(tree), b
                if proved is not None:
                    assert closing is not None and closing <= proved, b

    @pytest.mark.parametrize("text,p", [
        ("n=2\n3 2 0\n1 0 2\n-1 0 0\n", 3),        # p | a: 3 x1^2 + x2^2 - 1
        ("n=2\n1 3 0\n1 0 2\n1 0 1\n", 2),          # x1^3 + (x2^2 + x2)
        ("n=2\n1 3 0\n1 0 2\n1 0 1\n", 3),
        ("n=2\n1 3 0\n1 0 2\n1 0 1\n", 5),
        ("n=1\n1 2\n-3 0\n", 2),                    # x1^2 = 3: none mod 4
    ])
    def test_small_forms_match_brute(self, text, p):
        b = parse_polynomial(text)
        f = mu_p(b, p, t_max=3)
        brute = TestUnitSolutionCounts().brute_nu
        assert f.nu_values == [brute(b, p, t)
                               for t in range(1, len(f.nu_values) + 1)]
        assert f.stabilized_at is not None and f.flags == ()

    def test_no_monomial_part_takes_the_tree(self):
        # (x1^3 + 3 x1) + (x2^3 + 3 x2): every zero mod 3 is singular
        b = parse_polynomial("n=2\n1 3 0\n3 1 0\n1 0 3\n3 0 1\n")
        assert local._lemma_tau(b, 3) is None
        f = mu_p(b, 3, t_max=4)
        assert f.method == "hensel_tree(1)" and f.stabilized_at == 3
        assert f.nu_values == [2, 18, 54, 162]

    def test_distinct_cubes_close(self, enum_limit):
        # sum a_i x_i^3, a_i = 1, 2, 4, 5, ..., 26: no two parts alike, and
        # every unit zero mod 3 singular; tau = v_3(3 a_i) = 1
        b = distinct_cubes([k for k in range(1, 27) if k % 3])
        with enum_limit(10 ** 5):
            f = mu_p(b, 3)
        assert f.mu_p == Fraction(32769, 32768) and f.stabilized_at == 2
        assert f.flags == () and f.method == "hensel_valuation(1)"

    @pytest.mark.parametrize("c", [25, 125])
    def test_a_nonsingular_root_takes_the_tree(self, c, monkeypatch):
        # c x1 + x2^2 + x2 - 2 at p = 5: tau = v_5(c), but both zeros mod 5,
        # x2 = 1 and 3, are nonsingular; walking them costs 16 points, the
        # histogram mod 5^(2 tau + 1) millions of steps or more
        def no_histogram(*args, **kwargs):
            raise AssertionError("histogram read")
        monkeypatch.setattr(local, "value_histogram", no_histogram)
        b = parse_polynomial(f"n=2\n{c} 1 0\n1 0 2\n1 0 1\n-2 0 0\n")
        f = mu_p(b, 5)
        assert f.stabilized_at == 1 and f.flags == ()
        assert f.method == "nonsingular"
        assert f.nu_values == [8 * 5 ** t for t in range(6)]

    def test_tree_when_the_histograms_do_not_fit(self, enum_limit):
        # the histogram mod 27 costs 1368 > 300; the tree proves level 3
        with enum_limit(300):
            f = mu_p(parse_polynomial(DISTINCT_CUBES), 3, t_max=3)
        assert f.nu_values == [6, 162, 4374] and f.stabilized_at == 3
        assert f.method == "hensel_tree(1)" and f.flags == ()

    def test_histograms_count_past_a_cut_tree(self, enum_limit):
        # 8 distinct cubes at p = 3 on a budget of 1000: the tree is cut at
        # the root's singular zeros, histograms mod 9 still fit, mod 27 not
        b = distinct_cubes([1, 2, 4, 5, 7, 8, 10, 11])
        with enum_limit(1000):
            f = mu_p(b, 3, t_max=3)
        assert f.nu_values == [value_histogram(b, 3 ** t)[0] for t in (1, 2)]
        assert f.method == "hensel_valuation(1)" and f.stabilized_at is None
        assert f.flags == ("budget",) and f.cut_at == 3
        # with t_max = 2 both levels are there; the cut past t_max is named
        with enum_limit(1000):
            f = mu_p(b, 3, t_max=2)
        assert len(f.nu_values) == 2 and f.stabilized_at is None
        assert f.flags == ("budget",) and f.cut_at == 3


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

    def test_equal_partial_sums_are_not_a_limit(self):
        b = parse_polynomial(SINGULAR_AT_3)
        f = mu_p(b, 3, t_max=6)
        assert f.partial_sums == [3, 6, 6, Fraction(3, 2), Fraction(3, 2),
                                  Fraction(3, 2)]
        assert f.mu_p == Fraction(3, 2) and f.stabilized_at == 4
        assert f.flags == ()

    def test_method_no_solution(self):
        f = mu_p(parse_polynomial("n=1\n1 1\n"), 2)
        assert f.method == "no_solution" and f.mu_p == 0

    def test_method_nonsingular(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        f = mu_p(b, 5, t_max=4)
        assert f.method == "nonsingular" and f.stabilized_at == 1
        assert len(set(f.partial_sums)) == 1

    def test_method_hensel_tree(self):
        f = mu_p(parse_polynomial(SINGULAR_AT_3), 3, t_max=6)
        assert f.method == "hensel_tree(2)"

    def test_method_when_the_budget_stops_the_root(self, enum_limit):
        with enum_limit(100):
            f = mu_p(parse_polynomial(DISTINCT_CUBES), 3, t_max=3)
        assert f.method == "hensel_tree(0)" and f.nu_values == [6]
        assert f.stabilized_at is None and "budget" in f.flags

    def test_diagonal_form_closes(self):
        b = cubes(22)
        f = mu_p(b, 3, t_max=4)
        assert f.nu_values == [value_histogram(b, 3 ** t)[0]
                               for t in range(1, 5)]
        assert f.stabilized_at == 2 and f.flags == ()
        assert f.method == "hensel_valuation(1)"

    def test_prime_checked_and_budget_before_allocation(self):
        b = parse_polynomial("n=2\n1 2 1\n-1 0 0\n")
        with pytest.raises(ValueError):
            mu_p(b, 6)
        with pytest.raises(ValueError):
            nu_count(b, 6, 1)
        f = mu_p(b, 10 ** 16 + 61)
        assert f.partial_sums == [] and "budget" in f.flags
        with pytest.raises(BudgetExceeded):
            nu_count(b, 10 ** 16 + 61, 1)

    def test_odd_prime_stabilization(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        f = mu_p(b, 5, t_max=4)
        assert f.stabilized_at is not None
        assert f.partial_sums[-1] == f.partial_sums[f.stabilized_at - 1]

    def test_series_sieve_charged_before_it_is_made(self, monkeypatch,
                                                    enum_limit):
        # the sieve's 10^6 + 1 entries are refused before any is allocated
        # and before any mu(p); at 10^10 the sieve took 9.3 GiB
        def fail(*args, **kwargs):
            raise AssertionError("a factor computed before the budget check")

        monkeypatch.setattr(local, "mu_p", fail)
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        tracemalloc.start()
        try:
            with enum_limit(1000), pytest.raises(
                    BudgetExceeded, match="costs 1000001, over budget 1000"):
                singular_series(b, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_series_product_and_tail(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        est, factors = singular_series(b, 30, t_max=4)
        direct = 1.0
        for f in factors:
            direct *= float(f.mu_p)
        assert est.product == pytest.approx(direct, rel=1e-12)
        assert est.tail_bound >= 0
        assert {f.p for f in factors} == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}

    def test_series_shares_one_split(self):
        # every prime reads the same worked-out split of five squares -
        # 12005; each factor equals mu_p on a fresh copy of b
        text = "n=5\n" + "".join(
            "1 " + " ".join("2" if j == i else "0" for j in range(5)) + "\n"
            for i in range(5)) + "-12005 0 0 0 0 0\n"
        _, factors = singular_series(parse_polynomial(text), 60)
        for f in factors:
            assert f == mu_p(parse_polynomial(text), f.p)

    def test_series_numbers_are_plain_floats(self):
        # five squares - 12005 at prime bound 50 fits a tail
        text = "n=5\n" + "".join(
            "1 " + " ".join("2" if j == i else "0" for j in range(5)) + "\n"
            for i in range(5)) + "-12005 0 0 0 0 0\n"
        est, _ = singular_series(parse_polynomial(text), 50)
        assert est.tail_bound > 0
        for value in (est.product, est.tail_exponent, est.tail_bound):
            assert type(value) is float

    def test_series_zero_obstruction(self):
        b = parse_polynomial("n=1\n1 1\n")
        est, _ = singular_series(b, 10)
        assert est.product == 0.0


CONE = "n=3\n1 1 1 0\n-1 0 0 2\n"                 # x1 x2 - x3^2
SQUARES3 = "n=3\n1 2 0 0\n1 0 2 0\n1 0 0 2\n"
FIVE_SQUARES = "n=5\n" + "".join(
    "1 " + " ".join("2" if j == i else "0" for j in range(5)) + "\n"
    for i in range(5)) + "-12005 0 0 0 0 0\n"


def random_form(rng, blocks):
    """A random integral quadratic form plus a constant, with cross terms
    only inside each block of consecutive variables (sizes ``blocks``)."""
    n, cuts, terms = sum(blocks), [0], {}
    for size in blocks:
        cuts.append(cuts[-1] + size)
    for lo, hi in zip(cuts, cuts[1:]):
        for i in range(lo, hi):
            for j in range(i, hi):
                if i == j or rng.random() < 0.7:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 6])
    terms[(0,) * n] = rng.randint(-40, 40)
    return Polynomial(n, terms), blocks


def unit_zeros(b, blocks, p):
    """value_histogram(b, p)[0], with b's additive blocks histogrammed one
    at a time and added mod p."""
    parts, const = b.additive_split(blocks)
    hist = np.zeros(p, dtype=object)
    hist[const % p] = 1
    for part in parts:
        h = np.array(value_histogram(part, p), dtype=object)
        hist = np.array([sum(hist[r] * h[(s - r) % p] for r in range(p))
                         for s in range(p)], dtype=object)
    return int(hist[0])


def odd_good_primes(b, bound):
    """The odd primes p <= bound at which b is Q(x) + c with p not
    dividing det(2 A)."""
    return [p for p in primes_up_to(bound)[1:]
            if local._quadratic_part(b, p) is not None
            and len(local._diagonal(local._quadratic_part(b, p)[0], p)) == b.n]


def today(b, p, t_max=6):
    """mu_p(b, p) as the valuation lemma or the Hensel tree finds it."""
    saved = local._closed_form
    local._closed_form = lambda *args: None
    try:
        return mu_p(b, p, t_max)
    finally:
        local._closed_form = saved


def same_but_method(f, g):
    return all(getattr(f, k) == getattr(g, k) for k in (
        "p", "partial_sums", "mu_p", "stabilized_at", "nu_values", "flags",
        "cut_at"))


class TestClosedForm:
    """Local factors read from Legendre-symbol counts where every unit
    zero mod p is nonsingular (``local._closed_form``)."""

    FORMS = [random_form(random.Random(s), blocks) for s, blocks in enumerate(
        [[1], [1], [2], [2], [2], [3], [3], [3], [3], [1, 1], [2, 1],
         [4], [4], [5], [5], [2, 2], [3, 1], [1, 1, 1, 1], [3, 2], [2, 3],
         [2, 2, 1], [1, 1, 1, 1, 1]])]

    def test_nu1_is_the_histogram_count(self):
        # every block of at most 3 variables is walked whole at every odd
        # good p <= 60; a block of 4 or 5 only where it has at most 2 10^5
        # unit points
        named = [(parse_polynomial(t), [n]) for t, n in
                 ((CONE, 3), (SQUARES3, 3), (FIVE_SQUARES, 5))]
        checked = set()
        for b, blocks in named + self.FORMS:
            for p in odd_good_primes(b, 60):
                if (p - 1) ** max(blocks) > 2 * 10 ** 5:
                    continue
                nus, closing, method, cut = local._closed_form(
                    b, p, 3, 10 ** 8)
                assert (closing, method, cut) == (1, "quadratic_form", None)
                assert nus[0] == unit_zeros(b, blocks, p), (b, p)
                assert nus == [nus[0] * p ** ((b.n - 1) * t)
                               for t in range(3)]
                checked.add((b.n, p > 29))
        assert checked == {(n, big) for n in range(1, 6)
                           for big in (False, True)}

    def test_factors_equal_the_lemma_and_tree(self):
        # at every odd good p <= 200 for the named forms and the separable
        # ones, and where the tree walks at most 4 10^4 unit points for the
        # others
        forms = [parse_polynomial(t) for t in (CONE, SQUARES3, FIVE_SQUARES)]
        forms += [b for b, _ in self.FORMS]
        for k, b in enumerate(forms):
            for p in odd_good_primes(b, 200):
                if k > 2 and not b.variable_split() and \
                        (p - 1) ** b.n > 4 * 10 ** 4:
                    continue
                f = mu_p(b, p)
                g = today(b, p)
                assert same_but_method(f, g), (b, p, f, g)
                assert f.method == ("quadratic_form" if f.mu_p else
                                    "no_solution")
                assert g.method in ("nonsingular", "no_solution")

    def test_cone_and_five_squares(self):
        cone, five = parse_polynomial(CONE), parse_polynomial(FIVE_SQUARES)
        for p in primes_up_to(200)[1:]:
            f = mu_p(cone, p)
            assert f.mu_p == Fraction(p, p - 1)
            assert f.method == "quadratic_form" and f.stabilized_at == 1
        assert mu_p(five, 7).method == "quadratic_form"
        assert mu_p(five, 5).method == "quadratic_form"     # 5 | 12005

    def test_huge_prime_is_exact(self):
        # x1 x2 - 1 has p - 1 unit zeros, all nonsingular
        P = 10 ** 16 + 61
        f = mu_p(parse_polynomial("n=2\n1 1 1\n-1 0 0\n"), P)
        assert f.mu_p == Fraction(P, P - 1)
        assert f.flags == () and f.stabilized_at == 1
        assert f.method == "quadratic_form"
        assert nu_count(parse_polynomial("n=2\n1 1 1\n-1 0 0\n"), P, 2).nu \
            == (P - 1) * P

    @pytest.mark.parametrize("text, p", [
        ("n=2\n1 2 0\n3 0 2\n-1 0 0\n", 3),        # 3 | det(2A) = 12
        ("n=3\n1 1 1 0\n-1 0 0 2\n", 2),           # p = 2 is never a form's
        ("n=2\n1 1 1\n1 1 0\n-5 0 0\n", 7),        # x1 x2 + x1 - 5
        ("n=2\n1 2 0\n1 0 2\n1 1 0\n-5 0 0\n", 5),  # a linear term
        ("n=2\n1 2 1\n-3 0 0\n", 5),               # degree 3
    ])
    def test_other_b_take_the_lemma_or_tree(self, text, p):
        b = parse_polynomial(text)
        f = mu_p(b, p)
        assert f.method != "quadratic_form"
        if p > 2:
            assert local._closed_form(b, p, 6, 10 ** 8) is None
        assert f == today(b, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_quadratic_part_is_b_mod_p(self, p):
        # x^T M x + c = b(x) mod p at random points, cross terms halved
        rng = random.Random(p)
        for blocks in ([1], [2], [3], [2, 1], [4], [3, 2]):
            b = random_form(rng, blocks)[0]
            M, c = local._quadratic_part(b, p)
            for _ in range(20):
                x = [rng.randint(-50, 50) for _ in range(b.n)]
                quad = sum(M[i][j] * x[i] * x[j] for i in range(b.n)
                           for j in range(b.n))
                assert (quad + c - b.evaluate(x)) % p == 0, (b, p, x)
        for text in ("n=2\n1 2 0\n1 1 0\n", "n=2\n1/2 2 0\n1 0 2\n",
                     "n=2\n1 2 1\n", "n=1\n5 0\n"):
            assert local._quadratic_part(parse_polynomial(text), p) is None

    def test_gram_matrix_read_once_per_series(self, monkeypatch):
        # one reading of the cone's form serves its 45 odd primes up to 200
        calls = []
        monkeypatch.setattr(local, "gram_matrix",
                            lambda f: calls.append(f) or gram_matrix(f))
        local._gram.cache_clear()
        _, factors = singular_series(parse_polynomial(CONE), 200)
        assert len(factors) == 46 and len(calls) == 1

    def test_rational_coefficients_are_left_alone(self):
        b = parse_polynomial("n=2\n1/2 2 0\n1 0 2\n-1 0 0\n")
        for p in (2, 5):
            assert local._closed_form(b, p, 6, 10 ** 8) is None

    def test_subsets_priced_against_the_budget(self):
        # the cone's blocks are {x1, x2} and {x3}: 2^2 subsets at 2^3 steps
        # and 2^1 at 1^3, each joined with up to 2 (3 + 1)^2 classes
        b = parse_polynomial(CONE)
        assert local._blocks(local._quadratic_part(b, 7)[0], 7) == \
            [[0, 1], [2]]
        cost = 4 * (8 + 32) + 2 * (1 + 32)
        assert local._closed_form(b, 7, 2, cost - 1) is None
        assert local._closed_form(b, 7, 2, cost)[2] == "quadratic_form"

    def test_walk_taken_where_the_subsets_cost_more(self):
        # sum x_i^2 + x_i x_{i+1} - 1 in 16 variables at p = 3, one block:
        # 2^16 subsets at 16^3 steps each are over budget, the walk of the
        # 2^16 unit points is not
        n = 16
        terms = {(0,) * n: -1}
        for i in range(n):
            terms[tuple(2 * (k == i) for k in range(n))] = 1
            if i + 1 < n:
                terms[tuple(int(k in (i, i + 1)) for k in range(n))] = 1
        b = Polynomial(n, terms)
        assert odd_good_primes(b, 3) == [3]
        assert local._walk_cost(b, 3, True)[0] == 2 ** 16
        assert local._closed_form(b, 3, 6, 10 ** 8) is None
        f = mu_p(b, 3)
        assert f.method == "nonsingular" and f.flags == ()
        assert f == today(b, 3)

    @pytest.mark.parametrize("text, nu, method", [
        ("n=2\n1 2 0\n1 0 2\n1 0 0\n", 0, "no_solution"),   # b(1) = 3
        (CONE, 1, "nonsingular"),                          # d/dx1 = x2 = 1
        ("n=2\n1 3 0\n1 0 1\n-2 0 0\n", 1, "nonsingular"),  # x1^3 + x2 - 2
        # even gradient, and x1^4 is no square: neither closed form applies
        ("n=2\n1 4 0\n1 0 2\n-2 0 0\n", None, None),
    ])
    def test_at_two(self, text, nu, method):
        b = parse_polynomial(text)
        closed = local._closed_form(b, 2, 4, 10 ** 8)
        f = mu_p(b, 2, t_max=4)
        assert f == today(b, 2, t_max=4)
        if nu is None:
            assert closed is None
            return
        assert closed == ([nu * 2 ** ((b.n - 1) * t) for t in range(4)], 1,
                          "nonsingular", None)
        assert f.method == method
        assert f.mu_p == 2 * nu


def diagonal_form(rng, n, r):
    """a_1 x_1^2 + ... + a_n x_n^2 + c with b(1, ..., 1) = r mod 8: some
    a_i odd, the others odd, even or 0 (a variable that is missing)."""
    a = [rng.choice([-7, -3, -1, 1, 3, 5, 9, -6, -2, 2, 4, 8, 0])
         for _ in range(n)]
    a[rng.randrange(n)] = rng.choice([-5, -1, 1, 3, 7])
    c = r - sum(a) + 8 * rng.randint(-20, 20)
    terms = {tuple(2 * (k == i) for k in range(n)): v for i, v in enumerate(a)}
    terms[(0,) * n] = c
    return Polynomial(n, terms)


class TestDyadicQuadratic:
    """Every level of a diagonal quadratic form plus a constant at p = 2,
    read from b(1, ..., 1) mod 8 (``local._dyadic_quadratic``)."""

    # r = b(1, ..., 1) mod 8 in every class that matters: 8 | r, 4 || r,
    # 2 || r and r odd
    FORMS = [diagonal_form(random.Random(s), 1 + s % 5,
                           (0, 4, 2, 1, 0, 6)[s % 6]) for s in range(30)]

    def test_forms_cover_the_cases(self):
        a = [[b.terms.get(tuple(2 * (k == i) for k in range(b.n)), 0)
              for i in range(b.n)] for b in self.FORMS]
        r = [b.evaluate((1,) * b.n) for b in self.FORMS]
        assert any(0 in row for row in a)
        assert any(c % 2 == 0 and c for row in a for c in row)
        assert {x % 8 for x in r} >= {0, 1, 2, 4, 6}

    def test_levels_equal_the_counts(self, monkeypatch):
        for b in self.FORMS:
            nus, closing, method, cut = local._dyadic_quadratic(b, 6)
            assert (method, cut) == ("dyadic_quadratic", None)
            assert nus == [value_histogram(b, 2 ** t)[0] for t in range(1, 7)]
            with monkeypatch.context() as m:
                m.setattr(local, "_closed_form", lambda *args: None)
                assert nus == [nu_count(b, 2, t).nu for t in range(1, 7)], b

    def test_factors_equal_the_lemma_and_tree(self):
        for b in self.FORMS:
            for t_max in (2, 3, 6):
                f, g = mu_p(b, 2, t_max), today(b, 2, t_max)
                assert same_but_method(f, g), (b, t_max, f, g)
                if f.mu_p:
                    assert f.method == "dyadic_quadratic"

    @pytest.mark.parametrize("text", ["n=2\n1 2 0\n1 0 2\n-2 0 0\n",
                                      "n=2\n3 2 0\n2 0 2\n-5 0 0\n"])
    def test_closes_at_three(self, text):
        # x1^2 + x2^2 - 2 and 3 x1^2 + 2 x2^2 - 5: 8 | b(1, 1) = 0
        f = mu_p(parse_polynomial(text), 2)
        assert f.nu_values == [1, 4, 16, 32, 64, 128]
        assert f.stabilized_at == 3 and f.mu_p == 8    # 2^3 16 / 2^(2 2)
        assert f.method == "dyadic_quadratic"

    @pytest.mark.parametrize("text", [
        "n=2\n2 2 0\n4 0 2\n-6 0 0\n",      # no odd coefficient
        "n=2\n1 2 0\n1 0 2\n1 1 0\n-3 0 0\n",  # a linear term
        "n=2\n1 2 0\n1 1 1\n-2 0 0\n",      # a cross term
        "n=2\n1 4 0\n1 0 2\n-2 0 0\n",      # x1^4
    ])
    def test_other_b_fall_through(self, text):
        assert local._dyadic_quadratic(parse_polynomial(text), 6) is None
