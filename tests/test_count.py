"""Ground-truth counting: the sieve table, direct and meet-in-the-middle
counts, the histogram cross-check, growth diagnostics, and prediction
assembly.
"""
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from circlekit.arch import QuadratureSpec
from circlekit.count import (MangoldtTable, count_direct, count_mitm,
                             count_via_histogram, mangoldt_table, predict,
                             regularity_exponent)
from circlekit.poly import BudgetExceeded, Polynomial, parse_polynomial


def brute_force(b, N, table):
    """The correctly rounded exact sum of Lambda products over every
    prime-power solution in [0, N]^n, and the number of solutions."""
    ks = [k for k in range(N + 1) if table.values[k] > 0]
    sols = [x for x in product(ks, repeat=b.n) if b.evaluate(x) == 0]
    exact = sum(math.prod(Fraction(table.values[k]) for k in x) for x in sols)
    return float(exact), len(sols)


class TestMangoldtTable:
    def test_small_values(self):
        t = mangoldt_table(10)
        support = {k for k in range(11) if t.values[k] > 0}
        assert support == {2, 3, 4, 5, 7, 8, 9}
        assert t.values[8] == pytest.approx(math.log(2))
        assert t.values[9] == pytest.approx(math.log(3))
        assert t.values[1] == 0 and t.values[0] == 0
        assert t.base[8] == 2 and t.base[9] == 3 and t.base[6] == 0

    def test_chebyshev_psi(self):
        t = mangoldt_table(100)
        assert float(np.sum(t.values)) == pytest.approx(94.045, abs=0.01)

    def test_spot_against_factorization(self):
        t = mangoldt_table(200)
        for k in range(2, 201):
            if t.values[k] > 0:
                p = int(t.base[k])
                m = k
                while m % p == 0:
                    m //= p
                assert m == 1 and t.values[k] == pytest.approx(math.log(p))


class TestDirectCount:
    def test_hand_value(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        r = count_direct(b, 5, mangoldt_table(5))
        assert r.solution_count == 3            # (2, 4), (3, 3), (4, 2)
        log2, log3 = Fraction(math.log(2)), Fraction(math.log(3))
        assert r.value == float(2 * log2 ** 2 + log3 ** 2)
        assert r.value == pytest.approx(
            2 * math.log(2) ** 2 + math.log(3) ** 2, abs=1e-13)

    def test_no_roots(self):
        b = parse_polynomial("n=1\n1 1\n1 0\n")
        r = count_direct(b, 20, mangoldt_table(20))
        assert r.value == 0.0 and r.solution_count == 0

    def test_single_prime_power(self):
        b = parse_polynomial("n=1\n1 1\n-4 0\n")
        r = count_direct(b, 5, mangoldt_table(5))
        assert r.value == pytest.approx(math.log(2))
        assert r.solution_count == 1

    def test_monotone_in_N(self):
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-13 0 0\n")
        t = mangoldt_table(60)
        vals = [count_direct(b, N, t).value for N in (3, 10, 30, 60)]
        assert vals == sorted(vals)

    def test_brute_force_oracle(self):
        b = parse_polynomial("n=2\n1 2 0\n-1 0 1\n")    # x1^2 = x2
        t = mangoldt_table(30)
        expect = 0.0
        for x in range(31):
            for y in range(31):
                if t.values[x] > 0 and t.values[y] > 0 and x * x == y:
                    expect += t.values[x] * t.values[y]
        assert count_direct(b, 30, t).value == pytest.approx(expect, rel=1e-12)

    def test_budget_checked_before_work(self):
        # about 18,000 prime powers a variable, and x1 + x2 + x3 + x4 - x5
        # is indefinite, so no range cut helps: the fold of x2 alone pairs
        # 18,000^2 sums, refused before it is formed
        t = mangoldt_table(2 * 10 ** 5)
        b = parse_polynomial("n=5\n1 1 0 0 0 0\n1 0 1 0 0 0\n1 0 0 1 0 0\n"
                             "1 0 0 0 1 0\n-1 0 0 0 0 1\n")
        with pytest.raises(BudgetExceeded, match="value convolution"):
            count_direct(b, 2 * 10 ** 5, t)
        # x1 + ... + x5 is at least 10 on prime powers, so the range cut
        # leaves nothing of x1 - 5 to fold
        b = parse_polynomial("n=5\n1 1 0 0 0 0\n1 0 1 0 0 0\n1 0 0 1 0 0\n"
                             "1 0 0 0 1 0\n1 0 0 0 0 1\n-5 0 0 0 0 0\n")
        r = count_direct(b, 2 * 10 ** 5, t)
        assert (r.value, r.solution_count) == (0.0, 0)

    def test_grid_budget_checked_before_any_evaluation(self, monkeypatch,
                                                       enum_limit):
        # x1^2 x2^2 - x3^2 is neither separable nor of degree one in any
        # variable, so its whole grid is charged before anything is evaluated
        b = parse_polynomial("n=3\n1 2 2 0\n-1 0 0 2\n")
        t = mangoldt_table(30)          # 16 prime powers: 4096 grid points

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated before the budget check")

        monkeypatch.setattr(Polynomial, "eval_int", refuse)
        with enum_limit(4000), pytest.raises(BudgetExceeded):
            count_direct(b, 30, t)

    def test_convolution_memory_is_one_slice(self):
        # five squares - 12005 at N=150: the fourth convolution pairs 348,912
        # entries, about 30 MiB of Python-int weight pairs if formed at once
        b = parse_polynomial("n=5\n1 2 0 0 0 0\n1 0 2 0 0 0\n1 0 0 2 0 0\n"
                             "1 0 0 0 2 0\n1 0 0 0 0 2\n-12005 0 0 0 0 0\n")
        t = mangoldt_table(150)
        expect = count_mitm(b, 150, t, 2)
        tracemalloc.start()
        try:
            got = count_direct(b, 150, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.value, got.solution_count) == \
            (expect.value, expect.solution_count)
        assert peak < 20 * 2 ** 20

    def test_budget_charges_real_convolution_sizes(self, enum_limit):
        # five squares - 2045 at N=30: 16 prime powers a variable, so the
        # grids cost 5 * 16; the first half folds the constant, x1 and x2
        # at 1 + 16 + 16^2, the second x3, x4 and x5 at 16 + 16^2 + 122 * 16,
        # 122 the sums x3^2 + x4^2 that can still reach 0: 2,577 in all
        b = parse_polynomial("n=5\n1 2 0 0 0 0\n1 0 2 0 0 0\n1 0 0 2 0 0\n"
                             "1 0 0 0 2 0\n1 0 0 0 0 2\n-2045 0 0 0 0 0\n")
        t = mangoldt_table(30)
        expect = count_mitm(b, 30, t, 2)
        with enum_limit(2577):
            got = count_direct(b, 30, t)
        assert (got.value, got.solution_count) == \
            (expect.value, expect.solution_count)
        assert got.solution_count == 850
        with enum_limit(2576), pytest.raises(BudgetExceeded):
            count_direct(b, 30, t)

    def test_five_squares_at_2000(self):
        # the range cut keeps only x_i^2 <= 12005: the count is that of
        # N = 110, within the default budget
        b = parse_polynomial("n=5\n1 2 0 0 0 0\n1 0 2 0 0 0\n1 0 0 2 0 0\n"
                             "1 0 0 0 2 0\n1 0 0 0 0 2\n-12005 0 0 0 0 0\n")
        got = count_direct(b, 2000, mangoldt_table(2000))
        want = count_direct(b, 110, mangoldt_table(110))
        assert got.solution_count == want.solution_count == 13791
        assert got.value == want.value

    def test_grid_stays_on_the_block_walk(self, monkeypatch):
        # x1^2 x2^2 - x3^2 is walked by eval_int over grid blocks, never
        # point by point
        b = parse_polynomial("n=3\n1 2 2 0\n-1 0 0 2\n")
        t = mangoldt_table(30)
        want = brute_force(b, 30, t)
        assert want[1] > 0

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated point by point")

        monkeypatch.setattr(Polynomial, "evaluate", refuse)
        r = count_direct(b, 30, t)
        assert r.method == "grid"
        assert (r.value, r.solution_count) == want


class TestMitm:
    CASES = [
        ("n=2\n1 1 0\n1 0 1\n-6 0 0\n", 1, 20),
        ("n=3\n1 2 0 0\n1 0 2 0\n-2 0 0 1\n", 2, 25),
        ("n=4\n1 2 0 0 0\n1 0 2 0 0\n1 0 0 2 0\n1 0 0 0 2\n-87 0 0 0 0\n",
         2, 20),
        ("n=2\n1 3 0\n-1 0 3\n", 1, 50),
    ]

    @pytest.mark.parametrize("text,split,N", CASES)
    def test_bit_identical_to_direct(self, text, split, N):
        b = parse_polynomial(text)
        t = mangoldt_table(N)
        rd = count_direct(b, N, t)
        rm = count_mitm(b, N, t, split)
        assert rm.value == rd.value            # exact float equality
        assert rm.solution_count == rd.solution_count
        assert (rd.value, rd.solution_count) == brute_force(b, N, t)

    def test_rejects_mixed_terms(self):
        b = parse_polynomial("n=2\n1 1 1\n")
        with pytest.raises(ValueError):
            count_mitm(b, 10, mangoldt_table(10), 1)

    def test_rejects_degenerate_split(self):
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n")
        with pytest.raises(ValueError):
            count_mitm(b, 10, mangoldt_table(10), 2)


class TestExactReduction:
    """Every strategy returns the correctly rounded exact weighted sum."""

    CASES = [
        # separable, negative coefficients and a constant
        ("n=3\n1 2 0 0\n-2 0 1 0\n3 0 0 1\n-7 0 0 0\n", 20, 1),
        ("n=3\n1 2 0 0\n-2 0 1 0\n3 0 0 1\n-7 0 0 0\n", 20, 2),
        # x1 x2 + x3 x4 - 40: not separable, two variables on each side
        ("n=4\n1 1 1 0 0\n1 0 0 1 1\n-40 0 0 0 0\n", 20, 2),
        # 2^58 (x1 + x2 + x3 - x4): each variable's values fit int64, the
        # sums of three of them do not
        ("n=4\n%d 1 0 0 0\n%d 0 1 0 0\n%d 0 0 1 0\n%d 0 0 0 1\n"
         % (2 ** 58, 2 ** 58, 2 ** 58, -2 ** 58), 11, 2),
        # 2^60 (x1 x2 - x3 x4): each half's grid values need Python ints
        ("n=4\n%d 1 1 0 0\n%d 0 0 1 1\n" % (2 ** 60, -2 ** 60), 11, 2),
    ]

    @pytest.mark.parametrize("text,N,split", CASES)
    def test_equals_brute_force(self, text, N, split):
        b = parse_polynomial(text)
        t = mangoldt_table(N)
        want = brute_force(b, N, t)
        assert want[1] > 0
        for r in (count_direct(b, N, t), count_mitm(b, N, t, split),
                  count_via_histogram(b, N, t)):
            assert (r.value, r.solution_count) == want

    @pytest.mark.parametrize("seed", range(30))
    def test_random_separable_forms(self, seed):
        # c + sum of a_i x_i^d (+ e_i x_i), d = 2 or 3, signs mixed, c set
        # so that a random prime-power point is a zero
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        N = {2: 60, 3: 30, 4: 15}[n]
        t = mangoldt_table(N)
        d = rng.choice([2, 3])
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = d
            terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
            e[i] = 1
            terms[tuple(e)] = rng.choice([0, 0, -5, 4])
        b = Polynomial(n, terms)
        ks = [k for k in range(N + 1) if t.values[k] > 0]
        b = b - b.evaluate([rng.choice(ks) for _ in range(n)])
        want = brute_force(b, N, t)
        assert want[1] > 0
        results = [count_direct(b, N, t), count_via_histogram(b, N, t)]
        results += [count_mitm(b, N, t, s) for s in range(1, n)]
        for r in results:
            assert (r.value, r.solution_count) == want

    def test_empty_support(self):
        # below N = 2 there is no prime power, so every histogram is empty
        b = parse_polynomial("n=3\n1 2 0 0\n-2 0 1 0\n3 0 0 1\n")
        for N in (0, 1):
            t = mangoldt_table(N)
            for r in (count_direct(b, N, t), count_mitm(b, N, t, 1)):
                assert (r.value, r.solution_count) == (0.0, 0)

    def test_int64_sums_do_not_wrap(self):
        # 2^57 (x1 + ... + x5) has no zeros in prime powers; in int64 the
        # sum 2^57 (31 + 31 + 31 + 4 + 31) = 2^64 would wrap round to 0
        b = parse_polynomial("n=5\n" + "".join(
            f"{2 ** 57} " + " ".join("1" if j == i else "0" for j in range(5))
            + "\n" for i in range(5)))
        t = mangoldt_table(31)
        for r in (count_direct(b, 31, t), count_mitm(b, 31, t, 2)):
            assert (r.value, r.solution_count) == (0.0, 0)

    def test_non_dyadic_weight_is_rejected(self):
        # one weight below 1/2 at a prime power: Lambda(k) 2^53 is no
        # integer, so the sums would not be exact
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-13 0 0\n")
        t = mangoldt_table(13)
        values = t.values.copy()
        values[9] = 0.1
        bad = MangoldtTable(13, values, t.base)
        for count_b in (lambda: count_direct(b, 13, bad),
                        lambda: count_mitm(b, 13, bad, 1)):
            with pytest.raises(ValueError, match="at least 1/2"):
                count_b()

    def test_primes_only_table_drops_prime_squares(self):
        # x1 + x2 = 13 in prime powers: (2, 11), (4, 9), (5, 8) and their
        # swaps; weighting the squares 4 and 9 and the cube 8 by 0 leaves
        # (2, 11) and (11, 2)
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-13 0 0\n")
        t = mangoldt_table(13)
        primes = primes_only(t)
        assert count_direct(b, 13, t).solution_count == 6
        want = float(2 * Fraction(math.log(2)) * Fraction(math.log(11)))
        for r in (count_direct(b, 13, primes), count_mitm(b, 13, primes, 1),
                  count_via_histogram(b, 13, primes)):
            assert (r.value, r.solution_count) == (want, 2)
            assert (r.value, r.solution_count) == brute_force(b, 13, primes)


def primes_only(table):
    """The same table with the higher prime powers weighing 0."""
    first = table.base == np.arange(table.N + 1)
    return MangoldtTable(table.N, np.where(first, table.values, 0.0),
                         np.where(first, table.base, 0))


class TestLinearSolve:
    """A non-separable b = A x_j + B is walked over the other variables with
    x_j solved for; the count must be the brute-force one, bit for bit."""

    CASES = [
        # the cone x1 x2 - x3^2
        ("n=3\n1 1 1 0\n-1 0 0 2\n", 40),
        # (x2 - x3) x1 + x2 - x3: A = B = 0 on the rows x2 = x3, where
        # every x1 counts
        ("n=3\n1 1 1 0\n-1 1 0 1\n1 0 1 0\n-1 0 0 1\n", 30),
        # 3 x1 - x2 x3: A = 3 divides B only when 3 divides x2 x3
        ("n=3\n3 1 0 0\n-1 0 1 1\n", 40),
        # x1 x2 - x3 - 7: A = x2, B = -x3 - 7, mostly not divisible
        ("n=3\n1 1 1 0\n-1 0 0 1\n-7 0 0 0\n", 60),
        # 2^60 (x1 x2 - x3^2): values need Python ints (object arrays)
        ("n=3\n%d 1 1 0\n%d 0 0 2\n" % (2 ** 60, -2 ** 60), 30),
    ]

    @pytest.mark.parametrize("text,N", CASES)
    def test_equals_brute_force(self, text, N):
        b = parse_polynomial(text)
        t = mangoldt_table(N)
        want = brute_force(b, N, t)
        assert want[1] > 0
        r = count_direct(b, N, t)
        assert r.method == "linear(x_1)"
        assert (r.value, r.solution_count) == want
        assert r.value == count_via_histogram(b, N, t).value

    @pytest.mark.parametrize("text,N", CASES[:2])
    def test_primes_only_weights(self, text, N):
        b = parse_polynomial(text)
        t = primes_only(mangoldt_table(N))
        r = count_direct(b, N, t)
        assert r.method == "linear(x_1)"
        assert (r.value, r.solution_count) == brute_force(b, N, t)
        assert r.solution_count < count_direct(b, N, mangoldt_table(N)) \
            .solution_count

    def test_big_coefficients_solve_in_python_ints(self):
        b = parse_polynomial(self.CASES[4][0])
        x = np.array([[29, 29]])
        assert all(g.eval_int(x).dtype == object for g in b.linear_in(1))

    def test_methods(self):
        t = mangoldt_table(20)
        separable = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        squares = parse_polynomial("n=2\n1 2 2\n-36 0 0\n")  # x1^2 x2^2 = 36
        assert count_direct(separable, 20, t).method == "separable"
        assert count_mitm(separable, 20, t, 1).method == "separable"
        r = count_direct(squares, 20, t)
        assert r.method == "grid"
        assert (r.value, r.solution_count) == brute_force(squares, 20, t)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_forms_match_the_histogram(self, seed):
        # random b of degree one in x_j and not separable, in 2 to 4
        # variables: the row walk is bit for bit the histogram's count
        rng = random.Random(seed)
        n = 2 + seed % 3
        j = rng.randrange(n)
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = [rng.randint(0, 2) for _ in range(n)]
            e[j] = rng.randint(0, 1)
            terms[tuple(e)] = rng.randint(-4, 4)
        cross = [rng.randint(0, 1) for _ in range(n)]
        cross[j] = cross[(j + 1) % n] = 1
        terms[tuple(cross)] = rng.choice([-3, -1, 1, 2])
        b = Polynomial(n, terms)
        N = {2: 60, 3: 30, 4: 12}[n]
        t = mangoldt_table(N)
        r, want = count_direct(b, N, t), count_via_histogram(b, N, t)
        assert r.method.startswith("linear(")
        assert (r.value, r.solution_count) == \
            (want.value, want.solution_count)

    def test_rows_with_A_and_B_zero_in_four_variables(self):
        # (x2 - x3)(x1 + x4): A = x2 - x3 and B = (x2 - x3) x4 vanish on
        # the rows x2 = x3, where every x1 counts
        b = parse_polynomial("n=4\n1 1 1 0 0\n-1 1 0 1 0\n"
                             "1 0 1 0 1\n-1 0 0 1 1\n")
        t = mangoldt_table(12)
        r = count_direct(b, 12, t)
        assert r.method == "linear(x_1)"
        assert (r.value, r.solution_count) == brute_force(b, 12, t)
        assert r.solution_count == 8 ** 3

    def test_non_dyadic_weight_is_rejected(self):
        b = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n")
        t = mangoldt_table(13)
        values = list(t.values)
        values[9] = 0.1
        with pytest.raises(ValueError, match="at least 1/2"):
            count_direct(b, 13, MangoldtTable(13, values, t.base))

    def test_cone_at_1500(self):
        b = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n")
        r = count_direct(b, 1500, mangoldt_table(1500))
        assert (r.value, r.solution_count, r.method) == \
            (60729.88372867206, 327, "linear(x_1)")

    def test_budget_charges_the_other_variables(self):
        # about 1229^4 points x' = (x2..x5): refused before any work
        b = parse_polynomial("n=5\n1 1 1 0 0 0\n1 0 0 1 1 1\n")
        with pytest.raises(BudgetExceeded):
            count_direct(b, 10 ** 4, mangoldt_table(10 ** 4))


class TestHistogramCrossCheck:
    @pytest.mark.parametrize("text,N", [
        ("n=2\n1 1 0\n1 0 1\n-6 0 0\n", 30),
        ("n=2\n1 2 0\n-1 0 1\n", 25),
        ("n=3\n1 1 0 0\n1 0 1 0\n-1 0 0 1\n", 15),
    ])
    def test_exact_agreement(self, text, N):
        b = parse_polynomial(text)
        t = mangoldt_table(N)
        assert count_via_histogram(b, N, t).value == \
            count_direct(b, N, t).value

    def test_grid_budget_checked_before_the_walk(self, monkeypatch,
                                                 enum_limit):
        # 16 prime powers up to 30: 256 tuples of x1 + x2 - 6
        b = parse_polynomial("n=2\n1 1 0\n1 0 1\n-6 0 0\n")
        t = mangoldt_table(30)
        expect = count_via_histogram(b, 30, t)

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated before the budget check")

        monkeypatch.setattr(Polynomial, "evaluate", refuse)
        with enum_limit(255), pytest.raises(BudgetExceeded):
            count_via_histogram(b, 30, t)
        monkeypatch.undo()
        with enum_limit(256):
            assert count_via_histogram(b, 30, t).value == expect.value

    def test_memory_does_not_grow_with_the_grid(self):
        # the cone at N = 60 walks 25^3 = 15,625 prime-power tuples; keeping
        # each of them, as a bucketed walk does, peaks near 1.5 MB
        b = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n")
        t = mangoldt_table(60)
        expect = count_direct(b, 60, t)
        tracemalloc.start()
        try:
            got = count_via_histogram(b, 60, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.value, got.solution_count) == \
            (expect.value, expect.solution_count)
        assert peak < 2 ** 18


class TestRegularity:
    def test_linear_form(self):
        p = parse_polynomial("n=2\n1 1 0\n")
        rep = regularity_exponent([p], [5, 10, 20, 40])
        assert rep.counts == [11, 21, 41, 81]
        assert rep.fitted_exponent == pytest.approx(1.0, abs=0.05)
        assert rep.reference_exponent == 1
        assert rep.flags == ()

    def test_product_flagged(self):
        p = parse_polynomial("n=2\n1 1 1\n")
        rep = regularity_exponent([p], [5, 10, 20])
        assert rep.counts == [21, 41, 81]
        assert rep.flags == ("not_regular",)

    def test_definite_consistent(self):
        p = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        rep = regularity_exponent([p], [5, 10, 20])
        assert rep.counts == [1, 1, 1]
        assert rep.flags == ()

    def test_rational_coefficients_not_truncated(self):
        # x1/2 - x2 = 0 needs x1 = 2 x2: 2 floor(N/2) + 1 points in the box
        p = parse_polynomial("n=2\n1/2 1 0\n-1 0 1\n")
        rep = regularity_exponent([p], [5, 10, 20])
        assert rep.counts == [5, 11, 21]

    def test_constant_counts_fit_slope_zero(self):
        # x1^2 + x2^2 = 5 has 8 points at every scale: the slope is exactly 0
        p = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        rep = regularity_exponent([p], [5, 10, 20])
        assert rep.counts == [8, 8, 8]
        assert rep.fitted_exponent == 0.0

    def test_repeated_scales_are_refused(self):
        # one distinct scale made np.polyfit warn and fit a slope of 0.646
        p = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")
        with pytest.raises(ValueError,
                           match=r"distinct N >= 1, got \[5, 5, 5\]"):
            regularity_exponent([p], [5, 5, 5])
        with pytest.raises(ValueError, match=r"got \[5, 5, 10\]"):
            regularity_exponent([p], [10, 5, 5])
        assert regularity_exponent([p], [5, 10, 5, 20]).counts == [8] * 4

    def test_every_scale_charged_before_any_walk(self, monkeypatch,
                                                 enum_limit):
        # x1 x2 at N = 5, 10 and 20 walks 11^2 + 21^2 + 41^2 = 2,243
        # points, of which the largest grid alone is 1,681
        p = parse_polynomial("n=2\n1 1 1\n")

        def refuse(*args, **kwargs):
            raise AssertionError("walked before the budget check")

        monkeypatch.setattr(Polynomial, "eval_int", refuse)
        with enum_limit(2242), pytest.raises(
                BudgetExceeded, match="costs 2243, over budget 2242"):
            regularity_exponent([p], [5, 10, 20])

    @pytest.mark.parametrize("texts, counts", [
        (["n=2\n1 2 0\n1 0 2\n-5 0 0\n"], [8, 8, 8]),
        # x1^2 + x2^2 - x3^2 with x1 = x3: the points (t, 0, t)
        (["n=3\n1 2 0 0\n1 0 2 0\n-1 0 0 2\n", "n=3\n1 1 0 0\n-1 0 0 1\n"],
         [11, 21, 41]),
    ])
    def test_python_and_numpy_walks_agree(self, texts, counts, each_path):
        system = [parse_polynomial(t) for t in texts]
        reps = [regularity_exponent(system, [5, 10, 20]) for _ in each_path()]
        assert [rep.counts for rep in reps] == [counts, counts]
        assert reps[0] == reps[1]

    def test_grids_charged_before_either_walk(self, monkeypatch, enum_limit,
                                              each_path):
        # x1^2 + x2^2 - 5 at N = 5, 10 and 20: 11^2 + 21^2 + 41^2 = 2,243
        p = parse_polynomial("n=2\n1 2 0\n1 0 2\n-5 0 0\n")

        def refuse(*args, **kwargs):
            raise AssertionError("walked before the budget check")

        monkeypatch.setattr(Polynomial, "eval_int", refuse)
        monkeypatch.setattr(Polynomial, "evaluate", refuse)
        for _ in each_path():
            with enum_limit(2242), pytest.raises(
                    BudgetExceeded, match="costs 2243, over budget 2242"):
                regularity_exponent([p], [5, 10, 20])

    def test_needs_scales(self):
        with pytest.raises(ValueError):
            regularity_exponent([parse_polynomial("n=1\n1 1\n")], [5, 10])

    def test_scale_below_one_is_refused(self):
        # log N is fitted, so N = 0 is refused up front, by name
        with pytest.raises(ValueError, match=r"N >= 1, got \[0, 1, 2\]"):
            regularity_exponent([parse_polynomial("n=2\n1 1 1\n")],
                                [2, 0, 1])


class TestPredict:
    SPEC = QuadratureSpec(box_points=1 << 16, seed=7)

    def test_obstructed_linear(self):
        b = parse_polynomial("n=1\n1 1\n")
        rep = predict(b, 50, prime_bound=10, spec=self.SPEC)
        assert rep.main_term == 0.0

    def test_positive_definite_form(self):
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n1 0 0\n")
        rep = predict(b, 30, prime_bound=10, spec=self.SPEC,
                      ground_truth=True)
        assert rep.ground_truth.value == 0.0
        assert rep.main_term == 0.0
        assert "zero_measure" in rep.sigma.flags

    def test_two_squares_sanity(self):
        # x1^2 + x2^2 = 338 has prime-power solutions (7^2=49? no);
        # use a target with solutions: 13^2 + 13^2 = 338
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n-338 0 0\n")
        rep = predict(b, 20, prime_bound=20, spec=self.SPEC,
                      ground_truth=True)
        assert rep.ground_truth.solution_count >= 2
        assert rep.ratio is not None and rep.ratio > 0

    def test_parameters_recorded(self):
        b = parse_polynomial("n=1\n1 1\n-8 0\n")
        rep = predict(b, 10, prime_bound=5, t_max=4, spec=self.SPEC)
        assert rep.parameters["prime_bound"] == 5
        assert rep.parameters["t_max"] == 4
        assert rep.parameters["seed"] == self.SPEC.seed
