"""Exact polynomial arithmetic, serialization, the differencing operator,
and the one enumeration budget that every module charges.

Arithmetic is cross-checked against sympy as an independent oracle; the
symbolic differencing identities are checked monomial by monomial.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from circlekit import poly
from circlekit.arcs import z_count
from circlekit.count import count_direct, mangoldt_table
from circlekit.local import value_histogram
from circlekit.poly import (_BLOCK_ROWS, BudgetExceeded, Polynomial,
                            grid_blocks, parse_polynomial, residue_histogram,
                            weyl_difference, weyl_difference_poly)


def sympy_expr(p, symbols):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c) if isinstance(c, Fraction) else sympy.Integer(c)
        for s, k in zip(symbols, e):
            term *= s ** k
        expr += term
    return sympy.expand(expr)


small_polys = st.builds(
    lambda n, terms: Polynomial(
        n, {tuple(e[:n]): c for e, c in terms}),
    st.integers(1, 3),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3),
                       st.integers(-9, 9)), max_size=5))


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_product_matches_sympy(self, a, b):
        n = max(a.n, b.n)
        a = Polynomial(n, {e + (0,) * (n - a.n): c for e, c in a.terms.items()})
        b = Polynomial(n, {e + (0,) * (n - b.n): c for e, c in b.terms.items()})
        syms = sympy.symbols(f"x1:{n + 1}")
        assert sympy_expr(a * b, syms) == sympy.expand(
            sympy_expr(a, syms) * sympy_expr(b, syms))
        assert sympy_expr(a + b, syms) == sympy_expr(a, syms) + sympy_expr(b, syms)

    @settings(max_examples=40, deadline=None)
    @given(small_polys, st.integers(0, 3))
    def test_power_is_repeated_product(self, a, k):
        prod = Polynomial.constant(a.n, 1)
        for _ in range(k):
            prod = prod * a
        assert a ** k == prod

    def test_zero_and_cancellation(self):
        x = Polynomial.variable(2, 1)
        assert (x - x).is_zero()
        assert (x * 0).is_zero()
        assert Polynomial.zero(2).degree == 0

    def test_rational_coefficients_normalize(self):
        p = parse_polynomial("n=1\n1/2 1\n1/2 1\n")
        assert p == Polynomial.variable(1, 1)
        assert p.is_integral()


class TestEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(small_polys, st.tuples(*[st.integers(-5, 5)] * 3))
    def test_evaluate_matches_sympy(self, p, pt):
        pt = pt[:p.n]
        syms = sympy.symbols(f"x1:{p.n + 1}")
        expected = sympy_expr(p, syms).subs(dict(zip(syms, pt)))
        assert p.evaluate(pt) == expected

    @settings(max_examples=30, deadline=None)
    @given(small_polys, st.tuples(*[st.integers(-5, 5)] * 3),
           st.integers(2, 30))
    @example(Polynomial.zero(2), (1, -2, 3), 7)
    def test_evaluate_mod_consistent(self, p, pt, q):
        if not p.is_integral():
            return
        pt = pt[:p.n]
        assert p.evaluate_mod(pt, q) == int(p.evaluate(pt)) % q
        pts = np.array([pt, [-x for x in pt]], dtype=np.int64).reshape(2, p.n)
        want = [p.evaluate(x) for x in pts.tolist()]
        assert p.eval_int(pts).tolist() == want
        assert p.eval_int(pts, q).tolist() == [v % q for v in want]

    def test_eval_int_big_values_fall_back_to_python_ints(self):
        p = parse_polynomial("n=2\n1000000 3 0\n-1 0 1\n")
        got = p.eval_int(np.array([[-10 ** 5, 7], [2, 3]]))
        assert got.dtype == object
        assert got.tolist() == [-10 ** 21 - 7, 8 * 10 ** 6 - 3]

    def test_eval_int_rejects_rationals_and_wide_moduli(self):
        pts = np.array([[2]])
        with pytest.raises(ValueError):
            parse_polynomial("n=1\n1/2 1\n").eval_int(pts)
        with pytest.raises(ValueError):
            parse_polynomial("n=1\n1 1\n").eval_int(pts, 2 ** 32)

    def test_eval_float_batch(self):
        p = parse_polynomial("n=2\n3 2 0\n-1 0 1\n5 0 0\n")
        pts = np.array([[1.0, 2.0], [0.5, -1.0]])
        np.testing.assert_allclose(p.eval_float(pts), [3 - 2 + 5, 0.75 + 1 + 5])

    def test_eval_float_bit_identical_to_term_loop(self):
        # the reference is the plain per-term loop on whole columns: x_i^k
        # times c, times the other powers in variable order, the terms
        # summed in dict order; the sliced kernel must give the same bits
        def term_loop(p, pts):
            out = np.zeros(pts.shape[0])
            for e, c in p.terms.items():
                v = None
                for i, k in enumerate(e):
                    if k and v is None:
                        v = pts[:, i] ** k
                        v *= float(c)
                    elif k:
                        v *= pts[:, i] ** k
                out += float(c) if v is None else v
            return out

        rng = np.random.default_rng(11)
        for trial in range(400):
            n = int(rng.integers(1, 6))
            terms = {}
            for _ in range(int(rng.integers(1, 9))):
                e = np.bincount(rng.integers(0, n, int(rng.integers(0, 6))),
                                minlength=n)
                c = int(rng.integers(-20, 21))
                terms[tuple(e.tolist())] = c if trial % 3 else \
                    Fraction(c, int(rng.integers(1, 14)))
            p = Polynomial(n, terms)
            assert p.degree <= 5
            m = (1, 7, 3000, 3 * (1 << 13) + 5)[trial % 4]
            pts = rng.normal(size=(m, n)) * (0.1, 1.0, 3.0)[trial % 3]
            assert p.eval_float(pts).tobytes() == term_loop(p, pts).tobytes()

    def test_eval_int_leaves_points_unchanged(self):
        # one row or one column: the transposed points are the caller's
        # array, which reducing the coordinates mod q must not overwrite
        for text, pts in (("n=2\n1 2 0\n3 1 1\n", [[9, -4]]),
                          ("n=1\n1 2\n", [[9], [-4]])):
            p, x = parse_polynomial(text), np.array(pts)
            want = [p.evaluate(pt) % 5 for pt in pts]
            assert p.eval_int(x, 5).tolist() == want
            assert x.tolist() == pts

    def test_non_integral_points_are_refused(self):
        # each was truncated to an integer point: x1^2 at 1.5 read 1, and
        # at 2.9 mod 7 read 4
        p = parse_polynomial("n=1\n1 2\n")
        for pts, q in ((np.array([[1.5]]), None), ([[2.9]], 7),
                       ([[Fraction(3, 2)]], None)):
            with pytest.raises(ValueError, match="integer points"):
                p.eval_int(pts, q)
        for pt in ([1.5], [Fraction(3, 2)]):
            with pytest.raises(ValueError, match="integer point"):
                p.evaluate_mod(pt, 7)
        # integral values of any type still evaluate
        assert p.eval_int([[3.0]], 7).tolist() == [2]
        assert p.evaluate_mod([Fraction(4)], 7) == p.evaluate_mod([3.0], 7) == 2
        assert p.evaluate_mod([np.int64(10 ** 9)], 10 ** 30 + 57) == 10 ** 18

    def test_unsigned_points_past_int64_are_refused(self):
        # x1 at 2^63 + 5 as uint64 read -9223372036854775803: its int64
        # conversion wrapped round and was never compared with it
        p = parse_polynomial("n=1\n1 1\n")
        pts = np.array([[2 ** 63 + 5], [3]], np.uint64)
        with pytest.raises(ValueError, match="integer points"):
            p.eval_int(pts)
        assert p.eval_int(pts[1:]).tolist() == [3]

    @pytest.mark.parametrize("pts", [
        [[2 ** 70]], [[-2 ** 63 - 1]], np.array([[2 ** 63 + 5]], dtype=object)])
    def test_python_ints_past_int64_are_refused(self, pts):
        # each raised OverflowError from the int64 conversion, not the
        # ValueError of every other point that is not an int64 integer
        p = parse_polynomial("n=1\n1 1\n")
        for q in (None, 7):
            with pytest.raises(ValueError, match="integer points"):
                p.eval_int(pts, q)

    def test_evaluate_mod_takes_any_modulus(self):
        # wider than eval_int's q^2 < 2^63, and q = 1
        p = parse_polynomial("n=2\n7 3 0\n-5 1 2\n12 0 0\n")
        for q in (1, 2 ** 40 + 15, 10 ** 30 + 57):
            for pt in ((3, -8), (10 ** 12, 7), (0, 0)):
                assert p.evaluate_mod(pt, q) == p.evaluate(pt) % q

    def test_grid_blocks_cover_product_in_order(self):
        axes = [[5, -1, 2], range(-2, 300), range(500)]
        blocks = list(grid_blocks(axes))
        assert len(blocks) > 1
        assert all(len(b) <= _BLOCK_ROWS for b in blocks)
        want = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        np.testing.assert_array_equal(np.concatenate(blocks), want)
        long_axis = np.arange(3 * _BLOCK_ROWS // 2)
        blocks = list(grid_blocks([long_axis]))
        assert [len(b) for b in blocks] == [_BLOCK_ROWS, _BLOCK_ROWS // 2]
        np.testing.assert_array_equal(np.concatenate(blocks)[:, 0], long_axis)

    def test_gradient(self):
        p = parse_polynomial("n=2\n1 2 1\n")     # x1^2 x2
        gx, gy = p.gradient()
        assert gx == parse_polynomial("n=2\n2 1 1\n")
        assert gy == parse_polynomial("n=2\n1 2 0\n")


class TestStructure:
    def test_top_degree_part(self):
        p = parse_polynomial("n=2\n1 2 0\n1 1 0\n-7 0 0\n")
        assert p.top_degree_part() == parse_polynomial("n=2\n1 2 0\n")
        assert p.top_degree_part().is_homogeneous()

    def test_restrict_zero(self):
        p = parse_polynomial("n=2\n1 2 0\n1 1 1\n4 0 2\n")
        assert p.restrict_zero(1) == parse_polynomial("n=2\n4 0 2\n")
        assert p.restrict_zero(2) == parse_polynomial("n=2\n1 2 0\n")

    def test_substitute_linear(self):
        # x1 -> x2 + x3 in x1^2: (x2+x3)^2
        p = parse_polynomial("n=3\n1 2 0 0\n")
        x = [Polynomial.variable(3, i) for i in (1, 2, 3)]
        assert p.compose([x[1] + x[2], x[1], x[2]], 3) == parse_polynomial(
            "n=3\n1 0 2 0\n2 0 1 1\n1 0 0 2\n")

    def test_compose_linear_matches_substitution(self):
        p = parse_polynomial("n=2\n1 1 1\n")     # x1 x2
        # x1 -> u1 + u2, x2 -> u3 in a 3-variable ring
        q = p.compose_linear([[1, 1, 0], [0, 0, 1]], 3)
        assert q == parse_polynomial("n=3\n1 1 0 1\n1 0 1 1\n")


    def test_additive_split(self):
        # 3 + x1^2 - x1 + x2 x3 + x3^4 over blocks (1, 2)
        p = parse_polynomial("n=3\n3 0 0 0\n1 2 0 0\n-1 1 0 0\n"
                             "1 0 1 1\n1 0 0 4\n")
        parts, const = p.additive_split([1, 2])
        assert const == 3
        assert parts == [parse_polynomial("n=1\n1 2\n-1 1\n"),
                         parse_polynomial("n=2\n1 1 1\n1 0 4\n")]
        x = [Polynomial.variable(3, i) for i in (1, 2, 3)]
        assert parts[0].compose(x[:1], 3) + parts[1].compose(x[1:], 3) \
            + const == p
        # one variable a block: x2 x3 mixes two of them
        assert p.additive_split([1, 1, 1]) is None
        # a variable that does not occur gets the zero polynomial
        q = parse_polynomial("n=3\n2 0 0 3\n-7 0 0 0\n")
        assert q.additive_split([1, 1, 1]) == (
            [Polynomial.zero(1), Polynomial.zero(1),
             parse_polynomial("n=1\n2 3\n")], -7)
        with pytest.raises(ValueError):
            p.additive_split([1, 1])

    def test_variable_split_is_worked_out_once(self):
        q = parse_polynomial("n=3\n2 0 0 3\n-7 0 0 0\n1 2 0 0\n")
        first = q.variable_split()
        assert first == ((parse_polynomial("n=1\n1 2\n"), Polynomial.zero(1),
                          parse_polynomial("n=1\n2 3\n")), -7)
        assert q.variable_split() is first
        assert tuple(q.additive_split([1, 1, 1])[0]) == first[0]
        # x2 x3 mixes two variables
        assert parse_polynomial("n=3\n1 0 1 1\n").variable_split() is None

    def test_linear_in(self):
        # x1 x2 - x3^2 + 2 x2 = (x2) x1 + (2 x2 - x3^2); x3 is squared
        p = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n2 0 1 0\n")
        A, B = p.linear_in(1)
        assert A == parse_polynomial("n=2\n1 1 0\n")
        assert B == parse_polynomial("n=2\n2 1 0\n-1 0 2\n")
        x = [Polynomial.variable(3, i) for i in (1, 2, 3)]
        assert A.compose(x[1:], 3) * x[0] + B.compose(x[1:], 3) == p
        assert p.linear_in(3) is None
        assert parse_polynomial("n=2\n1 1 0\n").linear_in(2) is None
        with pytest.raises(IndexError):
            p.linear_in(4)

    def test_coefficients_and_missing_variable(self):
        # x1 x2 - x3^2 + 2 x2 in powers of x3: (x1 x2 + 2 x2) + 0 x3 - x3^2
        p = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n2 0 1 0\n")
        assert p.coefficients(3) == [parse_polynomial("n=2\n1 1 1\n2 0 1\n"),
                                     Polynomial.zero(2),
                                     Polynomial.constant(2, -1)]
        assert [c.n for c in p.coefficients(1)] == [2, 2]
        assert p.missing_variable() == 3
        assert parse_polynomial("n=3\n1 1 0 1\n").missing_variable() == 2
        with pytest.raises(IndexError):
            p.coefficients(0)

    def test_arithmetic_normalizes_coefficients(self):
        # results are built from trusted keys but still normalized
        half = parse_polynomial("n=1\n1/2 1\n")
        assert (half * 2).terms == {(1,): 1}
        assert isinstance((half + half).terms[(1,)], int)
        assert (half - half).terms == {}
        assert hash(half * 2) == hash(Polynomial.variable(1, 1))


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(small_polys)
    def test_text_roundtrip(self, p):
        assert parse_polynomial(p.to_text()) == p

    def test_comments_and_duplicates(self):
        p = parse_polynomial("# a comment\nn=2\n2 1 0  # trailing\n3 1 0\n")
        assert p == parse_polynomial("n=2\n5 1 0\n")

    def test_hash_stable_under_term_order(self):
        a = parse_polynomial("n=2\n1 2 0\n2 0 2\n")
        b = parse_polynomial("n=2\n2 0 2\n1 2 0\n")
        assert a.sha256() == b.sha256()

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_polynomial("1 1\n")            # missing header
        with pytest.raises(ValueError):
            parse_polynomial("n=2\n1 1\n")       # wrong arity


class TestResidueHistogram:
    """Exact weighted histograms mod q against a Python brute force."""

    @staticmethod
    def brute(b, q, weight):
        hist = [0] * q
        for a in itertools.product(range(q), repeat=b.n):
            hist[b.evaluate(a) % q] += math.prod(weight[x] for x in a)
        return hist

    @pytest.mark.parametrize("text,q", [
        ("n=2\n1 2 0\n3 0 1\n-1 0 0\n", 7),      # separable: folds 2 parts
        # x1^2 + x2^2 + x3^2 + x4^3 + 2 x5 mod 4: folds 4 distinct parts
        ("n=5\n1 2 0 0 0 0\n1 0 2 0 0 0\n1 0 0 2 0 0\n1 0 0 0 3 0\n"
         "2 0 0 0 0 1\n", 4),
        ("n=3\n1 1 1 0\n1 0 0 1\n", 6),           # x1 x2 + x3: walks
        # a constant past int64 shifts the folded histogram mod 7
        (f"n=2\n1 2 0\n3 0 1\n{-2 ** 70 - 3} 0 0\n", 7),
    ])
    @pytest.mark.parametrize("big", [False, True])
    def test_matches_brute_force(self, text, q, big, each_path):
        b = parse_polynomial(text)
        # every third residue weighs nothing; big weights overflow int64
        weight = [0 if r % 3 == 1 else (2 ** 61 if big else 1) + r
                  for r in range(q)]
        want = self.brute(b, q, weight)
        assert max(want) > 2 ** 64 if big else max(want) < 2 ** 62
        for _ in each_path():           # numpy, then Python integers
            got = residue_histogram(b, q, np.array(weight, dtype=object))
            assert [type(h) for h in got] == [int] * q
            assert got == want

    def test_budget_before_any_evaluation(self, monkeypatch, enum_limit,
                                          each_path):
        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the budget check")

        monkeypatch.setattr(Polynomial, "eval_int", fail)
        monkeypatch.setattr(Polynomial, "evaluate", fail)
        b = parse_polynomial("n=3\n1 1 1 0\n1 0 0 1\n")
        for _ in each_path():
            with enum_limit(999), pytest.raises(BudgetExceeded):  # 10^3 tuples
                residue_histogram(b, 10, np.ones(10, np.int64))

    def test_needs_integer_coefficients(self):
        with pytest.raises(ValueError):
            residue_histogram(parse_polynomial("n=1\n1/2 1\n"), 4,
                              np.ones(4, np.int64))

    def test_separable_never_walked(self, monkeypatch, each_path):
        # the parts' histograms are folded; no tuple of the grid is formed,
        # by grid_blocks (numpy) or by itertools.product (Python integers)
        def walk(*args, **kwargs):
            raise AssertionError("walked the grid")

        monkeypatch.setattr(poly, "grid_blocks", walk)
        monkeypatch.setattr(poly, "iproduct", walk)
        b = parse_polynomial("n=2\n1 2 0\n3 0 1\n-1 0 0\n")
        weight = [0 if r % 3 == 1 else 1 + r for r in range(7)]
        for _ in each_path():
            got = residue_histogram(b, 7, np.array(weight, np.int64))
            assert got == self.brute(b, 7, weight)


class TestCyclic:
    """The dense and the sparse branch of the one histogram kernel, each
    forced through ``_DENSE_RATIO``, against a brute-force cyclic sum."""

    @staticmethod
    def brute(x, y, q):
        out = [0] * q
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                out[(i + j) % q] += u * v
        return out

    @staticmethod
    def vectors(q, dtype, seed=5):
        # a third of the entries zero; the rest weigh up to 2^20 in int64
        # and 2^70 as Python ints, and the last entry of each weighs that
        # most, so the nonzero windows' sums wrap past q
        top = 2 ** 20 if dtype is np.int64 else 2 ** 70
        rng = np.random.default_rng(seed)
        x, y = ([int(rng.integers(1, 2 ** 40)) * top // 2 ** 40 + 1
                 if rng.random() > 1 / 3 else 0 for _ in range(q)]
                for _ in range(2))
        x[-1] = y[-1] = top
        return np.array(x, dtype), np.array(y, dtype)

    @pytest.mark.parametrize("q", [1, 7, 64])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_branches_match_brute_force(self, q, dtype, monkeypatch):
        x, y = self.vectors(q, dtype)
        want = self.brute(x.tolist(), y.tolist(), q)
        assert max(want) > 2 ** 64 or dtype is np.int64
        for ratio in (0, 10 ** 9):      # always sparse, always dense
            monkeypatch.setattr(poly, "_DENSE_RATIO", ratio)
            got = poly._cyclic(x, y, q)
            assert got.dtype == dtype
            assert got.tolist() == want

    def test_int64_entries_stay_exact(self, monkeypatch):
        # three products near 2^60 land on each entry mod 3: the entries
        # near 2^61.6 come out exact in int64, in either branch
        x = np.full(3, 2 ** 30, np.int64)
        y = np.array([2 ** 30 + 1, 2 ** 30 + 3, 2 ** 30 + 5], np.int64)
        want = self.brute(x.tolist(), y.tolist(), 3)
        assert min(want) > 3 * 2 ** 60
        for ratio in (0, 10 ** 9):
            monkeypatch.setattr(poly, "_DENSE_RATIO", ratio)
            got = poly._cyclic(x, y, 3)
            assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_sparse_slices_give_the_same_sum(self, dtype, monkeypatch):
        # with 3 rows of pairs a slice, the pairs go in many slices
        x, y = self.vectors(64, dtype, seed=11)
        monkeypatch.setattr(poly, "_DENSE_RATIO", 0)
        whole = poly._cyclic(x, y, 64)
        monkeypatch.setattr(poly, "_BLOCK_ROWS", 3 * np.count_nonzero(y))
        assert poly._cyclic(x, y, 64).tolist() == whole.tolist()
        assert whole.tolist() == self.brute(x.tolist(), y.tolist(), 64)

    def test_a_zero_vector_gives_zeros(self):
        x = np.zeros(6, object)
        got = poly._cyclic(x, np.arange(6, dtype=np.int64), 6)
        assert got.dtype == object and got.tolist() == [0] * 6


class TestDifferencing:
    def test_square_gives_twice_product(self):
        G = parse_polynomial("n=1\n1 2\n")
        out = weyl_difference_poly(G, 2)
        assert out == parse_polynomial("n=2\n2 1 1\n")

    def test_cube_gives_six_product(self):
        G = parse_polynomial("n=1\n1 3\n")
        out = weyl_difference_poly(G, 3)
        assert out == parse_polynomial("n=3\n6 1 1 1\n")

    def test_low_degree_annihilated(self):
        G = parse_polynomial("n=2\n3 1 0\n2 0 1\n9 0 0\n")   # degree 1
        assert weyl_difference_poly(G, 2).is_zero()
        assert weyl_difference(G, 2, [[1, 2], [3, -1]]) == 0

    def test_numeric_matches_symbolic(self):
        G = parse_polynomial("n=2\n1 2 1\n-2 0 3\n")         # degree 3
        sym = weyl_difference_poly(G, 3)
        args = [[1, -2], [0, 3], [2, 1]]
        flat = [x for a in args for x in a]
        assert weyl_difference(G, 3, args) == sym.evaluate(flat)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_symmetry_in_arguments(self, d, data):
        G = parse_polynomial("n=2\n1 2 2\n1 4 0\n-3 1 3\n")  # degree 4
        args = [[data.draw(st.integers(-4, 4)) for _ in range(2)]
                for _ in range(d)]
        base = weyl_difference(G, d, args)
        perm = data.draw(st.permutations(list(range(d))))
        assert weyl_difference(G, d, [args[i] for i in perm]) == base

    def test_multilinearity_at_top_degree(self):
        G = parse_polynomial("n=2\n1 3 0\n2 1 2\n")          # cubic form
        u, v, w, w2 = [1, 2], [3, -1], [-2, 5], [4, 1]
        lhs = weyl_difference(G, 3, [u, v, [a + b for a, b in zip(w, w2)]])
        assert lhs == weyl_difference(G, 3, [u, v, w]) + \
            weyl_difference(G, 3, [u, v, w2])


class TestEnumerationBudget:
    """One limit, ``poly.DEFAULT_ENUM_BUDGET``, read by every check."""

    def test_one_limit_is_seen_by_every_module(self, enum_limit):
        # the cone walks 16^2 rows x' at N = 30 (count), one head read off
        # a tensor of 3 entries (2 * 3 + 3^3 = 33) and one kernel point at
        # radius 10 (arcs) and 6^3 unit tuples mod 7 (local)
        cone = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n")
        table = mangoldt_table(30)
        runs = [(lambda: count_direct(cone, 30, table), 256),
                (lambda: z_count(cone, 2, 10), 34),
                (lambda: value_histogram(cone, 7), 216)]
        for run, cost in runs:
            run()
            with enum_limit(cost - 1):
                with pytest.raises(BudgetExceeded,
                                   match=f"costs {cost}, over budget "
                                         f"{cost - 1}$"):
                    run()
            with enum_limit(cost):
                run()
