"""h-invariant machinery: decompositions, quadratic invariants, splittings.

The Witt index is cross-checked against brute-force isotropic-vector search
(one-sided where the search box is the limiting factor), and the Hilbert
symbol against its defining solvability condition for small parameters.
"""
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from circlekit import hinv, poly
from circlekit.hinv import (Decomposition, a_d_lower, build_gm_fm,
                            gram_matrix, hilbert_symbol, is_local_square,
                            lemma21_check, linear_count, quadratic_h,
                            verify_decomposition, witt_index)
from circlekit.poly import Polynomial, parse_polynomial
from circlekit.primes import (_diagonal, _factorint, _is_prime, _jacobi,
                              _strong_lucas_probable_prime, _valuation)


def has_isotropic_vector(diag, H):
    """Brute search for 0 != x in [-H, H]^r with sum a_i x_i^2 = 0."""
    r = len(diag)
    for x in product(range(0, H + 1), *[range(-H, H + 1)] * (r - 1)):
        if any(x) and sum(a * v * v for a, v in zip(diag, x)) == 0:
            return True
    return False


def random_quadratic(rng, n):
    terms = {}
    for i in range(n):
        for j in range(i, n):
            c = rng.randint(-6, 6)
            if c:
                e = [0] * n
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = c
    return Polynomial(n, terms)


M61, M89, M127 = 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1     # Mersenne primes


class TestFactorisation:
    """The factoriser and its primality test against sympy's."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10 ** 15))
    def test_matches_sympy(self, n):
        assert _factorint(n) == sympy.factorint(n)

    @pytest.mark.parametrize("n", [
        M127, M61 * 3 ** 5 * 2 ** 31, M89 ** 2 * 7, 1000003 ** 5 * 1000033,
        (10 ** 12 + 39) ** 3 * 41 ** 2, 2 ** 64 * 3])
    def test_large_primes_and_powers(self, n):
        assert _factorint(n) == sympy.factorint(n)

    @pytest.mark.parametrize("n", [
        # strong pseudoprimes to the first prime bases, Carmichael numbers,
        # and composites just above 2^64, where Baillie-PSW takes over
        2047, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        3825123056546413051, 318665857834031151167461,
        3317044064679887385961981, 561, 41041, 5394826801, 9746347772161,
        (2 ** 64 + 13) * (2 ** 65 + 1), (2 ** 32 + 15) ** 2, 2 ** 64 + 13,
        M89, M127, M61 * M89])
    def test_primality_on_pseudoprimes(self, n):
        assert _is_prime(n) == sympy.isprime(n)

    def test_strong_lucas_matches_sympy(self):
        # includes the strong Lucas pseudoprimes 5459, 5777, 10877, ...
        coprime = [n for n in range(41, 30000, 2)
                   if all(n % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29,
                                          31, 37))]
        assert [_strong_lucas_probable_prime(n) for n in coprime] \
            == [is_strong_lucas_prp(n) for n in coprime]


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices up to 5 x 5, zeros frequent so that
    rank drops and zero diagonals (the pairing step) occur."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = draw(entry)
    return M


def is_rational_square(x):
    return x >= 0 and all(math.isqrt(k) ** 2 == k for k in (x.p, x.q))


def positive_eigenvalues(A):
    """The sign changes in the coefficients of A's characteristic
    polynomial: the number of its positive roots, exactly, as a symmetric
    matrix has only real ones (Descartes' rule of signs)."""
    c = [int(x) for x in A.charpoly().all_coeffs() if x]
    return sum(a * b < 0 for a, b in zip(c, c[1:]))


class TestNumberTheory:
    """The valuation, Legendre symbol and congruence diagonaliser that
    ``hinv`` and ``local`` share, against sympy."""

    @pytest.mark.parametrize("a, p, want", [
        (0, 3, (math.inf, 0)), (0, 2, (math.inf, 0)), (5, 3, (0, 5)),
        (3 ** 4 * 7, 3, (4, 7)), (-3 ** 4 * 7, 3, (4, -7)),
        (-40, 2, (3, -5)), (2 ** 70, 2, (70, 1)), (-1, 2, (0, -1))])
    def test_valuation(self, a, p, want):
        assert _valuation(a, p) == want

    def test_jacobi_is_legendre_at_a_prime(self):
        for p in sympy.primerange(3, 60):
            assert [_jacobi(a, p) for a in range(-70, 70)] == \
                [sympy.legendre_symbol(a % p, p) for a in range(-70, 70)]

    @settings(max_examples=300, deadline=None)
    @given(symmetric_matrices())
    def test_diagonal_over_Q(self, M):
        d, A = _diagonal(M), sympy.Matrix(M)
        assert len(d) == A.rank() and 0 not in d
        # Sylvester's law of inertia: a congruence keeps the signature
        assert sum(v > 0 for v in d) == positive_eigenvalues(A)
        if len(d) == len(M):
            assert is_rational_square(sympy.Rational(math.prod(d)) / A.det())

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @settings(max_examples=150, deadline=None)
    @given(M=symmetric_matrices())
    def test_diagonal_mod_p(self, M, p):
        d, det = _diagonal(M, p), int(sympy.Matrix(M).det())
        assert all(0 < v < p for v in d)
        if det % p:
            assert len(d) == len(M)
            assert _jacobi(math.prod(d), p) == _jacobi(det, p)
        else:
            assert len(d) < len(M)


class TestSquareClasses:
    def test_local_squares(self):
        assert is_local_square(9, None) and not is_local_square(-9, None)
        assert is_local_square(17, 2)            # 17 = 1 mod 8
        assert not is_local_square(3, 2)
        assert is_local_square(4, 7)
        assert not is_local_square(7, 7)         # odd valuation


class TestHilbertSymbol:
    def test_small_table(self):
        # (a,b)_p = 1 iff z^2 = a x^2 + b y^2 has a nontrivial p-adic point;
        # classical small values
        assert hilbert_symbol(-1, -1, None) == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, 3) == 1
        assert hilbert_symbol(2, 3, 3) == -1
        assert hilbert_symbol(3, 3, 3) == -1
        assert hilbert_symbol(5, 7, 11) == 1

    def test_symmetry_and_bimultiplicativity(self):
        rng = random.Random(5)
        for p in (None, 2, 3, 5, 7):
            for _ in range(40):
                a, b, c = (rng.choice([x for x in range(-15, 16) if x])
                           for _ in range(3))
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
                assert hilbert_symbol(a, b * c, p) == \
                    hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
                assert hilbert_symbol(a, -a, p) == 1

    def test_product_formula(self):
        # product over all places is 1
        rng = random.Random(9)
        for _ in range(30):
            a, b = (rng.choice([x for x in range(-20, 21) if x])
                    for _ in range(2))
            places = {None, 2}
            for v in (a, b):
                m = abs(v)
                d = 2
                while d * d <= m:
                    if m % d == 0:
                        places.add(d)
                        while m % d == 0:
                            m //= d
                    d += 1
                if m > 1:
                    places.add(m)
            prod = 1
            for p in places:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1


class TestWittIndex:
    def test_curated_exact_values(self):
        assert witt_index([1, -1]) == 1                   # hyperbolic plane
        assert witt_index([1, -1, 1, -1]) == 2
        assert witt_index([1, 1, 1]) == 0                 # definite
        assert witt_index([1, 1, -1]) == 1
        assert witt_index([1, 2, -3]) == 1                # 1 + 2 = 3 at (1,1,1)
        assert witt_index([1, 1, 1, 1, -7]) == 1
        assert witt_index([2, 3, -5, 7]) == 1
        assert witt_index([1, -2]) == 0                   # 2 not a square

    def test_anisotropic_mod8(self):
        # x^2 + y^2 + z^2 = 0 only trivially over Q
        assert witt_index([1, 1, 1]) == 0
        # sum of four squares minus a 7-like target: 2-adic obstruction
        assert witt_index([1, 1, 1, 1]) == 0

    def test_search_agrees_one_sided(self):
        rng = random.Random(17)
        for _ in range(60):
            r = rng.randint(2, 4)
            diag = [rng.choice([x for x in range(-9, 10) if x])
                    for _ in range(r)]
            w = witt_index(diag)
            if has_isotropic_vector(diag, 8):
                assert w >= 1, diag
            if w == 0 and r <= 3:
                # small anisotropic forms really have no small vectors
                assert not has_isotropic_vector(diag, 8), diag

    def test_scaling_invariance(self):
        rng = random.Random(23)
        for _ in range(30):
            diag = [rng.choice([x for x in range(-9, 10) if x])
                    for _ in range(rng.randint(2, 5))]
            c = rng.choice([2, 3, 5, -1, -6])
            # w is invariant under scaling each entry by a square, and the
            # whole form by any nonzero rational keeps isotropy structure
            assert witt_index([a * c * c for a in diag]) == witt_index(diag)

    def test_rational_entries_by_square_class(self):
        # u/v is in the class of u v, and of u v times any rational square
        rng = random.Random(29)
        for _ in range(40):
            diag = [rng.choice([x for x in range(-30, 31) if x])
                    for _ in range(rng.randint(1, 5))]
            w = witt_index(diag)
            assert witt_index([Fraction(1, a) for a in diag]) == w
            assert witt_index([a * Fraction(rng.randint(1, 9),
                                            rng.randint(1, 9)) ** 2
                               for a in diag]) == w
        assert witt_index([Fraction(1, 3), -3]) == 1
        assert witt_index([Fraction(2, 3), 6, 0]) == 0

    def test_each_entry_factored_once(self, monkeypatch):
        # only the places are found by factoring, one call per nonzero
        # entry; no square class is reduced
        calls = []

        def counted(n):
            calls.append(n)
            return _factorint(n)

        monkeypatch.setattr(hinv, "_factorint", counted)
        rng = random.Random(43)
        for _ in range(60):
            diag = [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                    for _ in range(rng.randint(1, 6))]
            calls.clear()
            witt_index(diag)
            assert len(calls) <= sum(1 for a in diag if a), diag


class TestQuadraticH:
    def test_known_values(self):
        h = quadratic_h(parse_polynomial("n=2\n1 1 1\n"))     # x1 x2
        assert h.h_value == 1 and h.witt_index == 1
        h = quadratic_h(parse_polynomial("n=2\n1 2 0\n1 0 2\n"))
        assert h.h_value == 2
        h = quadratic_h(parse_polynomial("n=3\n1 2 0 0\n-1 0 2 0\n1 0 0 2\n"))
        assert h.h_value == 2
        h = quadratic_h(parse_polynomial("n=4\n1 2 0 0 0\n1 0 2 0 0\n"
                                         "1 0 0 2 0\n1 0 0 0 2\n"))
        assert h.h_value == 4

    def test_rank_and_signature(self):
        h = quadratic_h(parse_polynomial("n=3\n1 2 0 0\n-2 0 2 0\n"))
        assert h.rank == 2 and h.signature == (1, 1)

    def test_gram_matrix_convention(self):
        assert gram_matrix is poly.gram_matrix     # one reader, in poly
        f = parse_polynomial("n=2\n1 2 0\n3 1 1\n")
        A = gram_matrix(f)
        assert A[0][0] == 1 and A[0][1] == Fraction(3, 2) == A[1][0]
        # f(x) = x^T A x
        for pt in [(1, 0), (0, 1), (2, 3), (-1, 4)]:
            v = np.array(pt, dtype=object)
            quad = sum(A[i][j] * v[i] * v[j] for i in range(2)
                       for j in range(2))
            assert quad == f.evaluate(pt)

    def test_unimodular_invariance(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 4)
            f = random_quadratic(rng, n)
            if f.is_zero() or f.degree != 2:
                continue
            h0 = quadratic_h(f.top_degree_part()).h_value
            # random unimodular T via row operations on the identity
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(4):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            g = f.top_degree_part().compose_linear(rows, n)
            assert quadratic_h(g).h_value == h0

    def test_restriction_bounds(self):
        rng = random.Random(37)
        checked = 0
        while checked < 40:
            f = random_quadratic(rng, rng.randint(2, 4))
            if f.is_zero() or f.degree != 2:
                continue
            rep = lemma21_check(f)
            assert rep.ok, (f.to_text(), rep)
            checked += 1


class TestDecompositions:
    def test_verify_good(self):
        # x1 x2 + x3 x4 as a length-2 product decomposition
        f = parse_polynomial("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        dec = Decomposition(target=f, pairs=[
            (parse_polynomial("n=4\n1 1 0 0 0\n"),
             parse_polynomial("n=4\n1 0 1 0 0\n")),
            (parse_polynomial("n=4\n1 0 0 1 0\n"),
             parse_polynomial("n=4\n1 0 0 0 1\n"))])
        ok, diag = verify_decomposition(dec)
        assert ok and not diag
        assert linear_count(dec) == 2
        assert dec.claimed_h == 2

    def test_verify_detects_mismatch(self):
        f = parse_polynomial("n=2\n1 1 1\n")
        dec = Decomposition(target=f, pairs=[
            (parse_polynomial("n=2\n1 1 0\n"),
             parse_polynomial("n=2\n2 0 1\n"))])
        ok, diag = verify_decomposition(dec)
        assert not ok and "first_offending_monomial" in diag

    def test_verify_shape_violations(self):
        f = parse_polynomial("n=2\n1 1 1\n")
        dec = Decomposition(target=f, pairs=[
            (parse_polynomial("n=2\n1 1 1\n"),
             parse_polynomial("n=2\n1 0 0\n"))])    # degree-0 factor
        ok, diag = verify_decomposition(dec)
        assert not ok and "reason" in diag

    def test_verify_requires_form(self):
        inhom = parse_polynomial("n=2\n1 1 1\n1 0 0\n")
        with pytest.raises(ValueError):
            verify_decomposition(Decomposition(target=inhom, pairs=[]))

    def test_gm_split_roundtrip(self):
        # f = x1 x2 + x3 x4 with U_1 = x1 + x3 echelonized over M = 1
        f = parse_polynomial("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        u1 = parse_polynomial("n=4\n1 1 0 0 0\n1 0 0 1 0\n")   # x1 + x3
        dec = Decomposition(target=f, pairs=[(u1, u1), (u1, u1)])
        g1, f1 = build_gm_fm(f, dec, 1)
        assert (g1 + f1) == f
        # f_M is f with x1 -> -x3
        assert f1 == parse_polynomial("n=4\n-1 0 1 1 0\n1 0 0 1 1\n")

    def test_gm_split_rejects_bad_support(self):
        f = parse_polynomial("n=2\n1 1 1\n")
        u1 = parse_polynomial("n=2\n1 1 0\n1 0 1\n")           # x1 + x2
        dec = Decomposition(target=f, pairs=[(u1, u1), (u1, u1)])
        with pytest.raises(ValueError):
            build_gm_fm(f, dec, 2)      # l_2 would touch x_2 <= M


def test_threshold_constant_growth():
    assert a_d_lower(2) < a_d_lower(3) < a_d_lower(4)
    assert a_d_lower(2) > 30
