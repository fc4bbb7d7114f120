"""Arc geometry, exponential sums, rational classification, degeneracy
counts.  Brute-force enumeration over small ranges is the oracle throughout.
"""
import cmath
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from circlekit import arcs, poly
from circlekit.arcs import (ArcDissection, E_normalized, RationalFreq, S_sum,
                            T_scan, T_sum, _kernel, _kernel_count, build_arcs,
                            classify_alpha, estimate_gd, z_count)
from circlekit.count import mangoldt_table
from circlekit.poly import (_BLOCK_ROWS, DEFAULT_ENUM_BUDGET, BudgetExceeded,
                            Polynomial, parse_polynomial, weyl_difference)


def exact_phase_sums(b, alphas, axes, weight=None):
    """Per alpha, the sum over the grid ``axes`` of w(x_1)...w(x_n)
    e(alpha b(x)) by fsum, each phase reduced exactly: with D the common
    denominator of b and alpha = m / r as a Fraction, alpha b(x) mod 1 is
    ((m D b(x)) mod D r) / (D r) in Python ints.  The float weights are
    first summed with fsum per class of D b(x) mod Q, Q = D lcm(r), or per
    exact value of D b(x) when Q is above 2^62."""
    D = math.lcm(*(Fraction(c).denominator for c in b.terms.values()))
    ratios = [Fraction(a).as_integer_ratio() for a in alphas]
    Q = D * math.lcm(*(r for _, r in ratios))
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, b.n)
    v = (b * D).eval_int(pts)
    if Q < 2 ** 62:
        v = v % Q
    w = np.ones(len(pts)) if weight is None else weight[pts].prod(axis=1)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    starts = np.flatnonzero(v[1:] != v[:-1]) + 1
    S = {int(part[0]): math.fsum(ws.tolist())
         for part, ws in zip(np.split(v, starts), np.split(w, starts))}
    out = []
    for m, r in ratios:
        q = D * r
        phase = {u: 2 * math.pi * (m * u % q) / q for u in S}
        out.append(complex(math.fsum(S[u] * math.cos(phase[u]) for u in S),
                           math.fsum(S[u] * math.sin(phase[u]) for u in S)))
    return out


FIVE_SQUARES = ("n=5\n1 2 0 0 0 0\n1 0 2 0 0 0\n1 0 0 2 0 0\n1 0 0 0 2 0\n"
                "1 0 0 0 0 2\n-12005 0 0 0 0 0\n")
CONE = "n=3\n1 1 1 0\n-1 0 0 2\n"
RATIONAL = "n=2\n1/3 2 0\n1/2 1 1\n-5/7 0 0\n"     # x1^2/3 + x1 x2/2 - 5/7


class TestRationalFreq:
    def test_reduced_only(self):
        RationalFreq(1, 3)
        with pytest.raises(ValueError):
            RationalFreq(2, 4)
        with pytest.raises(ValueError):
            RationalFreq(3, 3)
        assert RationalFreq(0, 1).value == 0


class TestArcGeometry:
    def test_small_dissection(self):
        dis = build_arcs(100, 1, 2)
        assert {(f.m, f.q) for f, _ in dis.arcs} == \
            {(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)}
        assert dis.radius() == pytest.approx(1e-4 * math.log(100), abs=1e-18)
        assert dis.total_measure == pytest.approx(12e-4 * math.log(100))
        assert dis.total_measure < 1

    def test_disjointness_by_rational_gaps(self):
        dis = build_arcs(1000, 1.2, 3)
        centers = sorted(f.value for f, _ in dis.arcs)
        r = dis.radius()
        gaps = [b - a for a, b in zip(centers, centers[1:])]
        gaps.append(1 - centers[-1])
        assert min(gaps) > 2 * Fraction(r)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            build_arcs(3, 8, 1)     # huge radius at tiny N

    @pytest.mark.parametrize("N,C", [(100, -1), (10 ** 6, -0.5), (3, -40)])
    def test_no_center_rejected(self, N, C):
        # (log N)^C < 1 leaves no denominator q >= 1
        with pytest.raises(ValueError, match="no arc"):
            build_arcs(N, C, 2)

    def test_centres_charged_before_any_is_made(self, monkeypatch,
                                                enum_limit):
        # (log 10^6)^3 = 2636.9...: 2636 * 2637 / 2 = 3,475,566 candidate
        # m/q, which took seconds to build; about 3 * 10^22 at C = 10
        def fail(*args, **kwargs):
            raise AssertionError("a centre made before the budget check")

        monkeypatch.setattr(arcs, "Fraction", fail)
        with enum_limit(10 ** 6), pytest.raises(
                BudgetExceeded, match="costs 3475566, over budget 1000000"):
            build_arcs(10 ** 6, 3, 2)

    @pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
    def test_non_finite_C_rejected(self, C):
        with pytest.raises(ValueError, match=f"N=1000, C={C}"):
            build_arcs(1000, C, 2)

    def test_overflowing_Q_rejected(self):
        # (log 10^6)^1000 is about 10^1140
        with pytest.raises(ValueError, match="overflows.*N=1000000, C=1000"):
            build_arcs(10 ** 6, 1000, 2)

    def test_growth_in_C(self):
        a1 = build_arcs(10 ** 4, 1, 2)
        a2 = build_arcs(10 ** 4, 2, 2)
        assert len(a2.arcs) > len(a1.arcs)
        assert a2.radius() > a1.radius()

    def test_membership_wraps(self):
        dis = build_arcs(100, 1, 2)
        r = dis.radius()
        assert dis.contains(1 - r / 2) == RationalFreq(0, 1)
        assert dis.contains(0.5 + r / 2) == RationalFreq(1, 2)
        assert dis.contains(0.4) is None


class TestWeightedSum:
    def brute(self, b, alpha, N, table):
        tot = 0j
        ks = [k for k in range(N + 1) if table.values[k] > 0]
        for pt in product(ks, repeat=b.n):
            w = math.prod(table.values[k] for k in pt)
            tot += w * cmath.exp(2j * cmath.pi * alpha * b.evaluate(pt))
        return tot

    def test_hand_value_alternating(self):
        b = parse_polynomial("n=1\n1 1\n")
        t = mangoldt_table(5)
        got = T_sum(b, 0.5, 5, t)
        assert got.real == pytest.approx(
            2 * math.log(2) - math.log(3) - math.log(5), abs=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_zero_frequency_collapses(self):
        b = parse_polynomial("n=2\n1 2 0\n-1 0 1\n")
        t = mangoldt_table(40)
        psi = float(np.sum(t.values[:41]))
        assert T_sum(b, 0.0, 40, t).real == pytest.approx(psi ** 2, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 1 / 3, 0.77])
    def test_matches_brute(self, alpha):
        b = parse_polynomial("n=2\n1 1 0\n2 0 1\n")
        t = mangoldt_table(12)
        got = T_sum(b, alpha, 12, t)
        assert got == pytest.approx(self.brute(b, alpha, 12, t), abs=1e-9)

    def test_triangle_bound(self):
        b = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        t = mangoldt_table(25)
        peak = T_sum(b, 0.0, 25, t).real
        for alpha in (0.1, 0.23, 0.5, 0.912):
            assert abs(T_sum(b, alpha, 25, t)) <= peak + 1e-9

    def test_table_too_small(self):
        with pytest.raises(ValueError):
            T_sum(parse_polynomial("n=1\n1 1\n"), 0.0, 50, mangoldt_table(10))

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1 / 3, 0.77])
    def test_rational_coefficients_match_brute(self, alpha):
        # x1^2 / 3 + x1 x2 / 2 - 5/7: many coincident values per block
        b = parse_polynomial("n=2\n1/3 2 0\n1/2 1 1\n-5/7 0 0\n")
        t = mangoldt_table(30)
        got = T_sum(b, alpha, 30, t)
        assert got == pytest.approx(self.brute(b, alpha, 30, t), abs=1e-9)

    def test_grid_of_several_blocks(self):
        # x1^2 - x2 x3 + 2 x4 over 21^4 = 194,481 rows, two grid blocks
        b = parse_polynomial("n=4\n1 2 0 0 0\n-1 0 1 1 0\n2 0 0 0 1\n")
        t = mangoldt_table(43)
        ks = np.flatnonzero(t.values[:44])
        assert len(ks) ** 4 > _BLOCK_ROWS
        total = math.fsum(np.asarray(t.values)[ks]) ** 4
        alphas = [0.0, 0.05, 0.5, 0.613]
        want = exact_phase_sums(b, alphas, [ks] * 4, np.asarray(t.values))
        for alpha, w in zip(alphas, want):
            assert abs(T_sum(b, alpha, 43, t) - w) <= 1e-14 * total, alpha

    @pytest.mark.parametrize("text,N", [
        (CONE, 200), (FIVE_SQUARES, 20),
        ("n=2\n1 7 5\n-3 0 2\n", 60),    # x1^7 x2^5 - 3 x2^2 past 2^62
    ])
    def test_exact_phases(self, text, N):
        # alpha b(x) reaches 10^4 rad on the cone; alpha = 2.5e-9 = m / r
        # has r near 2^81, so the residues mod D r need Python ints
        b, t = parse_polynomial(text), mangoldt_table(N)
        ks = np.flatnonzero(t.values[:N + 1])
        alphas = [1 / 16, 0.1, 0.3183, 0.77, 2.5e-9, Fraction(3, 7)]
        want = exact_phase_sums(b, alphas, [ks] * b.n, np.asarray(t.values))
        peak = math.fsum(np.asarray(t.values)[ks]) ** b.n
        for alpha, w in zip(alphas, want):
            assert abs(T_sum(b, alpha, N, t) - w) <= 1e-14 * peak, alpha

    @pytest.mark.parametrize("alpha", [0.1, Fraction(1, 3), 0.3183, 2.5e-9])
    def test_separable_by_the_product_identity(self, alpha):
        # five squares at N = 10^4: |ks|^5 is far over the budget, so only
        # the product e(-12005 alpha) T_1(alpha)^5 of one-variable sums runs
        N, t = 10 ** 4, mangoldt_table(10 ** 4)
        ks = np.flatnonzero(t.values[:N + 1])
        assert len(ks) ** 5 > DEFAULT_ENUM_BUDGET
        one = exact_phase_sums(parse_polynomial("n=1\n1 2\n"), [alpha],
                               [ks], np.asarray(t.values))[0]
        m, r = Fraction(alpha).as_integer_ratio()
        want = cmath.exp(-2j * math.pi * (12005 * m % r / r)) * one ** 5
        got = T_sum(parse_polynomial(FIVE_SQUARES), alpha, N, t)
        assert abs(got - want) <= \
            1e-14 * math.fsum(np.asarray(t.values)[ks]) ** 5

    def test_grid_budget_checked_before_any_evaluation(self, monkeypatch):
        # the cone is not separable: 1,280^3 prime-power tuples at N = 10^4
        b, t = parse_polynomial(CONE), mangoldt_table(10 ** 4)

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the budget check")

        monkeypatch.setattr(Polynomial, "eval_int", fail)
        with pytest.raises(BudgetExceeded):
            T_sum(b, 0.1, 10 ** 4, t)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            T_sum(parse_polynomial(CONE), alpha, 10, mangoldt_table(10))

    def test_numpy_alpha_is_its_exact_value(self):
        b, t = parse_polynomial(CONE), mangoldt_table(30)
        for alpha in (np.float32(0.1), np.float64(0.3183), np.int64(2)):
            want = T_sum(b, Fraction(float(alpha)), 30, t)
            assert T_sum(b, alpha, 30, t) == want




class TestScan:
    """T_scan: every T(k/P) from one exact residue histogram and one FFT."""

    @pytest.mark.parametrize("text,N,P", [
        (FIVE_SQUARES, 40, 32),
        (CONE, 200, 16),
        (RATIONAL, 30, 12),
        (CONE, 10, 64),             # more points than the grid is wide
    ])
    def test_matches_exact_phase_reference(self, text, N, P):
        b, t = parse_polynomial(text), mangoldt_table(N)
        ks = np.flatnonzero(t.values[:N + 1])
        want = exact_phase_sums(b, [Fraction(k, P) for k in range(P)],
                                [ks] * b.n, np.asarray(t.values))
        got = T_scan(b, P, N, t)
        assert len(got) == P
        err = max(abs(g - w) for g, w in zip(got, want))
        assert err <= 1e-15 * want[0].real

    @pytest.mark.parametrize("text,N,P", [(CONE, 60, 16), (RATIONAL, 30, 12),
                                          ("n=2\n1 2 0\n-1 0 1\n", 40, 10)])
    def test_agrees_with_T_sum(self, text, N, P):
        b, t = parse_polynomial(text), mangoldt_table(N)
        got = T_scan(b, P, N, t)
        for k in range(P):
            err = abs(got[k] - T_sum(b, Fraction(k, P), N, t))
            assert err <= 2e-15 * got[0].real, k

    @pytest.mark.parametrize("text", [CONE, FIVE_SQUARES])
    def test_budget_checked_before_any_evaluation(self, text, monkeypatch,
                                                  enum_limit):
        # the cone walks 12^3 = 1,728 folded tuples mod 16; five squares
        # adds its parts' histograms mod 32 in 2,562 steps (21 residues)
        b, t = parse_polynomial(text), mangoldt_table(200)

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the budget check")

        monkeypatch.setattr(Polynomial, "eval_int", fail)
        monkeypatch.setattr(Polynomial, "eval_float", fail)
        monkeypatch.setattr(Polynomial, "evaluate", fail)
        with enum_limit(1000), pytest.raises(BudgetExceeded):
            T_scan(b, 16 if text == CONE else 32, 200, t)

    @pytest.mark.parametrize("text,P", [(CONE, 16), (CONE, 64),
                                        (FIVE_SQUARES, 64),
                                        (FIVE_SQUARES, 1024)])
    def test_python_and_numpy_paths_agree(self, text, P, each_path):
        # numpy's histogram and FFT, then Python's dicts and fsum
        b, t = parse_polynomial(text), mangoldt_table(200)
        scans = [T_scan(b, P, 200, t) for _ in each_path()]
        assert [len(s) for s in scans] == [P, P]
        assert all(type(v) is complex for s in scans for v in s)
        err = max(abs(u - v) for u, v in zip(*scans))
        assert err <= 1e-15 * scans[0][0].real

    def test_zero_frequency_is_psi_to_the_n(self):
        t = mangoldt_table(200)
        psi = math.fsum(t.values)
        got = T_scan(parse_polynomial(CONE), 16, 200, t)[0]
        assert got.real == pytest.approx(psi ** 3, rel=1e-14)
        assert got.imag == 0.0

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            T_scan(parse_polynomial(CONE), 0, 10, mangoldt_table(10))

    def test_separable_scan_at_scale(self):
        # 61 prime powers squared spread over the 4096 residues, so every
        # fold of the five parts adds its pairs in the sparse branch
        N, P = 200, 4096
        t = mangoldt_table(N)
        got = T_scan(parse_polynomial(FIVE_SQUARES), P, N, t)
        lam = {x: v for x, v in enumerate(t.values) if v}
        psi = math.fsum(lam.values())
        assert abs(got[0] - psi ** 5) <= 1e-15 * got[0].real
        for k in (1, 7, 1024, 2047):
            # e(-12005 k / P) (sum of Lambda(x) e(k x^2 / P))^5, each phase
            # reduced exactly
            phases = [(w, 2 * math.pi * (k * x * x % P) / P)
                      for x, w in lam.items()]
            s = complex(math.fsum(w * math.cos(ph) for w, ph in phases),
                        math.fsum(w * math.sin(ph) for w, ph in phases))
            want = cmath.exp(2j * math.pi * (-12005 * k % P) / P) * s ** 5
            assert abs(got[k] - want) <= 1e-15 * got[0].real, k


class TestLatticeSum:
    def test_geometric_series(self):
        psi = parse_polynomial("n=1\n1 1\n")
        got = S_sum(psi, 1 / 3, [(0, 1)], 10)
        exact = sum(cmath.exp(2j * cmath.pi * k / 3) for k in range(11))
        assert got == pytest.approx(exact, abs=1e-12)

    def test_zero_alpha_counts_points(self):
        psi = parse_polynomial("n=2\n1 1 1\n")
        got = S_sum(psi, 0.0, [(0, 1), (-0.5, 0.5)], 6)
        assert got == pytest.approx(7 * 7, abs=1e-12)

    def test_integer_alpha_periodicity(self):
        psi = parse_polynomial("n=2\n1 2 0\n3 0 1\n")
        a0 = S_sum(psi, 0.0, [(0, 1), (0, 1)], 8)
        a1 = S_sum(psi, 1.0, [(0, 1), (0, 1)], 8)
        assert a1 == pytest.approx(a0, abs=1e-9)

    def test_box_side_check(self):
        with pytest.raises(ValueError):
            S_sum(parse_polynomial("n=1\n1 1\n"), 0.0, [(0, 2)], 5)

    @pytest.mark.parametrize("text", ["n=2\n1 3 0\n2 1 1\n-7 0 2\n",
                                      "n=2\n1/3 3 0\n5 0 2\n1 0 0\n"])
    @pytest.mark.parametrize("alpha", [0.123456789, Fraction(7, 1009)])
    def test_large_phases_match_fraction_reference(self, text, alpha):
        # psi reaches about 10^6 on the box (-100, 100] x [0, 100], so
        # alpha psi(x) reaches 10^5 rad; the first psi is not separable
        psi = parse_polynomial(text)
        box, P = [(-0.5, 0.5), (0, 0.5)], 200
        axes = [range(-100, 101), range(0, 101)]
        want = exact_phase_sums(psi, [alpha], axes)[0]
        assert abs(S_sum(psi, alpha, box, P) - want) <= 1e-14 * 201 * 101

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            S_sum(parse_polynomial("n=1\n1 1\n"), alpha, [(0, 1)], 5)


class TestNormalizedResidueSum:
    def test_trivial_modulus(self):
        assert E_normalized(parse_polynomial("n=1\n1 2\n"), 1, 0) == 1.0

    def test_linear_cancels(self):
        got = E_normalized(parse_polynomial("n=1\n1 1\n"), 3, 1)
        assert abs(got) < 1e-12

    def test_gauss_sum_modulus(self):
        got = E_normalized(parse_polynomial("n=1\n1 2\n"), 3, 1)
        assert abs(got) == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_matches_brute(self):
        psi = parse_polynomial("n=2\n1 2 0\n1 1 1\n")
        q, m = 5, 2
        brute = sum(cmath.exp(2j * cmath.pi * m * psi.evaluate(pt) / q)
                    for pt in product(range(q), repeat=2)) / q ** 2
        assert E_normalized(psi, q, m) == pytest.approx(brute, abs=1e-12)

    def test_gcd_guard(self):
        with pytest.raises(ValueError):
            E_normalized(parse_polynomial("n=1\n1 1\n"), 4, 2)


class TestClassification:
    def test_exact_rational(self):
        q, a, dist = classify_alpha(1 / 3, 10, 2, 0.6)
        assert (q, a) == (3, 1) and dist < 1e-12

    def test_golden_ratio_is_minor(self):
        phi = (math.sqrt(5) - 1) / 2
        assert classify_alpha(phi, 1000, 2, 0.3) == "minor"

    def test_dirichlet_regime_always_hits(self):
        # Delta > d - 1 makes a witness unconditional
        rng = np.random.default_rng(3)
        for alpha in rng.random(50):
            out = classify_alpha(float(alpha), 50, 2, 1.2)
            assert out != "minor"
            q, a, dist = out
            assert q <= 50 ** 1.2 and dist <= 50 ** (1.2 - 2) + 1e-12

    def test_convergent_branch_matches_scan(self):
        # q_max = P^Delta above 10^6, far past any short scan; d = 1 and
        # Delta < 1/2 put the threshold below 1/q_max, so both hits and
        # "minor" occur.  The oracle is the float scan over every q.
        def scan(alpha, P, d, Delta):
            qs = np.arange(1, int(P ** Delta) + 1)
            dist = np.abs(qs * alpha - np.round(qs * alpha))
            hits = np.flatnonzero(dist <= P ** (Delta - d))
            if not len(hits):
                return "minor"
            q = int(qs[hits[0]])
            return q, round(q * alpha), float(dist[hits[0]])

        rng = np.random.default_rng(8)
        P, Delta = 1e13, 0.465           # q_max = 1,148,153
        assert int(P ** Delta) > 10 ** 6
        alphas = list(rng.uniform(-3, 3, 12))
        for _ in range(12):             # near a/q, q up to 10^6
            q = int(rng.integers(1, 10 ** 6))
            a = int(rng.integers(-3 * q, 3 * q))
            alphas.append(a / q + float(rng.normal()) * 1e-14)
        outcomes = set()
        for alpha in alphas:
            got = classify_alpha(float(alpha), P, 1, Delta)
            assert got == scan(float(alpha), P, 1, Delta), alpha
            outcomes.add(got == "minor")
        assert outcomes == {True, False}

    def test_a_is_round_q_alpha_outside_unit_interval(self):
        # 1.25 = 5/4: both branches give q = 4 and a = 5, not 1
        assert classify_alpha(1.25, 100, 2, 0.5)[:2] == (4, 5)
        assert classify_alpha(1.25, 1e13, 1, 0.465)[:2] == (4, 5)
        assert classify_alpha(-0.75, 1e13, 1, 0.465)[:2] == (4, -3)

    def test_float_rounding_does_not_make_a_hit(self):
        # in floats q alpha rounds to an integer at this q, but exactly
        # ||q alpha|| = 6.0e-10 is above the threshold P^(Delta - d)
        alpha, P, d, Delta = (0.2473611332846053, 6641890.220959316, 3,
                              1.2768846397614864)
        q, x = 337496299, Fraction(alpha)
        assert q * alpha == round(q * alpha)
        assert q <= P ** Delta
        assert abs(q * x - round(q * x)) > Fraction(P ** (Delta - d))
        assert classify_alpha(alpha, P, d, Delta) == "minor"

    @staticmethod
    def exact_scan(alpha, P, d, Delta):
        """The least q <= P^Delta with ||q alpha|| <= P^(Delta - d), trying
        every q: ||q m / r|| = min(q m mod r, r - q m mod r) / r exactly."""
        m, r = Fraction(alpha).as_integer_ratio()
        tn, td = Fraction(P ** (Delta - d)).as_integer_ratio()
        for q in range(1, int(P ** Delta) + 1):
            res = q * m % r
            if min(res, r - res) * td <= tn * r:
                return q, round(Fraction(q * m, r))
        return "minor"

    def test_equals_exact_scan(self):
        rng = random.Random(19)
        outcomes = set()
        for case in range(1200):
            d = rng.randint(1, 4)
            P = rng.choice([rng.uniform(0.5, 3), rng.uniform(2, 10 ** 4)])
            # P^Delta up to 2 10^4, and Delta near d for large thresholds
            top = math.log(2e4) / math.log(P) if P > 1 else 3.0
            Delta = rng.choice([rng.uniform(0.01, top),
                                min(top, d + rng.uniform(-0.5, 0.1))])
            if Delta <= 0:
                continue
            kind = case % 6
            if kind == 0:
                alpha = rng.uniform(-3, 3)
            elif kind == 1:
                alpha = rng.randint(-5, 5)
            elif kind == 2:
                alpha = Fraction(rng.randint(-5, 5)) + Fraction(1, 2)
            elif kind == 3:     # a float near a/q
                q = rng.randint(1, 3000)
                alpha = rng.randint(-3 * q, 3 * q) / q + rng.gauss(0, 1e-9)
            elif kind == 4:     # an exact rational, possibly negative
                q = rng.randint(1, 5 * 10 ** 4)
                alpha = Fraction(rng.randint(-3 * q, 3 * q), q)
            else:   # a float whose ||q alpha|| is the threshold, rounded
                q = rng.randint(1, max(1, min(3000, int(P ** Delta))))
                alpha = float(Fraction(rng.randint(-3 * q, 3 * q), q)
                              + Fraction(P ** (Delta - d)) / q)
            want = self.exact_scan(alpha, P, d, Delta)
            got = classify_alpha(alpha, P, d, Delta)
            outcomes.add(want == "minor")
            if want == "minor":
                assert got == "minor", (alpha, P, d, Delta)
                continue
            assert got[:2] == want, (alpha, P, d, Delta)
            q, a = want
            if isinstance(alpha, Fraction):
                assert got[2] == abs(q * alpha - a)
            else:
                assert got[2] == pytest.approx(
                    float(abs(q * Fraction(alpha) - a)), abs=1e-12)
        assert outcomes == {True, False}

    def test_half_integer_and_integer_alpha(self):
        # with a threshold of at least 1/2 every alpha hits at q = 1, and
        # k + 1/2 takes a = round(k + 1/2), half to even
        assert classify_alpha(2.5, 100, 1, 1) == (1, 2, 0.5)
        assert classify_alpha(Fraction(-7, 2), 100, 1, 1) == \
            (1, -4, Fraction(1, 2))
        assert classify_alpha(-3, 100, 3, 0.5) == (1, -3, 0)

    @pytest.mark.parametrize("P", [0, -1, 0.0])
    def test_nonpositive_P_is_refused(self, P):
        with pytest.raises(ValueError, match="P, Delta > 0"):
            classify_alpha(0.25, P, 2, 0.5)

    def test_agrees_with_arc_membership(self):
        # Delta chosen so that the classification threshold dominates the
        # arc radius times the largest denominator
        N, C, d = 100, 1, 2
        dis = build_arcs(N, C, d)
        r = dis.radius()
        Q = max(f.q for f, _ in dis.arcs)
        Delta = math.log(Q * math.log(N) ** C) / math.log(N)
        rng = np.random.default_rng(11)
        alphas = list(rng.random(200))
        for f, _ in dis.arcs:   # points inside each arc as well
            alphas += [float(f.value) + r * s for s in (-0.9, -0.3, 0.4, 0.8)]
        for alpha in alphas:
            alpha %= 1.0
            inside = dis.contains(alpha)
            cls = classify_alpha(alpha, N, d, Delta)
            if inside is not None:
                assert cls != "minor", alpha
                q, a, _ = cls
                assert Fraction(a, q) % 1 == inside.value, alpha
            elif cls == "minor":
                assert dis.contains(alpha) is None


def rational_kernel(A):
    """``arcs._kernel`` by Gauss-Jordan elimination over Q: each row of the
    reduced row echelon form, its denominators cleared, is (c, a)."""
    rows, eqs, free = [[Fraction(v) for v in r] for r in A], [], []
    for col in range(len(A)):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            free.append(col)
            continue
        rows.remove(piv)
        piv = [v / piv[col] for v in piv]
        rows, eqs = ([[u - r[col] * v for u, v in zip(r, piv)] for r in rs]
                     for rs in (rows, eqs))
        eqs.append(piv)
    return [(c, [int(e[j] * c) for j in free]) for e in eqs
            for c in [math.lcm(*(v.denominator for v in e))]], free


class TestDegeneracyCounts:
    def brute_z(self, f, d, R):
        n = f.n
        basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        cnt = 0
        rng = range(-R, R + 1)
        for tup in product(product(rng, repeat=n), repeat=d - 1):
            if all(weyl_difference(f, d, list(tup) + [basis[i]]) == 0
                   for i in range(n)):
                cnt += 1
        return cnt

    def test_rank_one_kernel_line(self):
        f = parse_polynomial("n=2\n1 2 0\n")
        for R in (5, 10, 20):
            assert z_count(f, 2, R) == 2 * R + 1

    def test_trivial_kernel(self):
        f = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        assert z_count(f, 2, 10) == 1

    def test_bilinear_matches_direct_kernel(self):
        f = parse_polynomial("n=3\n1 1 1 0\n2 0 0 2\n-1 1 0 1\n")
        A = np.zeros((3, 3))
        basis = np.eye(3, dtype=int)
        for i in range(3):
            for j in range(3):
                A[i, j] = weyl_difference(f, 2, [basis[j], basis[i]])
        cnt = 0
        for x in product(range(-4, 5), repeat=3):
            if np.all(A @ np.array(x) == 0):
                cnt += 1
        assert z_count(f, 2, 4) == cnt

    def test_cubic_matches_brute(self):
        f = parse_polynomial("n=2\n1 3 0\n1 1 2\n")
        assert z_count(f, 3, 2) == self.brute_z(f, 3, 2)

    def test_trilinear_product_form(self):
        f = parse_polynomial("n=3\n1 1 1 1\n")
        # pairs (x, y) with x2 y3 + x3 y2 = x1 y3 + x3 y1 = x1 y2 + x2 y1 = 0
        cnt = 0
        for x in product(range(-3, 4), repeat=3):
            for y in product(range(-3, 4), repeat=3):
                if (x[1] * y[2] + x[2] * y[1] == 0 and
                        x[0] * y[2] + x[2] * y[0] == 0 and
                        x[0] * y[1] + x[1] * y[0] == 0):
                    cnt += 1
        assert z_count(f, 3, 3) == cnt

    def test_monotone_and_scale_invariant(self):
        f = parse_polynomial("n=2\n1 2 0\n-3 1 1\n")
        zs = [z_count(f, 2, R) for R in (2, 4, 8)]
        assert zs == sorted(zs)
        g = parse_polynomial("n=2\n5 2 0\n-15 1 1\n")
        assert [z_count(g, 2, R) for R in (2, 4, 8)] == zs

    def test_budget(self):
        f = parse_polynomial("n=3\n1 1 1 1\n")
        with pytest.raises(BudgetExceeded):
            z_count(f, 3, 200)

    def test_heads_and_kernels_charged_not_the_grid(self, enum_limit):
        # x1 x2 + x3 x4 at R = 50: one head, read off a tensor of 2 * 2
        # entries and eliminated once (d * 4 + 4^3 = 72), and a trivial
        # kernel (one point), where the grid has 101^4 tuples
        f = parse_polynomial("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        with enum_limit(73):
            assert z_count(f, 2, 50) == 1
        with enum_limit(72), pytest.raises(
                BudgetExceeded, match="heads and kernel walks costs 73"):
            z_count(f, 2, 50)
        with enum_limit(71), pytest.raises(
                BudgetExceeded, match="heads of the tuple grid costs 72"):
            z_count(f, 2, 50)

    def test_every_walk_priced_before_any_walk(self, monkeypatch,
                                               enum_limit):
        # x1^3 in 4 variables at R = 1: 3^4 heads at 3 * 1 + 4^3 = 67 each
        # (a tensor of one entry), and a kernel of 3 free coordinates
        # (h_1 != 0, 54 heads) or 4 (h_1 = 0, 27 heads): 54 * 27 + 27 * 81
        # = 3645 points
        f = parse_polynomial("n=4\n1 3 0 0 0\n")
        walks = []

        def count(eqs, free, R):
            walks.append(free)
            return _kernel_count(eqs, free, R)

        monkeypatch.setattr(arcs, "_kernel_count", count)
        with enum_limit(81 * 67 + 3645 - 1), pytest.raises(
                BudgetExceeded, match="heads and kernel walks costs "
                                      f"{81 * 67 + 3645}"):
            z_count(f, 3, 1)
        assert walks == []
        with enum_limit(81 * 67 + 3645):
            # h_1 y_1 = 0 on [-1, 1]^8: (9 - 4) 3^6 pairs
            assert z_count(f, 3, 1) == 5 * 3 ** 6
        assert len(walks) == 81

    def test_hyperbolic_count_holds_no_grid(self):
        # x1 x2 + x3 x4 has a trivial kernel; a grid of all 41^4 candidate
        # vectors peaked at 259 MB
        f = parse_polynomial("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        tracemalloc.start()
        try:
            assert z_count(f, 2, 20) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_kernel_count_matches_brute(self):
        rng = random.Random(5)
        for _ in range(300):
            n, R = rng.randint(1, 4), rng.randint(0, 2)
            A = [[Fraction(rng.choice([0, 0, 1, -1, 2, 3, -4, 6]),
                           rng.choice([1, 1, 2, 3])) for _ in range(n)]
                 for _ in range(n)]
            if n > 1 and rng.random() < 0.5:    # a dependent row
                A[-1] = [2 * u - v for u, v in zip(A[0], A[1])]
            brute = sum(all(sum(a * y for a, y in zip(row, ys)) == 0
                            for row in A)
                        for ys in product(range(-R, R + 1), repeat=n))
            assert _kernel_count(*_kernel(A), R) == brute, (A, R)

    def test_kernel_equals_elimination_over_q(self):
        # integer elimination with primitive rows gives the (c, a) of the
        # reduced row echelon form over Q, denominators cleared
        rng = random.Random(7)
        for trial in range(3000):
            n, rank = rng.randint(1, 4), rng.randint(0, 4)
            B = [[rng.randint(-6, 6) for _ in range(rank)] for _ in range(n)]
            C = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rank)]
            A = [[sum(u * v for u, v in zip(row, col)) for col in zip(*C)]
                 if rank else [0] * n for row in B]
            if trial % 3 == 0:
                A = [[rng.choice([0, 0, 1, -2, 3, 7]) for _ in range(n)]
                     for _ in range(n)]
            if trial % 5 == 0:
                A = [[Fraction(v, rng.choice([1, 2, 3, 5])) for v in row]
                     for row in A]
            assert _kernel(A) == rational_kernel(A), A

    def test_rational_coefficients(self):
        # (x1^2 + x2^2) / 5 has the kernel of x1^2 + x2^2; a float test
        # |A y| < 1/2 took A y = (2/5) y for a zero when |y_i| <= 1
        f = parse_polynomial("n=2\n1/5 2 0\n1/5 0 2\n")
        g = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        assert [z_count(f, 2, R) for R in (2, 4, 8)] == \
            [z_count(g, 2, R) for R in (2, 4, 8)] == [1, 1, 1]

    def test_random_forms_match_brute(self):
        # d = 2, 3 and 4, some coefficients rational; the sizes keep the
        # brute tuple grid at 729 points or fewer
        rng = random.Random(30)
        shapes = [(n, d, R) for n in (1, 2, 3) for d in (2, 3, 4)
                  for R in (1, 2) if (2 * R + 1) ** (n * (d - 1)) <= 729]
        for trial in range(20):
            n, d, R = shapes[trial % len(shapes)]
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = [0] * n
                for i in rng.choices(range(n), k=d):
                    e[i] += 1
                terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                           rng.choice([1, 1, 1, 2, 3]))
            f = Polynomial(n, terms)
            assert z_count(f, d, R) == self.brute_z(f, d, R), (f, R)

    def test_no_weyl_difference_evaluation(self, monkeypatch):
        def boom(*args):
            raise AssertionError("weyl_difference was evaluated")

        monkeypatch.setattr(poly, "weyl_difference", boom)
        assert not hasattr(arcs, "weyl_difference")
        f = parse_polynomial("n=3\n1 1 1 1\n")
        assert z_count(f, 3, 3) == 1153

    def test_each_head_eliminated_once(self, monkeypatch):
        # x1 x2 x3 at R = 2: 5^3 heads, each one matrix, eliminated once
        calls = []

        def kernel(A):
            calls.append(A)
            return _kernel(A)

        monkeypatch.setattr(arcs, "_kernel", kernel)
        f = parse_polynomial("n=3\n1 1 1 1\n")
        assert z_count(f, 3, 2) == self.brute_z(f, 3, 2)
        assert len(calls) == 5 ** 3

    def test_negative_radius_is_refused(self):
        f = parse_polynomial("n=2\n1 2 0\n")
        with pytest.raises(ValueError, match="R = -1"):
            z_count(f, 2, -1)
        assert z_count(f, 2, 0) == 1


class TestGrowthFit:
    def test_rank_recovery(self):
        f1 = parse_polynomial("n=2\n1 2 0\n")
        rep = estimate_gd(f1, 2, [5, 10, 20, 40])
        assert abs(rep.fitted_gd - 1) < 0.15
        assert rep.z_counts == sorted(rep.z_counts)
        assert rep.gamma_d == 2 / rep.fitted_gd
        assert rep.gamma_d_prime == 2 / rep.fitted_gd

    def test_full_rank_infinite_exponent_guard(self):
        f = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        rep = estimate_gd(f, 2, [5, 10, 20])
        assert rep.fitted_gd == pytest.approx(2.0, abs=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            estimate_gd(parse_polynomial("n=2\n1 2 0\n"), 2, [5, 10])

    def test_needs_three_distinct_radii(self):
        # two distinct radii fitted a slope through two points
        with pytest.raises(ValueError,
                           match=r"distinct R >= 1, got \[3, 3, 5\]"):
            estimate_gd(parse_polynomial("n=2\n1 2 0\n"), 2, [3, 5, 3])

    def test_radius_below_one_is_refused(self):
        # log R is fitted, so R = 0 is refused before any count
        with pytest.raises(ValueError, match=r"R >= 1, got \[0, 1, 2\]"):
            estimate_gd(parse_polynomial("n=2\n1 2 0\n"), 2, [2, 1, 0])
