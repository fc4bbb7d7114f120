"""Archimedean estimators: Sobol sampling, box integrals, truncated
eta-integrals, sausage densities, and real positivity witnesses.

Closed forms for linear polynomials and scipy quadrature serve as the
independent oracles, and scipy's Sobol engine as the sampling oracle.
"""
import cmath
import importlib.util
import math
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from circlekit import arch
from circlekit.arch import (_L_STEPS, I_eta, J_of_L, QuadratureSpec, _J_row,
                            _read_npy_prefix, _replicate_samples,
                            _sobol_directions, mu_infinity,
                            real_nonsingular_witness, sigma_infinity,
                            sigma_measure, sigma_scaled)
from circlekit.poly import BudgetExceeded, parse_polynomial

SPEC = QuadratureSpec(box_points=1 << 18, seed=7)


def I_linear_exact(eta):
    """Closed form of the box integral of e(eta x) on [0,1]."""
    if eta == 0:
        return 1.0 + 0j
    return (cmath.exp(2j * cmath.pi * eta) - 1) / (2j * cmath.pi * eta)


class TestSobol:
    @pytest.mark.parametrize("box_points", [16, 8000, 1 << 20])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
    def test_bit_identical_to_scipy(self, n, box_points):
        for seed in (0, 7, 123457):
            spec = QuadratureSpec(box_points=box_points, seed=seed)
            blocks = list(_replicate_samples(n, spec))
            assert len(blocks) == 8
            for r, block in enumerate(blocks):
                eng = qmc.Sobol(d=n, scramble=True, seed=seed * 1009 + r)
                with warnings.catch_warnings():
                    # 8000 / 8 points is not a power of two
                    warnings.simplefilter("ignore", UserWarning)
                    ref = eng.random(box_points // 8)
                assert block.dtype == ref.dtype
                assert np.array_equal(block, ref), (seed, r)

    @pytest.mark.parametrize("d", [1, 2, 3, 40, 1111, 21201])
    def test_directions_match_the_full_table(self, d):
        # the Bratley-Fox build on scipy's whole table, loaded by np.load
        path = Path(importlib.util.find_spec("scipy").origin).parent / \
            "stats" / "_sobol_direction_numbers.npz"
        with np.load(path) as z:
            poly, vinit = z["poly"][:d].tolist(), z["vinit"][:d].tolist()
        want = [[1 << 29 - j for j in range(30)]]
        for p, init in zip(poly[1:], vinit[1:]):
            m = p.bit_length() - 1
            row = init[:m]
            for j in range(m, 30):
                x = row[j - m] ^ row[j - m] << m
                for k in range(1, m):
                    if p >> (m - k) & 1:
                        x ^= row[j - k] << k
                row.append(x)
            want.append([x << 29 - j for j, x in enumerate(row)])
        got = _sobol_directions(d)
        assert got.dtype == np.uint32
        assert got.tolist() == want

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_table_prefix_in_either_order(self, tmp_path, order):
        table = np.arange(60, dtype=np.int64).reshape(12, 5)
        np.savez_compressed(tmp_path / "t.npz", poly=np.arange(12) * 3,
                            vinit=np.asarray(table, order=order))
        with zipfile.ZipFile(tmp_path / "t.npz") as zf:
            assert _read_npy_prefix(zf, "poly.npy", 4).tolist() == [0, 3, 6, 9]
            got = _read_npy_prefix(zf, "vinit.npy", 7, 2)
        assert np.array_equal(got, table[:7, :2])

    def test_limits_are_checked_before_work(self):
        with pytest.raises(ValueError):
            _replicate_samples(1, QuadratureSpec(box_points=8 << 31))
        with pytest.raises(ValueError):
            _sobol_directions(21202)

    def test_coordinates_charged_before_any_draw(self, monkeypatch,
                                                 enum_limit):
        # 4096 / 8 = 512 points a replicate in 3 dimensions: 1,536
        # coordinates; 8 * 10^9 points in 3 dimensions took 12 GiB
        spec = QuadratureSpec(box_points=4096)

        def fail(*args, **kwargs):
            raise AssertionError("drawn before the budget check")

        monkeypatch.setattr(arch, "_sobol", fail)
        monkeypatch.setattr(arch, "_sobol_directions", fail)
        with enum_limit(1535), pytest.raises(
                BudgetExceeded, match="costs 1536, over budget 1535"):
            _replicate_samples(3, spec)
        monkeypatch.undo()
        with enum_limit(1536):
            assert len(list(_replicate_samples(3, spec))) == 8

    def test_unbalanced_replicates_are_flagged(self):
        f = parse_polynomial("n=2\n1 2 0\n1 0 2\n")      # x1^2 + x2^2
        odd = QuadratureSpec(box_points=1000)
        mu, meas = sigma_infinity(f, odd)
        for est in (mu, meas, sigma_measure(f, odd), sigma_scaled(f, 10, odd)):
            assert "sobol_unbalanced" in est.flags
        for est in (*sigma_infinity(f, SPEC), sigma_scaled(f, 10, SPEC)):
            assert "sobol_unbalanced" not in est.flags


class TestBoxIntegral:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, -2.5, 7.25])
    def test_linear_closed_form(self, eta):
        f = parse_polynomial("n=1\n1 1\n")
        val, se = I_eta(f, eta, SPEC)
        assert abs(val - I_linear_exact(eta)) < max(5 * se, 1e-7)

    def test_product_form_against_quadrature(self):
        # I(eta) for x1 x2 on the unit square, real part vs scipy
        f = parse_polynomial("n=2\n1 1 1\n")
        val, se = I_eta(f, 1.0, SPEC)
        re_exact, _ = quad(
            lambda x: math.sin(2 * math.pi * x) / (2 * math.pi * x)
            if x else 1.0, 0, 1)
        assert abs(val.real - re_exact) < max(5 * se, 1e-5)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            I_eta(parse_polynomial("n=1\n1 1\n1 0\n"), 1.0, SPEC)

    def test_reproducible(self):
        f = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        assert I_eta(f, 1.5, SPEC) == I_eta(f, 1.5, SPEC)


class TestTruncatedIntegral:
    def test_linear_matches_eta_quadrature(self):
        f = parse_polynomial("n=1\n1 1\n")
        L = 4.0
        got = J_of_L(f, L, SPEC)
        exact, _ = quad(lambda e: I_linear_exact(e).real, -L, L, limit=200)
        assert got == pytest.approx(exact, abs=1e-6)

    def test_increasing_toward_half_for_linear(self):
        # boundary zero of x1: the limit density is 1/2
        f = parse_polynomial("n=1\n1 1\n")
        j8, j32 = J_of_L(f, 8, SPEC), J_of_L(f, 32, SPEC)
        assert abs(j32 - 0.5) < abs(j8 - 0.5) + 1e-3
        assert j32 == pytest.approx(0.5, abs=0.02)

    def test_rejects_bad_L(self):
        with pytest.raises(ValueError):
            J_of_L(parse_polynomial("n=1\n1 1\n"), 0.0, SPEC)


class TestJLadder:
    """J(L) by angle doubling against np.sinc at every L of the ladder."""

    FORMS = ["n=3\n1 1 1 0\n-1 0 0 2\n",                  # the cone
             "n=5\n1 2 0 0 0 0\n1 0 2 0 0 0\n1 0 0 2 0 0\n"
             "1 0 0 0 2 0\n1 0 0 0 0 2\n",                   # five squares
             "n=2\n1 1 0\n-1 0 1\n"]                         # x1 - x2

    @staticmethod
    def check(v, Ls):
        for L, got in zip(Ls, _J_row(v, Ls)):
            kernel = 2.0 * L * np.sinc(2.0 * L * v)
            want = np.mean(kernel)
            # five squares cancels to about 1e-4 of the kernel's scale, so
            # the bound is on that scale, not on the value
            assert abs(got - want) <= 1e-14 * np.mean(np.abs(kernel)), L

    @pytest.mark.parametrize("eta_L", [16.0, 10.0, 16.1])
    @pytest.mark.parametrize("text", FORMS)
    def test_matches_sinc_per_replicate(self, text, eta_L):
        f = parse_polynomial(text)
        spec = QuadratureSpec(box_points=1 << 15, eta_L=eta_L)
        Ls = [eta_L * s for s in _L_STEPS]
        for block in _replicate_samples(f.n, spec):
            self.check(f.eval_float(block), Ls)

    @pytest.mark.parametrize("eta_L", [16.0, 10.0, 16.1, 0.37, 1000.0])
    def test_exact_zeros(self, eta_L):
        # zeros, subnormals and tiny values, which a vectorised tan may
        # flush to zero, and the poles of tan(y/2), 2 L v = 1 and 3, at the
        # roots L = eta_L / 2 and 3 eta_L / 4 of the doubling chains
        Ls = [eta_L * s for s in _L_STEPS]
        poles = [k / (2.0 * L) for L in Ls[:2] for k in (1.0, -1.0, 3.0)]
        v = np.array([0.0, 0.25, -0.3, 0.0, 1e-9, -1e-300, 0.0, 0.7,
                      5e-324, 1e-12, *poles])
        self.check(v, Ls)
        assert _J_row(np.zeros(3), Ls) == [2.0 * L for L in Ls]


def test_replicates_are_streamed():
    # one replicate's samples and values at a time: about 8 MiB at the
    # default 2^20 points, against 37 MiB with all eight held at once
    f = parse_polynomial("n=3\n1 2 0 0\n1 0 2 0\n-1 0 0 2\n")  # x1^2+x2^2-x3^2
    tracemalloc.start()
    try:
        sigma_infinity(f, QuadratureSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


class TestSausage:
    def test_strip_density_is_one(self):
        f = parse_polynomial("n=2\n1 1 0\n-1 0 1\n")     # x1 - x2
        est = sigma_measure(f, SPEC)
        assert est.value == pytest.approx(1.0, abs=0.03)
        assert not est.flags

    def test_quarter_circle_density(self):
        # x1^2 + x2^2 on the unit square: constant density pi/8
        f = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        est = sigma_measure(f, SPEC)
        assert est.value == pytest.approx(math.pi / 8, abs=0.02)
        assert not est.diverged

    def test_no_zero_set(self):
        f = parse_polynomial("n=2\n1 2 0\n1 0 2\n1 0 0\n")
        est = sigma_measure(f, SPEC)
        assert est.value == 0.0
        assert "zero_measure" in est.flags

    def test_divergent_flag(self):
        f = parse_polynomial("n=2\n1 2 0\n-1 0 2\n")
        assert sigma_measure(f, SPEC).diverged


class TestSingularIntegral:
    def test_strip(self):
        f = parse_polynomial("n=2\n1 1 0\n-1 0 1\n")
        est = mu_infinity(f, SPEC)
        assert est.value == pytest.approx(1.0, abs=0.03)
        assert not est.flags

    def test_definite_form_small(self):
        f = parse_polynomial("n=2\n1 2 0\n1 0 2\n")
        est = mu_infinity(f, SPEC)
        assert est.value == pytest.approx(math.pi / 8, abs=0.03)

    def test_divergent_flag(self):
        f = parse_polynomial("n=2\n1 2 0\n-1 0 2\n")
        assert mu_infinity(f, SPEC).diverged

    def test_reproducible(self):
        f = parse_polynomial("n=2\n1 1 0\n-1 0 1\n")
        assert mu_infinity(f, SPEC).value == mu_infinity(f, SPEC).value


class TestScaledDensity:
    def test_strip_any_scale(self):
        b = parse_polynomial("n=2\n1 1 0\n-1 0 1\n")
        for N in (10, 50, 200):
            est = sigma_scaled(b, N, SPEC)
            assert est.value == pytest.approx(1.0, abs=0.02), N

    def test_lower_order_terms_matter(self):
        # x1 - N/2 has a zero sheet only when the constant is in range
        b_in = parse_polynomial("n=1\n1 1\n-25 0\n")
        b_out = parse_polynomial("n=1\n1 1\n-500 0\n")
        assert sigma_scaled(b_in, 50, SPEC).value > 0.5
        assert sigma_scaled(b_out, 50, SPEC).value == 0.0

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            sigma_scaled(parse_polynomial("n=1\n1 1\n"), 0, SPEC)


class TestFibreIntegral:
    """Forms of degree one in some variable, in at most three variables:
    the density is the exact fibre integral, with a bounding error."""

    CASES = [
        ("n=3\n1 1 1 0\n-1 0 0 2\n", 2.0),                 # the cone
        ("n=3\n1 1 1 0\n1 0 1 1\n-1 0 0 2\n",             # x1x2+x2x3-x3^2
         2 * math.log(2)),
        ("n=3\n1 1 1 0\n1 1 0 1\n-1 0 1 1\n",             # x1(x2+x3)-x2x3
         2 * math.log(2)),
        ("n=2\n1 1 0\n-1 0 1\n", 1.0),                      # x1 - x2
        ("n=2\n3 1 0\n-1 0 1\n", 1 / 3),                    # 3 x1 - x2
        # x1 alone: its zero set is a face of the box, which counts half
        ("n=1\n1 1\n", 0.5),
        ("n=2\n1 1 0\n", 0.5),
    ]

    @pytest.mark.parametrize("text, exact", CASES)
    def test_exact_within_its_error(self, text, exact):
        for est in sigma_infinity(parse_polynomial(text)):
            assert est.method == "fibre" and est.flags == ()
            assert abs(est.value - exact) <= est.error_estimate <= 1e-6

    @pytest.mark.parametrize("text, exact", [
        # x1 - 8 x2 (x2 - 1/2)(x2 - 1): a cubic B, whose root 1/2 is
        # isolated between the roots of its derivative
        ("n=2\n1 1 0\n-8 0 3\n12 0 2\n-4 0 1\n", 0.5),
        # x1 (1 + x2) - x2: 1/|A| = 1/(1 + x2) by adaptive quadrature
        ("n=2\n1 1 0\n1 1 1\n-1 0 1\n", math.log(2)),
    ])
    def test_inhomogeneous_density(self, text, exact):
        est = sigma_measure(parse_polynomial(text))
        assert est.method == "fibre" and est.flags == ()
        assert abs(est.value - exact) <= est.error_estimate <= 1e-6

    @pytest.mark.parametrize("text", ["n=2\n1 1 1\n",          # x1 x2
                                      "n=3\n1 1 1 0\n-1 1 0 1\n"])
    def test_divergent_flag(self, text):
        for est in sigma_infinity(parse_polynomial(text)):
            assert est.method == "fibre" and est.diverged

    def test_no_zero_set_inside(self):
        # x1 + x2 vanishes in the box only at the corner
        est = mu_infinity(parse_polynomial("n=2\n1 1 0\n1 0 1\n"))
        assert (est.value, est.flags) == (0.0, ("zero_measure",))

    @pytest.mark.parametrize("text", [text for text, _ in CASES[:5]])
    def test_every_estimator_agrees(self, text):
        f = parse_polynomial(text)
        mu, meas = sigma_infinity(f)
        assert mu == meas == mu_infinity(f) == sigma_measure(f)
        assert mu is not meas

    def test_charged_before_any_evaluation(self, monkeypatch, enum_limit):
        # the cone: at most 15 (2 * 64) evaluations per level, two levels
        f = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n")

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the budget check")

        monkeypatch.setattr(arch, "_line", fail)
        with enum_limit(1920 ** 2 - 1), pytest.raises(
                BudgetExceeded, match=f"costs {1920 ** 2}, over budget"):
            sigma_infinity(f)
        monkeypatch.undo()
        with enum_limit(1920 ** 2):
            assert sigma_infinity(f)[0].value == pytest.approx(2.0)

    def test_four_variables_are_sampled(self):
        f = parse_polynomial("n=4\n1 1 1 0 0\n-1 0 0 1 1\n")
        spec = QuadratureSpec(box_points=1 << 12)
        assert {est.method for est in sigma_infinity(f, spec)} == \
            {"quadrature", "measure"}


class TestRealWitness:
    def test_found_on_interior_zero(self):
        f = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n")
        w = real_nonsingular_witness(f)
        assert w is not None
        assert abs(w.value) < 1e-12
        assert w.gradient_norm > 1e-3
        assert all(0 < c < 1 for c in w.point)

    def test_none_for_definite(self):
        f = parse_polynomial("n=3\n1 2 0 0\n1 0 2 0\n1 0 0 2\n")
        assert real_nonsingular_witness(f) is None

    def test_found_despite_corner_singularity(self):
        f = parse_polynomial("n=2\n1 2 0\n-1 0 2\n")
        w = real_nonsingular_witness(f)
        assert w is not None and w.gradient_norm > 1e-3

    def test_grid_walked_in_blocks(self):
        # x1 x2 - x3 x4 on the 32^4 grid: its mesh and a stacked copy would
        # take 64 MiB, one block of grid_blocks 4 MiB a copy.  Of the many
        # exact zeros the first in grid order is kept and polished first.
        f = parse_polynomial("n=4\n1 1 1 0 0\n-1 0 0 1 1\n")
        tracemalloc.start()
        try:
            w = real_nonsingular_witness(f, grid=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.point == (1 / 64,) * 4 and w.value == 0.0
        assert peak < 16 * 2 ** 20

    def test_grid_charged_before_any_evaluation(self, monkeypatch,
                                                enum_limit):
        # the cone's 24^3 grid points of 3 coordinates: 41,472
        f = parse_polynomial("n=3\n1 1 1 0\n-1 0 0 2\n")

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the budget check")

        monkeypatch.setattr(type(f), "eval_float", fail)
        with enum_limit(41471), pytest.raises(
                BudgetExceeded, match="costs 41472, over budget 41471"):
            real_nonsingular_witness(f)
        monkeypatch.undo()
        with enum_limit(41472):
            w = real_nonsingular_witness(f)
        assert w is not None and abs(w.value) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(box_points=2)
    with pytest.raises(ValueError):
        QuadratureSpec(eps=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(eta_L=-1.0)


@pytest.mark.parametrize("field", ["eps", "eta_L"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_non_finite(field, value):
    # a NaN eta_L failed later with a KeyError, an infinite eps in the SVD
    with pytest.raises(ValueError, match="finite"):
        QuadratureSpec(**{field: value})
