"""Ground truth and prediction.

The von Mangoldt table, exact prime-power solution counting M_b(N) (direct
and meet-in-the-middle), the regularity growth diagnostic, and assembly of
the main-term prediction against ground truth.

The direct and meet-in-the-middle counters must agree bit for bit, so both
funnel their solutions through the same weighting routine: solutions are
sorted lexicographically, each weight is a product of per-coordinate logs
taken in coordinate order, and the weights are totaled with exact (fsum)
summation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .arch import QuadratureSpec, sigma_scaled
from .local import (DEFAULT_ENUM_BUDGET, BudgetExceeded, primes_up_to,
                    singular_series)
from .poly import grid_blocks


@dataclass
class MangoldtTable:
    """Lambda(k) for 0 <= k <= N: log p at prime powers p^t, 0 elsewhere."""

    N: int
    values: np.ndarray          # float Lambda(k)
    base: np.ndarray            # prime p at prime powers, 0 elsewhere


def mangoldt_table(N):
    """Sieve-built von Mangoldt table on [0, N]."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    values = np.zeros(N + 1)
    base = np.zeros(N + 1, dtype=np.int64)
    for p in primes_up_to(N):
        lp = math.log(p)
        pk = p
        while pk <= N:
            values[pk] = lp
            base[pk] = p
            pk *= p
    return MangoldtTable(N=N, values=values, base=base)


@dataclass
class CountResult:
    N: int
    value: float
    solution_count: int
    strategy: str               # "direct" | "mitm"
    solutions: list = field(default_factory=list, repr=False)


def _support(table, N):
    if table.N < N:
        raise ValueError("von Mangoldt table too small")
    return [k for k in range(2, N + 1) if table.values[k] > 0]


def _finish(solutions, table, N, strategy):
    """Shared weighting: sort solutions, per-solution log product, fsum."""
    solutions = sorted(solutions)
    weights = [math.prod(table.values[k] for k in sol) for sol in solutions]
    return CountResult(N=N, value=math.fsum(weights),
                       solution_count=len(solutions), strategy=strategy,
                       solutions=solutions)


def count_direct(b, N, table):
    """Exact M_b(N): von-Mangoldt-weighted count of prime-power solutions
    of b = 0 in [0, N]^n, iterating over the prime-power support only."""
    if not b.is_integral():
        raise ValueError("need integer coefficients")
    ks = _support(table, N)
    if len(ks) ** b.n > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded("prime-power grid too large")
    solutions = []
    for block in grid_blocks([ks] * b.n):
        solutions.extend(map(tuple, block[b.eval_int(block) == 0].tolist()))
    return _finish(solutions, table, N, "direct")


def _split_poly(b, split):
    """Check b = g(x_1..x_k) + h(x_{k+1}..x_n) syntactically; return terms."""
    k = split
    if not 1 <= k < b.n:
        raise ValueError("split must leave variables on both sides")
    left, right = {}, {}
    for e, c in b.terms.items():
        lsup = any(e[i] for i in range(k))
        rsup = any(e[i] for i in range(k, b.n))
        if lsup and rsup:
            raise ValueError("polynomial is not additively separable "
                             f"at split {k}: mixed term {e}")
        (left if lsup or not rsup else right)[e] = c
    return left, right, k


def count_mitm(b, N, table, split):
    """Meet-in-the-middle M_b(N) for b = g(left) + h(right).

    Hashes g over left prime-power tuples, scans right tuples for -h
    matches; solutions then get the exact same weighting as count_direct.
    """
    if not b.is_integral():
        raise ValueError("need integer coefficients")
    left, right, k = _split_poly(b, split)
    ks = _support(table, N)
    n = b.n
    solutions = []
    if ks:
        g_index = {}
        for xl in product(ks, repeat=k):
            gv = sum(int(c) * math.prod(x ** e for x, e in zip(xl, eL[:k]))
                     for eL, c in left.items())
            g_index.setdefault(gv, []).append(xl)
        for xr in product(ks, repeat=n - k):
            hv = sum(int(c) * math.prod(x ** e for x, e in zip(xr, eR[k:]))
                     for eR, c in right.items())
            for xl in g_index.get(-hv, ()):
                solutions.append(xl + xr)
    return _finish(solutions, table, N, "mitm")


def count_via_histogram(b, N, table):
    """Independent cross-check of count_direct through a value histogram.

    Buckets all weighted tuples by their exact b-value (traversed in the
    reverse tuple order), then reduces the zero bucket with the shared
    weighting routine.  Must agree with count_direct to the last bit.
    """
    if not b.is_integral():
        raise ValueError("need integer coefficients")
    ks = _support(table, N)
    buckets = {}
    for pt in product(reversed(ks), repeat=b.n):
        buckets.setdefault(b.evaluate(pt), []).append(pt)
    return _finish(buckets.get(0, []), table, N, "direct")


# ---------------------------------------------------------------------------
# regularity growth diagnostic
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    N_values: list
    counts: list
    fitted_exponent: float
    reference_exponent: float   # n - D_psi
    regular: bool               # fitted <= reference + slack
    slack: float = 0.25


def regularity_exponent(system, N_list, budget=DEFAULT_ENUM_BUDGET):
    """Fit the growth exponent of the integer zero count of a polynomial
    system on [-N, N]^n and compare with the regular-growth bound n - D."""
    if len(N_list) < 3:
        raise ValueError("need at least 3 scales")
    if not system:
        raise ValueError("empty system")
    n = system[0].n
    if any(p.n != n for p in system):
        raise ValueError("mixed variable counts in the system")
    D = sum(p.degree for p in system)
    # clearing denominators leaves the zero set unchanged
    system = [p * math.lcm(*(c.denominator for c in p.terms.values()))
              for p in system]
    N_list = sorted(N_list)
    if (2 * N_list[-1] + 1) ** n > budget:
        raise BudgetExceeded("enumeration budget exceeded")
    counts = []
    for N in N_list:
        count = 0
        for block in grid_blocks([range(-N, N + 1)] * n):
            for p in system:
                block = block[p.eval_int(block) == 0]
            count += len(block)
        counts.append(count)
    slope = float(np.polyfit(np.log(N_list),
                             np.log(np.maximum(counts, 1)), 1)[0])
    ref = n - D
    return RegularityReport(N_values=list(N_list), counts=counts,
                            fitted_exponent=slope, reference_exponent=ref,
                            regular=slope <= ref + 0.25)


# ---------------------------------------------------------------------------
# prediction assembly
# ---------------------------------------------------------------------------

@dataclass
class PredictionReport:
    N: int
    series: object              # SeriesEstimate
    sigma: object               # SingularIntegralEstimate
    main_term: float
    ground_truth: CountResult | None
    ratio: float | None
    parameters: dict
    factors: list = field(default_factory=list, repr=False)   # LocalFactor


def predict(b, N, prime_bound=100, t_max=6, spec=QuadratureSpec(),
            ground_truth=False, strategy="direct", split=None):
    """Main-term prediction  product(mu_p) * sigma * N^{n-d}  for M_b(N),
    optionally checked against the exact count."""
    series, factors = singular_series(b, prime_bound, t_max=t_max)
    sigma = sigma_scaled(b, N, spec)
    main = max(series.product, 0.0) * max(sigma.value, 0.0) \
        * N ** (b.n - b.degree)
    truth = None
    ratio = None
    if ground_truth:
        table = mangoldt_table(N)
        if strategy == "mitm":
            truth = count_mitm(b, N, table, split if split is not None
                               else b.n // 2)
        else:
            truth = count_direct(b, N, table)
        if truth.value > 0:
            ratio = main / truth.value
    params = {"prime_bound": prime_bound, "t_max": t_max,
              "box_points": spec.box_points, "eps": spec.eps,
              "seed": spec.seed, "strategy": strategy, "split": split}
    return PredictionReport(N=N, series=series, sigma=sigma, main_term=main,
                            ground_truth=truth, ratio=ratio,
                            parameters=params, factors=factors)
