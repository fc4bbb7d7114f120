"""Ground truth and prediction.

The von Mangoldt table, exact prime-power solution counting M_b(N) (direct
and meet-in-the-middle), the regularity growth diagnostic, and assembly of
the main-term prediction against ground truth.

Each Lambda(k) is a float of at least log 2 > 1/2, so Lambda(k) * 2^53 is an
integer.  Every count sums exact integer products of those and divides once
by 2^(53 n): the correctly rounded true sum in any order, so all strategies
agree bit for bit.  b is split into additive groups of variables, the
groups' exact weighted value histograms are added by the one histogram
kernel (``poly._histogram_sum``), and the last group is matched against the
target.  A b that is not separable but
has a variable x_j of degree one, b = A x_j + B, is walked over the other
variables only, with x_j solved for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .poly import _INT64_SAFE, _charge, _histogram_sum, grid_blocks
from .primes import primes_up_to


@dataclass
class MangoldtTable:
    """Lambda(k) for 0 <= k <= N: log p at prime powers p^t, 0 elsewhere."""

    N: int
    values: np.ndarray          # float Lambda(k)
    base: np.ndarray            # prime p at prime powers, 0 elsewhere


def mangoldt_table(N):
    """Sieve-built von Mangoldt table on [0, N]; the sieve charges its N + 1
    entries to the budget before this table's are allocated."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    primes = primes_up_to(N)
    values, base = np.zeros(N + 1), np.zeros(N + 1, dtype=np.int64)
    for p in primes:
        lp, pk = math.log(p), p
        while pk <= N:
            values[pk], base[pk] = lp, p
            pk *= p
    return MangoldtTable(N=N, values=values, base=base)


@dataclass
class CountResult:
    N: int
    value: float
    solution_count: int
    strategy: str               # "direct" | "mitm"
    method: str                 # "separable", "linear(x_j)" or "grid"


def _support(table, N):
    """Points 2..N of positive weight, and exact [Lambda(k) 2^53, 1] at
    each of them; the rows of the other k <= N are never read."""
    if table.N < N:
        raise ValueError("von Mangoldt table too small")
    scaled = table.values[:N + 1] * 2.0 ** 53   # integral: weights 0 or >= 1/2
    ks = (np.flatnonzero(scaled[2:] > 0) + 2).tolist()
    if np.any(scaled[ks] % 1):
        raise ValueError("weights must be 0 or at least 1/2")
    W = np.zeros((N + 1, 2), object)
    W[ks, 0] = [int(w) for w in scaled[ks].tolist()]
    W[ks, 1] = 1
    return ks, W


def _result(N, total, n, strategy, method):
    """Round an exact [weight, count] sum over n coordinates once."""
    return CountResult(N=N, value=int(total[0]) / 2 ** (53 * n),
                       solution_count=int(total[1]), strategy=strategy,
                       method=method)


def _histogram(g, ks, W, keep=None):
    """The values of g on the prime-power grid of its own variables, each
    with its exact [weight, count]; only the values in ``keep`` if given."""
    values, wc = [np.empty(0, np.int64)], [np.empty((0, 2), object)]
    for block in grid_blocks([ks] * g.n):
        v = g.eval_int(block)
        if keep is not None:
            hit = np.isin(v, keep)
            block, v = block[hit], v[hit]
        values.append(v)
        wc.append(W[block].prod(axis=1))
    return np.concatenate(values), np.concatenate(wc)


def _reduce(groups, const, table, N, strategy, method):
    """Exact M_b(N) for b = const + the sum of the groups, polynomials in
    consecutive blocks of variables.  The groups' grids are charged to the
    budget before any work, and each fold, at its real size, before it is
    done."""
    if not all(g.is_integral() for g in groups) or not isinstance(const, int):
        raise ValueError("need integer coefficients")
    ks, W = _support(table, N)
    _charge(used := sum(len(ks) ** g.n for g in groups), "prime-power grid")
    # histogram of the groups so far: distinct values, summed [weight, count]
    bound = abs(const) + sum(sum(map(abs, g.terms.values())) * N ** g.degree
                             for g in groups)
    values = np.full(1, const, np.int64 if bound < _INT64_SAFE else object)
    wc = np.array([[1, 1]], object)
    zero = np.zeros(1, values.dtype), wc     # the histogram of 0
    for g in groups[:-1]:
        v, w = _histogram_sum(*zero, *_histogram(g, ks, W))
        used += len(values) * len(v)
        _charge(used, "value convolution")
        values, wc = _histogram_sum(values, wc, v, w)
    v, w = _histogram(groups[-1], ks, W, keep=-values)
    total = (wc[np.searchsorted(values, -v)] * w).sum(axis=0)
    return _result(N, total, sum(g.n for g in groups), strategy, method)


def _solve_linear(A, B, j, table, N):
    """Exact M_b(N) for b = A x_j + B, A and B free of x_j, walking only the
    other variables x'.  Where A(x') != 0, x_j = -B(x') / A(x') counts when
    it is an integer of positive weight in [2, N]; where A(x') = B(x') = 0,
    every x_j counts, with the summed weight of the support."""
    if not (A.is_integral() and B.is_integral()):
        raise ValueError("need integer coefficients")
    ks, W = _support(table, N)
    _charge(len(ks) ** A.n, "prime-power grid")
    weighted = np.zeros(N + 1, bool)
    weighted[ks] = True
    free = W[ks].sum(axis=0)    # [summed weight, |ks|] of a free x_j
    total = np.zeros(2, object)
    for block in grid_blocks([ks] * A.n):
        a, c = A.eval_int(block), B.eval_int(block)
        total += W[block[(a == 0) & (c == 0)]].prod(axis=1).sum(axis=0) * free
        hit = a != 0
        block, a, c = block[hit], a[hit], c[hit]
        hit = c % a == 0
        block, x = block[hit], -c[hit] // a[hit]
        hit = (x >= 2) & (x <= N)
        block, x = block[hit], x[hit].astype(np.int64)
        hit = weighted[x]
        total += (W[block[hit]].prod(axis=1) * W[x[hit]]).sum(axis=0)
    return _result(N, total, A.n + 1, "direct", f"linear(x_{j})")


def count_direct(b, N, table):
    """Exact M_b(N): von-Mangoldt-weighted count of the prime-power points
    of b = 0 in [0, N]^n.  A separable b is reduced one variable at a time;
    a b of degree one in some x_j has x_j solved for (the first such j);
    any other b is walked whole and only its zeros are weighted."""
    split = b.variable_split()
    if split and b.n:       # with no variable there is no group to reduce
        return _reduce(*split, table, N, "direct", "separable")
    for j in range(1, b.n + 1):
        parts = b.linear_in(j)
        if parts:
            return _solve_linear(*parts, j, table, N)
    return _reduce([b], 0, table, N, "direct", "grid")


def count_mitm(b, N, table, split=None):
    """Meet-in-the-middle M_b(N) for b = g(x_1..x_split) + h(the rest), split
    n // 2 by default: the exact histogram of g is matched against h."""
    split = b.n // 2 if split is None else split
    if not 1 <= split < b.n:
        raise ValueError("split must leave variables on both sides")
    groups = b.additive_split([split, b.n - split])
    if groups is None:
        raise ValueError(f"polynomial is not additively separable at {split}")
    return _reduce(*groups, table, N, "mitm", "separable")


def count_via_histogram(b, N, table):
    """Independent cross-check of count_direct through a value histogram.

    Buckets all prime-power tuples by their scalar b-value (traversed in the
    reverse tuple order), then reduces the zero bucket through the same
    exact weight sum.  Must agree with count_direct to the last bit.
    """
    if not b.is_integral():
        raise ValueError("need integer coefficients")
    ks, W = _support(table, N)
    _charge(len(ks) ** b.n, "prime-power grid")
    buckets = {}
    for pt in product(reversed(ks), repeat=b.n):
        buckets.setdefault(b.evaluate(pt), []).append(pt)
    zeros = np.array(buckets.get(0, []), np.int64).reshape(-1, b.n)
    return _result(N, W[zeros].prod(axis=1).sum(axis=0), b.n, "direct",
                   "grid")


# ---------------------------------------------------------------------------
# regularity growth diagnostic
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    N_values: list
    counts: list
    fitted_exponent: float
    reference_exponent: float   # n - D_psi
    flags: tuple                # not_regular: fitted > reference + slack
    slack: float = 0.25


def regularity_exponent(system, N_list):
    """Fit the growth exponent of the integer zero count of a polynomial
    system on [-N, N]^n, every scale's grid charged before any is walked,
    and compare with the regular-growth bound n - D."""
    import statistics   # loads decimal, about 3 ms that count never needs
    if not system:
        raise ValueError("empty system")
    n = system[0].n
    if any(p.n != n for p in system):
        raise ValueError("mixed variable counts in the system")
    ref = n - sum(p.degree for p in system)    # n - D
    # clearing denominators leaves the zero set unchanged
    system = [p * math.lcm(*(c.denominator for c in p.terms.values()))
              for p in system]
    N_list = sorted(N_list)
    if len(set(N_list)) < 3 or N_list[0] < 1:
        raise ValueError(f"need 3 or more distinct N >= 1, got {N_list}")
    _charge(sum((2 * N + 1) ** n for N in N_list), "zero-count grids")
    counts = []
    for N in N_list:
        count = 0
        for block in grid_blocks([range(-N, N + 1)] * n):
            for p in system:
                block = block[p.eval_int(block) == 0]
            count += len(block)
        counts.append(count)
    slope = statistics.linear_regression(
        [math.log(N) for N in N_list],
        [math.log(max(c, 1)) for c in counts]).slope
    return RegularityReport(N_values=list(N_list), counts=counts,
                            fitted_exponent=slope, reference_exponent=ref,
                            flags=() if slope <= ref + RegularityReport.slack
                            else ("not_regular",))


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


def predict(b, N, prime_bound=100, t_max=6, spec=None,
            ground_truth=False, strategy="direct", split=None):
    """Main-term prediction  product(mu_p) * sigma * N^{n-d}  for M_b(N),
    optionally checked against the exact count; ``spec`` defaults to
    ``QuadratureSpec()``."""
    from .arch import QuadratureSpec, sigma_scaled
    from .local import singular_series
    spec = QuadratureSpec() if spec is None else spec
    series, factors = singular_series(b, prime_bound, t_max=t_max)
    sigma = sigma_scaled(b, N, spec)
    main = max(series.product, 0.0) * max(sigma.value, 0.0) \
        * N ** (b.n - b.degree)
    truth = ratio = None
    if ground_truth:
        table = mangoldt_table(N)
        truth = (count_mitm(b, N, table, split) if strategy == "mitm"
                 else count_direct(b, N, table))
        if truth.value > 0:
            ratio = main / truth.value
    params = {"prime_bound": prime_bound, "t_max": t_max,
              "box_points": spec.box_points, "eps": spec.eps,
              "seed": spec.seed, "strategy": strategy, "split": split}
    return PredictionReport(N=N, series=series, sigma=sigma, main_term=main,
                            ground_truth=truth, ratio=ratio,
                            parameters=params, factors=factors)
