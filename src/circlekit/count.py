"""Ground truth and prediction.

The von Mangoldt table, exact prime-power solution counting M_b(N) (direct
and meet-in-the-middle), the regularity growth diagnostic, and assembly of
the main-term prediction against ground truth.

Each Lambda(k) is a float of at least log 2 > 1/2, so Lambda(k) * 2^53 is an
integer.  Every count sums exact integer products of those and divides once
by 2^(53 n): the correctly rounded true sum in any order, so all strategies
agree bit for bit.  b's additive groups of variables are folded in two
halves in Python integers, keeping only the sums that can still reach 0,
and matched by lookup (meet in the middle; Horowitz and Sahni, J. ACM 21,
1974).  A b that is not separable but has a variable x_j of degree one,
b = A x_j + B, is walked over the other variables with x_j solved for.
Only a group in several variables, and a regularity grid of more than
``poly._SMALL_STEPS`` points, load numpy, for ``eval_int``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .poly import _charge, _small, grid_blocks
from .primes import primes_up_to


@dataclass
class MangoldtTable:
    """Lambda(k) for 0 <= k <= N: log p at prime powers p^t, 0 elsewhere."""

    N: int
    values: list                # float Lambda(k)
    base: list                  # prime p at prime powers, 0 elsewhere


def mangoldt_table(N):
    """Sieve-built von Mangoldt table on [0, N]; the sieve charges its N + 1
    entries to the budget before this table's are allocated."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    primes = primes_up_to(N)
    values, base = [0.0] * (N + 1), [0] * (N + 1)
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


def _weights(table, N):
    """Points 2..N of positive weight, and the exact integer Lambda(k) 2^53
    at each of them (integral: weights are 0 or at least 1/2)."""
    if table.N < N:
        raise ValueError("von Mangoldt table too small")
    ks, ws = [], []
    for k, v in enumerate(table.values[2:N + 1], 2):
        if v > 0:
            w = v * 2.0 ** 53
            if w % 1:
                raise ValueError("weights must be 0 or at least 1/2")
            ks.append(k)
            ws.append(int(w))
    return ks, ws


def _result(N, total, n, strategy, method):
    """Round an exact [weight, count] sum over n coordinates once."""
    return CountResult(N=N, value=int(total[0]) / 2 ** (53 * n),
                       solution_count=int(total[1]), strategy=strategy,
                       method=method)


def _enclosure(g, N):
    """[lo, hi] holding every value of g on [2, N]^n, where each monomial
    grows with each coordinate."""
    ends = [sorted((c * 2 ** sum(e), c * N ** sum(e)))
            for e, c in g.terms.items()]
    return sum(a for a, _ in ends), sum(z for _, z in ends)


def _histogram(g, ks, ws, lo, hi):
    """g's values in [lo, hi] on the prime-power grid of its variables, each
    with its exact (weight, count): point by point in one variable, else by
    ``eval_int`` over ``grid_blocks``, the other values dropped in numpy."""
    if g.n == 1:
        pairs = [(v, w) for k, w in zip(ks, ws)
                 if lo <= (v := g.evaluate([k])) <= hi]
    else:
        weight, pairs = dict(zip(ks, ws)), []
        for block in grid_blocks([ks] * g.n):
            v = g.eval_int(block)
            hit = (lo <= v) & (v <= hi)
            pairs += zip(v[hit].tolist(), [math.prod(map(weight.get, x))
                                           for x in block[hit].tolist()])
    hist = {}
    for v, w in pairs:
        u, c = hist.get(v, (0, 0))
        hist[v] = u + w, c + 1
    return hist


def _reduce(groups, const, cut, table, N, strategy, method):
    """Exact M_b(N) for b = const + the sum of the groups, polynomials in
    consecutive blocks of variables: the constant and groups[:cut] are
    folded into one half, the rest into the other, and each sum of the
    smaller half is looked up in the larger.  A group keeps its values v
    with -v in the range of the others (``_enclosure`` until built), a half
    after each fold the sums that can still reach 0 against the groups not
    in it.  The grids are charged first, each fold before it runs."""
    if not all(g.is_integral() for g in groups) or not isinstance(const, int):
        raise ValueError("need integer coefficients")
    ks, ws = _weights(table, N)
    _charge(used := sum(len(ks) ** g.n for g in groups), "prime-power grid")
    n, ids = sum(g.n for g in groups), set(range(len(groups) + 1))
    hists = [{const: (1, 1)}] + [{}] * len(groups)
    spans = [(const, const)] + [_enclosure(g, N) for g in groups]

    def reach(rest):    # [lo, hi]: the sums s that -rest can still meet
        return -sum(spans[j][1] for j in rest), -sum(spans[j][0] for j in rest)

    for i in sorted(ids - {0}, key=lambda i: groups[i - 1].n != 1):
        hists[i] = _histogram(groups[i - 1], ks, ws, *reach(ids - {i}))
        if not hists[i]:    # no value of this group can reach 0
            return _result(N, (0, 0), n, strategy, method)
        spans[i] = min(hists[i]), max(hists[i])
    halves = []
    for half in range(cut + 1), range(cut + 1, len(hists)):
        partial, rest = {0: (1, 1)}, set(ids)
        for i in half:
            used += len(partial) * len(hists[i])
            _charge(used, "value convolution")
            rest.discard(i)
            (lo, hi), out = reach(rest), {}
            for s, (w, c) in partial.items():
                for v, (x, m) in hists[i].items():
                    if lo <= (t := s + v) <= hi:
                        u, k = out.get(t, (0, 0))
                        out[t] = u + w * x, k + c * m
            partial = out
        halves.append(partial)
    small, large = sorted(halves, key=len)
    total_w = total_n = 0
    for s, (w, c) in small.items():
        x, m = large.get(-s, (0, 0))
        total_w, total_n = total_w + w * x, total_n + c * m
    return _result(N, (total_w, total_n), n, strategy, method)


def _solve_linear(A, B, j, table, N):
    """Exact M_b(N) for b = A x_j + B, A and B free of x_j, walking only the
    other variables x', in Python integers.  Where A(x') != 0, x_j =
    -B(x') / A(x') counts when it is an integer of positive weight in
    [2, N]; where A(x') = B(x') = 0, every x_j counts, with the summed
    weight of the support.

    x' is walked in rows along one inner variable, one that A does not
    contain where there is one, so that A is one integer per row.  Each
    head (the other variables of x') reduces A and B to coefficients in the
    inner variable, evaluated along the row from the support's power lists;
    B's row is reused while its coefficients repeat."""
    if not (A.is_integral() and B.is_integral()):
        raise ValueError("need integer coefficients")
    ks, ws = _weights(table, N)
    m = A.n
    _charge(len(ks) ** m, "prime-power grid")
    weight = dict(zip(ks, ws))
    t = A.missing_variable()
    cA, cB = A.coefficients(t), B.coefficients(t)
    powers = [[y ** k for y in ks] for k in range(max(len(cA), len(cB)))]

    def along(coeffs):      # sum of c_k y^k at each point y of the row
        out = [0] * len(ks)
        for c, pw in zip(coeffs, powers):
            if c:
                out = [v + c * p for v, p in zip(out, pw)]
        return out

    free_w, free_n = sum(ws), len(ks)
    total_w = total_n = 0
    last = bs = None
    for head in product(range(len(ks)), repeat=m - 1):
        point = [ks[i] for i in head]
        b = [P.evaluate(point) for P in cB]
        if b != last:
            last, bs = b, along(b)
        a = [P.evaluate(point) for P in cA]
        row_sum = row_n = 0         # the row's exact [weight, count]
        if len(a) == 1 and a[0]:
            a = a[0]
            for k in [k for k, v in enumerate(bs) if not v % a]:
                x = weight.get(-bs[k] // a)
                if x:
                    row_sum += ws[k] * x
                    row_n += 1
        else:
            for k, (u, v) in enumerate(zip(along(a), bs)):
                if u:
                    x = 0 if v % u else weight.get(-v // u)
                    if x:
                        row_sum += ws[k] * x
                        row_n += 1
                elif not v:
                    row_sum += ws[k] * free_w
                    row_n += free_n
        total_w += math.prod(ws[i] for i in head) * row_sum
        total_n += row_n
    return _result(N, (total_w, total_n), m + 1, "direct", f"linear(x_{j})")


def count_direct(b, N, table):
    """Exact M_b(N): von-Mangoldt-weighted count of the prime-power points
    of b = 0 in [0, N]^n.  A separable b is folded one variable at a time;
    a b of degree one in some x_j has x_j solved for (the first such j);
    any other b is walked whole and only its zeros are weighted."""
    split = b.variable_split()
    if split and b.n:       # with no variable there is no group to reduce
        return _reduce(*split, b.n // 2, table, N, "direct", "separable")
    for j in range(1, b.n + 1):
        parts = b.linear_in(j)
        if parts:
            return _solve_linear(*parts, j, table, N)
    return _reduce([b], 0, 1, table, N, "direct", "grid")


def count_mitm(b, N, table, split=None):
    """Meet-in-the-middle M_b(N) for b = g(x_1..x_split) + h(the rest), split
    n // 2 by default: the sums of g are matched against those of h, each
    folded from b's one-variable parts when b is separable."""
    split = b.n // 2 if split is None else split
    if not 1 <= split < b.n:
        raise ValueError("split must leave variables on both sides")
    groups = b.variable_split() or b.additive_split([split, b.n - split])
    if groups is None:
        raise ValueError(f"polynomial is not additively separable at {split}")
    cut = split if len(groups[0]) == b.n else 1     # one group a side
    return _reduce(*groups, cut, table, N, "mitm", "separable")


def count_via_histogram(b, N, table):
    """Independent cross-check of count_direct through a value histogram.

    Buckets all prime-power tuples by their scalar b-value (traversed in the
    reverse tuple order), then sums the exact weights of the zero bucket.
    Must agree with count_direct to the last bit.
    """
    if not b.is_integral():
        raise ValueError("need integer coefficients")
    ks, ws = _weights(table, N)
    _charge(len(ks) ** b.n, "prime-power grid")
    weight, buckets = dict(zip(ks, ws)), {}
    for pt in product(reversed(ks), repeat=b.n):
        buckets.setdefault(b.evaluate(pt), []).append(pt)
    zeros = buckets.get(0, [])
    return _result(N, (sum(math.prod(map(weight.get, pt)) for pt in zeros),
                       len(zeros)), b.n, "direct", "grid")


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
    and compare with the regular-growth bound n - D.  Grids of ``_small``
    total size are walked point by point in Python integers, larger ones
    by ``eval_int`` over ``grid_blocks``."""
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
    cost = sum((2 * N + 1) ** n for N in N_list)
    _charge(cost, "zero-count grids")
    counts = []
    for N in N_list:
        box = [range(-N, N + 1)] * n
        if _small(cost):
            counts.append(sum(all(p.evaluate(x) == 0 for p in system)
                              for x in product(*box)))
            continue
        count = 0
        for block in grid_blocks(box):
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
