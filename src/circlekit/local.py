"""p-adic local densities.

Unit exponential sums, B(q), exact unit-solution counts nu_t(p), the local
factor mu(p) through the exact rational identity

    1 + sum_{j<=t} B(p^j)  =  p^t * nu_t(p) / phi(p^t)^n,

the truncated singular series, and p-adic positivity witnesses.

The exact rational path is primary (stabilization is decidable there); the
complex B(q) path exists as a floating-point cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .poly import _INT64_SAFE, Polynomial, grid_blocks

DEFAULT_ENUM_BUDGET = 10 ** 8
LIFT_THRESHOLD = 10 ** 6


class BudgetExceeded(RuntimeError):
    """Raised when an exact enumeration would exceed the configured budget."""


def primes_up_to(N):
    """The primes p <= N, by the sieve of Eratosthenes."""
    if N < 2:
        return []
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(N) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).tolist()


def _is_prime(p):
    return p >= 2 and all(p % k for k in range(2, isqrt(p) + 1))


# ---------------------------------------------------------------------------
# residue histograms
# ---------------------------------------------------------------------------

def _separable_parts(b):
    """Split b into univariate polynomials, one per variable, plus a constant.

    Returns (parts, const) where parts[i] is the sum of the terms in x_{i+1}
    alone, as a Polynomial in one variable, or (None, None) if some term
    mixes two or more variables.
    """
    parts = [{} for _ in range(b.n)]
    const = 0
    for e, c in b.terms.items():
        nz = [i for i, k in enumerate(e) if k]
        if len(nz) == 0:
            const += c
        elif len(nz) == 1:
            parts[nz[0]][(e[nz[0]],)] = c
        else:
            return None, None
    return [Polynomial(1, t) for t in parts], const


def _convolve_mod(h, g, q):
    """Exact circular convolution of two length-q count vectors."""
    if isinstance(h, np.ndarray) and isinstance(g, np.ndarray):
        full = np.convolve(h, g)
        out = full[:q].copy()
        out[: len(full) - q] += full[q:]
        return out
    h = [int(x) for x in h]
    g = [int(x) for x in g]
    out = [0] * q
    for i, hv in enumerate(h):
        if hv:
            for j, gv in enumerate(g):
                if gv:
                    out[(i + j) % q] += hv * gv
    return out


def unit_residues(q):
    """Array of residues coprime to q; by convention U_1 = {0}."""
    q = int(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return np.array([0], dtype=np.int64)
    r = np.arange(q, dtype=np.int64)
    return r[np.gcd(r, q) == 1]


def value_histogram(b, q, units=True, budget=DEFAULT_ENUM_BUDGET):
    """Counts of b(x) mod q over x in U_q^n (or all of (Z/q)^n).

    Additively separable polynomials go through exact per-variable histogram
    convolution; anything else is enumerated directly.  Either path raises
    BudgetExceeded before any work when its cost exceeds the budget.
    Entries are exact integers (int64 array, or Python ints when counts
    could overflow 64 bits).
    """
    q = int(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    if not b.is_integral():
        raise ValueError("histogram needs integer coefficients")
    parts, const = _separable_parts(b)
    # the separable path makes n - 1 exact convolutions of about q^2 steps each
    if parts is not None and (b.n - 1) * q * q > budget:
        raise BudgetExceeded(
            f"{b.n - 1} convolutions mod {q} exceed enumeration budget {budget}")
    domain = unit_residues(q) if units else np.arange(q, dtype=np.int64)
    if parts is not None:
        exact64 = len(domain) ** b.n < _INT64_SAFE
        hist = None
        for part in parts:
            g = np.bincount(part.eval_int(domain[:, None], q), minlength=q)
            if not exact64:
                g = [int(x) for x in g]
            hist = g if hist is None else _convolve_mod(hist, g, q)
        if const % q:
            shift = const % q
            if isinstance(hist, np.ndarray):
                hist = np.roll(hist, shift)
            else:
                hist = hist[-shift:] + hist[:-shift]
        return hist
    if len(domain) ** b.n > budget:
        raise BudgetExceeded(
            f"domain size {len(domain)}^{b.n} exceeds enumeration budget {budget}")
    hist = np.zeros(q, dtype=np.int64)
    for block in grid_blocks([domain] * b.n):
        hist += np.bincount(b.eval_int(block, q), minlength=q)
    return hist


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def unit_exp_sum(b, m, q, budget=DEFAULT_ENUM_BUDGET):
    """S~_{m,q} = sum over k in U_q^n of e(b(k) m / q), gcd(m, q) = 1."""
    q = int(q)
    if q == 1:
        return complex(1.0)
    m = int(m) % q
    if gcd(m, q) != 1:
        raise ValueError(f"m={m} is not a unit mod {q}")
    hist = value_histogram(b, q, units=True, budget=budget)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    idx = (m * np.arange(q)) % q
    weights = hist.astype(float) if isinstance(hist, np.ndarray) else \
        np.array([float(x) for x in hist])
    return complex(np.dot(weights, roots[idx]))


def B_of_q(b, q, budget=DEFAULT_ENUM_BUDGET):
    """B(q) = phi(q)^{-n} * sum over units m of S~_{m,q} (complex path).

    Mathematically real; the imaginary part is reported for cross-checks.
    """
    q = int(q)
    if q == 1:
        return complex(1.0)
    hist = value_histogram(b, q, units=True, budget=budget)
    weights = hist.astype(float) if isinstance(hist, np.ndarray) else \
        np.array([float(x) for x in hist])
    units = unit_residues(q)
    u = np.zeros(q)
    u[units] = 1.0
    # sum over units m of e(m r / q), all r at once, via an inverse DFT
    ram = np.fft.ifft(u) * q
    phin = len(units) ** b.n
    return complex(np.dot(weights, ram) / phin)


# ---------------------------------------------------------------------------
# unit solution counts and mu(p)
# ---------------------------------------------------------------------------

@dataclass
class UnitSolutionCount:
    p: int
    t: int
    nu: int


def nu_count(b, p, t, budget=DEFAULT_ENUM_BUDGET):
    """Exact count of x in (U_{p^t})^n with b(x) = 0 mod p^t."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t < 1:
        raise ValueError("level t must be >= 1")
    q = p ** t
    try:
        hist = value_histogram(b, q, units=True, budget=budget)
        return UnitSolutionCount(p=p, t=t, nu=int(hist[0]))
    except BudgetExceeded:
        if len(unit_residues(p)) ** b.n <= LIFT_THRESHOLD:
            return UnitSolutionCount(p=p, t=t, nu=_nu_by_lifting(b, p, t, budget))
        raise


def _nu_by_lifting(b, p, t, budget):
    """Level-by-level lifting: only residues above current solutions are kept.

    Feasible only while the intermediate solution lists stay small.
    """
    from itertools import product as iproduct
    units = [int(x) for x in unit_residues(p)]
    sols = [x for x in iproduct(units, repeat=b.n) if b.evaluate_mod(x, p) == 0]
    q = p
    for level in range(2, t + 1):
        q *= p
        if len(sols) * p ** b.n > budget:
            raise BudgetExceeded("lifting path solution list exceeds budget")
        new = []
        for x in sols:
            for e in iproduct(range(p), repeat=b.n):
                y = tuple(xi + (q // p) * ei for xi, ei in zip(x, e))
                if b.evaluate_mod(y, q) == 0:
                    new.append(y)
        sols = new
    return len(sols)


@dataclass
class HenselWitness:
    p: int
    point: tuple
    modulus: int
    unit_gradient_index: int


def padic_nonsingular_witness(b, p, tries=4000, seed=0):
    """Search for a unit solution mod p with a unit partial derivative.

    A hit certifies mu(p) > 0 via Hensel lifting.  For p = 2 the search runs
    mod 8 and asks for a partial derivative of 2-adic valuation <= 1, which is
    the standard sufficient condition at the even prime.  Returns None when no
    witness is found (which is a valid outcome, not an error).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    grads = b.gradient()
    if p == 2:
        modulus, domain = 8, [1, 3, 5, 7]

        def good(x):
            if b.evaluate_mod(x, 8) != 0:
                return None
            for i, g in enumerate(grads):
                if g.evaluate_mod(x, 4) % 2 == 1 or g.evaluate_mod(x, 4) == 2:
                    return i
            return None
    else:
        modulus, domain = p, [int(u) for u in unit_residues(p)]

        def good(x):
            if b.evaluate_mod(x, p) != 0:
                return None
            for i, g in enumerate(grads):
                if g.evaluate_mod(x, p) != 0:
                    return i
            return None

    n = b.n
    if len(domain) ** n <= 200_000:
        from itertools import product as iproduct
        for x in iproduct(domain, repeat=n):
            i = good(x)
            if i is not None:
                return HenselWitness(p=p, point=x, modulus=modulus,
                                     unit_gradient_index=i + 1)
        return None
    # randomized tails with a scan over the leading coordinate
    rng = np.random.default_rng((seed, p))
    for _ in range(tries):
        tail = [domain[k] for k in rng.integers(0, len(domain), size=n - 1)]
        for x0 in domain:
            x = (x0, *tail)
            i = good(x)
            if i is not None:
                return HenselWitness(p=p, point=x, modulus=modulus,
                                     unit_gradient_index=i + 1)
    return None


def _has_fully_singular_solution(b, p, budget=DEFAULT_ENUM_BUDGET):
    """Does some unit solution mod p have *all* partial derivatives = 0 mod p?

    When the answer is no (and nu_1 > 0), every solution mod p^t lifts in
    exactly p^(n-1) ways, so the partial sums are constant from t = 1 on.
    """
    parts, const = _separable_parts(b)
    units = unit_residues(p)
    if parts is not None:
        # restrict each variable to units where its own derivative vanishes
        hist = None
        for part in parts:
            dom = units[part.gradient()[0].eval_int(units[:, None], p) == 0]
            if len(dom) == 0:
                return False
            g = np.bincount(part.eval_int(dom[:, None], p), minlength=p)
            hist = g if hist is None else _convolve_mod(hist, g, p)
        return int(hist[(-const) % p]) > 0
    if len(units) ** b.n > budget:
        raise BudgetExceeded("cannot verify absence of singular solutions")
    grads = b.gradient()
    for block in grid_blocks([units] * b.n):
        block = block[b.eval_int(block, p) == 0]
        for g in grads:
            block = block[g.eval_int(block, p) == 0]
        if len(block):
            return True
    return False


@dataclass
class LocalFactor:
    p: int
    partial_sums: list          # Fractions: 1 + sum_{j<=t} B(p^j), exact
    mu_p: Fraction
    stabilized_at: int | None
    nu_values: list = field(default_factory=list)
    warning: str | None = None


def mu_p(b, p, t_max=6, budget=DEFAULT_ENUM_BUDGET):
    """Local factor mu(p) through the exact rational nu_t identity.

    Stabilization is declared when two consecutive exact partial sums agree
    and a Hensel witness certifies that the stabilized value is the limit
    (or when nu_1 = 0, which forces mu(p) = 0 outright).
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    n = b.n
    nus = []
    partials = []
    witness = padic_nonsingular_witness(b, p)
    analytic = False
    if p != 2:
        try:
            analytic = not _has_fully_singular_solution(b, p, budget=budget)
        except BudgetExceeded:
            analytic = False
    warning = None
    for t in range(1, t_max + 1):
        if analytic and t > 1:
            nu = nus[-1] * p ** (n - 1)
        else:
            try:
                nu = nu_count(b, p, t, budget=budget).nu
            except BudgetExceeded:
                warning = f"enumeration budget hit at level t={t}"
                break
        nus.append(nu)
        partials.append(Fraction(p ** t * nu, (p ** t - p ** (t - 1)) ** n))
        if nu == 0:
            # no solution mod p^t means none at any higher level either
            return LocalFactor(p=p, partial_sums=partials, mu_p=Fraction(0),
                               stabilized_at=t, nu_values=nus)
    stabilized_at = None
    certified = witness is not None or (analytic and nus and nus[0] > 0)
    if certified:
        for t in range(2, len(partials) + 1):
            if partials[t - 1] == partials[t - 2]:
                stabilized_at = t
                break
    mu = partials[stabilized_at - 1] if stabilized_at else \
        (partials[-1] if partials else Fraction(0))
    if stabilized_at is None and warning is None:
        warning = "no stabilization within t_max"
    return LocalFactor(p=p, partial_sums=partials, mu_p=mu,
                       stabilized_at=stabilized_at, nu_values=nus,
                       warning=warning)


# ---------------------------------------------------------------------------
# truncated singular series
# ---------------------------------------------------------------------------

@dataclass
class SeriesEstimate:
    prime_bound: int
    product: float
    tail_exponent: float | None
    tail_bound: float


def singular_series(b, prime_bound, t_max=6, budget=DEFAULT_ENUM_BUDGET):
    """Product of mu(p) over p <= prime_bound, plus an empirical tail fit.

    Returns (SeriesEstimate, [LocalFactor...]).  The product is reported as
    exactly 0 when any factor vanishes.
    """
    if prime_bound < 2:
        raise ValueError("prime bound must be >= 2")
    factors = [mu_p(b, p, t_max=t_max, budget=budget)
               for p in primes_up_to(prime_bound)]
    if any(f.mu_p == 0 for f in factors):
        product = 0.0
    else:
        product = float(np.exp(sum(np.log(float(f.mu_p)) for f in factors)))
    # fit |mu(p) - 1| ~ C p^{-1-delta}
    xs, ys = [], []
    for f in factors:
        dev = abs(float(f.mu_p) - 1.0)
        if dev > 0:
            xs.append(np.log(f.p))
            ys.append(np.log(dev))
    if len(xs) >= 3:
        slope, logc = np.polyfit(xs, ys, 1)
        delta = -slope - 1.0
        c = float(np.exp(logc))
        tail = c * prime_bound ** (-max(delta, 1e-9)) / max(delta, 1e-9) \
            if delta > 0 else float("inf")
        est = SeriesEstimate(prime_bound=prime_bound, product=product,
                             tail_exponent=float(delta), tail_bound=max(tail, 0.0))
    else:
        est = SeriesEstimate(prime_bound=prime_bound, product=product,
                             tail_exponent=None, tail_bound=0.0)
    return est, factors
