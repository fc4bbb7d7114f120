"""Independent reference answers for every benchmark job.

Nothing here imports circlekit: forms are plain term lists and every expected
value is computed from its mathematical definition (or a closed form).  A
checker takes a job's standard output and raises CheckFailed on a mismatch.

Checkers read only report fields that the planned refactors keep: ``value``,
``ratio``, ``ground_truth.value``, ``series.product``, the per-factor
``mu_p``, ``h_value`` and the few known-answer lists.  Solution tuples are
never read.  Exact counts get 1e-12 relative slack because a change of
summation order may move them by an ulp.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

COUNT_RTOL = 1e-12
# Quadrature results must lie within this many of their own error estimates
# of the true value.  Over Sobol seeds 0..99 the worst case seen is 3.7.
QUAD_SIGMAS = 5.0


class CheckFailed(Exception):
    """A job's output disagrees with its reference answer."""


# -- forms: (coefficient, exponents) term lists ------------------------------

def five_squares(c):
    return [(1, (2, 0, 0, 0, 0)), (1, (0, 2, 0, 0, 0)), (1, (0, 0, 2, 0, 0)),
            (1, (0, 0, 0, 2, 0)), (1, (0, 0, 0, 0, 2)), (-c, (0, 0, 0, 0, 0))]


CONE = [(1, (1, 1, 0)), (-1, (0, 0, 2))]                  # x1 x2 - x3^2
HYPERBOLIC = [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))]       # x1 x2 + x3 x4
TWO_SQUARES = [(1, (2, 0)), (1, (0, 2)), (-5, (0, 0))]    # x1^2 + x2^2 - 5


def poly_text(terms):
    """The circlekit polynomial text format for a term list."""
    n = len(terms[0][1])
    lines = [f"n={n}"] + [" ".join(map(str, (c, *e))) for c, e in terms]
    return "\n".join(lines) + "\n"


def _eval_int(terms, cols):
    out = np.zeros(len(cols[0]), dtype=np.int64)
    for c, e in terms:
        v = np.full(len(out), c, dtype=np.int64)
        for x, k in zip(cols, e):
            v = v * x ** k
        out += v
    return out


# -- number theory ------------------------------------------------------------

def primes_upto(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def prime_powers(N):
    """[(k, p)] for every prime power k = p^a <= N, sorted by k."""
    out = []
    for p in primes_upto(N):
        k = p
        while k <= N:
            out.append((k, p))
            k *= p
    return sorted(out)


def five_squares_mu(c, p):
    """Local factor of x1^2+...+x5^2 - c at p.

    Every unit point has a gradient 2x_i of p-adic valuation v_p(2), so
    Hensel's lemma makes the partial sums constant from level t = 1 for odd
    p and from t = 3 for p = 2.  mu(p) = p^t nu_t / phi(p^t)^5 there.
    """
    t = 3 if p == 2 else 1
    q = p ** t
    units = np.array([u for u in range(q) if u % p], dtype=np.int64)
    hist = np.bincount(units * units % q, minlength=q)
    total = np.zeros(q, dtype=np.int64)      # counts stay below phi(q)^5
    total[0] = 1
    for _ in range(5):
        full = np.convolve(total, hist)
        total = full[:q].copy()
        total[:len(full) - q] += full[q:]
    nu = int(total[c % q])
    return Fraction(q * nu, (q - q // p) ** 5)


def five_squares_count(c, N):
    """M_b(N) for x1^2+...+x5^2 = c by convolving weighted value histograms."""
    h1 = {}
    for k, p in prime_powers(N):
        h1[k * k] = h1.get(k * k, 0.0) + math.log(p)

    def conv(f, g):
        out = {}
        for u, a in f.items():
            for v, b in g.items():
                if u + v <= c:
                    out[u + v] = out.get(u + v, 0.0) + a * b
        return out

    h2 = conv(h1, h1)
    h3 = conv(h2, h1)
    return math.fsum(a * h3.get(c - v, 0.0) for v, a in h2.items())


def five_squares_sigma(c, N):
    """Real density of x1^2+...+x5^2 = c on [0, N]^5, divided by N^3.

    With c < N^2 the positive-orthant part of the sphere lies inside the
    box, so the value is 1/32 of (1/2) |S^4| c^(3/2), |S^4| = 8 pi^2 / 3.
    """
    if c >= N * N:
        raise ValueError("closed form needs the sphere inside the box")
    return (4 * math.pi ** 2 / 3) / 32 * c ** 1.5 / N ** 3


def cone_count(N):
    """M_b(N) for x1 x2 = x3^2: only p^a p^b = p^(2c) with a + b = 2c."""
    total = []
    for p in primes_upto(N):
        top = 0
        while p ** (top + 1) <= N:
            top += 1
        hits = sum(1 for a in range(1, top + 1) for b in range(1, top + 1)
                   if (a + b) % 2 == 0 and (a + b) // 2 <= top)
        total.append(math.log(p) ** 3 * hits)
    return math.fsum(total)


def weyl_sums(terms, N, alphas):
    """T(alpha) = sum over prime-power points of Lambda-weights e(alpha b(x)),
    and the sum of all weights."""
    pp = prime_powers(N)
    ks = np.array([k for k, _ in pp], dtype=np.int64)
    logs = np.array([math.log(p) for _, p in pp])
    n = len(terms[0][1])
    grids = np.meshgrid(*([np.arange(len(ks))] * n), indexing="ij")
    idx = [g.reshape(-1) for g in grids]
    vals = _eval_int(terms, [ks[i] for i in idx]).astype(float)
    w = np.prod([logs[i] for i in idx], axis=0)
    sums = [complex(np.dot(w, np.exp(2j * np.pi * float(a) * vals)))
            for a in alphas]
    return sums, float(w.sum())


def classify(alpha, P, d, Delta):
    """Smallest q <= P^Delta with ||q alpha|| <= P^(Delta-d), as "a/q"."""
    thresh = P ** (Delta - d)
    for q in range(1, int(P ** Delta) + 1):
        a = round(q * alpha)
        if abs(q * alpha - a) <= thresh:
            return f"{a}/{q}"
    return "minor"


# -- checkers -----------------------------------------------------------------

def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _close(got, want, rtol, what):
    _require(abs(got - want) <= rtol * abs(want),
             f"{what}: got {got!r}, expected {want!r}")


def _result(stdout):
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable report: {exc}") from None


def _quad(est, want, what):
    err = float(est["error_estimate"])
    _require(abs(float(est["value"]) - want) <= QUAD_SIGMAS * err,
             f"{what}: {est['value']} is more than {QUAD_SIGMAS} x "
             f"{err} from {want}")


def check_version(stdout):
    _require(stdout.strip() != "", "empty --version output")


def check_predict(c, N, prime_bound):
    count = five_squares_count(c, N)
    product = math.prod(float(five_squares_mu(c, p))
                        for p in primes_upto(prime_bound))
    sigma = five_squares_sigma(c, N)

    def check(stdout):
        r = _result(stdout)
        _close(r["ground_truth"]["value"], count, COUNT_RTOL,
               "ground-truth count")
        _close(r["series"]["product"], product, 1e-12, "series product")
        _quad(r["sigma"], sigma, "sigma_scaled")
        # ratio = product * sigma * N^(n-d) / count, with the checked inputs
        _close(r["ratio"], product * r["sigma"]["value"] * N ** 3 / count,
               1e-9, "ratio")
        _require(0.7 <= r["ratio"] <= 1.3, f"ratio {r['ratio']} off target")
    return check


def check_count(want):
    def check(stdout):
        _close(_result(stdout)["value"], want, COUNT_RTOL, "weighted count")
    return check


def check_series(mu_of, prime_bound):
    mus = {p: mu_of(p) for p in primes_upto(prime_bound)}
    product = math.prod(float(m) for m in mus.values())

    def check(stdout):
        r = _result(stdout)
        got = {int(f["p"]): Fraction(f["mu_p"]) for f in r["factors"]}
        _require(got == mus, "local factors differ from the reference")
        _close(r["series"]["product"], product, 1e-12, "series product")
    return check


def check_local(want):
    def check(stdout):
        got = Fraction(_result(stdout)["mu_p"])
        _require(got == want, f"mu_p {got} != {want}")
    return check


def check_sigma_inf(want):
    def check(stdout):
        r = _result(stdout)
        _quad(r["quadrature"], want, "mu_infinity")
        _quad(r["measure"], want, "sigma_measure")
    return check


def check_weyl_scan(terms, N, points, Delta=0.5):
    alphas = [Fraction(k, points) for k in range(points)]
    sums, wsum = weyl_sums(terms, N, alphas)
    degree = max(sum(e) for _, e in terms)
    tags = [classify(a, N, degree, Delta) for a in alphas]

    def check(stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        _require(len(rows) == points, f"{len(rows)} rows, expected {points}")
        for row, a, want, tag in zip(rows, alphas, sums, tags):
            _require(float(row["alpha"]) == float(a), f"alpha {row['alpha']}")
            got = complex(float(row["re_T"]), float(row["im_T"]))
            _require(abs(got - want) <= 1e-9 * wsum,
                     f"T({a}) = {got}, expected {want}")
            _require(row["classification"] == tag,
                     f"class of {a}: {row['classification']} != {tag}")
    return check


def check_field(key, want):
    def check(stdout):
        got = _result(stdout)[key]
        _require(got == want, f"{key} = {got!r}, expected {want!r}")
    return check


def check_arcs(centres):
    def check(stdout):
        got = {(c["m"], c["q"]) for c in _result(stdout)["centers"]}
        _require(got == centres, f"arc centres {sorted(got)}")
    return check
