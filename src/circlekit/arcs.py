"""Arc dissection and exponential sums.

Major/minor arc geometry on the torus, von-Mangoldt-weighted and plain
exponential sums, normalized full-residue sums, rational classification of
frequencies by exact continued-fraction convergents, and the degeneracy
diagnostics z_R / fitted g_d, counted exactly as kernels of f's polar
tensor (its multilinear difference) read off f's terms.  Only the
exponential sums need numpy, and import it when called; a scan ``T_scan``
of at most ``poly._SMALL_STEPS`` terms and its histogram run without it.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .poly import _charge, _small, grid_blocks, residue_histogram


# ---------------------------------------------------------------------------
# arc geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFreq:
    """A reduced rational frequency m/q in [0, 1)."""

    m: int
    q: int

    def __post_init__(self):
        if self.q < 1 or not 0 <= self.m < self.q:
            raise ValueError("need 0 <= m < q")
        if math.gcd(self.m, self.q) != 1:
            raise ValueError("m/q must be reduced")

    @property
    def value(self):
        return Fraction(self.m, self.q)


@dataclass
class ArcDissection:
    """Major arcs: closed intervals of one radius around all reduced m/q
    with q up to (log N)^C.  The arc at 0 wraps around the torus."""

    N: int
    C: float
    d: int
    arcs: list            # (RationalFreq, radius)
    total_measure: float

    def radius(self):
        return self.arcs[0][1]

    def contains(self, alpha):
        """The center whose arc contains alpha (mod 1), or None."""
        a = alpha % 1.0
        r = self.radius()
        for freq, _ in self.arcs:
            c = float(freq.value)
            dist = abs(a - c)
            if min(dist, 1.0 - dist) <= r:
                return freq
        return None


def build_arcs(N, C, d):
    """Construct the major-arc dissection at scale N.

    Radius N^{-d} (log N)^C around every reduced m/q with q <= Q =
    (log N)^C, log natural; the Q (Q + 1) / 2 candidate m/q are charged to
    the budget first.  Raises if C is not finite, if (log N)^C overflows a
    float, if there is no arc (Q < 1) or if the arcs overlap (N too small
    for C).
    """
    if N < 3:
        raise ValueError("need N >= 3 so that log N > 1")
    if not math.isfinite(C):
        raise ValueError(f"C must be finite, got N={N}, C={C}")
    try:
        logC = math.log(N) ** C
    except OverflowError:
        raise ValueError(f"(log N)^C overflows a float at N={N}, "
                         f"C={C}") from None
    Q = int(logC)
    radius = N ** (-d) * logC
    if Q < 1:
        raise ValueError(f"(log N)^C = {logC} < 1 leaves no arc at N={N}, "
                         f"C={C}")
    _charge(Q * (Q + 1) // 2, f"arc centres with q <= {Q}")
    centers = sorted(
        {Fraction(m, q) for q in range(1, Q + 1)
         for m in range(q) if math.gcd(m, q) == 1})
    # consecutive Farey gaps, plus the wrap-around gap back to 0
    gaps = [b - a for a, b in zip(centers, centers[1:])]
    gaps.append(1 - centers[-1] + centers[0])
    if min(gaps) <= 2 * Fraction(radius):
        raise ValueError(
            f"arcs of radius {radius} overlap at N={N}, C={C}")
    arcs = [(RationalFreq(c.numerator % c.denominator, c.denominator), radius)
            for c in centers]
    return ArcDissection(N=N, C=C, d=d, arcs=arcs,
                         total_measure=len(arcs) * 2 * radius)


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def _exact(alpha):
    """alpha as a Fraction; other reals, numpy float32 say, as floats."""
    try:
        return Fraction(alpha if isinstance(alpha, (int, Fraction))
                        else float(alpha))
    except (OverflowError, ValueError):
        raise ValueError(f"alpha must be finite, got {alpha!r}") from None


def _exp_sum(b, alpha, axes, weight=None):
    """The sum over x in the grid ``axes`` of w(x_1) ... w(x_n) e(alpha b(x)),
    w = ``weight`` indexed by coordinate (1 when None).

    A float or Fraction alpha is m / r exactly; with D the common
    denominator of b and q = D r, alpha b(x) mod 1 is (m D b(x) mod q) / q,
    reduced exactly in integers and rounded once: in int64 while q < 2^61
    and |D b(x)| or its residue mod q (taken while q^2 < 2^63) is below
    2^52, where a float estimate of the quotient is off by at most 2 and
    int64 products wrap exactly mod 2^64; in Python ints otherwise.  A
    separable b = c + f_1(x_1) + ... + f_n(x_n) factors as e(alpha c) times
    n one-variable sums; any other b walks its grid.  The points walked are
    charged to the budget first.
    """
    import numpy as np
    m, r = _exact(alpha).as_integer_ratio()
    D = math.lcm(*(Fraction(c).denominator for c in b.terms.values()))
    q, split = D * r, b.variable_split()
    M = m % q
    _charge((sum if split else math.prod)(len(a) for a in axes),
            "exponential sum")
    total, groups = 1, [(b * D, axes)]
    if split:
        ph = 2 * math.pi * (M * int(D * split[1]) % q / q)
        total = complex(math.cos(ph), math.sin(ph))
        groups = [(f * D, [a]) for f, a in zip(split[0], axes)]
    for g, grid in groups:
        re, im = [], []
        for block in grid_blocks(grid):
            v = g.eval_int(block, q) if q * q < 2 ** 63 else g.eval_int(block)
            if v.dtype == object or q >= 2 ** 61 or \
                    np.abs(v).max() >= 2 ** 52:
                frac = (v.astype(object) * M % q / q).astype(float)
            else:
                k = np.floor(v * (M / q)).astype(np.int64)
                frac = (v * M - k * q) % q / q
            ph = 2 * math.pi * frac
            w = 1 if weight is None else weight[block].prod(axis=1)
            re.append(float(np.sum(w * np.cos(ph))))
            im.append(float(np.sum(w * np.sin(ph))))
        total *= complex(math.fsum(re), math.fsum(im))
    return complex(total)


def T_sum(b, alpha, N, table):
    """The sum over prime-power x in [0, N]^n of Lambda(x_1) ...
    Lambda(x_n) e(alpha b(x)), with exact phases (see ``_exp_sum``)."""
    import numpy as np
    if table.N < N:
        raise ValueError("von Mangoldt table too small")
    values = np.asarray(table.values, float)
    ks = values[:N + 1].nonzero()[0]
    return _exp_sum(b, alpha, [ks] * b.n, values)


def T_scan(b, P, N, table):
    """T(k/P) for k = 0, ..., P - 1: the sum over r of H(r) e(k r / q).

    With D the common denominator of b and q = D P, H is the
    ``residue_histogram`` of D b mod q, each residue weighted by the exact
    Lambda(x) 2^53 of its prime powers x <= N, divided once by 2^(53 n).
    While P times the number of nonzero H(r) is ``_small``, each T(k/P) is
    a ``math.fsum`` over those r with the exact phase (k r mod q) / q,
    rounded once; above it one inverse FFT gives every T(k/P).  q and the
    histogram's cost are checked before any work.
    """
    from .count import _weights
    if P < 1:
        raise ValueError("need at least one point")
    D = math.lcm(*(Fraction(c).denominator for c in b.terms.values()))
    q = D * P
    _charge(q, f"residues mod {q}")
    weight = [0] * q
    for k, w in zip(*_weights(table, N)):
        weight[k % q] += w
    hist = residue_histogram(b * D, q, weight)
    scale = 2 ** (53 * b.n)
    if not _small(P * (q - hist.count(0))):
        import numpy as np
        return np.fft.ifft([h / scale for h in hist],
                           norm="forward")[:P].tolist()
    terms = [(r, h / scale) for r, h in enumerate(hist) if h]
    out = []
    for k in range(P):
        phases = [(h, 2 * math.pi * (k * r % q) / q) for r, h in terms]
        out.append(complex(math.fsum(h * math.cos(t) for h, t in phases),
                           math.fsum(h * math.sin(t) for h, t in phases)))
    return out


def S_sum(psi, alpha, box, P):
    """Plain exponential sum over the dilated box P*box intersected with Z^n.

    box is a list of (lo, hi) with hi - lo <= 1 in each coordinate.
    """
    if len(box) != psi.n:
        raise ValueError("box dimension mismatch")
    ranges = []
    for lo, hi in box:
        if hi - lo > 1 + 1e-12:
            raise ValueError("box sides must be at most 1")
        ranges.append(range(math.ceil(P * lo), math.floor(P * hi) + 1))
    return _exp_sum(psi, alpha, ranges)


def E_normalized(psi, q, m):
    """q^{-n} times the full-residue exponential sum of e(m psi(x) / q).

    Unlike the unit-restricted sums of the local module, x ranges over all
    of (Z/q)^n.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(m, q) != 1:
        raise ValueError("need gcd(m, q) = 1")
    return _exp_sum(psi, Fraction(m, q), [range(q)] * psi.n) / q ** psi.n


# ---------------------------------------------------------------------------
# rational classification of a frequency
# ---------------------------------------------------------------------------

def classify_alpha(alpha, P, d, Delta):
    """Rational approximation test: the smallest q <= P^Delta with
    ||q alpha|| <= P^{Delta - d} as (q, a, |q alpha - a|), a the integer
    nearest q alpha, or "minor".

    alpha is read as its exact Fraction and only its convergents' denominators
    are tried: the least such q beats every smaller q, so it is a best
    approximation of the second kind, and each of those is a convergent
    (Khinchin, Continued Fractions, Thm 16).  Only |q alpha - a| is taken
    in alpha's own arithmetic.
    """
    if P <= 0 or Delta <= 0:
        raise ValueError(f"need P, Delta > 0, got P = {P}, Delta = {Delta}")
    x = y = _exact(alpha)
    q_max, thresh = int(P ** Delta), Fraction(P ** (Delta - d))
    q_prev, q = 1, 0
    while True:
        k = math.floor(y)
        q_prev, q = q, k * q + q_prev
        if q > q_max:
            return "minor"
        a = round(q * x)
        if abs(q * x - a) <= thresh:    # 0 at the last convergent
            return q, a, abs(q * alpha - a)
        y = 1 / (y - k)


# ---------------------------------------------------------------------------
# degeneracy diagnostics via the multilinear operator
# ---------------------------------------------------------------------------

@dataclass
class WeylReport:
    P: float
    R_values: list
    z_counts: list
    fitted_gd: float
    gamma_d: float
    gamma_d_prime: float


def _kernel(A):
    """(eqs, free) for A y = 0, A an exact n x n matrix: each row of A's
    reduced row echelon form over Q, denominators cleared, is a pair (c, a)
    that reads c y_p = -a . y_free for a pivot coordinate p, and ``free``
    lists the free coordinates."""
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


def _kernel_count(eqs, free, R):
    """Number of y in [-R, R]^n with A y = 0, given A's ``_kernel``: only the
    free coordinates are walked, (2 R + 1)^free points that the caller
    prices, and each pivot coordinate y_p is tested in integers."""
    count = 0
    for y in product(range(-R, R + 1), repeat=len(free)):
        dots = ((c, sum(u * v for u, v in zip(a, y))) for c, a in eqs)
        count += all(s % c == 0 and abs(s) <= R * c for c, s in dots)
    return count


def z_count(f, d, R):
    """Number of (d-1)-tuples in [-R, R]^{n(d-1)} on which the differencing
    operator of f contracts to zero against every basis vector.

    That operator is f's polar tensor T_k = d^d f / dx_k1 ... dx_kd, read
    off f's terms: c x^e puts c prod e_i! at each arrangement k of e's
    indices.  Each head (h_1, ..., h_{d-2}) contracts it to the exact matrix
    A_ij = sum T_(k, j, i) h_1[k_1] ... h_{d-2}[k_{d-2}], eliminated once by
    ``_kernel``; the last slot ranges over A's kernel, counted by
    ``_kernel_count``.  Everything is priced before any kernel is walked:
    the heads up front, then each head's (2 R + 1)^free added to a running
    total as its matrix is eliminated; only then are the kept kernels walked.
    """
    if d < 2 or not f.is_homogeneous() or f.degree != d:
        raise ValueError(f"need a homogeneous form of degree d >= 2, got "
                         f"d = {d} and degree {f.degree}")
    n = f.n
    if R < 0:
        raise ValueError(f"need R >= 0, got R = {R}")
    # a head takes up to d factors per entry of T, then one elimination
    size = sum(math.factorial(d) // math.prod(map(math.factorial, e))
               for e in f.terms)
    cost = (2 * R + 1) ** (n * (d - 2)) * (d * size + n ** 3)
    _charge(cost, "heads of the tuple grid")
    T = [((), e, c) for e, c in f.terms.items()]
    for _ in range(d):          # d derivatives, one index at a time
        T = [(k + (i,), e[:i] + (m - 1,) + e[i + 1:], c * m)
             for k, e, c in T for i, m in enumerate(e) if m]
    z, kernels = 0, []
    # the heads concatenated, one flat tuple; for d = 2 it is empty
    for h in product(range(-R, R + 1), repeat=n * (d - 2)):
        A = [[0] * n for _ in range(n)]
        for (*ks, j, i), _, v in T:
            A[i][j] += v * math.prod(h[s * n + k] for s, k in enumerate(ks))
        eqs, free = _kernel(A)
        cost += (2 * R + 1) ** len(free)
        _charge(cost, "heads and kernel walks")
        if free:
            kernels.append((eqs, free))
        else:
            z += 1                  # the kernel is {0}
    return z + sum(_kernel_count(eqs, free, R) for eqs, free in kernels)


def estimate_gd(f, d, R_list):
    """Fit the growth exponent of z_R and report the degeneracy exponents.

    fitted_gd = n(d-1) - slope of log z_R in log R; gamma_d and gamma'_d are
    the derived minor-arc exponents (infinite when g_d = 0).
    """
    R_list = sorted(R_list)
    if len(set(R_list)) < 3 or R_list[0] < 1:
        raise ValueError(f"need 3 or more distinct R >= 1, got {R_list}")
    zs = [z_count(f, d, R) for R in R_list]
    slope = statistics.linear_regression(
        [math.log(R) for R in R_list], [math.log(z) for z in zs]).slope
    gd = max(f.n * (d - 1) - slope, 0.0)
    gamma_d = 2 ** (d - 1) * (d - 1) / gd if gd > 0 else math.inf
    gamma_dp = 2 ** (d - 1) / gd if gd > 0 else math.inf
    return WeylReport(P=float(R_list[-1]), R_values=R_list, z_counts=zs,
                      fitted_gd=gd, gamma_d=gamma_d, gamma_d_prime=gamma_dp)
