"""p-adic local densities.

Unit exponential sums, B(q), exact unit-solution counts nu_t(p), the
truncated singular series, and the local factor mu(p) through the exact
rational identity  1 + sum_{j<=t} B(p^j)  =  p^t * nu_t(p) / phi(p^t)^n.

nu_t(p) comes from one Hensel-tree recursion, the one behind Igusa's and
Denef's local zeta computations.  A zero of b mod p with a unit partial
derivative lifts in exactly p^(n-1) ways per level (Hensel's lemma, at
p = 2 too).  A singular zero x0, where every partial derivative vanishes
mod p, is refined to h(y) = b(x0 + p y) / p^c, c the p-adic valuation of
the content, and h is treated the same way.  The tree gives every nu_t
exactly and proves the level from which the partial sums stop changing.
A separable b keeps its nodes split into one part per variable and groups
its singular zeros by the node they give, so a diagonal form in many
variables costs a few nodes, not one per zero.
The complex B(q) path exists as a floating-point cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from math import gcd, inf

import numpy as np

from .poly import (_BLOCK_ROWS, DEFAULT_ENUM_BUDGET, BudgetExceeded,
                   Polynomial, _convolve_mod, grid_blocks, residue_histogram)
from .primes import _is_prime, primes_up_to


# ---------------------------------------------------------------------------
# residue histograms
# ---------------------------------------------------------------------------

def unit_residues(q):
    """Array of residues coprime to q; by convention U_1 = {0}."""
    q = int(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    r = np.arange(q, dtype=np.int64)
    return r[np.gcd(r, q) == 1]     # gcd(0, 1) = 1


def value_histogram(b, q, units=True, budget=DEFAULT_ENUM_BUDGET):
    """Counts of b(x) mod q over x in U_q^n (or all of (Z/q)^n), exact:
    the ``residue_histogram`` of weight 1 on those residues."""
    q = int(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > budget:      # checked before the q residues are allocated
        raise BudgetExceeded(f"modulus {q} exceeds enumeration budget {budget}")
    weight = np.zeros(q, dtype=np.int64)
    weight[unit_residues(q) if units else slice(None)] = 1
    return residue_histogram(b, q, weight, budget)


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def unit_exp_sum(b, m, q, budget=DEFAULT_ENUM_BUDGET):
    """S~_{m,q} = sum over k in U_q^n of e(b(k) m / q), gcd(m, q) = 1."""
    q, m = int(q), int(m) % int(q)
    if gcd(m, q) != 1:
        raise ValueError(f"m={m} is not a unit mod {q}")
    hist = value_histogram(b, q, units=True, budget=budget)
    roots = np.exp(2j * np.pi * (m * np.arange(q) % q) / q)
    return complex(np.dot(np.asarray(hist, dtype=float), roots))


def B_of_q(b, q, budget=DEFAULT_ENUM_BUDGET):
    """B(q) = phi(q)^{-n} * sum over units m of S~_{m,q} (complex path).

    Mathematically real; the imaginary part is reported for cross-checks.
    """
    q, units = int(q), unit_residues(q)
    u = np.zeros(q)
    u[units] = 1.0
    # sum over units m of e(m r / q), all r at once, by an unscaled DFT
    ramanujan = np.fft.ifft(u, norm="forward")
    hist = value_histogram(b, q, units=True, budget=budget)
    return complex(np.dot(np.asarray(hist, dtype=float), ramanujan)
                   / len(units) ** b.n)


# ---------------------------------------------------------------------------
# unit solution counts and mu(p): the Hensel tree
# ---------------------------------------------------------------------------

def _convolution_cost(n, p):
    """What the values mod p of a separable polynomial in n variables cost
    by histogram convolution."""
    return (n - 1) * p * p + n * p


def _valuation(v, p):
    """The p-adic valuation of the integer v, infinite for v = 0."""
    c = 0
    while v and v % p == 0:
        v //= p
        c += 1
    return c if v else inf


def _divided(n, terms, p):
    """(h, c): the polynomial with ``terms`` divided by p^c, c the p-adic
    valuation of its content (infinite when every term is zero)."""
    c = _valuation(reduce(gcd, terms.values(), 0), p)
    return Polynomial._trusted(n, {a: v // p ** c for a, v in terms.items()}
                               if c < inf else {}), c


def _linear_split(g, p):
    """(j, A, B) with g = A x_j + B, A and B free of x_j and A not zero mod
    p, for the first such j; None when there is none."""
    for j in range(1, g.n + 1):
        parts = g.linear_in(j)
        if parts and any(c % p for c in parts[0].terms.values()):
            return (j, *parts)
    return None


def _walk_cost(g, p, units):
    """(cost, split): what ``_zero_candidates`` walks for g, nothing for a
    nonzero constant mod p, and g's ``_linear_split``."""
    one = (0,) * g.n
    if g.terms.get(one, 0) % p and \
            all(c % p == 0 for e, c in g.terms.items() if e != one):
        return 0, None
    split = _linear_split(g, p)
    return (p - 1 if units else p) ** (g.n - 1 if split else g.n), split


def _zero_candidates(g, p, units, budget):
    """(cost, zeros, blocks): blocks of points of domain^n, domain U_p
    (``units``) or Z/p, that hold every zero of g mod p that may be
    singular, the count of the other zeros, and what the walk costs.

    If g = A x_j + B (``_linear_split``), only x', the other variables, is
    walked.  Where A(x') is a unit there is one zero, x_j = -B A^-1, and it
    is nonsingular, as dg/dx_j = A; on U_p^n it counts only when it is a
    unit, that is when B(x') is.  The rows where A(x') = B(x') = 0 mod p
    are expanded over x_j, each charged |domain| before any is expanded.
    Any other g has its whole grid walked, unless it is a nonzero constant
    mod p.  Each cost is checked before its work.
    """
    cost, split = _walk_cost(g, p, units)
    if cost > budget:
        raise BudgetExceeded(f"zeros mod {p} cost {cost}, over budget {budget}")
    if cost == 0:       # a nonzero constant mod p
        return 0, 0, ()
    n, size = g.n, (p - 1 if units else p)
    domain = unit_residues(p) if units else np.arange(p, dtype=np.int64)
    if not split:
        return cost, 0, (block[g.eval_int(block, p) == 0]
                         for block in grid_blocks([domain] * n))
    j, A, B = split
    zeros, free = 0, [np.empty((0, n - 1), np.int64)]
    for block in grid_blocks([domain] * (n - 1)):
        a, c = A.eval_int(block, p), B.eval_int(block, p)
        zeros += int(np.count_nonzero((a != 0) & (c != 0) if units
                                      else a != 0))
        free.append(block[(a == 0) & (c == 0)])
        cost += len(free[-1]) * size
        if cost > budget:
            raise BudgetExceeded(
                f"zeros mod {p} cost {cost}, over budget {budget}")
    return cost, zeros, _expand(np.concatenate(free), j, domain)


def _expand(rows, j, axis):
    """Blocks of every point (x', x_j), x' a row of ``rows`` and x_j on
    ``axis``, with x_j in column j (1-based)."""
    step = max(1, _BLOCK_ROWS // len(axis))
    for s in range(0, len(rows), step):
        part = rows[s:s + step]
        yield np.insert(np.repeat(part, len(axis), axis=0), j - 1,
                        np.tile(axis, len(part)), axis=1)


def _children(g, p, units, budget, child):
    """(zeros, children, cost) for the zeros of g mod p.

    ``children`` maps each node (h, c) that a singular zero x0 (every
    partial derivative zero mod p) refines to, h(y) = g(x0 + p y) / p^c, to
    the number of singular zeros that give it.  It is None when those
    zeros, at ``child`` each, the least a child's walk costs, do not fit
    the budget.  ``cost`` is checked before any allocation.
    """
    cost, zeros, candidates = _zero_candidates(g, p, units, budget)
    singular, grads = [np.empty((0, g.n), np.int64)], g.gradient()
    room = (budget - cost) // child
    for block in candidates:
        zeros += len(block)
        for d in grads:
            block = block[d.eval_int(block, p) == 0]
        room -= len(block)
        if room >= 0:
            singular.append(block)
    if room < 0:
        return zeros, None, cost
    children = {}
    for h in _refine(g, np.concatenate(singular), p):
        children[h] = children.get(h, 0) + 1
    return zeros, children, cost


def _separable_children(g, p, units, budget, child, memo):
    """``_children`` of a separable node g = (parts, const), the polynomial
    const + parts[0](x_1) + parts[1](x_2) + ...

    Its zeros are counted by convolving the parts' value histograms.  A
    singular zero x0 takes each coordinate where its part's derivative
    vanishes, and its node is the sum of the shifts part(a + p y) - part(a)
    plus the constant g(x0), divided by the content.  A node's counts do
    not depend on the order of its variables, so the zeros are grouped one
    variable at a time by the sorted shifts they use and their constant,
    never listed one by one.  ``memo``, one per tree, keeps each part's
    histogram and shifts under (part, units), numbers the shifts, and keeps
    shift i divided by p^c under (i, c).
    """
    parts, const = g
    n, y = len(parts), Polynomial.variable(1, 1)
    cost = _convolution_cost(n, p)
    if cost > budget:
        raise BudgetExceeded(f"zeros mod {p} cost {cost}, over budget {budget}")
    domain = unit_residues(p) if units else np.arange(p, dtype=np.int64)
    rows, menus = [], []
    for part in parts:
        if (part, units) not in memo:
            x, menu = domain[:, None], []
            for a in domain[part.gradient()[0].eval_int(x, p) == 0].tolist():
                v = part.evaluate((a,))
                shift = part.compose([y * p + a], 1) - v
                menu.append((memo.setdefault(shift, len(memo)), v, shift,
                             _valuation(reduce(gcd, shift.terms.values(), 0), p)))
            memo[part, units] = \
                np.bincount(part.eval_int(x, p), minlength=p), menu
        row, menu = memo[part, units]
        rows.append(row)
        menus.append(menu)
    zeros = int(_convolve_mod(rows, p, len(domain) ** n)[-const % p])
    states = {((), const): 1} if zeros else {}  # (sorted shift ids, constant)
    for menu in menus:
        if cost + len(states) * len(menu) * (n + child) > budget:
            return zeros, None, cost
        new = {}
        for (ids, c0), k in states.items():
            for i, v, _, _ in menu:
                key = (tuple(sorted(ids + (i,))), c0 + v)
                new[key] = new.get(key, 0) + k
        states = new
        cost += len(states) * n
    shifts = {i: (s, vs) for menu in menus for i, _, s, vs in menu}
    children = {}
    for (ids, c0), k in states.items():
        if c0 % p == 0:
            c = min([_valuation(c0, p)] + [shifts[i][1] for i in ids])
            q = p ** c if c < inf else 1
            for i in ids:
                if (i, c) not in memo:
                    memo[i, c] = Polynomial(1, {e: v // q for e, v in
                                                shifts[i][0].terms.items()})
            h = (tuple(memo[i, c] for i in ids), c0 // q), c
            children[h] = children.get(h, 0) + k
    return zeros, children, cost


def _refine(g, singular, p):
    """(h, c) for each row x0 of ``singular``: h(y) = g(x0 + p y) / p^c,
    with c the p-adic valuation of the content (infinite when g is zero)."""
    n = g.n
    x = [Polynomial.variable(2 * n, i + 1) for i in range(2 * n)]
    G = g.compose([x[i] + p * x[n + i] for i in range(n)], 2 * n)
    coeffs = {}     # the coefficient of y^a in g(x0 + p y), a polynomial in x0
    for e, c in G.terms.items():
        coeffs.setdefault(e[n:], {})[e[:n]] = c
    values = [(a, Polynomial._trusted(n, t).eval_int(singular))
              for a, t in coeffs.items()]
    for k in range(len(singular)):
        yield _divided(n, {a: int(v[k]) for a, v in values}, p)


def _hensel_tree(b, p, t_max, budget):
    """(nus, closing, depth): nu_1, nu_2, ... of b at p, exact.

    A node (g, m) at level L adds m times its zeros' counts to nu_t, t > L.
    The root is (b, 1) at 0 on U_p^n, the others run over (Z/p)^n.  Nodes
    are expanded level by level against one budget, which may cut ``nus``
    short of t_max; a node is charged what its zero walk costs when it is
    made (``_walk_cost``: p^(n-1) rows for a node with a ``_linear_split``,
    none for a nonzero constant mod p, p^n otherwise), and only if it is to
    be expanded.  A separable b cut short takes its remaining levels from
    its histograms mod p^t while they fit the budget.  The partial sums are
    constant from ``closing``, the largest L + 1 of a node without singular
    zeros, or None after a cut or a node at level t_max or deeper.
    ``depth`` counts refined generations.
    """
    if not _is_prime(p) or t_max < 1:
        raise ValueError(f"p = {p} must be prime and t_max = {t_max} >= 1")
    n, nus = b.n, [0] * t_max
    parts, const = b.additive_split([1] * n) or (None, None)
    if parts:
        root, expand = (tuple(parts), const), \
            partial(_separable_children, memo={})
        child = _convolution_cost(n, p)
    else:
        root, expand, child = b, _children, p ** (n - 1)

    def walk(h):        # what the zero walk of the child h costs
        return child if parts else _walk_cost(h, p, False)[0]

    # nodes (g, m, gen, paid), paid what g was charged when it was made
    levels = [[(root, 1, 0, 0)]] + [[] for _ in range(t_max - 1)]
    horizon, closing, depth, spent = t_max, 1, 0, 0   # nus exact to horizon
    for L, nodes in enumerate(levels):
        for g, m, gen, paid in nodes if L < horizon else ():
            try:
                zeros, children, cost = expand(
                    g, p, L == 0, budget - spent + paid, child)
            except BudgetExceeded:
                horizon, closing = L, None
                break
            spent += cost - paid
            charges = {} if children is None else \
                {h: walk(h[0]) for h in children if L + h[1] < t_max}
            if children is None or spent + sum(charges.values()) > budget:
                nus[L] += m * zeros     # every zero is one at level L + 1
                horizon, closing = L + 1, None
                continue
            spent += sum(charges.values())
            # a nonsingular zero lifts in p^(n-1) ways per level
            for t in range(L + 1, t_max + 1):
                nus[t - 1] += m * (zeros - sum(children.values())) * \
                    p ** ((n - 1) * (t - L - 1))
            if not children:
                closing = closing and L + 1     # nodes come in level order
                continue
            depth = max(depth, gen + 1)
            # a singular one is a zero mod p^c; h counts it beyond that
            for (h, c), k in children.items():
                for t in range(L + 1, min(L + c, t_max) + 1):
                    nus[t - 1] += m * k * p ** (n * (t - L - 1))
                if L + c < t_max:
                    levels[L + c].append((h, m * k * p ** (n * (c - 1)),
                                          gen + 1, charges[h, c]))
                else:
                    closing = None
    while horizon < t_max and parts:
        try:
            nus[horizon] = int(value_histogram(b, p ** (horizon + 1),
                                               budget=budget)[0])
        except BudgetExceeded:
            break
        horizon += 1
    return nus[:horizon], closing if horizon == t_max else None, depth


@dataclass
class UnitSolutionCount:
    p: int
    t: int
    nu: int


def nu_count(b, p, t, budget=DEFAULT_ENUM_BUDGET):
    """Exact count of x in (U_{p^t})^n with b(x) = 0 mod p^t."""
    nus = _hensel_tree(b, p, t, budget)[0]
    if len(nus) < t:
        raise BudgetExceeded(f"enumeration budget hit at level t={len(nus) + 1}")
    return UnitSolutionCount(p=p, t=t, nu=nus[-1])


@dataclass
class LocalFactor:
    p: int
    partial_sums: list          # Fractions: 1 + sum_{j<=t} B(p^j), exact
    mu_p: Fraction
    stabilized_at: int | None
    nu_values: list = field(default_factory=list)
    warning: str | None = None
    method: str | None = None   # no_solution, nonsingular or hensel_tree(depth)


def mu_p(b, p, t_max=6, budget=DEFAULT_ENUM_BUDGET):
    """Local factor mu(p), read from the Hensel tree of b at p.

    partial_sums[t-1] = p^t nu_t / phi(p^t)^n, exact for t <= t_max, and
    mu(p) is the one at ``stabilized_at``, the level from which the tree
    proves them constant.  ``method`` is ``no_solution`` (some nu_t = 0, so
    mu(p) = 0), ``nonsingular`` (no singular zero mod p: constant from
    t = 1) or ``hensel_tree(d)`` (singular zeros refined d generations
    deep; d = 0 when the budget stops the root).  A budget cut or a node at
    level t_max or deeper leaves stabilized_at None, mu(p) the last partial
    sum, and a warning.
    """
    nus, closing, depth = _hensel_tree(b, p, t_max, budget)
    partials = [Fraction(p ** t * nu, (p ** t - p ** (t - 1)) ** b.n)
                for t, nu in enumerate(nus, start=1)]
    if 0 in nus:
        t = nus.index(0) + 1
        return LocalFactor(p=p, partial_sums=partials[:t], mu_p=Fraction(0),
                           stabilized_at=t, nu_values=nus[:t],
                           method="no_solution")
    warning = (f"enumeration budget hit at level t={len(nus) + 1}"
               if len(nus) < t_max else
               None if closing else "no stabilization within t_max")
    mu = partials[-1] if partials else Fraction(0)
    method = "nonsingular" if closing == 1 else f"hensel_tree({depth})"
    return LocalFactor(p=p, partial_sums=partials, mu_p=mu,
                       stabilized_at=closing, nu_values=nus,
                       warning=warning, method=method)


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
