"""p-adic local densities.

Unit exponential sums, B(q), exact unit-solution counts nu_t(p), the
truncated singular series, and the local factor mu(p) through the exact
rational identity  1 + sum_{j<=t} B(p^j)  =  p^t * nu_t(p) / phi(p^t)^n.

nu_t(p) comes from the Hensel-tree recursion behind Igusa's and Denef's
local zeta computations: a zero of b mod p with a unit partial derivative
lifts in p^(n-1) ways per level (Hensel's lemma, at p = 2 too), and a
singular one x0 is refined to b(x0 + p y) / p^c, c the p-adic valuation of
the content.  The tree proves the level from which the partial sums stop
changing.  A separable b with a monomial part a x_i^d may take Hensel's
valuation lemma instead (``_levels``): it fixes every level from
T = 2 v_p(a d) + 1 on, and one histogram mod p^T gives the levels before,
so a diagonal form costs one histogram, not one node per singular zero.
Where every unit zero mod p is provably nonsingular (``_closed_form``: a
quadratic form plus a constant at an odd p not dividing det(2 A), or any b
at p = 2 with an odd partial derivative at (1, ..., 1)), nu_1 is read
without enumeration, from Legendre-symbol counts of the principal minors
at an odd p.  A diagonal quadratic form plus a constant with an odd
coefficient has every level at p = 2 read from b(1, ..., 1) mod 8, as odd
squares are 1 mod 8.  Value histograms are lists of Python ints; only a
histogram over ``poly._SMALL_STEPS`` steps and the tree's walks import
numpy, when called, so a closed-form factor, a small histogram and the
singular series load none.  The complex B(q) path is a floating-point
cross-check.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product as iproduct
from math import comb, exp, gcd, inf, log, prod
from statistics import linear_regression

from .poly import (_BLOCK_ROWS, BudgetExceeded, Polynomial, _charge, _limit,
                   gram_matrix, grid_blocks, histogram_cost,
                   residue_histogram)
from .primes import _diagonal, _is_prime, _jacobi, _valuation, primes_up_to


# ---------------------------------------------------------------------------
# residue histograms
# ---------------------------------------------------------------------------

def unit_residues(q):
    """Array of residues coprime to q; by convention U_1 = {0}."""
    import numpy as np
    q = int(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    r = np.arange(q, dtype=np.int64)
    return r[np.gcd(r, q) == 1]     # gcd(0, 1) = 1


def value_histogram(b, q):
    """Counts of b(x) mod q over x in U_q^n, a list of exact ints: the
    ``residue_histogram`` of weight 1 on the units."""
    q = int(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    _charge(q, f"residues mod {q}")     # before the q residues are allocated
    # gcd(0, 1) = 1: U_1 = {0}
    return residue_histogram(b, q, [int(gcd(r, q) == 1) for r in range(q)])


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def unit_exp_sum(b, m, q):
    """S~_{m,q} = sum over k in U_q^n of e(b(k) m / q), gcd(m, q) = 1."""
    import numpy as np
    q, m = int(q), int(m) % int(q)
    if gcd(m, q) != 1:
        raise ValueError(f"m={m} is not a unit mod {q}")
    hist = value_histogram(b, q)
    roots = np.exp(2j * np.pi * (m * np.arange(q) % q) / q)
    return complex(np.dot(np.asarray(hist, dtype=float), roots))


def B_of_q(b, q):
    """B(q) = phi(q)^{-n} * sum over units m of S~_{m,q} (complex path).

    Mathematically real; the imaginary part is reported for cross-checks.
    """
    import numpy as np
    hist = value_histogram(b, q)   # checks q before any work
    units = unit_residues(q)
    u = np.zeros(q)
    u[units] = 1.0
    # sum over units m of e(m r / q), all r at once, by an unscaled DFT
    ramanujan = np.fft.ifft(u, norm="forward")
    return complex(np.dot(np.asarray(hist, dtype=float), ramanujan)
                   / len(units) ** b.n)


# ---------------------------------------------------------------------------
# unit solution counts and mu(p): the Hensel tree
# ---------------------------------------------------------------------------

def _divided(n, terms, p):
    """(h, c): the polynomial with ``terms`` divided by p^c, c the p-adic
    valuation of its content (infinite when every term is zero)."""
    c = _valuation(reduce(gcd, terms.values(), 0), p)[0]
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
    import numpy as np
    cost, split = _walk_cost(g, p, units)
    _charge(cost, f"zeros mod {p}", budget)
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
        _charge(cost, f"zeros mod {p}", budget)
    return cost, zeros, _expand(np.concatenate(free), j, domain)


def _expand(rows, j, axis):
    """Blocks of every point (x', x_j), x' a row of ``rows`` and x_j on
    ``axis``, with x_j in column j (1-based)."""
    import numpy as np
    step = max(1, _BLOCK_ROWS // len(axis))
    for s in range(0, len(rows), step):
        part = rows[s:s + step]
        yield np.insert(np.repeat(part, len(axis), axis=0), j - 1,
                        np.tile(axis, len(part)), axis=1)


def _singular_zeros(g, p, units, budget):
    """(zeros, singular, cost) for the zeros of g mod p.

    ``singular`` holds the rows of the singular zeros (every partial
    derivative zero mod p), or is None when those zeros, at p^(n-1) each,
    the least a child's walk costs, do not fit the budget.  ``cost`` is
    checked before any allocation.
    """
    import numpy as np
    cost, zeros, candidates = _zero_candidates(g, p, units, budget)
    singular, grads = [np.empty((0, g.n), np.int64)], g.gradient()
    room = (budget - cost) // p ** (g.n - 1)
    for block in candidates:
        zeros += len(block)
        for d in grads:
            block = block[d.eval_int(block, p) == 0]
        room -= len(block)
        if room >= 0:
            singular.append(block)
    return zeros, np.concatenate(singular) if room >= 0 else None, cost


def _refine(g, singular, p):
    """(h, c) for each row x0 of ``singular``: h(y) = g(x0 + p y) / p^c,
    with c the p-adic valuation of the content (infinite when g is zero).
    By the binomial theorem the coefficient of y^a in g(x0 + p y) is the
    polynomial in x0 with a term v p^|a| C(e, a) x0^(e - a) for each term
    v x^e of g with e >= a, C(e, a) = prod_i C(e_i, a_i)."""
    n, coeffs = g.n, {}
    for e, v in g.terms.items():
        for a in iproduct(*(range(m + 1) for m in e)):
            coeffs.setdefault(a, {})[tuple(m - j for m, j in zip(e, a))] = \
                v * p ** sum(a) * prod(map(comb, e, a))
    values = [(a, Polynomial._trusted(n, t).eval_int(singular))
              for a, t in coeffs.items()]
    for k in range(len(singular)):
        yield _divided(n, {a: int(v[k]) for a, v in values}, p)


def _lemma_tau(b, p):
    """The least v_p(a d) over the monomial parts a x_i^d of a separable
    b = c + f_1(x_1) + ... + f_n(x_n), None when b has no such part."""
    split = b.variable_split()
    taus = [_valuation(a * e[0], p)[0] for part in (split[0] if split else ())
            if len(part.terms) == 1 for e, a in part.terms.items()]
    return min(taus, default=None)


def _hensel_valuation(b, p, t_max, tau, budget):
    """(nus, closing, method, cut) for a b with ``_lemma_tau`` tau.

    db/dx_i has valuation tau at every unit x, so Hensel's valuation lemma
    in x_i gives nu_(t+1) = p^(n-1) nu_t for every t >= T = 2 tau + 1.
    Levels t <= T, past t_max if T is, are folded from one histogram H mod
    p^top, top the largest t <= T that fits the budget: a unit mod p^t has
    p^(top - t) unit lifts per coordinate, so nu_t is H[0] + H[p^t] + ...
    divided by p^(n (top - t)).  A top below T cuts the levels past it
    (``cut`` = top + 1) unless one is zero, as then all later ones are.
    ``closing`` is the least s from which the levels grow by p^(n-1), None
    past t_max or after a cut.
    """
    n, T = b.n, 2 * tau + 1
    method, nus, top = f"hensel_valuation({tau})", [], 0
    while top < T and histogram_cost(
            n, p ** (top + 1), p ** (top + 1) - p ** top, True) <= budget:
        top += 1
    if top:
        hist = value_histogram(b, p ** top)
        nus = [sum(hist[::p ** t]) // p ** (n * (top - t))
               for t in range(1, top + 1)]
    if top < T and (not nus or nus[-1]):
        return nus[:t_max], None, method, top + 1
    while len(nus) < max(T, t_max):
        nus.append(nus[-1] * p ** (n - 1))
    s = T
    while s > 1 and nus[s - 1] == nus[s - 2] * p ** (n - 1):
        s -= 1
    return nus[:t_max], s if s <= t_max else None, method, None


def _hensel_tree(b, p, t_max, budget):
    """(nus, closing, method, cut): nu_1, nu_2, ... of b at p, exact.

    A node (g, m) at level L adds m times its zeros' counts to nu_t, t > L.
    The root is (b, 1) at 0 on U_p^n, the others run over (Z/p)^n.  Nodes
    are expanded level by level against one budget, which may cut ``nus``
    short of t_max; a node is charged what its zero walk costs when it is
    made (``_walk_cost``: p^(n-1) rows for a node with a ``_linear_split``,
    none for a nonzero constant mod p, p^n otherwise), and only if it is to
    be expanded.  The partial sums are constant from ``closing``, the
    largest L + 1 of a node without singular zeros, or None after a cut
    (at level ``cut``) or a node at level t_max or deeper.  ``method`` is
    hensel_tree(d), d the number of refined generations.
    """
    n, nus = b.n, [0] * t_max
    # nodes (g, m, gen, paid), paid what g was charged when it was made
    levels = [[(b, 1, 0, 0)]] + [[] for _ in range(t_max - 1)]
    horizon, closing, depth, spent = t_max, 1, 0, 0   # nus exact to horizon
    for L, nodes in enumerate(levels):
        for g, m, gen, paid in nodes if L < horizon else ():
            try:
                zeros, singular, cost = _singular_zeros(g, p, L == 0,
                                                        budget - spent + paid)
            except BudgetExceeded:
                horizon, closing = L, None
                break
            spent += cost - paid
            # the nodes (h, c) the singular zeros refine to, with multiplicity
            children = None if singular is None else \
                Counter(_refine(g, singular, p))
            charges = {} if children is None else \
                {h: _walk_cost(h[0], p, False)[0] for h in children
                 if L + h[1] < t_max}
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
    return nus[:horizon], closing if horizon == t_max else None, \
        f"hensel_tree({depth})", horizon + 1 if horizon < t_max else None


def _blocks(M, p):
    """The coordinates split into the connected classes of the graph with
    an edge i - j wherever M_ij is not 0 mod p, so that M mod p is block
    diagonal on them."""
    left, blocks = set(range(len(M))), []
    while left:
        todo, block = [min(left)], []
        left.remove(todo[0])
        while todo:
            block.append(i := todo.pop())
            linked = {j for j in left if M[i][j] % p}
            left -= linked
            todo += linked
        blocks.append(sorted(block))
    return blocks


def _form_count(m, r, e, a, p):
    """The number of y in F_p^m with y^T M y = a, p odd, for a symmetric M of
    rank r whose discriminant D has Legendre symbol e: p^(m - r) times the
    count of a nondegenerate form of rank r (Lidl and Niederreiter, Finite
    Fields, Thms 6.26 and 6.27, eta the Legendre symbol), which is
    p^(r-1) + v(a) p^(r/2 - 1) eta((-1)^(r/2) D) for r even, v(0) = p - 1
    and v(a) = -1 otherwise, and p^(r-1) + p^((r-1)/2) eta((-1)^((r-1)/2)
    a D) for r odd."""
    a %= p
    if r == 0:
        return p ** m if a == 0 else 0
    eta = e * _jacobi((-1) ** (r // 2) * (a if r % 2 else 1), p)
    if r % 2:
        count = p ** (r - 1) + p ** (r // 2) * eta
    else:
        count = p ** (r - 1) + (p - 1 if a == 0 else -1) * \
            p ** (r // 2 - 1) * eta
    return p ** (m - r) * count


@lru_cache(maxsize=1)
def _gram(b):
    """(A, c) with b = x^T A x + c, A a ``gram_matrix``, for an integral b
    with terms of degree 2 and 0 only, at least one of degree 2, else None;
    read once per b, not at every prime of a series."""
    if b.degree == 2 and b.is_integral() and all(sum(e) != 1 for e in b.terms):
        return gram_matrix(b.top_degree_part()), b.terms.get((0,) * b.n, 0)


def _quadratic_part(b, p):
    """(M, c) with b = x^T M x + c mod p, p odd: ``_gram`` mod p."""
    if form := _gram(b):
        return [[a.numerator * pow(a.denominator, -1, p) % p for a in row]
                for row in form[0]], form[1]


def _closed_form(b, p, t_max, budget):
    """(nus, 1, method, None) where every unit zero of b mod p is provably
    nonsingular, so nu_t = nu_1 p^((n-1)(t-1)) for every t; at p = 2 also
    ``_dyadic_quadratic``'s levels; None elsewhere.

    At p = 2 the one unit point is 1 = (1, ..., 1): for an integral b, no
    zero if b(1) is odd, one nonsingular zero if b(1) is even and some
    db/dx_i(1) is odd (``nonsingular``); else a diagonal quadratic form
    plus a constant with an odd coefficient is counted by
    ``_dyadic_quadratic``.  At an odd p, b = Q(x) + c with Q
    a quadratic form x^T A x and p not dividing det(2 A) (so A has rank n
    mod p): grad Q = 2 A x is not 0 mod p at a unit x.  Then nu_1 is the
    inclusion-exclusion sum over T of (-1)^(n - |T|) N_p(Q_T = -c), Q_T the
    form on the coordinates in T, read by ``_form_count`` from the rank
    and the Legendre symbol of the discriminant of the principal submatrix
    A_T (the product of its ``_diagonal``).  A_T is block diagonal on the
    ``_blocks`` of A, so only the subsets of each block are diagonalised,
    2^|B| of them at up to |B|^3 steps each, and their classes joined with
    those of the blocks before, up to 2 (n + 1)^2 of them; that is priced
    against ``budget`` (``quadratic_form``).
    """
    n = b.n
    if n == 0 or not b.is_integral():
        return None
    if p == 2:
        one = (1,) * n
        if b.evaluate(one) % 2:
            nu = 0
        elif any(g.evaluate(one) % 2 for g in b.gradient()):
            nu = 1
        else:
            return _dyadic_quadratic(b, t_max)
        method = "nonsingular"
    else:
        form = _quadratic_part(b, p)
        if form is None:
            return None
        M, c = form
        blocks = _blocks(M, p)
        if sum(2 ** len(B) * (len(B) ** 3 + 2 * (n + 1) ** 2)
               for B in blocks) > budget or len(_diagonal(M, p)) < n:
            return None
        # Counter of (|T|, rank, Legendre symbol of the discriminant) of the
        # A_T, T a subset of the coordinates: a union of subsets of blocks
        classes = Counter({(0, 0, 1): 1})
        for B in blocks:
            part, joined = Counter(), Counter()
            for mask in range(2 ** len(B)):
                T = [i for k, i in enumerate(B) if mask >> k & 1]
                d = _diagonal([[M[i][j] for j in T] for i in T], p)
                part[len(T), len(d), _jacobi(prod(d), p)] += 1
            for (m, r, e), k in classes.items():
                for (m2, r2, e2), k2 in part.items():
                    joined[m + m2, r + r2, e * e2] += k * k2
            classes = joined
        nu = sum((-1) ** (n - m) * k * _form_count(m, r, e, -c, p)
                 for (m, r, e), k in classes.items())
        method = "quadratic_form"
    return [nu * p ** ((n - 1) * t) for t in range(t_max)], 1, method, None


def _dyadic_quadratic(b, t_max):
    """(nus, closing, "dyadic_quadratic", None) at p = 2 for b = a_1 x_1^2 +
    ... + a_n x_n^2 + c with some a_i odd and no other term; None for any
    other b.

    An odd x has x^2 = 1 mod 8, and as x runs over the units mod 2^t, x^2
    hits each class 1 + 8 y mod 2^t four times.  So b = r + 8 sum a_i y_i
    mod 2^t, r = c + sum a_i, and with a_i odd the y_i solve it in
    2^((t - 3)(n - 1)) ways: nu_t = 2^((t - 1) n) for t <= 3 if 2^t divides
    r, nu_t = 4^n 2^((t - 3)(n - 1)) for t >= 3 if 8 divides r, and 0
    otherwise.  ``closing`` follows ``_hensel_valuation``'s rule, with T =
    3 the level from which the counts grow by 2^(n - 1).
    """
    n, a = b.n, [0] * b.n
    for e, c in b.terms.items():
        if any(e):
            if sum(e) != 2 or 2 not in e:
                return None
            a[e.index(2)] = c
    if all(c % 2 == 0 for c in a):
        return None
    r = b.terms.get((0,) * n, 0) + sum(a)
    nus = [0 if r % 2 ** min(t, 3) else
           2 ** ((t - 1) * n) if t <= 3 else 4 ** n * 2 ** ((t - 3) * (n - 1))
           for t in range(1, max(3, t_max) + 1)]
    s = 3
    while s > 1 and nus[s - 1] == nus[s - 2] * 2 ** (n - 1):
        s -= 1
    return nus[:t_max], s if s <= t_max else None, "dyadic_quadratic", None


def _levels(b, p, t_max, budget=None):
    """(nus, closing, method, cut) of b at p, within ``_limit(budget)``.

    ``_closed_form`` takes a b whose unit zeros mod p are all provably
    nonsingular, and a diagonal quadratic form at p = 2.  Hensel's valuation lemma takes a b with a ``_lemma_tau``
    when its histogram mod p^(2 tau + 1) fits the budget, unless a walk of
    the zeros mod p (``_singular_zeros``) that costs no more finds none
    singular.  The Hensel tree takes the rest; where a cut stops it short
    of a proof, the lemma's histograms count what they can, and the longer
    count is kept.
    """
    if not _is_prime(p) or t_max < 1:
        raise ValueError(f"p = {p} must be prime and t_max = {t_max} >= 1")
    budget = _limit(budget)
    if closed := _closed_form(b, p, t_max, budget):
        return closed
    tau = _lemma_tau(b, p)
    if tau is not None:
        q = p ** (2 * tau + 1)      # the histogram mod q on phi(q) units
        cost = histogram_cost(b.n, q, q - q // p, True)
        lemma = cost <= budget
        if lemma and tau > 0:   # with tau = 0 every zero mod p is nonsingular
            try:
                singular = _singular_zeros(b, p, True, cost)[1]
                lemma = singular is None or len(singular) > 0
            except BudgetExceeded:      # the walk costs more than the lemma
                pass
        if lemma:
            return _hensel_valuation(b, p, t_max, tau, budget)
    tree = _hensel_tree(b, p, t_max, budget)
    if tau is None or tree[1] is not None or tree[3] is None:
        return tree
    return max(tree, _hensel_valuation(b, p, t_max, tau, budget),
               key=lambda r: (r[1] is not None, len(r[0])))


@dataclass
class UnitSolutionCount:
    p: int
    t: int
    nu: int


def nu_count(b, p, t):
    """Exact count of x in (U_{p^t})^n with b(x) = 0 mod p^t."""
    nus = _levels(b, p, t)[0]
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
    flags: tuple = ()           # budget or no_stabilization
    cut_at: int | None = None   # the level a budget cut stopped at
    # no_solution, nonsingular, quadratic_form, dyadic_quadratic,
    # hensel_tree(depth) or hensel_valuation(tau)
    method: str | None = None

    @property
    def warning(self):      # the flags, as perfbench/trace_job.py counts them
        return " ".join(self.flags) or None


def mu_p(b, p, t_max=6):
    """Local factor mu(p), read from the levels nu_t of b at p (``_levels``).

    partial_sums[t-1] = p^t nu_t / phi(p^t)^n, exact for t <= t_max, and
    mu(p) is the one at ``stabilized_at``, the level from which the Hensel
    tree, Hensel's valuation lemma or a closed form proves them constant.
    ``method`` is ``no_solution`` (some nu_t = 0, so mu(p) = 0),
    ``nonsingular`` (no singular zero mod p: constant from t = 1),
    ``quadratic_form`` (b = Q(x) + c at an odd p not dividing det(2 A): no
    unit zero is singular, and nu_1 is a sum of Legendre-symbol counts, no
    enumeration), ``dyadic_quadratic`` (a diagonal quadratic form plus a
    constant at p = 2, every level read from b(1, ..., 1) mod 8),
    ``hensel_tree(d)``
    (singular zeros refined d generations deep; d = 0 when the budget stops
    the root) or ``hensel_valuation(tau)`` (a separable b closed by the
    lemma at 2 tau + 1 or before).  A budget cut, or no level proved up to
    t_max, leaves stabilized_at None and mu(p) the last partial sum, and
    raises the flag ``budget`` (with the level of the cut in ``cut_at``,
    which may lie past t_max) or ``no_stabilization``.
    """
    nus, closing, method, cut = _levels(b, p, t_max)
    partials = [Fraction(p ** t * nu, (p ** t - p ** (t - 1)) ** b.n)
                for t, nu in enumerate(nus, start=1)]
    if 0 in nus:
        t = nus.index(0) + 1
        return LocalFactor(p=p, partial_sums=partials[:t], mu_p=Fraction(0),
                           stabilized_at=t, nu_values=nus[:t],
                           method="no_solution")
    flags = ("budget",) if cut else () if closing else ("no_stabilization",)
    mu = partials[-1] if partials else Fraction(0)
    return LocalFactor(p=p, partial_sums=partials, mu_p=mu,
                       stabilized_at=closing, nu_values=nus,
                       flags=flags, cut_at=cut,
                       method="nonsingular" if closing == 1 and
                       method != "quadratic_form" else method)


# ---------------------------------------------------------------------------
# truncated singular series
# ---------------------------------------------------------------------------

@dataclass
class SeriesEstimate:
    prime_bound: int
    product: float
    tail_exponent: float | None
    tail_bound: float


def singular_series(b, prime_bound, t_max=6):
    """Product of mu(p) over p <= prime_bound, plus an empirical tail fit.

    Returns (SeriesEstimate, [LocalFactor...]).  The product is reported as
    exactly 0 when any factor vanishes.
    """
    if prime_bound < 2:
        raise ValueError("prime bound must be >= 2")
    factors = [mu_p(b, p, t_max=t_max) for p in primes_up_to(prime_bound)]
    if any(f.mu_p == 0 for f in factors):
        product = 0.0
    else:
        product = exp(sum(log(float(f.mu_p)) for f in factors))
    # fit |mu(p) - 1| ~ C p^{-1-delta}
    xs, ys = [], []
    for f in factors:
        dev = abs(float(f.mu_p) - 1.0)
        if dev > 0:
            xs.append(log(f.p))
            ys.append(log(dev))
    if len(xs) >= 3:
        slope, logc = linear_regression(xs, ys)
        delta = -slope - 1.0
        c = exp(logc)
        tail = c * prime_bound ** (-max(delta, 1e-9)) / max(delta, 1e-9) \
            if delta > 0 else float("inf")
        est = SeriesEstimate(prime_bound=prime_bound, product=product,
                             tail_exponent=delta, tail_bound=max(tail, 0.0))
    else:
        est = SeriesEstimate(prime_bound=prime_bound, product=product,
                             tail_exponent=None, tail_bound=0.0)
    return est, factors
