"""h-invariant machinery.

Exact h for quadratic forms (rank minus rational Witt index, computed from the
classical invariants: signature, discriminant square class and Hasse symbols),
verification and linear count of product decompositions, and the g_M / f_M
splitting constructions.

For degree >= 3 only upper-bound certification through verified decompositions
is offered; no exact algorithm is claimed.

A quadratic form is read as its Gram matrix (``poly.gram_matrix``) and
diagonalised by congruence over Q (``primes._diagonal``).  A square class is
any nonzero integer of that class, never reduced: an entry u/v stands as
u v, a discriminant is the plain product of the entries.  The Hilbert symbols
and local squares read only the valuation and the unit part
(``primes._valuation``, ``primes._jacobi``), so every such integer serves,
and ``primes._factorint`` runs once per entry, to find the places.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .poly import Polynomial, gram_matrix
from .primes import _diagonal, _factorint, _jacobi, _valuation


# ---------------------------------------------------------------------------
# decompositions f = sum U_i V_i
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """A claimed representation f = sum U_i V_i with forms of positive degree."""

    target: Polynomial
    pairs: list

    @property
    def claimed_h(self):
        return len(self.pairs)


def verify_decomposition(dec):
    """Check a Decomposition by exact arithmetic.

    Returns (ok, diagnostics).  Raises ValueError if the target is not
    homogeneous; shape violations in the pairs yield ok=False with a reason.
    """
    f = dec.target
    if not f.is_homogeneous() or f.is_zero():
        raise ValueError("decomposition target must be a nonzero form")
    d = f.degree
    for idx, (u, v) in enumerate(dec.pairs, start=1):
        for name, g in (("U", u), ("V", v)):
            if g.is_zero() or not g.is_homogeneous():
                return False, {"reason": f"{name}_{idx} is not a form of positive degree"}
        if u.degree < 1 or v.degree < 1 or u.degree + v.degree != d:
            return False, {"reason": f"pair {idx}: degrees {u.degree}+{v.degree} != {d}"}
    total = Polynomial.zero(f.n)
    for u, v in dec.pairs:
        total = total + u * v
    diff = total - f
    if diff.is_zero():
        return True, {}
    e, c = diff.sorted_terms()[0]
    return False, {"reason": "sum differs from target",
                   "first_offending_monomial": e, "excess_coefficient": c}


def linear_count(dec):
    """Number of pairs whose lower-degree factor is linear.

    A verified decomposition with k such pairs witnesses h*(f) >= k when
    k pairs are achieved inside an optimal (length h) decomposition.
    """
    ok, diag = verify_decomposition(dec)
    if not ok:
        raise ValueError(f"invalid decomposition: {diag.get('reason')}")
    return sum(1 for u, v in dec.pairs if min(u.degree, v.degree) == 1)


# ---------------------------------------------------------------------------
# rational invariants of quadratic forms
# ---------------------------------------------------------------------------

def hilbert_symbol(a, b, p):
    """Hilbert symbol (a, b)_p for nonzero integers; p prime, or None for R."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    al, u = _valuation(a, p)
    be, v = _valuation(b, p)
    if p != 2:
        s = 1
        if al % 2 and be % 2 and p % 4 == 3:
            s = -s
        if be % 2 and _jacobi(u, p) == -1:
            s = -s
        if al % 2 and _jacobi(v, p) == -1:
            s = -s
        return s
    eps_u = (u - 1) // 2
    eps_v = (v - 1) // 2
    om_u = (u * u - 1) // 8
    om_v = (v * v - 1) // 8
    e = eps_u * eps_v + al * om_v + be * om_u
    return -1 if e % 2 else 1


def is_local_square(a, p):
    """Is the nonzero integer a a square in Q_p (p prime, or None for R)?"""
    if a == 0:
        raise ValueError("zero has no square class")
    if p is None:
        return a > 0
    v, u = _valuation(a, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return _jacobi(u, p) == 1


def _isotropic_local(r, d, eps, p):
    # Serre's criteria for a rank-r p-adic form with discriminant class d and
    # Hasse symbol eps to represent zero nontrivially.
    if r >= 5:
        return True
    if r == 4:
        return (not is_local_square(d, p)) or eps == hilbert_symbol(-1, -1, p)
    if r == 3:
        return eps == hilbert_symbol(-1, -d, p)
    if r == 2:
        return is_local_square(-d, p)
    return False


def _witt_index_local(entries, p):
    """Witt index over Q_p of the diagonal form with nonzero integer entries,
    each standing for its square class."""
    r, d = len(entries), prod(entries)
    eps = 1
    for i in range(r):
        for j in range(i + 1, r):
            eps *= hilbert_symbol(entries[i], entries[j], p)
    w = 0
    while r >= 2 and _isotropic_local(r, d, eps, p):
        # split off a hyperbolic plane: what is left has discriminant -d
        d = -d
        eps *= hilbert_symbol(-1, d, p)
        r -= 2
        w += 1
    return w


def witt_index(diag):
    """Witt index over Q of the nondegenerate diagonal form ``diag``.

    Equals the minimum of the local Witt indices over all completions
    (strong Hasse-Minkowski).  Only finitely many places can be extremal:
    the reals, 2, primes dividing an entry, and the generic unramified bound.
    A rational entry u/v is taken as the integer u v of its square class.
    """
    entries = [a.numerator * a.denominator for a in map(Fraction, diag) if a]
    r = len(entries)
    if r == 0:
        return 0
    sp = sum(1 for a in entries if a > 0)
    w = min(sp, r - sp)
    places = {2}
    for a in entries:
        places.update(_factorint(abs(a)))
    for p in sorted(places):
        if w == 0:
            break
        w = min(w, _witt_index_local(entries, p))
    # cap from unramified odd primes: reduction mod p over F_p
    if r % 2 == 0:
        d = (-1) ** (r // 2) * prod(entries)
        w = min(w, r // 2 if d > 0 and isqrt(d) ** 2 == d else (r - 2) // 2)
    else:
        w = min(w, (r - 1) // 2)
    return w


@dataclass
class QuadraticFormData:
    """Invariant record for a rational quadratic form f(x) = x^T gram x,
    ``gram`` its ``poly.gram_matrix``."""

    gram: tuple
    rank: int
    signature: tuple
    witt_index: int
    h_value: int


def quadratic_h(f):
    """Exact h-invariant data for a quadratic form: h = rank - Witt index."""
    A = gram_matrix(f)
    diag = _diagonal(A)
    rank = len(diag)
    sp = sum(1 for a in diag if a > 0)
    w = witt_index(diag)
    return QuadraticFormData(gram=A, rank=rank, signature=(sp, rank - sp),
                             witt_index=w, h_value=rank - w)


# ---------------------------------------------------------------------------
# restriction inequality and g_M / f_M construction
# ---------------------------------------------------------------------------

@dataclass
class RestrictionReport:
    h: int
    per_index: list  # (i, h of f|_{x_i=0}, within_bounds)

    @property
    def ok(self):
        return all(flag for _, _, flag in self.per_index)


def lemma21_check(f):
    """For a quadratic form, verify h(f) - 1 <= h(f|_{x_i=0}) <= h(f) for all i."""
    h0 = 0 if f.is_zero() else quadratic_h(f).h_value
    rows = []
    for i in range(1, f.n + 1):
        fi = f.restrict_zero(i)
        hi = 0 if fi.is_zero() else quadratic_h(fi).h_value
        rows.append((i, hi, h0 - 1 <= hi <= h0))
    return RestrictionReport(h=h0, per_index=rows)


def build_gm_fm(f, dec, M):
    """Split f along the first M echelonized linear factors of a decomposition.

    The leading M pairs must have U_i = x_i + l_i with l_i a linear form
    supported on variables M+1..n.  f_M is f composed with x_i -> -l_i for
    i <= M and every other variable kept (``Polynomial.compose``), so each
    l_i is free of the variables it replaces.  Returns (g_M, f_M) with
    f = g_M + f_M, and checks that g_M vanishes identically under the same
    composition.
    """
    if not f.is_homogeneous() or f.is_zero():
        raise ValueError("f must be a nonzero form")
    if not 1 <= M <= len(dec.pairs):
        raise ValueError("M out of range for the decomposition")
    n = f.n
    repl = [Polynomial.variable(n, i) for i in range(1, n + 1)]
    for i in range(1, M + 1):
        ell = dec.pairs[i - 1][0] - repl[i - 1]
        if any(sum(e) != 1 for e in ell.terms):
            raise ValueError(f"U_{i} is not of the form x_{i} + linear")
        if any(any(e[:M]) for e in ell.terms):
            raise ValueError(
                f"l_{i} must be supported on variables {M + 1}..{n}")
        repl[i - 1] = -ell
    f_M = f.compose(repl, n)
    g_M = f - f_M
    if not g_M.compose(repl, n).is_zero():
        raise AssertionError("g_M does not vanish under the echelon substitution")
    return g_M, f_M


# reported lower bound for the threshold constant of degree d; the two
# regularization-dependent terms are non-constructive and omitted.
def a_d_lower(d):
    import math
    return 5 * 2 ** (d - 1) * (d - 1) * math.factorial(d) / math.log(2) ** d + 5 * d
