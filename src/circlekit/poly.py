"""Exact sparse multivariate polynomial arithmetic over Z and Q.

Variables are indexed 1..n.  Terms are stored as a map from exponent tuples
(0-based positions, length n) to nonzero exact coefficients (int or Fraction).
All values are immutable after construction; every operation returns a new
polynomial, so everything here is safe to call from concurrent workers.
Only batch evaluation, ``grid_blocks`` and residue histograms of more than
``_SMALL_STEPS`` steps import numpy, when first called, so a command that
parses or composes polynomials, or enumerates a little, never loads it.
``DEFAULT_ENUM_BUDGET``, ``_charge`` and their exception live here, as do
``_cyclic``, which adds residue histograms held as dense length-q vectors,
and ``gram_matrix``, the one reading of a quadratic form.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import accumulate, product as iproduct
from math import prod

_INT64_SAFE = 2 ** 62
# the most an exact enumeration may cost, read by _charge at every check
DEFAULT_ENUM_BUDGET = 10 ** 8
# rows per block of grid_blocks: about 1 MB of int64 per coordinate
_BLOCK_ROWS = 1 << 17
# rows per slice of a batch evaluation: its power table stays in cache
_EVAL_ROWS = 1 << 13
# a histogram sum convolves while its key windows hold at most 8x its pairs
_DENSE_RATIO = 8
# an exact enumeration of at most this many steps runs in Python integers:
# at about 2.5 us a step (the three-term cone walked point by point, 2-vCPU
# Xeon VM) that is at most 85 ms, less than the 130 ms a fresh process
# there pays to import numpy
_SMALL_STEPS = 1 << 15


class BudgetExceeded(RuntimeError):
    """Raised when an exact enumeration would exceed the configured budget."""


def _limit(budget=None):
    """``budget``, else ``DEFAULT_ENUM_BUDGET`` as it is at the call."""
    return DEFAULT_ENUM_BUDGET if budget is None else budget


def _charge(cost, what, budget=None):
    """Refuse ``what``, before any of its work, if ``cost`` is over budget."""
    if cost > (limit := _limit(budget)):
        raise BudgetExceeded(f"{what} costs {cost}, over budget {limit}")


def _small(cost):
    """Whether an enumeration of ``cost`` steps runs in Python integers,
    without numpy: ``_SMALL_STEPS`` as it is at the call."""
    return cost <= _SMALL_STEPS


def _norm_coeff(c):
    """Normalize to int when the denominator is 1, keep Fraction otherwise."""
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _grlex_key(exps):
    # graded lexicographic, largest first when used with sort(reverse=True)
    return (sum(exps), exps)


class Polynomial:
    """Sparse exact polynomial in ``n`` variables."""

    __slots__ = ("n", "terms", "degree", "_hash", "_split")

    def __init__(self, n, terms=None):
        n = int(n)
        if n < 0:
            raise ValueError("variable count must be >= 0")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _norm_coeff(c)
            if c:
                if exps in clean:
                    s = _norm_coeff(clean[exps] + c)
                    if s:
                        clean[exps] = s
                    else:
                        del clean[exps]
                else:
                    clean[exps] = c
        self.n = n
        self.terms = clean
        self.degree = max((sum(e) for e in clean), default=0)
        self._hash = None

    @classmethod
    def _trusted(cls, n, terms):
        """A polynomial from ``terms`` whose keys are already distinct valid
        exponent tuples of length n, as arithmetic builds them: coefficients
        are still normalized and zeros dropped, but no key is rebuilt or
        checked."""
        self = object.__new__(cls)
        self.n = n
        self.terms = {e: c if type(c) is int else _norm_coeff(c)
                      for e, c in terms.items() if c}
        self.degree = max((sum(e) for e in self.terms), default=0)
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i):
        """The monomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    # -- arithmetic --------------------------------------------------------

    def _require_same_ring(self, other):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        self._require_same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = _norm_coeff(terms.get(e, 0) + c)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial._trusted(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.n)
            return Polynomial._trusted(
                self.n, {e: c * other for e, c in self.terms.items()})
        self._require_same_ring(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._trusted(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            # equal ints and Fractions hash alike, so no conversion is needed
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Polynomial(n={self.n}, {self.to_text()!r})"

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point):
        """Exact evaluation at an integer/rational point."""
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} != {self.n} variables")
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x ** k
            total += v
        return total

    def evaluate_mod(self, point, q):
        """``evaluate(point) mod q`` for q >= 1, in [0, q)."""
        q = int(q)
        if q < 1:
            raise ValueError("modulus must be >= 1")
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} != {self.n} variables")
        if not self.is_integral():
            raise ValueError("modular evaluation needs integer coefficients")
        if any(int(x) != x for x in point):
            raise ValueError(f"modular evaluation needs an integer point, "
                             f"got {list(point)}")
        # Python ints, so no product of residues can overflow whatever q is
        return self.evaluate([int(x) % q for x in point]) % q

    def eval_float(self, points):
        """Vectorized float evaluation; ``points`` has shape (m, n)."""
        import numpy as np
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.n:
            raise ValueError(f"points have {pts.shape[1]} columns, expected {self.n}")
        return self._eval_columns(pts.T)

    def eval_int(self, points, q=None):
        """Exact batch evaluation on an integer array of shape (m, n).

        With ``q=None`` the values are exact: int64 while a coefficient and
        coordinate bound keeps them below 2^62, Python ints (object array)
        otherwise.  With ``q`` they are reduced into [0, q), once under that
        bound and else at every step, which needs q^2 < 2^63 so that no
        product of two residues overflows.  Points that are not of a
        signed integer dtype must equal their int64 conversion.
        """
        if not self.is_integral():
            raise ValueError("integer evaluation needs integer coefficients")
        import numpy as np
        given = np.asarray(points)
        try:        # a Python int beyond int64 has no int64 conversion
            pts = given.astype(np.int64, copy=False)
        except OverflowError:
            pts = None
        if pts is None or given.dtype.kind != "i" and (pts != given).any():
            raise ValueError("integer evaluation needs int64 integer points")
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must have shape (m, {self.n})")
        if q is not None:
            q = int(q)
            if q < 1 or q * q >= 2 ** 63:
                raise ValueError(f"modulus {q} needs 1 <= q and q^2 < 2^63")
        big = int(np.abs(pts).max(initial=1)) ** max(self.degree, 1)
        exact = sum(abs(c) for c in self.terms.values()) * big < _INT64_SAFE
        cols = np.ascontiguousarray(
            pts.T, dtype=np.int64 if exact or q else object)
        if exact or q is None:
            out = self._eval_columns(cols)
            return out if q is None else out % q
        # not in place: for one row or one column, cols is the caller's array
        return self._eval_columns(cols % q, q)

    def _eval_columns(self, cols, q=None):
        """The batch evaluator behind eval_float and eval_int.

        ``cols`` has shape (n, m), row i the x_i of m points (float, int64
        or Python ints); the values come back reduced into [0, q) when q is
        given.  The points go in slices of ``_EVAL_ROWS``, which stay in
        cache.  Per slice one power table is built per variable, ``col ** k``
        (by repeated products mod q), then each term is its coefficient
        times its powers in variable order, and the terms are summed in dict
        order.
        """
        import numpy as np
        terms = [(e, float(c) if cols.dtype == float else c % q if q else c)
                 for e, c in self.terms.items()]
        top = [max((e[i] for e in self.terms), default=0) for i in range(self.n)]
        out = np.zeros(cols.shape[1], dtype=cols.dtype)
        for s in range(0, len(out), _EVAL_ROWS):
            part, powers = out[s:s + _EVAL_ROWS], []
            for col, k_max in zip(cols[:, s:s + _EVAL_ROWS], top):
                pw = [None, col]
                for k in range(2, k_max + 1):
                    pw.append(col ** k if q is None else pw[-1] * col % q)
                powers.append(pw)
            for e, c in terms:
                v = None        # the term starts from its first power times c
                for i, k in enumerate(e):
                    if k:
                        if v is None:
                            v = powers[i][k] * c
                        else:
                            v *= powers[i][k]
                        if q:
                            v %= q
                part += c if v is None else v
                if q:
                    part %= q
        return out

    def gradient(self):
        """List of partial derivatives, one Polynomial per variable."""
        grads = []
        for i in range(self.n):
            terms = {}
            for e, c in self.terms.items():
                if e[i]:
                    ne = list(e)
                    ne[i] -= 1
                    terms[tuple(ne)] = terms.get(tuple(ne), 0) + c * e[i]
            grads.append(Polynomial._trusted(self.n, terms))
        return grads

    # -- structural operations --------------------------------------------

    def top_degree_part(self):
        """The homogeneous part of maximal total degree."""
        if not self.terms:
            raise ValueError("zero polynomial has no top-degree part")
        d = self.degree
        return Polynomial._trusted(
            self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def restrict_zero(self, i):
        """Set x_i = 0; the ambient variable count is preserved."""
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        return Polynomial._trusted(
            self.n, {e: c for e, c in self.terms.items() if e[i - 1] == 0})

    def coefficients(self, j):
        """[P_0, ..., P_k] with self = P_0 + P_1 x_j + ... + P_k x_j^k, k the
        degree of self in x_j and each P_i a polynomial in the other n - 1
        variables (x_j's position dropped).  j is 1-based."""
        if not 1 <= j <= self.n:
            raise IndexError(f"variable index {j} out of range 1..{self.n}")
        k = j - 1
        parts = [{} for _ in range(max((e[k] for e in self.terms),
                                       default=0) + 1)]
        for e, c in self.terms.items():
            parts[e[k]][e[:k] + e[k + 1:]] = c
        return [Polynomial._trusted(self.n - 1, t) for t in parts]

    def missing_variable(self):
        """The first j (1-based) with x_j in no term of self, else n."""
        return next((i + 1 for i in range(self.n)
                     if not any(e[i] for e in self.terms)), self.n)

    def linear_in(self, j):
        """(A, B) with self = A x_j + B, both polynomials in the other n - 1
        variables (x_j's position dropped); None when x_j occurs squared or
        not at all.  j is 1-based."""
        parts = self.coefficients(j)
        return (parts[1], parts[0]) if len(parts) == 2 else None

    def additive_split(self, sizes):
        """(parts, const) with self = const + parts[0] + parts[1] + ...,
        parts[i] free of constant terms and a polynomial in the i-th of the
        consecutive blocks of ``sizes`` variables (in its own ring of
        sizes[i] variables); None when a term mixes two blocks."""
        if sum(sizes) != self.n:
            raise ValueError(f"block sizes {sizes} do not add up to {self.n}")
        cuts = [0, *accumulate(sizes)]
        parts, const = [{} for _ in sizes], 0
        for e, c in self.terms.items():
            hit = [i for i in range(len(sizes)) if any(e[cuts[i]:cuts[i + 1]])]
            if len(hit) > 1:
                return None
            if hit:
                parts[hit[0]][e[cuts[hit[0]]:cuts[hit[0] + 1]]] = c
            else:
                const = c
        return [Polynomial._trusted(m, t) for m, t in zip(sizes, parts)], const

    def variable_split(self):
        """``additive_split([1] * n)`` with its parts in a tuple, worked out
        once: (f_1, ..., f_n), c with self = c + f_1(x_1) + ... + f_n(x_n),
        or None when a term mixes two variables."""
        try:
            return self._split
        except AttributeError:      # a slot is unset until first assigned
            split = self.additive_split([1] * self.n)
            self._split = split and (tuple(split[0]), split[1])
            return self._split

    def compose_linear(self, rows, n_new):
        """Substitute x_i by the linear form with coefficients ``rows[i-1]`` in
        a fresh ring with ``n_new`` variables."""
        if len(rows) != self.n:
            raise ValueError("need one coefficient row per variable")
        return self.compose(
            [Polynomial(n_new, {tuple(1 if j == k else 0 for j in range(n_new)): c
                                for k, c in enumerate(row) if c})
             for row in rows], n_new)

    def compose(self, repl, n_new):
        """Substitute x_i by the polynomial ``repl[i-1]``, all of them in a
        ring with ``n_new`` variables."""
        if len(repl) != self.n:
            raise ValueError("need one polynomial per variable")
        out = {}        # summed once at the end, not one polynomial per term
        one = (0,) * n_new
        powers = [{0: Polynomial._trusted(n_new, {one: 1})} for _ in range(self.n)]
        for e, c in self.terms.items():
            term = Polynomial._trusted(n_new, {one: c})
            for i, k in enumerate(e):
                if not k:
                    continue
                cache = powers[i]
                while max(cache) < k:
                    cache[max(cache) + 1] = cache[max(cache)] * repl[i]
                term = term * cache[k]
            for f, v in term.terms.items():
                out[f] = out.get(f, 0) + v
        return Polynomial._trusted(n_new, out)

    # -- serialization -----------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical graded-lexicographic order (largest first)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def to_text(self):
        """Canonical text format: header ``n=<int>``, then one monomial per line
        ``c k_1 ... k_n``.  Round-trips bit-exactly through :func:`parse_polynomial`."""
        lines = [f"n={self.n}"]
        for e, c in self.sorted_terms():
            cs = str(c) if isinstance(c, int) else f"{c.numerator}/{c.denominator}"
            lines.append(" ".join([cs] + [str(k) for k in e]))
        return "\n".join(lines) + "\n"

    def sha256(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def parse_polynomial(text):
    """Parse the one-monomial-per-line format produced by ``to_text``."""
    n = None
    terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            n = int(line[2:])
            continue
        if n is None:
            raise ValueError(f"line {lineno}: missing 'n=<int>' header")
        parts = line.split()
        if len(parts) != n + 1:
            raise ValueError(f"line {lineno}: expected coefficient plus {n} exponents")
        cs = parts[0]
        c = Fraction(cs) if "/" in cs else int(cs)
        exps = tuple(int(x) for x in parts[1:])
        terms[exps] = terms.get(exps, 0) + c
    if n is None:
        raise ValueError("missing 'n=<int>' header")
    return Polynomial(n, terms)


def load_polynomial(path):
    with open(path) as fh:
        return parse_polynomial(fh.read())


def gram_matrix(f):
    """The symmetric rational matrix A with f(x) = x^T A x, for a quadratic
    form f: A_ii is the coefficient of x_i^2 and A_ij = A_ji half that of
    x_i x_j.  Every module reads a quadratic form through this one."""
    if f.is_zero():
        return tuple(tuple(Fraction(0) for _ in range(f.n)) for _ in range(f.n))
    if not f.is_homogeneous() or f.degree != 2:
        raise ValueError("need a homogeneous quadratic form")
    A = [[Fraction(0)] * f.n for _ in range(f.n)]
    for e, c in f.terms.items():
        i, j = (k for k, x in enumerate(e) for _ in range(x))
        A[i][j] = A[j][i] = Fraction(c) if i == j else Fraction(c, 2)
    return tuple(tuple(row) for row in A)


def grid_blocks(axes):
    """Cover ``itertools.product(*axes)`` with int64 point blocks of shape (m, n).

    Blocks come in lexicographic order and hold at most ``_BLOCK_ROWS``
    rows.  The trailing axes that fit are vectorised whole, the next axis
    in slices, and the leading ones are fixed per block.
    """
    import numpy as np
    axes = [np.asarray(a, dtype=np.int64).reshape(-1) for a in axes]
    if any(len(a) == 0 for a in axes):
        return
    n = j = len(axes)
    rows = 1
    while j and rows * len(axes[j - 1]) <= _BLOCK_ROWS:
        j -= 1
        rows *= len(axes[j])
    tail = np.empty((rows, n - j), dtype=np.int64)
    for i, g in enumerate(np.meshgrid(*axes[j:], indexing="ij")):
        tail[:, i] = g.reshape(-1)
    if j == 0:
        yield tail
        return
    mid, step = axes[j - 1], _BLOCK_ROWS // rows
    # tiled once: a shorter last slice takes a prefix of it
    tiled = np.tile(tail, (min(step, len(mid)), 1))
    for head in iproduct(*axes[:j - 1]):
        for s in range(0, len(mid), step):
            part = mid[s:s + step]
            block = np.empty((len(part) * rows, n), dtype=np.int64)
            block[:, :j - 1] = head
            block[:, j - 1] = np.repeat(part, rows)
            block[:, j:] = tiled[:len(part) * rows]
            yield block


# -- exact value histograms -------------------------------------------------

def _cyclic(x, y, q):
    """The histogram mod q of the sum of independent residues with dense
    length-q histograms x and y (exact weights >= 0, int64 or Python ints):
    entry r sums x[i] y[j] over i + j = r mod q.  It convolves the windows
    of nonzero entries and wraps the result while they hold at most
    ``_DENSE_RATIO`` times their pairs, else adds the pairs in row slices
    of about ``_BLOCK_ROWS``, so memory never holds every pair.  Both
    branches are exact, so they agree bit for bit."""
    import numpy as np
    out = np.zeros(q, np.result_type(x, y))
    a, b = np.flatnonzero(x), np.flatnonzero(y)
    if not len(a) or not len(b):
        return out
    span_a, span_b = int(a[-1] - a[0]) + 1, int(b[-1] - b[0]) + 1
    if span_a * span_b > _DENSE_RATIO * len(a) * len(b):
        step = max(1, _BLOCK_ROWS // len(b))
        for s in range(0, len(a), step):
            r = a[s:s + step]
            np.add.at(out, np.add.outer(r, b).ravel() % q,
                      np.multiply.outer(x[r], y[b]).ravel())
        return out
    lo, size = int(a[0] + b[0]) % q, span_a + span_b - 1
    full = np.zeros(-(-(lo + size) // q) * q, out.dtype)
    full[lo:lo + size] = np.convolve(x[a[0]:a[-1] + 1], y[b[0]:b[-1] + 1])
    return full.reshape(-1, q).sum(axis=0)


def histogram_cost(n, q, m, separable):
    """The steps ``residue_histogram`` takes mod q for a b in n variables
    with m weights nonzero, at least the q entries it fills: the m^n tuples
    it walks, or for a separable b its n m evaluations and the pairs of
    keys its folds add, a sum of k parts having at most min(m^k, q) keys."""
    return max(q, m ** n if not separable else n * m + sum(
        min(m ** k, q) * min(m, q) for k in range(1, n)))


def residue_histogram(b, q, weight):
    """Entry r: the sum of weight[a_1] ... weight[a_n] over a in (Z/q)^n
    with b(a) = r mod q; b integral, ``weight`` q exact integers >= 0.  A
    separable b = c + f_1(x_1) + ... + f_n(x_n) fills one histogram per
    distinct part from its m residues of nonzero weight, folds the parts
    together and shifts the result by c; any other b walks the m^n tuples.
    ``histogram_cost`` is checked before any work.  A cost that is
    ``_small`` runs in Python integers, folding dicts and walking with
    ``Polynomial.evaluate``; a larger one in numpy arrays, folding dense
    vectors with ``_cyclic``.  Either way the result is a list of q exact
    Python ints."""
    if not b.is_integral():
        raise ValueError("histogram needs integer coefficients")
    weight = [int(w) for w in weight]
    n, support = b.n, [r for r, w in enumerate(weight) if w]
    split = b.variable_split() if n else None
    cost = histogram_cost(n, q, len(support), split is not None)
    _charge(cost, f"histogram mod {q}")
    if not _small(cost):
        return _numpy_histogram(b, q, weight, support, split).tolist()
    hist = [0] * q
    if split is None:
        for a in iproduct(support, repeat=n):
            hist[b.evaluate(a) % q] += prod(weight[x] for x in a)
        return hist
    parts, const = split
    own = {g: {} for g in parts}
    for g, h in own.items():
        for x in support:
            r = g.evaluate((x,)) % q
            h[r] = h.get(r, 0) + weight[x]
    acc = {const % q: 1}
    for g in parts:
        out = {}
        for s, w in acc.items():
            for r, v in own[g].items():
                t = (s + r) % q
                out[t] = out.get(t, 0) + w * v
        acc = out
    for r, w in acc.items():
        hist[r] = w
    return hist


def _numpy_histogram(b, q, weight, support, split):
    """``residue_histogram`` in numpy arrays: one dense length-q vector per
    distinct part, folded by ``_cyclic``, or the tuples walked in
    ``grid_blocks``.  Entries are int64 while (sum of the weights)^n is
    below 2^62, Python ints otherwise."""
    import numpy as np
    n, support = b.n, np.array(support, np.int64)
    size = sum(weight) ** n
    w = np.asarray(weight, np.int64 if size < _INT64_SAFE else object)
    if split is None:
        hist = np.zeros(q, w.dtype)
        for block in grid_blocks([support] * n):
            np.add.at(hist, b.eval_int(block, q), w[block].prod(axis=1))
        return hist
    parts, const = split
    own = {g: np.zeros(q, w.dtype) for g in parts}
    for g, h in own.items():
        np.add.at(h, g.eval_int(support[:, None], q), w[support])
    hist = own[parts[0]]
    for part in parts[1:]:
        hist = _cyclic(hist, own[part], q)
    return hist[(np.arange(q) - const % q) % q]


# -- Weyl differencing ------------------------------------------------------

def weyl_difference(G, d, args):
    """Numeric alternating 2^d-term difference of G along the d argument vectors.

    Sign convention: the full-sum term (all arguments included) enters with a
    plus sign, so for a degree-d form the result is the d!-scaled polar form;
    e.g. G = x^2 gives 2uv and G = x^3 gives 6uvw.
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(args) != d:
        raise ValueError(f"need {d} argument vectors, got {len(args)}")
    for a in args:
        if len(a) != G.n:
            raise ValueError("argument vector length mismatch")
    total = 0
    for ts in iproduct((0, 1), repeat=d):
        point = [sum(a[i] for t, a in zip(ts, args) if t) for i in range(G.n)]
        total += (-1) ** (d - sum(ts)) * G.evaluate(point)
    return total


def weyl_difference_poly(G, d):
    """Symbolic Weyl difference: a polynomial in d blocks of n fresh variables.

    Block k (1-based) occupies variables (k-1)*n+1 .. k*n of the result ring.
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    n, n_new = G.n, G.n * d
    out = Polynomial.zero(n_new)
    for ts in iproduct((0, 1), repeat=d):
        # x_i becomes the sum of the i-th variables of the blocks in ts
        rows = [[ts[j // n] if j % n == i else 0 for j in range(n_new)]
                for i in range(n)]
        out = out + (-1) ** (d - sum(ts)) * G.compose_linear(rows, n_new)
    return out
