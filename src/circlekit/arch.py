"""Real (archimedean) densities.

The oscillatory box integral I(eta), its truncated eta-integral J(L), the
singular integral mu(infinity) via extrapolation in L, and the scale-aware
epsilon-sausage density used in actual predictions.

A form in at most three variables and of degree one in some x_j, f =
A x_j + B, has its singular integral computed deterministically as the
fibre integral J = int over [0,1]^(n-1) of 1[0 <= -B/A <= 1] / |A| dx',
a zero on a face of the box counted half (``_fibre``): nested, globally
adaptive Gauss-Kronrod quadrature over pieces cut at the roots of A, B and
A + B.  Everything else is sampled: the singular integral of a form linear
in no variable or in four or more variables, I(eta), J(L) and the scaled
density ``sigma_scaled``.

Sampled estimates use low-discrepancy (Sobol) sampling with a recorded
seed and carry replicate-based error estimates, so results are reproducible.
The Sobol points are drawn here with numpy and equal scipy's
``qmc.Sobol(d, scramble=True, seed=seed).random(n)`` bit for bit: Joe-Kuo
direction numbers (read from the table scipy ships, without importing
scipy), Owen's linear matrix scramble plus a digital shift, and the
Gray-code order.  A replicate whose size is not a power of two loses the
balance of the sequence; estimates then carry the flag ``sobol_unbalanced``.
The replicates are streamed: each is drawn, evaluated and reduced to one row
of statistics (sausage densities, J(L) per L) before the next is drawn, so
memory holds one replicate, and the estimators work on the rows.  Only the
sampling estimators import numpy, when first called, so a fibre integral
loads no numpy.

The eta-integral of I over [-L, L] is done in closed form: integrating
cos(2 pi eta f(x)) in eta gives the Dirichlet kernel 2L sinc(2L f(x)), so
J(L) is a plain sample mean and no eta grid is needed.  The L ladder is
built by angle doubling: at each L whose half is not on the ladder one
vectorised tan of the half angle gives sin and cos, each 2L follows from
the double-angle formulas, and each rung is one dot product.  Samples so
close to a zero of f that the kernel is exactly 2L are counted apart.  The
last bits of J(L) follow the platform's tan (numpy's SIMD one, or libm's),
so they can differ between CPUs; reruns on one machine are identical.

Both J(L) and the sausage density approach their limits with a
|v|^{1/2} log|v| type edge when the zero set meets the singular locus, so
the extrapolation bases carry that term alongside the smooth one.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import zip_longest

from .poly import _charge, grid_blocks

_REPLICATES = 8

# sausage ladder: half-octave steps from 8*eps down to eps/4
_LADDER = [2.0 ** (3 - 0.5 * k) for k in range(11)]
# L ladder relative to eta_L
_L_STEPS = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]


@dataclass(frozen=True)
class QuadratureSpec:
    """Sampling and truncation parameters for the archimedean estimators."""

    box_points: int = 1 << 20
    eta_L: float = 16.0
    eps: float = 0.01
    seed: int = 7

    def __post_init__(self):
        if self.box_points < _REPLICATES or not all(
                math.isfinite(v) and v > 0 for v in (self.eta_L, self.eps)):
            raise ValueError("quadrature parameters must be finite and > 0")


@dataclass
class SingularIntegralEstimate:
    method: str                  # "quadrature" | "measure" | "fibre"
    value: float
    error_estimate: float
    L_used: float | None = None
    eps_used: float | None = None
    flags: tuple = ()

    @property
    def diverged(self):
        return "divergent" in self.flags


# -- the fibre integral ------------------------------------------------------

# Gauss-Kronrod on [-1, 1]: the 15-point Kronrod nodes +-x (0 once) and
# weights, and the weights of the embedded 7-point Gauss rule
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
       0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
       0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
       0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
       0.20443294007529889, 0.20948214108472782)
_WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664,
       0.0, 0.3818300505051189, 0.0, 0.4179591836734694)
_GK15 = tuple((sign * x, wk, wg) for x, wk, wg in zip(_XK, _WK, _WG)
              for sign in ((1, -1) if x else (1,)))
_ROUND = 50 * sys.float_info.epsilon    # rounding, per unit of |integral|
_FIBRE_TOL = 1e-9                       # error per unit of max(1, |value|)
_FIBRE_LIMIT = 64                       # parts per adaptive integral


def _horner(p, x):
    """The polynomial with coefficients p (lowest degree first) at x."""
    v = 0.0
    for c in reversed(p):
        v = v * x + c
    return v


def _trim(p):
    """The coefficients p without their leading zeros."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _roots(p):
    """The real roots in (0, 1) of the polynomial with coefficients p (lowest
    degree first, leading one nonzero): in closed form up to degree 2; above
    that, p is monotone between the roots of p', so each interval between
    them holds at most one root, found by bisection."""
    if len(p) < 2:
        return []
    if len(p) == 2:
        roots = [-p[0] / p[1]]
    elif len(p) == 3:
        c, b, a = p
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2
        roots = [q / a, c / q] if q else [0.0]
    else:
        ends = [0.0, *sorted(_roots([k * c for k, c in enumerate(p)][1:])),
                1.0]
        roots = []
        for lo, hi in zip(ends, ends[1:]):
            f_lo = _horner(p, lo)
            if f_lo == 0:
                roots.append(lo)
            elif f_lo * _horner(p, hi) < 0:
                while (mid := (lo + hi) / 2) not in (lo, hi):
                    if (_horner(p, mid) < 0) == (f_lo < 0):
                        lo = mid
                    else:
                        hi = mid
                roots.append(lo)
    return [r for r in roots if 0 < r < 1]


def _weight(a, b):
    """1 where the zero -b/a of a x + b lies in (0, 1), 1/2 where it is 0 or
    1 (a zero on a face of the box counts half, the limit of the sausage
    density), 0 elsewhere and where a = 0."""
    if not a:
        return 0
    r = -b / a
    return 1 if 0 < r < 1 else 0.5 if r in (0, 1) else 0


def _gk15(g, piece, u0, u1):
    """(value, error, converged) of the integral of w g over the part u in
    [u0, u1] of the piece (lo, hi, w), where x = lo + (hi - lo)(3u^2 - 2u^3)
    maps [0, 1] onto [lo, hi] and removes integrable endpoint singularities
    such as (x - lo)^(-1/2), by the 15-point Kronrod rule in u.  g(x) gives
    (value, error, converged); the error is |K15 - G7|, plus the errors g
    carries, plus ``_ROUND`` times the integral of |g|."""
    lo, hi, w = piece
    half = (u1 - u0) / 2
    k = gauss = mass = carried = 0.0
    ok = True
    for xi, wk, wg in _GK15:
        u, v = u0 + half * (1 + xi), (1 - u1) + half * (1 - xi)   # v = 1 - u
        d = min(u, v)           # x measured from the nearer end of the piece
        dx = (hi - lo) * d * d * (3 - 2 * d)
        val, e, fine = g(lo + dx if u <= v else hi - dx)
        jac = 6 * u * v
        k += wk * jac * val
        gauss += wg * jac * val
        mass += wk * jac * abs(val)
        carried += wk * jac * e
        ok = ok and fine
    h = w * (hi - lo) * half
    return h * k, h * (abs(k - gauss) + carried + _ROUND * mass), ok


def _adaptive(g, pieces, tol):
    """(value, error, converged) of the sum over the pieces (lo, hi, w) of
    the integral of w g over [lo, hi], globally adaptive: each piece is
    substituted once (``_gk15``), and the part of largest error is bisected
    in u until the summed error is at most tol * max(1, |value|), a value
    of g fails to converge, or ``_FIBRE_LIMIT`` parts are reached above
    tolerance."""
    parts = [(p, 0.0, 1.0, *_gk15(g, p, 0.0, 1.0)) for p in pieces]
    while True:
        value = math.fsum(p[3] for p in parts)
        error = math.fsum(p[4] for p in parts)
        if not all(p[5] for p in parts):
            return value, error, False
        if error <= tol * max(1.0, abs(value)):
            return value, error, True
        if len(parts) >= _FIBRE_LIMIT:
            return value, error, False
        worst = max(range(len(parts)), key=lambda i: parts[i][4])
        piece, u0, u1 = parts.pop(worst)[:3]
        mid = (u0 + u1) / 2
        parts += [(piece, u0, mid, *_gk15(g, piece, u0, mid)),
                  (piece, mid, u1, *_gk15(g, piece, mid, u1))]


def _line(alpha, beta, tol):
    """(value, error, converged) of the integral over t in [0, 1] of
    _weight(A(t), B(t)) / |A(t)|, A and B the polynomials with coefficients
    alpha and beta (lowest degree first).  [0, 1] is cut at the roots of A,
    B and A + B, so the weight is constant on each piece and is read at its
    midpoint; a constant A is integrated exactly."""
    alpha, beta = _trim(alpha), _trim(beta)
    gamma = _trim(a + b for a, b in zip_longest(alpha, beta, fillvalue=0.0))
    cuts = sorted({0.0, 1.0, *_roots(alpha), *_roots(beta), *_roots(gamma)})
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        w = _weight(_horner(alpha, mid), _horner(beta, mid))
        if w:
            pieces.append((lo, hi, w))
    if len(alpha) == 1:
        value = math.fsum((hi - lo) * w for lo, hi, w in pieces) \
            / abs(alpha[0])
        return value, _ROUND * value, True

    def reciprocal(t):      # a zero of A inside a piece: a singular line
        a = abs(_horner(alpha, t))
        return (1 / a, 0.0, True) if a else (0.0, 0.0, False)
    return _adaptive(reciprocal, pieces, tol)


def _fibre(f):
    """The density of the zero set of f in the unit box by its fibre
    integral, for f in n <= 3 variables of degree one in some x_j (the
    first such j); None for any other f.

    With f = A x_j + B, A and B free of x_j, the density is the integral
    over x' in [0,1]^(n-1) of _weight(A, B) / |A|.  For n = 3 the lines of
    the inner integral run along a variable A does not contain, where there
    is one, so that 1/|A| is constant on them; the outer integral and
    non-constant inner ones are globally adaptive Gauss-Kronrod, the outer
    error carrying the inner ones.  The worst-case number of evaluations is
    charged before any work.  A limit reached above tolerance flags the
    estimate ``divergent``; a density of exactly 0 is flagged
    ``zero_measure``.
    """
    if f.n > 3:
        return None
    parts = next(filter(None, map(f.linear_in, range(1, f.n + 1))), None)
    if parts is None:
        return None
    A, B = parts
    m = A.n
    _charge((15 * max(3 * f.degree, 2 * _FIBRE_LIMIT)) ** m,
            f"fibre integral over {m} variables")
    if m == 0:
        a, b = A.evaluate(()), B.evaluate(())
        value, error, ok = float(_weight(a, b) / abs(a)), 0.0, True
    else:
        t = A.missing_variable()
        cA, cB = A.coefficients(t), B.coefficients(t)

        # an inner line's tolerance is a sixteenth of the outer one, so the
        # inner errors the outer sum carries leave it room to converge
        def line(*s, tol=_FIBRE_TOL / 16):
            return _line([float(P.evaluate(s)) for P in cA],
                         [float(P.evaluate(s)) for P in cB], tol)
        value, error, ok = (line(tol=_FIBRE_TOL) if m == 1 else
                            _adaptive(line, [(0.0, 1.0, 1)], _FIBRE_TOL))
    flags = ("divergent",) if not ok else ("zero_measure",) if not value \
        else ()
    return SingularIntegralEstimate(method="fibre", value=value,
                                    error_estimate=error, flags=flags)


_SOBOL_BITS = 30
_SOBOL_MAXDIM = 21201


def _read_npy_prefix(zf, name, rows, cols=None):
    """The first ``rows`` rows (and ``cols`` columns) of the .npy member
    ``name`` of the open zip ``zf``, decompressing only the bytes that hold
    them: the leading rows of a C-ordered array, the leading columns of a
    Fortran-ordered one."""
    import numpy as np
    with zf.open(name) as fp:
        version = np.lib.format.read_magic(fp)
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(fp)
        if len(shape) == 1:
            return np.frombuffer(fp.read(rows * dtype.itemsize), dtype)
        if fortran_order:
            count = shape[0] * cols
            flat = np.frombuffer(fp.read(count * dtype.itemsize), dtype)
            return flat.reshape((shape[0], cols), order="F")[:rows]
        count = rows * shape[1]
        flat = np.frombuffer(fp.read(count * dtype.itemsize), dtype)
        return flat.reshape(rows, shape[1])[:, :cols]


def _sobol_directions(d):
    """(d, 30) Joe-Kuo direction numbers, column j scaled by 2^(29-j).

    Only the prefix of scipy's table that d dimensions use is read: d
    primitive polynomials, and the initial numbers up to their top degree.
    """
    import importlib.util
    import zipfile
    from pathlib import Path
    import numpy as np
    if d > _SOBOL_MAXDIM:
        raise ValueError(f"Sobol sampling supports at most {_SOBOL_MAXDIM} "
                         "dimensions")
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    with zipfile.ZipFile(Path(root, "stats",
                              "_sobol_direction_numbers.npz")) as zf:
        poly = _read_npy_prefix(zf, "poly.npy", d).tolist()
        degree = max((p.bit_length() - 1 for p in poly), default=0)
        vinit = _read_npy_prefix(zf, "vinit.npy", d, degree).tolist()
    v = [[1] * _SOBOL_BITS]
    for p, init in zip(poly[1:], vinit[1:]):
        m = p.bit_length() - 1
        row = init[:m]
        for j in range(m, _SOBOL_BITS):     # Bratley-Fox recurrence
            newv = row[j - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    newv ^= row[j - k - 1] << (k + 1)
            row.append(newv)
        v.append(row)
    return np.array(v, dtype=np.uint32) << np.arange(_SOBOL_BITS - 1, -1, -1,
                                                     dtype=np.uint32)


def _sobol(directions, n, seed):
    """n scrambled Sobol points in [0,1)^d, shape (n, d), as scipy's.

    The Gray code is filled dimension-major, so each doubling is one xor
    over d contiguous rows; the result is the transpose of a (d, n) array,
    whose columns (one coordinate of every point) are contiguous.
    """
    import numpy as np
    d = len(directions)
    rng = np.random.default_rng(seed)
    powers = np.uint32(1) << np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(0, 2, (d, _SOBOL_BITS), dtype=np.uint32) @ powers
    ltm = np.tril(rng.integers(0, 2, (d, _SOBOL_BITS, _SOBOL_BITS),
                               dtype=np.uint32))
    ltm[:, range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
    # linear matrix scramble: bit 29-p of sv[d, j] becomes the parity of
    # ltm[d, p, ::-1] . bits(sv[d, j])
    bits = directions[:, :, None] >> np.arange(_SOBOL_BITS,
                                               dtype=np.uint32) & 1
    parity = np.einsum("dpk,djk->djp", ltm[:, :, ::-1], bits) & 1
    sv = parity @ powers[::-1]
    # Gray-code order: the reflected second half of each doubling differs
    # from the first half in one more direction number
    q = np.empty((d, 1 << (n - 1).bit_length()), dtype=np.uint32)
    q[:, 0] = shift
    h = 1
    while h < n:
        k = h.bit_length() - 1
        np.bitwise_xor(q[:, h - 1::-1], sv[:, k:k + 1], out=q[:, h:2 * h])
        h *= 2
    return (q[:, :n] * 2.0 ** -_SOBOL_BITS).T


def _per_replicate(spec):
    return max(spec.box_points // _REPLICATES, 2)


def _balance_flags(spec):
    """Sobol points keep their balance only in blocks of a power of two."""
    per = _per_replicate(spec)
    return ("sobol_unbalanced",) if per & (per - 1) else ()


def _replicate_samples(n, spec):
    """The per-replicate sample blocks in [0,1]^n, shape (m, n) each.

    Limits are checked, and a block's m n coordinates charged, at the
    call; each block is drawn only when the iteration reaches it.
    """
    per = _per_replicate(spec)
    if per > 1 << _SOBOL_BITS:
        raise ValueError(f"Sobol sampling supports at most 2**{_SOBOL_BITS} "
                         "points")
    _charge(per * n, f"Sobol replicate of {per} points in {n} dimensions")
    directions = _sobol_directions(n)
    return (_sobol(directions, per, spec.seed * 1009 + r)
            for r in range(_REPLICATES))


def _replicate_rows(f, spec, stats, scale=1.0):
    """The (8, k) matrix of per-replicate statistics of f's values.

    Each replicate is drawn, evaluated at ``scale`` times its samples and
    reduced by ``stats`` to one row before the next is drawn.
    """
    import numpy as np
    rows = []
    for block in _replicate_samples(f.n, spec):
        block *= scale
        rows.append(stats(f.eval_float(block)))
    return np.array(rows)


def _mean_se(rows):
    """Column means and standard errors of a replicate matrix.

    Each column is reduced as a 1-d array, so its mean has the bits of
    np.mean over that column's replicate values.
    """
    import numpy as np
    cols = rows.T.copy()
    return cols.mean(axis=1), cols.std(axis=1) / np.sqrt(len(rows))


def _densities(v, widths):
    """(2 w)^{-1} * fraction of values with |v| <= w, for each width w."""
    import numpy as np
    a = np.abs(v)
    return [np.count_nonzero(a <= w) / len(a) / (2 * w) for w in widths]


def _J_row(v, Ls):
    """J(L) = mean(2 L sinc(2 L v)) on one replicate, for each L in ``Ls``.

    The L whose half is not in ``Ls`` root chains L0, 2 L0, 4 L0, ...
    (doubling and halving are exact in floating point, so the chains are
    found for any ladder).  At a root one tan gives sin and cos of the angle
    y = pi (2 L0 v) that np.sinc forms: with u = tan(y/2), sin y = 2u/(1+u^2)
    and cos y = (1-u^2)/(1+u^2), where |u| < 1e17 at every double.  Each
    rung 2^k L0 follows by doubling, sin 2a = 2 sin a cos a and
    cos 2a = 1 - 2 sin^2 a, and its mean is one dot product of sin(2^k y)
    with 2 L0 / y.  A sample with |y| below 2^-27 L0 / (top rung of the
    chain) has sinc exactly 1 at every rung, so it is counted apart and adds
    exactly 2L: an exact zero of v gives the kernel's limit, and no weight
    2 L0 / y overflows at a subnormal v (which numpy's vectorised tan would
    flush to zero).  J(L) agrees with the mean of np.sinc's terms to about
    1e-15 of the kernel's scale; its last bits follow the platform's tan,
    so they can differ between CPUs.
    """
    import numpy as np
    ladder = set(Ls)
    n = len(v)
    J = {}
    y, s, c, w = (np.empty_like(v) for _ in range(4))
    for L in Ls:
        if L / 2 in ladder:
            continue
        top = L
        while 2 * top in ladder:
            top *= 2
        base = 2.0 * L
        np.multiply(v, base, out=y)
        y *= np.pi                      # the angle np.sinc forms
        np.abs(y, out=w)
        tiny = w < 2.0 ** -27 * L / top
        flat = np.count_nonzero(tiny)
        if flat:
            y[tiny] = 1.0               # any angle: their weight is set to 0
        np.multiply(y, 0.5, out=s)
        np.tan(s, out=s)                # u
        np.multiply(s, s, out=c)
        np.add(c, 1.0, out=w)           # 1 + u^2
        s /= w
        s *= 2
        np.subtract(1.0, c, out=c)
        c /= w
        np.divide(base, y, out=w)
        if flat:
            w[tiny] = 0.0
        while True:
            # einsum, not np.dot: BLAS's threaded dot stalls for
            # milliseconds when the other core is busy
            J[L] = np.einsum("i,i", s, w) / n + 2.0 * L * (flat / n)
            if 2 * L not in ladder:
                break
            np.multiply(s, s, out=y)
            s *= c
            s *= 2
            np.multiply(y, -2, out=c)
            c += 1
            L = 2 * L
    return [J[L] for L in Ls]


def I_eta(f, eta, spec=QuadratureSpec()):
    """Quasi-Monte-Carlo estimate of the box integral of e(eta * f).

    Returns (value, standard_error).
    """
    import numpy as np
    if not f.is_homogeneous():
        raise ValueError("I(eta) is defined for the top-degree form")
    means = _replicate_rows(
        f, spec, lambda v: np.mean(np.exp(2j * np.pi * eta * v)))
    value = means.mean()
    se = float(np.sqrt(np.mean(np.abs(means - value) ** 2) / (_REPLICATES - 1)))
    return complex(value), se


def J_of_L(f, L, spec=QuadratureSpec()):
    """J(L): the eta-integral of I over [-L, L]."""
    if L <= 0:
        raise ValueError("L must be positive")
    js, _ = _mean_se(_replicate_rows(f, spec, lambda v: _J_row(v, [L])))
    return float(js[0])


def _weighted_fit(cols, y, ses):
    """Weighted lstsq; returns (coeffs, se_of_first_coeff, max_residual)."""
    import numpy as np
    A = np.vstack(cols).T
    w = 1.0 / np.maximum(np.asarray(ses), 1e-6)
    coef, *_ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)
    resid = float(np.max(np.abs(A @ coef - y)))
    cov = np.linalg.inv((A * w[:, None] ** 2).T @ A)
    return coef, float(np.sqrt(max(cov[0, 0], 0.0))), resid


def _widths(spec):
    """The sausage ladder, then eps/256 for the divergence probe."""
    return [spec.eps * s for s in _LADDER] + [spec.eps / 256.0]


def sigma_measure(f, spec=QuadratureSpec()):
    """Epsilon-sausage density of the zero set of f on the unit box.

    Densities at several widths are extrapolated to width zero with a
    sqrt(eps)*log(eps) edge model.  Sustained growth at very small widths
    flags a divergent density instead.  Where the fibre integral applies
    (``_fibre``), it is returned instead.
    """
    fibre = _fibre(f)
    if fibre is not None:
        return fibre
    widths = _widths(spec)
    measure = _measure(
        _replicate_rows(f, spec, lambda v: _densities(v, widths)), spec)
    measure.flags += _balance_flags(spec)
    return measure


def _measure(rows, spec):
    """sigma_measure from the replicate densities at ``_widths(spec)``."""
    import numpy as np
    ladder = np.array(_widths(spec)[:-1])
    dens, ses = _mean_se(rows)
    values, ses = dens[:-1], ses[:-1]
    flags = ()
    # deep-epsilon growth test for a non-integrable density: a log-divergent
    # density keeps growing as eps shrinks while the sqrt-cusp of an
    # integrable one flattens out, so the density at eps/256 is compared
    # with the one at eps
    at_eps = values[_LADDER.index(1.0)]
    if at_eps > 0 and dens[-1] > 1.4 * at_eps:
        flags = ("divergent",)
    if values[-1] == 0.0:
        flags = flags + ("zero_measure",)
    one = np.ones_like(ladder)
    coef, se0, resid = _weighted_fit(
        [one, np.sqrt(ladder) * np.log(1.0 / ladder), np.sqrt(ladder)],
        values, ses)
    value = float(coef[0])
    if "divergent" in flags or value < 0:
        # extrapolation is meaningless there; report the finest clean density
        value = float(values[-1])
    return SingularIntegralEstimate(method="measure", value=value,
                                    error_estimate=se0 + resid,
                                    eps_used=float(ladder[-1]), flags=flags)


def mu_infinity(f, spec=QuadratureSpec()):
    """Singular integral mu(infinity) for a form, by extrapolating J(L).

    J(L) is fit to mu + a log(L)/sqrt(L) + b/sqrt(L) over a geometric ladder
    of L; the edge terms cover the slow convergence caused by the singular
    locus touching the box.  Divergent densities are flagged via the sausage
    probe and via J-increments that stop shrinking.  Where the fibre
    integral applies (``_fibre``), it is returned instead.
    """
    return sigma_infinity(f, spec)[0]


def sigma_infinity(f, spec=QuadratureSpec()):
    """(mu_infinity(f, spec), sigma_measure(f, spec)) from one set of
    samples, or the fibre integral in both slots where it applies."""
    if not f.is_homogeneous():
        raise ValueError("mu(infinity) is defined for the top-degree form")
    fibre = _fibre(f)
    if fibre is not None:
        return fibre, replace(fibre)
    import numpy as np
    widths = _widths(spec)
    Ls = np.array([spec.eta_L * s for s in _L_STEPS])
    rows = _replicate_rows(
        f, spec, lambda v: _densities(v, widths) + _J_row(v, Ls))
    flags = ()
    measure = _measure(rows[:, :len(widths)], spec)
    if measure.diverged:
        flags = ("divergent",)
    js, ses = _mean_se(rows[:, len(widths):])
    coef, se0, resid = _weighted_fit(
        [np.ones_like(Ls), np.log(Ls) / np.sqrt(Ls), 1.0 / np.sqrt(Ls)],
        js, ses)
    mu = float(coef[0])
    # increments over x4 spans: ratio ~ 1 for log growth, ~ 1/2 for 1/sqrt(L)
    d1 = js[4] - js[0]
    d2 = js[8] - js[4]
    noise = 4 * float(ses.max())
    if "divergent" not in flags and abs(d2) > 0.75 * abs(d1) + noise:
        flags = flags + ("nonconvergent",)
    est = SingularIntegralEstimate(method="quadrature", value=mu,
                                   error_estimate=se0 + resid,
                                   L_used=float(Ls[-1]), flags=flags)
    # cross-check against the measure method when both are clean
    if not flags and not measure.flags:
        gap = abs(est.value - measure.value)
        # small floor: both error estimates can be tiny for very clean forms
        slack = 0.005 + 0.01 * abs(est.value)
        if gap > 3 * (est.error_estimate + measure.error_estimate) + slack:
            est.flags = ("estimator_disagreement",)
    est.flags += _balance_flags(spec)
    measure.flags += _balance_flags(spec)
    return est, measure


def sigma_scaled(b, N, spec=QuadratureSpec()):
    """Scale-aware archimedean density of b on [0, N]^n.

    Realizes (2 eps)^{-1} vol{u in [0,N]^n : |b(u)| <= eps} / N^{n-d} with
    eps = spec.eps * N^d, including all lower-order terms of b.  This is the
    factor used in predictions at finite scale.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    d = b.degree
    eps_rel = spec.eps
    # the density at eps/16 tells a zero set of no density in the limit
    # (power-law decay in eps, e.g. definite forms vanishing only at a corner)
    rows = _replicate_rows(
        b, spec, lambda v: _densities(v / N ** d, [eps_rel, eps_rel / 16.0]),
        scale=N)
    means, ses = _mean_se(rows)
    v, v16, se = float(means[0]), float(means[1]), float(ses[0])
    flags = ()
    if v == 0.0 or v16 <= 0.5 * v:
        v, se, flags = 0.0, v16, ("zero_measure",)
    return SingularIntegralEstimate(method="measure", value=v,
                                    error_estimate=se,
                                    eps_used=eps_rel * N ** d,
                                    flags=flags + _balance_flags(spec))


@dataclass
class RealWitness:
    point: tuple
    value: float
    gradient_norm: float


def real_nonsingular_witness(f, grid=24, value_tol=1e-12, grad_tol=1e-3):
    """Search for an interior zero of f in (0,1)^n with nonvanishing gradient.

    Coarse grid scan for near-zeros, then Newton polish along the gradient
    direction.  grad_tol rejects polish runs that drift toward a boundary
    zero with vanishing gradient (e.g. definite forms vanishing at a corner).
    Its grid^n points of n coordinates are charged before any is made,
    then walked in ``grid_blocks``, keeping the 64 least |f| (ties in grid
    order), so memory holds one block.
    """
    import numpy as np
    n = f.n
    _charge(grid ** n * n, f"witness grid of {grid}^{n} points")
    best, pts = np.empty(0), np.empty((0, n))
    for block in grid_blocks([np.arange(grid)] * n):
        vals = np.abs(f.eval_float((block + 0.5) / grid))
        top = np.argsort(vals, kind="stable")[:64]     # the block's own 64
        vals = np.concatenate((best, vals[top]))
        pts = np.concatenate((pts, (block[top] + 0.5) / grid))
        keep = np.argsort(vals, kind="stable")[:64]
        best, pts = vals[keep], pts[keep]
    grads = f.gradient()
    for x in pts:
        ok = True
        for _ in range(80):
            fx = float(f.eval_float(x[None, :])[0])
            if abs(fx) < value_tol:
                break
            g = np.array([float(gi.eval_float(x[None, :])[0]) for gi in grads])
            gg = float(g @ g)
            if gg == 0.0:
                ok = False
                break
            x = x - fx * g / gg
            if not np.all((x > 0) & (x < 1)):
                ok = False
                break
        if not ok:
            continue
        fx = float(f.eval_float(x[None, :])[0])
        g = np.array([float(gi.eval_float(x[None, :])[0]) for gi in grads])
        gn = float(np.linalg.norm(g))
        if abs(fx) < value_tol and gn > grad_tol:
            return RealWitness(point=tuple(x), value=fx, gradient_norm=gn)
    return None
