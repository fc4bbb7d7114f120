"""Real (archimedean) densities.

The oscillatory box integral I(eta), its truncated eta-integral J(L), the
singular integral mu(infinity) via extrapolation in L, and the scale-aware
epsilon-sausage density used in actual predictions.

All stochastic estimates use low-discrepancy (Sobol) sampling with a recorded
seed and carry replicate-based error estimates, so results are reproducible.
The Sobol points are drawn here with numpy and equal scipy's
``qmc.Sobol(d, scramble=True, seed=seed).random(n)`` bit for bit: Joe-Kuo
direction numbers (read from the table scipy ships, without importing
scipy), Owen's linear matrix scramble plus a digital shift, and the
Gray-code order.  A replicate whose size is not a power of two loses the
balance of the sequence; estimates then carry the flag ``sobol_unbalanced``.
The replicates are streamed: each is drawn, evaluated and reduced to one row
of statistics (sausage densities, J(L) per L) before the next is drawn, so
memory holds one replicate, and the estimators work on the rows.

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

import importlib.util
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    method: str                  # "quadrature" | "measure"
    value: float
    error_estimate: float
    L_used: float | None = None
    eps_used: float | None = None
    flags: tuple = ()

    @property
    def diverged(self):
        return "divergent" in self.flags


_SOBOL_BITS = 30
_SOBOL_MAXDIM = 21201


def _read_npy_prefix(zf, name, rows, cols=None):
    """The first ``rows`` rows (and ``cols`` columns) of the .npy member
    ``name`` of the open zip ``zf``, decompressing only the bytes that hold
    them: the leading rows of a C-ordered array, the leading columns of a
    Fortran-ordered one."""
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
    cols = rows.T.copy()
    return cols.mean(axis=1), cols.std(axis=1) / np.sqrt(len(rows))


def _densities(v, widths):
    """(2 w)^{-1} * fraction of values with |v| <= w, for each width w."""
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
    flags a divergent density instead.
    """
    widths = _widths(spec)
    measure = _measure(
        _replicate_rows(f, spec, lambda v: _densities(v, widths)), spec)
    measure.flags += _balance_flags(spec)
    return measure


def _measure(rows, spec):
    """sigma_measure from the replicate densities at ``_widths(spec)``."""
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
    probe and via J-increments that stop shrinking.
    """
    return sigma_infinity(f, spec)[0]


def sigma_infinity(f, spec=QuadratureSpec()):
    """(mu_infinity(f, spec), sigma_measure(f, spec)) from one set of samples."""
    if not f.is_homogeneous():
        raise ValueError("mu(infinity) is defined for the top-degree form")
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
