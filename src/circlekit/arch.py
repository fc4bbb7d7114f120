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

The eta-integral of I over [-L, L] is done in closed form: integrating
cos(2 pi eta f(x)) in eta gives the Dirichlet kernel 2L sinc(2L f(x)), so
J(L) is a plain sample mean and no eta grid is needed.  Both J(L) and the
sausage density approach their limits with a |v|^{1/2} log|v| type edge when
the zero set meets the singular locus, so the extrapolation bases carry that
term alongside the smooth one.
"""
from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        if self.box_points < _REPLICATES or self.eta_L <= 0 or self.eps <= 0:
            raise ValueError("quadrature parameters must be positive")


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


def _sobol_directions(d):
    """(d, 30) Joe-Kuo direction numbers, column j scaled by 2^(29-j)."""
    if d > _SOBOL_MAXDIM:
        raise ValueError(f"Sobol sampling supports at most {_SOBOL_MAXDIM} "
                         "dimensions")
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    with np.load(Path(root, "stats", "_sobol_direction_numbers.npz")) as z:
        poly, vinit = z["poly"][:d].tolist(), z["vinit"][:d].tolist()
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
    """n scrambled Sobol points in [0,1)^d, shape (n, d), as scipy's."""
    if n > 1 << _SOBOL_BITS:
        raise ValueError(f"Sobol sampling supports at most 2**{_SOBOL_BITS} "
                         "points")
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
    q = np.empty((1 << (n - 1).bit_length(), d), dtype=np.uint32)
    q[0] = shift
    h = 1
    while h < n:
        q[h:2 * h] = q[h - 1::-1] ^ sv[:, h.bit_length() - 1]
        h *= 2
    return q[:n] * 2.0 ** -_SOBOL_BITS


def _per_replicate(spec):
    return max(spec.box_points // _REPLICATES, 2)


def _balance_flags(spec):
    """Sobol points keep their balance only in blocks of a power of two."""
    per = _per_replicate(spec)
    return ("sobol_unbalanced",) if per & (per - 1) else ()


def _replicate_samples(n, spec):
    """List of per-replicate sample blocks in [0,1]^n, shape (m, n) each."""
    per = _per_replicate(spec)
    directions = _sobol_directions(n)
    return [_sobol(directions, per, spec.seed * 1009 + r)
            for r in range(_REPLICATES)]


def _replicate_values(f, spec, scale=1.0):
    return [f.eval_float(block * scale) for block in _replicate_samples(f.n, spec)]


def I_eta(f, eta, spec=QuadratureSpec()):
    """Quasi-Monte-Carlo estimate of the box integral of e(eta * f).

    Returns (value, standard_error).
    """
    if not f.is_homogeneous():
        raise ValueError("I(eta) is defined for the top-degree form")
    means = [np.mean(np.exp(2j * np.pi * eta * v))
             for v in _replicate_values(f, spec)]
    means = np.array(means)
    value = means.mean()
    se = float(np.sqrt(np.mean(np.abs(means - value) ** 2) / (_REPLICATES - 1)))
    return complex(value), se


def _J_ladder(vals_list, Ls):
    """J(L) per ladder point via the Dirichlet kernel; (means, ses) arrays."""
    js = np.array([[np.mean(2.0 * L * np.sinc(2.0 * L * v)) for L in Ls]
                   for v in vals_list])
    return js.mean(axis=0), js.std(axis=0) / np.sqrt(len(vals_list))


def J_of_L(f, L, spec=QuadratureSpec()):
    """J(L): the eta-integral of I over [-L, L]."""
    if L <= 0:
        raise ValueError("L must be positive")
    vals = _replicate_values(f, spec)
    js, _ = _J_ladder(vals, [L])
    return float(js[0])


def _weighted_fit(cols, y, ses):
    """Weighted lstsq; returns (coeffs, se_of_first_coeff, max_residual)."""
    A = np.vstack(cols).T
    w = 1.0 / np.maximum(np.asarray(ses), 1e-6)
    coef, *_ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)
    resid = float(np.max(np.abs(A @ coef - y)))
    cov = np.linalg.inv((A * w[:, None] ** 2).T @ A)
    return coef, float(np.sqrt(max(cov[0, 0], 0.0))), resid


def _sausage_from_values(vals_list, eps):
    """(2 eps)^{-1} * fraction of samples with |f| <= eps, with SE."""
    dens = np.array([np.mean(np.abs(v) <= eps) / (2 * eps) for v in vals_list])
    return float(dens.mean()), float(dens.std() / np.sqrt(len(dens)))


def _divergence_probe(vals_list, eps):
    """Deep-epsilon growth test for a non-integrable density.

    A log-divergent density keeps growing as eps shrinks while the
    sqrt-cusp of an integrable one flattens out, so comparing the density
    at eps/256 with the one at eps separates the two regimes.
    """
    v0, _ = _sausage_from_values(vals_list, eps)
    vp, _ = _sausage_from_values(vals_list, eps / 256.0)
    return v0 > 0 and vp > 1.4 * v0


def sigma_measure(f, spec=QuadratureSpec()):
    """Epsilon-sausage density of the zero set of f on the unit box.

    Densities at several widths are extrapolated to width zero with a
    sqrt(eps)*log(eps) edge model.  Sustained growth at very small widths
    flags a divergent density instead.
    """
    measure = _measure(_replicate_values(f, spec), spec)
    measure.flags += _balance_flags(spec)
    return measure


def _measure(vals, spec):
    """sigma_measure on already evaluated samples."""
    ladder = np.array([spec.eps * s for s in _LADDER])
    ests = [_sausage_from_values(vals, e) for e in ladder]
    values = np.array([v for v, _ in ests])
    ses = np.array([s for _, s in ests])
    flags = ()
    if _divergence_probe(vals, spec.eps):
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
    vals = _replicate_values(f, spec)
    flags = ()
    measure = _measure(vals, spec)
    if measure.diverged:
        flags = ("divergent",)
    Ls = np.array([spec.eta_L * s for s in _L_STEPS])
    js, ses = _J_ladder(vals, Ls)
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
    vals = [b.eval_float(block * N) / N ** d
            for block in _replicate_samples(b.n, spec)]
    v, se = _sausage_from_values(vals, eps_rel)
    # power-law decay in eps means the zero set carries no density in the
    # limit (e.g. definite forms vanishing only at a corner)
    v16, _ = _sausage_from_values(vals, eps_rel / 16.0)
    if v == 0.0 or v16 <= 0.5 * v:
        return SingularIntegralEstimate(method="measure", value=0.0,
                                        error_estimate=v16,
                                        eps_used=eps_rel * N ** d,
                                        flags=("zero_measure",)
                                        + _balance_flags(spec))
    return SingularIntegralEstimate(method="measure", value=v,
                                    error_estimate=se,
                                    eps_used=eps_rel * N ** d,
                                    flags=_balance_flags(spec))


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
    """
    n = f.n
    if grid ** n > 10 ** 7:
        raise ValueError("grid too fine for the dimension")
    axes = (np.arange(grid) + 0.5) / grid
    mesh = np.stack(np.meshgrid(*([axes] * n), indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, n)
    vals = f.eval_float(pts)
    order = np.argsort(np.abs(vals))
    grads = f.gradient()
    for idx in order[:64]:
        x = pts[idx].astype(float)
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
