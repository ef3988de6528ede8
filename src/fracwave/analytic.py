"""Closed-form and quadrature reference values for spatial averages of the wave field.

Everything here is deterministic: inner products of cone indicators under the
fractional covariance, overlap integrals of the window-cone profile, limit and
pre-limit variances of the centered spatial average, cross covariances between
observation times, the first-chaos variance, and the second-moment curve of the
linear-coefficient white-noise case.  Estimator output is judged against these
values, so each formula either is elementary or carries a quadrature companion
used by the tests.

Variances and covariances use a Gauss-Legendre rule exact for every curve built
here (_moment_integral); the first-chaos variance is elementary at every H.
Nothing here integrates adaptively, and nothing imports scipy.

Conventions: the field starts at 1 with zero initial velocity, the averaging
window is [-radius, radius], and curves bundle s -> E[sigma(u(s,0))] and
s -> E[sigma(u(s,0))^2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .noise import _check_hurst

__all__ = [
    "cone_inner_product",
    "cone_overlap_white",
    "cone_window_overlap",
    "cone_window_overlap_integral",
    "MomentCurves",
    "linear_white_second_moment",
    "linear_white_second_moment_volterra",
    "asymptotic_variance",
    "prelimit_variance_white",
    "prelimit_cross_white",
    "cross_covariance",
    "first_chaos_variance",
    "asymptotic_constants",
]


def cone_inner_product(x: float, xi: float, t: float, s: float, hurst: float) -> float:
    """Inner product of two cone-slice indicators under the fractional covariance.

    Closed form for H > 1/2:

        |x-xi-t-s|^{2H} + |x-xi+t+s|^{2H} - |x-xi+t-s|^{2H} - |x-xi-t+s|^{2H}

    equal to twice H(2H-1) times the double integral of |y-z|^{2H-2} over
    [x-t, x+t] x [xi-s, xi+s].  H = 1/2 is a removable limit but a different
    formula; use cone_overlap_white for it.
    """
    if t < 0 or s < 0:
        raise ValueError("cone half-widths t and s must be nonnegative")
    if hurst == 0.5:
        raise ValueError("hurst = 1/2 has no fractional kernel; use cone_overlap_white")
    if not (0.5 < hurst < 1.0):
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    d = x - xi
    two_h = 2.0 * hurst
    return float(
        abs(d - t - s) ** two_h
        + abs(d + t + s) ** two_h
        - abs(d + t - s) ** two_h
        - abs(d - t + s) ** two_h
    )


def cone_overlap_white(x: float, xi: float, t: float, s: float) -> float:
    """White-noise companion of cone_inner_product: twice the overlap length
    of [x-t, x+t] and [xi-s, xi+s]."""
    if t < 0 or s < 0:
        raise ValueError("cone half-widths t and s must be nonnegative")
    return 2.0 * max(0.0, min(x + t, xi + s) - max(x - t, xi - s))


def cone_window_overlap(s: float, y: float, t: float, radius: float) -> float:
    """Half-length of the overlap between the window [-radius, radius] and the
    cone cross-section [y-(t-s), y+(t-s)].

    Vanishes for |y| >= radius + t - s and never exceeds min(radius, t - s).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    a = t - s
    if a < 0:
        return 0.0
    return 0.5 * max(0.0, min(radius, y + a) - max(-radius, y - a))


def cone_window_overlap_integral(a: float, b: float, radius: float) -> float:
    """Integral over y of the product of two overlap profiles with cone
    half-widths a <= b, divided by the window radius.

    Closed form, valid for radius >= 2b:

        2ab - (a*b^2/2 + a^3/6) / radius
    """
    if not (0.0 <= a <= b):
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if radius < 2.0 * b:
        raise ValueError(f"closed form requires radius >= 2b, got radius={radius}, b={b}")
    return 2.0 * a * b - (0.5 * a * b**2 + a**3 / 6.0) / radius


@dataclass
class MomentCurves:
    """Curves s -> E[sigma(u(s,0))] and s -> E[sigma(u(s,0))^2].

    mean_sigma_sq may be None when unavailable (only the fractional-noise
    limit formulas, which consume the mean curve alone, work then).
    Empirical instances carry their knots.  Curves are called on arrays of
    times and must be smooth between their knots.
    """

    mean_sigma: Callable[[float], float]
    mean_sigma_sq: Optional[Callable[[float], float]]
    knots: Optional[np.ndarray] = None

    @classmethod
    def constant(cls, value: float) -> "MomentCurves":
        return cls(mean_sigma=lambda s, v=value: v, mean_sigma_sq=lambda s, v=value: v * v)

    @classmethod
    def linear_white(cls) -> "MomentCurves":
        """sigma(u) = u under white noise: mean 1, second moment cosh(s/sqrt 2)."""
        return cls(mean_sigma=lambda s: 1.0, mean_sigma_sq=linear_white_second_moment)

    @classmethod
    def closed_form(cls, sigma, hurst: float) -> Optional["MomentCurves"]:
        """Closed-form curves for a coefficient (a SigmaSpec) at a Hurst index:
        constant sigma at any H, linear sigma at H = 1/2 with both moments and
        at H > 1/2 with the mean alone (1 at every H; the second moment has
        no elementary form there).  None for the other kinds."""
        if sigma.kind == "constant":
            return cls.constant(sigma.params[0])
        if sigma.kind == "linear":
            return cls.linear_white() if hurst == 0.5 else cls(mean_sigma=lambda s: 1.0, mean_sigma_sq=None)
        return None

    @classmethod
    def from_samples(cls, knots, mean_values, sq_values) -> "MomentCurves":
        """Piecewise-linear empirical curves on the given time knots."""
        knots = np.asarray(knots, dtype=np.float64)
        mv = np.asarray(mean_values, dtype=np.float64)
        sv = np.asarray(sq_values, dtype=np.float64)
        if not (knots.shape == mv.shape == sv.shape):
            raise ValueError("knots and curve values must have matching shapes")
        return cls(
            mean_sigma=lambda s: np.interp(s, knots, mv),
            mean_sigma_sq=lambda s: np.interp(s, knots, sv),
            knots=knots,
        )


def linear_white_second_moment(t: float) -> float:
    """Second moment of the field at a point for sigma(u) = u, white noise.

    Solves m(t) = 1 + (1/2) * int_0^t (t-s) m(s) ds, hence m'' = m/2 with
    m(0) = 1, m'(0) = 0: cosh(t / sqrt 2).
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    out = np.cosh(t / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


# Most steps linear_white_second_moment_volterra marches: its work grows as the
# square of the step count.  The cap is t = 50 at the default step, 3 s on one
# core; t = 1000 would take about half an hour.
_MAX_VOLTERRA_STEPS = 50_000


def linear_white_second_moment_volterra(t: float, step: float) -> float:
    """Independent route to linear_white_second_moment: trapezoidal marching
    of the integral equation m(t) = 1 + (1/2) int_0^t (t-s) m(s) ds.  Refuses
    more than _MAX_VOLTERRA_STEPS steps."""
    if t < 0 or step <= 0:
        raise ValueError("t must be nonnegative and step positive")
    if t == 0:
        return 1.0
    if not t / step <= _MAX_VOLTERRA_STEPS:
        raise ValueError(f"t={t!r} at step={step!r} is too many steps for the marching, whose "
                         f"work grows as their square: at most {_MAX_VOLTERRA_STEPS} steps")
    n = max(1, int(np.ceil(t / step)))
    dt = t / n
    grid = dt * np.arange(n + 1)
    m = np.ones(n + 1)
    w = np.ones(n + 1)
    w[0] = 0.5  # trapezoid end weight; the s = t_k endpoint weight multiplies 0
    for k in range(1, n + 1):
        kernel = grid[k] - grid[:k]
        m[k] = 1.0 + 0.5 * dt * float(np.dot(w[:k] * kernel, m[:k]))
    return float(m[n])


def _require_second_moment(curves: MomentCurves) -> Callable[[float], float]:
    if curves.mean_sigma_sq is None:
        raise ValueError("these formulas need the second-moment curve, which is missing")
    return curves.mean_sigma_sq


# 8-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree <= 15: the bits
# of numpy's leggauss(8), which would import numpy.polynomial and run an eigensolver
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706])
# Most unit-width panels _moment_integral cuts: its node arrays grow with the
# upper limit (about 0.2 MB per 1000), and no plan's lattice reaches a time
# near this.
_MAX_UNIT_PANELS = 10_000


def _moment_integral(integrand, upper: float, knots) -> float:
    """int_0^upper integrand(s) ds, the integrand evaluated on a node array.

    Gauss-Legendre on panels split at the curve knots (if any) and at unit
    width.  Exact to rounding for every MomentCurves integrand here: a
    polynomial kernel of degree <= 3 times a curve that is linear between its
    knots (degree <= 4 per panel) or smooth on a unit panel (the constants and
    cosh(s / sqrt 2)).  Refuses an upper limit past _MAX_UNIT_PANELS.
    """
    if not upper <= _MAX_UNIT_PANELS:
        raise ValueError(f"t={upper!r} is too long for the moment rule, which cuts a panel "
                         f"per unit of time: at most t={_MAX_UNIT_PANELS}")
    cuts = np.arange(1.0, upper)
    if knots is not None:
        cuts = np.concatenate((cuts, knots[(knots > 0.0) & (knots < upper)]))
    edges = np.sort(np.concatenate(([0.0, upper], cuts)))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]  # np.unique would import numpy.ma
    half = 0.5 * np.diff(edges)[:, None]
    s = (edges[:-1, None] + half) + half * _GL_NODES
    return float(np.sum(half * _GL_WEIGHTS * integrand(s)))


def _limit_integral(kernel, upper: float, hurst: float, curves: MomentCurves) -> float:
    """2 int_0^upper kernel E[sigma^2] at H = 1/2, 2^{2H} int_0^upper kernel E[sigma]^2 above."""
    if hurst == 0.5:
        sq = _require_second_moment(curves)
        return 2.0 * _moment_integral(lambda s: kernel(s) * sq(s), upper, curves.knots)
    mean = curves.mean_sigma
    return 2.0 ** (2.0 * hurst) * _moment_integral(
        lambda s: kernel(s) * mean(s) ** 2, upper, curves.knots
    )


def asymptotic_variance(t: float, hurst: float, curves: MomentCurves) -> float:
    """Limit of Var(spatial average) over the window, per unit scale: the
    diagonal of cross_covariance.

    H = 1/2:  2 int_0^t (t-s)^2 * E[sigma(u(s,0))^2] ds   (variance / radius)
    H > 1/2:  2^{2H} int_0^t (t-s)^2 * E[sigma(u(s,0))]^2 ds
              (variance / radius^{2H})
    """
    return cross_covariance(t, t, hurst, curves)


def prelimit_variance_white(t: float, radius: float, curves: MomentCurves) -> float:
    """Exact variance of the centered spatial average for white noise, radius >= 2t.

    int_0^t E[sigma^2](s) * 2 radius (t-s)^2 (1 - (t-s)/(3 radius)) ds.
    """
    if radius < 2.0 * t:
        raise ValueError(f"exact white-noise variance requires radius >= 2t, got R={radius}, t={t}")
    sq = _require_second_moment(curves)
    return _moment_integral(
        lambda s: sq(s) * (2.0 * radius * (t - s) ** 2 - (2.0 / 3.0) * (t - s) ** 3), t, curves.knots
    )


def prelimit_cross_white(ti: float, tj: float, radius: float, curves: MomentCurves) -> float:
    """Exact covariance of the centered averages at two times, white noise,
    radius >= 2 max(ti, tj)."""
    lo, hi = min(ti, tj), max(ti, tj)
    if radius < 2.0 * hi:
        raise ValueError(f"exact white-noise covariance requires radius >= 2 max(t), got R={radius}")
    sq = _require_second_moment(curves)

    def integrand(s):
        a = lo - s
        b = hi - s
        return sq(s) * (2.0 * radius * a * b - (0.5 * a * b**2 + a**3 / 6.0))

    return _moment_integral(integrand, lo, curves.knots)


def cross_covariance(ti: float, tj: float, hurst: float, curves: MomentCurves) -> float:
    """Limit covariance of the scaled averages at two observation times.

    H = 1/2:  2 int_0^{ti^tj} (ti-s)(tj-s) E[sigma^2](s) ds
    H > 1/2:  2^{2H} int_0^{ti^tj} (ti-s)(tj-s) E[sigma](s)^2 ds
    """
    if ti < 0 or tj < 0:
        raise ValueError("times must be nonnegative")
    _check_hurst(hurst)
    lo = min(ti, tj)
    if lo == 0:
        return 0.0
    return _limit_integral(lambda s: (ti - s) * (tj - s), lo, hurst, curves)


def _binomial_tail(k: float, j: int, z: float) -> float:
    """sum_{i >= 0} C(k, j + 2i) z^{2i} to rounding, for 4 < k < 5, j >= 2, z <= 1/2."""
    term, total = math.prod(k - i for i in range(j)) / math.factorial(j), 0.0
    while total + term != total:
        total += term
        term *= (k - j) * (k - j - 1.0) / ((j + 1.0) * (j + 2.0)) * z * z
        j += 2
    return total


def first_chaos_variance(t: float, radius: float, hurst: float) -> float:
    """Variance of the first-chaos part of the centered spatial average when
    the coefficient at the initial state is 1 (linear or constant-1 sigma).

    H = 1/2 (radius >= 2t): (2/3) radius t^3 - t^4 / 6.
    H > 1/2, any radius: with p = 2H, k = p + 3, L = 2 radius, x = 2t, the
    closed-form cone product collapses the window double integral to
    int_0^t (1/4) int_0^L (L-d) (|d-2a|^p + |d+2a|^p - 2|d|^p) dd da.  The inner
    integral is [|L-2a|^{p+2} + (L+2a)^{p+2} - 2L^{p+2} - 2(2a)^{p+2}] / (4(p+1)(p+2)),
    the outer one L^k B(x/L) / (8(p+1)(p+2)k), B(y) = (1+y)^k - sgn(1-y)|1-y|^k
    - 2y^k - 2ky.  B cancels digits far from y = 1 (12 of 16 at R/t = 10^4), so
    below 1/2 and above 2 it is summed from exact binomial series, whose powers
    of y fold into those of L and x:
    B(y) = 2y^3 (sum_{odd j >= 3} C(k,j) y^{j-3} - y^p)
         = 2y^{k-2} (sum_{even j >= 2} C(k,j) y^{2-j} - k y^{-p}).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if radius <= 0:
        raise ValueError("radius must be positive")
    _check_hurst(hurst)
    if hurst == 0.5:
        if radius < 2.0 * t:
            raise ValueError(f"closed form requires radius >= 2t, got R={radius}, t={t}")
        return (2.0 / 3.0) * radius * t**3 - t**4 / 6.0
    p, y, big, x = 2.0 * hurst, t / radius, 2.0 * radius, 2.0 * t
    k = p + 3.0
    scale = 8.0 * (p + 1.0) * (p + 2.0) * k
    if y < 0.5:
        return big**p * x**3 * 2.0 * (_binomial_tail(k, 3, y) - y**p) / scale
    if y > 2.0:
        return big**2 * x ** (k - 2.0) * 2.0 * (_binomial_tail(k, 2, 1.0 / y) - k * y**-p) / scale
    bracket = (1.0 + y) ** k - math.copysign(abs(1.0 - y) ** k, 1.0 - y) - 2.0 * y**k - 2.0 * k * y
    return big**k * bracket / scale


def asymptotic_constants(hurst: float, times, curves: MomentCurves) -> np.ndarray:
    """Limit covariance matrix of the scaled averages on a time grid, checked
    symmetric positive semidefinite (eigenvalues >= -1e-10 of the largest)."""
    times = np.asarray(times, dtype=np.float64)
    n = times.size
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            cov[i, j] = cov[j, i] = cross_covariance(times[i], times[j], hurst, curves)
    eig = np.linalg.eigvalsh(cov)
    floor = -1e-10 * max(1.0, float(eig.max(initial=0.0)))
    if eig.min(initial=0.0) < floor:
        raise ValueError(f"limit covariance matrix is not PSD: min eigenvalue {eig.min():.3e}")
    return cov
