"""Analytic-layer tests.  Every closed form is checked against an independent
quadrature route computed here, plus frozen literal values where a formula has
a memorable exact evaluation."""

import decimal
import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate

from fracwave import analytic
from fracwave.analytic import (
    MomentCurves,
    asymptotic_constants,
    asymptotic_variance,
    cone_inner_product,
    cone_overlap_white,
    cone_window_overlap,
    cone_window_overlap_integral,
    cross_covariance,
    first_chaos_variance,
    linear_white_second_moment,
    linear_white_second_moment_volterra,
    prelimit_cross_white,
    prelimit_variance_white,
)
from fracwave.solver import SigmaSpec


# ------------------------------------------------- cone inner product


def _cone_product_quadrature(x, xi, t, s, hurst):
    """Independent oracle: 2 H(2H-1) int_{x-t}^{x+t} int_{xi-s}^{xi+s}
    |y-z|^{2H-2} dz dy, inner integral in closed antiderivative form."""
    alpha = hurst * (2.0 * hurst - 1.0)
    p = 2.0 * hurst - 1.0

    def signed_pow(v):
        return np.sign(v) * np.abs(v) ** p

    lo, hi = xi - s, xi + s

    def inner(y):
        return (signed_pow(y - lo) - signed_pow(y - hi)) / p

    pts = [q for q in (lo, hi) if x - t < q < x + t] or None
    val, _ = integrate.quad(inner, x - t, x + t, epsabs=1e-13, epsrel=1e-12, points=pts)
    return 2.0 * alpha * val


def test_cone_inner_product_vs_quadrature_randomized():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        x, xi = rng.uniform(-3, 3, size=2)
        t, s = rng.uniform(0.05, 2.0, size=2)
        hurst = rng.uniform(0.55, 0.95)
        closed = cone_inner_product(x, xi, t, s, hurst)
        oracle = _cone_product_quadrature(x, xi, t, s, hurst)
        scale = max(1.0, abs(oracle))
        assert abs(closed - oracle) / scale < 1e-6, (x, xi, t, s, hurst)
        checked += 1


def test_cone_inner_product_degenerate_and_symmetry():
    # zero half-width on either side kills the product
    assert cone_inner_product(0.4, -1.0, 0.0, 0.7, 0.75) == pytest.approx(0.0, abs=1e-14)
    assert cone_inner_product(0.4, -1.0, 0.7, 0.0, 0.75) == pytest.approx(0.0, abs=1e-14)
    # symmetric in swapping (x,t) with (xi,s)
    a = cone_inner_product(0.3, -0.6, 1.1, 0.4, 0.8)
    b = cone_inner_product(-0.6, 0.3, 0.4, 1.1, 0.8)
    assert a == pytest.approx(b, rel=1e-14)
    # coincident unit cones at H=3/4: 4^{3/4}+4^{3/4}-0-0 over the formula
    val = cone_inner_product(0.0, 0.0, 1.0, 1.0, 0.75)
    assert val == pytest.approx(2.0 * 4.0**0.75, rel=1e-14)


def test_cone_inner_product_validation():
    with pytest.raises(ValueError, match="cone_overlap_white"):
        cone_inner_product(0.0, 0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        cone_inner_product(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cone_inner_product(0.0, 0.0, -1.0, 1.0, 0.75)


def test_cone_overlap_white_matches_interval_overlap():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, xi = rng.uniform(-3, 3, size=2)
        t, s = rng.uniform(0.0, 2.0, size=2)
        direct = 2.0 * max(
            0.0, min(x + t, xi + s) - max(x - t, xi - s)
        )
        assert cone_overlap_white(x, xi, t, s) == pytest.approx(direct, abs=0.0)
    # the fractional closed form tends to the white value as H -> 1/2
    near = cone_inner_product(0.2, -0.1, 1.0, 0.6, 0.5 + 1e-9)
    assert near == pytest.approx(cone_overlap_white(0.2, -0.1, 1.0, 0.6), abs=1e-6)


# ------------------------------------------------- window-cone overlap


def test_cone_window_overlap_pointwise():
    # flat region: profile equals the cone half-width when fully inside
    assert cone_window_overlap(0.25, 0.0, 1.0, 4.0) == pytest.approx(0.75)
    # outside the enlarged window it vanishes
    assert cone_window_overlap(0.25, 6.0, 1.0, 4.0) == 0.0
    # at s > t the cross-section is empty
    assert cone_window_overlap(1.5, 0.0, 1.0, 4.0) == 0.0
    # never exceeds min(radius, t-s)
    ys = np.linspace(-8, 8, 400)
    vals = [cone_window_overlap(0.2, y, 1.0, 0.5) for y in ys]
    assert max(vals) <= min(0.5, 0.8) + 1e-15


def test_cone_window_overlap_integral_vs_quadrature():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        b = rng.uniform(0.1, 2.0)
        a = rng.uniform(0.0, b)
        radius = rng.uniform(2.0 * b, 8.0 * b)
        t = 3.0  # profiles depend on (a, b) through t - s only
        def product(y):
            return (
                cone_window_overlap(t - a, y, t, radius)
                * cone_window_overlap(t - b, y, t, radius)
            )
        span = radius + b
        kinks = sorted(
            q
            for base in (radius - a, radius + a, radius - b, radius + b)
            for q in (base, -base)
            if -span < q < span
        )
        val, _ = integrate.quad(
            product, -span, span, epsabs=1e-13, epsrel=1e-12, limit=500, points=kinks,
        )
        closed = cone_window_overlap_integral(a, b, radius)
        assert closed == pytest.approx(val / radius, abs=1e-9), (a, b, radius)
        checked += 1


def test_cone_window_overlap_integral_frozen_value():
    # a=1, b=2, R=4: 2*1*2 - (1*4/2 + 1/6)/4 = 83/24
    assert cone_window_overlap_integral(1.0, 2.0, 4.0) == pytest.approx(83.0 / 24.0, rel=1e-15)


def test_cone_window_overlap_integral_validation():
    with pytest.raises(ValueError, match="radius >= 2b"):
        cone_window_overlap_integral(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        cone_window_overlap_integral(2.0, 1.0, 8.0)
    with pytest.raises(ValueError):
        cone_window_overlap_integral(-0.5, 1.0, 8.0)


# ------------------------------------------------- moment curves


def _linear_mean_only() -> MomentCurves:
    """The curves of sigma(u) = u under fractional noise: mean 1 at every H,
    no second moment."""
    return MomentCurves.closed_form(SigmaSpec.linear(), 0.75)


def test_moment_curves_closed_form_by_sigma_kind():
    const = MomentCurves.closed_form(SigmaSpec.constant(3.0), 0.75)
    assert (const.mean_sigma(0.4), const.mean_sigma_sq(0.4)) == (3.0, 9.0)
    white = MomentCurves.closed_form(SigmaSpec.linear(), 0.5)
    assert white.mean_sigma_sq is linear_white_second_moment
    frac = MomentCurves.closed_form(SigmaSpec.linear(), 0.75)
    assert frac.mean_sigma(0.4) == 1.0 and frac.mean_sigma_sq is None
    assert MomentCurves.closed_form(SigmaSpec.affine_sine(1.0, 0.5), 0.5) is None
    assert MomentCurves.closed_form(SigmaSpec.tabulated([0.0, 1.0], [1.0, 2.0]), 0.5) is None


def test_moment_curves_from_samples_interpolates():
    knots = np.array([0.0, 1.0, 2.0])
    curves = MomentCurves.from_samples(knots, [1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
    assert curves.mean_sigma(0.5) == pytest.approx(1.5)
    assert curves.mean_sigma_sq(1.5) == pytest.approx(6.5)
    assert curves.knots is knots
    with pytest.raises(ValueError):
        MomentCurves.from_samples(knots, [1.0, 2.0], [1.0, 4.0, 9.0])


def test_volterra_route_matches_closed_form():
    # independent dual route: trapezoid marching vs cosh(t/sqrt 2)
    for t in (0.25, 0.5, 1.0, 2.0):
        stepped = linear_white_second_moment_volterra(t, step=1e-3)
        assert stepped == pytest.approx(linear_white_second_moment(t), abs=1e-6)
    assert linear_white_second_moment(1.0) == pytest.approx(1.260592, abs=5e-7)
    assert linear_white_second_moment_volterra(0.0, step=1e-3) == 1.0


def test_volterra_step_refinement_second_order():
    coarse = abs(linear_white_second_moment_volterra(1.0, step=4e-3) - linear_white_second_moment(1.0))
    fine = abs(linear_white_second_moment_volterra(1.0, step=1e-3) - linear_white_second_moment(1.0))
    assert fine < coarse / 8.0  # trapezoid: error drops ~16x for a 4x step cut


# ------------------------------------------------- variances


def test_asymptotic_variance_white_constant_sigma():
    # sigma = c: 2 c^2 t^3 / 3, frozen at t=1, c=1: 2/3
    curves = MomentCurves.constant(1.0)
    assert asymptotic_variance(1.0, 0.5, curves) == pytest.approx(2.0 / 3.0, rel=1e-12)
    curves3 = MomentCurves.constant(3.0)
    assert asymptotic_variance(2.0, 0.5, curves3) == pytest.approx(
        2.0 * 9.0 * 8.0 / 3.0, rel=1e-12
    )


def test_asymptotic_variance_white_linear_sigma_frozen():
    # 2 int_0^1 (1-s)^2 cosh(s/sqrt2) ds = 0.683533130...
    val = asymptotic_variance(1.0, 0.5, MomentCurves.linear_white())
    series, _ = integrate.quad(
        lambda s: (1.0 - s) ** 2 * np.cosh(s / np.sqrt(2.0)), 0.0, 1.0, epsabs=1e-13
    )
    assert val == pytest.approx(2.0 * series, rel=1e-12)
    assert val == pytest.approx(0.683533130180856, abs=1e-12)


def test_asymptotic_variance_fractional():
    # sigma mean 1: 2^{2H} t^3/3; H=3/4, t=1: 4^{3/4}/3 = 0.9428090...
    val = asymptotic_variance(1.0, 0.75, _linear_mean_only())
    assert val == pytest.approx(4.0**0.75 / 3.0, rel=1e-12)
    assert val == pytest.approx(0.942809, abs=5e-7)
    # constant curves work too (mean used, not second moment)
    val2 = asymptotic_variance(1.0, 0.9, MomentCurves.constant(2.0))
    assert val2 == pytest.approx(2.0**1.8 * 4.0 / 3.0, rel=1e-12)


def test_asymptotic_variance_validation():
    with pytest.raises(ValueError, match="second-moment"):
        asymptotic_variance(1.0, 0.5, _linear_mean_only())
    assert asymptotic_variance(0.0, 0.75, MomentCurves.constant(1.0)) == 0.0
    with pytest.raises(ValueError):
        asymptotic_variance(-1.0, 0.75, MomentCurves.constant(1.0))
    with pytest.raises(ValueError):
        asymptotic_variance(1.0, 0.4, MomentCurves.constant(1.0))


def test_asymptotic_variance_keeps_the_bits_of_its_own_integral():
    # the variance is the diagonal of cross_covariance, whose kernel
    # (t-s)*(t-s) rounds as the (t-s)**2 it was once integrated with
    knots = np.linspace(0.0, 12.0, 49)
    mean = 1.0 + 0.3 * np.sin(knots)
    kinds = [MomentCurves.constant(0.0), MomentCurves.constant(1.7), MomentCurves.linear_white(),
             _linear_mean_only(),
             MomentCurves.from_samples(knots, mean, mean**2 + 0.2 + 0.05 * knots)]
    grid = [0.0, 1.0 / 64.0, 0.1, 1.0 / 3.0, 1.0, 2.5, 7.75, 10.0, 11.9,
            *np.random.default_rng(15).uniform(0.0, 12.0, 20)]
    for curves in kinds:
        for hurst in (0.5, 0.55, 0.75, 0.9, 0.99):
            if hurst == 0.5 and curves.mean_sigma_sq is None:
                continue
            for t in grid:
                old = 0.0 if t == 0 else analytic._limit_integral(
                    lambda s: (t - s) ** 2, t, hurst, curves)
                assert asymptotic_variance(t, hurst, curves) == old, (t, hurst)


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    # the rule is written out so that no command imports numpy.polynomial;
    # every moment-oracle float depends on these 16 bits
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert analytic._GL_NODES.tobytes() == nodes.tobytes()
    assert analytic._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_moment_rule_refuses_a_time_past_the_panel_cap():
    curves = MomentCurves.constant(1.0)
    cap = analytic._MAX_UNIT_PANELS
    # at the cap the rule still runs, and stays exact: 2 int_0^t (t-s)^2 ds
    assert asymptotic_variance(float(cap), 0.5, curves) == pytest.approx(2.0 * cap**3 / 3.0, rel=1e-12)
    for t in (cap + 0.5, 1e5, 1e300, math.inf):
        named = re.escape(f"t={t!r}")
        with pytest.raises(ValueError, match=named):
            asymptotic_variance(t, 0.5, curves)
        with pytest.raises(ValueError, match=named):
            cross_covariance(t, 2.0 * t, 0.75, curves)
        with pytest.raises(ValueError, match=named):
            prelimit_variance_white(t, 2.0 * t, curves)


def test_prelimit_variance_white_exact_polynomial():
    # sigma = 1: int_0^t [2R(t-s)^2 - (2/3)(t-s)^3] ds = 2Rt^3/3 - t^4/6
    curves = MomentCurves.constant(1.0)
    for t, radius in ((1.0, 2.0), (0.5, 4.0), (1.0, 32.0)):
        val = prelimit_variance_white(t, radius, curves)
        assert val == pytest.approx(
            (2.0 / 3.0) * radius * t**3 - t**4 / 6.0, rel=1e-12
        ), (t, radius)
    # frozen: t=1, R=2 gives 7/6
    assert prelimit_variance_white(1.0, 2.0, curves) == pytest.approx(7.0 / 6.0, rel=1e-12)


def test_prelimit_variance_white_vs_overlap_quadrature():
    # independent route: the overlap profile is the kernel-integrated window
    # weight, so Var = int_0^t E[sigma^2](s) int phi(s,y)^2 dy ds
    curves = MomentCurves.linear_white()
    t, radius = 1.0, 4.0

    def layer(s):
        span = radius + (t - s)
        val, _ = integrate.quad(
            lambda y: cone_window_overlap(s, y, t, radius) ** 2,
            -span, span, epsabs=1e-12, limit=300,
        )
        return val * linear_white_second_moment(s)

    oracle, _ = integrate.quad(layer, 0.0, t, epsabs=1e-10, limit=100)
    assert prelimit_variance_white(t, radius, curves) == pytest.approx(oracle, abs=1e-8)


def test_prelimit_variance_bounds_and_limit():
    curves = MomentCurves.linear_white()
    t = 1.0
    limit = asymptotic_variance(t, 0.5, curves)
    prev_gap = None
    for radius in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        exact = prelimit_variance_white(t, radius, curves)
        gap = abs(exact / radius - limit)
        if prev_gap is not None:
            assert gap < prev_gap  # approach is monotone in R
        prev_gap = gap
    assert gap < 0.005  # at R=64 the gap is O(1/R)
    with pytest.raises(ValueError, match="2t"):
        prelimit_variance_white(1.0, 1.5, curves)


# ------------------------------------------------- moment quadrature rule


def _knot_quad(f, upper, knots=None):
    """Adaptive companion of the Gauss-Legendre rule, told the curve's kinks."""
    pts = None if knots is None else knots[(knots > 0.0) & (knots < upper)]
    val, _ = integrate.quad(
        f, 0.0, upper, points=pts if pts is not None and pts.size else None,
        epsabs=0.0, epsrel=1e-13, limit=400,
    )
    return val


def test_moment_oracles_match_adaptive_quadrature():
    # every curve family the program builds, at times on and off the knots
    knots = np.linspace(0.0, 10.0, 41)
    mean = 1.0 + 0.3 * np.sin(knots)
    sampled = MomentCurves.from_samples(knots, mean, mean**2 + 0.2 + 0.05 * knots)
    cases = [
        (MomentCurves.constant(1.7), 0.5), (MomentCurves.constant(1.7), 0.75),
        (MomentCurves.linear_white(), 0.5), (_linear_mean_only(), 0.75),
        (sampled, 0.5), (sampled, 0.75),
    ]
    for case, (curves, hurst) in enumerate(cases):
        coef = 2.0 ** (2.0 * hurst)

        def moment(s, c=curves, white=hurst == 0.5):
            return float(c.mean_sigma_sq(s)) if white else float(c.mean_sigma(s)) ** 2

        for t in (0.25, 0.6, 1.0, 3.3, 7.5, 10.0):
            tj = 1.2 * t + 0.1
            pairs = [
                (asymptotic_variance(t, hurst, curves),
                 coef * _knot_quad(lambda s: (t - s) ** 2 * moment(s), t, curves.knots)),
                (cross_covariance(tj, t, hurst, curves),
                 coef * _knot_quad(lambda s: (t - s) * (tj - s) * moment(s), t, curves.knots)),
            ]
            if hurst == 0.5:
                radius = 2.0 * tj + 1.0

                def cross(s):
                    a, b = t - s, tj - s
                    return moment(s) * (2.0 * radius * a * b - (0.5 * a * b**2 + a**3 / 6.0))

                pairs += [
                    (prelimit_variance_white(t, radius, curves), _knot_quad(
                        lambda s: moment(s) * (2.0 * radius * (t - s) ** 2 - (2.0 / 3.0) * (t - s) ** 3),
                        t, curves.knots)),
                    (prelimit_cross_white(t, tj, radius, curves), _knot_quad(cross, t, curves.knots)),
                ]
            for got, want in pairs:
                assert got == pytest.approx(want, rel=1e-11), (case, t)


def _beta_moment(m, coeffs, t):
    """int_0^t (t-s)^m p(s) ds for p(s) = sum_k coeffs[k] s^k, term by term:
    int_0^t (t-s)^m s^k ds = t^{m+k+1} m! k! / (m+k+1)!."""
    from math import factorial

    return sum(
        c * t ** (m + k + 1) * factorial(m) * factorial(k) / factorial(m + k + 1)
        for k, c in enumerate(coeffs)
    )


def test_moment_oracles_exact_for_polynomial_curves():
    # E[sigma] = 1 + s/2 and E[sigma^2] = 1 + s + s^2: degree 5 integrands,
    # which an 8-point rule integrates exactly on any panel
    curves = MomentCurves(mean_sigma=lambda s: 1.0 + 0.5 * s, mean_sigma_sq=lambda s: 1.0 + s + s * s)
    sq, mean_sq = (1.0, 1.0, 1.0), (1.0, 1.0, 0.25)
    for t in (0.5, 1.0, 2.5, 7.3, 10.0):
        assert asymptotic_variance(t, 0.5, curves) == pytest.approx(
            2.0 * _beta_moment(2, sq, t), rel=1e-14)
        assert asymptotic_variance(t, 0.75, curves) == pytest.approx(
            2.0**1.5 * _beta_moment(2, mean_sq, t), rel=1e-14)
        radius = 2.0 * t + 1.0
        assert prelimit_variance_white(t, radius, curves) == pytest.approx(
            2.0 * radius * _beta_moment(2, sq, t) - (2.0 / 3.0) * _beta_moment(3, sq, t), rel=1e-14)
        # (t+d-s) = (t-s) + d splits the cross kernels into (t-s)^m terms
        d = 0.75
        m1, m2, m3 = (_beta_moment(m, sq, t) for m in (1, 2, 3))
        assert cross_covariance(t, t + d, 0.5, curves) == pytest.approx(
            2.0 * (m2 + d * m1), rel=1e-14)
        radius = 2.0 * (t + d)
        assert prelimit_cross_white(t, t + d, radius, curves) == pytest.approx(
            2.0 * radius * (m2 + d * m1) - (0.5 * (m3 + 2.0 * d * m2 + d * d * m1) + m3 / 6.0),
            rel=1e-14)


# ------------------------------------------------- cross covariances


def test_prelimit_cross_white_consistency():
    curves = MomentCurves.constant(1.0)
    # ti = tj reduces to the variance
    v = prelimit_cross_white(1.0, 1.0, 8.0, curves)
    assert v == pytest.approx(prelimit_variance_white(1.0, 8.0, curves), rel=1e-12)
    # symmetric
    assert prelimit_cross_white(0.5, 1.0, 8.0, curves) == pytest.approx(
        prelimit_cross_white(1.0, 0.5, 8.0, curves), rel=1e-12
    )
    with pytest.raises(ValueError):
        prelimit_cross_white(0.5, 1.0, 1.5, curves)


def test_prelimit_cross_white_vs_overlap_quadrature():
    curves = MomentCurves.constant(1.0)
    ti, tj, radius = 0.5, 1.0, 4.0

    def layer(s):
        span = radius + (tj - s)
        kinks = sorted(
            q
            for w in (radius - (ti - s), radius + (ti - s), radius - (tj - s), radius + (tj - s))
            for q in (w, -w)
            if -span < q < span
        )
        val, _ = integrate.quad(
            lambda y: cone_window_overlap(s, y, ti, radius)
            * cone_window_overlap(s, y, tj, radius),
            -span, span, epsabs=1e-12, limit=300, points=kinks,
        )
        return val

    oracle, _ = integrate.quad(layer, 0.0, ti, epsabs=1e-10, limit=100)
    assert prelimit_cross_white(ti, tj, radius, curves) == pytest.approx(oracle, abs=1e-8)


def test_cross_covariance_frozen_values():
    curves = MomentCurves.constant(1.0)
    # 2 int_0^{1/2} (1/2 - s)(1 - s) ds = 5/24
    val = cross_covariance(0.5, 1.0, 0.5, curves)
    poly, _ = integrate.quad(lambda s: (0.5 - s) * (1.0 - s), 0.0, 0.5, epsabs=1e-14)
    assert val == pytest.approx(2.0 * poly, rel=1e-12)
    assert val == pytest.approx(5.0 / 24.0, rel=1e-12)
    # fractional analog: 2^{2H} times the same polynomial; H=3/4 -> 2^{1.5}*5/48
    frac = cross_covariance(0.5, 1.0, 0.75, _linear_mean_only())
    assert frac == pytest.approx(2.0**1.5 * 5.0 / 48.0, rel=1e-12)
    assert frac == pytest.approx(0.294628, abs=5e-7)
    # zero time gives zero covariance
    assert cross_covariance(0.0, 1.0, 0.75, curves) == 0.0


def test_cross_covariance_diag_matches_variance():
    curves = MomentCurves.linear_white()
    assert cross_covariance(1.0, 1.0, 0.5, curves) == pytest.approx(
        asymptotic_variance(1.0, 0.5, curves), rel=1e-10
    )
    frac_curves = _linear_mean_only()
    assert cross_covariance(0.7, 0.7, 0.8, frac_curves) == pytest.approx(
        asymptotic_variance(0.7, 0.8, frac_curves), rel=1e-10
    )


def test_asymptotic_constants_psd_and_consistency():
    curves = MomentCurves.linear_white()
    times = [0.25, 0.5, 1.0]
    cov = asymptotic_constants(0.5, times, curves)
    assert cov.shape == (3, 3)
    assert np.allclose(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > -1e-12
    assert cov[2, 2] == pytest.approx(asymptotic_variance(1.0, 0.5, curves), rel=1e-10)
    frac_curves = _linear_mean_only()
    frac = asymptotic_constants(0.75, times, frac_curves)
    assert frac[0, 1] == pytest.approx(cross_covariance(0.25, 0.5, 0.75, frac_curves), rel=1e-10)


# ------------------------------------------------- first chaos


def test_first_chaos_white_closed_form():
    # (2/3) R t^3 - t^4/6; frozen t=1, R=2: 7/6
    assert first_chaos_variance(1.0, 2.0, 0.5) == pytest.approx(7.0 / 6.0, rel=1e-15)
    assert first_chaos_variance(0.5, 1.0, 0.5) == pytest.approx(
        (2.0 / 3.0) * 1.0 * 0.125 - 0.0625 / 6.0, rel=1e-15
    )
    with pytest.raises(ValueError, match="2t"):
        first_chaos_variance(1.0, 1.0, 0.5)


def test_first_chaos_white_equals_constant_sigma_variance():
    # for sigma = 1 the average is purely first-chaos, so the variance routes agree
    curves = MomentCurves.constant(1.0)
    for t, radius in ((1.0, 2.0), (0.5, 8.0)):
        assert first_chaos_variance(t, radius, 0.5) == pytest.approx(
            prelimit_variance_white(t, radius, curves), rel=1e-12
        )


def test_first_chaos_fractional_vs_brute_quadrature():
    # small case, brute double integral over the window of the cone product
    t, radius, hurst = 0.5, 1.0, 0.75

    def layer(s):
        a = t - s

        def outer(y1):
            val, _ = integrate.quad(
                lambda y2: cone_inner_product(y1, y2, a, a, hurst),
                -radius, radius, epsabs=1e-11, epsrel=1e-10, limit=200,
                points=[p for p in (y1 - 2 * a, y1 + 2 * a) if -radius < p < radius] or None,
            )
            return val

        val, _ = integrate.quad(outer, -radius, radius, epsabs=1e-9, limit=100)
        return val

    brute, _ = integrate.quad(layer, 0.0, t, epsabs=1e-7, limit=60)
    # 1/4 from the squared wave kernel, 1/2 because the cone product function
    # is twice the kernel-pair integral
    brute *= 0.125
    fast = first_chaos_variance(t, radius, hurst)
    assert fast == pytest.approx(brute, rel=1e-5)


def test_first_chaos_fractional_scaling_trend():
    # v/R^{2H} increases toward 4^H t^3/3 as R grows
    hurst, t = 0.75, 1.0
    limit = 4.0**hurst / 3.0
    scaled = [
        first_chaos_variance(t, radius, hurst) / radius ** (2 * hurst)
        for radius in (8.0, 16.0, 32.0, 64.0)
    ]
    assert all(b > a for a, b in zip(scaled, scaled[1:]))
    assert all(s < limit for s in scaled)
    assert scaled[-1] == pytest.approx(limit, rel=2e-3)
    # frozen mid-grid value, R=32
    assert scaled[2] == pytest.approx(0.942050, abs=5e-6)


def test_first_chaos_hurst_continuity_at_half():
    # H -> 1/2 limit of the fractional quadrature recovers the white closed form
    val = first_chaos_variance(1.0, 4.0, 0.5 + 1e-7)
    assert val == pytest.approx(first_chaos_variance(1.0, 4.0, 0.5), rel=1e-4)


def _first_chaos_nested_quad(t, radius, hurst):
    """The adaptive reference the closed form replaced: the window-kernel
    reduction int_0^t (1/8) int_{-2R}^{2R} (2R - |d|) q(d; t-s) dd ds with
    q(d; a) = |d-2a|^{2H} + |d+2a|^{2H} - 2|d|^{2H}, by nested QUADPACK."""
    two_h = 2.0 * hurst
    scale = radius**two_h

    def inner(a):
        if a == 0.0:
            return 0.0

        def g(d):
            q = abs(d - 2.0 * a) ** two_h + abs(d + 2.0 * a) ** two_h - 2.0 * abs(d) ** two_h
            return (2.0 * radius - d) * q

        pts = [p for p in (2.0 * a,) if 0.0 < p < 2.0 * radius]
        val, _ = integrate.quad(
            g, 0.0, 2.0 * radius, points=pts, epsabs=1e-10 * scale, epsrel=1e-9, limit=200
        )
        return 0.25 * val  # = (1/8) * symmetric integral over [-2R, 2R]

    val, _ = integrate.quad(
        lambda s: inner(t - s), 0.0, t, epsabs=1e-8 * scale, epsrel=1e-8, limit=200
    )
    return val


def _first_chaos_decimal(t, radius, hurst, digits=50):
    """The closed form's direct bracket, in 50-digit decimal arithmetic:
    [(L+x)^k - sgn(L-x)|L-x|^k - 2x^k - 2k x L^{k-1}] / (8(p+1)(p+2)k),
    p = 2H, k = p + 3, L = 2R, x = 2t."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        p = 2 * decimal.Decimal(hurst)
        k, big, x = p + 3, 2 * decimal.Decimal(radius), 2 * decimal.Decimal(t)
        gap = big - x
        signed = gap.copy_abs() ** k if gap > 0 else -(gap.copy_abs() ** k)
        bracket = (big + x) ** k - signed - 2 * x**k - 2 * k * x * big ** (k - 1)
        return float(bracket / (8 * (p + 1) * (p + 2) * k))


def test_first_chaos_closed_form_matches_nested_quadrature():
    # 175 cases, R < t among them; QUADPACK's own tolerances are 1e-8 to 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for hurst in (0.55, 0.6, 0.75, 0.9, 0.99):
            for t in (0.25, 0.5, 1.0, 2.0, 5.0):
                for radius in (0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 128.0):
                    assert first_chaos_variance(t, radius, hurst) == pytest.approx(
                        _first_chaos_nested_quad(t, radius, hurst), rel=1e-8, abs=0.0
                    ), (t, radius, hurst)


def test_first_chaos_closed_form_matches_decimal_reference():
    # R/t from 1e-6 to 1e6: the float bracket alone would cancel 12 digits at
    # 1e4, where quad itself warns, and 7 at 1e-4; the two series keep the
    # float form within 1e-13 (R/t = 1/2 and 2 are the branch points)
    ratios = [*np.geomspace(1e-6, 1e6, 25), 0.4, 0.5, 0.6, 1.0, 1.9, 2.0, 2.1, 3.0]
    for hurst in (0.5 + 1e-7, 0.51, 0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99):
        for t in (0.3, 1.0, 2.5):
            for ratio in ratios:
                radius = t * float(ratio)
                assert first_chaos_variance(t, radius, hurst) == pytest.approx(
                    _first_chaos_decimal(t, radius, hurst), rel=1e-13, abs=0.0
                ), (t, radius, hurst)
