"""Acceptance gate: nine numbered criteria, each printing one
"[acceptance] criterion N: PASS/FAIL" line (run with -s to see them live).

Monte Carlo sizes and lattice steps are fixed by the criteria themselves;
this module is intentionally the slow part of the suite (several minutes).
Ensembles (E is run by criterion 7 itself, through fracwave rate's study):

  A  constant sigma=1, H=1/2,  h=1/64, t=1,          R=2            (criterion 2)
  B  linear sigma,     H=1/2,  h=1/64, t=1,          R=4,8,16,32    (criteria 3, 5)
  C  linear sigma,     H=3/4,  h=1/32, t=0.5,1,      R=8,16,32      (criteria 4, 5)
  D  constant sigma=1, H=1/2,  h=1/64, t=0.25,0.5,1, R=8,16,32      (criteria 6, 8)
  E  sigma=1+sin(u)/2, H=1/2,  h=1/32, t=1,          R=4,8,16,32    (criterion 7)
     chaos on, M_E = 3*10^4 replicas (every other ensemble has M = 10^4)
  F  constant sigma=1, H=3/4,  h=1/32, t=0.5,1,      R=32           (criterion 6)
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.integrate

from fracwave import analytic
from fracwave.cli import _rate_study
from fracwave.estimators import (
    ExperimentPlan,
    first_chaos_weights,
    functional_cov_check,
    merge_chunks,
    resolve_threads,
    run_experiment,
    run_replica_chunk,
    summarize,
    summary_to_dict,
    tightness_moment,
)
from fracwave.noise import NoiseSpec, fgn_cell_covariance, sample_sheet
from fracwave.solver import LatticeConfig, SigmaSpec, solve

M = 10_000
# ensemble E: the smallest size at which criterion 7 passes on each of the
# seeds 11, 12, 13 under the philox2 stream (see the criterion's docstring)
M_E = 30_000


@contextmanager
def _criterion(n: int):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {n}: FAIL")
        raise
    print(f"[acceptance] criterion {n}: PASS")


# ---------------------------------------------------------------- ensembles


@pytest.fixture(scope="module")
def ens_a():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.constant(1.0), h=1.0 / 64.0,
        times=(1.0,), radii=(2.0,), replicas=M, seed=20_001,
        normalization="paper", chaos=False,
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def ens_b():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=1.0 / 64.0,
        times=(1.0,), radii=(4.0, 8.0, 16.0, 32.0), replicas=M, seed=20_002,
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def ens_c():
    plan = ExperimentPlan(
        hurst=0.75, sigma=SigmaSpec.linear(), h=1.0 / 32.0,
        times=(0.5, 1.0), radii=(8.0, 16.0, 32.0), replicas=M, seed=20_003,
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def ens_d():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.constant(1.0), h=1.0 / 64.0,
        times=(0.25, 0.5, 1.0), radii=(8.0, 16.0, 32.0), replicas=M,
        seed=20_004, chaos=False,
    )
    return run_experiment(plan, tasks={})  # criteria 6 and 8 read the samples only


@pytest.fixture(scope="module")
def ens_f():
    plan = ExperimentPlan(
        hurst=0.75, sigma=SigmaSpec.constant(1.0), h=1.0 / 32.0,
        times=(0.5, 1.0), radii=(32.0,), replicas=M, seed=20_006, chaos=False,
    )
    return run_experiment(plan, tasks={})


# ---------------------------------------------------------------- criterion 1


def _signed_pow(z: float, p: float) -> float:
    return math.copysign(abs(z) ** p, z)


def _pair_integral_quadrature(x, xi, t, s, hurst):
    """Double integral of a|y-z|^{2H-2} over [x-t,x+t]x[xi-s,xi+s]: inner
    integral exact by antiderivative, outer by adaptive quadrature."""
    a = hurst * (2.0 * hurst - 1.0)
    p = 2.0 * hurst - 1.0
    lo, hi = xi - s, xi + s

    def inner(y):
        return (_signed_pow(y - lo, p) - _signed_pow(y - hi, p)) / p

    pts = [p_ for p_ in (lo, hi) if x - t < p_ < x + t]
    val, _ = scipy.integrate.quad(inner, x - t, x + t, points=pts or None, limit=200)
    return 2.0 * a * val


def _overlap_quadrature(a, b, radius):
    def f(y):
        return (
            analytic.cone_window_overlap(0.0, y, a, radius)
            * analytic.cone_window_overlap(0.0, y, b, radius)
        )

    kinks = sorted(
        {k for w in (a, b) for k in (radius - w, -(radius - w), radius + w, -(radius + w))}
    )
    span = radius + max(a, b)
    pts = [k for k in kinks if -span < k < span]
    val, _ = scipy.integrate.quad(f, -span, span, points=pts, limit=400)
    return val


def test_criterion_1_oracle_identities():
    """Closed forms vs independent quadrature, and the telescoping
    stationary-increment covariance identity; all under 10 seconds."""
    with _criterion(1):
        start = time.perf_counter()
        rng = np.random.default_rng(321)
        for _ in range(50):
            hurst = rng.uniform(0.55, 0.95)
            t, s = rng.uniform(0.2, 2.0, size=2)
            x, xi = rng.uniform(-2.0, 2.0, size=2)
            closed = analytic.cone_inner_product(x, xi, t, s, hurst)
            quad = _pair_integral_quadrature(x, xi, t, s, hurst)
            assert abs(closed - quad) <= 1e-6 * max(1.0, abs(quad))

        for _ in range(50):
            radius = rng.uniform(1.0, 8.0)
            b = rng.uniform(0.05, radius / 2.0)
            a = rng.uniform(0.05, b) if b > 0.05 else b
            closed = analytic.cone_window_overlap_integral(a, b, radius)
            quad = _overlap_quadrature(a, b, radius) / radius
            assert abs(closed - quad) <= 1e-9 * max(1.0, abs(quad))

        for hurst in (0.5, 0.6, 0.75, 0.9):
            for dx in (0.1, 0.25):
                cov = np.array(
                    [fgn_cell_covariance(lag, hurst, dx) for lag in range(-24, 25)]
                )
                for width in (1, 2, 3, 5, 8, 13, 20):
                    block = sum(
                        cov[24 + i - j] for i in range(width) for j in range(width)
                    )
                    assert abs(block - (width * dx) ** (2.0 * hurst)) < 1e-10
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_exact_gaussian_benchmark(ens_a):
    """Constant sigma, white noise: variance 7/6 at t=1, R=2 and a KS
    distance inside the 99% band (plus slack) for the exactly Gaussian
    normalized average."""
    with _criterion(2):
        ps = ens_a.stats[(0, 0)]
        target = 7.0 / 6.0
        assert analytic.prelimit_variance_white(
            1.0, 2.0, analytic.MomentCurves.constant(1.0)
        ) == pytest.approx(target, rel=1e-12)
        assert abs(ps.variance - target) <= 3.0 * ps.variance_se + 0.02 * target
        assert ps.scale == pytest.approx(math.sqrt(target), rel=1e-12)
        assert ps.ks is not None
        assert ps.ks < 0.0163 + 0.01
        assert ens_a.wall_seconds < 120.0


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_white_prelimit_variance(ens_b):
    """Linear sigma, white noise: variance matches the second-moment-curve
    quadrature at R=4, and Var/R approaches the limit value 0.6835... as R
    grows through 8, 16, 32."""
    with _criterion(3):
        curves = analytic.MomentCurves.linear_white()
        limit = analytic.asymptotic_variance(1.0, 0.5, curves)
        assert limit == pytest.approx(0.683533130180856, abs=1e-9)

        oracle = {r: analytic.prelimit_variance_white(1.0, r, curves) for r in (4.0, 8.0, 16.0, 32.0)}
        ps4 = ens_b.stats[(0, 0)]
        assert abs(ps4.variance - oracle[4.0]) <= 3.0 * ps4.variance_se + 0.03 * oracle[4.0]

        # the oracle itself trends: distance of Var/R from the limit strictly
        # shrinks with R, and the samples track the oracle at every R
        dist = [abs(oracle[r] / r - limit) for r in (8.0, 16.0, 32.0)]
        assert dist[0] > dist[1] > dist[2]
        emp_dist = {}
        for ir, r in enumerate(ens_b.plan.radii):
            ps = ens_b.stats[(0, ir)]
            assert abs(ps.variance - oracle[r]) <= 3.0 * ps.variance_se + 0.03 * oracle[r]
            emp_dist[r] = (abs(ps.variance / r - limit), ps.variance_se / r)
        d8, se8 = emp_dist[8.0]
        d32, se32 = emp_dist[32.0]
        assert d32 <= d8 + 3.0 * (se8 + se32)


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_fractional_asymptotic_variance(ens_c):
    """Linear sigma, H=3/4: Var/R^{2H} at t=1, R=32 within 15% of the limit
    4^{3/4}/3.  The tolerance is wide on purpose: for H>1/2 no closed
    pre-limit form exists, so the comparison is straight to the R->inf limit
    and absorbs both the finite-R deficit and the higher-chaos surplus."""
    with _criterion(4):
        target = 4.0**0.75 / 3.0
        assert target == pytest.approx(0.9428, abs=1e-4)
        ps = ens_c.stats[(1, 2)]  # t=1, R=32
        scaled = ps.variance / 32.0**1.5
        assert abs(scaled - target) <= 0.15 * target


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_chaos_decomposition(ens_b, ens_c):
    """First-chaos share of the variance: dominant (>= 0.85) under the
    fractional noise, close to its computed value but strictly below 1 under
    white noise; and in both cases Cov(G, I1) = Var(I1) within sampling
    error, the orthogonality signature of the chaos expansion."""
    with _criterion(5):
        # fractional, R=32, t=1
        ps_f = ens_c.stats[(1, 2)]
        assert ps_f.chaos_ratio >= 0.85
        assert abs(ps_f.chaos_cov - ps_f.chaos_var) <= 3.0 * ps_f.chaos_cov_se

        # white, R=32, t=1: exact finite-R ratio of the first-chaos variance
        # to the full variance, about 0.9757 (0.9753 in the R->inf limit)
        ps_w = ens_b.stats[(0, 3)]
        num = analytic.first_chaos_variance(1.0, 32.0, 0.5)
        den = analytic.prelimit_variance_white(1.0, 32.0, analytic.MomentCurves.linear_white())
        target = num / den
        assert 0.96 < target < 0.99
        assert abs(ps_w.chaos_ratio - target) <= 3.0 * ps_w.chaos_ratio_se
        assert ps_w.chaos_ratio < 1.0
        assert abs(ps_w.chaos_cov - ps_w.chaos_var) <= 3.0 * ps_w.chaos_cov_se


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_functional_clt_covariance(ens_d, ens_f):
    """Covariance across observation times of the scaled averages matches
    the limit covariance: white case against the polynomial value 5/24,
    fractional case against the quadrature oracle."""
    with _criterion(6):
        rep = functional_cov_check(ens_d, i_radius=2)  # R=32
        i, j = 1, 2  # times 0.5 and 1.0
        target = 5.0 / 24.0
        assert rep.oracle[i, j] == pytest.approx(target, rel=1e-9)
        assert abs(rep.empirical[i, j] - target) <= 3.0 * rep.se[i, j] + 0.05 * target

        rep_f = functional_cov_check(ens_f)
        target_f = analytic.cross_covariance(
            0.5, 1.0, 0.75, analytic.MomentCurves.constant(1.0)
        )
        assert target_f == pytest.approx(2.0**1.5 * 5.0 / 48.0, rel=1e-9)
        assert abs(rep_f.empirical[0, 1] - target_f) <= 0.15 * target_f


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_ks_rate():
    """Nonlinear sigma: the KS distance of the normalized average decays as
    the radius grows through 4, 8, 16, 32 (nonincreasing modulo noise, with
    at most one inversion exceeding its standard error), and the fitted
    log-log slope is negative with a bootstrap confidence interval
    excluding zero.

    The criterion runs fracwave rate's own study, cli._rate_study, on
    ensemble E: the same ladder, SEs, slope and bootstrap CI that the rate
    command prints, from the same code, timed from before the run.

    The distance is measured with ks_coupled: the empirical law of G/sd(G)
    against that of its first-chaos projection I/sd(I) on the same
    replicas.  I is a fixed linear functional of the Gaussian noise, so
    I/sd(I) is exactly standard normal and the coupled statistic estimates
    the same sup |F - Phi| as the plain KS statistic; corr(G, I) is 0.999
    here, so its floor is far lower.  SEs are delete-group jackknife, and
    the bootstrap resamples (G, I) pairs (cli._bootstrap_ks).

    Why not the plain statistic: its floor for exact Gaussians is about
    0.0074-0.0087 at 10^4 replicas, above the true distances.  Under the
    philox2 stream, on the first 10^4 replicas of this ensemble
    (bit-identical to its earlier chaos-off, 10^4-replica form) the plain
    ladder over R = 4..32 reads
    0.0055, 0.0111, 0.0118, 0.0075, slope +0.149, and the criterion
    failed; the coupled ladder on the same replicas reads 0.0076, 0.0041,
    0.0041, 0.0029 (SE 0.0010-0.0012), slope -0.42.  The coupled floor for
    exactly Gaussian pairs with correlation 0.999 is about 0.0035 at 10^4.

    Replica count, from a power study (same code, same assertions, 200
    bootstrap draws; prefixes of one 6*10^4 run per seed, which equal the
    smaller runs bit for bit), run under the philox2 stream:

        M        seed 11  seed 12  seed 13 | seed 14  seed 15 | seed 20005
        10^4     FAIL     FAIL     FAIL    | PASS     FAIL    | PASS
        2*10^4   FAIL     PASS     PASS    | PASS     PASS    | PASS
        3*10^4   PASS     PASS     PASS    | PASS     PASS    | PASS
        4..6*10^4  all PASS

    M_E = 3*10^4 is the smallest size at which all of seeds 11, 12, 13
    pass; seeds 14 and 15 were not used to choose it.  Under sfc64p3, at
    3*10^4, seeds 11-30 pass 16 of 20 (12, 13, 19 and 21 fail; 19 of 20
    under philox2, 21 failing): M_E awaits a power study on this stream.  At 3*10^4 the
    upper CI ends are -0.045, -0.065, -0.033, -0.057, -0.070 (seeds 11 to
    15) and the coupled slopes -0.22 to -0.31, while the plain slopes on
    the same samples swing from -0.19 to +0.13.  Under the sfc64p3 stream,
    seed 20005 at 3*10^4 reads 0.0039, 0.0030, 0.0028, 0.0027 (SE
    0.0005-0.0007), slope -0.18, CI [-0.28, -0.047]; the plain ladder
    reads 0.0077, 0.0076, 0.0098, 0.0050, slope -0.15.  (Under philox2 it
    read 0.0043, 0.0033, 0.0026, 0.0019, slope -0.38, CI [-0.35, -0.11];
    plain 0.0038, 0.0064, 0.0022, 0.0046, slope -0.07.)  As a cross-check
    free of the KS floor, the skewness of G/sd(G) with (b I)^3 as control
    variate (b the regression slope of G on I) falls as 0.038, 0.026,
    0.018, 0.014 (SE 0.001) at 6*10^4 under philox2, a log-log slope of
    -0.50 (-0.44 to -0.53 over seeds 11 to 14): the expected R^{-1/2}
    order of the Malliavin-Stein bounds (Huang-Nualart-Viitasaari, SPA
    2020)."""
    with _criterion(7):
        start = time.perf_counter()
        plan_e = ExperimentPlan(
            hurst=0.5, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=1.0 / 32.0,
            times=(1.0,), radii=(4.0, 8.0, 16.0, 32.0), replicas=M_E,
            seed=20_005, chaos=True,
        )
        ks, se, slope, (lo, hi) = _rate_study(plan_e, 200, resolve_threads())
        assert np.all(ks > 0.0)
        # noise-level wiggles are not inversions; beyond-noise ones are,
        # and a single one is tolerated
        beyond = [
            i for i in range(3)
            if ks[i + 1] - ks[i] > math.hypot(se[i], se[i + 1])
        ]
        assert len(beyond) <= 1
        assert slope < 0.0
        assert hi < 0.0
        assert time.perf_counter() - start < 1200.0


# ---------------------------------------------------------------- criterion 8


def _lattice_increment_moment(h: float, s: float, t: float, radius: float) -> float:
    """Exact lattice value of E (G(t) - G(s))^2 for sigma = 1, white noise.

    With a constant coefficient the averaged field is linear in the cells,
    which are iid with variance h^2, so the moment is h^2 * sum of squared
    weight differences.  This is the exact mean of the Monte Carlo
    estimator and isolates the O(h) scheme bias from sampling error."""
    cfg = LatticeConfig(h=h, t_max=t, x_half_width=radius + t)
    wt = first_chaos_weights(cfg, t, radius, 0.5)
    ws = first_chaos_weights(cfg, s, radius, 0.5)
    ns = ws.shape[0]
    return h * h * float(np.sum((wt[:ns] - ws) ** 2) + np.sum(wt[ns:] ** 2))


def test_criterion_8_tightness(ens_d):
    """Second moment of time increments of the average: the ratio to
    R (t-s)^2 stays within a single constant factor (max/min <= 5) across
    radii and time pairs, and each moment matches the window-profile
    difference quadrature within sampling error plus the scheme's O(h)
    bias, calibrated exactly from the constant-coefficient case (the bias
    is checked to shrink linearly when h is halved)."""
    with _criterion(8):
        h = ens_d.plan.h
        curves = analytic.MomentCurves.constant(1.0)
        pairs = [(0.25, 0.5), (0.5, 1.0), (0.25, 1.0)]
        ratios = []
        for radius in (8.0, 16.0, 32.0):
            for s, t in pairs:
                tm = tightness_moment(ens_d, 2.0, s, t, radius=radius)
                ratios.append(tm["ratio"])
                exact = (
                    analytic.prelimit_variance_white(t, radius, curves)
                    + analytic.prelimit_variance_white(s, radius, curves)
                    - 2.0 * analytic.prelimit_cross_white(s, t, radius, curves)
                )
                # discretization allowance from the exact linear-in-noise case
                bias = _lattice_increment_moment(h, s, t, radius) - exact
                coarse = _lattice_increment_moment(2.0 * h, s, t, radius) - exact
                assert 1.4 <= coarse / bias <= 2.6  # first-order in h
                assert abs(tm["moment"] - exact) <= 3.0 * tm["moment_se"] + abs(bias)
        ratios = np.asarray(ratios)
        assert np.all(ratios > 0.0)
        assert ratios.max() / ratios.min() <= 5.0


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_determinism_and_structure():
    """Reproducibility and structural exactness: byte-identical reruns,
    order-independent merges, strict cone locality, and the degenerate
    coefficient freezing the field at its initial value."""
    with _criterion(9):
        plan = ExperimentPlan(
            hurst=0.75, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=1.0 / 8.0,
            times=(0.5, 1.0), radii=(1.0,), replicas=64, seed=77,
        )
        s1 = run_experiment(plan, threads=1)
        s2 = run_experiment(plan, threads=1)
        assert s1.g_samples.tobytes() == s2.g_samples.tobytes()
        assert summary_to_dict(s1, deterministic=True) == summary_to_dict(s2, deterministic=True)

        a = run_replica_chunk(plan, range(0, 20))
        b = run_replica_chunk(plan, range(20, 50))
        c = run_replica_chunk(plan, range(50, 64))
        left = summarize(plan, merge_chunks(merge_chunks(a, b), c), 0.0)
        right = summarize(plan, merge_chunks(c, merge_chunks(b, a)), 0.0)
        assert left.g_samples.tobytes() == right.g_samples.tobytes()
        assert summary_to_dict(left, deterministic=True) == summary_to_dict(right, deterministic=True)

        # cone locality: noise outside the domain of dependence of the
        # center cannot change it, bit for bit
        cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=4.0)
        spec = NoiseSpec(hurst=0.5, dt=0.25, dx=0.25, n_time=cfg.n_steps,
                         n_space=cfg.n_cells, seed=5)
        sigma = SigmaSpec.affine_sine(1.0, 0.5)
        sheet = sample_sheet(spec, replica=0)
        base = solve(cfg, sheet, sigma)
        j0 = cfg.center_index
        level = cfg.time_index(1.0)
        tampered = sample_sheet(spec, replica=0)
        tampered.masses[0, -1] += 100.0  # far outside the center's cone
        other = solve(cfg, tampered, sigma)
        assert other.values[level, j0] == base.values[level, j0]
        assert not np.array_equal(
            np.nan_to_num(other.values), np.nan_to_num(base.values)
        )

        # sigma(1) = 0 freezes the constant-one field exactly
        degenerate = SigmaSpec.tabulated([-10.0, 10.0], [-11.0, 9.0])  # u - 1
        assert degenerate.is_degenerate
        frozen = solve(cfg, sheet, degenerate)
        interior = ~np.isnan(frozen.values)
        assert np.all(frozen.values[interior] == 1.0)
