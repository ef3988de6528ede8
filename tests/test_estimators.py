"""Estimator tests: KS statistic against scipy and analytic oracles, chaos
projection identities, merge algebra at the byte level, and summary
statistics against the analytic module on small ensembles."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr

from fracwave import analytic, estimators, noise
from fracwave.estimators import (
    ExperimentPlan,
    first_chaos_weights,
    functional_cov_check,
    ks_coupled,
    ks_coupled_se,
    ks_critical,
    ks_normality,
    merge_chunks,
    plan_hash,
    plan_to_dict,
    resolve_threads,
    run_experiment,
    run_replica_chunk,
    summarize,
    summary_to_dict,
    tightness_moment,
    window_averages,
)
from fracwave.noise import NoiseSpec, sample_sheet
from fracwave.solver import KAPPA, LatticeConfig, SigmaSpec, solve


@pytest.fixture(scope="module")
def white_linear_summary():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=1.0 / 16.0,
        times=(0.5, 1.0), radii=(2.0, 4.0), replicas=1200, seed=101,
    )
    return run_experiment(plan, threads=1)


# ------------------------------------------------------------ KS statistic


def test_ks_matches_scipy_exactly():
    rng = np.random.default_rng(5)
    for n in (100, 500, 2000):
        z = rng.standard_normal(n)
        assert ks_normality(z) == pytest.approx(
            scipy.stats.kstest(z, "norm").statistic, abs=1e-12
        )


def test_ks_shifted_sample_analytic_value():
    # shifting N(0,1) by c makes the KS distance sup_x |Phi(x-c) - Phi(x)|
    # = Phi(c/2) - Phi(-c/2); for c = 1 that is 0.38292...
    rng = np.random.default_rng(6)
    z = rng.standard_normal(200_000) + 1.0
    target = 2.0 * scipy.stats.norm.cdf(0.5) - 1.0
    assert target == pytest.approx(0.3829, abs=1e-4)
    assert ks_normality(z) == pytest.approx(target, abs=0.005)


def test_ks_sample_size_guard():
    with pytest.raises(ValueError, match="100"):
        ks_normality(np.zeros(99))
    with pytest.raises(ValueError):
        ks_normality([0.0])


def _ks_full(samples):
    # the formula ks_normality prunes: every term of the sup, at every rank
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    cdf = ndtr(x)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.maximum(i / n - cdf, cdf - (i - 1.0) / n).max())


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("n", [100, 127, 128, 1000, 4095, 4096, 4097, 8191, 8192, 8193, 12_800, 29_700,
                               30_000, 40_000])
def test_ks_normality_equals_full_formula(n):
    # sizes below and above the pruning threshold, multiples of the block
    # and not; ties, skew and heavy tails move the sup around
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n)
    samples = {
        "normal": z,
        "scaled": 1.03 * z + 0.01,
        "tied": np.round(z, 1),
        "coarse_ties": np.round(2.0 * z),
        "skewed": rng.exponential(size=n) - 1.0,
        "heavy": rng.standard_t(2, size=n),
        "cauchy": rng.standard_cauchy(n),
        "near_normal": z + 0.05 * (z**2 - 1.0),
        "all_equal": np.full(n, 0.3),
        "inf": np.concatenate([z[:-3], [np.inf, -np.inf, np.inf]]),
        "nan": np.concatenate([z[:-1], [np.nan]]),
        "nan_inf": np.concatenate([z[:-2], [np.nan, -np.inf]]),
    }
    for kind, x in samples.items():
        got, want = ks_normality(x), _ks_full(x)
        assert _same_float(got, want), (kind, got, want)
    assert math.isnan(ks_normality(samples["nan"]))


def test_ks_normality_equals_full_formula_randomized():
    rng = np.random.default_rng(12)

    def check(n):
        x = rng.standard_normal(n) * rng.uniform(0.9, 1.1) + rng.uniform(-0.05, 0.05)
        if rng.random() < 0.5:
            x = np.round(x, int(rng.integers(1, 4)))
        assert ks_normality(x) == _ks_full(x), n

    for _ in range(60):
        check(int(rng.integers(estimators._KS_PRUNE_MIN, 40_000)))
    # sizes at the block edges: n = 0, 1 and block - 1 mod block
    block = estimators._KS_BLOCK
    for k in (estimators._KS_PRUNE_MIN // block + 1, 400, 1250):
        for r in (0, 1, block - 1):
            check(k * block + r)


def test_ndtr_equals_scipy_bit_for_bit():
    # the scalar Cephes port against scipy.special.ndtr on a dense grid over
    # [-40, 40], random points, and both sides of every branch edge: a = +-1
    # (|x| = 1/sqrt 2), +-sqrt 2 (erfc's |x| = 1), +-8 sqrt 2 (x = 8) and
    # +-37.7 (exp(-x^2) underflows past MAXLOG), with +-0 and +-inf
    rng = np.random.default_rng(13)
    edges = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.7,
             math.sqrt(2.0 * estimators._MAXLOG), math.inf]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    a = np.concatenate([
        np.linspace(-40.0, 40.0, 800_001),
        rng.uniform(-40.0, 40.0, 100_000),
        3.0 * rng.standard_normal(100_000),
        edges, near, [-0.0],
    ])
    a = np.concatenate([a, -a])
    got = np.array([estimators._ndtr(v) for v in a.tolist()])
    want = ndtr(a)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (a[bad][:5], got[bad][:5], want[bad][:5])
    assert math.isnan(estimators._ndtr(math.nan))


def test_phi_approx_within_its_bound():
    # the interpolant of the pruning stage, against the exact CDF, on a sweep
    # 64 times denser than the table and past both of its ends
    x = np.concatenate([np.linspace(-12.0, 12.0, 24 * 1024 * 64 + 1), [-np.inf, np.inf]])
    err = np.abs(estimators._phi_approx(x) - ndtr(x)).max()
    assert err <= estimators._PHI_ERR
    # the bound is tight: the step's squared term is the error seen
    assert err > 0.9 * (estimators._PHI_ERR - 1e-12)


@pytest.mark.parametrize("n", [100, 4095, 30_000])
def test_ks_sorted_takes_the_exact_phi_only_near_the_sup(n, monkeypatch):
    # the interpolant narrows the sup to a rank or two; only those get _ndtr
    calls = []
    exact = estimators._ndtr
    monkeypatch.setattr(estimators, "_ndtr", lambda v: calls.append(v) or exact(v))
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), 1.05 * rng.standard_normal(n), rng.standard_t(5, size=n)):
        calls.clear()
        assert ks_normality(x) == _ks_full(x)
        assert 1 <= len(calls) <= 4


def test_chaos_bands_are_the_nonzero_block_of_the_weights():
    # each (t, R) band is first_chaos_weights on the smallest lattice that
    # holds the window's cone, |y| <= R + t: inside [off, off + width) it must
    # equal the full lattice's weights bit for bit, and those must be zero
    # on every other cell.  Lattices: the white benchmark plan's, a coarse
    # one with times below t_max, and a fine one whose x_half_width exceeds
    # max R + max t.  The bands are kept as built: at its peak the build
    # holds well under a second copy of them
    cases = [(LatticeConfig(h=1 / 32, t_max=1.0, x_half_width=33.0), (0.5, 1.0), (1.0, 4.0, 32.0)),
             (LatticeConfig(h=1 / 8, t_max=1.0, x_half_width=6.0), (0.25, 0.625, 1.0), (0.5, 1.0, 2.0)),
             (LatticeConfig(h=1 / 64, t_max=0.75, x_half_width=12.0), (0.25, 0.75), (2.0, 8.0))]
    for cfg, times, radii in cases:
        tracemalloc.start()
        try:
            bands = estimators._chaos_stacks(cfg, times, radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(band.nbytes for row in bands for _, band in row) + (64 << 10)
        assert [len(row) for row in bands] == [len(radii)] * len(times)
        for t, row in zip(times, bands):
            for r, (off, band) in zip(radii, row):
                full = first_chaos_weights(cfg, t, r, KAPPA)
                assert band.shape == (cfg.time_index(t), round(2 * (r + t) / cfg.h))
                assert full[:, off: off + band.shape[1]].tobytes() == band.tobytes()
                assert not full[:, :off].any() and not full[:, off + band.shape[1]:].any()


def test_ks_critical_value():
    # classical 99% point: sqrt(-ln(0.005)/2) = 1.6276
    assert ks_critical(10_000) == pytest.approx(1.6276 / 100.0, abs=1e-5)
    with pytest.raises(ValueError):
        ks_critical(0)


def test_ks_critical_calibration_on_true_normals():
    # on genuinely normal samples the 99% band holds in >= 95 of 100 trials
    rng = np.random.default_rng(7)
    n = 10_000
    crit = 1.63 / math.sqrt(n)
    hits = 0
    for _ in range(100):
        if ks_normality(rng.standard_normal(n)) < crit:
            hits += 1
    assert hits >= 95


# ------------------------------------------------------------ coupled KS


def test_ks_coupled_is_two_sample_ks_of_normalized_pair():
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 3000))
    x *= 1.7
    expect = scipy.stats.ks_2samp(x / x.std(ddof=1), y / y.std(ddof=1)).statistic
    assert ks_coupled(x, y) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ValueError, match="paired"):
        ks_coupled(x, y[:-1])
    with pytest.raises(ValueError, match="100"):
        ks_coupled(x[:99], y[:99])


def _ks_coupled_searchsorted(a, b):
    # the counting formula the merge replaced: F_a and F_b by binary search
    # over the whole 2n grid
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right")
    fb = np.searchsorted(b, grid, side="right")
    return float(np.abs(fa - fb).max() / a.size)


def test_ks_coupled_merge_count_equals_searchsorted():
    rng = np.random.default_rng(30)
    cases = []
    for k in range(120):
        n = int(rng.integers(100, 40_000))
        a, b = rng.standard_normal((2, n))
        b = 0.9 * a + 0.5 * b
        if k % 3 == 0:  # ties inside and across the samples
            a, b = np.round(a, 1), np.round(b, 1)
        cases.append((a, b))
    z = np.zeros(500)
    f = rng.standard_normal(490)
    cases += [
        (z, z.copy()),  # one run of ties
        (z, np.ones(500)),
        (np.repeat([-np.inf, 0.0, np.inf], [100, 300, 100]), np.linspace(-1.0, 1.0, 500)),
        # NaNs sort last and count as one run: the sup is 10 / 500, not the
        # 20 / 500 a count read inside the NaN run would give
        (np.r_[f, np.full(10, np.nan)], np.r_[f[:480], np.full(20, np.nan)]),
        (np.full(200, np.nan), rng.standard_normal(200)),
    ]
    for a, b in cases:
        a, b = np.sort(a), np.sort(b)
        assert estimators._ks_coupled_sorted(a, b) == _ks_coupled_searchsorted(a, b)
        assert estimators._ks_coupled_sorted(b, a) == _ks_coupled_searchsorted(b, a)
    x, y = cases[1]
    assert ks_coupled(x, y) == _ks_coupled_searchsorted(np.sort(x / x.std(ddof=1)),
                                                        np.sort(y / y.std(ddof=1)))


def test_ks_coupled_vanishes_for_constant_sigma():
    # sigma = 1: the average is its own first chaos up to roundoff, so the
    # two normalized samples sort alike and the distance is at most 1/M
    # (exactly 1/M when roundoff puts one member of a pair just ahead)
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.constant(1.0), h=1.0 / 8.0,
                          times=(1.0,), radii=(1.0, 2.0), replicas=300, seed=23)
    summary = run_experiment(plan, threads=1)
    for ir in range(len(plan.radii)):
        g, i1 = summary.samples(0, ir), summary.chaos_samples(0, ir)
        assert np.max(np.abs(g - i1)) <= 1e-10
        assert ks_coupled(g, i1) <= 1.0 / plan.replicas


def _quadratic_perturbation_distance(eps: float) -> float:
    """sup_z |P(x / sd(x) <= z) - Phi(z)| for x = y + eps (y^2 - 1), y ~ N(0, 1).

    Var x = 1 + 2 eps^2, and {x <= c} is the interval between the roots of
    eps y^2 + y - eps - c, so the law of x is a difference of two Phi values."""
    sd = math.sqrt(1.0 + 2.0 * eps * eps)
    z = np.linspace(-8.0, 8.0, 160_001)
    disc = 1.0 + 4.0 * eps * (eps + z * sd)
    root = np.sqrt(np.clip(disc, 0.0, None))
    inside = ndtr((root - 1.0) / (2.0 * eps)) - ndtr((-root - 1.0) / (2.0 * eps))
    cdf = np.where(disc >= 0.0, inside, 0.0)
    return float(np.abs(cdf - ndtr(z)).max())


def test_ks_coupled_recovers_analytic_distance():
    eps = 0.1
    target = _quadratic_perturbation_distance(eps)
    assert target == pytest.approx(0.0396, abs=5e-4)
    y = np.random.default_rng(9).standard_normal(20_000)
    x = y + eps * (y * y - 1.0)
    d, se = ks_coupled(x, y), ks_coupled_se(x, y)
    assert 0.0 < se < 0.005
    assert abs(d - target) <= 3.0 * se


def test_ks_coupled_floor_below_plain_ks_floor():
    # an exactly Gaussian pair with correlation 0.999: both laws are normal,
    # so each statistic reads only its sampling floor; the coupled one,
    # whose noise lives where the pair disagrees, sits far below
    n, rho = 10_000, 0.999
    rng = np.random.default_rng(10)
    coupled, plain = [], []
    for _ in range(8):
        y, e = rng.standard_normal((2, n))
        x = rho * y + math.sqrt(1.0 - rho * rho) * e
        coupled.append(ks_coupled(x, y))
        plain.append(ks_normality(x / x.std(ddof=1)))
    floor = 0.87 / math.sqrt(n)
    assert max(coupled) < 0.7 * floor
    assert np.mean(coupled) < 0.6 * np.mean(plain)


# ------------------------------------------------------------ plan algebra


def test_plan_validation():
    sig = SigmaSpec.linear()
    with pytest.raises(ValueError, match="hurst"):
        ExperimentPlan(hurst=0.4, sigma=sig, h=0.25, times=(1.0,), radii=(1.0,), replicas=1, seed=0)
    with pytest.raises(ValueError, match="increasing"):
        ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0, 0.5), radii=(1.0,), replicas=1, seed=0)
    with pytest.raises(ValueError, match="multiple"):
        ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(0.3,), radii=(1.0,), replicas=1, seed=0)
    with pytest.raises(ValueError, match="multiple"):
        ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0,), radii=(1.1,), replicas=1, seed=0)
    with pytest.raises(ValueError, match="replicas"):
        ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0,), radii=(1.0,), replicas=0, seed=0)
    with pytest.raises(ValueError, match="normalization"):
        ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0,), radii=(1.0,),
                       replicas=1, seed=0, normalization="other")
    with pytest.raises(ValueError, match="domain of dependence"):
        ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0,), radii=(4.0,),
                       replicas=1, seed=0, x_half_width=2.0)
    # the seed is one uint64 word of every replica's Philox key
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0,), radii=(1.0,),
                           replicas=1, seed=seed)


# plan_hash of one plan per sigma kind, as first pinned when plan_to_dict
# listed its keys by hand
_PLAN_HASHES = {
    "constant": "113bb9547818d6d319824c206ba5b305ca59db1c06f95f6a081652a030162754",
    "linear": "b0152dc6c9f1129e362d3d22aafda1a89fd8b2f9a1d47e93a23e0ade0b754968",
    "affine_sine": "2502dcc2c053e30ccae0c0b9201d5979d4241f383728a517e846794565c9c8fc",
    "tabulated": "ffdd6810c1e387e590b642fb8cbb16227075c93039135a40fa6eba45ebfcde32",
}


def test_plan_dict_keys_and_hashes_are_pinned():
    sigmas = [SigmaSpec.constant(1.5), SigmaSpec.linear(), SigmaSpec.affine_sine(1.0, 0.5),
              SigmaSpec.tabulated((-1.0, 0.0, 2.0), (0.5, 1.0, 3.0))]
    for i, sig in enumerate(sigmas):
        plan = ExperimentPlan(hurst=0.75 if i % 2 else 0.5, sigma=sig, h=0.25, times=(0.5, 1.0),
                              radii=(1.0, 2.0), replicas=300, seed=7 + i,
                              normalization="paper" if i > 1 else "self", chaos=i != 2,
                              x_half_width=None if i < 3 else 4.0)
        d = plan_to_dict(plan)
        assert list(d) == ["hurst", "sigma", "h", "times", "radii", "replicas", "seed",
                           "normalization", "chaos", "x_half_width", "stream"]
        assert list(d["sigma"]) == ["kind", "params"]
        assert plan_hash(plan) == _PLAN_HASHES[sig.kind]
    assert d["sigma"]["params"] == [[-1.0, 0.0, 2.0], [0.5, 1.0, 3.0]]
    assert d["times"] == [0.5, 1.0] and d["x_half_width"] == 4.0


def test_plan_defaults_and_hash():
    sig = SigmaSpec.linear()
    plan = ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0,), radii=(2.0,),
                          replicas=10, seed=1)
    assert plan.x_half_width == 3.0  # max radius + max time, filled in
    d = plan_to_dict(plan)
    assert d["x_half_width"] == 3.0
    assert d["sigma"] == {"kind": "linear", "params": []}
    h1 = plan_hash(plan)
    assert h1 == plan_hash(plan)
    other = ExperimentPlan(hurst=0.5, sigma=sig, h=0.25, times=(1.0,), radii=(2.0,),
                           replicas=10, seed=2)
    assert plan_hash(other) != h1


# ------------------------------------------------------------ projections


def test_spatial_average_zero_noise_and_guards():
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=0.25,
                          times=(1.0,), radii=(1.0,), replicas=1, seed=0)
    cfg = plan.lattice()
    sheet = sample_sheet(plan.noise_spec(), replica=0)
    zero = sample_sheet(plan.noise_spec(), replica=0)
    zero.masses[:] = 0.0
    fld = solve(cfg, zero, plan.sigma)
    assert window_averages(fld, (1.0,), (1.0,)).tolist() == [[0.0]]
    fld2 = solve(cfg, sheet, plan.sigma)
    with pytest.raises(ValueError, match="cone"):
        window_averages(fld2, (1.0,), (2.0,))  # needs x_half >= R + t
    with pytest.raises(ValueError, match="multiple"):
        window_averages(fld2, (1.0,), (0.9,))


@pytest.mark.parametrize("reduction", ["window_averages", "first_chaos_weights"])
def test_window_outside_the_validity_cone_is_refused(reduction):
    # both reductions read the window through one rule: at level n the cone
    # spans nodes n .. n_nodes - 1 - n, so radius + t may reach x_half_width
    # but not pass it
    cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=2.0)
    if reduction == "window_averages":
        sheet = sample_sheet(NoiseSpec(hurst=0.5, dt=0.25, dx=0.25, n_time=cfg.n_steps,
                                       n_space=cfg.n_cells, seed=3), 0)
        fld = solve(cfg, sheet, SigmaSpec.linear())

        def reduce(t, radius):
            return window_averages(fld, (t,), (radius,))
    else:
        def reduce(t, radius):
            return first_chaos_weights(cfg, t, radius, KAPPA)
    for t, radius in ((1.0, 1.0), (0.5, 1.5), (0.25, 0.25)):
        assert np.all(np.isfinite(reduce(t, radius)))
    for t, radius in ((1.0, 1.25), (0.5, 1.75), (0.25, 2.0)):
        with pytest.raises(ValueError, match=rf"window radius {radius} at t={t} leaves the validity cone"):
            reduce(t, radius)


def test_constant_sigma_average_equals_first_chaos():
    # for sigma = 1 the scheme is a linear map of the noise: the spatial
    # average and its first-chaos projection coincide to roundoff
    plan = ExperimentPlan(hurst=0.75, sigma=SigmaSpec.constant(1.0), h=1.0 / 8.0,
                          times=(0.5, 1.0), radii=(1.0, 2.0), replicas=6, seed=17)
    res = run_replica_chunk(plan, range(plan.replicas))
    assert np.abs(res.g).max() > 0.1
    assert np.abs(res.g - res.i1).max() <= 1e-8  # typically ~1e-14


def _rate_plan(replicas=1):
    # the lattice shape of a rate study: they run 100 to a stack
    return ExperimentPlan(hurst=0.75, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=0.125,
                          times=(0.5, 1.0), radii=(1.0, 2.0), replicas=replicas, seed=41)


def _stack_size(plan):
    return estimators._stack_budget(plan)[0]


@pytest.mark.parametrize("ids", ["across_stacks", "one_replica"])
def test_chunk_reductions_equal_per_replica_reductions(ids):
    # run_replica_chunk solves and reduces stacks of replicas; every row must
    # equal what the reducers give on that replica's field alone, and its
    # first chaos the weights dotted with that replica's sheet
    plan = _rate_plan()
    stack = _stack_size(plan)
    assert stack > 2
    chosen = list(range(1, stack + 4)) if ids == "across_stacks" else [7]
    res = run_replica_chunk(plan, chosen)
    cfg = plan.lattice()
    assert res.replica_ids.tolist() == chosen
    # the ids hold no whole block of the one-replica plan: the chunk ships rows
    assert all(moments is None for _, _, moments in res.sigma_pieces)
    rows = np.concatenate([rows for _, rows, _ in res.sigma_pieces])
    for k, rid in enumerate(chosen):
        sheet = sample_sheet(plan.noise_spec(), replica=rid)
        fld = solve(cfg, sheet, plan.sigma)
        assert rows[k].tobytes() == plan.sigma(fld.values[:, cfg.center_index]).tobytes()
        for it, t in enumerate(plan.times):
            for ir, r in enumerate(plan.radii):
                w = first_chaos_weights(cfg, t, r, KAPPA)
                # the band's per-level dot products vs one dot over the
                # whole sheet: summation order may differ in the last bits
                assert res.i1[k, it, ir] == pytest.approx(
                    float(np.vdot(w, sheet.masses[: w.shape[0]])), rel=1e-12, abs=1e-15)
        assert res.g[k].tobytes() == window_averages(fld, plan.times, plan.radii).tobytes()


@pytest.mark.parametrize("hurst", [0.5, 0.75])
def test_chunk_chaos_does_not_depend_on_the_stack(hurst, monkeypatch):
    # each sheet's first chaos is its own dot products over its band, so
    # it keeps the bits of its one-replica chunk in stacks of 1, 2, 3 and 7.
    # np.einsum over the stack already differs at 2 on the first lattice;
    # the second's rows are an odd number of 16-byte pairs, so stacked
    # sheets start at other alignments.  i1 stays within 1e-13 relative of
    # one dot of the full weights with the sheet, or of the sum of
    # |weight * mass| where the sample itself cancels to near zero
    for x_half_width in (9.0, 9.03125):
        plan = ExperimentPlan(hurst=hurst, sigma=SigmaSpec.linear(), h=1 / 32, times=(0.5, 1.0),
                              radii=(1.0, 4.0, 8.0), replicas=16, seed=23, x_half_width=x_half_width)
        _check_chaos_stack_free(plan, monkeypatch)


def _check_chaos_stack_free(plan, monkeypatch):
    cfg = plan.lattice()
    ids = range(1, 15)
    alone = np.array([run_replica_chunk(plan, [k]).i1[0] for k in ids])
    for size in (1, 2, 3, 7):
        monkeypatch.setattr(estimators, "_stack_budget", lambda _, size=size: (size, 0))
        assert run_replica_chunk(plan, ids).i1.tobytes() == alone.tobytes()
    for k, i1 in zip(ids, alone):
        masses = sample_sheet(plan.noise_spec(), replica=k).masses
        for it, t in enumerate(plan.times):
            for ir, r in enumerate(plan.radii):
                w = first_chaos_weights(cfg, t, r, KAPPA)
                m = masses[: w.shape[0]]
                scale = float(np.vdot(np.abs(w), np.abs(m)))
                assert i1[it, ir] == pytest.approx(float(np.vdot(w, m)), rel=1e-13, abs=1e-13 * scale)


@pytest.mark.parametrize("ids,named", [([], r"\[\]"), ([3, 1], r"\[3 1\]"), ([0, 2, 2], r"\[0 2 2\]")])
def test_chunk_refuses_ids_that_do_not_increase(ids, named):
    # a chunk runs increasing ids, so a merge of chunks need only order blocks
    plan = _rate_plan(replicas=4)
    with pytest.raises(ValueError, match=r"increasing list of replica ids, got " + named
                       + rf" \[plan {plan_hash(plan)[:12]}\]"):
        run_replica_chunk(plan, ids)


@pytest.mark.parametrize("lattice", ["rate", "wide"])
def test_chunk_stacks_share_one_buffer(lattice, monkeypatch):
    # a chunk's stacks differ in size (full stacks, then a short tail) yet go
    # through one set of buffers; every row must keep the bytes of a fresh
    # per-sheet solve.  The wide case runs 2s + 1 replicas of a 33 x 2113-node
    # lattice, s its stack size, at H = 3/4 and at H = 1/2.  Each case
    # names its lattice and the stack sizes the budget must give it
    if lattice == "rate":
        cases = [(ExperimentPlan(hurst=0.5, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=0.125,
                                 times=(0.5, 1.0), radii=(1.0, 2.0, 4.0, 8.0), replicas=256, seed=5),
                  (9, 145), [100, 100, 56])]
    else:
        wide = ExperimentPlan(hurst=0.75, sigma=SigmaSpec.linear(), h=1 / 32, times=(0.5, 1.0),
                              radii=(8.0, 16.0, 32.0), replicas=1, seed=5)
        cases = [(replace(wide, hurst=hurst, replicas=2 * _stack_size(replace(wide, hurst=hurst)) + 1),
                  (33, 2113), sizes) for hurst, sizes in ((0.75, [1, 1, 1]), (0.5, [3, 3, 1]))]
    for plan, shape, sizes in cases:
        _check_stacks_share_one_buffer(plan, shape, sizes, monkeypatch)


def _check_stacks_share_one_buffer(plan, shape, sizes, monkeypatch):
    cfg = plan.lattice()
    ids, stack = range(plan.replicas), _stack_size(plan)
    assert [min(stack, plan.replicas - k) for k in range(0, plan.replicas, stack)] == sizes
    assert (cfg.n_steps + 1, cfg.n_nodes) == shape
    seen = []
    solve_ = estimators.solve

    def recorded(config, sheet, sigma, **kwargs):
        fld = solve_(config, sheet, sigma, **kwargs)
        seen.append((sheet.masses.reshape((-1,) + sheet.masses.shape[-2:]).shape[0],
                     sheet.masses.__array_interface__["data"][0],
                     fld.values.__array_interface__["data"][0]))
        return fld
    monkeypatch.setattr(estimators, "solve", recorded)
    res = run_replica_chunk(plan, ids)
    monkeypatch.setattr(estimators, "solve", solve_)
    assert [size for size, _, _ in seen] == sizes
    assert len({addr for _, addr, _ in seen}) == len({addr for _, _, addr in seen}) == 1
    bands = estimators._chaos_stacks(cfg, plan.times, plan.radii)
    rows, alone = [], np.empty_like(res.i1[0])
    for k in ids:
        sheet = sample_sheet(plan.noise_spec(), replica=k)
        fld = solve_(cfg, sheet, plan.sigma)
        assert res.g[k].tobytes() == window_averages(fld, plan.times, plan.radii).tobytes()
        rows.append(plan.sigma(fld.values[:, cfg.center_index]))
        estimators._chaos_samples(bands, sheet.masses, alone)
        assert res.i1[k].tobytes() == alone.tobytes()
    # the ids are the plan's one whole block: the chunk ships its moments
    (n, no_rows, moments), = res.sigma_pieces
    assert (n, no_rows) == (len(ids), None)
    assert moments.tobytes() == _block_reference(np.array(rows)).tobytes()
    # a buffers dict the caller keeps serves its next chunk, bytes unchanged
    buffers = {}
    again = [run_replica_chunk(plan, ids, buffers=buffers) for _ in range(2)]
    for other in again:
        assert other.g.tobytes() == res.g.tobytes() and other.i1.tobytes() == res.i1.tobytes()
        assert other.sigma_pieces[0][2].tobytes() == moments.tobytes()


@pytest.mark.parametrize("hurst,chaos", [(0.5, False), (0.75, False), (0.5, True), (0.75, True)],
                         ids=["0.5", "0.75", "0.5-chaos", "0.75-chaos"])
def test_warm_chunk_allocates_less_than_a_sheet(hurst, chaos):
    # the 33 x 2113-node lattices of the white-noise and fractional
    # benchmark plans: once a buffers dict holds a chunk's stacks and, with
    # chaos on, the plan's first-chaos weights, the next chunk allocates
    # less than one sheet's masses, so no per-stack pair array or FFT
    # output is back and the weights are not built again.  The dict holds
    # exactly the bytes the stack budget counts plus those of the weights,
    # one band per (t, R) of t's levels by the 2(R + t)/h cells of the
    # window's cone, and the budget counts no more than the sampler's
    # floats and five level-sized rows: no buffer of every level is back
    # either
    plan = ExperimentPlan(hurst=hurst, sigma=SigmaSpec.linear(), h=1 / 32, times=(0.5, 1.0),
                          radii=(8.0, 16.0, 32.0), replicas=7, seed=5, chaos=chaos)
    spec = plan.noise_spec()
    cfg = plan.lattice()
    weights = sum(8 * cfg.time_index(t) * round(2 * (r + t) / cfg.h)
                  for t in plan.times for r in plan.radii) if chaos else 0
    stack, sheet_bytes = estimators._stack_budget(plan)
    assert (stack, spec.n_time, spec.n_space) == ((3, 32, 2112) if hurst == 0.5 else (1, 32, 2112))
    assert sheet_bytes <= 8 * (noise._sheet_floats(spec) + 5 * cfg.n_nodes)
    buffers = {}
    run_replica_chunk(plan, range(plan.replicas), buffers=buffers)
    tracemalloc.start()
    try:
        run_replica_chunk(plan, range(plan.replicas), buffers=buffers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.n_time * spec.n_space
    bands = buffers.pop("chaos", (None, []))[1]
    assert sum(band.nbytes for row in bands for _, band in row) == weights
    assert sum(buf.nbytes for buf in buffers.values()) == stack * sheet_bytes


@pytest.mark.parametrize("ensemble", ["B", "F"])
def test_tier1_lattices_run_one_sheet_per_stack(ensemble):
    # the budget keeps the stack sizes it gave when the solver stored every
    # level: one sheet per stack on ensemble B's 65 x 4225-node white-noise
    # lattice (D's too) and on F's 33 x 2113-node fractional one, whose
    # sheets hold no more than the sampler's floats and five level rows
    if ensemble == "B":
        plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=1 / 64, times=(1.0,),
                              radii=(4.0, 8.0, 16.0, 32.0), replicas=1, seed=5)
    else:
        plan = ExperimentPlan(hurst=0.75, sigma=SigmaSpec.constant(1.0), h=1 / 32,
                              times=(0.5, 1.0), radii=(32.0,), replicas=1, seed=5, chaos=False)
    cfg = plan.lattice()
    stack, sheet_bytes = estimators._stack_budget(plan)
    assert (cfg.n_steps + 1, cfg.n_nodes) == ((65, 4225) if ensemble == "B" else (33, 2113))
    assert stack == 1
    assert sheet_bytes <= 8 * (noise._sheet_floats(plan.noise_spec()) + 5 * cfg.n_nodes)


def test_chunk_weights_follow_the_plan():
    # one buffers dict runs plans that differ only in radii, then only in
    # times, then in h; the lattice of the first two pairs is the same, so
    # weights kept for the lattice alone would be wrong.  Each plan gets the
    # bytes of a fresh dict
    base = ExperimentPlan(hurst=0.75, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=0.125,
                          times=(0.5, 1.0), radii=(1.0, 2.0), replicas=5, seed=41, x_half_width=3.0)
    buffers = {}
    for other in (replace(base, radii=(1.0, 1.5)), replace(base, times=(0.75, 1.0)),
                  replace(base, h=0.25)):
        for plan in (base, other):
            fresh = run_replica_chunk(plan, range(plan.replicas))
            res = run_replica_chunk(plan, range(plan.replicas), buffers=buffers)
            assert res.g.tobytes() == fresh.g.tobytes()
            assert res.i1.tobytes() == fresh.i1.tobytes()


def test_run_experiment_keeps_one_buffer_across_chunks(monkeypatch):
    # the chunks of a run share one buffers dict per process, so the
    # memory of one chunk's stacks serves the next instead of faulting in.
    # Two whole chunks run in stacks of 100, 100 and 56, the last in one
    plan = _rate_plan(replicas=2 * estimators._CHUNK + 1)
    addresses = []
    solve_ = estimators.solve

    def recorded(*args, **kwargs):
        fld = solve_(*args, **kwargs)
        addresses.append(fld.values.__array_interface__["data"][0])
        return fld
    monkeypatch.setattr(estimators, "solve", recorded)
    summary = run_experiment(plan, threads=1)
    assert len(addresses) == 7 and len(set(addresses)) == 1
    assert summary.g_samples.tobytes() == run_replica_chunk(plan, range(plan.replicas)).g.tobytes()


def test_chunk_calls_the_traced_seams(monkeypatch):
    # the benchmark trace wraps these module attributes; a chunk that stops
    # calling them through the module would leave its spans empty
    plan = _rate_plan(replicas=2 * estimators._CHUNK + 1)
    calls = {"sample_sheet": 0, "_replica_rng": 0, "solve": 0, "first_chaos_weights": 0,
             "_embedding_spectrum": [], "merge_chunks": []}

    def counted(module, name, record=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            if record is None:
                calls[name] += 1
            else:
                calls[name].append(record(args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    expected = run_replica_chunk(plan, range(40))
    counted(estimators, "sample_sheet")
    counted(estimators, "solve")
    counted(estimators, "first_chaos_weights")
    counted(noise, "_replica_rng")
    counted(noise, "_embedding_spectrum", record=lambda args: args[1])
    res = run_replica_chunk(plan, range(40))
    assert res.g.tobytes() == expected.g.tobytes()
    assert res.i1.tobytes() == expected.i1.tobytes()
    assert calls["_replica_rng"] == 40  # one re-key per replica
    assert calls["sample_sheet"] == calls["solve"] == 1  # 40 of these lattices fit one stack
    assert calls["first_chaos_weights"] == len(plan.times) * len(plan.radii)
    assert calls["_embedding_spectrum"] == [2 * plan.lattice().n_cells]  # once per stack

    counted(estimators, "merge_chunks", record=len)
    calls["first_chaos_weights"] = 0
    summary = run_experiment(plan, threads=1)
    assert calls["merge_chunks"] == [3]  # one merge of all three chunks
    # the run's one buffers dict keeps the weights: built once, not per chunk
    assert calls["first_chaos_weights"] == len(plan.times) * len(plan.radii)
    assert summary.g_samples.shape[0] == plan.replicas


def test_first_chaos_weights_shape_and_plateau():
    cfg = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=0.25,
                         times=(1.0,), radii=(1.0,), replicas=1, seed=0).lattice()
    w = first_chaos_weights(cfg, 1.0, 1.0, kappa=0.5)
    assert w.shape == (4, cfg.n_cells)
    assert np.all(w >= 0.0)
    # depth-0 row: an interior cell reaches its two adjacent window nodes at
    # full weight, so the plateau value is kappa * h * 2
    assert w[3].max() == pytest.approx(2.0 * 0.5 * 0.25)
    # deeper rows reach wider cell spans
    assert np.count_nonzero(w[0]) > np.count_nonzero(w[3])


def _chaos_weights_by_row(cfg, t, radius, kappa):
    # first_chaos_weights as a loop over rows, one propagation depth each
    n_t = cfg.time_index(t)
    rn = int(round(radius / cfg.h))
    left, right = cfg.center_index - rn, cfg.center_index + rn
    c = np.arange(cfg.n_cells)
    weights = np.zeros((n_t, cfg.n_cells))
    for m in range(n_t):
        q = n_t - 1 - m
        a = np.maximum(left, c - q)
        b = np.minimum(right, c + 1 + q)
        count = np.clip(b - a + 1, 0, None).astype(np.float64)
        hit_l = ((c - q <= left) & (left <= c + 1 + q)).astype(np.float64)
        hit_r = ((c - q <= right) & (right <= c + 1 + q)).astype(np.float64)
        g = np.where(count > 0, count - 0.5 * (hit_l + hit_r), 0.0)
        weights[m] = kappa * cfg.h * g
    return weights


@pytest.mark.parametrize("h, times, radii, x_half_width", [
    # by default the last time's largest window reaches the lattice ends
    (0.25, (0.25, 1.0), (1.0, 2.0), None),
    (0.125, (0.5, 1.0), (1.0, 2.0, 4.0, 8.0), None),
    (1 / 32, (0.5, 1.0), (8.0, 16.0, 32.0), None),
    (0.1, (0.3, 0.7), (0.2, 1.1), 1.8),  # window plus horizon is the half width
    (0.5, (0.5, 2.0), (0.5, 1.0), 5.0),  # every window stays clear of the ends
])
def test_first_chaos_weights_equal_row_loop(h, times, radii, x_half_width):
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=h, times=times, radii=radii,
                          replicas=1, seed=0, x_half_width=x_half_width)
    cfg = plan.lattice()
    for t in times:
        for r in radii:
            want = _chaos_weights_by_row(cfg, t, r, 0.5)
            got = first_chaos_weights(cfg, t, r, 0.5)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_chaos_variance_matches_analytic(white_linear_summary):
    s = white_linear_summary
    ps = s.stats[(1, 1)]  # t=1, R=4
    exact = analytic.first_chaos_variance(1.0, 4.0, 0.5)
    tol = 3.0 * ps.variance_se + 3.0 * s.plan.h * exact
    assert abs(ps.chaos_var - exact) < tol
    # orthogonality: Cov(G, I1) = Var(I1) within 3 SE
    assert abs(ps.chaos_cov - ps.chaos_var) < 3.0 * ps.chaos_cov_se


def test_variance_matches_prelimit_oracle(white_linear_summary):
    s = white_linear_summary
    ps = s.stats[(1, 1)]
    oracle = analytic.prelimit_variance_white(1.0, 4.0, analytic.MomentCurves.linear_white())
    tol = 3.0 * ps.variance_se + 3.0 * s.plan.h * oracle
    assert abs(ps.variance - oracle) < tol


def test_mean_zero_across_pairs(white_linear_summary):
    for ps in white_linear_summary.stats.values():
        assert abs(ps.mean) < 4.0 * ps.mean_se


def test_empirical_moment_curves(white_linear_summary):
    s = white_linear_summary
    curves = analytic.MomentCurves.from_samples(s.curve_times, s.curve_mean, s.curve_sq)
    # sigma(u) = u: mean curve stays near 1, second moment near cosh(t/sqrt2)
    assert curves.mean_sigma(0.0) == 1.0
    assert curves.mean_sigma_sq(0.0) == 1.0
    t = 1.0
    target = analytic.linear_white_second_moment(t)
    idx = np.argmin(np.abs(s.curve_times - t))
    emp = s.curve_sq[idx]
    se = s.curve_sq_se[idx]
    assert abs(emp - target) < 4.0 * se + 3.0 * s.plan.h * target
    # Cauchy-Schwarz: the second moment dominates the squared mean
    assert np.all(s.curve_sq >= s.curve_mean**2)


def test_ks_self_normalized_small(white_linear_summary):
    ps = white_linear_summary.stats[(1, 1)]
    assert ps.ks is not None and 0.0 < ps.ks < 1.0
    assert ps.ks_se is not None and ps.ks_se > 0.0
    # linear sigma at R=4 is already close to normal: well under 3x critical
    assert ps.ks < 3.0 * ks_critical(ps.n)


def test_functional_cov_check(white_linear_summary):
    report = functional_cov_check(white_linear_summary)
    assert report.empirical.shape == (2, 2)
    assert np.allclose(report.empirical, report.empirical.T)
    assert report.oracle[0, 1] == pytest.approx(
        analytic.cross_covariance(0.5, 1.0, 0.5, analytic.MomentCurves.linear_white()),
        rel=1e-10,
    )
    # coarse lattice: allow generous SE units plus O(h) headroom
    tol = report.se * 4.0 + 4.0 * white_linear_summary.plan.h * np.abs(report.oracle)
    assert np.all(np.abs(report.empirical - report.oracle) < tol + 1e-12)


def test_tightness_moment_routes(white_linear_summary):
    s = white_linear_summary
    tm = tightness_moment(s, 2.0, 0.5, 1.0)
    assert tm["radius"] == 4.0
    assert tm["reference"] == pytest.approx(4.0 * 0.25)
    assert 0.0 < tm["ratio"] < 10.0
    same = tightness_moment(s, 2.0, 0.5, 0.5)
    assert same["moment"] == 0.0
    assert same["ratio"] is None
    with pytest.raises(ValueError, match="grid"):
        tightness_moment(s, 2.0, 0.25, 1.0)
    with pytest.raises(ValueError):
        tightness_moment(s, 0.0, 0.5, 1.0)


def test_paper_normalization_uses_oracle_scale():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=1.0 / 8.0,
        times=(1.0,), radii=(2.0,), replicas=150, seed=5, normalization="paper",
    )
    s = run_experiment(plan, threads=1)
    ps = s.stats[(0, 0)]
    oracle_sd = math.sqrt(
        analytic.prelimit_variance_white(1.0, 2.0, analytic.MomentCurves.linear_white())
    )
    assert ps.scale == pytest.approx(oracle_sd, rel=1e-12)
    x = s.samples(0, 0) / ps.scale
    assert ps.ks == pytest.approx(ks_normality(x), abs=1e-15)


def _jackknife_reference(x, stat, n_groups=100):
    # delete-group jackknife written out: drop each group, recompute afresh
    n = len(x)
    bounds = np.linspace(0, n, min(n_groups, n) + 1).astype(np.int64)
    reps = np.array([stat(np.concatenate([x[:lo], x[hi:]])) for lo, hi in zip(bounds[:-1], bounds[1:])])
    g = reps.size
    return float(np.sqrt((g - 1.0) / g * np.sum((reps - reps.mean()) ** 2)))


@pytest.mark.parametrize("normalization", ["self", "paper"])
@pytest.mark.parametrize("m", [257, 1234, 9000])
def test_summary_ks_se_equals_delete_group_reference(normalization, m):
    # summarize sorts each column once and masks groups out; the SE must be
    # the float a from-scratch delete-group jackknife of the full formula gives
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=0.25, times=(0.5, 1.0),
                          radii=(1.0, 2.0), replicas=m, seed=3, chaos=False,
                          normalization=normalization)
    rng = np.random.default_rng(m)
    z = rng.standard_normal((m, 2, 2))
    g = z + 0.2 * (z**2 - 1.0)
    g[:, 0, 1] = np.round(g[:, 0, 1], 1)  # ties
    chunk = _hand_chunk(g, None, np.ones((m, plan.lattice().n_steps + 1)))
    s = summarize(plan, chunk, 0.0)
    for (it, ir), ps in s.stats.items():
        x = np.ascontiguousarray(g[:, it, ir])
        if normalization == "self":
            want = _jackknife_reference(x, lambda v: _ks_full(v / v.std(ddof=1)))
        else:
            want = _jackknife_reference(x / ps.scale, _ks_full)
        assert ps.ks == _ks_full(x / ps.scale)
        assert ps.ks_se == want


@pytest.mark.parametrize("m", [257, 1234, 9000])
def test_summary_moment_ses_equal_delete_group_reference(m):
    # the moment SEs come from group sums; a from-scratch delete-group
    # jackknife of np.var / np.cov must agree to rounding.  Centred samples
    # keep the sums free of cancellation: the two routes differ by a few ulps
    # per replicate, and the SEs by at most 1.5e-14 relative on these columns.
    rel = 1e-12
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=0.25, times=(0.5, 1.0),
                          radii=(1.0, 2.0), replicas=m, seed=3)
    rng = np.random.default_rng(m)
    i1 = rng.standard_normal((m, 2, 2))
    g = i1 + 0.3 * (i1**2 - 1.0) + 0.2 * rng.standard_normal((m, 2, 2))
    # summarize and functional_cov_check read each (time, radius) column of
    # these (m, 2, 2) arrays as a strided view
    chunk = _hand_chunk(g, i1, np.ones((m, plan.lattice().n_steps + 1)))
    s = summarize(plan, chunk, 0.0)

    def var(v):
        return np.var(v, ddof=1)

    def cov(p):
        return np.cov(p[:, 0], p[:, 1], ddof=1)[0, 1]

    for (it, ir), ps in s.stats.items():
        pairs = np.column_stack([g[:, it, ir], i1[:, it, ir]])
        assert ps.variance_se == pytest.approx(_jackknife_reference(pairs[:, 0], var), rel=rel)
        assert ps.chaos_cov_se == pytest.approx(_jackknife_reference(pairs, cov), rel=rel)
        want = _jackknife_reference(pairs, lambda p: var(p[:, 1]) / var(p[:, 0]))
        assert ps.chaos_ratio_se == pytest.approx(want, rel=rel)
    report = functional_cov_check(s)  # at the largest radius
    scaled = g[:, :, -1] / plan.radii[-1]**plan.hurst
    for i in range(2):
        for j in range(2):
            want = _jackknife_reference(scaled[:, [i, j]], cov)
            assert report.se[i, j] == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("m", [100, 101])
def test_ks_se_at_the_sample_minimum(m):
    # a replicate drops a group and holds fewer than 100 samples; only the
    # full column is held to the KS minimum
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=0.25, times=(1.0,),
                          radii=(1.0,), replicas=m, seed=2)
    ps = run_experiment(plan, threads=1).stats[(0, 0)]
    assert math.isfinite(ps.ks_se) and ps.ks_se > 0.0
    x = np.linspace(-2.0, 2.0, 99)
    with pytest.raises(ValueError, match="100"):
        ks_coupled_se(x, x)


@pytest.mark.parametrize("m,n_groups", [(257, 100), (3000, 100), (500, 7)])
def test_ks_coupled_se_equals_delete_group_reference(m, n_groups, monkeypatch):
    # the group count is the module's; other counts are set on it
    monkeypatch.setattr(estimators, "_JACK_GROUPS", n_groups)
    rng = np.random.default_rng(m)
    y = rng.standard_normal(m)
    x = np.round(y + 0.1 * (y**2 - 1.0) + 0.05 * rng.standard_normal(m), 2)
    pairs = np.column_stack([x, y])
    want = _jackknife_reference(pairs, lambda p: ks_coupled(p[:, 0], p[:, 1]), n_groups)
    assert ks_coupled_se(x, y) == want


# ------------------------------------------------------------ merge algebra


def test_merge_is_associative_and_chunking_invariant():
    plan = ExperimentPlan(
        hurst=0.75, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=1.0 / 8.0,
        times=(1.0,), radii=(1.0,), replicas=90, seed=23,
    )
    a = run_replica_chunk(plan, range(0, 30))
    b = run_replica_chunk(plan, range(30, 75))
    c = run_replica_chunk(plan, range(75, 90))
    left = summarize(plan, merge_chunks(merge_chunks(a, b), c), 0.0)
    right = summarize(plan, merge_chunks(c, merge_chunks(b, a)), 0.0)
    assert left.g_samples.tobytes() == right.g_samples.tobytes()
    assert left.i1_samples.tobytes() == right.i1_samples.tobytes()
    assert left.curve_mean.tobytes() == right.curve_mean.tobytes()
    for key in left.stats:
        assert left.stats[key].variance == right.stats[key].variance
        assert left.stats[key].ks == right.stats[key].ks
    # the one-shot runner gives the same bytes as manual chunking
    direct = run_experiment(plan, threads=1)
    assert direct.g_samples.tobytes() == left.g_samples.tobytes()
    assert json.dumps(summary_to_dict(direct, deterministic=True), sort_keys=True) == \
        json.dumps(summary_to_dict(left, deterministic=True), sort_keys=True)


def test_merge_rejects_duplicates_and_gaps():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=0.25,
        times=(1.0,), radii=(1.0,), replicas=8, seed=1,
    )
    where = rf"\[plan {plan_hash(plan)[:12]}\]"
    a = run_replica_chunk(plan, range(0, 5))
    with pytest.raises(ValueError, match=r"replicas 0\.\.4 and 4\.\.7 overlap"):
        merge_chunks(a, run_replica_chunk(plan, range(4, 8)))
    partial = merge_chunks(a, run_replica_chunk(plan, range(6, 8)))  # gap at 5
    with pytest.raises(ValueError, match=r"exactly once: replica 5 is missing " + where):
        summarize(plan, partial, 0.0)
    with pytest.raises(ValueError, match=r"exactly once: replica 7 is missing " + where):
        summarize(plan, merge_chunks(a, run_replica_chunk(plan, [5, 6])), 0.0)
    with pytest.raises(ValueError, match=r"exactly once: replica 8 is extra " + where):
        summarize(plan, merge_chunks(a, run_replica_chunk(plan, range(5, 9))), 0.0)
    # the many-chunk merge checks all blocks at once
    with pytest.raises(ValueError, match=r"replicas 0\.\.4 and 0\.\.0 overlap"):
        merge_chunks(a, run_replica_chunk(plan, range(5, 8)), run_replica_chunk(plan, range(0, 1)))
    with pytest.raises(ValueError, match=r"replicas 0\.\.4 and 1\.\.3 overlap"):
        merge_chunks(a, run_replica_chunk(plan, [1, 3]))
    with pytest.raises(ValueError, match=r"increasing list of replica ids, got \[3 1\] " + where):
        run_replica_chunk(plan, [3, 1])
    # no order of blocks whose id ranges interleave puts the ids in order
    with pytest.raises(ValueError, match=r"replicas 0\.\.4 and 1\.\.3 overlap"):
        merge_chunks(run_replica_chunk(plan, [0, 2, 4]), run_replica_chunk(plan, [1, 3]))
    with pytest.raises(ValueError, match=r"replicas 5\.\.7 and 6\.\.6 overlap"):
        merge_chunks(a, run_replica_chunk(plan, [5, 7]), run_replica_chunk(plan, [6]))
    whole = merge_chunks(run_replica_chunk(plan, range(6, 8)), a, run_replica_chunk(plan, [5]))
    assert whole.g.tobytes() == merge_chunks(merge_chunks(run_replica_chunk(plan, range(6, 8)), a),
                                             run_replica_chunk(plan, [5])).g.tobytes()
    # the merge puts the pieces in id order and keeps each chunk's sigma rows as they are
    assert whole.replica_ids.tolist() == list(range(8))
    assert [(n, len(rows)) for n, rows, _ in whole.sigma_pieces] == [(5, 5), (1, 1), (2, 2)]
    assert whole.sigma_pieces[0] is a.sigma_pieces[0]
    summarize(plan, whole, 0.0)


def test_nested_merge_fills_a_gap_in_id_order():
    # the merge sorts blocks, not whole chunks: a merge with a gap (0..4 and
    # 6..7) that a later merge fills (5) gives run_experiment's bytes
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=0.25,
                          times=(0.5, 1.0), radii=(1.0,), replicas=8, seed=1)
    a, b, c = (run_replica_chunk(plan, ids) for ids in (range(0, 5), [5], range(6, 8)))
    nested = summarize(plan, merge_chunks(merge_chunks(a, c), b), 0.0)
    direct = run_experiment(plan, threads=1)
    assert nested.g_samples.tobytes() == direct.g_samples.tobytes()
    assert nested.i1_samples.tobytes() == direct.i1_samples.tobytes()
    assert _curves(nested) == _curves(direct)


def _block_reference(rows: np.ndarray) -> np.ndarray:
    # S and M2 of sigma, then of sigma^2, over one block's rows in id order
    out = []
    for v in (rows, rows**2):
        s = np.add.reduce(v, axis=0)
        out += [s, np.add.reduce((v - s / len(v)) ** 2, axis=0)]
    return np.array(out)


def _folded_curves(rows: np.ndarray) -> list[bytes]:
    # the block fold written out: per block of _CHUNK ids its moments, then
    # mean = sum S_b / M and M2 = sum (M2_b + n_b (S_b / n_b - mean)^2), each
    # summed over the blocks in id order
    m = rows.shape[0]
    blocks = [rows[lo: lo + estimators._CHUNK] for lo in range(0, m, estimators._CHUNK)]
    moments = [_block_reference(b) for b in blocks]
    total = moments[0][0::2]
    for mom in moments[1:]:
        total = total + mom[0::2]
    mean = total / m
    m2 = None
    for b, mom in zip(blocks, moments):
        term = mom[1::2] + len(b) * (mom[0::2] / len(b) - mean) ** 2
        m2 = term if m2 is None else m2 + term
    se = np.sqrt(m2 / (m - 1)) / np.sqrt(m)
    return [mean[0].tobytes(), mean[1].tobytes(), se[0].tobytes(), se[1].tobytes()]


def _curves(summary) -> list[bytes]:
    return [summary.curve_mean.tobytes(), summary.curve_sq.tobytes(),
            summary.curve_mean_se.tobytes(), summary.curve_sq_se.tobytes()]


def _sigma_rows(plan, ids) -> np.ndarray:
    # sigma(u) at the window center, one replica at a time
    cfg = plan.lattice()
    return np.array([plan.sigma(solve(cfg, sample_sheet(plan.noise_spec(), replica=k),
                                      plan.sigma).values[:, cfg.center_index]) for k in ids])


def _hand_chunk(g, i1, rows, lo=0):
    # a chunk of replicas lo, lo + 1, ... built by hand, its sigma rows cut
    # at block edges as run_replica_chunk cuts them, none reduced
    hi = lo + len(g)
    cuts = np.union1d([lo, hi], np.arange(lo + -lo % estimators._CHUNK, hi, estimators._CHUNK))
    return estimators.ChunkResult(replica_ids=np.arange(lo, hi), g=g, i1=i1,
                                  sigma_pieces=tuple((b - a, rows[a - lo: b - lo], None)
                                                     for a, b in zip(cuts, cuts[1:])))


def _row_pieces(g: np.ndarray, rows: np.ndarray, cuts) -> list:
    # hand-built chunks of rows cut anywhere
    return [_hand_chunk(g[lo:hi], None, rows[lo:hi], lo) for lo, hi in zip(cuts, cuts[1:])]


def test_curve_moments_equal_the_block_fold_reference():
    # chunks reduce whole blocks to moments and ship the rows of split ones;
    # summarize joins the rows per block and folds the blocks.  The four
    # curves must be the floats of the fold written out on the rows stacked
    # in id order, whatever the chunking and the merge order
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=1.0 / 16.0,
                          times=(1.0,), radii=(1.0, 2.0), replicas=601, seed=29, chaos=False)
    low, mid, high = (run_replica_chunk(plan, range(0, 100)), run_replica_chunk(plan, range(100, 300)),
                      run_replica_chunk(plan, range(300, 601)))
    # 300..601 holds the rest of block 1 as rows and block 2 (512..600) whole
    assert [(n, rows is None) for n, rows, _ in high.sigma_pieces] == [(212, False), (89, True)]
    s = summarize(plan, merge_chunks(high, merge_chunks(low, mid)), 0.0)
    rows = _sigma_rows(plan, range(plan.replicas))
    assert rows.shape == (601, 17)
    assert _curves(s) == _folded_curves(rows)
    assert s.g_samples.tobytes() == np.concatenate([low.g, mid.g, high.g]).tobytes()
    # many pieces of random sizes across blocks, rows that are not sigma values of a solve
    rng = np.random.default_rng(5)
    for h, m in ((1.0 / 8.0, 20000), (1.0 / 64.0, 3001)):
        plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=h, times=(1.0,), radii=(1.0,),
                              replicas=m, seed=1, chaos=False)
        rows = 1.0 + 0.5 * np.sin(3.0 * rng.standard_normal((m, plan.lattice().n_steps + 1)))
        cuts = np.cumsum(rng.integers(1, 700, size=m))
        cuts = np.concatenate(([0], cuts[cuts < m], [m]))
        g = rng.standard_normal((m, 1, 1))
        s = summarize(plan, merge_chunks(*_row_pieces(g, rows, cuts)[::-1]), 0.0)
        assert _curves(s) == _folded_curves(rows)
        assert s.g_samples.tobytes() == g.tobytes()


def test_curve_moments_agree_with_numpy_on_the_stacked_rows():
    # the fold sums in another order than np.mean and np.std(ddof=1) on all
    # rows stacked, so it may differ in the last bits, and only there
    rng = np.random.default_rng(7)
    for m in (257, 4000, 20000):
        plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=1.0 / 8.0, times=(1.0,),
                              radii=(1.0,), replicas=m, seed=1, chaos=False)
        rows = 1.0 + 0.5 * np.sin(3.0 * rng.standard_normal((m, plan.lattice().n_steps + 1)))
        s = summarize(plan, merge_chunks(*_row_pieces(np.zeros((m, 1, 1)), rows, [0, m])), 0.0)
        sq = rows**2
        for got, want in ((s.curve_mean, rows.mean(axis=0)), (s.curve_sq, sq.mean(axis=0)),
                          (s.curve_mean_se, rows.std(axis=0, ddof=1) / np.sqrt(m)),
                          (s.curve_sq_se, sq.std(axis=0, ddof=1) / np.sqrt(m))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_curves_keep_their_bits_across_threads_and_split_blocks():
    # run_experiment's chunks are whole blocks; two chunks that split block
    # 0 give the same four curves, as do one and two workers
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=1.0 / 16.0,
                          times=(1.0,), radii=(1.0,), replicas=600, seed=13, chaos=False)
    one, two = (run_experiment(plan, threads=threads, tasks={}) for threads in (1, 2))
    split = summarize(plan, merge_chunks(run_replica_chunk(plan, range(0, 100)),
                                         run_replica_chunk(plan, range(100, 600))), 0.0, tasks={})
    assert _curves(one) == _curves(two) == _curves(split)


def test_summary_holds_no_second_copy_of_the_sigma_rows():
    # 65 levels and one (t, R) pair: the sigma rows are most of what the
    # chunks hold.  Chunks of 128 ids each hold half a block, so they ship
    # rows; joined and reduced block by block they cost less than one more
    # copy of themselves, which stacking them alone would be.
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=1.0 / 64.0,
                          times=(1.0,), radii=(1.0,), replicas=1024, seed=31, chaos=False)
    chunks = [run_replica_chunk(plan, range(lo, lo + 128)) for lo in range(0, plan.replicas, 128)]
    rows = np.concatenate([piece[1] for c in chunks for piece in c.sigma_pieces])
    assert rows.nbytes == 1024 * 65 * 8
    summarize(plan, merge_chunks(*chunks), 0.0, workers=1)  # builds the KS table, once per process
    tracemalloc.start()
    try:
        summary = summarize(plan, merge_chunks(*chunks), 0.0, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes
    assert _curves(summary) == _folded_curves(rows)


def test_merged_aligned_chunks_hold_no_sigma_rows():
    # chunks of whole blocks, as run_experiment cuts them, ship 4 (n_steps +
    # 1) floats a block: the merge holds moments, never the 532 480 bytes of rows
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.affine_sine(1.0, 0.5), h=1.0 / 64.0,
                          times=(1.0,), radii=(1.0,), replicas=1024, seed=31, chaos=False)
    size = estimators._CHUNK
    merged = merge_chunks(*(run_replica_chunk(plan, range(lo, lo + size)) for lo in range(0, 1024, size)))
    assert all(rows is None for _, rows, _ in merged.sigma_pieces)
    payload = sum(moments.nbytes for _, _, moments in merged.sigma_pieces)
    assert payload < 1024 * 65 * 8 / 32


def test_run_experiment_deterministic_across_calls():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=0.25,
        times=(1.0,), radii=(1.0,), replicas=40, seed=9,
    )
    s1 = run_experiment(plan, threads=1)
    s2 = run_experiment(plan, threads=1)
    assert s1.g_samples.tobytes() == s2.g_samples.tobytes()
    assert summary_to_dict(s1, deterministic=True) == summary_to_dict(s2, deterministic=True)
    # wall time is the only volatile field
    d1 = summary_to_dict(s1, deterministic=False)
    assert "wall_seconds" in d1
    assert "wall_seconds" not in summary_to_dict(s1, deterministic=True)


def test_run_experiment_parallel_matches_serial():
    # several chunks, pairs and workers: chunks, pair statistics (KS, KS SE,
    # chaos SEs) and the merge all go through the pool
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=0.25, times=(0.5, 1.0),
        radii=(1.0, 2.0, 4.0), replicas=600, seed=4,
    )
    paper = replace(plan, normalization="paper")
    for p, threads in ((plan, 2), (plan, 3), (paper, 2)):
        serial = run_experiment(p, threads=1)
        parallel = run_experiment(p, threads=threads)
        assert serial.g_samples.tobytes() == parallel.g_samples.tobytes()
        assert serial.i1_samples.tobytes() == parallel.i1_samples.tobytes()
        assert serial.stats == parallel.stats
        assert all(ps.ks_se is not None and ps.chaos_ratio_se is not None
                   for ps in parallel.stats.values())
        assert summary_to_dict(serial, deterministic=True) == summary_to_dict(
            parallel, deterministic=True
        )


def test_summary_stats_holds_the_given_tasks_in_order():
    # tasks of several kinds on one pool; the default is the pair table
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=0.25, times=(0.5, 1.0),
        radii=(1.0, 2.0), replicas=600, seed=4,
    )
    default = run_experiment(plan, threads=1)
    assert list(default.stats) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    tasks = {
        "tight": (tightness_moment, (2.0, 0.5, 1.0)),
        (1, 0): (estimators._pair_stats, ((1, 0),)),
        "cov": (functional_cov_check, ()),
    }
    for threads in (1, 2):
        summary = run_experiment(plan, threads=threads, tasks=tasks)
        assert list(summary.stats) == ["tight", (1, 0), "cov"]
        assert summary.stats["tight"] == tightness_moment(default, 2.0, 0.5, 1.0)
        assert summary.stats[(1, 0)] == default.stats[(1, 0)]
        assert summary.stats["cov"].empirical.tobytes() == functional_cov_check(default).empirical.tobytes()
    assert run_experiment(plan, threads=2, tasks={}).stats == {}


def test_pair_rows_leave_other_tasks_out():
    # summary_to_dict and the simulate table read the pair rows of stats,
    # whatever else it holds
    from fracwave.cli import _human_table
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.linear(), h=0.25, times=(0.5, 1.0),
                          radii=(1.0, 2.0), replicas=20, seed=4)
    s = run_experiment(plan, threads=1, tasks={"tight": (tightness_moment, (2.0, 0.5, 1.0)),
                                               (1, 0): (estimators._pair_stats, ((1, 0),))})
    rows = summary_to_dict(s, deterministic=True)["pairs"]
    assert [(row["t_index"], row["r_index"]) for row in rows] == [(1, 0)]
    assert rows[0]["variance"] == s.stats[(1, 0)].variance
    assert len(_human_table(s).splitlines()) == 4  # heading, column names, one pair, wall time


def test_pool_map_keeps_task_order():
    tasks = list(range(7))
    want = [divmod(100 + t, 3) for t in tasks]
    for workers in (1, 2, 3):
        assert estimators.pool_map(_add_then_divmod, (100, 3), tasks, workers) == want
        assert estimators.pool_map(_add_then_divmod, (100, 3), [], workers) == []


def _add_then_divmod(a, d, t):
    return divmod(a + t, d)


def test_two_replicas_raise_no_warning():
    # every delete-group replicate of M = 2 holds one replica: the moment
    # jackknives have no replicates (SE 0.0, as below 2 groups) instead of
    # dividing by zero
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=0.25,
        times=(0.5, 1.0), radii=(1.0, 2.0), replicas=2, seed=4, chaos=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = run_experiment(plan, threads=1)
        d = summary_to_dict(s, deterministic=True)
        report = functional_cov_check(s)
    for row in d["pairs"]:
        assert math.isfinite(row["variance"]) and row["variance"] > 0
        assert row["variance_se"] == row["chaos_cov_se"] == row["chaos_ratio_se"] == 0.0
    assert np.all(report.se == 0.0)


def test_single_replica_flags_undefined_ses():
    plan = ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=0.25,
        times=(1.0,), radii=(1.0,), replicas=1, seed=0,
    )
    s = run_experiment(plan, threads=1)
    ps = s.stats[(0, 0)]
    assert math.isnan(ps.variance)
    assert math.isnan(ps.variance_se)
    assert math.isnan(ps.mean_se)
    assert ps.ks is None
    assert ps.chaos_cov_se == 0.0


def test_resolve_threads_env(monkeypatch):
    assert resolve_threads(3) == 3
    monkeypatch.setenv("FRACWAVE_THREADS", "5")
    assert resolve_threads(None) == 5
    monkeypatch.setenv("FRACWAVE_THREADS", "bogus")
    with pytest.raises(ValueError):
        resolve_threads(None)
    monkeypatch.setenv("FRACWAVE_THREADS", "0")  # auto: the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert resolve_threads(None) == resolve_threads(0) == cpus
    for negative in ("-1", "-3"):
        monkeypatch.setenv("FRACWAVE_THREADS", negative)
        with pytest.raises(ValueError, match="FRACWAVE_THREADS must be >= 0"):
            resolve_threads(None)
    assert resolve_threads(2) == 2  # an explicit count does not read it
    monkeypatch.delenv("FRACWAVE_THREADS")
    assert resolve_threads(None) >= 1


def test_resolve_threads_refuses_a_negative_count(monkeypatch):
    # as --threads and FRACWAVE_THREADS do: a negative count is no request
    # for the environment's or the CPUs' count
    monkeypatch.setenv("FRACWAVE_THREADS", "2")
    for negative in (-1, -3):
        with pytest.raises(ValueError, match=f"threads must be >= 0 \\(0 = auto\\), got {negative}"):
            resolve_threads(negative)
    plan = ExperimentPlan(hurst=0.5, sigma=SigmaSpec.constant(1.0), h=0.25, times=(1.0,),
                          radii=(1.0,), replicas=1, seed=0)
    with pytest.raises(ValueError, match="threads must be >= 0"):
        run_experiment(plan, threads=-1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask here")
def test_auto_threads_count_the_cpus_of_the_affinity_mask():
    # a process pinned to one CPU, as taskset or a cpuset pins it, starts
    # one worker, not one per CPU of the machine.  The child pins itself,
    # so no other process is touched
    script = ("import os\n"
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              "from fracwave.estimators import resolve_threads\n"
              "print(resolve_threads(None), resolve_threads(0))\n")
    env = {k: v for k, v in os.environ.items() if k != "FRACWAVE_THREADS"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["1", "1"]


def test_summary_dict_schema(white_linear_summary):
    d = summary_to_dict(white_linear_summary, deterministic=True)
    assert d["schema"] == "fracwave.summary/1"
    assert d["kappa"] == 0.5
    assert len(d["pairs"]) == 4
    row = d["pairs"][0]
    for key in ("t", "radius", "n", "mean", "variance", "ks", "chaos_ratio"):
        assert key in row
    assert d["plan"]["replicas"] == 1200
    assert len(d["time_covariance"]) == 2
    mat = np.asarray(d["time_covariance"][1]["matrix"])
    assert mat.shape == (2, 2)
    assert mat[0, 1] == pytest.approx(mat[1, 0])
