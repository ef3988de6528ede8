"""
Variance of windowed spatial averages
=====================================

For the white-in-space case (H = 1/2) with sigma(u) = u, the centered
windowed average G(t, R) = integral of (u(t, y) - 1) over [-R, R] has a
closed-form variance at every finite R, and Var G / (2R) approaches an
explicit constant as the window grows.  The ensemble below checks both,
plus Gaussianity of the normalized averages.

Lattice note: at step h the ensemble variance carries an O(h) bias, and
all radii share the same replicas, so the pulls below are correlated and
drift a shade positive at this resolution.  Halving h halves the drift.

Run:  python3 demos/variance_study.py    (about a minute on one core)
"""

from fracwave import (
    ExperimentPlan,
    MomentCurves,
    SigmaSpec,
    asymptotic_variance,
    ks_critical,
    prelimit_variance_white,
    run_experiment,
)

plan = ExperimentPlan(
    hurst=0.5,
    sigma=SigmaSpec.linear(),
    h=1.0 / 32.0,
    times=(1.0,),
    radii=(2.0, 4.0, 8.0, 16.0, 32.0),
    replicas=4000,
    seed=7,
    chaos=False,
)
print(f"plan: H={plan.hurst}, sigma linear, h={plan.h}, M={plan.replicas}")
summary = run_experiment(plan, threads=1)
print(f"wall time {summary.wall_seconds:.1f} s")

curves = MomentCurves.linear_white()
limit = asymptotic_variance(1.0, 0.5, curves)
print(f"large-window constant (Var G / R): {limit:.6f}")

for ir, radius in enumerate(plan.radii):
    st = summary.stats[(0, ir)]
    oracle = prelimit_variance_white(1.0, radius, curves)
    pull = (st.variance - oracle) / st.variance_se
    print(f"R = {radius:4.1f}: Var {st.variance:9.4f} +- {st.variance_se:.4f}  "
          f"exact {oracle:9.4f}  ({pull:+.2f} SE)   Var/R = {st.variance / radius:.4f}")

# KS distance of the self-normalized samples against the unit Gaussian;
# at finite R it sits above zero but shrinks as the window grows, and at
# the widest window it is already far below the 1% rejection line.
st = summary.stats[(0, len(plan.radii) - 1)]
print(f"KS at R = {plan.radii[-1]}: {st.ks:.4f}  "
      f"(1% critical value for n={st.n}: {ks_critical(st.n):.4f})")
print(f"mean of G (should vanish): {st.mean:+.4f} +- {st.mean_se:.4f}")
