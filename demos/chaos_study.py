"""
First-chaos share of the windowed average
=========================================

Project the windowed average G onto its first Wiener chaos I1 (the part
linear in the driving noise).  Two facts to see numerically:

- Cov(G, I1) = Var(I1) holds by orthogonality of higher chaoses, at any
  radius, so the projection needs no fitting.
- The variance share Var(I1)/Var(G) approaches 1 as the window grows in
  the fractionally correlated case (H > 1/2), while for white noise it
  stays strictly below 1: higher chaoses keep a fixed share there.

Run:  python3 demos/chaos_study.py
"""

from fracwave import (
    ExperimentPlan,
    MomentCurves,
    SigmaSpec,
    first_chaos_variance,
    prelimit_variance_white,
    run_experiment,
)


def report(summary, label):
    plan = summary.plan
    for ir, radius in enumerate(plan.radii):
        st = summary.stats[(0, ir)]
        cov_pull = (st.chaos_cov - st.chaos_var) / st.chaos_cov_se
        print(f"  {label} R = {radius:4.1f}: share {st.chaos_ratio:.4f} "
              f"+- {st.chaos_ratio_se:.4f}   Cov(G,I1) - Var(I1) = "
              f"{cov_pull:+.2f} SE")


white = ExperimentPlan(
    hurst=0.5, sigma=SigmaSpec.linear(), h=1.0 / 32.0,
    times=(1.0,), radii=(4.0, 32.0), replicas=3000, seed=19,
)
frac = ExperimentPlan(
    hurst=0.75, sigma=SigmaSpec.linear(), h=1.0 / 16.0,
    times=(1.0,), radii=(4.0, 32.0), replicas=1200, seed=23,
)

print("white noise (H = 1/2), sigma(u) = u:")
sw = run_experiment(white, threads=1)
report(sw, "H=0.50")
# exact finite-window share from the two closed forms
curves = MomentCurves.linear_white()
for radius in white.radii:
    exact = first_chaos_variance(1.0, radius, 0.5) / prelimit_variance_white(
        1.0, radius, curves
    )
    print(f"  exact share at R = {radius:4.1f}: {exact:.4f}")

print("fractional noise (H = 3/4), sigma(u) = u:")
sf = run_experiment(frac, threads=1)
report(sf, "H=0.75")
print("  (share approaches 1 with the window; the first chaos dominates)")
