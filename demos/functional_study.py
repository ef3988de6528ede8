"""
The averages as a process in time
=================================

Viewed across several times at a fixed window, the normalized averages
converge to a centered Gaussian process.  Two numerical checks:

- the empirical time-covariance matrix matches the closed-form window
  overlap integrals entry by entry, up to the scheme's O(h) bias, which
  visibly halves when the lattice step halves;
- second moments of time increments scale like R (t - s)^2, the bound
  behind tightness of the process.

Run:  python3 demos/functional_study.py    (about half a minute)
"""

import numpy as np

from fracwave import (
    ExperimentPlan,
    SigmaSpec,
    functional_cov_check,
    run_experiment,
    tightness_moment,
)


def make_summary(h):
    plan = ExperimentPlan(
        hurst=0.5,
        sigma=SigmaSpec.constant(1.0),
        h=h,
        times=(0.25, 0.5, 1.0),
        radii=(16.0,),
        replicas=2500,
        seed=41,
        chaos=False,
    )
    return run_experiment(plan, threads=1, tasks={})  # no pair table: the checks read the samples


fine = make_summary(1.0 / 64.0)
report = functional_cov_check(fine)
print("time-covariance of G over R at R = 16 (sigma = 1, H = 1/2, h = 1/64):")
print("  empirical:")
for row in report.empirical:
    print("    " + "  ".join(f"{v:8.4f}" for v in row))
print("  closed form:")
for row in report.oracle:
    print("    " + "  ".join(f"{v:8.4f}" for v in row))

# the largest relative gap is dominated by the O(h) scheme bias at the
# earliest time, where few lattice steps resolve the cone; halving h
# should roughly halve it
for label, summary in (("h = 1/32", make_summary(1.0 / 32.0)), ("h = 1/64", fine)):
    rep = functional_cov_check(summary)
    gap = np.max(np.abs(rep.empirical - rep.oracle) / np.abs(rep.oracle))
    print(f"  worst relative gap at {label}: {100.0 * gap:.1f}%")

print("tightness: E (G(t) - G(s))^2 over R (t - s)^2 "
      "(bounded ratios mean a tight family):")
for s, t in [(0.25, 0.5), (0.5, 1.0), (0.25, 1.0)]:
    tm = tightness_moment(fine, 2.0, s, t)
    print(f"  s={s:4.2f} t={t:4.2f}: moment {tm['moment']:8.4f} "
          f"+- {tm['moment_se']:.4f}   ratio {tm['ratio']:.3f}")
