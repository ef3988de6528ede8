"""
Tour of the lattice scheme
==========================

The wave equation with unit initial displacement and zero initial
velocity is integrated on a lattice with dt = dx = h, where the update
stencil is exact for the deterministic part.  The noise enters through
the kernel weight KAPPA = 1/2, applied to the two cells under the
light cone of each update.

Run:  python3 demos/scheme_tour.py
"""

import numpy as np

from fracwave import (
    KAPPA,
    LatticeConfig,
    NoiseSpec,
    SigmaSpec,
    calibrate_kernel,
    first_chaos_weights,
    picard_reference,
    sample_sheet,
    solve,
    window_averages,
)

cfg = LatticeConfig(h=0.25, t_max=2.0, x_half_width=4.0)
spec = NoiseSpec(hurst=0.5, dt=cfg.h, dx=cfg.h, n_time=cfg.n_steps,
                 n_space=cfg.n_cells, seed=11)
sheet = sample_sheet(spec, replica=0)

# KAPPA is the lattice analogue of the 1/2 in the d'Alembert kernel; the
# calibration integrates the stencil response and lands on 1/2 exactly.
print(f"kernel weight KAPPA = {KAPPA}, calibrated: {calibrate_kernel(cfg.h, spec.hurst):.12f}")

# --- cone of validity -----------------------------------------------------
# Values are only defined where the numerical domain of dependence fits
# inside the lattice; outside, the field stores NaN.
fld = solve(cfg, sheet, SigmaSpec.linear())
top = fld.values[-1]
valid = np.isfinite(top)
print(f"top row: {valid.sum()} valid sites of {top.size} "
      f"(cone shrinks by one cell per step per side)")
print(f"field noise provenance: {fld.sheet.ref!r}")

# --- additive case is a plain stochastic integral -------------------------
# With sigma constant the solution is 1 + (integral of the kernel against
# the noise), which one fixed-point sweep reproduces identically.
fld_c = solve(cfg, sheet, SigmaSpec.constant(1.0))
ref_c, _ = picard_reference(cfg, sheet, SigmaSpec.constant(1.0), iterations=1)
gap = np.nanmax(np.abs(fld_c.values - ref_c.values))
print(f"constant sigma: scheme vs one-sweep reference, max gap {gap:.3e}")
# The spatial average over [-R, R] is then linear in the noise too: it is
# its own first-chaos projection, the chaos weights dotted with the sheet.
t_obs, radius = cfg.t_max, 2.0
avg = window_averages(fld_c, (t_obs,), (radius,))[0, 0]
w = first_chaos_weights(cfg, t_obs, radius, KAPPA)
chaos = float(np.vdot(w, sheet.masses[: w.shape[0]]))
print(f"constant sigma: spatial average at t = {t_obs}, R = {radius}: {avg:.12f}, "
      f"its first chaos {chaos:.12f}")

# --- fixed-point iteration, and cross-validation of the scheme ------------
# For state-dependent sigma the two integrators discretize the integral
# equation differently, so at fixed h they differ by O(h); refining the
# lattice shrinks the gap.
ref, diffs = picard_reference(cfg, sheet, SigmaSpec.linear(), iterations=8)
print("fixed-point sweep deltas:", " ".join(f"{d:.2e}" for d in diffs))
for h in (0.25, 0.125, 0.0625):
    c2 = LatticeConfig(h=h, t_max=1.0, x_half_width=1.0)
    sp2 = NoiseSpec(hurst=0.5, dt=h, dx=h, n_time=c2.n_steps,
                    n_space=c2.n_cells, seed=11)
    gaps = []
    for rep in range(25):
        sh2 = sample_sheet(sp2, replica=rep)
        a = solve(c2, sh2, SigmaSpec.linear())
        b, _ = picard_reference(c2, sh2, SigmaSpec.linear(), iterations=12)
        gaps.append(abs(a.values[-1, c2.center_index] - b.values[-1, c2.center_index]))
    print(f"h = {h:7.4f}: mean |scheme - fixed point| at the cone tip "
          f"{np.mean(gaps):.4f}")

# --- degenerate coefficient freezes the field -----------------------------
# sigma(1) = 0 kills the noise at the initial level, so nothing ever moves.
frozen = solve(cfg, sheet, SigmaSpec.tabulated([-10.0, 10.0], [-11.0, 9.0]))
inner = frozen.values[np.isfinite(frozen.values)]
print(f"sigma(u) = u - 1: field stays at 1 everywhere "
      f"({np.all(inner == 1.0)})")

# --- determinism ----------------------------------------------------------
again = solve(cfg, sample_sheet(spec, replica=0), SigmaSpec.linear())
print(f"same seed and replica give the identical field: "
      f"{np.array_equal(fld.values, again.values, equal_nan=True)}")
