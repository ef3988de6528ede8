"""
Tour of the driving noise
=========================

The driver is white in time and fractionally correlated in space with
Hurst index H in [1/2, 1).  Every replica is a matrix of cell masses
W([i*dt,(i+1)*dt] x [j*dx,(j+1)*dx]): independent rows (time slabs),
each row a stationary fractional Gaussian increment sequence in space.

Run:  python3 demos/noise_tour.py
"""

import os
import tempfile

import numpy as np

from fracwave import (
    NoiseSpec,
    fgn_cell_covariance,
    read_sheet,
    sample_sheet,
    write_sheet,
)

rng_replicas = 400

# --- closed-form cell covariance ------------------------------------------
# Cov(mass_j, mass_{j+d}) = dt * dx^{2H}/2 * (|d+1|^{2H} - 2|d|^{2H} + |d-1|^{2H}).
# fgn_cell_covariance returns the spatial factor; multiply by dt for cells.
spec = NoiseSpec(hurst=0.75, dt=0.25, dx=0.25, n_time=8, n_space=64, seed=42)
print(f"spec: H={spec.hurst}, dt={spec.dt}, dx={spec.dx}, "
      f"grid {spec.n_time}x{spec.n_space}")
for lag in (0, 1, 3):
    print(f"  cell covariance at lag {lag}: {spec.dt * fgn_cell_covariance(lag, spec.hurst, spec.dx):.8f}")

# --- empirical check over replicas ----------------------------------------
# Each replica id opens an independent counter-based substream, so the
# loop below is reproducible and order-independent.
lag = 3
acc = 0.0
acc_var = 0.0
for rep in range(rng_replicas):
    sheet = sample_sheet(spec, replica=rep)
    m = sheet.masses
    acc += float(np.mean(m[:, :-lag] * m[:, lag:]))
    acc_var += float(np.mean(m * m))
emp_cov = acc / rng_replicas
emp_var = acc_var / rng_replicas
print(f"empirical lag-{lag} covariance over {rng_replicas} replicas: "
      f"{emp_cov:.8f}  (exact {spec.dt * fgn_cell_covariance(lag, spec.hurst, spec.dx):.8f})")
print(f"empirical cell variance: {emp_var:.8f}  "
      f"(exact {spec.dt * fgn_cell_covariance(0, spec.hurst, spec.dx):.8f})")

# --- block aggregation identity -------------------------------------------
# Summing k adjacent cells in one row must give variance dt * (k*dx)^{2H}
# for every k: the covariances telescope.  This pins the normalization of
# the synthesis and is also checked exactly, to float precision, in the
# test suite.
k = 8
exact_block = spec.dt * (k * spec.dx) ** (2.0 * spec.hurst)
pair_sum = sum(
    spec.dt * fgn_cell_covariance(abs(i - j), spec.hurst, spec.dx)
    for i in range(k) for j in range(k)
)
print(f"block of {k} cells: pair-sum {pair_sum:.10f} vs "
      f"dt*(k*dx)^(2H) = {exact_block:.10f}")

emp_block = 0.0
for rep in range(rng_replicas):
    sheet = sample_sheet(spec, replica=rep)
    block = sheet.masses[:1, :k].sum()
    emp_block += block * block
print(f"block variance over replicas: {emp_block / rng_replicas:.6f}")

# --- white-noise limit case -----------------------------------------------
# At H = 1/2 distinct cells are independent and the variance is dt*dx.
white = NoiseSpec(hurst=0.5, dt=0.25, dx=0.25, n_time=8, n_space=64, seed=42)
print(f"white case: lag-0 {white.dt * fgn_cell_covariance(0, 0.5, white.dx):.6f} "
      f"(dt*dx = {white.dt * white.dx:.6f}), "
      f"lag-1 {white.dt * fgn_cell_covariance(1, 0.5, white.dx):.6f}")

# --- file round trip ------------------------------------------------------
sheet = sample_sheet(spec, replica=7)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sheet.fwns")
    write_sheet(sheet, path)
    back = read_sheet(path)
    same = np.array_equal(sheet.masses, back.masses)
    print(f"dump/load round trip bit-exact: {same}")
    print(f"provenance tag of sampled sheet: {sheet.ref!r}, "
          f"of loaded sheet: {back.ref!r}")
