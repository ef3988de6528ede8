"""Monte Carlo estimation of spatial-average statistics, with merge-safe replicas.

A plan fixes the lattice, the coefficient, observation times and window radii,
the replica count and the base seed.  Replicas are pure functions of
(plan, replica id): chunks of replicas can run in any order or in parallel and
merge into the same summary, byte for byte: a chunk runs increasing ids, the
merge puts its chunks' pieces in id order, and every reduction runs in that
order after it.  Statistics over the merged samples are keyed summarize
tasks: by default the pair table, one task per (time, radius) pair, while a
caller may ask for just the tasks it reads (the rate command's bootstrap and
ladder).  A task reads the samples, never another task's result; with more
than one worker the tasks run on a process pool, each reducing its columns
in id order.  pool_map is the one pool path: chunks and statistics tasks.

The summary carries raw per-replica samples of the centered spatial average
and its first-chaos projection, empirical moment curves read off the window
center, and the statistics asked for: by default per-pair variance, normality
distance and chaos decomposition, with delete-group jackknife standard errors.
The curves keep no per-replica rows: each block of _CHUNK replica ids is
reduced to its sums and centred sums of squares, in the worker that ran it
when it ran the whole block, and summarize folds the blocks in id order, so
the curves take 4 (n_steps + 1) floats a block and have the same bits at any
worker count and chunking.

The normality distance needs Phi.  An interpolated table finds the few ranks
where the sup can be, and a port of Cephes ndtr (the float scipy.special.ndtr
returns) evaluates them exactly, so this module imports no scipy.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import analytic
from .analytic import MomentCurves
from .noise import STREAM, NoiseSpec, _check_hurst, _check_key, _sheet_floats, sample_sheet
from .solver import (KAPPA, LatticeConfig, LatticeError, SigmaSpec, SolutionField, _field_floats,
                     _snap_to_grid, solve)

__all__ = [
    "ExperimentPlan",
    "ChunkResult",
    "ExperimentSummary",
    "PairStats",
    "window_averages",
    "first_chaos_weights",
    "ks_normality",
    "ks_coupled",
    "ks_coupled_se",
    "ks_critical",
    "KS_MIN_N",
    "run_replica_chunk",
    "merge_chunks",
    "summarize",
    "pair_tasks",
    "pool_map",
    "run_experiment",
    "functional_cov_check",
    "FunctionalCovReport",
    "tightness_moment",
    "plan_to_dict",
    "strict_json",
    "plan_hash",
    "summary_to_dict",
    "resolve_threads",
]

_CHUNK = 256
# Sheets per stack: run_replica_chunk stacks as many as fit _BATCH_BYTES of
# work buffers, at most _BATCH_SHEETS.  A sheet's buffers (_stack_budget) are
# its sampler's floats and five level rows: 0.63 MB white, 1.71 MB fractional
# on a 33 x 2113-node lattice, 2.33 MB white on 65 x 4225.  2 MiB stacks them
# 3, 1 and 1, as 4 MiB did when the solver stored every level.  In interleaved
# 256-replica chunks (2-CPU VM, 20 rounds) stacks of 2-4 sheets beat one sheet
# in 16-19 rounds on both 33 x 2113 lattices; 3 white-noise sheets ran 11%
# faster, and 16, at five times the memory, at most 6% more.  The 9 x 145-node
# rate lattices run 100: in process their time is flat from 47 to 256 per
# stack, and in pooled rate runs on 2 workers stacks of 190 ran 8% slower.  The
# first-chaos weights are not counted: one band per (t, R) for the whole run,
# kept in the buffers dict (1.05 MB on the white-noise lattice).
_BATCH_BYTES = 2 << 20
_BATCH_SHEETS = 100
_JACK_GROUPS = 100
# fewest samples a KS distance is computed from
KS_MIN_N = 100
# ks_normality bounds each block of this many sorted points from its two
# ends and evaluates the blocks that can still hold the sup (see _ks_sorted).
# On the bootstrap columns of a 3*10^4-replica rate study 24 was the fastest
# of 8..64 points: about 100 us a column, 110 at 16, 115 at 32, 130 at 8 and
# 150 at 64; the pruned form beats the full one from 2000-4500 points (2-CPU
# VM).
_KS_BLOCK = 24
_KS_PRUNE_MIN = 4096
# Phi tabulated on [-_PHI_SPAN, _PHI_SPAN] at step _PHI_STEP for the
# interpolant of _ks_sorted.  Linear interpolation errs by at most
# step^2 max|Phi''| / 8, and |Phi''(x)| = |x| phi(x) <= phi(1) < 0.2420;
# 1e-12 covers the rounding of the table and of the interpolation.
_PHI_SPAN = 9.0
_PHI_STEP = 2.0**-10
_PHI_ERR = 0.0303 * _PHI_STEP**2 + 1e-12
# Terms within this of the largest approximate term may hold the sup: two
# interpolation errors, and 1e-9 for the exact Phi, which need not be
# monotone in its last bits.
_KS_MARGIN = 2.0 * _PHI_ERR + 1e-9


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything that determines the law and the estimators of one experiment."""

    hurst: float
    sigma: SigmaSpec
    h: float
    times: tuple[float, ...]
    radii: tuple[float, ...]
    replicas: int
    seed: int
    normalization: str = "self"
    chaos: bool = True
    x_half_width: Optional[float] = None

    def __post_init__(self):
        _check_hurst(self.hurst)
        if not 0 < self.h < math.inf:
            raise ValueError(f"h must be finite and positive, got {self.h}")
        if not self.times or any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be a nonempty strictly increasing tuple")
        if not self.radii or any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be a nonempty strictly increasing tuple")
        for t in self.times:
            _grid_steps(t, self.h, "time")
        for r in self.radii:
            _grid_steps(r, self.h, "radius")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        _check_key(self.seed, "seed")
        if self.normalization not in ("self", "paper"):
            raise ValueError(f"normalization must be 'self' or 'paper', got {self.normalization!r}")
        needed = max(self.radii) + max(self.times)
        if self.x_half_width is None:
            object.__setattr__(self, "x_half_width", needed)
        elif self.x_half_width < needed - 1e-9:
            raise LatticeError(
                f"x_half_width={self.x_half_width} too small: domain of dependence "
                f"needs at least max radius + max time = {needed}"
            )
        self.lattice()  # checks x_half_width against the grid

    def lattice(self) -> LatticeConfig:
        return LatticeConfig(h=self.h, t_max=max(self.times), x_half_width=self.x_half_width)

    def noise_spec(self) -> NoiseSpec:
        cfg = self.lattice()
        return NoiseSpec(
            hurst=self.hurst,
            dt=self.h,
            dx=self.h,
            n_time=cfg.n_steps,
            n_space=cfg.n_cells,
            seed=self.seed,
        )


def plan_to_dict(plan: ExperimentPlan) -> dict:
    """The plan's fields in order, sigma as its kind and params, then the
    noise stream.  Every float of a plan is finite, so strict_json only
    turns the tuples into lists."""
    return strict_json({**asdict(plan), "stream": STREAM})


def plan_hash(plan: ExperimentPlan) -> str:
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _grid_steps(value: float, h: float, name: str) -> int:
    """Lattice steps in a positive time or radius, by the grid rule of
    solver._snap_to_grid; a value <= 0 is refused before the grid is asked."""
    n = 0 if value <= 0 else _snap_to_grid(value, h, name)
    if n < 1:
        raise ValueError(f"{name}={value} is not positive")
    return n


def _window(cfg: LatticeConfig, t: float, radius: float) -> tuple[int, int, int]:
    """Level of time t and the node indices of the window [-radius, radius]
    at it: (n, left, right).  Raises if the window leaves the validity cone,
    which at level n spans nodes n .. n_nodes - 1 - n."""
    n = cfg.time_index(t)
    rn = _grid_steps(radius, cfg.h, "radius")
    j0 = cfg.center_index
    if n + rn > j0:
        raise ValueError(f"window radius {radius} at t={t} leaves the validity cone; "
                         f"grow x_half_width to at least radius + t")
    return n, j0 - rn, j0 + rn


def window_averages(fld: SolutionField, times: Sequence[float], radii: Sequence[float]) -> np.ndarray:
    """Trapezoid integrals of u(t, .) - 1 over [-radius, radius], end nodes
    at half weight, for every (t, radius) pair: shape fld.values.shape[:-2]
    + (len(times), len(radii)), one row per replica of a stacked field.
    Raises if any needed node is outside the validity cone at its level."""
    cfg = fld.config
    out = np.empty(fld.values.shape[:-2] + (len(times), len(radii)))
    for it, t in enumerate(times):
        _window_sums(cfg, fld.values[..., cfg.time_index(t), :], t, radii, out[..., it, :])
    return out


def _window_sums(cfg: LatticeConfig, u: np.ndarray, t: float, radii, out: np.ndarray) -> None:
    """window_averages of the level u of time t, into out[..., radius]: the one row reducer."""
    row = u - 1.0
    for ir, radius in enumerate(radii):
        _, left, right = _window(cfg, t, radius)
        seg = row[..., left: right + 1]
        out[..., ir] = cfg.h * (np.add.reduce(seg, axis=-1) - 0.5 * (seg[..., 0] + seg[..., -1]))


def first_chaos_weights(cfg: LatticeConfig, t: float, radius: float, kappa: float) -> np.ndarray:
    """Cell weights of the first-chaos projection of the scheme's spatial average.

    Shape (time_index(t), n_cells).  Row m holds, for each cell, kappa * h *
    (trapezoid measure of the window nodes the cell reaches), the exact linear
    map the scheme applies to the noise when sigma is constant 1.

    At propagation depth q = time_index(t) - 1 - m, cell c reaches nodes
    c - q .. c + 1 + q, so its measure is a difference of two prefix sums
    of the node weights (1 inside the window, 1/2 at its ends).  The sums
    are of halves, hence exact, and each row is two slices of one array.
    """
    n_t, left, right = _window(cfg, t, radius)
    # cum[k + n_t] = weight of the nodes below k, for k = -n_t .. n_nodes + n_t
    w = np.zeros(cfg.n_nodes + 2 * n_t)
    w[n_t + left: n_t + right + 1] = 1.0
    w[[n_t + left, n_t + right]] = 0.5
    cum = np.concatenate([[0.0], np.cumsum(w)])
    rows = np.lib.stride_tricks.sliding_window_view(cum, cfg.n_cells)  # rows[s] = cum[s:]
    # row m, depth q = n_t - 1 - m: rows[2 n_t + 1 - m] - rows[1 + m], two basic-slice views
    weights = np.subtract(rows[2 * n_t + 1: n_t + 1: -1], rows[1: n_t + 1])
    weights *= kappa * cfg.h
    return weights


def _chaos_stacks(cfg: LatticeConfig, times, radii) -> list[list[tuple[int, np.ndarray]]]:
    """Per time and radius, (first cell, weights) of the window's cone |y| <= radius + t:
    the weights of the smallest lattice that holds the cone, equal to cfg's
    there bit for bit; cfg's are zero on every other cell."""
    def band(t, r):
        crop = LatticeConfig(cfg.h, t, r + t)
        return cfg.center_index - crop.center_index, first_chaos_weights(crop, t, r, KAPPA)
    return [[band(t, r) for r in radii] for t in times]


def _chaos_samples(bands: list, masses: np.ndarray, out: np.ndarray) -> None:
    """First-chaos samples of a stack of sheets into out[sheet, time, radius]: per
    band, a dot product per sheet and level over its cells, summed over levels.
    Each sheet gets the bits it has alone, which np.einsum over a stack would not."""
    for it, row in enumerate(bands):
        for ir, (off, band) in enumerate(row):
            cone = masses[..., : band.shape[0], off: off + band.shape[1]]
            out[..., it, ir] = np.add.reduce(np.vecdot(cone, band), axis=-1)


def _check_ks_size(n: int) -> None:
    if n < KS_MIN_N:
        raise ValueError(f"KS distance needs at least {KS_MIN_N} samples, got {n}")


# Cephes ndtr/erf/erfc coefficients, in the Horner order of polevl; Q, S and U
# write out the leading 1 that p1evl implies (1.0 * x is exact)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRTH = 7.07106781186547524401e-1


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # underflow
        return 2.0 if a < 0 else 0.0
    if x < 8.0:
        y = (math.exp(z) * _polevl(x, _ERFC_P)) / _polevl(x, _ERFC_Q)
    else:
        y = (math.exp(z) * _polevl(x, _ERFC_R)) / _polevl(x, _ERFC_S)
    return 2.0 - y if a < 0 else y


def _ndtr(a: float) -> float:
    """Standard normal CDF, the float scipy.special.ndtr gives: Cephes ndtr
    with its erf and erfc, term for term, and libm exp (math.exp)."""
    if a != a:
        return a
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


@functools.cache
def _phi_table() -> tuple[np.ndarray, np.ndarray]:
    """Phi at -_PHI_SPAN + k _PHI_STEP, k = 0 .. 2 _PHI_SPAN / _PHI_STEP, and
    the rise from each point to the next."""
    k = int(_PHI_SPAN / _PHI_STEP)
    phi = np.array([0.5 * math.erfc(-j * _PHI_STEP * _SQRTH) for j in range(-k, k + 2)])
    rise = np.diff(phi)
    phi = phi[:-1]
    phi.flags.writeable = rise.flags.writeable = False
    return phi, rise


def _phi_approx(x: np.ndarray) -> np.ndarray:
    """Phi within _PHI_ERR: the table interpolated linearly, its end values
    beyond it (Phi(-9) < 1.2e-19).  The grid is uniform, so a point's cell
    is its scaled offset truncated, with no search."""
    phi, rise = _phi_table()
    u = np.clip(x, -_PHI_SPAN, _PHI_SPAN)
    u += _PHI_SPAN
    u *= 1.0 / _PHI_STEP
    cell = u.astype(np.intp)
    u -= cell
    u *= rise.take(cell)
    u += phi.take(cell)
    return u


def _ks_terms(cdf: np.ndarray, rank: np.ndarray, n: int) -> np.ndarray:
    """max(i/n - Phi(x_(i)), Phi(x_(i)) - (i-1)/n) at float ranks i, given Phi(x_(i))."""
    return np.maximum(rank / n - cdf, cdf - (rank - 1.0) / n)


@functools.lru_cache(maxsize=4)
def _ks_blocks(n: int) -> tuple[np.ndarray, ...]:
    """Block layout of an n-point sample for _ks_sorted: the 0-based first
    rank of every block and n - 1, then at those ranks i the fractions
    (i + 1)/n and i/n, and per block the first rank of the next one (n for
    the last) over n.  A jackknife or bootstrap asks for one or two n."""
    edges = np.append(np.arange(0, n, _KS_BLOCK), n - 1)
    layout = (edges, (edges + 1.0) / n, edges / n, np.minimum(edges[:-1] + _KS_BLOCK, n) / n)
    for a in layout:
        a.flags.writeable = False
    return layout


def _ks_sorted(x: np.ndarray) -> float:
    """ks_normality of a sorted sample, with the exact Phi only where the sup can be.

    Every term is first taken with _phi_approx, which moves it by at most
    _PHI_ERR.  From _KS_PRUNE_MIN points on, the sample is cut into blocks
    of _KS_BLOCK ranks, and the terms at the first rank of each block and at
    the last rank give a lower bound `best` on the sup.  Phi is monotone, so
    every term of a block of ranks first..last is at most max(last/n -
    Phi(x_(first)), Phi(x_(last+1)) - (first-1)/n), x_(n+1) read as x_(n);
    only blocks whose bound reaches best less _KS_MARGIN are kept.  Of the ranks kept (all of them below _KS_PRUNE_MIN), those whose
    approximate term reaches the largest less _KS_MARGIN get the exact
    term, from _ndtr.  The exact argmax passes both filters, so the result
    is the max of the full formula's floats over a subset that holds it:
    the same float.  A NaN sorts last and makes the result NaN.
    """
    n = x.size
    if math.isnan(x[-1]):
        return math.nan
    if n >= _KS_PRUNE_MIN:
        edges, upper, lower, next_upper = _ks_blocks(n)
        cdf = _phi_approx(x[edges])
        best = np.maximum(upper - cdf, cdf - lower).max()
        bound = np.maximum(next_upper - cdf[:-1], cdf[1:] - lower[:-1])
        hot = edges[:-1][bound >= best - _KS_MARGIN]
        ranks = np.minimum(hot[:, None] + np.arange(_KS_BLOCK), n - 1).ravel()
    else:
        ranks = np.arange(n)
    terms = _ks_terms(_phi_approx(x[ranks]), ranks + 1.0, n)
    best = -math.inf
    for i in ranks[terms >= terms.max() - _KS_MARGIN].tolist():
        cdf = _ndtr(float(x[i]))
        best = max(best, (i + 1.0) / n - cdf, cdf - float(i) / n)
    return best


def ks_normality(samples: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance of the sample to the standard normal law.

    sup_i max(i/n - Phi(x_(i)), Phi(x_(i)) - (i-1)/n) over the sorted sample.
    Requires at least 100 samples; the caller normalizes beforehand.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    _check_ks_size(x.size)
    return _ks_sorted(x)


def _paired(samples: Sequence[float], reference: Sequence[float]) -> list[np.ndarray]:
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray(reference, dtype=np.float64)
    if y.size != x.size:
        raise ValueError(f"coupled KS needs paired samples, got {x.size} and {y.size}")
    return [x, y]


def _ks_coupled_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """sup_z |F_a(z) - F_b(z)| for two sorted samples of equal size.

    One stable merge of the two sorted runs (timsort merges them in linear
    time) and a running count, +1 per point of a and -1 per point of b.  At
    the last point of each run of equal values the count is #a <= z less
    #b <= z, an exact integer; NaNs sort last and count as one run.
    """
    both = np.concatenate([a, b])
    order = both.argsort(kind="stable")
    z = both[order]
    count = np.cumsum(np.where(order < a.size, 1, -1))
    last = np.append((z[1:] != z[:-1]) & ~np.isnan(z[:-1]), True)
    return float(np.abs(count[last]).max() / a.size)


def ks_coupled(samples: Sequence[float], reference: Sequence[float]) -> float:
    """KS distance of the law of `samples` to the normal law, estimated
    against an exactly Gaussian control evaluated on the same replicas.

    Returns sup_z |F_x(z) - F_y(z)| for the empirical distribution functions
    of x = samples / sd(samples) and y = reference / sd(reference) (sample
    standard deviations, as in the self-normalized KS column).  When the
    reference is the first-chaos projection I of the spatial average G, with
    each (G, I) pair from one replica: I is a fixed linear functional of the
    Gaussian noise with mean zero, so I / sd(I) is exactly standard normal
    and sup |F_{G/sd} - Phi| = sup |F_{G/sd} - F_{I/sd_I}| for the law.  The
    two empirical terms then share their sampling noise, which only survives
    where G and I fall on different sides of z; for G and I with
    correlation near 1 the statistic resolves distances well below the
    sampling floor of ks_normality (about 0.87/sqrt(n)).
    """
    x, y = _paired(samples, reference)
    _check_ks_size(x.size)
    return _ks_coupled_sorted(np.sort(x / x.std(ddof=1)), np.sort(y / y.std(ddof=1)))


def ks_coupled_se(samples: Sequence[float], reference: Sequence[float]) -> float:
    """Delete-group jackknife SE of ks_coupled; groups drop whole pairs."""
    return _ks_jackknife(_paired(samples, reference), normalize=True)


def ks_critical(n: int) -> float:
    """Classical large-sample KS critical value at the 1% level,
    sqrt(-ln(0.01/2)/2) / sqrt(n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return float(np.sqrt(-0.5 * np.log(0.005)) / np.sqrt(n))


@dataclass
class ChunkResult:
    """Raw per-replica output for increasing replica ids, in pieces: a chunk
    cuts its ids at the edges of the blocks of _CHUNK ids, a merge puts its
    chunks' pieces in id order.  replica_ids, g and i1 run piece after piece.
    sigma_pieces holds, per piece, its id count and sigma(u) at the window
    center: as the block's moments (_block_moments) when the piece is a
    whole block, else as its rows, which summarize joins to their block's."""

    replica_ids: np.ndarray
    g: np.ndarray  # (n_ids, n_times, n_radii)
    i1: Optional[np.ndarray]  # same shape, or None when chaos is off
    sigma_pieces: tuple  # of (n_ids, rows or None, moments or None)


def _block_moments(rows: np.ndarray) -> np.ndarray:
    """Sum S and centred sum of squares M2 = sum (v - S/n)^2 of v = sigma and
    v = sigma^2 over one block's rows, each an np.add.reduce in row order:
    shape (4, n_steps + 1), rows S and M2 of sigma, then of sigma^2."""
    out = np.empty((4, rows.shape[1]))
    work = np.empty_like(rows)  # sigma^2, then each deviation and its square
    for k in range(2):
        v = rows if k == 0 else np.square(rows, out=work)
        out[2 * k] = np.add.reduce(v, axis=0)
        np.subtract(v, out[2 * k] / len(v), out=work)
        out[2 * k + 1] = np.add.reduce(np.square(work, out=work), axis=0)
    return out


def _stack_budget(plan: ExperimentPlan) -> tuple[int, int]:
    """(sheets per stack, bytes per sheet) of run_replica_chunk: every work
    buffer that sample_sheet and solve hold for one sheet of a stack, each
    counted by the module that allocates it, against _BATCH_BYTES; at most
    _BATCH_SHEETS sheets."""
    floats = _sheet_floats(plan.noise_spec()) + _field_floats(plan.lattice())
    return max(1, min(_BATCH_SHEETS, _BATCH_BYTES // (8 * floats))), 8 * floats


def run_replica_chunk(plan: ExperimentPlan, replica_ids: Sequence[int],
                      buffers: Optional[dict] = None) -> ChunkResult:
    """Solve and reduce the given replicas, ids increasing.  Pure in (plan, ids).

    The replicas run in stacks whose work buffers fit _BATCH_BYTES (the
    normals, and at H > 1/2 the masses, of sample_sheet; the level rows,
    pair row and kick row of solve; each counted per sheet by
    _stack_budget), at most _BATCH_SHEETS: 3 sheets on the 33 x 2113-node
    white-noise lattice, 1 on the fractional one, 100 on the 9 x 145-node
    rate lattice.  One sample_sheet call draws a stack, of one replica too,
    and one solve runs it, in one set of work buffers sized by the first
    stack; a caller's own buffers dict serves its next chunk too, which
    saves faulting the memory in again.  No field is stored: solve hands
    each level on as it makes it, and the chunk keeps every level's window
    centre (sigma is applied to a stack's at once) and reduces the levels
    of plan.times (_window_sums).

    With chaos on, the first-chaos bands (_chaos_stacks) are built before
    the first stack and kept in buffers["chaos"], keyed by the lattice,
    times and radii (another key rebuilds them): once per worker in a run.
    _chaos_samples applies them to a stack, each sheet's bits as alone.

    Block k holds ids 256k .. min(256k + 256, M) - 1.  The chunk reduces
    each whole block it holds to its moments, and ships the rows of a block
    it holds only part of.

    An exception keeps its type and gains the plan digest and the chunk's
    replica-id range in its message, pooled or not.
    """
    ids = np.asarray(list(replica_ids), dtype=np.int64)
    if ids.size == 0 or np.any(ids[1:] <= ids[:-1]):
        raise ValueError(f"a chunk runs a nonempty, increasing list of replica ids, got "
                         f"{np.array2string(ids, threshold=8)} [plan {plan_hash(plan)[:12]}]")
    cfg = plan.lattice()
    spec = plan.noise_spec()
    batch, _ = _stack_budget(plan)
    buffers = {} if buffers is None else buffers
    bands = None
    if plan.chaos:
        key = (cfg, plan.times, plan.radii)
        if buffers.get("chaos", (None,))[0] != key:
            buffers.pop("chaos", None)  # another plan's weights go before these are built
            buffers["chaos"] = (key, _chaos_stacks(cfg, plan.times, plan.radii))
        bands = buffers["chaos"][1]

    g = np.empty((ids.size, len(plan.times), len(plan.radii)))
    i1 = np.empty_like(g) if plan.chaos else None
    sig_c = np.empty((ids.size, cfg.n_steps + 1))
    at_time = {cfg.time_index(t): it for it, t in enumerate(plan.times)}
    center = cfg.center_index
    try:
        for start in range(0, ids.size, batch):
            rows = slice(start, start + batch)
            def reduce_level(n, u):  # each level of the stack, as solve makes it
                sig_c[rows, n] = u[:, center]
                if (it := at_time.get(n)) is not None:
                    _window_sums(cfg, u, plan.times[it], plan.radii, g[rows, it])
            sheet = sample_sheet(spec, ids[rows], buffers=buffers)
            solve(cfg, sheet, plan.sigma, buffers=buffers, each_level=reduce_level)
            sig_c[rows] = plan.sigma(sig_c[rows])
            if bands is not None:
                _chaos_samples(bands, sheet.masses, i1[rows])
    except Exception as exc:
        where = f"plan {plan_hash(plan)[:12]}, replicas {ids.min()}..{ids.max()}"
        try:
            named = type(exc)(f"{exc} [{where}]")
        except TypeError:  # a type built from more than a message: as it was
            raise exc from None
        raise named from exc
    pieces = []
    cuts = [0, *(np.flatnonzero(np.diff(ids // _CHUNK)) + 1), ids.size]
    for lo, hi in zip(cuts, cuts[1:]):
        first, n = ids[lo], hi - lo
        if first % _CHUNK == 0 and ids[hi - 1] - first + 1 == n == min(_CHUNK, plan.replicas - first):
            pieces.append((n, None, _block_moments(sig_c[lo:hi])))
        else:
            pieces.append((n, sig_c[lo:hi].copy(), None))
    return ChunkResult(replica_ids=ids, g=g, i1=i1, sigma_pieces=tuple(pieces))


def merge_chunks(*chunks: ChunkResult) -> ChunkResult:
    """Associative, commutative merge of any number of chunks: their pieces,
    each its ids with their g and i1 rows and its sigma moments or rows,
    sorted by first id and concatenated, so the ids increase; the sigma
    pieces are kept, not copied.  A ValueError names two pieces whose id
    ranges overlap, which no order of pieces puts in id order."""
    if len({c.i1 is None for c in chunks}) > 1:
        raise ValueError("cannot merge chunks with and without chaos samples")
    pieces = []
    for c in chunks:
        cuts = np.cumsum([0] + [n for n, _, _ in c.sigma_pieces])
        pieces += [(c.replica_ids[lo:hi], c.g[lo:hi], None if c.i1 is None else c.i1[lo:hi], sig)
                   for sig, lo, hi in zip(c.sigma_pieces, cuts, cuts[1:])]
    pieces.sort(key=lambda p: p[0][0])
    for (a, *_), (b, *_) in zip(pieces, pieces[1:]):
        if a[-1] >= b[0]:
            raise ValueError(f"chunks of replicas {a[0]}..{a[-1]} and {b[0]}..{b[-1]} overlap")
    ids, g, i1, sig = zip(*pieces)
    return ChunkResult(replica_ids=np.concatenate(ids), g=np.concatenate(g),
                       i1=None if i1[0] is None else np.concatenate(i1), sigma_pieces=sig)


def _group_bounds(n: int) -> np.ndarray:
    g = min(_JACK_GROUPS, n)
    return np.linspace(0, n, g + 1).astype(np.int64)


def _sample_variance(x: np.ndarray) -> float:
    # NaN flags the undefined single-replica case rather than faking a zero
    return float(np.var(x, ddof=1)) if x.size > 1 else float("nan")


def _jackknife_se(values: np.ndarray) -> float:
    g = values.size
    if g < 2:
        return 0.0
    return float(np.sqrt((g - 1.0) / g * np.sum((values - values.mean()) ** 2)))


def _cov_replicates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Delete-group replicates of the sample covariance of (x, y), from the
    sums of x, y and x*y less each group's; a variance is (x, x).  Empty
    below 2 groups or when a replicate would hold fewer than 2 samples (as
    at M = 2), where _jackknife_se reads 0.0."""
    n = x.size
    bounds = _group_bounds(n)
    g = bounds.size - 1
    if g < 2 or n - np.diff(bounds).max() < 2:
        return np.empty(0)
    reps = np.empty(g)
    sx, sy, sxy = x.sum(), y.sum(), np.dot(x, y)
    for i in range(g):
        gx = x[bounds[i]: bounds[i + 1]]
        gy = y[bounds[i]: bounds[i + 1]]
        ns = n - gx.size
        rx, ry, rxy = sx - gx.sum(), sy - gy.sum(), sxy - np.dot(gx, gy)
        reps[i] = (rxy - rx * ry / ns) / (ns - 1)
    return reps


def _ks_jackknife(columns: list[np.ndarray], normalize: bool) -> float:
    """Delete-group jackknife SE of the KS distance of one column
    (ks_normality) or of two paired columns (ks_coupled).

    Each column is sorted once.  A replicate drops its group's ranks through
    one reused mask, which leaves the rest sorted; with normalize it then
    divides them by the sample SD of the column less the group, taken over
    the same concatenation as deleting the group would give.  Division by a
    positive scalar keeps the order, so every replicate is the float that
    sorting it afresh would give.  The full columns must hold KS_MIN_N
    samples; a replicate, one group short, may hold fewer.
    """
    n = columns[0].size
    _check_ks_size(n)
    bounds = _group_bounds(n)
    g = bounds.size - 1
    ranked = []
    for col in columns:
        order = np.argsort(col)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        ranked.append((col[order], rank))
    keep = np.ones(n, dtype=bool)
    reps = np.empty(g)
    for i in range(g):
        lo, hi = bounds[i], bounds[i + 1]
        rest = []
        for col, (srt, rank) in zip(columns, ranked):
            keep[rank[lo:hi]] = False
            part = srt[keep]
            keep[rank[lo:hi]] = True
            if normalize:
                part /= np.concatenate([col[:lo], col[hi:]]).std(ddof=1)
            rest.append(part)
        reps[i] = _ks_sorted(*rest) if len(rest) == 1 else _ks_coupled_sorted(*rest)
    return _jackknife_se(reps)


@dataclass
class PairStats:
    """Statistics for one (time, radius) pair.  Its fields, in order, follow
    t_index and r_index in the summary JSON's pair rows."""

    t: float
    radius: float
    n: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    scale: float  # normalization used for the KS samples
    ks: Optional[float]
    ks_se: Optional[float]
    chaos_cov: Optional[float] = None
    chaos_cov_se: Optional[float] = None
    chaos_var: Optional[float] = None
    chaos_ratio: Optional[float] = None
    chaos_ratio_se: Optional[float] = None


@dataclass
class ExperimentSummary:
    plan: ExperimentPlan
    plan_digest: str
    wall_seconds: float
    g_samples: np.ndarray = field(repr=False)  # (M, n_times, n_radii), in replica id order
    i1_samples: Optional[np.ndarray] = field(repr=False)
    curve_times: np.ndarray = field(repr=False)
    curve_mean: np.ndarray = field(repr=False)
    curve_sq: np.ndarray = field(repr=False)
    curve_mean_se: np.ndarray = field(repr=False)
    curve_sq_se: np.ndarray = field(repr=False)
    # task key -> result; by default (i_time, i_radius) -> PairStats
    stats: dict = field(default_factory=dict)

    def samples(self, i_time: int, i_radius: int) -> np.ndarray:
        return self.g_samples[:, i_time, i_radius]

    def pair_table(self) -> list:
        """The ((i_time, i_radius), PairStats) items of stats, in index
        order; the results of other tasks are left out."""
        keys = np.ndindex(len(self.plan.times), len(self.plan.radii))
        return [(pair, self.stats[pair]) for pair in keys if pair in self.stats]

    def chaos_samples(self, i_time: int, i_radius: int) -> np.ndarray:
        if self.i1_samples is None:
            raise ValueError("plan ran without chaos projections")
        return self.i1_samples[:, i_time, i_radius]

    def oracle_curves(self) -> MomentCurves:
        """Analytic curves when the coefficient admits them, else empirical."""
        curves = MomentCurves.closed_form(self.plan.sigma, self.plan.hurst)
        return curves or MomentCurves.from_samples(self.curve_times, self.curve_mean, self.curve_sq)

    def oracle_scale(self, i_time: int, i_radius: int) -> float:
        """Oracle standard deviation of the spatial average at a pair."""
        t, r = self.plan.times[i_time], self.plan.radii[i_radius]
        curves = self.oracle_curves()
        if self.plan.hurst == 0.5 and r >= 2.0 * t:
            return float(np.sqrt(analytic.prelimit_variance_white(t, r, curves)))
        return float(
            np.sqrt(r ** (2.0 * self.plan.hurst) * analytic.asymptotic_variance(t, self.plan.hurst, curves))
        )


def _pair_stats(summary: ExperimentSummary, pair: tuple[int, int]) -> PairStats:
    """Statistics of one (time, radius) pair, from the summary's samples."""
    it, ir = pair
    plan = summary.plan
    x = summary.samples(it, ir)
    m = x.size
    mean = float(x.mean())
    mean_se = float(x.std(ddof=1) / np.sqrt(m)) if m > 1 else float("nan")
    var = _sample_variance(x)
    var_reps = _cov_replicates(x, x)
    var_se = _jackknife_se(var_reps) if m > 1 else float("nan")
    if plan.normalization == "self":
        scale = float(x.std(ddof=1)) if m > 1 else 1.0
    else:
        scale = summary.oracle_scale(it, ir)
    ks = ks_se = None
    if m >= KS_MIN_N and scale > 0:
        normalized = x / scale
        ks = ks_normality(normalized)
        if plan.normalization == "self":
            ks_se = _ks_jackknife([x], normalize=True)
        else:
            ks_se = _ks_jackknife([normalized], normalize=False)
    ps = PairStats(
        t=plan.times[it], radius=plan.radii[ir], n=m, mean=mean, mean_se=mean_se,
        variance=var, variance_se=var_se, scale=scale, ks=ks, ks_se=ks_se,
    )
    if summary.i1_samples is not None:
        y = summary.chaos_samples(it, ir)
        ps.chaos_var = _sample_variance(y)
        ps.chaos_cov = float(np.cov(x, y, ddof=1)[0, 1]) if m > 1 else float("nan")
        ps.chaos_cov_se = _jackknife_se(_cov_replicates(x, y))
        if var > 0:
            ps.chaos_ratio = ps.chaos_var / var
            ps.chaos_ratio_se = _jackknife_se(_cov_replicates(y, y) / var_reps)
    return ps


def pair_tasks(plan: ExperimentPlan) -> dict:
    """The pair table as summarize tasks: (i_time, i_radius) -> its PairStats task."""
    return {pair: (_pair_stats, (pair,)) for pair in np.ndindex(len(plan.times), len(plan.radii))}


def _curve_moments(merged: ChunkResult, m: int) -> tuple[np.ndarray, ...]:
    """mean over the replicas of sigma and sigma^2, then std(ddof=1) /
    sqrt(m) of each, from per-block moments.

    Whole blocks arrive as moments.  The rows of split blocks, in pieces
    that each lie within one block, are joined per block in id order and
    reduced by the same _block_moments, so the bits do not depend on the
    chunking.  Then mean = (S_0 + S_1 + ...) / m and M2 = sum_b [M2_b
    + n_b (S_b / n_b - mean)^2] (Chan, Golub & LeVeque 1983), each summed
    over the blocks in id order.  With one block the second term is 0."""
    blocks, part, lo = [], [], 0
    for n, rows, moments in merged.sigma_pieces:
        lo += n
        if rows is not None:
            part.append(rows)
            if lo % _CHUNK and lo < m:  # the block goes on in the next piece
                continue
            rows = np.concatenate(part)
            n, moments, part = len(rows), _block_moments(rows), []
        blocks.append((n, moments))
    mean = functools.reduce(np.add, (b[0::2] for _, b in blocks)) / m
    if m < 2:
        return mean[0], mean[1], np.zeros_like(mean[0]), np.zeros_like(mean[1])
    m2 = functools.reduce(np.add, (b[1::2] + n * (b[0::2] / n - mean) ** 2 for n, b in blocks))
    se = np.sqrt(m2 / (m - 1)) / np.sqrt(m)
    return mean[0], mean[1], se[0], se[1]


def summarize(plan: ExperimentPlan, merged: ChunkResult, wall_seconds: float,
              workers: int = 1, tasks: Optional[Mapping] = None) -> ExperimentSummary:
    """Build the summary from merged chunks.  The merge leaves the replicas in
    id order and every reduction runs in that order, so the result is
    chunking-independent; summarize reorders nothing.  The curves come from
    the sigma pieces: the moments of whole blocks, and the rows of the others
    joined per block (_curve_moments).

    tasks maps each key to a statistic (fn, args) of the summary,
    fn(summary, *args); None means the pair table (pair_tasks).  They share
    one pool_map on `workers` processes, in the mapping's order, so a caller
    lists its longest first; each fn is a module-level function, since it
    crosses the pipe by name.  A task reads the samples, never another
    task's result; each reads its columns of the (M, n_times, n_radii) sample
    block with the strides they have here, so the worker count does not
    change a bit.  summary.stats maps each key to its task's result.

    A ValueError names the plan digest and the first missing or extra id
    when the merged ids are not 0..M-1 exactly once."""
    digest = plan_hash(plan)
    m = plan.replicas
    ids = merged.replica_ids
    if not np.array_equal(ids, np.arange(m)):
        k = int(np.argmax(np.append(ids[:m] != np.arange(min(m, ids.size)), True)))  # first misfit
        what = f"replica {ids[k]} is extra" if k == m else f"replica {k} is missing"
        raise ValueError(f"merged chunks do not cover replicas 0..{m - 1} exactly once: "
                         f"{what} [plan {digest[:12]}]")
    curve_mean, curve_sq, curve_mean_se, curve_sq_se = _curve_moments(merged, m)

    cfg = plan.lattice()
    summary = ExperimentSummary(
        plan=plan,
        plan_digest=digest,
        wall_seconds=wall_seconds,
        g_samples=merged.g,
        i1_samples=merged.i1,
        curve_times=cfg.h * np.arange(cfg.n_steps + 1),
        curve_mean=curve_mean,
        curve_sq=curve_sq,
        curve_mean_se=curve_mean_se,
        curve_sq_se=curve_sq_se,
    )
    tasks = pair_tasks(plan) if tasks is None else tasks
    summary.stats = dict(zip(tasks, pool_map(_call, (summary,), tasks.values(), workers)))
    return summary


def resolve_threads(threads: Optional[int] = None) -> int:
    """Explicit argument, else FRACWAVE_THREADS, else one per CPU this
    process may run on (its affinity mask where the platform has one, else
    os.cpu_count()).  0 means auto; a negative threads, or a FRACWAVE_THREADS
    that is no integer >= 0, raises ValueError."""
    if threads is not None and threads < 0:
        raise ValueError(f"threads must be >= 0 (0 = auto), got {threads!r}")
    if threads:
        return threads
    env = os.environ.get("FRACWAVE_THREADS", "").strip()
    if env:
        try:
            val = int(env)
        except ValueError as exc:
            raise ValueError(f"FRACWAVE_THREADS must be an integer, got {env!r}") from exc
        if val < 0:
            raise ValueError(f"FRACWAVE_THREADS must be >= 0 (0 = auto), got {env!r}")
        if val > 0:
            return val
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the (fn, shared) of the pool this worker process serves
_WORKER_TASK = None


def _install_task(fn, shared: tuple) -> None:
    global _WORKER_TASK
    _WORKER_TASK = (fn, shared)


def _run_task(task):
    fn, shared = _WORKER_TASK
    return fn(*shared, task)


def pool_map(fn, shared: tuple, tasks: Sequence, workers: int) -> list:
    """[fn(*shared, task) for task in tasks], in task order.

    With more than one worker and more than one task the tasks run on a
    process pool started for this call, one worker per task at most.
    `shared` reaches each worker once, through the pool initializer: where
    processes fork it is inherited, not pickled, so a pool started after a
    sample block exists reads that block in place.  Only the tasks and their
    results cross the pipes.  Otherwise the tasks run here, in order.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*shared, task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks)), initializer=_install_task,
                             initargs=(fn, shared)) as pool:
        return list(pool.map(_run_task, tasks))


def _call(summary: ExperimentSummary, task):
    fn, args = task
    return fn(summary, *args)


def run_experiment(plan: ExperimentPlan, threads: Optional[int] = None,
                   tasks: Optional[Mapping] = None) -> ExperimentSummary:
    """Run all replicas (chunked, optionally in parallel) and summarize.

    Chunks get the plan once per worker and only their id ranges per task.
    The summary is a pure function of the plan: worker count and chunk
    boundaries do not change a single byte of it.  tasks go to summarize.
    """
    start = time.perf_counter()
    workers = resolve_threads(threads)
    ids = [range(i, min(i + _CHUNK, plan.replicas)) for i in range(0, plan.replicas, _CHUNK)]
    # one buffers dict per process, for the stacks and the chaos weights: each
    # worker inherits its own copy
    results = pool_map(functools.partial(run_replica_chunk, buffers={}), (plan,), ids, workers)
    merged = merge_chunks(*results)
    del results  # the merge keeps the sigma moments; the chunks' g and i1 rows go
    # a plan of one chunk is too small to pay for a pool for its statistics
    return summarize(plan, merged, time.perf_counter() - start, workers if len(ids) > 1 else 1, tasks)


@dataclass
class FunctionalCovReport:
    """Empirical vs limit covariance of the scaled averages on the time grid."""

    times: np.ndarray
    radius: float
    empirical: np.ndarray
    oracle: np.ndarray
    se: np.ndarray

    @property
    def max_se_units(self) -> float:
        safe = np.where(self.se > 0, self.se, np.inf)
        return float(np.abs((self.empirical - self.oracle) / safe).max())


def functional_cov_check(summary: ExperimentSummary) -> FunctionalCovReport:
    """Compare the empirical covariance matrix of radius^{-H} G(t_i) against
    the limit matrix, entry by entry, with jackknife SEs, at the plan's
    largest radius: the functional CLT is a limit as the radius grows."""
    plan = summary.plan
    if len(plan.times) < 2:
        raise ValueError("functional covariance check needs at least two observation times")
    if plan.replicas < 2:
        raise ValueError("functional covariance check needs at least 2 replicas")
    r = plan.radii[-1]
    scaled = summary.g_samples[:, :, -1] / r**plan.hurst
    n_t = len(plan.times)
    emp = np.cov(scaled.T, ddof=1)
    emp = np.atleast_2d(emp)
    se = np.zeros((n_t, n_t))
    for i in range(n_t):
        for j in range(i, n_t):
            se[i, j] = se[j, i] = _jackknife_se(_cov_replicates(scaled[:, i], scaled[:, j]))
    oracle = analytic.asymptotic_constants(plan.hurst, np.asarray(plan.times), summary.oracle_curves())
    return FunctionalCovReport(
        times=np.asarray(plan.times), radius=r, empirical=emp, oracle=oracle, se=se
    )


def tightness_moment(summary: ExperimentSummary, p: float, s: float, t: float, radius: Optional[float] = None) -> dict:
    """p-th absolute moment of the increment G(t) - G(s), with the scaling
    reference radius^{pH} |t - s|^p.  s and t must be observation times of the
    plan; equal times give a zero moment.  Defaults to the largest radius."""
    if p <= 0:
        raise ValueError("p must be positive")
    plan = summary.plan
    if radius is None:
        radius = plan.radii[-1]
    try:
        i_time = plan.times.index(s)
        j_time = plan.times.index(t)
        i_radius = plan.radii.index(radius)
    except ValueError as exc:
        raise ValueError(f"(s={s}, t={t}, radius={radius}) not on the plan grid") from exc
    inc = summary.g_samples[:, j_time, i_radius] - summary.g_samples[:, i_time, i_radius]
    amp = np.abs(inc) ** p
    moment = float(amp.mean())
    se = float(amp.std(ddof=1) / np.sqrt(amp.size)) if amp.size > 1 else float("nan")
    reference = radius ** (p * plan.hurst) * abs(t - s) ** p
    return {
        "p": p,
        "t_low": s,
        "t_high": t,
        "radius": radius,
        "moment": moment,
        "moment_se": se,
        "reference": reference,
        "ratio": moment / reference if reference > 0 else None,
    }


def strict_json(obj):
    """Copy of a JSON-ready value with every non-finite float replaced by
    None (strict JSON has no NaN or Infinity) and every tuple by a list."""
    if isinstance(obj, dict):
        return {k: strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def summary_to_dict(summary: ExperimentSummary, deterministic: bool) -> dict:
    """JSON-ready view of a summary.  Raw samples stay out (CSV export covers
    them); with deterministic=True the volatile fields (wall time) are omitted
    so identical plans produce identical bytes.  Statistics undefined at the
    replica count (SEs at M = 1, say) read None."""
    rows = [{"t_index": it, "r_index": ir, **asdict(ps)} for (it, ir), ps in summary.pair_table()]
    time_cov = []
    if len(summary.plan.times) >= 2 and summary.plan.replicas >= 2:
        for ir, r in enumerate(summary.plan.radii):
            mat = np.atleast_2d(np.cov(summary.g_samples[:, :, ir].T, ddof=1))
            time_cov.append({"r_index": ir, "radius": r, "matrix": mat.tolist()})
    out = {
        "schema": "fracwave.summary/1",
        "plan": plan_to_dict(summary.plan),
        "plan_hash": summary.plan_digest,
        "kappa": KAPPA,
        "pairs": rows,
        "time_covariance": time_cov,
        "curves": {
            "times": summary.curve_times.tolist(),
            "mean_sigma": summary.curve_mean.tolist(),
            "mean_sigma_sq": summary.curve_sq.tolist(),
            "mean_sigma_se": summary.curve_mean_se.tolist(),
            "mean_sigma_sq_se": summary.curve_sq_se.tolist(),
        },
    }
    if not deterministic:
        out["wall_seconds"] = summary.wall_seconds
    return strict_json(out)
