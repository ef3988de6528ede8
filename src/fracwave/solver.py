"""Characteristic-lattice scheme for the wave equation with multiplicative noise.

The lattice has equal time and space steps h (unit propagation speed), so the
deterministic part of the update is the exact two-step recursion

    u[n+1, j] = u[n, j+1] + u[n, j-1] - u[n-1, j] + kappa * sigma(u[n, j]) * dW[n, j]

with the half-sum starting step carrying the zero initial velocity.  A unit
impulse propagates with weight exactly 1 on the parity checkerboard of this
recursion, and each node is fed the noise mass of its 2h-wide dual cell (the
two lattice cells it touches), so the active nodes of any backward cone tile
its rows exactly.  Matching the resulting variance against one quarter of the
discrete cone-mass variance fixes kappa = 1/2 for every step size and Hurst
index: that is KAPPA, and calibrate_kernel performs the count.

solve runs one sheet or a stack (replica axis first) level by level in
place, and stores every level or keeps three and hands each on as it is
made.  Values outside the shrinking interior cone of the spatial window
are never defined; they are stored as NaN and never read by the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .noise import NoiseSheet, _buffer, _check_hurst, _single, fgn_cell_covariance

__all__ = [
    "KAPPA",
    "SIGMA_PARAMS",
    "SigmaSpec",
    "LatticeConfig",
    "LatticeError",
    "SolutionField",
    "calibrate_kernel",
    "solve",
    "picard_reference",
]

_LATTICE_TOL = 1e-9
_RING = 3  # level rows solve keeps when it hands levels on: u[n-1], u[n], u[n+1]
# Kernel constant of the update.  For constant sigma the value at a node is
# 1 + kappa * (sum of the cone's cell masses): impulses carry weight 1 on the
# checkerboard and the dual cells of the active nodes tile each cone row.  Its
# variance kappa^2 * V must be one quarter of the discrete cone-mass variance
# V, so kappa = 1/2 for every h and H (calibrate_kernel does the count).
KAPPA = 0.5
# The sigma kinds and the names of their params, in order; the names are the
# keys of a config's [sigma] section.
SIGMA_PARAMS = {"constant": ("value",), "linear": (), "affine_sine": ("base", "amplitude"),
                "tabulated": ("knots", "values")}


@dataclass(frozen=True)
class SigmaSpec:
    """Multiplicative coefficient sigma, one of the kinds of SIGMA_PARAMS.

    constant: sigma(u) = value
    linear: sigma(u) = u
    affine_sine: sigma(u) = base + amplitude * sin(u)
    tabulated: piecewise linear through (knots, values), clamped outside

    is_degenerate: sigma(1) = 0, which keeps the field at its initial state
    exactly.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        names = SIGMA_PARAMS.get(self.kind)
        if names is None:
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if len(self.params) != len(names):
            raise ValueError(f"{self.kind} sigma needs params ({', '.join(names)})")
        if not all(np.isfinite(p).all() for p in self.params):
            raise ValueError(f"{self.kind} sigma params must be finite, got {self.params}")
        if self.kind == "tabulated":
            knots, values = self.params
            if len(knots) != len(values) or len(knots) < 2:
                raise ValueError("tabulated sigma needs >= 2 knot/value pairs")
            if not all(b > a for a, b in zip(knots, knots[1:])):
                raise ValueError("tabulated knots must be strictly increasing")

    @classmethod
    def constant(cls, c: float) -> "SigmaSpec":
        return cls(kind="constant", params=(float(c),))

    @classmethod
    def linear(cls) -> "SigmaSpec":
        return cls(kind="linear")

    @classmethod
    def affine_sine(cls, offset: float, amplitude: float) -> "SigmaSpec":
        return cls(kind="affine_sine", params=(float(offset), float(amplitude)))

    @classmethod
    def tabulated(cls, knots, values) -> "SigmaSpec":
        return cls(
            kind="tabulated",
            params=(tuple(float(k) for k in knots), tuple(float(v) for v in values)),
        )

    def __call__(self, u):
        """sigma(u): times with unit mass, since x * 1.0 is x for every float."""
        return self.times(u, 1.0, np.empty(np.shape(u)))

    def times(self, u: np.ndarray, mass: np.ndarray, out: np.ndarray) -> np.ndarray:
        """sigma(u) * mass, elementwise, written to out: the same floats as
        the expression, with one temporary at most (tabulated)."""
        if self.kind == "constant":
            return np.multiply(self.params[0], mass, out=out)
        if self.kind == "linear":
            return np.multiply(u, mass, out=out)
        if self.kind == "affine_sine":
            a, b = self.params
            np.sin(u, out=out)
            out *= b
            out += a
        else:
            out[...] = np.interp(u, *self.params)
        out *= mass
        return out

    @property
    def is_degenerate(self) -> bool:
        return float(self(1.0)) == 0.0


class LatticeError(ValueError):
    """A finite value off the lattice, or a window short of its domain of dependence."""


def _snap_to_grid(value: float, h: float, name: str) -> int:
    ratio = value / h
    if not np.isfinite(ratio):
        raise ValueError(f"{name}={value} is not a finite multiple of the lattice step h={h}")
    n = int(round(ratio))
    if abs(ratio - n) > _LATTICE_TOL:
        raise LatticeError(f"{name}={value} is not a multiple of the lattice step h={h}")
    return n


@dataclass(frozen=True)
class LatticeConfig:
    """Uniform lattice: step h in both directions, times [0, t_max], window
    [-x_half_width, x_half_width].  Both extents must be lattice multiples."""

    h: float
    t_max: float
    x_half_width: float

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise ValueError(f"h must be finite and positive, got {self.h}")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        _snap_to_grid(self.t_max, self.h, "t_max")
        half = _snap_to_grid(self.x_half_width, self.h, "x_half_width")
        if half < self.n_steps:
            raise LatticeError(
                "x_half_width must be at least t_max: the interior cone would be empty"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.h))

    @property
    def n_nodes(self) -> int:
        return 2 * int(round(self.x_half_width / self.h)) + 1

    @property
    def n_cells(self) -> int:
        return self.n_nodes - 1

    @property
    def center_index(self) -> int:
        return int(round(self.x_half_width / self.h))

    def time_index(self, t: float) -> int:
        n = _snap_to_grid(t, self.h, "t")
        if not (0 <= n <= self.n_steps):
            raise ValueError(f"t={t} outside [0, {self.t_max}]")
        return n


@dataclass
class SolutionField:
    """Solved field on the lattice: values[..., n, j] = u(n*h, -x_half_width + j*h),
    values[b] replica b of a stack.  NaN marks nodes outside the interior
    validity cone, which at level n holds nodes n..n_nodes-1-n.  sheet is
    the driving noise; sheet.ref is its provenance tag.  A solve that hands
    its levels on returns its ring instead (see solve)."""

    config: LatticeConfig
    values: np.ndarray = field(repr=False)
    sheet: NoiseSheet = field(repr=False)


def calibrate_kernel(h: float, hurst: float) -> float:
    """Kernel constant kappa by closed-form counting of lattice weights.

    For constant sigma the scheme's value at a node is 1 + kappa * (sum of the
    cone's cell masses), because impulses carry weight 1 on the checkerboard
    and the dual-cell windows of the active nodes tile each row of the cone
    (row at depth p holds one fractional increment of width 2(p+1)h).  The
    target variance is one quarter of the discrete cone-mass variance; both
    sides are assembled here, over the cone rows of a horizon of 8 steps,
    from fgn_cell_covariance and the ratio returns kappa = 1/2 exactly, for
    every (h, hurst): the count behind KAPPA, which solve uses.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    _check_hurst(hurst)
    scheme_weight_var = 0.0
    for depth in range(1, 9):
        width = 2 * depth  # cells in the tiled row
        lags = np.arange(width)
        cov = fgn_cell_covariance(np.abs(lags[:, None] - lags[None, :]), hurst, h)
        scheme_weight_var += h * float(cov.sum())  # rows are independent in time
    target = 0.25 * scheme_weight_var  # quarter of the discrete cone-mass variance
    return float(np.sqrt(target / scheme_weight_var))


def _check_sheet(config: LatticeConfig, sheet: NoiseSheet) -> None:
    spec = sheet.spec
    if abs(spec.dt - config.h) > _LATTICE_TOL * config.h or abs(spec.dx - config.h) > _LATTICE_TOL * config.h:
        raise ValueError(
            f"sheet cells ({spec.dt} x {spec.dx}) do not match the lattice step {config.h}"
        )
    if spec.n_time < config.n_steps:
        raise ValueError(f"sheet has {spec.n_time} rows, lattice needs {config.n_steps}")
    if spec.n_space != config.n_cells:
        raise ValueError(
            f"sheet has {spec.n_space} cells per row, the window needs exactly {config.n_cells}"
        )


def solve(config: LatticeConfig, sheet: NoiseSheet, sigma: SigmaSpec, *,
          buffers: Optional[dict] = None, each_level=None) -> SolutionField:
    """Run the scheme over the whole lattice, for one sheet or a stack.

    The noise attached to node j at level n is the mass of the two cells
    [x_j - h, x_j + h) in time row n, scaled by KAPPA.  sigma is evaluated
    on the previous level (the update stays adapted).  A stacked sheet is
    solved along its replica axis, every update elementwise along it:
    values[b], shaped as a single sheet's (n_steps + 1, n_nodes), equals
    bit for bit and NaN for NaN the values of solving sheet b alone.

    The work runs level-major: level n of all replicas is one contiguous
    row, row n % ring of a ring of level rows, and each step of the update
    is one ufunc call over it, written in place in the order
    u[n, j+1] + u[n, j-1] - u[n-1, j] + sigma * mass, gaps between the
    replicas' cones included.  The pair masses come one row per level,
    built into the same row before each step: the sum of the row's two
    cell slices, then times KAPPA (a power of two, so sigma * (KAPPA *
    mass) rounds as (KAPPA * sigma) * mass).  The row is NaN at the two end
    nodes, which have no dual cell: level 1 is NaN there, and every node
    outside the cone reads one outside the cone at the level below, so NaN
    fills exactly those nodes; the nodes of a level row beyond its first
    and last update (the outer edges of the stack) are set to NaN directly.

    Without each_level the ring holds every level.  Given it, the ring holds
    three, each_level(n, u) gets every level as it is made (u is values[...,
    n, :], valid during the call only), and the field returned is the ring.

    buffers, a dict, holds the pair row, the kick row (sigma * mass) and
    the ring between calls (see noise.sample_sheet): the field's values
    are then a view into it, valid until the next call given the same dict.
    Without it every call allocates afresh.
    """
    _check_sheet(config, sheet)
    n_steps, n_nodes = config.n_steps, config.n_nodes
    w = sheet.masses
    lead = w.shape[:-2]  # () for one sheet, (B,) for a stack
    ring = n_steps + 1 if each_level is None else _RING
    u = _buffer(buffers, "values", (ring,) + lead + (n_nodes,))
    u[0] = 1.0
    # pair[..., j] = KAPPA * mass of node j's dual cell in the current row
    pair = _buffer(buffers, "pair", lead + (n_nodes,))
    pair[..., 0] = pair[..., -1] = np.nan
    # one row per level: replica b's node j sits at b * n_nodes + j
    flat, mass = u.reshape(ring, -1), pair.reshape(-1)
    kick = _buffer(buffers, "kick", mass.shape)
    if each_level is not None:
        each_level(0, u[0])
    for n in range(n_steps):
        new, now, old = flat[(n + 1) % ring], flat[n % ring], flat[(n - 1) % ring]
        np.add(w[..., n, :-1], w[..., n, 1:], out=pair[..., 1:-1])
        mass *= KAPPA  # the whole row in one contiguous pass: NaN stays NaN
        # nodes n+1 .. n_nodes-2-n of every replica, and the gaps between
        lo, hi = n + 1, flat.shape[1] - 1 - n
        new[:lo] = new[hi:] = np.nan
        level = new[lo:hi]
        np.add(now[lo + 1: hi + 1], now[lo - 1: hi - 1], out=level)
        if n == 0:
            level *= 0.5  # the half-sum start: zero initial velocity
        else:
            level -= old[lo:hi]
        level += sigma.times(now[lo:hi], mass[lo:hi], kick[: hi - lo])
        if each_level is not None:
            each_level(n + 1, u[(n + 1) % ring])
    return SolutionField(config=config, values=np.moveaxis(u, 0, -2), sheet=sheet)


def _field_floats(config: LatticeConfig) -> int:
    """Floats per sheet of solve's buffers when it hands levels on: ring, pair and kick rows."""
    return (_RING + 2) * config.n_nodes


def picard_reference(config: LatticeConfig, sheet: NoiseSheet, sigma: SigmaSpec,
                     iterations: int) -> tuple[SolutionField, list[float]]:
    """Fixed-point reference solver: direct quadrature of the integral form.

    Starting from the constant initial state, each sweep evaluates

        u_{k+1}(t_n, x_j) = 1 + (1/2) * sum_{cells in the cone of (t_n, x_j)}
                                 sigma(u_k at the cell) * cell mass,

    with the cone condition |x_j - y_cell| <= t_n - s_cell taken at cell
    centers and u_k at a cell read as the mean of its two bounding nodes at
    the cell's base level.  Meant for small lattices; cost is
    O(iterations * n_steps^2 * n_nodes).

    Returns the final iterate as a SolutionField and the list of successive
    sup-norm differences over the validity cone.
    """
    _check_sheet(config, sheet)
    _single(sheet, "picard_reference")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    n_steps, n_nodes = config.n_steps, config.n_nodes
    w = sheet.masses

    valid = np.zeros((n_steps + 1, n_nodes), dtype=bool)
    for n in range(n_steps + 1):
        valid[n, n: n_nodes - n] = True

    u = np.where(valid, 1.0, np.nan)
    diffs = []
    for _ in range(iterations):
        # sigma at cells, per row: mean of the bounding nodes at the base level
        cell_vals = 0.5 * (u[:n_steps, :-1] + u[:n_steps, 1:])
        weighted = np.where(np.isnan(cell_vals), 0.0, sigma(np.where(np.isnan(cell_vals), 1.0, cell_vals))) * w[:n_steps]
        prefix = np.zeros((n_steps, n_nodes))
        prefix[:, 1:] = np.cumsum(weighted, axis=1)

        nxt = np.where(valid, 1.0, np.nan)
        for n in range(1, n_steps + 1):
            j = np.arange(n, n_nodes - n)
            acc = np.zeros(j.size)
            for m in range(n):
                # cells c with |(c + 1/2) - j| <= n - m - 1/2  =>  c in [j-(n-m), j+(n-m)-1]
                reach = n - m
                acc += prefix[m, j + reach] - prefix[m, j - reach]
            nxt[n, j] = 1.0 + 0.5 * acc
        diffs.append(float(np.nanmax(np.abs(nxt - u))))
        u = nxt

    return SolutionField(config=config, values=u, sheet=sheet), diffs
