"""Scheme tests: kernel calibration, exact structural identities on the
lattice (cone locality, degeneracy, linearity), the fixed-point reference
integrator, and the distributional benchmark at a coarse step."""

import numpy as np
import pytest

from fracwave.noise import STREAM, NoiseSheet, NoiseSpec, sample_sheet
from fracwave.solver import (
    KAPPA,
    LatticeConfig,
    SigmaSpec,
    SolutionField,
    calibrate_kernel,
    picard_reference,
    solve,
)


def _sheet(config, hurst=0.5, seed=0, replica=0):
    spec = NoiseSpec(
        hurst=hurst, dt=config.h, dx=config.h,
        n_time=config.n_steps, n_space=config.n_cells, seed=seed,
    )
    return sample_sheet(spec, replica=replica)


def _zero_sheet(config, hurst=0.5):
    spec = NoiseSpec(
        hurst=hurst, dt=config.h, dx=config.h,
        n_time=config.n_steps, n_space=config.n_cells,
    )
    return NoiseSheet(spec=spec, masses=np.zeros((config.n_steps, config.n_cells)))


# ------------------------------------------------------------ SigmaSpec


def test_sigma_kinds_evaluate():
    assert SigmaSpec.constant(2.5)(0.3) == 2.5
    arr = SigmaSpec.constant(2.5)(np.array([0.0, 1.0]))
    assert np.array_equal(arr, np.array([2.5, 2.5]))
    assert SigmaSpec.linear()(1.7) == 1.7
    sig = SigmaSpec.affine_sine(1.0, 0.5)
    assert sig(0.0) == pytest.approx(1.0)
    assert sig(np.pi / 2) == pytest.approx(1.5)
    tab = SigmaSpec.tabulated([-1.0, 0.0, 2.0], [0.0, 1.0, 5.0])
    assert tab(1.0) == pytest.approx(3.0)
    assert tab(-5.0) == pytest.approx(0.0)  # clamped
    assert tab(9.0) == pytest.approx(5.0)


def test_sigma_degeneracy():
    vanish = SigmaSpec.tabulated([-9.0, 1.0, 11.0], [-10.0, 0.0, 10.0])
    assert vanish.is_degenerate
    assert not SigmaSpec.linear().is_degenerate


def test_sigma_validation():
    with pytest.raises(ValueError):
        SigmaSpec(kind="constant", params=())
    with pytest.raises(ValueError):
        SigmaSpec(kind="linear", params=(1.0,))
    with pytest.raises(ValueError):
        SigmaSpec.tabulated([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SigmaSpec.tabulated([0.0], [1.0])
    with pytest.raises(ValueError):
        SigmaSpec(kind="cubic", params=())


# ------------------------------------------------------------ lattice


def test_lattice_indexing():
    cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=2.0)
    assert cfg.n_steps == 4
    assert cfg.n_nodes == 17
    assert cfg.n_cells == 16
    assert cfg.center_index == 8
    assert cfg.time_index(0.5) == 2


def test_lattice_validation():
    with pytest.raises(ValueError, match="multiple"):
        LatticeConfig(h=0.25, t_max=1.1, x_half_width=2.0)
    with pytest.raises(ValueError, match="x_half_width"):
        LatticeConfig(h=0.25, t_max=2.0, x_half_width=1.0)
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="x_half_width=.* finite"):
            LatticeConfig(h=0.25, t_max=1.0, x_half_width=value)
        with pytest.raises(ValueError, match="h must be finite"):
            LatticeConfig(h=value, t_max=1.0, x_half_width=2.0)
    cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=2.0)
    with pytest.raises(ValueError):
        cfg.time_index(1.25)
    with pytest.raises(ValueError):
        cfg.time_index(0.3)


def test_solution_field_cone_access():
    cfg = LatticeConfig(h=0.5, t_max=1.0, x_half_width=2.0)
    fld = solve(cfg, _sheet(cfg), SigmaSpec.constant(1.0))
    assert cfg.n_nodes == 9  # the cone holds nodes 0..8 at level 0, 2..6 at level 2
    # inside the cone a finite value, outside NaN
    assert np.isfinite(fld.values[2, 4])
    assert np.isnan(fld.values[2, 0])
    assert np.isnan(fld.values[1, 8])
    # NaN exactly off-cone, finite exactly on-cone
    for level in range(cfg.n_steps + 1):
        lo, hi = level, cfg.n_nodes - 1 - level
        row = fld.values[level]
        assert np.all(np.isfinite(row[lo: hi + 1]))
        assert np.all(np.isnan(row[:lo]))
        assert np.all(np.isnan(row[hi + 1:]))


# ------------------------------------------------------------ calibration


def test_kernel_constant_is_half_everywhere():
    assert KAPPA == 0.5
    for h in (1.0, 0.25, 1.0 / 64.0):
        for hurst in (0.5, 0.6, 0.75, 0.95):
            assert calibrate_kernel(h, hurst) == KAPPA, (h, hurst)


def test_kernel_constant_horizon_independent():
    # the count runs over a fixed horizon of 8 steps; h and H are checked
    with pytest.raises(ValueError):
        calibrate_kernel(-0.1, 0.8)
    with pytest.raises(ValueError, match="hurst"):
        calibrate_kernel(0.125, 1.0)


# ------------------------------------------------------------ exact identities


def test_zero_noise_keeps_initial_state():
    cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=2.0)
    for sigma in (SigmaSpec.constant(3.0), SigmaSpec.linear(), SigmaSpec.affine_sine(1.0, 0.5)):
        fld = solve(cfg, _zero_sheet(cfg), sigma)
        for level in range(cfg.n_steps + 1):
            lo, hi = level, cfg.n_nodes - 1 - level
            assert np.all(fld.values[level, lo: hi + 1] == 1.0), sigma.kind


def test_degenerate_sigma_freezes_field_bitwise():
    # sigma(1) = 0 with nontrivial slope elsewhere: the field never moves
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=2.0)
    vanish = SigmaSpec.tabulated([-9.0, 1.0, 11.0], [-10.0, 0.0, 10.0])
    fld = solve(cfg, _sheet(cfg, hurst=0.75, seed=3), vanish)
    for level in range(cfg.n_steps + 1):
        lo, hi = level, cfg.n_nodes - 1 - level
        assert np.all(fld.values[level, lo: hi + 1] == 1.0)


def test_constant_sigma_value_is_half_cone_mass():
    # u(t, x) - 1 = kappa * (total cone mass) exactly, kappa = 1/2
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=2.0)
    sheet = _sheet(cfg, hurst=0.75, seed=11)
    c = 1.7
    fld = solve(cfg, sheet, SigmaSpec.constant(c))
    n, j0 = cfg.n_steps, cfg.center_index
    cone = 0.0
    for m in range(n):
        reach = n - m
        cone += sheet.masses[m, j0 - reach: j0 + reach].sum()
    assert fld.values[n, j0] == pytest.approx(1.0 + 0.5 * c * cone, abs=1e-12)


def test_scheme_determinism_bitwise():
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=2.0)
    sheet = _sheet(cfg, hurst=0.75, seed=5)
    a = solve(cfg, sheet, SigmaSpec.affine_sine(1.0, 0.5))
    b = solve(cfg, sheet, SigmaSpec.affine_sine(1.0, 0.5))
    assert np.array_equal(a.values, b.values, equal_nan=True)


def test_cone_locality_bit_equality():
    # changing the noise outside the dependency cone of (t_max, center) must
    # not change the value there by a single bit
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=3.0)
    sheet = _sheet(cfg, hurst=0.5, seed=7)
    n, j0 = cfg.n_steps, cfg.center_index
    tampered = sheet.masses.copy()
    for m in range(cfg.n_steps):
        reach = n - m
        tampered[m, : j0 - reach] += 13.0
        tampered[m, j0 + reach:] -= 4.0
    sheet2 = NoiseSheet(spec=sheet.spec, masses=tampered)
    sigma = SigmaSpec.affine_sine(1.0, 0.5)
    a = solve(cfg, sheet, sigma)
    b = solve(cfg, sheet2, sigma)
    assert a.values[n, j0] == b.values[n, j0]  # bit-exact

    # and the off-cone tampering does change nearby values outside the cone
    assert not np.array_equal(a.values[n - 1], b.values[n - 1], equal_nan=True)


@pytest.mark.parametrize("sigma", [
    SigmaSpec.constant(1.3),
    SigmaSpec.linear(),
    SigmaSpec.affine_sine(1.0, 0.5),
    SigmaSpec.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 0.2]),
], ids=lambda s: s.kind)
def test_batched_solve_matches_single_sheets_bit_for_bit(sigma):
    # a stacked sheet is solved along its leading replica axis; each slice
    # must carry the bytes of the single-sheet solve, NaN layout outside the
    # cone included
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=3.0)
    singles, masses = [], []
    for hurst in (0.5, 0.75):
        sampled = sample_sheet(_sheet(cfg, hurst=hurst, seed=31).spec, [0, 1, 2])
        stacked = solve(cfg, sampled, sigma)
        assert stacked.values.shape == (3, cfg.n_steps + 1, cfg.n_nodes)
        sheets = [_sheet(cfg, hurst=hurst, seed=31, replica=r) for r in range(3)]
        assert stacked.sheet.ref == tuple(sheet.ref for sheet in sheets)
        for b, sheet in enumerate(sheets):
            alone = solve(cfg, sheet, sigma)
            assert alone.values.shape == (cfg.n_steps + 1, cfg.n_nodes)
            assert stacked.values[b].tobytes() == alone.values.tobytes()
            singles.append(alone)
            masses.append(sheet.masses)
        one = solve(cfg, sample_sheet(sampled.spec, [0]), sigma)
        assert one.values.shape == (1, cfg.n_steps + 1, cfg.n_nodes)
        assert one.values[0].tobytes() == stacked.values[0].tobytes()
    # a hand-built stack of sheets of both laws: the law plays no part
    stacked = solve(cfg, NoiseSheet(spec=sampled.spec, masses=np.stack(masses)), sigma)
    assert stacked.sheet.ref == ("external",) * 6
    for b, alone in enumerate(singles):
        assert stacked.values[b].tobytes() == alone.values.tobytes()


@pytest.mark.parametrize("sigma", [
    SigmaSpec.constant(1.3),
    SigmaSpec.linear(),
    SigmaSpec.affine_sine(1.0, 0.5),
    SigmaSpec.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 0.2]),
], ids=lambda s: s.kind)
def test_buffered_solves_equal_fresh_solves(sigma):
    # stacks of decreasing size, single sheets and a larger stack through
    # one buffers dict: every field keeps the bytes of its fresh solve, NaN
    # layout included, although the buffers hold the previous stack's values
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=3.0)
    spec = _sheet(cfg, hurst=0.75, seed=31).spec
    buffers = {}
    for ids in ([0, 1, 2], [3, 4], [5], 6, 7, [8, 9, 10, 11]):
        sheet = sample_sheet(spec, ids)
        fld = solve(cfg, sheet, sigma, buffers=buffers)
        assert any(np.shares_memory(fld.values, buf) for buf in buffers.values())
        fresh = solve(cfg, sheet, sigma)
        assert fld.values.shape == fresh.values.shape
        assert fld.values.tobytes() == fresh.values.tobytes()
        assert fld.sheet.ref == fresh.sheet.ref == sheet.ref
    assert set(buffers) == {"pair", "values", "kick"}


@pytest.mark.parametrize("hurst", [0.5, 0.75])
@pytest.mark.parametrize("sigma", [
    SigmaSpec.constant(1.3),
    SigmaSpec.linear(),
    SigmaSpec.affine_sine(1.0, 0.5),
    SigmaSpec.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 0.2]),
], ids=lambda s: s.kind)
def test_levels_handed_on_equal_the_collected_field(sigma, hurst):
    # given each_level, solve hands on every level as it makes it and keeps
    # a ring of three; each level must carry the bytes of the same level of
    # the whole field that solve collects without it, NaN layout included,
    # for one sheet and for a stack, and the ring must end on the last three
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=3.0)
    spec = _sheet(cfg, hurst=hurst, seed=31).spec
    for replica in (4, [0, 1, 2]):
        sheet = sample_sheet(spec, replica)
        whole = solve(cfg, sheet, sigma)
        seen, buffers = [], {}
        ring = solve(cfg, sheet, sigma, buffers=buffers,
                     each_level=lambda n, u: seen.append((n, u.copy())))
        assert [n for n, _ in seen] == list(range(cfg.n_steps + 1))
        for n, u in seen:
            assert u.shape == whole.values[..., n, :].shape
            assert u.tobytes() == whole.values[..., n, :].tobytes()
        assert ring.values.shape == whole.values.shape[:-2] + (3, cfg.n_nodes)
        assert buffers["values"].size == ring.values.size
        for n in range(cfg.n_steps - 2, cfg.n_steps + 1):
            assert ring.values[..., n % 3, :].tobytes() == whole.values[..., n, :].tobytes()


def test_unbuffered_solves_never_alias():
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=3.0)
    sheet = sample_sheet(_sheet(cfg, seed=31).spec, [0, 1])
    sigma = SigmaSpec.linear()
    fields = [solve(cfg, sheet, sigma, buffers={}), solve(cfg, sheet, sigma),
              solve(cfg, sheet, sigma), solve(cfg, _sheet(cfg), sigma), solve(cfg, _sheet(cfg), sigma)]
    for i, a in enumerate(fields):
        assert not np.shares_memory(a.values, sheet.masses)
        for b in fields[i + 1:]:
            assert not np.shares_memory(a.values, b.values)


def test_first_step_formula():
    cfg = LatticeConfig(h=0.5, t_max=0.5, x_half_width=2.0)
    sheet = _sheet(cfg, seed=2)
    sig = SigmaSpec.affine_sine(1.0, 0.5)
    fld = solve(cfg, sheet, sig)
    s1 = sig(1.0)
    for j in range(1, cfg.n_nodes - 1):
        expected = 1.0 + 0.5 * s1 * (sheet.masses[0, j - 1] + sheet.masses[0, j])
        assert fld.values[1, j] == pytest.approx(expected, abs=1e-15)


def test_sheet_compatibility_errors():
    cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=2.0)
    bad_step = sample_sheet(
        NoiseSpec(hurst=0.5, dt=0.5, dx=0.25, n_time=4, n_space=16), 0
    )
    with pytest.raises(ValueError, match="lattice step"):
        solve(cfg, bad_step, SigmaSpec.linear())
    short = sample_sheet(NoiseSpec(hurst=0.5, dt=0.25, dx=0.25, n_time=2, n_space=16), 0)
    with pytest.raises(ValueError, match="rows"):
        solve(cfg, short, SigmaSpec.linear())
    narrow = sample_sheet(NoiseSpec(hurst=0.5, dt=0.25, dx=0.25, n_time=4, n_space=8), 0)
    with pytest.raises(ValueError, match="cells"):
        solve(cfg, narrow, SigmaSpec.linear())


# ------------------------------------------------------------ fixed point


def test_picard_zero_iterations_is_initial_state():
    cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=2.0)
    fld, _ = picard_reference(cfg, _sheet(cfg, seed=1), SigmaSpec.linear(), iterations=0)
    for level in range(cfg.n_steps + 1):
        lo, hi = level, cfg.n_nodes - 1 - level
        assert np.all(fld.values[level, lo: hi + 1] == 1.0)


def test_picard_constant_sigma_converges_in_one_sweep():
    # constant sigma makes the integral map constant: iterate 1 is the fixed
    # point, and its value is 1 + (c/2) * cone mass
    cfg = LatticeConfig(h=0.25, t_max=1.0, x_half_width=2.0)
    sheet = _sheet(cfg, hurst=0.75, seed=13)
    c = 2.0
    p1, _ = picard_reference(cfg, sheet, SigmaSpec.constant(c), iterations=1)
    p2, _ = picard_reference(cfg, sheet, SigmaSpec.constant(c), iterations=2)
    assert np.array_equal(p1.values, p2.values, equal_nan=True)  # fixed point

    n, j0 = cfg.n_steps, cfg.center_index
    cone = 0.0
    for m in range(n):
        reach = n - m
        cone += sheet.masses[m, j0 - reach: j0 + reach].sum()
    assert p1.values[n, j0] == pytest.approx(1.0 + 0.5 * c * cone, abs=1e-12)
    # scheme and fixed point agree exactly for constant sigma
    direct = solve(cfg, sheet, SigmaSpec.constant(c))
    assert p1.values[n, j0] == pytest.approx(direct.values[n, j0], abs=1e-12)


def test_picard_iteration_contracts():
    cfg = LatticeConfig(h=0.125, t_max=1.0, x_half_width=2.0)
    sheet = _sheet(cfg, seed=21)
    _, diffs = picard_reference(cfg, sheet, SigmaSpec.linear(), iterations=8)
    # geometric-looking decay; successive sup differences drop fast
    assert diffs[0] > 0
    for a, b in zip(diffs[2:], diffs[3:]):
        assert b <= a
    assert diffs[-1] < 1e-6 * max(1.0, diffs[0])


def test_picard_and_scheme_agree_to_first_order():
    # the two integrators discretize the same integral equation differently;
    # their gap at the cone tip shrinks with h.  A smooth forcing sheet,
    # masses h^2 cos(3x)(1 + t) at cell centres, makes the gap deterministic:
    # it falls 0.21, 0.23, 0.24x per halving from h = 1/4 to 1/32
    gaps = []
    for h in (1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0):
        cfg = LatticeConfig(h=h, t_max=1.0, x_half_width=1.0)
        sheet = _zero_sheet(cfg)
        x = -cfg.x_half_width + (np.arange(cfg.n_cells) + 0.5) * h
        t = (np.arange(cfg.n_steps) + 0.5) * h
        sheet.masses[:] = h * h * np.outer(1.0 + t, np.cos(3.0 * x))
        direct = solve(cfg, sheet, SigmaSpec.linear())
        fixed, _ = picard_reference(cfg, sheet, SigmaSpec.linear(), iterations=12)
        n, j0 = cfg.n_steps, cfg.center_index
        gaps.append(abs(direct.values[n, j0] - fixed.values[n, j0]))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.6 * gaps[0]  # at least a roughly first-order decrease
    assert gaps[2] < 0.1 * gaps[0]  # second order on this forcing: 0.049


def test_picard_rejects_negative_iterations():
    cfg = LatticeConfig(h=0.5, t_max=0.5, x_half_width=1.0)
    with pytest.raises(ValueError):
        picard_reference(cfg, _sheet(cfg), SigmaSpec.linear(), iterations=-1)


# ------------------------------------------------------------ distribution


def test_constant_sigma_point_variance_matches_discrete_law():
    # for sigma = 1, H = 1/2: Var u(t, 0) = t(t+h)/4 exactly on the lattice
    h = 0.125
    cfg = LatticeConfig(h=h, t_max=1.0, x_half_width=1.0)
    spec = NoiseSpec(hurst=0.5, dt=h, dx=h, n_time=cfg.n_steps, n_space=cfg.n_cells, seed=77)
    n, j0 = cfg.n_steps, cfg.center_index
    m_reps = 1500
    vals = np.empty(m_reps)
    for r in range(m_reps):
        sheet = sample_sheet(spec, replica=r)
        vals[r] = solve(cfg, sheet, SigmaSpec.constant(1.0)).values[n, j0]
    expected = 1.0 * (1.0 + h) / 4.0
    emp = vals.var(ddof=1)
    se = expected * np.sqrt(2.0 / m_reps)
    assert abs(emp - expected) < 4.0 * se
    assert abs(vals.mean() - 1.0) < 4.0 * np.sqrt(expected / m_reps)


def test_noise_provenance_tag():
    cfg = LatticeConfig(h=0.25, t_max=0.5, x_half_width=1.0)
    sampled = _sheet(cfg, seed=9, replica=4)
    assert sampled.ref == f"{STREAM}:9:4"
    fld = solve(cfg, sampled, SigmaSpec.linear())
    assert fld.sheet.ref == f"{STREAM}:9:4"
    external = _zero_sheet(cfg)
    assert external.ref == "external"
    assert picard_reference(cfg, external, SigmaSpec.linear(), 1)[0].sheet.ref == "external"
