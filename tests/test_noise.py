"""Noise sampler tests: closed-form covariances against quadrature, exactness
of the sampled law, determinism, and the binary dump format."""

import struct

import numpy as np
import pytest
from scipy import integrate, stats

from fracwave import noise
from fracwave.noise import (
    EmbeddingError,
    NoiseSheet,
    NoiseSpec,
    STREAM,
    _embedding_spectrum,
    fgn_cell_covariance,
    read_sheet,
    sample_sheet,
    write_sheet,
)


# ------------------------------------------------------------ keys


def test_seeds_and_replica_ids_are_the_uint64_words_of_the_key():
    top = 2**64 - 1
    spec = NoiseSpec(hurst=0.5, dt=0.5, dx=0.5, n_time=2, n_space=3, seed=top)
    stack = sample_sheet(spec, [0, top])
    assert stack.masses[1].tobytes() == sample_sheet(spec, top).masses.tobytes()
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            NoiseSpec(hurst=0.5, dt=0.5, dx=0.5, n_time=2, n_space=3, seed=bad)
        for ids in (bad, [0, bad], [bad, 0]):
            with pytest.raises(ValueError, match=r"replica id must lie in \[0, 2\*\*64\)"):
                sample_sheet(spec, ids)


def test_write_sheet_refuses_a_replica_id_its_header_cannot_hold(tmp_path):
    spec = NoiseSpec(hurst=0.5, dt=0.5, dx=0.5, n_time=2, n_space=3, seed=1)
    write_sheet(sample_sheet(spec, 2**63 - 1), tmp_path / "last.bin")
    assert read_sheet(tmp_path / "last.bin").replica == 2**63 - 1
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        write_sheet(sample_sheet(spec, 2**63), tmp_path / "over.bin")
    assert not (tmp_path / "over.bin").exists()


# ------------------------------------------------------------ closed forms


def test_cell_covariance_matches_kernel_quadrature():
    # oracle: Cov(cell_0, cell_lag) = H(2H-1) * double integral of |y-z|^{2H-2}
    # over [0,1] x [lag, lag+1].  The inner integral over z has the exact
    # antiderivative sgn(y-z)|y-z|^{2H-1}/(2H-1), which absorbs the diagonal
    # singularity; only the outer integral is done numerically.
    for hurst in (0.55, 0.75, 0.9):
        alpha = hurst * (2.0 * hurst - 1.0)
        p = 2.0 * hurst - 1.0

        def signed_pow(v):
            return np.sign(v) * np.abs(v) ** p

        for lag in (0, 1, 2, 5):
            def inner(y, lo=float(lag), hi=float(lag) + 1.0):
                return (signed_pow(y - lo) - signed_pow(y - hi)) / p

            val, err = integrate.quad(
                inner, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12,
                points=[x for x in (lag, lag + 1.0) if 0.0 < x < 1.0] or None,
            )
            closed = fgn_cell_covariance(lag, hurst, 1.0)
            assert closed == pytest.approx(alpha * val, abs=1e-8), (hurst, lag)


def test_cell_covariance_frozen_values():
    # H=3/4, dx=1, lag 1: (1/2)(2^{3/2} - 2) = 0.41421356...
    assert fgn_cell_covariance(1, 0.75, 1.0) == pytest.approx(
        0.5 * (2.0**1.5 - 2.0), abs=1e-15
    )
    assert fgn_cell_covariance(1, 0.75, 1.0) == pytest.approx(0.414214, abs=5e-7)
    # lag 0 is the cell variance dx^{2H}
    for hurst in (0.5, 0.6, 0.75, 0.95):
        assert fgn_cell_covariance(0, hurst, 0.25) == pytest.approx(
            0.25 ** (2 * hurst), rel=1e-14
        )
    # white case has no correlation
    assert fgn_cell_covariance(1, 0.5, 1.0) == 0.0
    assert fgn_cell_covariance(7, 0.5, 0.3) == 0.0


def test_cell_covariance_telescoping_identity():
    # summing the covariance over a w-cell block must give (w*dx)^{2H}
    for hurst in (0.55, 0.75, 0.9):
        for w in (1, 2, 8, 33):
            lags = np.subtract.outer(np.arange(w), np.arange(w))
            total = fgn_cell_covariance(lags, hurst, 0.5).sum()
            assert total == pytest.approx((w * 0.5) ** (2 * hurst), abs=1e-10), (hurst, w)


def test_cell_covariance_dx_scaling():
    vals = fgn_cell_covariance(np.arange(4), 0.8, 2.0)
    base = fgn_cell_covariance(np.arange(4), 0.8, 1.0)
    assert np.allclose(vals, 2.0**1.6 * base, rtol=1e-14)


def test_kernel_validation():
    with pytest.raises(ValueError):
        fgn_cell_covariance(1, 0.3, 1.0)
    with pytest.raises(ValueError):
        fgn_cell_covariance(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        NoiseSpec(hurst=0.49, dt=0.1, dx=0.1, n_time=1, n_space=1)
    with pytest.raises(ValueError):
        NoiseSpec(hurst=1.0, dt=0.1, dx=0.1, n_time=1, n_space=1)
    with pytest.raises(ValueError):
        NoiseSpec(hurst=0.75, dt=0.0, dx=0.1, n_time=1, n_space=1)
    for dt, dx in ((np.nan, 0.1), (0.1, np.inf), (-np.inf, 0.1)):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(hurst=0.75, dt=dt, dx=dx, n_time=1, n_space=1)
    with pytest.raises(ValueError):
        NoiseSpec(hurst=0.75, dt=0.1, dx=0.1, n_time=0, n_space=1)


# ------------------------------------------------------------ embedding


def test_embedding_spectrum_nonnegative_across_hurst():
    # the minimal embedding (size 2n) must be numerically nonnegative for
    # every H we support, including H close to 1 where the sequence decays
    # slowest; the row widths n cover the tier-1 and benchmark shapes
    for n_space in (64, 256, 1056, 2112, 4224):
        for hurst in (0.51, 0.6, 0.75, 0.9, 0.95, 0.99):
            lam = _embedding_spectrum(hurst, 2 * n_space)
            assert lam.min() >= 0.0, (n_space, hurst)
            assert lam.max() > 0.0


def test_embedding_reproduces_covariance_exactly():
    # with the spectrum in hand, the synthesized row covariance is the exact
    # circulant covariance, whose leading block is the target sequence
    hurst, embed = 0.8, 256
    lam = _embedding_spectrum(hurst, embed)
    # covariance of the synthesized stationary sequence = FFT of spectrum / N
    recovered = np.fft.ifft(lam).real
    target = fgn_cell_covariance(np.arange(embed // 2 + 1), hurst, 1.0)
    assert np.allclose(recovered[: embed // 2 + 1], target, atol=1e-12)


# ------------------------------------------------------------ sampling law


def test_sampler_determinism_and_replica_separation():
    spec = NoiseSpec(hurst=0.75, dt=0.1, dx=0.2, n_time=6, n_space=20, seed=42)
    a = sample_sheet(spec, replica=0)
    b = sample_sheet(spec, replica=0)
    assert np.array_equal(a.masses, b.masses)  # bit-identical
    c = sample_sheet(spec, replica=1)
    assert not np.array_equal(a.masses, c.masses)
    d = sample_sheet(NoiseSpec(**{**spec.__dict__, "seed": 43}), replica=0)
    assert not np.array_equal(a.masses, d.masses)


def _fresh_rng(seed, replica):
    """A replica's stream built from new bit generators: a Philox keyed by
    (seed, replica) gives the SFC64 words (a, b, c), counter 1, and the
    SFC64 discards 12 outputs, as SFC64 seeds itself."""
    philox = np.random.Philox(key=np.array([seed, replica], dtype=np.uint64))
    sfc = np.random.SFC64()
    state = sfc.state
    state["state"]["state"] = np.append(philox.random_raw(3), np.uint64(1))
    sfc.state = state
    sfc.random_raw(12)
    return np.random.Generator(sfc)


def test_replica_stream_is_sfc64_seeded_from_philox():
    # numpy's SFC64 against the generator written out (Doty-Humphrey's
    # small fast chaotic PRNG, 64-bit), seeded from the first three words
    # of the keyed Philox, at both ends of the key range
    mask = 2**64 - 1
    for seed, replica in [(0, 0), (41, 7), (mask, mask)]:
        a, b, c = (int(v) for v in np.random.Philox(
            key=np.array([seed, replica], dtype=np.uint64)).random_raw(3))
        counter = 1
        words = []
        for _ in range(12 + 6):
            out = (a + b + counter) & mask
            counter += 1
            a, b, c = b ^ (b >> 11), (c + (c << 3)) & mask, (((c << 24) | (c >> 40)) + out) & mask
            words.append(out)
        rng = noise._replica_rng(seed, replica)
        assert rng.bit_generator.random_raw(6).tolist() == words[12:]
        assert _fresh_rng(seed, replica).bit_generator.random_raw(6).tolist() == words[12:]


def test_interleaved_sheets_equal_fresh_draws(monkeypatch):
    # _replica_rng re-seeds one shared Philox and SFC64 per call; sheets
    # drawn in any interleaving, with the shared generator left with a
    # buffered uint32 in between, must equal sheets drawn from bit
    # generators built afresh for each replica
    specs = [NoiseSpec(hurst=0.5, dt=0.125, dx=0.125, n_time=8, n_space=144, seed=41),
             NoiseSpec(hurst=0.75, dt=0.1, dx=0.2, n_time=7, n_space=40, seed=42)]
    order = [(0, 3), (1, 0), (0, 0), (1, 3), (0, 3), (1, 7), (0, 7), (1, 0)]
    drawn = []
    for k, (which, replica) in enumerate(order):
        drawn.append(sample_sheet(specs[which], replica=replica).masses)
        leftover = noise._replica_rng(5, 100 + k)  # leave a half-used uint64
        leftover.integers(0, 2**32, size=2 * k + 1, dtype=np.uint32)
        leftover.standard_normal(k + 1)

    monkeypatch.setattr(noise, "_replica_rng", _fresh_rng)
    for (which, replica), masses in zip(order, drawn):
        assert masses.tobytes() == sample_sheet(specs[which], replica=replica).masses.tobytes()


def test_neighbouring_keys_draw_independent_sheets():
    # white sheets are iid N(0, dt dx) cells: sheets of ids r and r + 1, and
    # of seeds s and s + 1, must be uncorrelated to within 4/sqrt(n), and
    # the pooled normals standard normal by a KS test
    top = 2**64 - 1
    n_time, n_space = 64, 1024
    n = n_time * n_space

    def normals(seed, replica):
        spec = NoiseSpec(hurst=0.5, dt=1.0, dx=1.0, n_time=n_time, n_space=n_space, seed=seed)
        return sample_sheet(spec, replica=replica).masses.ravel()

    pooled = []
    for seed, replica in [(0, 0), (20_005, 11), (top - 1, top - 1)]:
        z = normals(seed, replica)
        for other in (normals(seed, replica + 1), normals(seed + 1, replica)):
            assert abs(np.corrcoef(z, other)[0, 1]) < 4.0 / np.sqrt(n)
            pooled.append(other)
        pooled.append(z)
    assert stats.kstest(np.concatenate(pooled), "norm").pvalue > 1e-3


@pytest.mark.parametrize("hurst", [0.5, 0.75])
@pytest.mark.parametrize("n_time", [8, 7])
def test_stacked_sheets_equal_single_draws(hurst, n_time, monkeypatch):
    # one call draws a stack into one buffer, one re-key per replica; each
    # sheet of the stack must carry the bytes of that replica drawn alone
    spec = NoiseSpec(hurst=hurst, dt=0.125, dx=0.125, n_time=n_time, n_space=40, seed=41)
    ids = [5, 0, 9, 5]
    keys = []
    rng = noise._replica_rng
    monkeypatch.setattr(noise, "_replica_rng", lambda seed, r: keys.append(r) or rng(seed, r))
    stack = sample_sheet(spec, np.array(ids))
    assert keys == ids
    assert stack.stacked and stack.masses.shape == (4, n_time, 40)
    assert stack.replica == tuple(ids)
    assert stack.ref == tuple(f"{STREAM}:41:{r}" for r in ids)
    for b, rid in enumerate(ids):
        alone = sample_sheet(spec, replica=rid)
        assert not alone.stacked and alone.replica == rid
        assert stack.masses[b].tobytes() == alone.masses.tobytes()
    assert sample_sheet(spec, [9]).masses.shape == (1, n_time, 40)
    with pytest.raises(ValueError, match="at least one replica"):
        sample_sheet(spec, [])


@pytest.mark.parametrize("hurst", [0.5, 0.75])
@pytest.mark.parametrize("n_time", [8, 7])
def test_buffered_stacks_equal_fresh_draws(hurst, n_time):
    # stacks of several sizes drawn through one buffers dict: each sheet
    # keeps the bytes of its replica drawn alone, and the dict is filled
    # once, by the first (largest) stack, until a larger stack grows it
    spec = NoiseSpec(hurst=hurst, dt=0.125, dx=0.125, n_time=n_time, n_space=40, seed=41)
    buffers = {}
    first = None
    for ids in ([3, 1, 4], [1, 5, 9], [2, 6], [5], [8, 0, 2, 7]):
        stack = sample_sheet(spec, ids if len(ids) > 1 else ids[0], buffers=buffers)
        if first is None:
            first = {name: buf for name, buf in buffers.items()}
        grown = [name for name, buf in first.items() if buffers[name] is not buf]
        assert grown == ([] if len(ids) <= 3 else list(first))
        masses = stack.masses.reshape((-1, n_time, 40))
        assert any(np.shares_memory(stack.masses, buf) for buf in buffers.values())
        for b, rid in enumerate(ids):
            assert masses[b].tobytes() == sample_sheet(spec, replica=rid).masses.tobytes()
    assert set(first) == ({"normals"} if hurst == 0.5 else {"normals", "masses"})


def test_unbuffered_draws_never_alias():
    for hurst in (0.5, 0.75):
        spec = NoiseSpec(hurst=hurst, dt=0.125, dx=0.125, n_time=7, n_space=40, seed=41)
        buffered = sample_sheet(spec, [0, 1], buffers={})
        drawn = [buffered, sample_sheet(spec, [0, 1]), sample_sheet(spec, [0, 1]),
                 sample_sheet(spec, 0), sample_sheet(spec, 0)]
        for i, a in enumerate(drawn):
            for b in drawn[i + 1:]:
                assert not np.shares_memory(a.masses, b.masses)


def test_stacks_are_refused_where_one_sheet_is_meant(tmp_path):
    spec = NoiseSpec(hurst=0.5, dt=0.1, dx=0.1, n_time=3, n_space=5)
    stack = sample_sheet(spec, [0, 1])
    with pytest.raises(ValueError, match="not a stack"):
        write_sheet(stack, tmp_path / "stack.bin")
    with pytest.raises(ValueError, match="replica ids"):
        NoiseSheet(spec=spec, masses=stack.masses, replica=(0,))
    assert NoiseSheet(spec=spec, masses=stack.masses).ref == ("external", "external")


def test_white_case_empirical_moments():
    spec = NoiseSpec(hurst=0.5, dt=0.25, dx=0.5, n_time=4000, n_space=16, seed=9)
    sheet = sample_sheet(spec, 0)
    flat = sheet.masses.ravel()
    n = flat.size
    var = flat.var()
    expected = 0.25 * 0.5
    assert abs(var - expected) < 4.0 * expected * np.sqrt(2.0 / n)
    # adjacent cells uncorrelated
    corr = np.corrcoef(sheet.masses[:, 0], sheet.masses[:, 1])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(spec.n_time)


def test_fractional_case_empirical_covariance():
    # many iid rows: sample covariances at small lags match the closed form.
    # n_time is odd, so the imaginary half of the last FFT pair is dropped:
    # the sheet is the one-row-longer sheet of the same seed less its last row
    spec = NoiseSpec(hurst=0.75, dt=0.5, dx=1.0, n_time=59999, n_space=16, seed=3)
    x = sample_sheet(spec, 0).masses
    longer = sample_sheet(NoiseSpec(**{**spec.__dict__, "n_time": 60000}), 0).masses
    assert np.array_equal(x, longer[:-1])
    n = spec.n_time
    for lag in (0, 1, 3):
        emp = float(np.mean(x[:, 0] * x[:, lag]))
        target = spec.dt * fgn_cell_covariance(lag, 0.75, 1.0)
        se = np.sqrt(
            float(np.var(x[:, 0] * x[:, lag])) / n
        )
        assert abs(emp - target) < 4.0 * se, (lag, emp, target)


def test_fractional_block_variance_telescopes():
    # variance of a width-w block of cells is dt*(w*dx)^{2H}; this exercises
    # the long-range part of the synthesized correlation
    spec = NoiseSpec(hurst=0.8, dt=1.0, dx=0.5, n_time=60000, n_space=12, seed=8)
    sheet = sample_sheet(spec, 0)
    block = sheet.masses[:, :8].sum(axis=1)
    emp = float(block.var())
    target = 1.0 * (8 * 0.5) ** 1.6
    se = np.sqrt(2.0 / spec.n_time) * target
    assert abs(emp - target) < 4.0 * se


def test_rows_are_independent_in_time():
    # adjacent rows 2k, 2k+1 are the real and imaginary parts of one FFT
    spec = NoiseSpec(hurst=0.9, dt=1.0, dx=1.0, n_time=20000, n_space=4, seed=17)
    sheet = sample_sheet(spec, 0)
    col = sheet.masses[:, 2]
    corr = np.corrcoef(col[:-1], col[1:])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(spec.n_time)


# ------------------------------------------------------------ dump format


def test_sheet_round_trip(tmp_path):
    spec = NoiseSpec(hurst=0.75, dt=0.125, dx=0.25, n_time=7, n_space=33, seed=5)
    sheet = sample_sheet(spec, replica=4)
    path = tmp_path / "sheet.bin"
    write_sheet(sheet, path)
    back = read_sheet(path)
    assert back.spec == spec  # geometry and seed
    assert back.replica == 4
    assert back.ref == sheet.ref == f"{STREAM}:5:4"
    assert np.array_equal(back.masses, sheet.masses)
    # 64-byte header (40 geometry + seed, replica, stream) + payload
    assert path.stat().st_size == 64 + 7 * 33 * 8

    # an external sheet keeps its seed but no replica
    write_sheet(NoiseSheet(spec=spec, masses=sheet.masses), path)
    back = read_sheet(path)
    assert (back.spec.seed, back.replica, back.ref) == (5, None, "external")

    # version-1 bytes (40-byte header, no provenance) are refused
    header = struct.pack("<4sIdddII", b"FWNS", 1, 0.75, 0.125, 0.25, 7, 33)
    path.write_bytes(header + sheet.masses.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported sheet version 1"):
        read_sheet(path)


def test_sheet_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 36)
    with pytest.raises(ValueError, match="magic"):
        read_sheet(path)
    path.write_bytes(b"\x01\x02")
    with pytest.raises(ValueError, match="truncated"):
        read_sheet(path)


def test_sheet_read_rejects_truncated_body(tmp_path):
    spec = NoiseSpec(hurst=0.6, dt=0.1, dx=0.1, n_time=3, n_space=5, seed=0)
    sheet = sample_sheet(spec, 0)
    path = tmp_path / "cut.bin"
    write_sheet(sheet, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="body"):
        read_sheet(path)


def test_sheet_shape_validation():
    spec = NoiseSpec(hurst=0.6, dt=0.1, dx=0.1, n_time=3, n_space=5)
    with pytest.raises(ValueError, match="shape"):
        NoiseSheet(spec=spec, masses=np.zeros((3, 4)))
    with pytest.raises(ValueError, match="shape"):
        NoiseSheet(spec=spec, masses=np.zeros((1, 2, 3, 5)))
