"""Exact lattice sampling of noise that is white in time and fractional in space.

The driving field W has independent rows in time; within a row, cell masses
form a stationary Gaussian vector whose covariance is the second difference
of |x|^{2H} (fractional increments with Hurst index H).  H = 1/2 reduces to
space-time white noise.  Rows are sampled exactly with the minimal circulant
(FFT) embedding of size 2*n_space, two rows per complex FFT run in place in
the normals' buffer, so statistical tests downstream see the true lattice
law, not an approximation.  STREAM names the version of the mapping from
(seed, replica) to sheets: each replica draws its normals from an SFC64
seeded by a counter-based Philox keyed with (seed, replica) (see
_replica_rng).

A sheet is one replica's (n_time, n_space) masses or a stack of replicas'
sheets along a leading axis, (B, n_time, n_space); sample_sheet draws a
stack into one buffer, and each of its sheets holds the bytes of that
replica's sheet drawn alone.  Given a dict of work buffers, sample_sheet
(and solver.solve) carve their arrays from it instead of allocating, so a
loop over stacks reuses the same memory.

Contents
--------
NoiseSpec, NoiseSheet   lattice geometry + sampled cell masses (or a stack)
fgn_cell_covariance     closed-form cell covariance within one row
sample_sheet            exact sampler (per replica, an SFC64 seeded by a (seed, replica)-keyed Philox)
write_sheet, read_sheet binary dump of a sampled sheet
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "NoiseSpec",
    "NoiseSheet",
    "EmbeddingError",
    "STREAM",
    "fgn_cell_covariance",
    "sample_sheet",
    "write_sheet",
    "read_sheet",
]

STREAM = "sfc64p3"

SHEET_MAGIC = b"FWNS"
SHEET_VERSION = 2
_HEADER = struct.Struct("<4sIdddII")  # magic, version, hurst, dt, dx, n_time, n_space
_HEADER_V2 = struct.Struct("<Qq8s")  # seed, replica (-1: external), stream


class EmbeddingError(RuntimeError):
    """Circulant embedding produced too much negative spectral mass."""


def _check_hurst(hurst: float) -> None:
    """The Hurst domain of every noise, sampler and oracle here."""
    if not (0.5 <= hurst < 1.0):
        raise ValueError(f"hurst must lie in [1/2, 1), got {hurst}")


def _check_key(value: int, name: str) -> None:
    """A seed or replica id: one of the two uint64 words of a Philox key."""
    if not (0 <= value < 2**64):
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


@dataclass(frozen=True)
class NoiseSpec:
    """Geometry and seed of a noise sheet.

    Cell (i, j) covers [i*dt, (i+1)*dt) x [x0 + j*dx, x0 + (j+1)*dx); the
    spatial origin is immaterial to the law, which is stationary.
    """

    hurst: float
    dt: float
    dx: float
    n_time: int
    n_space: int
    seed: int = 0

    def __post_init__(self):
        _check_hurst(self.hurst)
        if not all(math.isfinite(v) and v > 0 for v in (self.dt, self.dx)):
            raise ValueError(f"dt and dx must be finite and positive, got {self.dt}, {self.dx}")
        if self.n_time < 1 or self.n_space < 1:
            raise ValueError("n_time and n_space must be at least 1")
        _check_key(self.seed, "seed")


@dataclass
class NoiseSheet:
    """Sampled cell masses, shape (n_time, n_space), row i = time slab i, or
    a stack of such sheets, shape (B, n_time, n_space), sheet b = masses[b].

    replica identifies the generator substream that produced the sheet (a
    tuple of one per sheet for a stack); it is None for sheets of external
    origin (read from a dump, hand-built)."""

    spec: NoiseSpec
    masses: np.ndarray = field(repr=False)
    replica: Union[None, int, tuple[int, ...]] = None

    def __post_init__(self):
        expected = (self.spec.n_time, self.spec.n_space)
        if self.masses.shape[-2:] != expected or self.masses.ndim not in (2, 3):
            raise ValueError(f"masses shape {self.masses.shape} != {expected} or a stack of it")
        if self.stacked and self.replica is not None and len(self.replica) != len(self.masses):
            raise ValueError(f"{len(self.masses)} stacked sheets need as many replica ids")

    @property
    def stacked(self) -> bool:
        return self.masses.ndim == 3

    @property
    def ref(self) -> Union[str, tuple[str, ...]]:
        """Stable provenance tag: generator seed and substream, or 'external';
        a tuple of one tag per sheet for a stack."""
        if self.stacked:
            ids = (None,) * len(self.masses) if self.replica is None else self.replica
            return tuple(_ref(self.spec.seed, r) for r in ids)
        return _ref(self.spec.seed, self.replica)


def _ref(seed: int, replica: Optional[int]) -> str:
    return "external" if replica is None else f"{STREAM}:{seed}:{replica}"


def _buffer(buffers: Optional[dict], name: str, shape: tuple) -> np.ndarray:
    """Uninitialized float64 array of the given shape.  Without buffers it is
    fresh; else it is a prefix view of buffers[name], allocated (or grown)
    to fit, which a later call given the same buffers overwrites."""
    if buffers is None:
        return np.empty(shape)
    size = math.prod(shape)
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _single(sheet: NoiseSheet, what: str) -> None:
    if sheet.stacked:
        raise ValueError(f"{what} takes one sheet, not a stack of {len(sheet.masses)}")


def fgn_cell_covariance(lag, hurst: float, dx: float):
    """Covariance between two same-row cells at the given index lag.

    Equals dt-free part only: multiply by dt for the full cell covariance.
    Closed form: (dx^{2H}/2) * (|d+1|^{2H} - 2|d|^{2H} + |d-1|^{2H}), the
    second difference of the fractional variance function.  Exact for
    H = 1/2 as well, where it collapses to dx at lag 0 and 0 otherwise.
    """
    _check_hurst(hurst)
    d = np.abs(np.asarray(lag, dtype=np.float64))
    two_h = 2.0 * hurst
    out = 0.5 * dx**two_h * ((d + 1.0) ** two_h - 2.0 * d**two_h + np.abs(d - 1.0) ** two_h)
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=32)
def _embedding_spectrum(hurst: float, embed_size: int) -> np.ndarray:
    """Eigenvalues of the circulant embedding for unit dx, with clipping.

    embed_size = 2M; the covariance sequence r(0..M) is reflected to a
    circulant vector whose FFT must be nonnegative.  Small negative
    eigenvalues (roundoff) are clipped; a warning marks anything below
    -1e-10 of the spectral maximum, and the sampler refuses to proceed if
    the clipped mass exceeds 1e-6 of the total.
    """
    m = embed_size // 2
    r = fgn_cell_covariance(np.arange(m + 1), hurst, 1.0)
    circ = np.concatenate([r[:-1], r[-1:], r[-2:0:-1]])
    lam = np.fft.fft(circ).real
    lam_max = lam.max()
    negative = lam < 0.0
    if negative.any():
        clipped_mass = -lam[negative].sum()
        if lam[negative].min() < -1e-10 * lam_max:
            warnings.warn(
                f"circulant embedding (H={hurst}, size={embed_size}): clipping "
                f"{negative.sum()} negative eigenvalues, mass {clipped_mass:.3e}",
                RuntimeWarning,
            )
        if clipped_mass > 1e-6 * np.abs(lam).sum():
            raise EmbeddingError(
                f"negative spectral mass {clipped_mass:.3e} exceeds 1e-6 of total "
                f"for H={hurst}, embedding size {embed_size}"
            )
        lam = np.where(negative, 0.0, lam)
    lam.setflags(write=False)
    return lam


# One Philox, one SFC64 and the SFC64's Generator, re-seeded for every
# replica: setting their states costs a fraction of building new bit
# generators.  _KEYED is the state of an unused Philox (zero counter, empty
# buffer) with a key slot; _SEEDED is an SFC64 state whose words a..c are
# filled per replica, with counter 1 and no buffered uint32.
_PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_KEYED = _PHILOX.state
_SFC64 = np.random.SFC64(0)
_GENERATOR = np.random.Generator(_SFC64)
_SEEDED = _SFC64.state
_SEEDED["state"]["state"][3] = 1


def _replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Stream for one replica: SFC64 seeded from a Philox keyed by (seed, replica).

    The counter-based Philox, keyed by the two words (seed, replica), gives
    its first three raw outputs as the SFC64 words (a, b, c), with counter
    1; the SFC64 then discards 12 outputs, as SFC64 seeds itself, and draws
    everything the replica needs.  Replicas never share state, so results
    do not depend on scheduling.  The returned Generator is shared: the next
    call re-seeds it (state, buffered uint32 and all, as new bit generators
    would start), so a caller draws what it needs before asking for another
    replica's stream.  Not safe across threads.
    """
    _KEYED["state"]["key"] = np.array([seed, replica], dtype=np.uint64)
    _PHILOX.state = _KEYED
    _SEEDED["state"]["state"][:3] = _PHILOX.random_raw(3)
    _SFC64.state = _SEEDED
    _SFC64.random_raw(12)
    return _GENERATOR


def sample_sheet(spec: NoiseSpec, replica: Union[int, Sequence[int]], *,
                 buffers: Optional[dict] = None) -> NoiseSheet:
    """Draw one sheet of cell masses; bit-reproducible for fixed (spec, replica).
    The replica id is required: no id is drawn by default.

    H = 1/2: cells are iid N(0, dt*dx).  H > 1/2: each row is an exact
    stationary fractional-increment vector, synthesized by the circulant
    embedding of size 2*n_space.  The real and imaginary parts of one FFT of
    sqrt(lambda)*(z1 + i*z2) are two independent rows with that covariance
    (Davies & Harte 1987, Wood & Chan 1994): rows 2k and 2k+1; the spare
    row of an odd n_time is dropped.  The FFT runs in place in the buffer
    of the normals, which hold the interleaved real and imaginary parts;
    the rows are then de-interleaved into the masses.

    A sequence of replica ids draws a stack, masses of shape (len(ids),
    n_time, n_space): each replica's normals go from its own stream into
    its slab of one buffer, then the whole stack is scaled (and, for
    H > 1/2, transformed) at once.  Every step is elementwise or row by row,
    so masses[b] equals, bit for bit, the sheet of ids[b] drawn alone.

    buffers, a dict, holds the normals (with the FFT's output at H > 1/2)
    and the masses between calls: the sheet's masses are then a view into
    it, valid until the next call given the same dict.  Without it every
    call allocates afresh.
    """
    single = np.ndim(replica) == 0
    ids = (int(replica),) if single else tuple(int(r) for r in replica)
    if not ids:
        raise ValueError("sample_sheet needs at least one replica id")
    _check_key(min(ids), "replica id")
    _check_key(max(ids), "replica id")

    def normals(shape):
        z = _buffer(buffers, "normals", (len(ids),) + shape)
        for b, rid in enumerate(ids):
            _replica_rng(spec.seed, rid).standard_normal(shape, out=z[b])
        return z

    if spec.hurst == 0.5:
        masses = normals((spec.n_time, spec.n_space))
        masses *= np.sqrt(spec.dt * spec.dx)
    else:
        embed = 2 * spec.n_space
        pairs = (spec.n_time + 1) // 2
        lam = _embedding_spectrum(spec.hurst, embed)
        scale = np.sqrt(spec.dt) * spec.dx**spec.hurst / np.sqrt(embed)
        xi = normals((pairs, embed, 2)).view(np.complex128)[..., 0]
        xi *= np.sqrt(lam) * scale
        synth = np.fft.fft(xi, axis=-1, out=xi)[..., : spec.n_space]
        masses = _buffer(buffers, "masses", (len(ids), 2 * pairs, spec.n_space))
        masses[:, 0::2] = synth.real
        masses[:, 1::2] = synth.imag
        masses = masses[:, : spec.n_time]
    if single:
        return NoiseSheet(spec=spec, masses=masses[0], replica=ids[0])
    return NoiseSheet(spec=spec, masses=masses, replica=ids)


def _sheet_floats(spec: NoiseSpec) -> int:
    """Floats that sample_sheet's buffers hold per sheet of a stack: the
    normals, scaled in place at H = 1/2; at H > 1/2 the complex normals of
    the row pairs (two floats a cell, transformed in place) and the masses
    de-interleaved from them."""
    if spec.hurst == 0.5:
        return spec.n_time * spec.n_space
    rows = 2 * ((spec.n_time + 1) // 2)
    return 2 * rows * spec.n_space + rows * spec.n_space


def write_sheet(sheet: NoiseSheet, path) -> None:
    """Dump a sheet: 64-byte header then row-major little-endian float64.

    The header carries the geometry, then the generator seed, the replica
    (-1 for an external sheet) and the stream version, so a dump keeps its
    provenance tag."""
    _single(sheet, "write_sheet")
    if sheet.replica is not None and sheet.replica >= 2**63:
        raise ValueError(f"the dump header holds replica ids below 2**63, got {sheet.replica}")
    spec = sheet.spec
    header = _HEADER.pack(
        SHEET_MAGIC, SHEET_VERSION, spec.hurst, spec.dt, spec.dx, spec.n_time, spec.n_space
    ) + _HEADER_V2.pack(
        spec.seed, -1 if sheet.replica is None else sheet.replica, STREAM.encode()
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(sheet.masses, dtype="<f8").tobytes())


def read_sheet(path) -> NoiseSheet:
    """Read a dumped sheet (version 2, as write_sheet writes it).

    The sheet keeps its seed and replica, but reads back as external if
    another stream version wrote it."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated sheet header in {path}")
        magic, version, hurst, dt, dx, n_time, n_space = _HEADER.unpack(raw)
        if magic != SHEET_MAGIC:
            raise ValueError(f"not a noise sheet dump: bad magic {magic!r}")
        if version != SHEET_VERSION:
            raise ValueError(f"unsupported sheet version {version}")
        raw = fh.read(_HEADER_V2.size)
        if len(raw) != _HEADER_V2.size:
            raise ValueError(f"truncated sheet header in {path}")
        seed, stored, stream = _HEADER_V2.unpack(raw)
        replica = stored if stored >= 0 and stream.rstrip(b"\0") == STREAM.encode() else None
        body = np.frombuffer(fh.read(), dtype="<f8")
    expected = n_time * n_space
    if body.size != expected:
        raise ValueError(f"sheet body has {body.size} values, expected {expected}")
    spec = NoiseSpec(hurst=hurst, dt=dt, dx=dx, n_time=n_time, n_space=n_space, seed=seed)
    return NoiseSheet(spec=spec, masses=body.reshape(n_time, n_space).copy(), replica=replica)
