"""Byte pins of the sampled ensembles: sha256 of g_samples and of the
sigma-centre moment curves on small plans, for every sigma kind at H = 1/2
and 3/4, with even and odd row counts, on lattices that run stacked and
alone.  The curve digests move with the curve estimator (how the
per-block moments are folded) as well as with the stream; a change to the
estimator re-records them, and is logged.  Any other change that moves one
of these bytes changes what a seed means: it needs a new noise.STREAM
version, and new digests recorded with it.

The first-chaos samples are left out: each sums per-level dot products
whose order of summation the BLAS build chooses."""

import hashlib

import numpy as np
import pytest

from fracwave.estimators import ExperimentPlan, run_experiment
from fracwave.noise import STREAM
from fracwave.solver import SigmaSpec

SIGMAS = {
    "constant": SigmaSpec.constant(1.3),
    "linear": SigmaSpec.linear(),
    "affine_sine": SigmaSpec.affine_sine(1.0, 0.5),
    "tabulated": SigmaSpec.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 0.2]),
}
# (h, t, radii, x_half_width, replicas): 9 x 49 nodes (and 8 x 49) run in
# stacks of up to 100 replicas; 33 x 2049 nodes (and 32 x 2049) run as one
# stack of 3 at H = 1/2 and one sheet per stack at H = 3/4
SMALL = (0.125, 1.0, (1.0, 2.0), 3.0, 300)
LARGE = (1 / 64, 0.5, (1.0,), 16.0, 3)

# (kind, hurst, rows) -> (g_samples digest, curves digest), first 16 hex digits
DIGESTS = {
    ("constant", 0.5, 8): ("7a8a7b5fe95e6fdf", "72f5c64b88bfac21"),
    ("constant", 0.5, 7): ("865c3d90235e569e", "ce2ecf11c5d3d883"),
    ("constant", 0.75, 8): ("d1f4ba8eaa5d941f", "72f5c64b88bfac21"),
    ("constant", 0.75, 7): ("e4a9a683f6cbe541", "ce2ecf11c5d3d883"),
    ("linear", 0.5, 8): ("61646acb8a02846b", "6d9149bbe590fbd6"),
    ("linear", 0.5, 7): ("207b1fc494a9637b", "d90635b7942783ff"),
    ("linear", 0.75, 8): ("53fb6918f0b94bff", "e4a1d20614c68a03"),
    ("linear", 0.75, 7): ("fcf4cb3afea7a07c", "0b2f783d0fb44e14"),
    ("affine_sine", 0.5, 8): ("b2eb818e6209934e", "1ef7bed96565e96c"),
    ("affine_sine", 0.5, 7): ("043dcdd7d746f0d2", "cf5b2d04b2ff732e"),
    ("affine_sine", 0.75, 8): ("d70ba3844348103f", "7e60b9dfb3c729de"),
    ("affine_sine", 0.75, 7): ("ad1990fca37e4087", "d9661a5b9da645a2"),
    ("tabulated", 0.5, 8): ("9cc2c0c3ed7e14b0", "1ac66d5e654ee113"),
    ("tabulated", 0.5, 7): ("66685fbbbb4420ff", "2953f723bf39ca77"),
    ("tabulated", 0.75, 8): ("09cfa3e12b0e4dae", "eba41142f371445f"),
    ("tabulated", 0.75, 7): ("6edba3a4694c98e6", "665a1dcce1bdf2e6"),
    ("linear", 0.5, 32): ("f0313d281bf35028", "6495ea08330ac427"),
    ("linear", 0.5, 31): ("277a4db2efdb3bf3", "6440f54b7400b31b"),
    ("linear", 0.75, 32): ("78bbdd082f65f9a5", "d070e25f4e5f82f6"),
    ("linear", 0.75, 31): ("3354fa2e27291be3", "0546346c141980bc"),
}


def _digests(kind: str, hurst: float, rows: int) -> tuple[str, str]:
    h, t, radii, half, replicas = SMALL if rows < 16 else LARGE
    odd = rows % 2 == 1
    plan = ExperimentPlan(hurst=hurst, sigma=SIGMAS[kind], h=h, times=(t - h if odd else t,),
                          radii=radii, replicas=replicas, seed=77, chaos=False,
                          x_half_width=half)
    assert plan.lattice().n_steps == rows
    s = run_experiment(plan, threads=1)
    curves = np.concatenate([s.curve_mean, s.curve_sq, s.curve_mean_se, s.curve_sq_se])
    return (hashlib.sha256(s.g_samples.tobytes()).hexdigest()[:16],
            hashlib.sha256(curves.tobytes()).hexdigest()[:16])


def test_digests_belong_to_the_stream():
    # new digests come with a new stream version
    assert STREAM == "sfc64p3"


@pytest.mark.parametrize("key", list(DIGESTS), ids=lambda k: f"{k[0]}-H{k[1]}-n{k[2]}")
def test_sampled_ensembles_are_byte_pinned(key):
    assert _digests(*key) == DIGESTS[key]
