"""Byte pins of the sampled ensembles: sha256 of g_samples and of the
sigma-centre moment curves on small plans, for every sigma kind at H = 1/2
and 3/4, with even and odd row counts, on lattices that run stacked and
alone.  A change that moves one of these bytes changes what a seed means:
it needs a new noise.STREAM version, and new digests recorded with it.

The first-chaos samples are left out: their gemv sums in an order the BLAS
build chooses."""

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
# (h, t, radii, x_half_width, replicas): 9 x 49 nodes run in stacks of
# up to 256 replicas; 33 x 2049 nodes (and 32 x 2049) run one by one
SMALL = (0.125, 1.0, (1.0, 2.0), 3.0, 300)
LARGE = (1 / 64, 0.5, (1.0,), 16.0, 3)

# (kind, hurst, rows) -> (g_samples digest, curves digest), first 16 hex digits
DIGESTS = {
    ("constant", 0.5, 8): ("80ffb13cc176e7f0", "81c2268cd535688f"),
    ("constant", 0.5, 7): ("59be6d3e10b097c0", "83cb3821977118dd"),
    ("constant", 0.75, 8): ("d7243096739783f6", "81c2268cd535688f"),
    ("constant", 0.75, 7): ("3ce3202d9d9d623b", "83cb3821977118dd"),
    ("linear", 0.5, 8): ("c6eb5f33f217e2d8", "bfebbf9bcda78faf"),
    ("linear", 0.5, 7): ("93aee3a47402f65e", "fe56b5d9e730ecd1"),
    ("linear", 0.75, 8): ("4f6e639f47717937", "c209bbb292c8c9fa"),
    ("linear", 0.75, 7): ("f00fa0b888507e53", "aed06ddbf7d4fb61"),
    ("affine_sine", 0.5, 8): ("bf86a850da93db35", "f4dc85791d1ca7b1"),
    ("affine_sine", 0.5, 7): ("c4849409bbd7e842", "befeaf76b2c6cf25"),
    ("affine_sine", 0.75, 8): ("a4e7a3bb012d7fc8", "8dfa4c273f8f0bfe"),
    ("affine_sine", 0.75, 7): ("757ee757d0f47d79", "95dc0f6167044a41"),
    ("tabulated", 0.5, 8): ("5f956614fc51b0e7", "f8520d074fe86b68"),
    ("tabulated", 0.5, 7): ("8831f0d75e9e8bea", "cbd0bf88e6e079e8"),
    ("tabulated", 0.75, 8): ("175e594097bb30e8", "6abef56bc5d3f3ba"),
    ("tabulated", 0.75, 7): ("2fa0b54a0059766f", "a7ad81693177a447"),
    ("linear", 0.5, 32): ("c92f231949f255a7", "edd6d51bd98c4f0f"),
    ("linear", 0.5, 31): ("0a04c45bcfe98734", "8b832af6fc8320db"),
    ("linear", 0.75, 32): ("ac7f327bf5f1cd33", "866e4e4ce75bc959"),
    ("linear", 0.75, 31): ("2441cb833a1c9e14", "451751b2b6e6ec72"),
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
    assert STREAM == "philox2"


@pytest.mark.parametrize("key", list(DIGESTS), ids=lambda k: f"{k[0]}-H{k[1]}-n{k[2]}")
def test_sampled_ensembles_are_byte_pinned(key):
    assert _digests(*key) == DIGESTS[key]
