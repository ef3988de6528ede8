"""Workload definitions and output verification for the fracwave benchmark.

Each workload is one `fracwave` subcommand over a plan whose seed comes from
the benchmark's --seed.  The plans mirror the demo configs they are named
after, but live here so that a change to a demo cannot silently change the
benchmark.

Verification uses the program's own oracle layer (fracwave.analytic) and plan
digest, never stored digests, so a versioned change of the noise stream still
verifies.  The continuum oracle is moved by the scheme's exact O(h) bias, taken
from the constant-coefficient case, before sampled statistics are held to it.  Every check returns a list of failure strings; an empty list means
the output passed.  Failures are tagged "structure:" (the output is malformed
or does not belong to the plan) or "statistic:" (a number disagrees with the
oracle beyond the tolerance stated next to the check).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

# z-score at which a sampled statistic is declared to disagree with its oracle;
# for a Gaussian estimate one false alarm in about 1.7 million pairs.
Z_LIMIT = 5.0
# "near 1" for the first-chaos share of the H = 3/4 linear-sigma field: the
# share tends to 1 with the radius (criterion 5 asks only >= 0.85); 0.1 is
# more than six standard errors of the ratio at the workload's replica count.
FRAC_CHAOS_SLACK = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # "simulate" or "rate"
    experiment: str  # [experiment] body without replicas / seed
    sigma: str  # [sigma] body
    replicas: int  # plan size of the timed command
    smoke_replicas: int  # plan size in --smoke mode
    pooled: bool  # True: --threads nproc, else --threads 1
    extra_args: tuple = ()

    def config_text(self, seed: int, replicas: int | None = None) -> str:
        m = self.replicas if replicas is None else replicas
        return (
            "[experiment]\n" + self.experiment
            + f"replicas = {m}\nseed = {seed}\n\n[sigma]\n" + self.sigma
        )

    def argv(self, config_path: str, threads: int) -> list[str]:
        return [self.subcommand, config_path, "--threads", str(threads), *self.extra_args]


WORKLOADS = {
    w.name: w
    for w in (
        # Philox white sampler, leapfrog and chaos matvec share replica time;
        # the FFT sampler is bypassed, so a sampler change must not move it.
        Workload(
            name="white_chaos",
            subcommand="simulate",
            experiment=(
                "hurst = 0.5\nh = 0.03125\ntimes = 1.0\nradii = 4.0, 8.0, 16.0, 32.0\n"
                "chaos = true\n"
            ),
            sigma="kind = linear\n",
            # the demo's plan size; it keeps the chaos share (about 0.975)
            # four to five standard errors below 1, which verification asserts
            replicas=4000,
            smoke_replicas=256,
            pooled=False,
            extra_args=("--deterministic",),
        ),
        # Circulant-embedding synthesis is most of replica time (tier-1
        # ensembles C and F have the same shape).
        Workload(
            name="frac_sheet",
            subcommand="simulate",
            experiment=(
                "hurst = 0.75\nh = 0.03125\ntimes = 0.5, 1.0\nradii = 8.0, 16.0, 32.0\n"
                "chaos = true\n"
            ),
            sigma="kind = linear\n",
            replicas=256,
            smoke_replicas=128,
            pooled=False,
            extra_args=("--deterministic",),
        ),
        # Many tiny replicas on nproc workers: pool, merge, jackknife, KS and
        # the CLI bootstrap come first.
        Workload(
            name="rate_small",
            subcommand="rate",
            experiment=(
                "hurst = 0.5\nh = 0.125\ntimes = 0.5, 1.0\nradii = 1.0, 2.0, 4.0, 8.0\n"
                "chaos = false\n"
            ),
            sigma="kind = affine_sine\nbase = 1.0\namplitude = 0.5\n",
            replicas=30000,
            smoke_replicas=512,
            pooled=True,
        ),
    )
}

# Tier-1 ensemble shapes A-F of the acceptance suite, for the one-off
# per-replica stage split of the traced run: (hurst, sigma, h, times, radii, chaos).
STAGE_SHAPES = {
    "A": (0.5, ("constant", 1.0), 1 / 64, (1.0,), (2.0,), False),
    "B": (0.5, ("linear",), 1 / 64, (1.0,), (4.0, 8.0, 16.0, 32.0), True),
    "C": (0.75, ("linear",), 1 / 32, (0.5, 1.0), (8.0, 16.0, 32.0), True),
    "D": (0.5, ("constant", 1.0), 1 / 64, (0.25, 0.5, 1.0), (8.0, 16.0, 32.0), False),
    "E": (0.5, ("affine_sine", 1.0, 0.5), 1 / 32, (1.0,), (4.0, 8.0, 16.0, 32.0), False),
    "F": (0.75, ("constant", 1.0), 1 / 32, (0.5, 1.0), (32.0,), False),
}


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def _nonfinite_paths(obj, path="$"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite_paths(v, f"{path}[{i}]")]
    return [f"{path} (unexpected type {type(obj).__name__})"]


@functools.lru_cache(maxsize=None)
def lattice_bias_factor(fw, h: float, t: float, radius: float) -> float:
    """Lattice over continuum variance of the first chaos, white noise.

    The first chaos of the scheme's average is linear in the cells, which are
    iid with variance h^2, so its lattice variance is exactly h^2 times the
    sum of squared weights; the continuum value is analytic.first_chaos_variance.
    Their ratio is the scheme's O(h) bias (about +4.7% at h = 1/32, +2.3% at
    1/64); the first chaos is over 97% of the variance on the white workload,
    so the same factor carries the total-variance oracle to the lattice.
    """
    cfg = fw.solver.LatticeConfig(h=h, t_max=t, x_half_width=radius + t)
    w = fw.estimators.first_chaos_weights(cfg, t, radius, fw.solver.calibrate_kernel(h, 0.5))
    return h * h * float((w * w).sum()) / fw.analytic.first_chaos_variance(t, radius, 0.5)


def verify(workload: Workload, plan, stdout: str, fw) -> list[str]:
    """Check one command output against its plan; fw is the imported fracwave."""
    if workload.subcommand == "simulate":
        return _verify_summary(workload, plan, stdout, fw)
    return _verify_rate(plan, stdout)


def _verify_summary(workload: Workload, plan, text: str, fw) -> list[str]:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"structure: summary is not strict JSON: {exc}"]
    bad = [f"structure: non-finite number at {p}" for p in _nonfinite_paths(doc)]
    if doc.get("plan_hash") != fw.estimators.plan_hash(plan):
        bad.append("structure: plan_hash does not match the generated plan")
    pairs = doc.get("pairs") or []
    if len(pairs) != len(plan.times) * len(plan.radii):
        return bad + [f"structure: {len(pairs)} pairs for a {len(plan.times)}x{len(plan.radii)} plan"]
    curves = fw.analytic.MomentCurves.linear_white()
    for p in pairs:
        tag = f"(t={p.get('t')}, R={p.get('radius')})"
        if p.get("n") != plan.replicas:
            bad.append(f"structure: n={p.get('n')} != M={plan.replicas} at {tag}")
        needed = ("t", "radius", "variance", "variance_se", "chaos_ratio")
        if not all(isinstance(p.get(k), float) for k in needed):
            bad.append(f"structure: one of {needed} is missing or not a number at {tag}")
            continue
        ratio = p["chaos_ratio"]
        if workload.name == "white_chaos":
            oracle = (fw.analytic.prelimit_variance_white(p["t"], p["radius"], curves)
                      * lattice_bias_factor(fw, plan.h, p["t"], p["radius"]))
            if abs(p["variance"] - oracle) > Z_LIMIT * p["variance_se"]:
                bad.append(
                    f"statistic: variance {p['variance']!r} vs lattice oracle {oracle!r} "
                    f"exceeds {Z_LIMIT} SE ({p['variance_se']!r}) at {tag}"
                )
            if not 0.0 < ratio < 1.0:
                bad.append(f"statistic: chaos_ratio {ratio!r} outside (0, 1) at {tag}")
        elif abs(ratio - 1.0) > FRAC_CHAOS_SLACK:
            bad.append(f"statistic: chaos_ratio {ratio!r} not within {FRAC_CHAOS_SLACK} of 1 at {tag}")
    return bad


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text!r}")
    return x


def _verify_rate(plan, text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "R,ks,se":
        return ["structure: rate CSV header is not 'R,ks,se'"]
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    notes = dict(ln[2:].split(",", 1) for ln in lines[1:] if ln.startswith("# ") and "," in ln)
    try:
        table = [tuple(_finite(v) for v in ln.split(",")) for ln in rows]
        slope = _finite(notes["slope"])
        lo, hi = _finite(notes["slope_ci_low"]), _finite(notes["slope_ci_high"])
        t_obs = _finite(notes["t"])
    except (KeyError, ValueError) as exc:
        return [f"structure: rate CSV does not parse: {exc}"]
    bad = []
    if any(len(r) != 3 for r in table) or [r[0] for r in table] != list(plan.radii):
        return [f"structure: rate rows do not match radii {plan.radii}"]
    if t_obs != plan.times[-1]:
        bad.append(f"structure: rate study at t={t_obs}, plan ends at {plan.times[-1]}")
    for r, ks, se in table:
        if not 0.0 < ks <= 1.0 or se < 0.0:
            bad.append(f"structure: KS {ks!r} / SE {se!r} out of range at R={r}")
    if bad:
        return bad
    logr = [math.log(r[0]) for r in table]
    logk = [math.log(r[1]) for r in table]
    mr, mk = sum(logr) / len(logr), sum(logk) / len(logk)
    ols = sum((a - mr) * (b - mk) for a, b in zip(logr, logk)) / sum((a - mr) ** 2 for a in logr)
    if abs(ols - slope) > 1e-9 * max(1.0, abs(slope)):
        bad.append(f"structure: slope {slope!r} is not the OLS fit of the rows ({ols!r})")
    if not lo <= hi:
        bad.append(f"structure: slope CI ({lo!r}, {hi!r}) is not ordered")
    return bad


def corruptions(workload: Workload, clean: str) -> dict[str, str]:
    """Deliberately broken copies of a valid output, for the self-check."""
    if workload.subcommand == "rate":
        lines = clean.splitlines()
        lo = next(i for i, ln in enumerate(lines) if ln.startswith("# slope_ci_low,"))
        hi = next(i for i, ln in enumerate(lines) if ln.startswith("# slope_ci_high,"))
        swapped = list(lines)
        swapped[lo] = "# slope_ci_low," + lines[hi].split(",", 1)[1]
        swapped[hi] = "# slope_ci_high," + lines[lo].split(",", 1)[1]
        nan_row = list(lines)
        nan_row[1] = nan_row[1].split(",")[0] + ",nan,0.0"
        out = {"nan_ks": "\n".join(nan_row) + "\n"}
        if lines[lo].split(",", 1)[1] != lines[hi].split(",", 1)[1]:
            out["swapped_ci"] = "\n".join(swapped) + "\n"
        return out
    doc = json.loads(clean)
    wrong_n = json.loads(clean)
    wrong_n["pairs"][0]["n"] -= 1
    wrong_hash = json.loads(clean)
    wrong_hash["plan_hash"] = "0" * 64
    nan_text = clean.replace(
        f'"variance": {json.dumps(doc["pairs"][0]["variance"])}', '"variance": NaN', 1
    )
    return {
        "wrong_n": json.dumps(wrong_n, indent=2),
        "wrong_plan_hash": json.dumps(wrong_hash, indent=2),
        "nan_variance": nan_text,
    }
