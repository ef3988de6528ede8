"""Command line front end: oracle calculator, experiment runner, rate and
functional-covariance studies, and raw noise export.

Exit codes: 0 success, 1 runtime or I/O failure (a plan that contradicts its
lattice included), 2 usage, config, or domain error.  All numbers print with
"." decimals at full double precision.  Output goes to --out if given, else
to stdout; simulate's table goes to stdout with --out, else to stderr.

Config files are INI-style with two sections, unknown sections and keys
rejected; they describe the experiment, and the flags --out, --raw and
--threads describe the run.  The [experiment] keys are the fields of
estimators.ExperimentPlan; a defaulted one left out (or an empty
x_half_width) takes the plan's default:

    [experiment]
    hurst = 0.5              # in [0.5, 1)
    h = 0.015625             # lattice step, dt = dx = h
    times = 0.5, 1.0         # strictly increasing, multiples of h
    radii = 8, 16, 32        # strictly increasing, multiples of h
    replicas = 10000
    seed = 1                 # in [0, 2**64)
    normalization = self     # self (default) | paper
    chaos = true             # default true: also compute first-chaos projections
    x_half_width = 33.0      # default max(radii) + max(times)

    [sigma]                  # the keys of each kind: solver.SIGMA_PARAMS
    kind = constant          # constant | linear | affine_sine | tabulated
    value = 1.0              # constant only
    # base = 1.0             # affine_sine: base + amplitude * sin(u)
    # amplitude = 0.5
    # knots = -1, 0, 1       # tabulated: piecewise linear
    # values = 0, 1, 2
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import analytic
from .analytic import MomentCurves
from .estimators import (
    KS_MIN_N,
    ExperimentPlan,
    ExperimentSummary,
    functional_cov_check,
    ks_coupled,
    ks_coupled_se,
    ks_normality,
    pair_tasks,
    resolve_threads,
    run_experiment,
    strict_json,
    summary_to_dict,
)
from .noise import NoiseSpec, sample_sheet, write_sheet
from .solver import KAPPA, SIGMA_PARAMS, LatticeError, SigmaSpec

__all__ = ["RunConfig", "parse_config", "main"]

# the [experiment] keys are the plan's fields but sigma, in declaration
# order; those without a default are required, an absent one takes it
_PLAN_FIELDS = [f for f in fields(ExperimentPlan) if f.name != "sigma"]
# defaults of the scalar sigma params; the params of each kind are SIGMA_PARAMS
_SIGMA_DEFAULTS = {"value": "1.0", "base": "1.0", "amplitude": "0.5"}


class ConfigError(ValueError):
    """Malformed configuration or a value outside its domain: maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """The experiment a config file describes."""

    plan: ExperimentPlan


def _parse_floats(text: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {text!r}") from exc


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


# one reader per annotation of a plan field: (text, key) -> value
_READERS = {
    "float": lambda text, key: float(text),
    "int": lambda text, key: int(text),
    "str": lambda text, key: text.strip(),
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_floats,
    "Optional[float]": lambda text, key: float(text) if text.strip() else None,
}


def _build_sigma(section) -> SigmaSpec:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("[sigma] section needs a 'kind' key")
    kind = kind.strip()
    if kind not in SIGMA_PARAMS:
        raise ConfigError(f"unknown sigma kind {kind!r}")
    names = SIGMA_PARAMS[kind]
    for key in section:
        if key != "kind" and key not in names:
            raise ConfigError(f"key '{key}' does not apply to sigma kind '{kind}'")
    try:
        return SigmaSpec(kind, tuple(
            float(section.get(name, _SIGMA_DEFAULTS[name])) if name in _SIGMA_DEFAULTS
            else _parse_floats(section.get(name, ""), f"sigma.{name}") for name in names))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sigma parameters: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Strict parse: unknown sections or keys are errors, not warnings."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    if cp.defaults():
        # configparser would copy its keys into every section
        raise ConfigError(f"[{cp.default_section}] section is not supported: "
                          f"its keys would apply to every section")

    # the keys of [sigma] depend on its kind: _build_sigma checks them
    known = {"experiment": {f.name for f in _PLAN_FIELDS}, "sigma": None}
    for sec in cp.sections():
        if sec not in known:
            raise ConfigError(f"unknown config section [{sec}]")
        for key in cp[sec]:
            if known[sec] is not None and key not in known[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
    if "experiment" not in cp or "sigma" not in cp:
        raise ConfigError("config needs [experiment] and [sigma] sections")

    exp = cp["experiment"]
    for f in _PLAN_FIELDS:
        if f.default is MISSING and f.name not in exp:
            raise ConfigError(f"[experiment] is missing required key '{f.name}'")

    sig = _build_sigma(cp["sigma"])
    try:
        values = {f.name: _READERS[f.type](exp[f.name], f.name)
                  for f in _PLAN_FIELDS if f.name in exp}
        plan = ExperimentPlan(sigma=sig, **values)
    except (ConfigError, LatticeError):
        raise  # a LatticeError (off-grid time, window short of its domain) exits 1
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc  # the plan's domain checks
    return RunConfig(plan)


def _load_config(path: str) -> ExperimentPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text).plan


def _json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _emit(text: str, path: Optional[str]) -> None:
    """A command's output: to the --out path if given, else to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


# ---------------------------------------------------------------- oracle


def _oracle_curves(args) -> MomentCurves:
    sigma = SigmaSpec.constant(args.value) if args.sigma == "constant" else SigmaSpec.linear()
    return MomentCurves.closed_form(sigma, args.hurst)


def _finite_float(text: str) -> float:
    """argparse type of the oracle's numbers: a float that is finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# The finiteness check below names an overflow; numpy's warnings would precede it.
@np.errstate(over="ignore")
def cmd_oracle(args) -> int:
    name, tol = args.quantity, 0.0
    try:
        if name == "cone":
            if args.hurst == 0.5:
                value = analytic.cone_overlap_white(args.x, args.xi, args.t, args.s)
                method = "closed-form overlap length (white case)"
            else:
                value = analytic.cone_inner_product(args.x, args.xi, args.t, args.s, args.hurst)
                method = "closed-form four-term power combination"
        elif name == "overlap":
            value = analytic.cone_window_overlap_integral(args.a, args.b, args.R)
            method = "closed-form window-cone overlap integral"
        elif name == "variance":
            curves = _oracle_curves(args)
            value = analytic.asymptotic_variance(args.t, args.hurst, curves)
            method = "panelled Gauss-Legendre rule, exact for the limit integrand"
        elif name == "cov":
            curves = _oracle_curves(args)
            value = analytic.cross_covariance(args.ti, args.tj, args.hurst, curves)
            method = "panelled Gauss-Legendre rule, exact for the limit cross integrand"
        elif name == "chaos1":
            value = analytic.first_chaos_variance(args.t, args.R, args.hurst)
            method = "closed form"
        elif name == "volterra":
            value = analytic.linear_white_second_moment_volterra(args.t, step=args.step)
            method = "trapezoid marching of the second-moment integral equation"
            tol = 2.0 * args.step * args.step  # inf, not OverflowError, for a huge step
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown oracle quantity {name}")
        if not (math.isfinite(value) and math.isfinite(tol)):
            raise ValueError(f"the inputs overflow the float range: value {value}, tolerance {tol}")
    except (ValueError, OverflowError) as exc:  # a float ** raises OverflowError
        reason = "the inputs overflow the float range" if isinstance(exc, OverflowError) else exc
        print(f"oracle {name}: {reason}", file=sys.stderr)
        return 2
    # the quantity's own arguments, in the order its parser declares them
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "quantity")}
    _emit(_json({"inputs": inputs, "value": value, "method": method, "tolerance": tol}), None)
    return 0


# ---------------------------------------------------------------- simulate


def _write_raw_csv(path: str, summary: ExperimentSummary) -> None:
    plan = summary.plan
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("replica_id,t,R,G\n")
        for k, row in enumerate(summary.g_samples):  # row k is replica k
            for it, t in enumerate(plan.times):
                for ir, r in enumerate(plan.radii):
                    fh.write(f"{k},{t!r},{r!r},{float(row[it, ir])!r}\n")


def _human_table(summary: ExperimentSummary) -> str:
    out = io.StringIO()
    plan = summary.plan
    out.write(
        f"plan {summary.plan_digest[:12]}  sigma={plan.sigma.kind}  H={plan.hurst}"
        f"  h={plan.h}  M={plan.replicas}  kappa={KAPPA}\n"
    )
    out.write(f"{'t':>6} {'R':>7} {'variance':>12} {'oracle var':>12} "
              f"{'KS':>9} {'chaos ratio':>12}\n")
    for (it, ir), ps in summary.pair_table():
        try:
            oracle_var = summary.oracle_scale(it, ir) ** 2
            oracle_txt = f"{oracle_var:12.5g}"
        except ValueError:
            oracle_txt = f"{'n/a':>12}"
        ks_txt = f"{ps.ks:9.4f}" if ps.ks is not None else f"{'n/a':>9}"
        cr_txt = f"{ps.chaos_ratio:12.5g}" if ps.chaos_ratio is not None else f"{'n/a':>12}"
        out.write(f"{ps.t:6.3g} {ps.radius:7.3g} {ps.variance:12.5g} "
                  f"{oracle_txt} {ks_txt} {cr_txt}\n")
    out.write(f"wall {summary.wall_seconds:.2f} s\n")
    return out.getvalue()


def cmd_simulate(args) -> int:
    summary = run_experiment(_load_config(args.config), threads=args.threads)
    payload = summary_to_dict(summary, deterministic=args.deterministic)
    if args.raw:
        _write_raw_csv(args.raw, summary)
    _emit(_json(payload), args.out)
    # the table goes where the JSON does not
    print(_human_table(summary), end="", file=sys.stdout if args.out else sys.stderr)
    return 0


# ---------------------------------------------------------------- rate


def _coupled_ks(summary: ExperimentSummary, i_time: int, i_radius: int) -> tuple[float, float]:
    """Coupled KS distance of one radius (ks_coupled) and its jackknife SE."""
    x, y = summary.samples(i_time, i_radius), summary.chaos_samples(i_time, i_radius)
    return ks_coupled(x, y), ks_coupled_se(x, y)


def _ols_slope(logr: np.ndarray, logk: np.ndarray) -> float:
    lr = logr - logr.mean()
    return float(np.dot(lr, logk - logk.mean()) / np.dot(lr, lr))


def _bootstrap_ks(summary: ExperimentSummary, i_time: int, n_boot: int, radius_ids) -> np.ndarray:
    """(n_boot, len(radius_ids)) KS distances of the replica resamples at the
    given radii.  Every call rebuilds the plan's Philox stream, so each draws
    the same n_boot index vectors whichever radii it covers: the resampling
    is shared across radii, whose samples are coupled through common
    replicas.  With first-chaos samples present, each replica's (G, I1) pair
    is resampled jointly and the statistic is ks_coupled, as in the rate
    ladder; otherwise it is the plain KS distance of the resample divided,
    as the summary's KS column is, by its own SD or, under paper
    normalization, by the pair's oracle scale."""
    # one contiguous column per radius: take() on it is the same resample
    # as a row gather of the (M, n_radii) view, at a fraction of the cost
    g = [np.ascontiguousarray(summary.samples(i_time, ir)) for ir in radius_ids]
    i1 = None if summary.i1_samples is None else [
        np.ascontiguousarray(summary.chaos_samples(i_time, ir)) for ir in radius_ids]
    paper = summary.plan.normalization == "paper"
    # the pair's scale in the summary's KS column, which may not exist yet
    scales = [summary.oracle_scale(i_time, ir) if paper else None for ir in radius_ids]
    m = summary.g_samples.shape[0]
    key = np.array([summary.plan.seed, 2**63], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    ks = np.empty((n_boot, len(g)))
    for b in range(n_boot):
        idx = rng.integers(0, m, size=m)
        for k, col in enumerate(g):
            x = col.take(idx)
            if i1 is None:
                ks[b, k] = ks_normality(x / (scales[k] if paper else x.std(ddof=1)))
            else:
                ks[b, k] = ks_coupled(x, i1[k].take(idx))
    return ks


def _bootstrap_tasks(n_radii: int, i_time: int, n_boot: int, workers: int) -> list:
    """The bootstrap as summarize tasks: the radii split into one group per
    worker, each task drawing the whole index stream itself.  _slope_ci
    takes the slopes and quantiles from the reassembled table, so the worker
    count does not change a bit."""
    groups = np.array_split(range(n_radii), min(workers, n_radii))
    return [(_bootstrap_ks, (i_time, n_boot, group)) for group in groups]


def _slope_ci(radii, tables: list, level: float) -> tuple[float, float]:
    """Percentile CI of the log-log slope, from the bootstrap tasks' tables
    of KS distances reassembled into one (n_boot, n_radii) table."""
    ks = np.concatenate(tables, axis=1)
    logr = np.log(np.asarray(radii))
    slopes = np.array([_ols_slope(logr, np.log(row)) for row in ks])
    lo, hi = np.quantile(slopes, [(1 - level) / 2, 1 - (1 - level) / 2])
    return float(lo), float(hi)


def _rate_study(plan: ExperimentPlan, n_boot: int, workers: int):
    """The KS ladder over the plan's radii at its last time, with its SEs,
    the log-log OLS slope and the slope's 95% bootstrap CI:
    (ks, se, slope, (lo, hi)).  The ladder is coupled (ks_coupled) when
    the plan computes first-chaos samples, else the summary's KS column."""
    # the study reads the last time only: the lattice (t_max, x_half_width)
    # and every replica's sample there stay the same without the others
    plan = replace(plan, times=plan.times[-1:])
    radii = range(len(plan.radii))
    # the statistics pass: the bootstrap groups, then the ladder, one radius
    # per task: coupled with first-chaos samples, whose floor lies far below
    # that of the plain KS column, else the pair table for its KS column
    groups = _bootstrap_tasks(len(plan.radii), 0, n_boot, workers)
    boot = {("boot", k): task for k, task in enumerate(groups)}
    ladder = {(0, ir): (_coupled_ks, (0, ir)) for ir in radii} if plan.chaos else pair_tasks(plan)
    stats = run_experiment(plan, threads=workers, tasks={**boot, **ladder}).stats
    rows = [stats[(0, ir)] for ir in radii]
    ks, se = map(np.array, zip(*(rows if plan.chaos else [(ps.ks, ps.ks_se) for ps in rows])))
    slope = _ols_slope(np.log(np.asarray(plan.radii)), np.log(ks))
    return ks, se, slope, _slope_ci(plan.radii, [stats[key] for key in boot], level=0.95)


def cmd_rate(args) -> int:
    plan = _load_config(args.config)
    if plan.sigma.is_degenerate:
        raise ConfigError("rate study needs sigma(1) != 0: with sigma(1) = 0 the field stays "
                          "at its initial state and every average is 0")
    if len(plan.radii) < 3:
        raise ConfigError("rate study needs at least 3 radii in the config")
    if plan.replicas < KS_MIN_N:
        raise ConfigError(f"rate study needs at least {KS_MIN_N} replicas for KS distances")
    ks, se, slope, (lo, hi) = _rate_study(plan, args.bootstrap, resolve_threads(args.threads))
    lines = ["R,ks,se"]
    for r, k, s in zip(plan.radii, ks, se):
        lines.append(f"{float(r)!r},{float(k)!r},{float(s)!r}")
    lines.append(f"# slope,{slope!r}")
    lines.append(f"# slope_ci_low,{lo!r}")
    lines.append(f"# slope_ci_high,{hi!r}")
    lines.append(f"# t,{plan.times[-1]!r}")
    lines.append(f"# bootstrap,{args.bootstrap}")
    if plan.chaos:
        lines.append("# estimator,coupled_first_chaos")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- funcclt


def cmd_funcclt(args) -> int:
    plan = _load_config(args.config)
    if len(plan.times) < 2:
        raise ConfigError("functional covariance check needs at least 2 times in the config")
    if plan.replicas < 2:
        raise ConfigError("functional covariance check needs at least 2 replicas")
    report = functional_cov_check(run_experiment(plan, threads=args.threads, tasks={}))
    payload = strict_json({
        "schema": "fracwave.funcclt/1",
        "times": report.times.tolist(),
        "radius": report.radius,
        "hurst": plan.hurst,
        "empirical": report.empirical.tolist(),
        "oracle": report.oracle.tolist(),
        "se": report.se.tolist(),
        "max_se_units": report.max_se_units,
    })
    _emit(_json(payload), args.out)
    return 0


# ---------------------------------------------------------------- noise-dump


def cmd_noise_dump(args) -> int:
    try:
        spec = NoiseSpec(
            hurst=args.hurst, dt=args.dt, dx=args.dx,
            n_time=args.n_time, n_space=args.n_space, seed=args.seed,
        )
        write_sheet(sample_sheet(spec, replica=args.replica), args.out)
    except ValueError as exc:
        print(f"noise-dump: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.n_time}x{args.n_space} sheet (H={args.hurst}) to {args.out}")
    return 0


# ---------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fracwave", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser("oracle", help="evaluate a closed-form or quadrature oracle")
    so = po.add_subparsers(dest="quantity", required=True)

    p_cone = so.add_parser("cone", help="inner product of two cone indicators")
    for name in ("x", "xi", "t", "s"):
        p_cone.add_argument(f"--{name}", type=_finite_float, required=True)
    p_cone.add_argument("--hurst", type=_finite_float, required=True)

    p_ov = so.add_parser("overlap", help="window-cone overlap integral")
    p_ov.add_argument("--a", type=_finite_float, required=True)
    p_ov.add_argument("--b", type=_finite_float, required=True)
    p_ov.add_argument("--R", type=_finite_float, required=True)

    p_var = so.add_parser("variance", help="asymptotic variance coefficient")
    p_var.add_argument("--t", type=_finite_float, required=True)
    p_var.add_argument("--hurst", type=_finite_float, required=True)
    p_var.add_argument("--sigma", choices=("constant", "linear"), default="linear")
    p_var.add_argument("--value", type=_finite_float, default=1.0, help="constant sigma level")

    p_cov = so.add_parser("cov", help="asymptotic cross-covariance coefficient")
    p_cov.add_argument("--ti", type=_finite_float, required=True)
    p_cov.add_argument("--tj", type=_finite_float, required=True)
    p_cov.add_argument("--hurst", type=_finite_float, required=True)
    p_cov.add_argument("--sigma", choices=("constant", "linear"), default="linear")
    p_cov.add_argument("--value", type=_finite_float, default=1.0)

    p_c1 = so.add_parser("chaos1", help="variance of the first-chaos component")
    p_c1.add_argument("--t", type=_finite_float, required=True)
    p_c1.add_argument("--R", type=_finite_float, required=True)
    p_c1.add_argument("--hurst", type=_finite_float, required=True)

    p_vol = so.add_parser("volterra", help="second moment of the linear-coefficient field")
    p_vol.add_argument("--t", type=_finite_float, required=True)
    p_vol.add_argument("--step", type=_finite_float, default=1e-3)

    # the config describes the experiment, the flags the run
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("config")
    run.add_argument("--threads", type=int, default=None,
                     help="worker processes (0 or unset: FRACWAVE_THREADS, else one per CPU "
                          "this process may run on)")

    p_sim = sub.add_parser("simulate", parents=[run],
                           help="run the experiment described by a config file")
    p_sim.add_argument("--deterministic", action="store_true",
                       help="omit volatile fields (wall time) from the summary JSON")
    p_sim.add_argument("--out", default=None, help="summary JSON path (default: stdout)")
    p_sim.add_argument("--raw", default=None, help="raw per-replica CSV path")

    p_rate = sub.add_parser("rate", parents=[run],
                            help="KS distance vs radius with a log-log slope fit")
    p_rate.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_rate.add_argument("--bootstrap", type=int, default=200)

    p_f = sub.add_parser("funcclt", parents=[run],
                         help="empirical vs limit covariance across times")
    p_f.add_argument("--out", default=None, help="JSON path (default: stdout)")

    p_nd = sub.add_parser("noise-dump", help="sample a noise sheet and write the binary format")
    p_nd.add_argument("--hurst", type=float, required=True)
    p_nd.add_argument("--dt", type=float, required=True)
    p_nd.add_argument("--dx", type=float, required=True)
    p_nd.add_argument("--n-time", type=int, required=True)
    p_nd.add_argument("--n-space", type=int, required=True)
    p_nd.add_argument("--seed", type=int, default=0)
    p_nd.add_argument("--replica", type=int, default=0)
    p_nd.add_argument("--out", required=True)
    return p


_COMMANDS = {
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "rate": cmd_rate,
    "funcclt": cmd_funcclt,
    "noise-dump": cmd_noise_dump,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None) is not None and args.threads < 0:
        parser.error("--threads must be >= 0 (0 = auto)")
    if getattr(args, "bootstrap", 1) < 1:
        parser.error("--bootstrap must be >= 1")
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
