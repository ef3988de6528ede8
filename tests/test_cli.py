"""End-to-end command tests: every subcommand exercised through main(argv),
frozen oracle values on the oracle surface, config parsing and rejections, and
the exit-code contract (0 ok, 1 runtime, 2 config/domain)."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracwave import analytic, cli, estimators, noise
from fracwave.cli import _bootstrap_tasks, _ols_slope, _slope_ci, main, parse_config
from fracwave.estimators import (
    _call,
    functional_cov_check,
    ks_coupled,
    ks_coupled_se,
    ks_normality,
    pool_map,
    run_experiment,
)
from fracwave.noise import STREAM, NoiseSpec, read_sheet, sample_sheet
from fracwave.solver import SigmaSpec

SMALL_CFG = """
[experiment]
hurst = 0.5
h = 0.25
times = 1.0
radii = 1.0
replicas = 60
seed = 3

[sigma]
kind = linear
"""


def _run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------ oracle


def test_oracle_cone_fractional(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "cone", "--x", "0", "--xi", "0", "--t", "1", "--s", "1",
        "--hurst", "0.75",
    ])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"inputs", "value", "method", "tolerance"}
    assert payload["value"] == pytest.approx(2.0 * 2.0**1.5, rel=1e-12)
    assert payload["inputs"]["hurst"] == 0.75


def test_oracle_cone_white_is_overlap_length(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "cone", "--x", "0", "--xi", "0.5", "--t", "1", "--s", "1",
        "--hurst", "0.5",
    ])
    assert code == 0
    payload = json.loads(out)
    # twice the overlap of [-1, 1] and [-0.5, 1.5], matching the fractional
    # normalization as hurst tends to 1/2
    assert payload["value"] == pytest.approx(2.0 * 1.5, rel=1e-12)
    assert "white" in payload["method"]


def test_oracle_overlap_matches_library(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "overlap", "--a", "0.5", "--b", "1.0", "--R", "4.0",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(
        analytic.cone_window_overlap_integral(0.5, 1.0, 4.0), rel=1e-12
    )


def test_oracle_overlap_domain_error(capsys):
    code, out, err = _run(capsys, [
        "oracle", "overlap", "--a", "1.0", "--b", "2.0", "--R", "3.0",
    ])
    assert code == 2
    assert out == ""
    assert "oracle overlap" in err


def test_oracle_variance_frozen_values(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "variance", "--t", "1", "--hurst", "0.5", "--sigma", "constant",
    ])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    code, out, _ = _run(capsys, [
        "oracle", "variance", "--t", "1", "--hurst", "0.5", "--sigma", "linear",
    ])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.683533130180856, abs=1e-8)


@pytest.mark.parametrize("t", [1.0, 3.0, 10.0])
def test_oracle_variance_linear_white_closed_form(capsys, t):
    # 2 int_0^t (t-s)^2 cosh(s/sqrt 2) ds = 8 sqrt 2 (sinh(t/sqrt 2) - t/sqrt 2),
    # which the exact rule meets to rounding: the reported tolerance is 0
    code, out, _ = _run(capsys, [
        "oracle", "variance", "--t", repr(t), "--hurst", "0.5", "--sigma", "linear",
    ])
    assert code == 0
    payload = json.loads(out)
    a = t / math.sqrt(2.0)
    assert payload["value"] == pytest.approx(8.0 * math.sqrt(2.0) * (math.sinh(a) - a), rel=1e-13)
    assert payload["tolerance"] == 0.0


def test_oracle_cov_frozen_value(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "cov", "--ti", "0.5", "--tj", "1.0", "--hurst", "0.5",
        "--sigma", "constant",
    ])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(5.0 / 24.0, abs=1e-9)
    assert json.loads(out)["tolerance"] == 0.0


def test_oracle_chaos1_frozen_value(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "chaos1", "--t", "1", "--R", "2", "--hurst", "0.5",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(7.0 / 6.0, rel=1e-12)
    assert payload["tolerance"] == 0.0


def test_oracle_chaos1_fractional_is_a_closed_form(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "chaos1", "--t", "1", "--R", "32", "--hurst", "0.75",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed form"
    assert payload["tolerance"] == 0.0
    assert payload["value"] == analytic.first_chaos_variance(1.0, 32.0, 0.75)
    assert payload["value"] / 32.0**1.5 == pytest.approx(0.942050, abs=5e-6)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "x"])
def test_oracle_rejects_non_finite_numbers(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "chaos1", "--t", "1", f"--R={text}", "--hurst", "0.5"])
    assert exc.value.code == 2
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["variance", "--t", "1e300", "--hurst", "0.5"],
    ["variance", "--t", "1e5", "--hurst", "0.75", "--sigma", "constant"],
    ["cov", "--ti", "1e300", "--tj", "1e301", "--hurst", "0.5"],
])
def test_oracle_refuses_a_time_past_the_panel_cap(capsys, argv):
    # the moment rule cuts a panel per unit of time; past its cap the
    # command names t and exits 2 instead of allocating the node arrays
    code, out, err = _run(capsys, ["oracle", *argv])
    assert code == 2
    assert out == ""
    assert "t=1" in err and "at most t=" in err


@pytest.mark.parametrize("argv", [
    ["cone", "--x", "0", "--xi", "0", "--t", "1e308", "--s", "1e308", "--hurst", "0.75"],
    ["volterra", "--t", "1", "--step", "1e200"],
    # a float ** that overflows raises OverflowError, where numpy returns inf
    ["cone", "--x", "0", "--xi", "0", "--t", "1e250", "--s", "1e250", "--hurst", "0.75"],
    ["chaos1", "--t", "1", "--R", "1e250", "--hurst", "0.75"],
])
def test_oracle_names_an_overflow(capsys, argv):
    # finite inputs whose value or tolerance overflows exit 2, not with a
    # JSON encoder's traceback or an OverflowError
    code, out, err = _run(capsys, ["oracle", *argv])
    assert code == 2
    assert out == ""
    assert "overflow the float range" in err


@pytest.mark.parametrize("argv", [
    ["variance", "--t", "1e4", "--hurst", "0.5"],
    ["cov", "--ti", "1e4", "--tj", "1e4", "--hurst", "0.5"],
])
def test_oracle_overflow_is_one_line_of_stderr(argv):
    # cosh(t / sqrt 2) overflows inside the moment rule; the command's own
    # message is all that reaches stderr, with no numpy warning before it
    env = dict(os.environ, PYTHONWARNINGS="default")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fracwave.cli", "oracle", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"oracle {argv[0]}: the inputs overflow the float range: "
                           "value inf, tolerance 0.0\n")


def test_oracle_volterra_frozen_value(capsys):
    code, out, _ = _run(capsys, ["oracle", "volterra", "--t", "1"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.cosh(1 / math.sqrt(2)), abs=1e-4)


@pytest.mark.parametrize("step", ["0", "-0.5"])
def test_oracle_volterra_rejects_a_step_that_is_not_positive(capsys, step):
    code, out, err = _run(capsys, ["oracle", "volterra", "--t", "1", f"--step={step}"])
    assert code == 2
    assert out == ""
    assert "step positive" in err


@pytest.mark.parametrize("argv", [
    ["--t", "50.001"],
    ["--t", "1", "--step", "1e-9"],
    ["--t", "1e300", "--step", "1e-300"],
])
def test_oracle_volterra_refuses_a_step_count_past_the_cap(capsys, argv):
    # the marching's work grows as the square of its step count; past the cap
    # the command exits 2 with one line, before it allocates the step arrays
    code, out, err = _run(capsys, ["oracle", "volterra", *argv])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "at most 50000 steps" in err


# ------------------------------------------------------------ config parsing


def test_config_rejections():
    bad = [
        ("unknown config section", SMALL_CFG + "\n[extra]\nkey = 1\n"),
        ("unknown config section [output]", SMALL_CFG + "\n[output]\nthreads = 1\n"),
        ("unknown key", SMALL_CFG.replace("seed = 3", "seed = 3\nwhat = 1")),
        ("missing required key", SMALL_CFG.replace("hurst = 0.5\n", "")),
        ("does not apply", SMALL_CFG.replace("kind = linear", "kind = linear\nvalue = 2.0")),
        ("unknown sigma kind", SMALL_CFG.replace("kind = linear", "kind = cubic")),
        ("boolean", SMALL_CFG.replace("seed = 3", "seed = 3\nchaos = maybe")),
        ("finite", SMALL_CFG.replace("kind = linear", "kind = constant\nvalue = nan")),
        ("finite", SMALL_CFG.replace("kind = linear", "kind = constant\nvalue = inf")),
        ("finite", SMALL_CFG.replace("kind = linear", "kind = affine_sine\namplitude = -inf")),
        ("finite", SMALL_CFG.replace(
            "kind = linear", "kind = tabulated\nknots = -1, 0, 1\nvalues = 0, nan, 2")),
        ("DEFAULT", "[DEFAULT]\nseed = 4\n" + SMALL_CFG),
        # fields are read in declaration order: hurst's error comes first
        ("could not convert string to float: 'x'", SMALL_CFG.replace(
            "hurst = 0.5", "hurst = x").replace("seed = 3", "seed = 3\nchaos = maybe")),
    ]
    from fracwave.cli import ConfigError
    for fragment, text in bad:
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            parse_config(text)


@pytest.mark.parametrize("extra,changed", [
    ("", {}),
    ("\nx_half_width =", {}),
    ("\nx_half_width =  ", {}),
    ("\nnormalization = paper\nchaos = false\nx_half_width = 2.5",
     {"normalization": "paper", "chaos": False, "x_half_width": 2.5}),
], ids=["absent", "empty-width", "blank-width", "set"])
def test_config_takes_its_defaults_from_the_plan(extra, changed):
    # the keys a config may leave out are the plan's defaulted fields, and
    # an absent key, or an empty x_half_width, parses to the plan that
    # ExperimentPlan builds with that field left out
    defaulted = {f.name for f in dataclasses.fields(estimators.ExperimentPlan)
                 if f.default is not dataclasses.MISSING}
    assert defaulted == {"normalization", "chaos", "x_half_width"}
    plan = parse_config(SMALL_CFG.replace("seed = 3", "seed = 3" + extra)).plan
    assert plan == estimators.ExperimentPlan(
        hurst=0.5, sigma=SigmaSpec.linear(), h=0.25, times=(1.0,), radii=(1.0,),
        replicas=60, seed=3, **changed)


def test_config_error_exit_codes(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL_CFG + "\n[extra]\nz = 1\n")
    code, _, err = _run(capsys, ["simulate", path])
    assert code == 2
    assert "config error" in err
    code, _, err = _run(capsys, ["simulate", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "cannot read config" in err
    # --out, --raw and --threads describe the run; a config has no [output]
    path = _write_cfg(tmp_path, SMALL_CFG + "\n[output]\nsummary = s.json\n")
    for command in ("simulate", "rate", "funcclt"):
        code, out, err = _run(capsys, [command, path])
        assert code == 2 and out == ""
        assert "unknown config section [output]" in err


@pytest.mark.parametrize("key,value,named", [
    ("x_half_width", "inf", "x_half_width=inf"), ("x_half_width", "nan", "x_half_width=nan"),
    ("times", "nan", "time=nan"), ("radii", "inf", "radius=inf"), ("h", "nan", "h must be finite"),
])
def test_non_finite_plan_numbers_are_named(tmp_path, capsys, key, value, named):
    text = SMALL_CFG.replace("seed = 3", "seed = 3\nx_half_width = 2.0")
    text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                     for line in text.splitlines())
    code, out, err = _run(capsys, ["simulate", _write_cfg(tmp_path, text)])
    assert code == 2
    assert out == ""
    assert named in err and "finite" in err


@pytest.mark.parametrize("old,new,code,message", [
    ("hurst = 0.5", "hurst = 0.3", 2, "config error: hurst must lie in [1/2, 1), got 0.3"),
    ("seed = 3", "seed = -1", 2, "config error: seed must lie in [0, 2**64), got -1"),
    ("seed = 3", "seed = 3\nnormalization = unit", 2,
     "config error: normalization must be 'self' or 'paper', got 'unit'"),
    ("radii = 1.0", "radii = -0.3", 2, "config error: radius=-0.3 is not positive"),
    ("times = 1.0", "times = 1.1", 1, "error: time=1.1 is not a multiple of the lattice step h=0.25"),
], ids=["hurst", "seed", "normalization", "negative-radius", "off-grid-time"])
def test_plan_domain_errors_exit_2_and_lattice_contradictions_exit_1(
        tmp_path, capsys, old, new, code, message):
    # the plan states each rule once; the CLI maps its domain errors to
    # exit 2, as noise-dump and oracle do, and keeps 1 for a plan that
    # contradicts its lattice
    text = SMALL_CFG.replace(old, new)
    for command in ("simulate", "funcclt"):
        assert _run(capsys, [command, _write_cfg(tmp_path, text)]) == (code, "", message + "\n")


def test_window_violation_is_runtime_error(tmp_path, capsys):
    text = SMALL_CFG.replace("seed = 3", "seed = 3\nx_half_width = 1.0")
    path = _write_cfg(tmp_path, text)
    code, _, err = _run(capsys, ["simulate", path])
    assert code == 1
    assert "domain of dependence" in err


# ------------------------------------------------------------ simulate


def test_simulate_stdout_json_and_table(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL_CFG)
    code, out, err = _run(capsys, ["simulate", path, "--deterministic"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "fracwave.summary/1"
    assert payload["plan"]["replicas"] == 60
    assert len(payload["pairs"]) == 1
    assert "wall_seconds" not in payload
    # the human table goes to stderr: its header, then the t = 1, R = 1 row
    lines = err.splitlines()
    assert lines[1].split() == ["t", "R", "variance", "oracle", "var", "KS", "chaos", "ratio"]
    assert lines[2].split()[:2] == ["1", "1"] and len(lines) == 4

    # byte-identical on repeat
    code2, out2, _ = _run(capsys, ["simulate", path, "--deterministic"])
    assert code2 == 0 and out2 == out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_simulate_single_replica_is_strict_json(tmp_path, capsys):
    # at M = 1 the SEs and the variance are undefined: they read null, never NaN
    path = _write_cfg(tmp_path, SMALL_CFG.replace("replicas = 60", "replicas = 1"))
    code, out, _ = _run(capsys, ["simulate", path, "--deterministic"])
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    row = payload["pairs"][0]
    assert row["n"] == 1
    for key in ("mean_se", "variance", "variance_se", "chaos_cov", "chaos_var"):
        assert row[key] is None, key
    assert math.isfinite(row["mean"])


def test_simulate_out_and_raw_files(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL_CFG)
    out_json = tmp_path / "summary.json"
    out_csv = tmp_path / "raw.csv"
    code, out, err = _run(capsys, [
        "simulate", path, "--out", str(out_json), "--raw", str(out_csv),
    ])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["plan"]["seed"] == 3
    assert "wall_seconds" in payload
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "replica_id,t,R,G"
    assert len(lines) == 1 + 60
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0 and float(first[2]) == 1.0
    # CSV G values round-trip the JSON-independent raw samples
    g = np.array([float(ln.split(",")[3]) for ln in lines[1:]])
    assert np.isfinite(g).all()
    # table went to stdout since the JSON went to a file
    assert "variance" in out


# ------------------------------------------------------------ rate


def test_rate_guards(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL_CFG)  # one radius only
    code, _, err = _run(capsys, ["rate", path])
    assert code == 2
    assert "3 radii" in err
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0")
    path = _write_cfg(tmp_path, text, "few.cfg")
    code, _, err = _run(capsys, ["rate", path])
    assert code == 2
    assert "100 replicas" in err
    # a bootstrap of no draws and a negative worker count are usage errors
    text = text.replace("replicas = 60", "replicas = 150")
    path = _write_cfg(tmp_path, text, "ok.cfg")
    for argv in (["--bootstrap", "0"], ["--bootstrap", "-3"], ["--threads", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(["rate", path, *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["simulate", path, "--threads", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("chaos", ["true", "false"])
def test_rate_at_the_replica_minimum(tmp_path, capsys, chaos):
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "replicas = 60", f"replicas = 100\nchaos = {chaos}"
    )
    path = _write_cfg(tmp_path, text)
    code, out, err = _run(capsys, ["rate", path, "--bootstrap", "5", "--threads", "1"])
    assert code == 0, err
    rows, _ = _rate_rows(out)
    assert rows.shape == (3, 3) and np.all(np.isfinite(rows))


@pytest.mark.parametrize("chaos", ["true", "false"])
def test_rate_refuses_a_degenerate_sigma(tmp_path, capsys, chaos):
    # sigma(1) = 0 keeps the field at 1: every average is 0, so there is no
    # KS distance and no slope to report
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "replicas = 60", f"replicas = 100\nchaos = {chaos}").replace(
        "kind = linear", "kind = constant\nvalue = 0")
    code, out, err = _run(capsys, ["rate", _write_cfg(tmp_path, text), "--bootstrap", "5",
                                   "--threads", "1"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "sigma(1)" in err


def test_simulate_refuses_a_seed_past_the_key_range(tmp_path, capsys):
    # a plan-level guard, as for a negative seed: one line, before any chunk
    path = _write_cfg(tmp_path, SMALL_CFG.replace("seed = 3", f"seed = {2**64}"))
    code, out, err = _run(capsys, ["simulate", path])
    assert (code, out) == (2, "")
    assert err == f"config error: seed must lie in [0, 2**64), got {2**64}\n"


def test_rate_csv_output(tmp_path, capsys):
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "replicas = 60", "replicas = 120"
    )
    path = _write_cfg(tmp_path, text)
    code, out, _ = _run(capsys, ["rate", path, "--bootstrap", "25"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,ks,se"
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 1 + 3
    footer = {ln.split(",")[0]: ln.split(",")[1] for ln in lines if ln.startswith("#")}
    slope = float(footer["# slope"])
    lo, hi = float(footer["# slope_ci_low"]), float(footer["# slope_ci_high"])
    assert lo <= slope <= hi
    assert footer["# bootstrap"] == "25"
    assert float(footer["# t"]) == 1.0


def _rate_rows(out):
    lines = out.strip().split("\n")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
    footer = {ln.split(",")[0]: ln.split(",")[1] for ln in lines if ln.startswith("#")}
    return np.array(rows), footer


def test_rate_chaos_on_uses_coupled_ladder(tmp_path, capsys):
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "replicas = 60", "replicas = 150\nchaos = true"
    )
    path = _write_cfg(tmp_path, text)
    code, out, _ = _run(capsys, ["rate", path, "--bootstrap", "20"])
    assert code == 0
    rows, footer = _rate_rows(out)
    assert footer["# estimator"] == "coupled_first_chaos"
    summary = run_experiment(parse_config(text).plan, threads=1)
    for ir, (r, ks, se) in enumerate(rows):
        g, i1 = summary.samples(0, ir), summary.chaos_samples(0, ir)
        assert r == summary.plan.radii[ir]
        assert ks == ks_coupled(g, i1)
        assert se == ks_coupled_se(g, i1)
    lo, hi = float(footer["# slope_ci_low"]), float(footer["# slope_ci_high"])
    assert lo <= float(footer["# slope"]) <= hi
    # the bootstrap is seeded from the plan: a rerun repeats it exactly
    code, again, _ = _run(capsys, ["rate", path, "--bootstrap", "20"])
    assert code == 0 and again == out


def test_rate_chaos_off_reads_plain_ks(tmp_path, capsys):
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "replicas = 60", "replicas = 150\nchaos = false"
    )
    path = _write_cfg(tmp_path, text)
    code, out, _ = _run(capsys, ["rate", path, "--bootstrap", "20"])
    assert code == 0
    rows, footer = _rate_rows(out)
    assert "# estimator" not in footer
    summary = run_experiment(parse_config(text).plan, threads=1)
    for ir, (_, ks, se) in enumerate(rows):
        assert ks == summary.stats[(0, ir)].ks
        assert se == summary.stats[(0, ir)].ks_se


def _bootstrap_row_gather(summary, i_time, n_boot, level):
    # the bootstrap as first written: gather whole rows of the (M, n_radii)
    # view per draw, then read each radius off the resample
    plan = summary.plan
    g = summary.g_samples[:, i_time, :]
    i1 = None if summary.i1_samples is None else summary.i1_samples[:, i_time, :]
    m = g.shape[0]
    logr = np.log(np.asarray(plan.radii))
    rng = np.random.Generator(np.random.Philox(key=np.array([plan.seed, 2**63], dtype=np.uint64)))
    slopes = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, m, size=m)
        resampled = g[idx]
        ref = None if i1 is None else i1[idx]
        ks = np.empty(len(plan.radii))
        for ir in range(len(plan.radii)):
            x = resampled[:, ir]
            # the summary's KS column divides by the pair's scale: its own SD,
            # or the oracle's under paper normalization
            scale = summary.stats[(i_time, ir)].scale if plan.normalization == "paper" else x.std(ddof=1)
            ks[ir] = ks_normality(x / scale) if ref is None else ks_coupled(x, ref[:, ir])
        slopes[b] = _ols_slope(logr, np.log(ks))
    lo, hi = np.quantile(slopes, [(1 - level) / 2, 1 - (1 - level) / 2])
    return float(lo), float(hi)


def test_bootstrap_column_gather_equals_row_gather():
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "times = 1.0", "times = 0.5, 1.0").replace("replicas = 60", "replicas = 400")
    chaos_on = run_experiment(parse_config(text).plan, threads=1)
    chaos_off = dataclasses.replace(chaos_on, i1_samples=None)
    paper = run_experiment(parse_config(text.replace(
        "seed = 3", "seed = 3\nchaos = false\nnormalization = paper")).plan, threads=1)
    # several levels, so that most of the bootstrap slopes reach a quantile
    for summary in (chaos_on, chaos_off, paper):
        for i_time in (0, 1):
            for level in (0.95, 0.6, 0.3, 0.05):
                tables = pool_map(_call, (summary,), _bootstrap_tasks(3, i_time, 30, 1), 1)
                assert _slope_ci(summary.plan.radii, tables, level) == \
                    _bootstrap_row_gather(summary, i_time, 30, level)


@pytest.mark.parametrize("chaos", ["false", "true"])
def test_rate_threads_do_not_change_a_byte(tmp_path, capsys, chaos):
    # 600 replicas: three chunks, so chunks, pair statistics and the
    # bootstrap all run on the pool at --threads 2 and 3
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0, 8.0").replace(
        "times = 1.0", "times = 0.5, 1.0").replace(
        "replicas = 60", f"replicas = 600\nchaos = {chaos}")
    path = _write_cfg(tmp_path, text)
    outs = []
    for threads in ("1", "2", "3"):
        csv = tmp_path / f"rate-{threads}.csv"
        code, _, err = _run(capsys, ["rate", path, "--bootstrap", "40", "--threads", threads,
                                     "--out", str(csv)])
        assert code == 0, err
        outs.append(csv.read_bytes())
    assert outs[1] == outs[0] and outs[2] == outs[0]


def _count_pools(monkeypatch) -> list:
    """The max_workers of every process pool started from here on."""
    import concurrent.futures

    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


@pytest.mark.parametrize("chaos", ["false", "true"])
def test_rate_starts_two_pools(tmp_path, capsys, monkeypatch, chaos):
    # one pool for the chunks, one for the statistics pass: the bootstrap
    # groups and the ladder (coupled, or with chaos off the pair table) share it
    started = _count_pools(monkeypatch)
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "replicas = 60", f"replicas = 600\nchaos = {chaos}")
    path = _write_cfg(tmp_path, text)
    code, out, err = _run(capsys, ["rate", path, "--bootstrap", "10", "--threads", "2"])
    assert code == 0, err
    assert started == [2, 2]
    code, serial, _ = _run(capsys, ["rate", path, "--bootstrap", "10", "--threads", "1"])
    assert code == 0 and serial == out and len(started) == 2


def test_bootstrap_split_over_workers_is_exact():
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "replicas = 60", "replicas = 300")
    chaos_on = run_experiment(parse_config(text).plan, threads=1)
    chaos_off = dataclasses.replace(chaos_on, i1_samples=None)
    for summary in (chaos_on, chaos_off):
        tables = pool_map(_call, (summary,), _bootstrap_tasks(3, 0, 30, 1), 1)
        want = _slope_ci(summary.plan.radii, tables, 0.6)
        for workers in (2, 3, 5):
            tables = pool_map(_call, (summary,), _bootstrap_tasks(3, 0, 30, workers), workers)
            assert _slope_ci(summary.plan.radii, tables, 0.6) == want


def test_rate_reaches_the_traced_seams(tmp_path, capsys, monkeypatch):
    # the benchmark trace wraps these module attributes; a rate run that
    # stops calling them through the module would leave its spans empty
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((estimators, "ks_normality"), (cli, "ks_normality"),
                         (cli, "run_experiment"), (noise, "_replica_rng")):
        counted(module, name)
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "times = 1.0", "times = 0.5, 1.0").replace("replicas = 60", "replicas = 150\nchaos = false")
    path = _write_cfg(tmp_path, text)
    code, _, _ = _run(capsys, ["rate", path, "--bootstrap", "5", "--threads", "1"])
    assert code == 0
    assert calls["fracwave.estimators.ks_normality"] == 3  # once per radius, at the last time
    assert calls["fracwave.cli.ks_normality"] == 5 * 3  # chaos-off bootstrap
    assert calls["fracwave.cli.run_experiment"] == 1
    assert calls["fracwave.noise._replica_rng"] == 150  # once per replica


@pytest.mark.parametrize("chaos", ["true", "false"])
def test_rate_computes_only_the_statistics_it_reads(tmp_path, capsys, monkeypatch, chaos):
    # chaos on, the coupled ladder is the KS column and no pair table runs;
    # chaos off, the pair table runs once per radius, at the last time only
    calls = {"pairs": [], "ks": 0}
    pair_stats, ks_plain = estimators._pair_stats, estimators.ks_normality

    def counted_pair_stats(summary, pair):
        calls["pairs"].append((summary.plan.times[pair[0]], pair))
        return pair_stats(summary, pair)

    def counted_ks(samples):
        calls["ks"] += 1
        return ks_plain(samples)
    monkeypatch.setattr(estimators, "_pair_stats", counted_pair_stats)
    monkeypatch.setattr(estimators, "ks_normality", counted_ks)
    text = SMALL_CFG.replace("radii = 1.0", "radii = 1.0, 2.0, 4.0").replace(
        "times = 1.0", "times = 0.5, 1.0").replace("replicas = 60", f"replicas = 150\nchaos = {chaos}")
    path = _write_cfg(tmp_path, text)
    code, _, err = _run(capsys, ["rate", path, "--bootstrap", "5", "--threads", "1"])
    assert code == 0, err
    if chaos == "true":
        assert calls == {"pairs": [], "ks": 0}
    else:
        assert calls == {"pairs": [(1.0, (0, ir)) for ir in range(3)], "ks": 3}


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_failure_names_plan_and_replicas(tmp_path, capsys, monkeypatch, threads):
    # an exception inside a chunk keeps its type and names the plan digest
    # and the chunk's replica ids, whether the chunk ran here or on the pool
    solve = estimators.solve
    failure = [ValueError("solver failed")]

    def failing(config, sheet, sigma, **kwargs):
        if 300 in np.atleast_1d(sheet.replica):
            raise failure[0]
        return solve(config, sheet, sigma, **kwargs)
    monkeypatch.setattr(estimators, "solve", failing)
    text = SMALL_CFG.replace("replicas = 60", "replicas = 600")
    plan = parse_config(text).plan
    where = f"[plan {estimators.plan_hash(plan)[:12]}, replicas 256..511]"
    code, _, err = _run(capsys, ["simulate", _write_cfg(tmp_path, text), "--threads", str(threads)])
    assert code == 1
    assert f"error: solver failed {where}" in err
    failure[0] = noise.EmbeddingError("negative spectral mass")
    with pytest.raises(noise.EmbeddingError) as exc:
        run_experiment(plan, threads=threads)
    assert str(exc.value) == f"negative spectral mass {where}"


# ------------------------------------------------------------ funcclt


def test_funcclt_needs_two_times(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL_CFG)
    code, _, err = _run(capsys, ["funcclt", path])
    assert code == 2
    assert "2 times" in err


def test_funcclt_needs_two_replicas(tmp_path, capsys):
    # one replica leaves every covariance entry and SE undefined
    text = SMALL_CFG.replace("times = 1.0", "times = 0.5, 1.0").replace(
        "replicas = 60", "replicas = 1"
    )
    path = _write_cfg(tmp_path, text)
    code, out, err = _run(capsys, ["funcclt", path])
    assert code == 2
    assert out == ""
    assert "2 replicas" in err
    summary = run_experiment(parse_config(text).plan, threads=1)
    with pytest.raises(ValueError, match="2 replicas"):
        functional_cov_check(summary)


def test_funcclt_json(tmp_path, capsys):
    text = SMALL_CFG.replace("times = 1.0", "times = 0.5, 1.0").replace(
        "replicas = 60", "replicas = 120"
    )
    path = _write_cfg(tmp_path, text)
    code, out, _ = _run(capsys, ["funcclt", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "fracwave.funcclt/1"
    assert payload["times"] == [0.5, 1.0]
    emp = np.asarray(payload["empirical"])
    assert emp.shape == (2, 2)
    assert np.asarray(payload["oracle"]).shape == (2, 2)
    assert payload["max_se_units"] < 20.0


def test_funcclt_runs_no_pair_statistics(tmp_path, capsys, monkeypatch):
    # the check reads the samples only: one pool, for the chunks, and no
    # statistics pass
    started = _count_pools(monkeypatch)
    text = SMALL_CFG.replace("times = 1.0", "times = 0.5, 1.0").replace(
        "radii = 1.0", "radii = 1.0, 2.0").replace("replicas = 60", "replicas = 600")
    path = _write_cfg(tmp_path, text)
    code, out, err = _run(capsys, ["funcclt", path, "--threads", "2"])
    assert code == 0, err
    assert started == [2]
    pair_calls = []
    monkeypatch.setattr(estimators, "_pair_stats", lambda *args: pair_calls.append(args))
    code, serial, _ = _run(capsys, ["funcclt", path, "--threads", "1"])
    assert code == 0 and serial == out and started == [2]
    assert pair_calls == []


# ------------------------------------------------------------ noise-dump


def test_noise_dump_round_trip(tmp_path, capsys):
    out = tmp_path / "sheet.fwns"
    code, msg, _ = _run(capsys, [
        "noise-dump", "--hurst", "0.75", "--dt", "0.125", "--dx", "0.125",
        "--n-time", "8", "--n-space", "16", "--seed", "11", "--replica", "2",
        "--out", str(out),
    ])
    assert code == 0
    assert "wrote 8x16 sheet" in msg
    sheet = read_sheet(str(out))
    assert sheet.masses.shape == (8, 16)
    assert sheet.spec.hurst == 0.75
    spec = NoiseSpec(hurst=0.75, dt=0.125, dx=0.125, n_time=8, n_space=16, seed=11)
    fresh = sample_sheet(spec, replica=2)
    assert sheet.masses.tobytes() == fresh.masses.tobytes()
    assert sheet.ref == fresh.ref == f"{STREAM}:11:2"


@pytest.mark.parametrize("flag,text", [("--dt", "nan"), ("--dx", "inf"), ("--dt", "-inf")])
def test_noise_dump_rejects_non_finite_steps(tmp_path, capsys, flag, text):
    steps = {"--dt": "0.5", "--dx": "0.5", flag: text}
    code, _, err = _run(capsys, ["noise-dump", "--hurst", "0.75", *(f"{k}={v}" for k, v in steps.items()),
                                 "--n-time", "2", "--n-space", "2", "--out", str(tmp_path / "x.bin")])
    assert code == 2
    assert "finite" in err
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("flag,value,named", [
    ("--replica", "-1", "replica id must lie in [0, 2**64)"),
    ("--replica", str(2**63), "below 2**63"),
    ("--seed", "-1", "seed must lie in [0, 2**64)"),
    ("--seed", str(2**64), "seed must lie in [0, 2**64)"),
])
def test_noise_dump_refuses_keys_out_of_range(tmp_path, capsys, flag, value, named):
    code, out, err = _run(capsys, ["noise-dump", "--hurst", "0.75", "--dt", "0.5", "--dx", "0.5",
                                   "--n-time", "2", "--n-space", "2", f"{flag}={value}",
                                   "--out", str(tmp_path / "x.bin")])
    assert (code, out) == (2, "")
    assert err.startswith("noise-dump: ") and named in err and len(err.splitlines()) == 1
    assert not (tmp_path / "x.bin").exists()


def test_noise_dump_bad_hurst(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "noise-dump", "--hurst", "0.3", "--dt", "0.5", "--dx", "0.5",
        "--n-time", "2", "--n-space", "2", "--out", str(tmp_path / "x.bin"),
    ])
    assert code == 2
    assert "noise-dump" in err
