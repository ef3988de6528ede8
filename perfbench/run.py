"""Benchmark of the fracwave command: end-to-end runs and a per-layer trace.

Run from the root of a checkout (fracwave is imported from ./src):

    python3 perfbench/run.py --workload white_chaos --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload rate_small --seed 1 --trace 1
    python3 perfbench/run.py --all --seed 1      # every workload, both modes
    python3 perfbench/run.py --smoke             # self-check of the harness

--trace 0: one closed-loop client starts the real `fracwave` command in a
fresh interpreter (perfbench/launch.py calls fracwave.cli.main as the console
script does), waits for it, verifies its output and starts the next, until
--seconds is used up.  Before the loop, the set-up alone (interpreter start,
import, config parse) is timed a few times.  Reported: median wall time,
replicas per second inside main, set-up time and peak RSS.

--trace 1: the same command, in this process with one thread, once untraced
and once with spans around the calls into each layer (see tracing.py); a
pooled workload also gets a traced pooled run.  Reported: self time per
layer, per-call and per-replica costs, exact counts, tracing overhead, and a
per-replica stage split for the tier-1 ensemble shapes A-F.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units are those of BENCHMARK.json.
Everything else a run measures (samples, host facts, spans) is written to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 2  # timed set-up-only starts per run, after one untimed warm-up
INVOCATION_TIMEOUT = 150.0
STAGE_REPLICAS = 256  # one production chunk per tier-1 shape
# Pooled runs keep busy threads at nproc: one BLAS thread per pool worker.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The command's environment as the user has it; this process pins its own BLAS
# before numpy loads, because its in-process runs are one thread or pooled.
USER_ENV = dict(os.environ)
SMOKE_SEED = 1
# counts that must repeat bit for bit between runs of the same plan
COUNT_METRICS = (
    "noise.sample_calls", "noise.normals_per_sheet", "noise.embed_len", "solver.node_updates",
    "estimators.chaos_weights_calls", "estimators.chaos_matvec_flops", "estimators.ks_calls",
    "estimators.ks_samples", "estimators.plan_bytes_shipped",
    "estimators.result_bytes_per_replica",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def loadavg() -> str:
    with open("/proc/loadavg", "r", encoding="ascii") as fh:
        return fh.read().strip()


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_rev": rev,
        "blas_env_pooled_command": BLAS_PIN,
        "blas_env_serial_command": {k: USER_ENV.get(k) for k in BLAS_PIN},
        "blas_env_in_process": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def median(xs) -> float:
    return float(statistics.median(xs))


def spread(xs) -> dict:
    """Median, sample count, and the highest of p99 / p90 that has at least
    ten samples beyond it (none below 100 samples)."""
    out = {"median": median(xs) if len(xs) else float("nan"), "n": len(xs),
           "tail_pct": None, "tail": float("nan")}
    for pct in (99, 90):
        if len(xs) * (100 - pct) / 100 >= 10:
            out["tail_pct"] = pct
            out["tail"] = float(sorted(xs)[min(len(xs) - 1, int(len(xs) * pct / 100))])
            break
    return out


# ---------------------------------------------------------------- end to end


def launch(mode: str, argv: list, env: dict, work: Path, k: int) -> dict:
    stamps, out, err = work / f"stamps-{k}.json", work / f"out-{k}.txt", work / f"err-{k}.txt"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), str(stamps), mode, *argv],
                                stdout=fo, stderr=fe, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=INVOCATION_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
        t1 = time.monotonic()
    rec = {"code": code, "wall_s": t1 - t0, "stdout": out.read_text(encoding="utf-8"),
           "stderr_tail": err.read_text(encoding="utf-8")[-2000:]}
    if code == 0:
        st = json.loads(stamps.read_text(encoding="utf-8"))
        rec.update(setup_s=st["setup"] - t0, run_s=st["end"] - st["setup"],
                   rss_mb=max(st["rss_self_kb"], st["rss_children_kb"]) / 1024.0,
                   rss_self_mb=st["rss_self_kb"] / 1024.0,
                   rss_workers_mb=st["rss_children_kb"] / 1024.0)
    for path in (stamps, out, err):
        path.unlink(missing_ok=True)
    return rec


def run_e2e(w, seed: int, seconds: float, fw, work: Path, replicas=None) -> dict:
    from workloads import verify

    text = w.config_text(seed, replicas)
    plan = fw.cli.parse_config(text).plan
    cfg = work / "plan.cfg"
    cfg.write_text(text, encoding="utf-8")
    env = dict(USER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = nproc() if w.pooled else 1
    if w.pooled:
        env.update(BLAS_PIN)
    argv = w.argv(str(cfg), threads)

    launch("setup", argv, env, work, 0)  # warm the file cache and bytecode
    setups = []
    for k in range(SETUP_PROBES):
        rec = launch("setup", argv, env, work, k)
        if rec["code"] != 0:
            raise RuntimeError(f"set-up probe failed: {rec['stderr_tail']}")
        setups.append(rec["setup_s"])

    runs, first_out = [], None
    start = time.monotonic()
    while True:
        rec = launch("run", argv, env, work, len(runs))
        if rec["code"] != 0:
            rec["failures"] = [f"exit code {rec['code']}: {rec['stderr_tail']}"]
        else:
            rec["failures"] = verify(w, plan, rec["stdout"], fw)
            if first_out is None:
                first_out = rec["stdout"]
            elif rec["stdout"] != first_out:
                rec["failures"].append("structure: output differs from the first run of this seed")
        runs.append(rec)
        elapsed = time.monotonic() - start
        if elapsed + median([r["wall_s"] for r in runs]) > seconds:
            break

    ok = [r for r in runs if not r["failures"]]
    timed = ok or [{"wall_s": float("nan"), "setup_s": float("nan"), "run_s": float("nan"),
                    "rss_mb": float("nan")}]
    samples = {
        "wall_s": [r["wall_s"] for r in timed],
        "replicas_per_s": [plan.replicas / r["run_s"] for r in timed],
        "setup_s": setups + [r["setup_s"] for r in ok],
        "peak_rss_mb": [r["rss_mb"] for r in timed],
    }
    return {
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "metrics": {k: median(v) for k, v in samples.items()},
        "detail": {
            "threads": threads,
            "replicas": plan.replicas,
            "command": ["fracwave", *argv],
            "samples": samples,
            "timings": {k: spread(v) for k, v in samples.items()},
            "failed_frac": (len(runs) - len(ok)) / len(runs),
            "failures": [f for r in runs for f in r["failures"]],
            "rss_self_mb": [r.get("rss_self_mb") for r in runs],
            "rss_workers_mb": [r.get("rss_workers_mb") for r in runs],
            "first_output": first_out,
        },
    }


# ---------------------------------------------------------------- traced


def run_traced(w, seed: int, fw, work: Path, replicas=None, stage_replicas=STAGE_REPLICAS) -> dict:
    from tracing import Tracer, run_cli, stage_split
    from workloads import verify

    text = w.config_text(seed, replicas)
    plan = fw.cli.parse_config(text).plan
    cfg = work / "plan.cfg"
    cfg.write_text(text, encoding="utf-8")
    workers = nproc() if w.pooled else 1

    outputs, failures = {}, []
    fw.estimators.run_replica_chunk(plan, [0])  # first-call costs stay out of both runs
    run_s_plain, outputs["untraced"], code = run_cli(fw, w.argv(str(cfg), 1))
    tr = Tracer()
    run_s, outputs["traced"], code_t = run_cli(fw, w.argv(str(cfg), 1), tr)
    pooled = tr
    run_s_pooled = run_s
    if workers > 1:
        pooled = Tracer()
        run_s_pooled, outputs["traced_pooled"], code_p = run_cli(fw, w.argv(str(cfg), workers), pooled)
    failed = 0
    for label, out in outputs.items():
        bad = verify(w, plan, out, fw)
        if out != outputs["untraced"]:
            bad.append("structure: output differs from the untraced run")
        failures += [f"{label}: {b}" for b in bad]
        failed += bool(bad)

    m = plan.replicas
    layer_self = tr.self_by(lambda s: s[1])
    span_self = tr.self_by(lambda s: s[0])
    pooled_self = pooled.self_by(lambda s: s[1])
    chunk_calls = tr.calls("estimators.run_replica_chunk")

    required = ["cli.main", "estimators.run_experiment", "estimators.run_replica_chunk",
                "noise.sample_sheet", "solver.solve", "estimators.summarize"]
    if plan.chaos:
        required.append("estimators.first_chaos_weights")
    if m >= 100:
        required.append("estimators.ks_normality")
    if chunk_calls > 1:
        required.append("estimators.merge_chunks")
    missing = [name for name in required if tr.calls(name) == 0]
    counts = dict(tr.counts)
    for key in ("normals", "node_updates", "result_bytes"):
        if key not in counts:
            missing.append(f"count:{key}")
    if plan.hurst > 0.5 and "embed_len" not in counts:
        missing.append("count:embed_len")
    if workers > 1 and "plan_bytes" not in pooled.counts:
        missing.append("count:plan_bytes")

    def total(name, tracer=tr):
        return float(tracer.durations(name).sum())

    sample = 1e3 * tr.durations("noise.sample_sheet")
    solve = 1e3 * tr.durations("solver.solve")
    timings = {"noise.sample_ms_p50": spread(sample), "solver.solve_ms_p50": spread(solve)}
    node_updates = counts.get("node_updates", 0)
    summarize_p = total("estimators.summarize", pooled)
    cli_self_p = pooled_self.get("cli", 0.0)
    pool_overhead = (run_s_pooled - total("estimators.run_replica_chunk") / workers
                     - summarize_p - cli_self_p)
    metrics = {f"{layer}.self_s": layer_self.get(layer, 0.0)
               for layer in ("noise", "solver", "estimators", "analytic", "cli")}
    metrics.update({
        "unattributed_s": run_s - sum(layer_self.values()),
        "trace.run_s": run_s,
        "trace.overhead": run_s / run_s_plain - 1.0,
        "noise.sample_ms_p50": timings["noise.sample_ms_p50"]["median"],
        "noise.sample_ms_tail": timings["noise.sample_ms_p50"]["tail"],
        "noise.sample_calls": int(sample.size),
        "noise.normals_per_sheet": counts.get("normals", 0) // max(1, sample.size),
        "noise.embed_len": counts.get("embed_len", 0),
        "noise.replica_share": layer_self.get("noise", 0.0) / total("estimators.run_replica_chunk"),
        "solver.solve_ms_p50": timings["solver.solve_ms_p50"]["median"],
        "solver.solve_ms_tail": timings["solver.solve_ms_p50"]["tail"],
        "solver.node_updates": node_updates,
        "solver.ns_per_node_update": 1e6 * solve.sum() / max(1, node_updates * solve.size),
        "estimators.reduce_ms": 1e3 * span_self.get("estimators.run_replica_chunk", 0.0) / m,
        "estimators.chaos_weights_ms": 1e3 * total("estimators.first_chaos_weights"),
        "estimators.chaos_weights_calls": tr.calls("estimators.first_chaos_weights"),
        "estimators.chaos_matvec_flops": counts.get("matvec_flops", 0) // max(1, chunk_calls),
        "estimators.summarize_s": total("estimators.summarize"),
        "estimators.ks_calls": counts.get("ks_calls", 0),
        "estimators.ks_samples": counts.get("ks_samples", 0),
        "estimators.merge_s": total("estimators.merge_chunks"),
        "estimators.pool_overhead_s": pool_overhead,
        "estimators.plan_bytes_shipped": pooled.counts.get("plan_bytes", 0),
        "estimators.result_bytes_per_replica": counts.get("result_bytes", 0) / m,
        "estimators.fixed_cost_share": (summarize_p + cli_self_p + pool_overhead) / run_s_pooled,
    })
    stages = stage_split(fw, seed, stage_replicas)
    for label, row in stages.items():
        for key, value in row.items():
            metrics[f"stage.{label}.{key}"] = value
    if missing:
        failures.append("missing spans or counts (wrapped call never seen): " + ", ".join(missing))
    return {
        "attempted": len(outputs),
        "failed": failed,
        "metrics": metrics,
        "missing": missing,
        "detail": {
            "replicas": m,
            "workers_pooled_run": workers,
            "exit_codes": [code, code_t] + ([code_p] if workers > 1 else []),
            "untraced_run_s": run_s_plain,
            "pooled_run_s": run_s_pooled,
            "timings": timings,
            "failures": failures,
            "spans": {"serial": tr.spans, "pooled_main": pooled.spans if workers > 1 else []},
        },
    }


# ---------------------------------------------------------------- reporting


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def result_line(res: dict, declared: dict) -> dict:
    metrics = {name: {"value": _json_number(res["metrics"][name]), "unit": unit}
               for name, unit in declared.items() if name in res["metrics"]}
    return {
        "correct": res["failed"] == 0 and not res.get("missing"),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def _json_number(x):
    return x if isinstance(x, int) or (isinstance(x, float) and x == x and abs(x) != float("inf")) else None


def print_table(title: str, line: dict, detail: dict) -> None:
    print(f"== {title}")
    for name, m in line["metrics"].items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        extra = ""
        timing = detail.get("timings", {}).get(name)
        if timing:
            extra = f"  (median of n={timing['n']}"
            extra += f", p{timing['tail_pct']} {timing['tail']:.6g})" if timing["tail_pct"] else ")"
        print(f"  {name:40s} {text:>14s} {m['unit']}{extra}")
    print(f"  attempted {line['attempted']}  failed {line['failed']}  "
          f"failed_frac {line['failed'] / line['attempted']:.4g}  correct {line['correct']}")
    for f in detail.get("failures", [])[:10]:
        print(f"  FAILURE {f}")


def write_result(name: str, payload: dict) -> None:
    path = OUT / "results" / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, default=str), encoding="utf-8")


def import_fracwave():
    sys.path.insert(0, str(SRC))
    import fracwave.analytic
    import fracwave.cli
    import fracwave.estimators
    import fracwave.noise
    import fracwave.solver

    return fracwave


@contextlib.contextmanager
def workdir(label: str):
    work = OUT / "work" / f"{label}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def one(workload: str, seed: int, seconds: float, trace: bool, fw, facts: dict) -> dict:
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    e2e, layer = declared_metrics()
    before = loadavg()
    with workdir(workload) as work:
        res = run_traced(w, seed, fw, work) if trace else run_e2e(w, seed, seconds, fw, work)
    line = result_line(res, layer if trace else e2e)
    detail = dict(res["detail"], host=facts, loadavg_before=before, loadavg_after=loadavg())
    if trace:
        detail["missing"] = res["missing"]
    write_result(f"{workload}-seed{seed}-trace{int(trace)}", {"result": line, "detail": detail})
    print_table(f"{workload} seed={seed} trace={int(trace)}", line, detail)
    return line


def smoke(fw) -> int:
    """Tiny-M pass over every workload: names, units, exact counts, and that
    verification rejects deliberately corrupted outputs."""
    from workloads import WORKLOADS, corruptions, verify

    e2e_decl, layer_decl = declared_metrics()
    problems = []
    for w in WORKLOADS.values():
        with workdir(f"smoke-{w.name}") as work:
            res = run_e2e(w, SMOKE_SEED, 0.0, fw, work, replicas=w.smoke_replicas)
            traced = [run_traced(w, SMOKE_SEED, fw, work, w.smoke_replicas, stage_replicas=2)
                      for _ in range(2)]
        for decl, got in [(e2e_decl, res)] + [(layer_decl, t) for t in traced]:
            line = result_line(got, decl)
            absent = sorted(set(decl) - set(line["metrics"]))
            undeclared = sorted(set(got["metrics"]) - set(decl))
            if absent:
                problems.append(f"{w.name}: metrics not reported: {absent}")
            if undeclared:
                problems.append(f"{w.name}: metrics missing from BENCHMARK.json: {undeclared}")
        failures = res["detail"]["failures"] + [f for t in traced for f in t["detail"]["failures"]]
        # statistical checks are calibrated for the workload's own M, not for smoke sizes
        problems += [f"{w.name}: {f}" for f in failures if "statistic:" not in f]
        for name in COUNT_METRICS:
            a, b = (t["metrics"][name] for t in traced)
            if a != b:  # NaN never equals itself, so a missing count fails too
                problems.append(f"{w.name}: count {name} did not repeat: {a!r} vs {b!r}")
        clean = res["detail"]["first_output"]
        plan = fw.cli.parse_config(w.config_text(SMOKE_SEED, w.smoke_replicas)).plan
        base = set(verify(w, plan, clean, fw))
        for label, text in corruptions(w, clean).items():
            if not set(verify(w, plan, text, fw)) - base:
                problems.append(f"{w.name}: verification accepted corrupted output {label!r}")
        print(f"smoke {w.name}: e2e {res['metrics']}")
    for prob in problems:
        print(f"SMOKE PROBLEM {prob}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def report_all(fw, facts: dict, seed: int, seconds: float) -> int:
    """Every workload untraced and traced, then the check of each workload's reason."""
    from workloads import WORKLOADS

    lines = {}
    for name in WORKLOADS:
        lines[name, 0] = one(name, seed, seconds, False, fw, facts)
        lines[name, 1] = one(name, seed, seconds, True, fw, facts)

    def value(name, metric):
        return lines[name, 1]["metrics"][metric]["value"]

    share = {name: value(name, "estimators.fixed_cost_share") for name in WORKLOADS}
    claims = [
        ("noise is the majority of replica time on frac_sheet",
         value("frac_sheet", "noise.replica_share") > 0.5),
        ("white_chaos bypasses the FFT sampler and spends a smaller share in noise",
         value("white_chaos", "noise.embed_len") == 0
         and value("white_chaos", "noise.replica_share") < value("frac_sheet", "noise.replica_share")),
        ("summarize + cli self + pool overhead take the largest share of run time on rate_small",
         share["rate_small"] > max(share["white_chaos"], share["frac_sheet"])),
    ]
    print("== workload reasons")
    for text, holds in claims:
        print(f"  {'confirmed' if holds else 'CONTRADICTED'}: {text}")
    for name in WORKLOADS:
        print(f"  {name}: trace overhead {value(name, 'trace.overhead'):.4f}, "
              f"fixed-cost share {share[name]:.4f}, "
              f"noise share of replica time {value(name, 'noise.replica_share'):.4f}")
    return 0 if all(line["correct"] for line in lines.values()) else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--smoke", action="store_true", help="self-check of the harness at tiny M")
    args = p.parse_args(argv)
    # turn a stop request into an exception, so that running commands are killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fracwave" / "cli.py").is_file():
        print(f"perfbench: no fracwave sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.workload or args.all or args.smoke):
        p.error("give --workload, --all or --smoke")
    os.environ.update(BLAS_PIN)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    fw = import_fracwave()
    facts = host_facts()
    if args.smoke:
        return smoke(fw)
    if args.all:
        return report_all(fw, facts, args.seed, args.seconds)
    line = one(args.workload, args.seed, args.seconds, bool(args.trace), fw, facts)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
