"""In-process traced runs: spans around the calls into each fracwave layer.

The tracer replaces module attributes at the call sites the program uses
(estimators.sample_sheet, estimators.solve, cli.run_experiment, every public
function of fracwave.analytic, ...) with wrappers that record a span: name,
layer, start, end and parent.  Spans are kept in memory and written out when
the run ends.  A layer's self time is its spans' durations minus the parts
covered by child spans.  Nothing in fracwave itself is changed.

Two private seams of the sampler are wrapped for exact counts only, since no
public object exposes them: noise._replica_rng (every normal drawn) and
noise._embedding_spectrum (the circulant embedding length).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import functools
import inspect
import io
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("noise", "solver", "estimators", "analytic", "cli")


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # [name, layer, start, end, parent]
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, layer: str, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] for s in self.spans if s[0] == name])

    def self_times(self) -> np.ndarray:
        own = np.array([s[3] - s[2] for s in self.spans])
        for s, d in zip(self.spans, own.copy()):
            if s[4] >= 0:
                own[s[4]] -= d
        return own

    def self_by(self, key) -> dict:
        out: dict = {}
        for s, t in zip(self.spans, self.self_times()):
            out[key(s)] = out.get(key(s), 0.0) + float(t)
        return out


@contextlib.contextmanager
def patched(fw, tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    noise, est, cli, analytic = fw.noise, fw.estimators, fw.cli, fw.analytic
    saved = []

    def put(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def count_ks(args, kwargs):
        tracer.add("ks_calls", 1)
        tracer.add("ks_samples", int(np.size(args[0])))

    def first_solve(fld):
        if "node_updates" not in tracer.counts:
            tracer.counts["node_updates"] = int(np.isfinite(fld.values[1:]).sum())

    def chunk_bytes(res):
        tracer.add("result_bytes", sum(
            getattr(res, f.name).nbytes for f in dataclasses.fields(res)
            if isinstance(getattr(res, f.name), np.ndarray)
        ))

    def count_embed(args, kwargs):
        tracer.counts["embed_len"] = int(args[1])

    class CountingGenerator(np.random.Generator):
        def standard_normal(self, size=None, *args, **kwargs):
            tracer.add("normals", 1 if size is None else int(np.prod(size)))
            return super().standard_normal(size, *args, **kwargs)

    replica_rng = noise._replica_rng

    def counting_rng(seed, replica):
        return CountingGenerator(replica_rng(seed, replica).bit_generator)

    def plan_bytes(args):
        found = [a for a in _walk(args) if isinstance(a, est.ExperimentPlan)]
        tracer.add("plan_bytes", sum(len(pickle.dumps(p)) for p in found))

    pool = concurrent.futures.ProcessPoolExecutor
    submit, init = pool.submit, pool.__init__

    def counting_submit(self, fn, /, *args, **kwargs):
        plan_bytes(args)
        return submit(self, fn, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        plan_bytes(kwargs.get("initargs", args[3] if len(args) > 3 else ()))
        init(self, *args, **kwargs)

    try:
        put(est, "sample_sheet", tracer.wrap("noise.sample_sheet", "noise", est.sample_sheet))
        put(est, "solve", tracer.wrap("solver.solve", "solver", est.solve, on_return=first_solve))
        put(est, "first_chaos_weights", tracer.wrap(
            "estimators.first_chaos_weights", "estimators", est.first_chaos_weights,
            on_return=lambda w: tracer.add("matvec_flops", 2 * int(np.size(w)))))
        put(est, "run_replica_chunk", tracer.wrap(
            "estimators.run_replica_chunk", "estimators", est.run_replica_chunk,
            on_return=chunk_bytes))
        put(est, "merge_chunks", tracer.wrap("estimators.merge_chunks", "estimators", est.merge_chunks))
        put(est, "summarize", tracer.wrap("estimators.summarize", "estimators", est.summarize))
        put(est, "ks_normality", tracer.wrap(
            "estimators.ks_normality", "estimators", est.ks_normality, on_call=count_ks))
        put(cli, "run_experiment", tracer.wrap(
            "estimators.run_experiment", "estimators", cli.run_experiment))
        # the CLI's own bootstrap: counted with the KS calls, timed as CLI work
        put(cli, "ks_normality", tracer.wrap(
            "cli.ks_normality", "cli", cli.ks_normality, on_call=count_ks))
        for name, fn in inspect.getmembers(analytic, inspect.isfunction):
            if fn.__module__ == analytic.__name__ and not name.startswith("_"):
                put(analytic, name, tracer.wrap(f"analytic.{name}", "analytic", fn))
        put(noise, "_replica_rng", counting_rng)
        put(noise, "_embedding_spectrum", tracer.wrap(
            "noise._embedding_spectrum", "noise", noise._embedding_spectrum, on_call=count_embed))
        put(pool, "submit", counting_submit)
        put(pool, "__init__", counting_init)
        yield tracer
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _walk(obj, depth=0):
    yield obj
    if depth < 4 and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _walk(item, depth + 1)


def run_cli(fw, argv, tracer: Tracer | None = None):
    """Call fracwave.cli.main in this process; return (run_s, stdout, code)."""
    out, err = io.StringIO(), io.StringIO()
    ctx = patched(fw, tracer) if tracer is not None else contextlib.nullcontext()
    with ctx, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main = fw.cli.main if tracer is None else tracer.wrap("cli.main", "cli", fw.cli.main)
        start = time.perf_counter()
        code = main(argv)
        run_s = time.perf_counter() - start
    return run_s, out.getvalue(), code


def stage_split(fw, seed: int, replicas: int) -> dict:
    """Per-replica sample / solve / reduce ms for tier-1 shapes A-F."""
    from workloads import STAGE_SHAPES

    out = {}
    for label, (hurst, sig, h, times, radii, chaos) in STAGE_SHAPES.items():
        sigma = getattr(fw.solver.SigmaSpec, sig[0])(*sig[1:])
        plan = fw.estimators.ExperimentPlan(
            hurst=hurst, sigma=sigma, h=h, times=times, radii=radii,
            replicas=replicas, seed=seed, chaos=chaos,
        )
        tracer = Tracer()
        with patched(fw, tracer):
            fw.estimators.run_replica_chunk(plan, range(replicas))
        own = tracer.self_by(lambda s: s[0])
        out[label] = {
            "sample_ms": 1e3 * tracer.durations("noise.sample_sheet").sum() / replicas,
            "solve_ms": 1e3 * tracer.durations("solver.solve").sum() / replicas,
            "reduce_ms": 1e3 * own["estimators.run_replica_chunk"] / replicas,
        }
    return out
