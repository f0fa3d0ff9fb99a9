"""Set-up, timed passes, checks and metrics of one benchmark run.

A run first sets up ``SETUP_REPS`` times, each in a fresh interpreter, so
that set-up time covers imports as a user pays them. It then sets up once
in-process and repeats passes of ``run_generation`` followed by
``run_evaluation`` until its time is up, and reports medians over set-ups
and over passes. A traced run makes its passes in untraced/traced pairs: the
traced ones give the per-layer numbers, and the difference of the two
medians is the tracing overhead.

Pass times are host-adjusted. Virtual machines can switch between speed
states that differ by 1.6x and last from seconds to minutes, longer than a
run, so a plain wall time depends on the state a run happened to meet.
Right before and right after every timed call the run times ``host_probe``,
a fixed pure-Python loop, and reports the call's wall time scaled by
``HOST_REF_S`` over the mean of the two readings: the time the call would
take on a host on which the probe takes ``HOST_REF_S``. The slow state
slows numpy array arithmetic less than interpreted Python, so a call whose
time is mostly array arithmetic is scaled by a power of that ratio below 1
(``Workload.adjusted``). The plain wall times are printed with the run's
details. Set-up time is plain wall time: it runs in a child process, which
the scheduler may put on another CPU than the probe's.

Each timed call is one attempted operation. It fails if it raises, if an
output check fails, or if its output digest differs from the first untraced
pass of the run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import vgsynth
from vgsynth import (load_series, make_desk_corpus, run_evaluation,
                     run_generation, write_corpus_csv)

import checks
from tracing import HOOKS, Tracer

SETUP_REPS = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
# host_probe() seconds that one host-adjusted second is measured against:
# about its reading on the measuring host in the faster state (see README)
HOST_REF_S = 0.025
GRAPH_METHODS = ("nvg", "hvg")


@dataclass
class Pass:
    traced: bool
    generate_s: float = 0.0
    evaluate_s: float = 0.0
    digest: dict[str, str] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)  # op -> problems
    layers: dict[str, float] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)
    invalid_units: int = 0
    probes: list[float] = field(default_factory=list)  # before, between, after

    def adjusted(self, phase: str, workload) -> float:
        """Host-adjusted seconds of ``phase``; 0 if it did not run."""
        i = 0 if phase == "generate" else 1
        if len(self.probes) < i + 2:
            return 0.0
        before, after = self.probes[i:i + 2]
        ratio = HOST_REF_S / ((before + after) / 2)
        return getattr(self, f"{phase}_s") * ratio ** workload.adjusted[phase]


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop that no change to vgsynth can
    move: a reading of the host's speed at the time of the call."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 97] = counts.get(i % 89, 0) + i * 3 % 11
    return time.perf_counter() - start


def _timed(call, name, fn, *args, **kwargs):
    """Return (result or None, seconds, problems, exception or None) for one
    timed call."""
    start = time.perf_counter()
    try:
        result = call(name, fn, *args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - start, [f"raised {exc!r}"], exc
    return result, time.perf_counter() - start, [], None


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _run_pass(workload, series, config, reference, work_dir, tracer=None) -> Pass:
    p = Pass(traced=tracer is not None)
    call = tracer.span if tracer else _untraced
    p.probes.append(host_probe())
    if tracer:
        tracer.install()
    try:
        generated, p.generate_s, gen_problems, error = _timed(
            call, "pipeline.generate", run_generation, config, series)
        p.probes.append(host_probe())
        if tracer:
            gen_self, gen_counters = tracer.total_self_s, tracer.counters_s
        if generated is None:
            # time_unit attaches the invalid record of the unit that raised
            p.invalid_units = int(getattr(error, "partial_record", None) is not None)
            p.failures = {"generate": gen_problems, "evaluate": ["skipped"]}
            return p
        sequences, records = generated
        p.invalid_units = sum(not r.valid for r in records)
        evaluated, p.evaluate_s, eval_problems, _ = _timed(
            call, "pipeline.evaluate", run_evaluation, config, sequences, series,
            records, with_embedding=workload.with_embedding)
        p.probes.append(host_probe())
    finally:
        if tracer:
            tracer.uninstall()
    gen_problems += reference.check_generation(sequences)
    if evaluated is not None:
        report, _ = evaluated
        eval_problems += reference.check_evaluation(report, workload.with_embedding)
        p.digest = checks.digests(sequences, report, work_dir)
    p.failures = {"generate": gen_problems, "evaluate": eval_problems}
    if tracer:
        p.absent = tracer.absent
        p.layers = _layer_metrics(tracer, records, workload, len(reference.windows))
        p.layers["trace.generate.coverage"] = _coverage(
            tracer.self_s, "pipeline.generate", gen_self, p.generate_s - gen_counters)
        p.layers["trace.evaluate.coverage"] = _coverage(
            tracer.self_s, "pipeline.evaluate", tracer.total_self_s - gen_self,
            p.evaluate_s - (tracer.counters_s - gen_counters))
    return p


def _coverage(self_s, root, phase_self_s, phase_s) -> float:
    """Share of a traced call's wall time, less the tracer's counter time,
    that lies in hooked layers: the root span's own time is left out."""
    return (phase_self_s - self_s.get(root, 0.0)) / phase_s


def _layer_metrics(tracer, records, workload, n_windows) -> dict:
    m: dict[str, float] = {}
    for name in list(HOOKS) + ["pipeline.generate", "pipeline.evaluate"]:
        m[f"{name}.calls"] = tracer.calls.get(name, 0)
        m[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    counts = tracer.counts
    for name in ("graphs.edges", "generate.walk.steps", "ingest.windows",
                 "evaluate.fit.iters", "embedding.points", "embedding.iterations"):
        m[name] = counts.get(name, 0)
    graph_windows = n_windows * sum(meth in GRAPH_METHODS for meth in workload.methods)
    builds = sum(m[f"graphs.{meth}.calls"] for meth in GRAPH_METHODS)
    m["graphs.builds_per_window"] = builds / graph_windows if graph_windows else 0.0
    candidates = counts.get("generate.downsample.candidates", 0)
    m["generate.downsample.kept_ratio"] = (
        counts.get("generate.downsample.kept", 0) / candidates if candidates else 0.0)
    embeddings = m["embedding.descent.calls"]
    m["embedding.final_kl"] = (
        counts.get("embedding.final_kl_sum", 0.0) / embeddings if embeddings else 0.0)
    for method in ("nvg", "hvg", "nvmg", "vrp"):
        m[f"runtime.{method}_ms"] = sum(r.elapsed_ms for r in records if r.method == method)
    m["runtime.units"] = len(records)
    m["trace.counters_s"] = tracer.counters_s
    return m


def set_up(workload, seed: int, csv_path: Path):
    """Corpus synthesis, CSV write and load; returns (series, load_series seconds)."""
    write_corpus_csv(make_desk_corpus(workload.n_tickers, workload.n_days, seed=seed), csv_path)
    start = time.perf_counter()
    series = load_series(csv_path)
    return series, time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "vgsynth": vgsynth.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def _median_metrics(dicts: list[dict]) -> dict:
    """Per-key median; the lower middle one for an even count, so every
    value is one that a pass measured."""
    if not dicts:
        return {}
    return {key: statistics.median_low(d[key] for d in dicts) for key in dicts[0]}


def _probe_setup(workload, seed: int, csv_path: Path, root: Path) -> tuple[float, float]:
    """Set up in a fresh interpreter; returns (spawn to ready, load_series) seconds."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe", str(csv_path)]
    spawned = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["ready"] - spawned, probe["load_s"]


def _run_passes(workload, series, config, reference, work_dir, seconds, trace) -> list[Pass]:
    """Passes until the next one would end after ``seconds``, and at least
    MIN_PASSES; a traced run makes them in untraced/traced pairs."""
    passes: list[Pass] = []
    rounds: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(_run_pass(workload, series, config, reference, work_dir))
        if trace:
            passes.append(_run_pass(workload, series, config, reference, work_dir, Tracer()))
        end = time.perf_counter()
        rounds.append(end - start)
        if len(rounds) >= MIN_PASSES and end + statistics.median(rounds) > deadline:
            return passes


@contextmanager
def _work_dir(root: Path, name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    path = root / "perfbench" / f".work-{name}-{os.getpid()}"
    path.mkdir(exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _inputs(workload, seed: int, work_dir: Path):
    """Set up in-process; returns (series, config, reference)."""
    csv_path = work_dir / "corpus.csv"
    series, _ = set_up(workload, seed, csv_path)
    config = workload.config(str(csv_path), seed)
    return series, config, checks.Reference(series, config)


def golden_digest(workload, seed: int, root: Path) -> str:
    """Combined output digest of one untraced pass; raises if the pass fails."""
    with _work_dir(root, f"golden-{workload.name}-{seed}") as work_dir:
        p = _run_pass(workload, *_inputs(workload, seed, work_dir), work_dir)
    problems = [msg for msgs in p.failures.values() for msg in msgs]
    if problems:
        raise RuntimeError(f"{workload.name} seed {seed}: {problems}")
    return checks.combined(p.digest)


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns metrics, operation counts and details."""
    with _work_dir(root, f"{workload.name}-{seed}") as work_dir:
        probe_csv = work_dir / "probe.csv"
        probes = [_probe_setup(workload, seed, probe_csv, root) for _ in range(SETUP_REPS)]
        series, config, reference = _inputs(workload, seed, work_dir)
        passes = _run_passes(workload, series, config, reference, work_dir, seconds, trace)

    first = next((p.digest for p in passes if p.digest), {})
    for p in passes[1:]:
        for key, value in p.digest.items():
            if first.get(key) != value:
                op = "evaluate" if key == "report" else "generate"
                p.failures[op].append(f"digest of {key} differs from the first pass")
    attempted = 2 * len(passes)
    failed = sum(bool(problems) for p in passes for problems in p.failures.values())

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    metrics = {
        "setup_s": statistics.median(ready for ready, _ in probes),
        "generate_s": statistics.median(p.adjusted("generate", workload) for p in plain),
        "evaluate_s": statistics.median(p.adjusted("evaluate", workload) for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
        "generate_wall_s": statistics.median(p.generate_s for p in plain),
        "evaluate_wall_s": statistics.median(p.evaluate_s for p in plain),
    }
    if traced:
        metrics.update(_median_metrics([p.layers for p in traced if p.layers]))
        metrics["ingest.load_series_s"] = statistics.median(load for _, load in probes)
        metrics["runtime.invalid_units"] = sum(p.invalid_units for p in passes)
        for phase in ("generate", "evaluate"):
            metrics[f"trace.overhead.{phase}_s"] = (
                statistics.median(p.adjusted(phase, workload) for p in traced)
                - metrics[f"{phase}_s"])
    details = {
        "environment": _environment(root),
        "inputs": {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "n_tickers": workload.n_tickers, "n_days": workload.n_days,
            "window": workload.window, "windows": len(reference.windows),
            "config": config.to_dict(),
        },
        "timings": {
            "host_probe_s": [round(x, 4) for p in passes for x in p.probes],
            "setup_s": [round(ready, 4) for ready, _ in probes],
            **{f"{kind}.{phase}_wall_s": [round(getattr(p, f"{phase}_s"), 4) for p in group]
               for kind, group in (("untraced", plain), ("traced", traced))
               for phase in ("generate", "evaluate") if group},
        },
        "digest": first,
        "absent": sorted(set().union(*(p.absent for p in traced))),
        "failures": [f"pass {i} {op}: {msg}" for i, p in enumerate(passes)
                     for op, problems in p.failures.items() for msg in problems],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "digest": checks.combined(first) if first else None, "details": details}
