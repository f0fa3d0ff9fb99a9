"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions at the module attributes the pipeline
calls through with timing wrappers, so nothing inside ``src/`` changes.
Spans nest: a span's self time is its duration minus the time covered by
the spans opened inside it. Counters are read from arguments and results
at the same boundaries; their time is kept in ``counters_s`` and out of
every span's self time.

The tracer assumes one thread, which holds while ``RunConfig.workers`` is
left at its default of 1.

Hooks tolerate refactors: a hooked name that no longer exists is reported
as absent, and a counter that cannot read its result is reported as absent,
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# hooked span name -> (module, attribute path). A path part addresses a
# dict key when the object it is applied to is a dict.
HOOKS = {
    "ingest.prepare_windows": ("vgsynth.pipeline", ("prepare_windows",)),
    "graphs.nvg": ("vgsynth.pipeline", ("_BUILDERS", "nvg")),
    "graphs.hvg": ("vgsynth.pipeline", ("_BUILDERS", "hvg")),
    "graphs.multigraph": ("vgsynth.pipeline", ("build_multigraph",)),
    "generate.walk": ("vgsynth.pipeline", ("generate_sequence",)),
    "generate.vrp": ("vgsynth.pipeline", ("vrp_generate",)),
    "generate.downsample": ("vgsynth.pipeline", ("downsample",)),
    "generate.dtw": ("vgsynth.generate", ("dtw_distance",)),
    "evaluate.experiment": ("vgsynth.pipeline", ("run_experiment",)),
    "evaluate.features": ("vgsynth.evaluate", ("extract_features",)),
    "evaluate.fit": ("vgsynth.evaluate", ("LogisticClassifier", "fit")),
    "evaluate.auc": ("vgsynth.evaluate", ("roc_auc",)),
    "embedding.descent": ("vgsynth.embedding", ("embed_2d",)),
    "embedding.affinities": ("vgsynth.embedding", ("conditional_affinities",)),
    "embedding.mixing": ("vgsynth.embedding", ("mixing_score",)),
}


def _edge_count(graph) -> int:
    """Distinct adjacent node pairs, read only through the walk's surface."""
    return sum(graph.neighbor_ids(i).size for i in range(graph.num_nodes)) // 2


def _count_windows(args, kwargs, result):
    return {"ingest.windows": sum(len(ws) for ws in result.values())}


def _count_graph(args, kwargs, result):
    return {"graphs.edges": _edge_count(result)}


def _count_walk(args, kwargs, result):
    return {"generate.walk.steps": len(result.values)}


def _count_downsample(args, kwargs, result):
    candidates = args[0] if args else kwargs["sequences"]
    return {"generate.downsample.kept": len(result),
            "generate.downsample.candidates": len(candidates)}


def _count_fit(args, kwargs, result):
    return {"evaluate.fit.iters": len(args[0].loss_history_)}


def _count_embedding(args, kwargs, result):
    return {"embedding.points": result.coords.shape[0],
            "embedding.iterations": kwargs.get("iterations", len(result.kl_trace)),
            "embedding.final_kl_sum": result.kl_trace[-1]}


COUNTERS = {
    "ingest.prepare_windows": _count_windows,
    "graphs.nvg": _count_graph,
    "graphs.hvg": _count_graph,
    "graphs.multigraph": _count_graph,
    "generate.walk": _count_walk,
    "generate.downsample": _count_downsample,
    "evaluate.fit": _count_fit,
    "embedding.descent": _count_embedding,
}


def _resolve(module: str, path: tuple[str, ...]):
    """Return (container, key, current value) for a hook target."""
    obj = importlib.import_module(module)
    for key in path[:-1]:
        obj = obj[key] if isinstance(obj, dict) else getattr(obj, key)
    last = path[-1]
    value = obj[last] if isinstance(obj, dict) else getattr(obj, last)
    return obj, last, value


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.absent: set[str] = set()
        self.total_self_s = 0.0
        self.counters_s = 0.0  # tracer work, in no span's self time
        self._open: list[float] = []  # child time covered, per open span
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self) -> float:
        self._open.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        own = duration - self._open.pop()
        self.self_s[name] += own
        self.total_self_s += own
        self.calls[name] += 1
        if self._open:
            self._open[-1] += duration

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        start = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, start)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                start = time.perf_counter()
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.absent.add(f"{name} counters")
                else:
                    for key, value in counts.items():
                        self.counts[key] += value
                duration = time.perf_counter() - start
                self.counters_s += duration
                if self._open:  # keep it out of the enclosing span's self time
                    self._open[-1] += duration
            return result

        return traced

    def install(self) -> None:
        for name, (module, path) in HOOKS.items():
            try:
                container, key, original = _resolve(module, path)
            except (ImportError, AttributeError, KeyError):
                self.absent.add(name)
                continue
            _assign(container, key, self._wrap(name, original))
            self._patches.append((container, key, original))

    def uninstall(self) -> None:
        while self._patches:
            _assign(*self._patches.pop())
