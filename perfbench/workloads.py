"""The benchmark's workloads.

Each workload is one generated desk corpus plus one run configuration. The
corpus comes from the workload seed; the program sees only the CSV written
from it. ``workers`` is never set, so each workload runs with the default.
Corpus sizes are scaled down from the paper-sized runs so that one pass takes
a few seconds and a run can report the median of many passes; each
workload's dominant layer stays dominant at these sizes (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_METHODS = ("nvg", "hvg", "nvmg", "vrp")
# Every classifier fit runs exactly this many iterations (tol 0 never stops
# early). With the default tol the iteration count depends on the data, and
# evaluate_s varied up to 2x between seeds of one workload.
CLASSIFIER_ITERS = 1500


@dataclass(frozen=True)
class Workload:
    name: str
    n_tickers: int
    n_days: int
    window: int
    methods: tuple[str, ...]
    downsample_mode: str
    node_strategy: str
    value_policy: str
    with_embedding: bool
    # Per timed call, the power of the host-speed ratio its time is scaled
    # by (see harness.py): 1 for interpreted Python, which slows down like
    # the probe.
    adjusted: dict = field(default_factory=lambda: {"generate": 1.0, "evaluate": 1.0})

    def config(self, csv_path: str, seed: int):
        from vgsynth import RunConfig

        return RunConfig(
            input=csv_path,
            seed=seed,
            window_length=self.window,
            methods=self.methods,
            sequences_per_window=10,
            downsample_mode=self.downsample_mode,
            downsample_k=1,
            node_strategy=self.node_strategy,
            value_policy=self.value_policy,
            max_iter=CLASSIFIER_ITERS,
            tol=0.0,
            perplexity=30.0,
            embed_iterations=500,
            mixing_k=10,
        )


WORKLOADS = {w.name: w for w in (
    # The paper's criterion-4 run: all four methods with SimDS, so DTW
    # dominates generation.
    Workload(
        name="desk_simds",
        n_tickers=20, n_days=80, window=20, methods=ALL_METHODS,
        downsample_mode="simds", node_strategy="restart_random",
        value_policy="round_robin", with_embedding=False,
    ),
    # Window 60 with DS and graph switching: no DTW, so graph builds and
    # walks dominate generation.
    Workload(
        name="wide_w60_ds",
        n_tickers=40, n_days=120, window=60, methods=ALL_METHODS,
        downsample_mode="ds", node_strategy="random_neighbor_graph_switching",
        value_policy="random", with_embedding=False,
    ),
    # VRP with DS, then evaluation with the exact embedding on, so embedding
    # descent dominates evaluation.
    Workload(
        name="embed_mix",
        n_tickers=20, n_days=200, window=20, methods=("vrp",),
        downsample_mode="ds", node_strategy="restart_random",
        value_policy="round_robin", with_embedding=True,
        # the embedding is numpy array arithmetic: between the host's two
        # speed states it slowed 1.19x while the probe slowed 1.49x, so
        # about the square root of the probe's ratio
        adjusted={"generate": 1.0, "evaluate": 0.5},
    ),
)}
