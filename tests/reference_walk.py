"""The scalar walk that ``generate_sequence`` replaced, kept with its draws
unchanged as the reference it must equal byte for byte: one
``np.random.Generator`` per walk, called once per draw, and numpy slices of
the graph's CSR arrays per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from vgsynth.errors import GraphIntegrityError
from vgsynth.generate import SyntheticSequence, WalkConfig
from vgsynth.graphs import Graph
from vgsynth.ingest import inverse_transform


@dataclass
class _WalkState:
    rng: np.random.Generator
    cursors: dict[int, int] = field(default_factory=dict)


def _pick(rng: np.random.Generator, ids: np.ndarray) -> int:
    return int(ids[rng.integers(0, ids.size)])


def next_node(graph, current: int, config: WalkConfig, rng: np.random.Generator,
              start: int | None = None) -> int:
    """Select the node following ``current`` under the configured strategy.

    A restart returns to ``start``, by default the graph's first node.
    """
    strategy = config.node_strategy
    if strategy == "uniform_random":
        return int(rng.integers(0, graph.num_nodes))

    if strategy == "restart_random":
        if rng.random() < config.restart_prob:
            return graph.first_node() if start is None else start
        if config.restart_jump == "uniform":
            return int(rng.integers(0, graph.num_nodes))
        return _pick(rng, _neighbors_or_raise(graph, current))

    neighbors = _neighbors_or_raise(graph, current)
    if strategy == "random_neighbor":
        return _pick(rng, neighbors)
    if strategy == "random_neighbor_graph_switching":
        cross = graph.cross_indices[graph.cross_indptr[current]:graph.cross_indptr[current + 1]]
        if cross.size and rng.random() < config.switch_prob:
            return _pick(rng, cross)
        return _pick(rng, neighbors)
    if strategy == "degree_weighted":
        lo, hi = graph.indptr[current], graph.indptr[current + 1]
        ids, mults = graph.indices[lo:hi], graph.mult[lo:hi]
        if ids.size == 0:
            raise GraphIntegrityError(f"node {current} is isolated")
        probs = mults / mults.sum()
        return int(rng.choice(ids, p=probs))
    raise ValueError(f"unknown node strategy {strategy!r}")


def _neighbors_or_raise(graph, current: int) -> np.ndarray:
    neighbors = graph.neighbor_ids(current)
    if neighbors.size == 0:
        raise GraphIntegrityError(
            f"node {current} is isolated; consecutive-edge property violated"
        )
    return neighbors


def next_value(graph: Graph, node_id: int, policy: str, state: _WalkState) -> float:
    """Draw one of node ``node_id``'s values under the given policy."""
    values = graph.node_values[node_id]
    if len(values) == 1:
        return values[0]
    if policy == "random":
        return values[int(state.rng.integers(0, len(values)))]
    if policy == "round_robin":
        cursor = state.cursors.get(node_id, 0)
        state.cursors[node_id] = (cursor + 1) % len(values)
        return values[cursor]
    raise ValueError(f"unknown value policy {policy!r}")


def reference_generate_sequence(
    graph: Graph,
    config: WalkConfig,
    window: int = 0,
    *,
    seed: int = 0,
    length: int | None = None,
) -> SyntheticSequence:
    """Walk ``graph`` and emit a sequence of ``length`` values, by default
    the window's length.

    ``window`` anchors the walk start at that window position's first node
    and selects its ticker, start and scale for the output. Uniform draws
    span the whole graph, so a window of a block-diagonal unit graph is
    compared with this walk on that window's graph built alone.
    """
    if length is None:
        length = graph.windows[window].length
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    start = graph.first_node(window)
    state = _WalkState(rng=rng)

    current = start
    scaled = [next_value(graph, current, config.value_policy, state)]
    while len(scaled) < length:
        current = next_node(graph, current, config, rng, start)
        scaled.append(next_value(graph, current, config.value_policy, state))

    scaled_arr = np.array(scaled, dtype=float)
    scale_min, scale_max = graph.windows[window].scale_min, graph.windows[window].scale_max
    values = inverse_transform(scaled_arr, scale_min, scale_max)
    return SyntheticSequence(
        values=values,
        scaled_values=scaled_arr,
        method=graph.kind,
        ticker=graph.windows[window].ticker,
        window_start=graph.windows[window].start_index,
        seed=seed,
        scale_min=scale_min,
        scale_max=scale_max,
    )
