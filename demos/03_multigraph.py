"""Cross-ticker multigraph over one time segment.

Per-ticker visibility graphs are joined by time co-occurrence links and
similar-value links; nodes with equal time index and exactly equal scaled
value merge. Walks can then hop between tickers.
"""

import numpy as np

from vgsynth import WalkConfig, Window, build_multigraph, generate_sequence
from vgsynth.graphs import CO_OCCURRENCE, SIMILAR_VALUE, VISIBILITY

rng = np.random.default_rng(33)
windows = []
for name in ("AAA", "BBB", "CCC"):
    prices = 50 * np.exp(np.cumsum(rng.standard_normal(12) * 0.02))
    windows.append(Window(ticker=name, start_index=0, raw_values=prices))

mg = build_multigraph(windows, similar_value_epsilon=0.05)

by_kind = {}
for (_, _, kind), mult in mg.edges.items():
    by_kind[kind] = by_kind.get(kind, 0) + mult
print(f"{len(windows)} tickers x 12 points -> {mg.num_nodes} nodes")
print("edges by kind:", {k: by_kind.get(k, 0) for k in (VISIBILITY, CO_OCCURRENCE, SIMILAR_VALUE)})

merged = np.count_nonzero(np.diff(mg.value_ptr) > 1)
print(f"merged nodes (equal time + exactly equal value): {merged}")

# walk anchored at one window position (its ticker); switching prefers
# cross-ticker links
cfg = WalkConfig(node_strategy="random_neighbor_graph_switching", switch_prob=0.6)
for position, window in enumerate(mg.windows):
    seq = generate_sequence(mg, cfg, window=position, seed=1)
    print(f"walk anchored at {window.ticker}: {np.round(seq.values, 2)}")

# values are conserved: every input value lives in exactly one node
node_values = sorted(mg.values.tolist())
win_values = sorted(v for w in windows for v in w.scaled_values)
assert node_values == win_values
print("value multiset conserved across merging")
