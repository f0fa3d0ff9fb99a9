"""Generate synthetic sequences by walking a visibility graph.

Compares node-selection strategies, shows the shuffle baseline, and applies
DTW-based downsampling to keep the candidates closest to the source window.
"""

import numpy as np

from vgsynth import (WalkConfig, Window, build_nvg, downsample, dtw_distance,
                     generate_sequence, minmax_scale, vrp_generate)

rng = np.random.default_rng(21)
prices = 100 * np.exp(np.cumsum(0.004 + rng.standard_normal(20) * 0.015))
window = minmax_scale(Window(ticker="DEMO", start_index=0, raw_values=prices))
graph = build_nvg([window])

print("source window:", np.round(prices, 2))

for strategy in ("restart_random", "random_neighbor", "uniform_random", "degree_weighted"):
    seq = generate_sequence(graph, WalkConfig(node_strategy=strategy), seed=3)
    print(f"\n{strategy:>24}: {np.round(seq.values, 2)}")

# restart walks jump back to the first time index ~15% of the time
cfg = WalkConfig(node_strategy="restart_random", restart_prob=0.15)
seq = generate_sequence(graph, cfg, seed=5, length=2000)
restarts = np.mean(seq.scaled_values == window.scaled_values[0])
print(f"\nshare of steps emitting the start value (2000 steps): {restarts:.3f}")

# the shuffle baseline keeps the values, destroys the order
shuffled = vrp_generate(window, seed=11)
print("\nVRP shuffle:", np.round(shuffled.values, 2))
assert sorted(shuffled.values) == sorted(prices)

# similarity downsampling: keep the walks closest to the source (DTW); a
# walk is as long as its window unless given a length
candidates = [generate_sequence(graph, WalkConfig(), seed=s) for s in range(10)]
dists = [dtw_distance(c.values, window.raw_values) for c in candidates]
print("\nDTW distance of 10 candidate walks to the source window:")
print(np.round(dists, 2))
kept = downsample(candidates, [window], k=3)
print("SimDS keeps the", len(kept), "closest; their distances:",
      np.round([dtw_distance(c.values, window.raw_values) for c in kept], 2))
