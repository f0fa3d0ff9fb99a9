"""Build natural and horizontal visibility graphs from a price window.

Shows the edge sets side by side, checks the fast builders against the
literal per-pair criterion, and dumps the graph to a text file.
"""

import numpy as np

from vgsynth import Window, build_hvg, build_nvg, dump_graph
from vgsynth.graphs import hvg_bruteforce, nvg_bruteforce

rng = np.random.default_rng(8)
prices = 100 * np.exp(np.cumsum(rng.standard_normal(20) * 0.02))
window = Window(ticker="DEMO", start_index=0, raw_values=prices)

print("window (scaled):", np.round(window.scaled_values, 3))

nvg = build_nvg([window])
hvg = build_hvg([window])
print(f"\nNVG: {len(nvg.edges)} edges")
print(sorted(nvg.edges))
print(f"\nHVG: {len(hvg.edges)} edges (always a subset of the NVG)")
print(sorted(hvg.edges))
assert set(hvg.edges) <= set(nvg.edges)

# the O(n^3) literal criterion agrees with the sweep builders
assert set(nvg.edges) == set(nvg_bruteforce(window).edges)
assert set(hvg.edges) == set(hvg_bruteforce(window).edges)
print("\nbrute-force oracle agrees with both builders")

# a tiny worked example: the middle of a valley sees both rims
valley = Window(ticker="V", start_index=0, raw_values=np.array([2.0, 1.0, 2.0]))
print("\nvalley [2,1,2] HVG edges:", sorted(build_hvg([valley]).edges), "(a triangle)")
ramp = Window(ticker="R", start_index=0, raw_values=np.array([1.0, 2.0, 3.0]))
print("collinear ramp [1,2,3] NVG edges:", sorted(build_nvg([ramp]).edges),
      "(strict visibility blocks the long edge)")

dump_graph(nvg, "demo_nvg.txt")
print("\nwrote edge list + node table to demo_nvg.txt")
