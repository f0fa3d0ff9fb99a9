"""Embedding overlap diagnostic and runtime accounting.

Embeds real windows and their shuffled counterparts into 2D with the exact
stochastic neighbor embedding, scores how intermixed the two sets are, and
prints a per-method runtime table in days hh:mm:ss.
"""

import numpy as np

from vgsynth import Window, vrp_generate
from vgsynth.embedding import embedding_overlap, write_embedding_csv
from vgsynth.runtime import RuntimeRecord, summary_table, time_unit

rng = np.random.default_rng(55)

# windows whose values carry no temporal order: shuffles should intermix
windows = [Window("D", i, 100 + rng.standard_normal(20) * 2) for i in range(200)]
real = np.array([w.scaled_values for w in windows])
synth = np.array([vrp_generate(w, seed=100 + i).scaled_values
                  for i, w in enumerate(windows)])

overlap = embedding_overlap(real, synth, perplexity=25, iterations=400, seed=0, k=10)
print(f"embedded {overlap.coords.shape[0]} points; "
      f"mixing score (1.0 = indistinguishable): {overlap.mixing:.2f}")
write_embedding_csv(overlap.coords, overlap.origins, "demo_embedding.csv")
print("wrote coordinates to demo_embedding.csv (x,y,origin)")

# two far-apart populations barely mix
far = embedding_overlap(real, real + 30.0, perplexity=25, iterations=400, seed=0, k=10)
print(f"far-separated populations score near zero: {far.mixing:.2f}")

# runtime accounting: time units of work, aggregate per method
records: list[RuntimeRecord] = []
for i, w in enumerate(windows[:50]):
    _, record = time_unit(lambda: vrp_generate(w, seed=i), unit_id=f"T{i:03d}", method="vrp")
    records.append(record)
records.append(RuntimeRecord(unit_id="segment_0", method="nvmg", elapsed_ms=65_000,
                             unit_kind="segment"))
records.append(RuntimeRecord(unit_id="T000", method="nvg", elapsed_ms=39_000))
print("\n" + summary_table(records))
