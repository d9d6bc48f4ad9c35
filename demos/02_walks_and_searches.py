"""Walk policies, randomized DFS, and the exact outcome enumerator.

A search differs from a walk in one crucial way: its visit sequence hits
every node exactly once and induces a spanning tree.
"""

import random
from collections import Counter

from walksearch import (
    enumerate_dfs,
    hex_chain,
    path_graph,
    sample_dfs,
    sample_set,
    sample_walk,
    validate_search_record,
)

g = hex_chain(2)
rng = random.Random(0)

for policy in ("uniform", "non_backtracking", "local_rule"):
    w = sample_walk(g, length=10, rng=rng, policy=policy)
    print(f"{policy:17s} walk: {w.nodes}")

rec = sample_dfs(g, rng)
validate_search_record(g, rec)
print(f"\nsearch visit order ({g.n} nodes, each once): {rec.visit_order}")
print(f"spanning tree has {len(rec.tree_edges)} edges = n-1")

# Exact DFS distribution on a path: the two end roots force their
# sequences, the middle root flips a coin for its first direction.
print("\nexact DFS law of the 3-path:")
for outcome in enumerate_dfs(path_graph(3)):
    print(f"  {outcome.record.visit_order}  p = {outcome.probability}")

# The sampler follows the same law.
counts = Counter(
    sample_dfs(path_graph(3), random.Random(i)).visit_order
    for i in range(30000)
)
print("\nempirical frequencies over 30k draws:")
for order, c in sorted(counts.items()):
    print(f"  {order}  {c / 30000:.4f}")

# Batch sampling draws its records in turn from one generator seeded by
# `seed`, so sets reproduce.
ss = sample_set(g, "searches", m=3, seed=11)
print("\nsample_set determinism:",
      ss == sample_set(g, "searches", m=3, seed=11))
