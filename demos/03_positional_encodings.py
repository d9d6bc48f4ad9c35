"""Identity, adjacency, and anonymous encodings of node sequences.

Identity marks windowed repetitions; adjacency marks true edges among
windowed pairs, which lets a sequence expose edges it never traversed;
anonymous encodings replace ids by first-appearance ranks.
"""

import random

from walksearch import (
    anonymous_encoding,
    anonymous_tags,
    cycle_graph,
    hex_chain,
    sample_dfs,
    sample_walk,
)
from walksearch.encodings import adjacency_encoding, identity_encoding

g = cycle_graph(6)
rng = random.Random(3)

w = sample_walk(g, length=6, rng=rng)
print("walk:", w.nodes)
print("identity encoding (window 4, column j = 'same node j steps back'):")
for row in identity_encoding(w, s=4).tolist():
    print(row)
print("adjacency encoding (window 4, first column = consecutive pair is an edge):")
for row in adjacency_encoding(g, w.nodes, s=4).tolist():
    print(row)

# DFS on a graph with pendants must jump back after dead ends, and the
# first adjacency column flags exactly those discontinuities.
h = hex_chain(2)
rec = sample_dfs(h, rng)
print("\nsearch on hex_chain(2):", rec.visit_order)
adj = adjacency_encoding(h, rec.visit_order, s=h.n + 1)
zeros = [i for i in range(1, h.n) if adj[i, 0] == 0]
print("rows whose previous sequence entry is NOT a neighbor (backjumps):", zeros)

print("\nanonymous encoding of", w.nodes, "->",
      anonymous_encoding(w.nodes).labels)
tags = anonymous_tags(rec)
print("first-visit tags of the search:", dict(sorted(tags.tags.items())))
print("tags applied to its own sequence:", tags.apply(rec))
