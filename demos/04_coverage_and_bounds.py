"""Coverage accounting, edge-inclusion probabilities, and the sample-size
bound m >= ln(C n / delta) / ln(d_max / (d_max - 1)).

The story: one search covers all nodes and all but a few cycle edges;
a logarithmic number of searches covers everything, while walks need far
more steps for the same coverage.
"""

from walksearch import (
    cover_time_estimate,
    coverage_curve,
    coverage_report,
    cycle_graph,
    degree_stats,
    edge_inclusion_probs,
    escape_set,
    full_coverage_probability,
    hex_chain,
    sample_bound_m,
    sample_set,
)
from walksearch.coverage import curve_rows_to_csv

g = hex_chain(4)
stats = degree_stats(g)
print(f"hex_chain(4): n={g.n}, |E|={g.edge_count}, d_max={stats.d_max}")

rep = coverage_report(g, sample_set(g, "searches", m=1, seed=0))
print(f"one search: node coverage {rep.node_fraction:.2f}, "
      f"edge coverage {rep.edge_fraction:.3f}")

# How likely is a single random DFS tree to contain a given edge?
e = sorted(cycle_graph(6).edges())[0]
inc = edge_inclusion_probs(cycle_graph(6))[e]
print(f"\ncycle(6) edge {e}: exact inclusion {inc.probability}, "
      f"escape bound {inc.tau_bound}, degree bound {inc.dmax_bound}")
print("escape set at", e[0], "->", escape_set(cycle_graph(6), e, e[0]).members)

# The bound, and a Monte Carlo check that it holds.
delta = 0.1
m = sample_bound_m(stats.sparsity_c, g.n, stats.d_max, delta)
emp = full_coverage_probability(g, m, trials=2000, seed=1)
print(f"\ndelta={delta}: m_required={m}, "
      f"empirical full-coverage rate {emp:.4f} (guaranteed >= {1 - delta})")

# Coverage curves: searches dominate walks of length n at every m.
rows = coverage_curve(g, ["walks", "searches"], [1, 2, 4, 8],
                      trials=400, seed=2)
print("\n" + curve_rows_to_csv(rows), end="")

# Walk cover times grow superlinearly on cycles.
print("\nwalk node cover times on cycles (mean steps):")
for n in (8, 16, 32):
    ct = cover_time_estimate(cycle_graph(n), trials=200, seed=3)
    print(f"  n={n:3d}: {ct.mean:8.1f}  (p90 {ct.quantiles['p90']:.0f})")
