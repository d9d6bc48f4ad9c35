"""Output checks for each verb.

Monte-Carlo verbs are checked by what their output means, never by its
bytes, so a change to the random stream does not fail a correct program.
Deterministic verbs are compared exactly with stored references
(``references.json``) or with what the construction of their inputs
implies (an isomorphic pair is never distinguished).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from walksearch.samplers import SearchRecord, validate_search_record

REFERENCES = Path(__file__).resolve().parent / "references.json"

PVALUE_LEVEL = 0.05


class CheckError(Exception):
    """The output contradicts what the verb must produce."""


class StatisticalMiss(CheckError):
    """A level-0.05 test rejected; a single miss is expected 1 time in 20.

    The run counts these against a binomial allowance (see
    ``allowed_misses``) instead of failing the job outright.
    """


def allowed_misses(tests: int, level: float = PVALUE_LEVEL, tail: float = 1e-4) -> int:
    """Largest k with P(Binomial(tests, level) > k) <= tail.

    A correct program exceeds this many misses once in 1/tail passes; a
    kernel whose law is wrong misses on nearly every test.
    """
    prob_le = 0.0
    for k in range(tests + 1):
        prob_le += math.comb(tests, k) * level**k * (1 - level) ** (tests - k)
        if 1.0 - prob_le <= tail:
            return k
    return tests


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _lines(text: str):
    """The lines of `text`, one at a time, without a list of all of them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def refinement_digest(out: str, sizes) -> tuple[str, int | None]:
    """Check a wl/wwl output and return (digest, stable_round).

    Each row ``graph=i round=r blocks=[...]`` must be a partition of graph
    i's nodes (`sizes[i]` of them), rows alternating over the graphs round
    by round. A row is parsed, checked and fed into the SHA-256 digest one
    at a time, so the checker never holds the whole history; the digest
    covers the parsed rows, not their formatting.
    """
    digest = hashlib.sha256()
    stable = None
    lines = _lines(out)
    for idx, line in enumerate(lines):
        if line.startswith("stable_round="):
            tail = line.split("=", 1)[1]
            stable = None if tail == "None" else int(tail)
            break
        head, _, text = line.partition(" blocks=")
        parts = dict(field.split("=", 1) for field in head.split())
        gi, r, blocks = int(parts["graph"]), int(parts["round"]), json.loads(text)
        _require(gi == idx % len(sizes) and r == idx // len(sizes), "rows out of order")
        nodes = sorted(x for block in blocks for x in block)
        _require(nodes == list(range(sizes[gi])), f"round {r} is not a partition")
        digest.update(json.dumps([gi, r, blocks], separators=(",", ":")).encode())
        digest.update(b"\n")
    else:
        raise CheckError("missing stable_round line")
    _require(idx >= len(sizes) and idx % len(sizes) == 0, "missing partition rows")
    _require(not any(lines), "output after the stable_round line")
    digest.update(f"stable_round={stable}".encode())
    return digest.hexdigest(), stable


class Checker:
    """Checks job outputs against the graphs written in set-up."""

    def __init__(self, graphs: dict, references: dict):
        self.graphs = graphs  # key -> walksearch Graph
        self.references = references
        self._nbrs: dict = {}

    def _graph(self, token: str):
        return self.graphs[token[1:]]

    def neighbor_sets(self, token: str):
        if token not in self._nbrs:
            self._nbrs[token] = self._graph(token).neighbor_sets()
        return self._nbrs[token]

    def check(self, job, out: str) -> None:
        try:
            getattr(self, "_check_" + job.verb)(job, job.flags(), out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckError(f"malformed output: {exc!r}") from None

    def _check_sample(self, job, flags, out):
        g = self._graph(flags["--graph"])
        payload = _json(out)
        m = int(flags["--m"])
        _require(payload["kind"] == flags["--kind"], "kind not echoed")
        _require(payload["seed"] == int(flags["--seed"]), "seed not echoed")
        _require(len(payload["items"]) == m, f"expected {m} items")
        if flags["--kind"] == "searches":
            for item in payload["items"]:
                rec = SearchRecord(
                    visit_order=tuple(item["visit_order"]),
                    tree_edges=frozenset(tuple(e) for e in item["tree_edges"]),
                    root=item["root"],
                )
                try:
                    validate_search_record(g, rec)
                except ValueError as exc:
                    raise CheckError(f"invalid search: {exc}") from None
            return
        length = int(flags.get("--length", g.n))
        nbrs = self.neighbor_sets(flags["--graph"])
        for item in payload["items"]:
            nodes = item["nodes"]
            _require(len(nodes) == length + 1, "walk has the wrong length")
            _require(item["start"] == nodes[0], "walk start not its first node")
            _require(0 <= nodes[0] < g.n, "walk start out of range")
            for a, b in zip(nodes, nodes[1:]):
                _require(b in nbrs[a], f"walk step ({a}, {b}) is not an edge")

    def _check_bound(self, job, flags, out):
        g = self._graph(flags["--graph"])
        rep = _json(out)
        delta = float(flags["--delta"])
        trials = int(flags["--trials"])
        d_max = max(g.degrees())
        c = g.edge_count / g.n
        if d_max <= 1:
            m_req = 1
        else:
            m_req = max(1, math.ceil(math.log(c * g.n / delta) / math.log(d_max / (d_max - 1))))
        _require(rep["n"] == g.n and rep["d_max"] == d_max, "graph stats wrong")
        _require(math.isclose(rep["C"], c), "C wrong")
        _require(rep["delta"] == delta and rep["trials"] == trials, "inputs not echoed")
        _require(rep["m_required"] == m_req, f"m_required {rep['m_required']} != {m_req}")
        floor = 1 - delta - 2 * math.sqrt(delta * (1 - delta) / trials)
        success = rep["empirical_success"]
        _require(floor <= success <= 1.0, f"success {success} below {floor:.4f}")

    def _check_coverage(self, job, flags, out):
        g = self._graph(flags["--graph"])
        lines = out.rstrip("\n").split("\n")
        _require(lines[0] == "kind,m,node_frac_mean,edge_frac_mean,trials,seed", "bad header")
        kinds = [k for k in flags["--kinds"].split(",") if k]
        m_list = sorted({int(x) for x in flags["--m-list"].split(",") if x})
        rows = [line.split(",") for line in lines[1:]]
        _require(len(rows) == len(kinds) * len(m_list), "wrong row count")
        for ki, kind in enumerate(kinds):
            prev_node = prev_edge = 0.0
            for mi, m in enumerate(m_list):
                row = rows[ki * len(m_list) + mi]
                _require(row[0] == kind and int(row[1]) == m, "rows out of order")
                _require(row[4] == flags["--trials"] and row[5] == flags["--seed"],
                         "trials/seed not echoed")
                node, edge = float(row[2]), float(row[3])
                _require(0.0 <= node <= 1.0 and 0.0 <= edge <= 1.0, "fraction out of [0, 1]")
                _require(node >= prev_node and edge >= prev_edge, "curve decreases in m")
                prev_node, prev_edge = node, edge
                if kind == "searches":
                    _require(node == 1.0, "a search missed a node")
                    if m == 1:
                        tree = (g.n - 1) / g.edge_count
                        _require(math.isclose(edge, tree, rel_tol=1e-9),
                                 "one search must cover exactly n-1 edges")

    def _check_covertime(self, job, flags, out):
        g = self._graph(flags["--graph"])
        rep = _json(out)
        _require(rep["policy"] == flags["--policy"] and rep["target"] == flags["--target"],
                 "policy/target not echoed")
        _require(rep["trials"] == int(flags["--trials"]), "trials not echoed")
        _require(rep["censored"] == 0, f"{rep['censored']} trials censored at cap {rep['cap']}")
        q = rep["quantiles"]
        order = [q["p25"], q["p50"], q["p75"], q["p90"]]
        _require(order == sorted(order), "quantiles out of order")
        floor = g.n - 1 if flags["--target"] == "node" else g.edge_count
        _require(order[0] >= floor and rep["mean"] >= floor, "covered faster than possible")
        _require(order[-1] <= rep["cap"], "quantile beyond the cap")

    def _check_invariance(self, job, flags, out):
        rep = _json(out)
        _require(rep["mode"] == flags["--mode"], "mode not echoed")
        _require(rep["perm_seed"] == int(flags["--perm-seed"]), "perm seed not echoed")
        if flags["--mode"] == "exact":
            _require(rep["discrepancy"] == "0" and rep["pass"] is True,
                     f"exact discrepancy {rep['discrepancy']}")
            return
        _require(rep["trials"] == int(flags["--trials"]), "trials not echoed")
        _require(-1e-9 <= rep["tv"] <= 1 + 1e-9 and -1e-9 <= rep["baseline_tv"] <= 1 + 1e-9,
                 "TV out of range")
        _require(0.0 < rep["pvalue"] <= 1.0, "p-value out of range")
        _require(rep["pass"] == (rep["pvalue"] >= PVALUE_LEVEL), "pass flag inconsistent")
        if not rep["pass"]:
            raise StatisticalMiss(f"sampled invariance p-value {rep['pvalue']}")

    def _check_wl(self, job, flags, out):
        tokens = [flags["--graph"]] + ([flags["--graph2"]] if "--graph2" in flags else [])
        digest, stable = refinement_digest(out, [self._graph(t).n for t in tokens])
        ref = self.references.get(job.ref)
        _require(ref is not None, f"no stored reference for {job.ref!r}")
        _require(stable == ref["stable_round"], f"stable_round {stable} != {ref['stable_round']}")
        _require(digest == ref["sha256"], "partitions differ from the stored reference")

    _check_wwl = _check_wl

    def _check_distinguish(self, job, flags, out):
        rep = _json(out)
        if job.ref is None:
            # the second graph is a relabeled copy of the first
            _require(rep["result"] == "inconclusive", "isomorphic pair distinguished")
            return
        ref = self.references.get(job.ref)
        _require(ref is not None, f"no stored reference for {job.ref!r}")
        _require(rep == ref, f"verdict {rep} != stored {ref}")

    def _check_reconstruct(self, job, flags, out):
        g = self._graph(flags["--graph"])
        rep = _json(out)
        _require(rep["n"] == g.n and rep["m"] == int(flags["--m"])
                 and rep["s"] == int(flags["--window"]), "inputs not echoed")
        _require(rep["spurious_count"] == 0, f"{rep['spurious_count']} spurious edges")
        _require(rep["missing_count"] == 0 and rep["exact"] is True,
                 f"{rep['missing_count']} edges missed at window n+1")
