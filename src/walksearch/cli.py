"""Command-line surface: every lab as a reproducible, seed-controlled verb.

One binary with subcommands gen, sample, coverage, bound, covertime, wl,
wwl, distinguish, invariance, reconstruct. All randomness is surfaced as
flags; identical flags produce byte-identical output. Failures exit
nonzero with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import coverage as cov
from . import invariance as inv
from . import reconstruct as rec
from . import wl as wlmod
from .graphs import (
    gen_family,
    random_permutation,
    read_edge_list,
    save_edge_list,
)
# sample_dfs is unused here; it stays bound as walksearch.cli.sample_dfs
# because test_tracer_wraps_every_binding_and_restores_them checks that the
# span tracer wraps this binding too
from .samplers import derive_rng, sample_dfs, sample_set  # noqa: F401


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n", out)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="walksearch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a graph family as an edge list")
    sp.add_argument("--family", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--avg-deg", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("sample", help="sample walks or searches as JSON")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--kind", required=True, choices=["walks", "searches"])
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--length", type=int)
    sp.add_argument(
        "--policy",
        default="uniform",
        choices=["uniform", "non_backtracking", "local_rule"],
    )
    sp.add_argument("--out")

    sp = sub.add_parser("coverage", help="mean coverage vs sample count (CSV)")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--kinds", default="walks,searches")
    sp.add_argument("--m-list", required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--length", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("bound", help="full-edge-coverage sample-size bound")
    sp.add_argument("--n", type=int)
    sp.add_argument("--C", type=float, dest="c")
    sp.add_argument("--d-max", type=int)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--graph", help="take n, C, d_max from a graph and verify")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("covertime", help="walk cover-time estimate (JSON)")
    sp.add_argument("--graph", required=True)
    sp.add_argument(
        "--policy",
        default="uniform",
        choices=["uniform", "non_backtracking", "local_rule"],
    )
    sp.add_argument("--target", default="node", choices=["node", "edge"])
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--cap", type=int)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")

    for name in ("wl", "wwl"):
        sp = sub.add_parser(
            name, help=f"print per-round {name} partitions as sorted blocks"
        )
        sp.add_argument("--graph", required=True)
        sp.add_argument("--graph2")
        sp.add_argument("--rounds", type=int)
        if name == "wwl":
            sp.add_argument("--length", type=int, required=True)
        sp.add_argument("--out")

    sp = sub.add_parser("distinguish", help="refinement verdict for two graphs")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--graph2", required=True)
    sp.add_argument("--test", default="wl", choices=["wl", "wwl"])
    sp.add_argument("--length", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("invariance", help="DFS isomorphism-invariance check")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    sp.add_argument("--perm-seed", type=int, required=True)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("reconstruct", help="edge recovery from sampled searches")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--window", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state on the parser (each call fills a new
    # Namespace), so one parser serves every main() call in a process
    return build_parser()


# ---------------------------------------------------------------------------
# verb implementations


def _cmd_gen(args) -> None:
    if args.family in ("random_tree", "er_connected") and args.seed is None:
        raise _UsageError(f"--seed is required for family {args.family}")
    params = {}
    if args.family in ("path", "cycle", "complete", "star", "random_tree",
                       "er_connected"):
        if args.n is None:
            raise _UsageError(f"--n is required for family {args.family}")
        params["n"] = args.n
    if args.family == "er_connected":
        if args.avg_deg is None:
            raise _UsageError("--avg-deg is required for er_connected")
        params["avg_deg"] = args.avg_deg
    if args.family == "hex_chain":
        if args.k is None:
            raise _UsageError("--k is required for hex_chain")
        params["k"] = args.k
    g = gen_family(args.family, seed=args.seed or 0, **params)
    _emit(save_edge_list(g), args.out)


def _cmd_sample(args) -> None:
    g = read_edge_list(args.graph)
    ss = sample_set(
        g,
        args.kind,
        args.m,
        args.seed,
        length=args.length,
        policy=args.policy,
    )
    _emit_json(ss.to_dict(), args.out)


def _cmd_coverage(args) -> None:
    g = read_edge_list(args.graph)
    rows = cov.coverage_curve(
        g,
        kinds=[k for k in args.kinds.split(",") if k],
        m_list=_int_list(args.m_list),
        trials=args.trials,
        seed=args.seed,
        length=args.length,
    )
    _emit(cov.curve_rows_to_csv(rows), args.out)


def _cmd_bound(args) -> None:
    if args.graph is not None:
        if args.seed is None:
            raise _UsageError("--seed is required when verifying against a graph")
        g = read_edge_list(args.graph)
        report = cov.bound_check_report(g, args.delta, args.trials, args.seed)
        _emit_json(report, args.out)
        return
    if args.n is None or args.c is None or args.d_max is None:
        raise _UsageError("bound needs either --graph or all of --n/--C/--d-max")
    q = cov.bound_query(args.c, args.n, args.d_max, args.delta)
    _emit_json(
        {
            "C": q.c,
            "n": q.n,
            "d_max": q.d_max,
            "delta": q.delta,
            "m_required": q.m_required,
            "degenerate": q.degenerate,
        },
        args.out,
    )


def _cmd_covertime(args) -> None:
    g = read_edge_list(args.graph)
    report = cov.cover_time_estimate(
        g,
        policy=args.policy,
        target=args.target,
        trials=args.trials,
        cap=args.cap,
        seed=args.seed,
    )
    _emit_json(dataclasses.asdict(report), args.out)


def _cmd_refine(args, test: str) -> None:
    graphs = [read_edge_list(args.graph)]
    if args.graph2:
        graphs.append(read_edge_list(args.graph2))
    if test == "wl":
        run = wlmod.wl_refine(graphs, rounds=args.rounds)
    else:
        run = wlmod.wwl_refine(graphs, args.length, rounds=args.rounds)
    lines = [
        f"graph={gi} round={r} blocks={text}"
        for r, gi, text in run.blocks_json()
    ]
    lines.append(f"stable_round={run.stable_round}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_distinguish(args) -> None:
    g = read_edge_list(args.graph)
    h = read_edge_list(args.graph2)
    verdict = wlmod.distinguish(g, h, test=args.test, length=args.length)
    _emit_json(dataclasses.asdict(verdict), args.out)


def _cmd_invariance(args) -> None:
    g = read_edge_list(args.graph)
    perm = random_permutation(g.n, derive_rng(args.perm_seed, "perm"))
    if args.mode == "exact":
        d = inv.invariance_exact(g, perm)
        _emit_json(
            {
                "graph": args.graph,
                "perm_seed": args.perm_seed,
                "mode": "exact",
                "discrepancy": str(d),
                "pass": d == 0,
            },
            args.out,
        )
        return
    if args.seed is None:
        raise _UsageError("--seed is required for sampled mode")
    report = inv.invariance_sampled(g, perm, args.trials, args.seed)
    _emit_json(
        {
            "graph": args.graph,
            "perm_seed": args.perm_seed,
            "mode": "sampled",
            "tv": report.tv,
            "baseline_tv": report.baseline_tv,
            "pvalue": report.pvalue,
            "trials": report.trials,
            "pass": report.passed,
        },
        args.out,
    )


def _cmd_reconstruct(args) -> None:
    g = read_edge_list(args.graph)
    ss = sample_set(g, "searches", args.m, args.seed)
    report = rec.verify_reconstruction(g, ss, args.window)
    _emit_json(report.to_dict(g.n, args.m, args.window), args.out)


_COMMANDS = {
    "gen": _cmd_gen,
    "sample": _cmd_sample,
    "coverage": _cmd_coverage,
    "bound": _cmd_bound,
    "covertime": _cmd_covertime,
    "wl": lambda a: _cmd_refine(a, "wl"),
    "wwl": lambda a: _cmd_refine(a, "wwl"),
    "distinguish": _cmd_distinguish,
    "invariance": _cmd_invariance,
    "reconstruct": _cmd_reconstruct,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except _UsageError as exc:
        json.dump({"error": "usage", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)}, sys.stderr
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
