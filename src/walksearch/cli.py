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
from itertools import chain

from . import coverage as cov
from . import invariance as inv
from . import reconstruct as rec
from . import wl as wlmod
from .graphs import (
    FAMILIES,
    gen_family,
    random_permutation,
    read_edge_list,
    save_edge_list,
)
from .samplers import POLICIES, derive_rng, sample_set, search_set_dict

# sample_dfs is unused here; it stays bound as walksearch.cli.sample_dfs
# because test_tracer_wraps_every_binding_and_restores_them checks that the
# span tracer wraps this binding too
from .samplers import sample_dfs  # noqa: F401


# `wl`/`wwl` print (rounds + 1) rows per graph, each listing the graph's
# nodes; a run with more (rounds + 1) * (graphs + nodes) than this is
# refused after refinement, before rendering
MAX_REFINE_CELLS = 10**7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(chunks, out: str | None) -> None:
    """Write the text chunks, in order, to stdout or to the file `out`."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _emit_json(obj, out: str | None) -> None:
    # every object printed is a tree built for the call, so the check for
    # circular references (one per list and dict) would find none
    text = json.dumps(obj, sort_keys=True, allow_nan=False, check_circular=False)
    _emit([text + "\n"], out)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="walksearch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a graph family as an edge list")
    sp.set_defaults(run=_cmd_gen)
    sp.add_argument("--family", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--avg-deg", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("sample", help="sample walks or searches as JSON")
    sp.set_defaults(run=_cmd_sample)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--kind", required=True, choices=["walks", "searches"])
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--length", type=int)
    # mode-specific flags have no argparse default, so that one given
    # outside its mode is seen; the handlers fill in the defaults
    sp.add_argument("--policy", choices=POLICIES)
    sp.add_argument("--out")

    sp = sub.add_parser("coverage", help="mean coverage vs sample count (CSV)")
    sp.set_defaults(run=_cmd_coverage)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--kinds", default="walks,searches")
    sp.add_argument("--m-list", type=_int_list, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--length", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("bound", help="full-edge-coverage sample-size bound")
    sp.set_defaults(run=_cmd_bound)
    sp.add_argument("--n", type=int)
    sp.add_argument("--C", type=float)
    sp.add_argument("--d-max", type=int)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--graph", help="take n, C, d_max from a graph and verify")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("covertime", help="walk cover-time estimate (JSON)")
    sp.set_defaults(run=_cmd_covertime)
    sp.add_argument("--graph", required=True)
    sp.add_argument(
        "--policy",
        default="uniform",
        choices=POLICIES,
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
        sp.set_defaults(run=_cmd_refine)
        sp.add_argument("--graph", required=True)
        sp.add_argument("--graph2")
        sp.add_argument("--rounds", type=int)
        if name == "wwl":
            sp.add_argument("--length", type=int, required=True)
        sp.add_argument("--out")

    sp = sub.add_parser("distinguish", help="refinement verdict for two graphs")
    sp.set_defaults(run=_cmd_distinguish)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--graph2", required=True)
    sp.add_argument("--test", default="wl", choices=["wl", "wwl"])
    sp.add_argument("--length", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("invariance", help="DFS isomorphism-invariance check")
    sp.set_defaults(run=_cmd_invariance)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    sp.add_argument("--perm-seed", type=int, required=True)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("reconstruct", help="edge recovery from sampled searches")
    sp.set_defaults(run=_cmd_reconstruct)
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
#
# Each handler checks its flags (`_refuse`, `_require`) before it reads a
# graph. Both helpers name a flag by its dest, `_` read as `-`.


def _refuse(args, names, scope: str) -> None:
    """Usage error for the first flag of `names` that was given."""
    for name in names:
        if getattr(args, name) is not None:
            raise _UsageError(f"--{name.replace('_', '-')} applies only to {scope}")


def _require(args, names, context: str) -> None:
    """Usage error for the first flag of `names` that was not given."""
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required {context}")


def _cmd_gen(args) -> None:
    names = FAMILIES[args.family][1] if args.family in FAMILIES else ()
    # in the order of the usage errors
    order = [name for name in ("seed", "n", "avg_deg", "k") if name in names]
    _require(args, order, f"for family {args.family}")
    g = gen_family(args.family, **{name: getattr(args, name) for name in names})
    _emit([save_edge_list(g)], args.out)


def _cmd_sample(args) -> None:
    if args.kind == "searches":
        _refuse(args, ("length", "policy"), "walks")
    g = read_edge_list(args.graph)
    if args.kind == "searches":
        payload = search_set_dict(g, args.m, args.seed)
    else:
        ss = sample_set(
            g,
            "walks",
            args.m,
            args.seed,
            length=args.length,
            policy=args.policy or "uniform",
        )
        payload = ss.to_dict()
    _emit_json(payload, args.out)


def _cmd_coverage(args) -> None:
    kinds = [k for k in args.kinds.split(",") if k]
    if kinds and "walks" not in kinds:
        _refuse(args, ("length",), "walks")
    g = read_edge_list(args.graph)
    rows = cov.coverage_curve(
        g,
        kinds=kinds,
        m_list=args.m_list,
        trials=args.trials,
        seed=args.seed,
        length=args.length,
    )
    _emit([cov.curve_rows_to_csv(rows)], args.out)


def _cmd_bound(args) -> None:
    if args.graph is None:
        _refuse(args, ("seed", "trials"), "--graph")
        if args.n is None or args.C is None or args.d_max is None:
            raise _UsageError("bound needs either --graph or all of --n/--C/--d-max")
        report = dataclasses.asdict(
            cov.bound_query(args.C, args.n, args.d_max, args.delta)
        )
        report["C"] = report.pop("c")
    else:
        _refuse(args, ("n", "C", "d_max"), "a bound without --graph")
        _require(args, ("seed",), "when verifying against a graph")
        g = read_edge_list(args.graph)
        trials = 1000 if args.trials is None else args.trials
        report = cov.bound_check_report(g, args.delta, trials, args.seed)
    _emit_json(report, args.out)


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


def _cmd_refine(args) -> None:
    graphs = [read_edge_list(args.graph)]
    if args.graph2 is not None:
        graphs.append(read_edge_list(args.graph2))
    if args.command == "wl":
        run = wlmod.wl_refine(graphs, rounds=args.rounds)
    else:
        run = wlmod.wwl_refine(graphs, args.length, rounds=args.rounds)
    cells = (run.rounds + 1) * (len(graphs) + sum(g.n for g in graphs))
    if cells > MAX_REFINE_CELLS:
        raise ValueError(
            f"(rounds + 1) * (graphs + nodes) = {cells} exceeds the output"
            f" cap of {MAX_REFINE_CELLS}"
        )
    rows = (
        f"graph={gi} round={r} blocks={text}\n"
        for r, gi, text in run.blocks_json()
    )
    _emit(chain(rows, [f"stable_round={run.stable_round}\n"]), args.out)


def _cmd_distinguish(args) -> None:
    if args.test == "wl":
        _refuse(args, ("length",), "walks")
    else:
        _require(args, ("length",), "for the wwl test")
    g = read_edge_list(args.graph)
    h = read_edge_list(args.graph2)
    verdict = wlmod.distinguish(g, h, test=args.test, length=args.length)
    _emit_json(dataclasses.asdict(verdict), args.out)


def _cmd_invariance(args) -> None:
    if args.mode == "exact":
        _refuse(args, ("seed", "trials"), "sampled mode")
    else:
        _require(args, ("seed",), "for sampled mode")
    g = read_edge_list(args.graph)
    perm = random_permutation(g.n, derive_rng(args.perm_seed, "perm"))
    if args.mode == "exact":
        d = inv.invariance_exact(g, perm)
        fields = {"discrepancy": str(d), "passed": d == 0}
    else:
        trials = 2000 if args.trials is None else args.trials
        fields = dataclasses.asdict(
            inv.invariance_sampled(g, perm, trials, args.seed)
        )
    fields["pass"] = fields.pop("passed")
    report = {"graph": args.graph, "perm_seed": args.perm_seed, "mode": args.mode}
    _emit_json(report | fields, args.out)


def _cmd_reconstruct(args) -> None:
    g = read_edge_list(args.graph)
    ss = sample_set(g, "searches", args.m, args.seed)
    report = rec.verify_reconstruction(g, ss, args.window)
    _emit_json(report.to_dict(g.n, args.m, args.window), args.out)


def _error(code: int, error: str, message: str) -> int:
    json.dump({"error": error, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.run(args)
        return 0
    except _UsageError as exc:
        return _error(2, "usage", str(exc))
    except (ValueError, RuntimeError, OSError) as exc:
        return _error(1, type(exc).__name__, str(exc))
    except MemoryError as exc:
        # the interpreter raises it with no message; dropping the traceback
        # frees the frames that filled memory before the error is written
        exc.__traceback__ = None
        return _error(1, "MemoryError", str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
