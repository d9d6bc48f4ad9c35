"""Layered benchmark of the walksearch command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search_mc --seed 1 --seconds 30 --trace 0

One closed-loop client in this process calls ``walksearch.cli.main(argv)``
for each job of the workload in turn; the package is imported from the
checkout's ``src``. Set-up writes the workload's graph files with the
``gen`` verb. Each job's output is checked (see checks.py) outside its
timing. Passes over the job list repeat until ``--seconds`` is spent.
Every job and set-up is timed in host-normalised CPU seconds (speed.py).

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and prints per-layer
metrics from the traced ones (see tracer.py and metrics.py); the spans of
the last traced pass go to ``perfbench/.work/`` as JSON lines.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_DIR = HERE / ".work"

SETUP_REPEATS_PER_PASS = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 2  # traced passes; untraced ones alternate with them
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_cli(cli, argv, speed=None):
    """Call the CLI in-process; return (host-normalised seconds or None
    without `speed`, speed factor or None, wall seconds, exit code or None
    if it raised, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            return cli.main(argv)
        except Exception:  # a raise out of main is a failed job, not a crash
            err.write(traceback.format_exc())
            return None

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall = time.perf_counter()
        if speed is None:
            seconds, factor, code = None, None, call()
        else:
            seconds, factor, code = speed.time(call)
        wall = time.perf_counter() - wall
    return seconds, factor, wall, code, out.getvalue(), err.getvalue()


def setup(specs, directory: Path, cli, graphs) -> dict:
    """Write every graph file of the workload; return key -> path."""
    from workloads import gen_argv

    directory.mkdir(parents=True)
    paths = {}
    for spec in specs.values():
        path = str(directory / f"{spec.key}.el")
        if spec.relabel_of is not None:
            g = graphs.read_edge_list(paths[spec.relabel_of])
            perm = graphs.random_permutation(g.n, random.Random(spec.seed))
            graphs.write_edge_list(graphs.relabel(g, perm), path)
        else:
            _, _, _, code, _, err = run_cli(cli, gen_argv(spec) + ["--out", path])
            if code != 0:
                raise RuntimeError(f"set-up of {spec.key} failed: {err.strip()}")
        paths[spec.key] = path
    return paths


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []  # host-normalised seconds per job
        self.wall_latencies: list[float] = []  # as the wall clock read them
        self.failed = 0
        self.out_bytes = 0
        self.messages: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(jobs, paths, cli, checker, speed, tracer=None) -> PassResult:
    from checks import CheckError, StatisticalMiss, allowed_misses
    from tracer import rescale

    res = PassResult()
    misses = []
    tests = 0
    for idx, job in enumerate(jobs):
        argv = [paths[a[1:]] if a.startswith("@") else a for a in job.argv]
        if tracer is not None:
            first = len(tracer.spans)
            tracer.job = idx
        seconds, factor, wall, code, out, err = run_cli(cli, argv, speed)
        if tracer is not None:
            tracer.job = None
            rescale(tracer.spans, first, factor)
        res.latencies.append(seconds)
        res.wall_latencies.append(wall)
        res.out_bytes += len(out.encode())
        if job.verb == "invariance" and job.flags()["--mode"] == "sampled":
            tests += 1
        if code != 0:
            res.failed += 1
            res.messages.append(f"{' '.join(job.argv)}: exit {code}: {err.strip()[-300:]}")
            continue
        try:
            checker.check(job, out)
        except StatisticalMiss as exc:
            misses.append(f"{' '.join(job.argv)}: {exc}")
        except CheckError as exc:
            res.failed += 1
            res.messages.append(f"{' '.join(job.argv)}: {exc}")
    if len(misses) > allowed_misses(tests):
        res.failed += len(misses)
        res.messages.extend(misses)
    return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walksearch" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from walksearch import cli, graphs

    import workloads
    from checks import Checker, load_references
    from metrics import declared_units, end_to_end, per_layer
    from speed import REFERENCE_S, HostSpeed
    from tracer import Tracer, rescale, write_jsonl

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    print(f"# env python={sys.version.split()[0]} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} loadavg={os.getloadavg()[0]:.2f}")

    specs, jobs = workloads.build(args.workload, args.seed)
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    speed = HostSpeed()
    try:
        setup_times = []

        def timed_setup():
            directory = run_dir / f"setup{len(setup_times)}"
            seconds, _, made = speed.time(lambda: setup(specs, directory, cli, graphs))
            setup_times.append(seconds)
            return made, directory

        paths, _ = timed_setup()
        checker = Checker(
            {key: graphs.read_edge_list(p) for key, p in paths.items()},
            load_references(),
        )
        tracer = Tracer() if args.trace else None
        setup_spans = []
        if tracer is not None:
            tracer.install()
            tracer.job = "setup"
            try:
                _, factor, _ = speed.time(
                    lambda: setup(specs, run_dir / "setup-traced", cli, graphs))
            finally:
                tracer.job = None
                tracer.uninstall()
            rescale(tracer.spans, 0, factor)
            setup_spans = tracer.take()

        plain: list[PassResult] = []
        traced: list[tuple[PassResult, list]] = []
        begin = time.perf_counter()
        while True:
            use_trace = tracer is not None and len(traced) < len(plain)
            # set-up repeats are spread over the run like the passes are
            for _ in range(SETUP_REPEATS_PER_PASS):
                shutil.rmtree(timed_setup()[1])
            gc.collect()  # start every pass from the same heap state
            start = time.perf_counter()
            if use_trace:
                tracer.install()
                try:
                    res = run_pass(jobs, paths, cli, checker, speed, tracer)
                finally:
                    tracer.uninstall()
                traced.append((res, tracer.take()))
            else:
                res = run_pass(jobs, paths, cli, checker, speed)
                plain.append(res)
            last = time.perf_counter() - start
            spent = time.perf_counter() - begin
            if tracer is None:
                enough = len(plain) >= MIN_PASSES
            else:
                enough = len(traced) >= MIN_TRACE_PASSES
            if enough and spent + last > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = plain + [r for r, _ in traced]
    attempted = sum(len(r.latencies) for r in results)
    failed = sum(r.failed for r in results)
    messages = [m for r in results for m in r.messages]
    for msg in messages[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {msg}", file=sys.stderr)

    print(f"# workload={args.workload} seed={args.seed} jobs_per_pass={len(jobs)} "
          f"failed={failed}/{attempted} untraced_pass_s="
          f"{[round(r.wall_s, 3) for r in plain]} traced_pass_s="
          f"{[round(r.wall_s, 3) for r, _ in traced]}")
    print(f"# wall clock: untraced_pass_s={[round(sum(r.wall_latencies), 3) for r in plain]} "
          f"traced_pass_s={[round(sum(r.wall_latencies), 3) for r, _ in traced]} "
          f"reference_ms median={1e3 * median(speed.readings):.3f} "
          f"min={1e3 * min(speed.readings):.3f} max={1e3 * max(speed.readings):.3f} "
          f"readings={len(speed.readings)} "
          f"(nominal {1e3 * REFERENCE_S:.3f})")
    if tracer is None:
        values = end_to_end(
            setup_times, [r.latencies for r in plain], sum(job.trials for job in jobs),
            failed, attempted, peak_rss_mb(),
        )
    else:
        values = per_layer(
            [(r.latencies, r.out_bytes, spans) for r, spans in traced],
            [r.latencies for r in plain], setup_spans,
        )
        WORK_DIR.mkdir(exist_ok=True)
        write_jsonl(traced[-1][1], WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    units = declared_units()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
