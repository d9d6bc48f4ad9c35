"""The bytes of every benchmark job: one sha256 per workload.

Writes each workload's graphs for a job seed (with the ``gen`` verb, or
as a relabeled copy, as ``perfbench/workloads.py`` lists them), runs
every job in its list order through an in-process `cli.main` call, and
hashes each job's argv, exit code, stdout and stderr, with the graph
directory replaced by a fixed token (``invariance`` prints its graph
path), so two checkouts print the same lines exactly when every job
prints the same bytes. It reads ``perfbench/`` and writes nothing there.

    PYTHONPATH=src python -m tests.job_digests [--seed S] [--jobs]

prints one ``workload digest`` line per workload, or with ``--jobs``
one ``workload index digest`` line per job. The default seed is 7.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import pathlib
import random
import tempfile

from perfbench.workloads import WORKLOADS, build, gen_argv
from walksearch import graphs
from walksearch.cli import main

from .test_cli_golden import call_record


def write_graphs(specs, directory: pathlib.Path) -> None:
    """Write each spec's graph to ``directory / f"{key}.el"``."""
    for spec in specs.values():
        path = directory / f"{spec.key}.el"
        if spec.relabel_of is not None:
            g = graphs.read_edge_list(str(directory / f"{spec.relabel_of}.el"))
            perm = graphs.random_permutation(g.n, random.Random(spec.seed))
            graphs.write_edge_list(graphs.relabel(g, perm), str(path))
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(gen_argv(spec) + ["--out", str(path)])
            if code != 0:
                raise RuntimeError(f"gen of {spec.key} exited {code}")


def job_records(workload: str, seed: int, directory: pathlib.Path):
    """Write the workload's graphs in `directory`, then yield the
    `call_record` of each job in list order."""
    specs, jobs = build(workload, seed)
    write_graphs(specs, directory)
    for job in jobs:
        yield call_record(list(job.argv), directory)


def workload_digest(workload: str, seed: int, directory: pathlib.Path) -> str:
    """sha256 over the records of the workload's jobs, in list order."""
    digest = hashlib.sha256()
    for record in job_records(workload, seed, directory):
        digest.update(record)
    return digest.hexdigest()


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jobs", action="store_true", help="one line per job")
    args = p.parse_args()
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as name:
            directory = pathlib.Path(name)
            if args.jobs:
                for i, record in enumerate(job_records(workload, args.seed, directory)):
                    print(f"{workload} {i} {hashlib.sha256(record).hexdigest()}")
            else:
                print(f"{workload} {workload_digest(workload, args.seed, directory)}")
