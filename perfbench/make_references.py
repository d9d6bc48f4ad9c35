"""Regenerate references.json: the exact outputs of the deterministic
workload's reference jobs (wl/wwl partitions as a digest, distinguish
verdicts), recorded from the current source.

    python3 perfbench/make_references.py

Run it only when the stored outputs are meant to change; the benchmark
fails every job whose output differs from them.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import SRC, WORK_DIR, run_cli, setup


def main() -> int:
    sys.path.insert(0, str(SRC))
    from walksearch import cli, graphs

    import workloads
    from checks import REFERENCES, refinement_digest

    specs, jobs = workloads.build("deterministic", 0)
    directory = WORK_DIR / "references"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        paths = setup(specs, directory, cli, graphs)
        refs = {}
        for job in jobs:
            if job.ref is None or job.ref in refs:
                continue
            argv = [paths[a[1:]] if a.startswith("@") else a for a in job.argv]
            _, code, out, err = run_cli(cli, argv)
            if code != 0:
                raise RuntimeError(f"{job.ref}: exit {code}: {err}")
            if job.verb == "distinguish":
                refs[job.ref] = json.loads(out)
            else:
                flags = job.flags()
                sizes = [graphs.read_edge_list(paths[flags[f][1:]]).n
                         for f in ("--graph", "--graph2") if f in flags]
                digest, stable = refinement_digest(out, sizes)
                refs[job.ref] = {"sha256": digest, "stable_round": stable}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
