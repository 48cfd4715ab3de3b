#!/usr/bin/env python3
"""Print a sha256 of every command-line output of one benchmark seed.

Usage:
    python scripts/output_digests.py [--seed N] [--src DIR] > digests.txt

The inputs are the cli-files and grid-lab workloads of
``perfbench/gen.py`` at the seed: ``solve --json`` on every generated
problem file, ``solve`` (desk text) on the fixtures and desk files, and
``lab NAME`` for each experiment, with ``--json`` and as text.  Every
moreau and table file of cli-files is also given to ``apply``, with
``--json`` and as text: ``--direction Bstar`` on the file's own g, and
``--direction B`` with f = 0 on every y.  Every call runs in this
process through ``galois_solve.cli.main``, once with the process
pinned to one CPU, where every pass runs serially, and once on every
CPU it may use with ``kernel.DENSE_LIMIT`` at 0, so that every pass of
more than one block, over a stored or a generated table, runs on
threads.  Each output line is

    RUN CALL EXIT_CODE SHA256_OF_STDOUT

with RUN 1 for the one-CPU run and 2 for the other, so two checkouts
produce byte-identical outputs exactly when their digest files do not
differ.  The number of thread executors that run 2 opened goes to
stderr, and the script exits with status 1 when run 2 opened none on
a process that may use more than one CPU, where the comparison of the
runs would show nothing.  ``--src`` names the source tree to import
``galois_solve`` from (default: this checkout's ``src``).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def calls(seed: int, inputs: str):
    """(name, argv) of each distinct call of the two workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    seen = {}

    def add(argv, shown=None):
        name = " ".join([argv[0], pathlib.Path(argv[1]).name, *(shown or argv[2:])])
        seen.setdefault(name, argv)

    for workload in ("cli-files", "grid-lab"):
        planned, problems, _ = gen.plan(workload, seed, inputs, str(ROOT))
        for call in planned:
            argv = call["argv"]
            add(argv)
            if argv[0] == "lab":
                add(argv[:2])
            if call["class"] not in ("moreau", "ties", "table"):
                continue
            zero = json.dumps(dict.fromkeys(problems[call["id"]].problem.y_labels, 0))
            for tail in (["--json"], []):
                add(["apply", argv[1], "--direction", "Bstar", *tail])
                add(["apply", argv[1], "--direction", "B", "--f", zero, *tail],
                    ["--direction", "B", "--f", "0", *tail])
    return list(seen.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from galois_solve import cli, engine, kernel

    cpus, limit, executor = os.sched_getaffinity(0), kernel.DENSE_LIMIT, engine.ThreadPoolExecutor
    opened = []  # for each executor opened, the run that opened it

    class Counted(executor):
        def __init__(self, *args, **kwargs):
            opened.append(run)
            super().__init__(*args, **kwargs)

    engine.ThreadPoolExecutor = Counted
    try:
        with tempfile.TemporaryDirectory() as inputs:
            todo = calls(args.seed, inputs)
            for run, pinned, threads_above in (("1", {min(cpus)}, limit), ("2", cpus, 0)):
                os.sched_setaffinity(0, pinned)
                kernel.DENSE_LIMIT = threads_above
                for name, call in todo:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(call)
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                    print(run, name.replace(" ", "_"), code, digest)
    finally:
        os.sched_setaffinity(0, cpus)
        kernel.DENSE_LIMIT = limit
        engine.ThreadPoolExecutor = executor
    threaded = opened.count("2")
    print(f"run 2 opened {threaded} thread executors", file=sys.stderr)
    return 1 if threaded == 0 and len(cpus) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
