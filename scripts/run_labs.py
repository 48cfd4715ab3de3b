#!/usr/bin/env python3
"""Run every grid experiment and print a summary table.

Usage:
    python scripts/run_labs.py [--csv-dir DIR] [--json]

With --csv-dir each experiment's sampled curves are dumped as CSV for
external plotting.
"""

import argparse
import json
import pathlib
import sys
import time

from galois_solve.lab import EXPERIMENTS, run_experiment, write_curves_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv-dir", default=None)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    rows = []
    all_ok = True
    for name in EXPERIMENTS:
        t0 = time.perf_counter()
        result = run_experiment(name)
        dt = time.perf_counter() - t0
        rows.append((name, result, dt))
        all_ok = all_ok and result.passed
        if args.csv_dir and result.curves:
            out = pathlib.Path(args.csv_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_curves_csv(out / f"{name.replace('-', '_')}.csv", result.curves)

    if args.json:
        print(json.dumps(
            {name: r.to_dict() for name, r, _ in rows}, indent=2, sort_keys=True
        ))
    else:
        print(f"{'experiment':<16} {'result':<6} {'max error':>12} "
              f"{'tolerance':>12} {'time':>8}")
        for name, r, dt in rows:
            print(f"{name:<16} {'PASS' if r.passed else 'FAIL':<6} "
                  f"{r.max_abs_error:>12.4g} {r.tolerance:>12.4g} {dt:>7.1f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
