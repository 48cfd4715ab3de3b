"""The galois-solve benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli-files,api-solve,grid-lab} \\
        --seed N --seconds S --trace {0,1}

Workloads (why each was chosen is in BENCHMARK.json and NOTES.md):

* ``cli-files``: in-process ``cli.main(["solve", path, "--json"])`` on
  seeded moreau / ties / table problem files, plus at least 100 text-mode
  desk calls on the fixtures and seeded instances of at most 6 x 6.
* ``api-solve``: the same kinds of instance through the library; the
  kernels are built during set-up, then ``solver.solve`` runs several
  targets per kernel.
* ``grid-lab``: ``lab <name> --json`` for the five experiments and
  ``solve --json`` on seeded grid-family files, with
  ``GALOIS_SOLVE_THREADS`` = min(2, nproc).

One round is one fresh worker process: it sets up, then runs the fixed
call list once, sequentially, as a closed loop with one client.  Rounds
repeat while the next one is expected to end within ``--seconds``; the
timings reported are medians over rounds, scaled to a reference host
speed measured by the fixed loop in ``speed.py`` (the unscaled figures
are printed too).  Every output is checked against the numpy reference
in ``reference.py``.  With ``--trace 1``
every second round is traced from outside the program (``spans.py``),
and the per-layer metrics and the tracing overhead come from those.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import gen
import reference as ref
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli-files", "api-solve", "grid-lab")

#: Whole-run ceiling on the timed rounds, well inside the 180 s limit.
MAX_RUN_S = 140.0
ROUND_TIMEOUT_S = 170.0
#: Set-up is sampled in every round and, while cheap, by set-up-only probes.
SETUP_SAMPLES = 15
SETUP_PROBE_S = 5.0

#: workload metric name -> call class whose per-round sum it is
CLASS_METRICS = {"moreau_s": "moreau", "ties_s": "ties", "table_s": "table",
                 "grid_solve_s": "grid", "lab_s": "lab"}
APPLIES = {
    "cli-files": ("moreau_s", "ties_s", "table_s", "desk_p50_ms", "desk_p90_ms"),
    "api-solve": ("moreau_s", "ties_s", "table_s"),
    "grid-lab": ("grid_solve_s", "lab_s"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _worker_env(workload: str, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("GALOIS_SOLVE_THREADS", None)
    if workload == "grid-lab":
        env["GALOIS_SOLVE_THREADS"] = str(min(2, nproc))
    return env


def _spawn(manifest, wdir, env, name, traced=False, setup_only=False):
    """Run one worker; return its result with ``setup_s`` and the
    process's wall time from spawn to exit."""
    result = os.path.join(wdir, f"{name}.json")
    span_file = os.path.join(wdir, f"{name}.spans.json")
    argv = [sys.executable, WORKER, manifest, result, "1" if traced else "0",
            span_file] + (["setup-only"] if setup_only else [])
    t_spawn = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    duration = time.perf_counter() - t_spawn
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr}")
    with open(result) as fh:
        res = json.load(fh)
    if not os.path.realpath(res["module_file"]).startswith(
            os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise BenchError(f"imported galois_solve from {res['module_file']}")
    res["setup_raw_s"] = res["t_first"] - t_spawn - res["excluded_s"]
    loops = res["loops"]
    res["setup_s"] = res["setup_raw_s"] * speed.REFERENCE_S / \
        statistics.fmean(loops[:res["setup_loops"] + 1])
    for c in res["calls"]:
        if c["seconds"] is not None:
            near = loops[max(0, c["loop"] - 1):c["loop"] + 3]
            c["raw_s"] = c["seconds"]
            c["seconds"] *= speed.REFERENCE_S / statistics.fmean(near)
    res["traced"] = traced
    if traced:
        with open(span_file) as fh:
            res["layers"] = spans.layer_metrics(json.load(fh))
    return res, duration


def run_rounds(manifest, wdir, env, seconds, trace):
    """Fresh worker processes, one round each, until the next round is
    expected to overrun ``seconds``.  Traced runs alternate untraced and
    traced rounds, starting untraced."""
    rounds, durations = [], []
    t_start = time.perf_counter()
    budget = min(float(seconds), MAX_RUN_S)
    while True:
        traced = trace and len(rounds) % 2 == 1
        res, duration = _spawn(manifest, wdir, env, f"round{len(rounds)}", traced)
        rounds.append(res)
        durations.append(duration)
        elapsed = time.perf_counter() - t_start
        enough = len(rounds) >= (2 if trace else 1)
        if enough and elapsed + statistics.median(durations) > budget:
            return rounds


def setup_probes(manifest, wdir, env, rounds):
    """Set-up-only workers adding set-up samples to the rounds' own,
    while there are fewer than SETUP_SAMPLES and the probes so far plus
    one more are expected to take at most SETUP_PROBE_S."""
    probes, spent = [], 0.0
    typical = statistics.median(r["setup_raw_s"] for r in rounds)
    while len(rounds) + len(probes) < SETUP_SAMPLES and \
            spent + typical <= SETUP_PROBE_S:
        res, duration = _spawn(manifest, wdir, env, f"setup{len(probes)}",
                               setup_only=True)
        probes.append(res)
        spent += duration
    return probes


# ----------------------------------------------------------------------
# checking


def check_call(res: dict, inst) -> ref.Verdict:
    """The reference verdict on one call's output, exit code included."""
    if "error" in res:
        return ref.Verdict([res["error"].strip().splitlines()[-1]])
    if res["class"] == "lab":
        if res["exit"] != 0:
            return ref.Verdict([f"lab exited {res['exit']}: {res['stderr']}"])
        try:
            return ref.check_lab(res["id"], json.loads(res["stdout"]))
        except json.JSONDecodeError as exc:
            return ref.Verdict([f"lab output is not JSON: {exc}"])
    if "report" in res:
        return ref.check_report(inst.problem, res["report"])
    if res["class"] == "desk":
        verdict = ref.check_text(inst.problem, res["stdout"])
    else:
        try:
            verdict = ref.check_report(inst.problem, json.loads(res["stdout"]))
        except json.JSONDecodeError as exc:
            return ref.Verdict([f"solve output is not JSON: {exc}; "
                                f"stderr {res['stderr']!r}"])
    want = 3 if verdict.status == "no_solution" else 0
    if res["exit"] != want:
        verdict.errors.append(f"exit code {res['exit']}, expected {want}")
    return verdict


def check_rounds(rounds, problems):
    """(attempted, failed, failure notes, verdict per call id).  Outputs
    identical to an already checked one reuse its verdict."""
    seen, verdicts = {}, {}
    attempted = failed = 0
    notes = []
    for res in (r for rnd in rounds for r in rnd["calls"]):
        attempted += 1
        key = hashlib.sha256(json.dumps(
            [res["id"], res.get("exit"), res.get("stdout"), res.get("report"),
             res.get("error")], sort_keys=True).encode()).hexdigest()
        if key not in seen:
            seen[key] = check_call(res, problems[res["id"]])
        verdict = seen[key]
        verdicts.setdefault(res["id"], verdict)
        if not verdict.ok:
            failed += 1
            if len(notes) < 10:
                notes.append(f"{res['id']}: {'; '.join(verdict.errors[:3])}")
    return attempted, failed, notes, verdicts


# ----------------------------------------------------------------------
# metrics


def call_medians(rounds, key="seconds"):
    """(call id -> median of ``key`` over ``rounds``, call id -> class)."""
    per_call, klass = defaultdict(list), {}
    for r in rounds:
        for c in r["calls"]:
            klass[c["id"]] = c["class"]
            if c["seconds"] is not None:
                per_call[c["id"]].append(c[key])
    return {cid: statistics.median(ts) for cid, ts in per_call.items()}, klass


def end_to_end(rounds, probes) -> dict:
    """End-to-end metrics over untraced rounds.

    Times are scaled to the reference host (``speed.py``); ``wall_raw_s``
    and ``setup_raw_s`` are the same figures unscaled.  Every round runs
    the same call list, so each call's time is taken as its median over
    rounds; ``wall_s`` and the class metrics sum those medians, which
    keeps a stall in one round out of the result.  Set-up time is the
    median over all rounds and set-up probes, peak RSS the largest of
    the untraced rounds, and desk latencies are pooled over rounds.
    """
    plain = [r for r in rounds if not r["traced"]]
    call_s, klass = call_medians(plain)
    setups = rounds + probes
    m = {
        "setup_s": _median([r["setup_s"] for r in setups]),
        "setup_raw_s": _median([r["setup_raw_s"] for r in setups]),
        "setup_samples": len(setups),
        "wall_s": sum(call_s.values()),
        "wall_raw_s": sum(call_medians(plain, "raw_s")[0].values()),
        "host.reference_loop_s": _median([t for r in rounds for t in r["loops"]]),
        "peak_rss_mb": max(r["maxrss_mb"] for r in plain),
    }
    for name, want in CLASS_METRICS.items():
        m[name] = sum(t for cid, t in call_s.items() if klass[cid] == want)
    desk = [c["seconds"] * 1e3 for r in plain for c in r["calls"]
            if c["class"] == "desk" and c["seconds"] is not None]
    m["desk_calls"] = len(desk)
    if len(desk) >= 2:
        m["desk_p50_ms"] = statistics.median(desk)
        m["desk_p90_ms"] = statistics.quantiles(desk, n=10)[8]
    else:
        m["desk_p50_ms"] = m["desk_p90_ms"] = 0.0
    return m


def per_layer(rounds, e2e: dict, attempted: int, failed: int):
    traced = [r for r in rounds if r["traced"]]
    per_round = [r["layers"][0] for r in traced]
    m = {k: _median([pr[k] for pr in per_round]) for k in per_round[0]}
    for name in ("moreau_s", "ties_s", "table_s", "grid_solve_s", "lab_s",
                 "desk_p50_ms", "desk_p90_ms", "desk_calls", "wall_raw_s",
                 "setup_raw_s", "host.reference_loop_s"):
        m[name] = e2e[name]
    m["error_rate"] = failed / attempted if attempted else 0.0
    traced_wall = sum(call_medians(traced)[0].values())
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    m["trace.overhead_ratio"] = (traced_wall - e2e["wall_s"]) / e2e["wall_s"]
    absent = sorted({a for r in traced for a in r["layers"][1]})
    return m, absent


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if any(w in name for w in ("ratio", "per_solve", "per_entry", "error_rate")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# provenance


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and \
            os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        return lines[1]
    return None


def _src_sha():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "galois_solve", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args, rounds, problems, verdicts, nproc) -> dict:
    classes = defaultdict(lambda: {"status_mix": Counter(), "set_sizes": [],
                                   "calls": 0})
    shapes = {}
    for cid, inst in problems.items():
        if inst is None:
            continue
        v = verdicts.get(cid)
        cls = classes[inst.klass]
        cls["calls"] += 1
        if v is not None and v.status:
            cls["status_mix"][v.status] += 1
        if v is not None and v.mean_set_size is not None:
            cls["set_sizes"].append(v.mean_set_size)
        if inst.klass != "desk":
            shapes[inst.name] = list(inst.problem.shape)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": sum(not r["traced"] for r in rounds),
        "traced_rounds": sum(r["traced"] for r in rounds),
        "classes": {k: {"status_mix": dict(v["status_mix"]),
                        "mean_covering_set_size":
                            statistics.fmean(v["set_sizes"]) if v["set_sizes"] else None,
                        "calls_per_round": v["calls"]}
                    for k, v in sorted(classes.items())},
        "kernel_shapes": shapes,
        "GALOIS_SOLVE_THREADS": rounds[0]["threads"] or "unset",
        "nproc": nproc,
        "python": rounds[0]["python"],
        "numpy": rounds[0]["numpy"],
        "git_sha": _git_sha(),
        "src_sha256": _src_sha(),
    }


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "galois_solve", "__init__.py")):
        print(f"error: no galois_solve sources under {ROOT}/src", file=sys.stderr)
        return 2
    wdir = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(wdir, ignore_errors=True)
    inputs = os.path.join(wdir, "inputs")
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(args.workload, nproc)
    try:
        calls, problems, kernels = gen.plan(args.workload, args.seed, inputs, ROOT)
        manifest = os.path.join(wdir, "manifest.json")
        gen.write_json(manifest, {"calls": calls, "kernels": kernels})
        # compile the sources once, so no round pays for it
        subprocess.run([sys.executable, "-c", "import galois_solve.cli"],
                       env=env, cwd=ROOT, check=True, timeout=ROUND_TIMEOUT_S,
                       capture_output=True)
        rounds = run_rounds(manifest, wdir, env, args.seconds, bool(args.trace))
        probes = setup_probes(manifest, wdir, env, rounds)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted, failed, notes, verdicts = check_rounds(rounds, problems)
    e2e = end_to_end(rounds, probes)
    prov = provenance(args, rounds, problems, verdicts, nproc)
    for note in notes:
        print(f"FAILED {note}")

    plain = prov["rounds"]
    print(f"{args.workload} seed {args.seed}: {plain} untraced round(s), "
          f"{prov['traced_rounds']} traced, fresh process each; reference "
          f"loop {e2e['host.reference_loop_s']:.4g} s here, times scaled to "
          f"{speed.REFERENCE_S} s")
    shown = ("setup_s", "wall_s") + APPLIES[args.workload] + ("peak_rss_mb",)
    for name in shown:
        extra = f"  (median of {plain} rounds)"
        if name.startswith("desk_"):
            extra = f"  (n={e2e['desk_calls']} calls)"
        elif name == "setup_s":
            extra = (f"  (median of {e2e['setup_samples']} fresh processes; "
                     f"unscaled {e2e['setup_raw_s']:.6g} s)")
        elif name == "wall_s":
            extra = (f"  (sum of per-call medians over {plain} rounds; "
                     f"unscaled {e2e['wall_raw_s']:.6g} s)")
        elif name == "peak_rss_mb":
            extra = f"  (largest of {plain} rounds)"
        print(f"  {name:<14} {e2e[name]:>12.6g} {unit_of(name):<5}{extra}")
    print(f"  {'error_rate':<14} {failed / attempted:>12.6g} ratio "
          f"({failed} failed of {attempted} attempted)")

    if args.trace:
        metrics, absent = per_layer(rounds, e2e, attempted, failed)
        prov["absent"] = absent
        print(f"  tracing overhead {metrics['trace.overhead_s']:.4g} s "
              f"({100 * metrics['trace.overhead_ratio']:.1f}% of wall_s)")
        for name in sorted(metrics):
            if metrics[name]:
                print(f"  {name:<40} {metrics[name]:>14.6g} {unit_of(name)}")
        if absent:
            print(f"  absent: {', '.join(absent)}")
    else:
        metrics = {k: e2e[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
    print("provenance: " + json.dumps(prov, sort_keys=True))
    gen.write_json(os.path.join(wdir, "result.json"),
                   {"provenance": prov, "end_to_end": e2e, "metrics": metrics})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
