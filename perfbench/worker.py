"""One benchmark round, run in a fresh process by ``run.py``.

Usage: python3 worker.py MANIFEST RESULT TRACE SPANS [setup-only]

Sets up (imports galois_solve and, for api-solve, builds the kernels),
then runs the manifest's call list once, sequentially, timing each call;
with ``setup-only`` it stops after the set-up.  Reading the generated
inputs and running the reference loop (``speed.py``) are timed apart so
that ``run.py`` can leave them out of the set-up time.  The reference
loop runs at start, after each kernel build, before the first call,
after every ``LOOP_EVERY_S`` of calls, and after the last call.  Outputs are
checked by ``run.py``, not here.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

#: Seconds of calls between two runs of the reference loop.
LOOP_EVERY_S = 1.0


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    t1 = time.perf_counter()
    return t1 - t0, {"exit": code, "stdout": out.getvalue(),
                     "stderr": err.getvalue()}


def main(argv):
    manifest_path, result_path, trace, spans_path = argv[:4]
    setup_only = argv[4:] == ["setup-only"]
    import numpy as np

    t_loop = time.perf_counter()
    import speed

    reference = speed.ReferenceLoop()
    loops = [reference.run()]
    loop_setup_s = time.perf_counter() - t_loop

    import galois_solve
    from galois_solve import cli, covering, engine, kernel, lab, serialize, solver

    gs = {"cli": cli, "serialize": serialize, "kernel": kernel,
          "engine": engine, "covering": covering, "solver": solver, "lab": lab}
    to_report = serialize.solution_to_report
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, gs)

    t_load = time.perf_counter()
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    tables, targets = {}, {}
    for name, spec in manifest["kernels"].items():
        if spec["kind"] == "table":
            with open(spec["path"]) as fh:
                tables[name] = json.load(fh)
        else:
            tables[name] = np.load(spec["path"]).tolist()
        targets[name] = np.load(spec["targets"])
    load_s = time.perf_counter() - t_load

    kernels, gfuns = {}, {}
    for name, spec in manifest["kernels"].items():
        build = kernel.build_table if spec["kind"] == "table" else kernel.build_moreau
        kernels[name] = build(tables.pop(name))
        gfuns[name] = [engine.FunctionOnSpace(kernels[name].x_labels, g)
                       for g in targets[name]]
        t_loop = time.perf_counter()
        loops.append(reference.run())
        loop_setup_s += time.perf_counter() - t_loop

    t_loop = time.perf_counter()
    loops.append(reference.run())
    loop_setup_s += time.perf_counter() - t_loop
    setup_loops = len(loops)

    results, pending = [], []
    since_loop = 0.0
    t_first = time.perf_counter()
    for call in [] if setup_only else manifest["calls"]:
        if since_loop >= LOOP_EVERY_S:
            loops.append(reference.run())
            since_loop = 0.0
        res = {"id": call["id"], "class": call["class"], "seconds": None,
               "loop": len(loops) - 1}
        if "argv" in call:
            try:
                res["seconds"], out = _cli_call(cli, call["argv"])
                res.update(out)
            except Exception:
                res["error"] = traceback.format_exc()
        else:
            k = kernels[call["kernel"]]
            g = gfuns[call["kernel"]][call["target"]]
            t0 = time.perf_counter()
            try:
                sol = solver.solve(solver.Problem(k, g))
                res["seconds"] = time.perf_counter() - t0
                pending.append((res, sol))
            except Exception:
                res["error"] = traceback.format_exc()
        results.append(res)
        since_loop += res["seconds"] or 0.0
    loops.append(reference.run())
    # reports are made after the timed phase, with the untraced function
    for res, sol in pending:
        res["report"] = to_report(sol)

    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    doc = {
        "t_first": t_first,
        "excluded_s": load_s + loop_setup_s,
        "loops": loops,
        "setup_loops": setup_loops,
        "calls": results,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "module_file": galois_solve.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": os.environ.get("GALOIS_SOLVE_THREADS"),
    }
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
