"""Self-tests of the benchmark: the reference checker, the span
arithmetic and the input generator.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

import gen
import reference as ref
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from galois_solve import cli, serialize  # noqa: E402

FIXTURES = [os.path.join(ROOT, "fixtures", name) for name in gen.FIXTURES]


def _solve(path, *flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", path, *flags])
    return code, out.getvalue()


def _write(tmp_path, inst):
    path = str(tmp_path / (inst.name + ".json"))
    gen.write_json(path, inst.doc)
    return path


def _small_batch(seed):
    """Seeded desk instances plus one small instance of every other
    class the workloads use."""
    insts = gen.desk_instances(seed)
    rng = np.random.default_rng(seed)
    for klass, prm in (("moreau", dict(shape=(30, 20), integer=True, density=0.3,
                                       bonus=False)),
                       ("moreau", dict(shape=(25, 25), integer=False, density=1.0,
                                       bonus=True)),
                       ("ties", dict(n=24)),
                       ("table", dict(shape=(12, 18), bonus=False)),
                       ("table", dict(shape=(15, 15), bonus=True))):
        base, integer = gen.kernel_problem(klass, prm, rng)
        for kind in (("const", "planted", "spike") if klass == "ties"
                     else ("planted", "random")):
            p = gen._with_target(base, gen.target(rng, base, kind, integer))
            insts.append(gen.Instance(f"{klass}-{kind}-{len(insts)}", klass,
                                      kind, p, gen._doc(p, integer)))
    return insts


@pytest.mark.parametrize("path", FIXTURES)
def test_reference_agrees_on_fixtures(path):
    with open(path) as fh:
        p = ref.problem_from_doc(json.load(fh))
    code, out = _solve(path, "--json")
    verdict = ref.check_report(p, json.loads(out))
    assert verdict.ok, verdict.errors
    assert code == (3 if verdict.status == "no_solution" else 0)
    text = ref.check_text(p, _solve(path)[1])
    assert text.ok, text.errors
    assert text.status == verdict.status


def test_reference_agrees_on_seeded_batch(tmp_path):
    statuses = set()
    for inst in _small_batch(5):
        path = _write(tmp_path, inst)
        code, out = _solve(path, "--json")
        verdict = ref.check_report(inst.problem, json.loads(out))
        assert verdict.ok, (inst.name, verdict.errors)
        assert code == (3 if verdict.status == "no_solution" else 0)
        text = ref.check_text(inst.problem, _solve(path)[1])
        assert text.ok, (inst.name, text.errors)
        statuses.add(verdict.status)
    assert statuses == {"unique", "multiple", "no_solution"}


def test_reference_agrees_on_grid_files(tmp_path):
    for inst in gen.grid_instances(3):
        path = _write(tmp_path, inst)
        code, out = _solve(path, "--json")
        verdict = ref.check_report(inst.problem, json.loads(out))
        assert verdict.ok, (inst.name, verdict.errors)


def _worked_example():
    from galois_solve.solver import solve

    path = FIXTURES[0]
    with open(path) as fh:
        p = ref.problem_from_doc(json.load(fh))
    rep = serialize.solution_to_report(solve(serialize.load_problem(path)))
    assert rep["status"] == "multiple"
    return p, rep


def test_reference_flags_removed_set_member():
    p, rep = _worked_example()
    bad = copy.deepcopy(rep)
    bad["cover"]["sets"]["y3"].remove("x2")
    assert not ref.check_report(p, bad).ok


def test_reference_flags_added_set_member():
    p, rep = _worked_example()
    bad = copy.deepcopy(rep)
    bad["cover"]["sets"]["y1"].append("x1")
    assert not ref.check_report(p, bad).ok


def test_reference_flags_altered_f_min():
    p, rep = _worked_example()
    bad = copy.deepcopy(rep)
    bad["f_min"]["y2"] = float(bad["f_min"]["y2"]) + 1.0
    assert not ref.check_report(p, bad).ok


def test_reference_flags_altered_report_on_large_instance(tmp_path):
    inst = gen.coupling_instances(2, {"m-sparse": ["planted"]}, True)["m-sparse"][0]
    path = _write(tmp_path, inst)
    rep = json.loads(_solve(path, "--json")[1])
    assert ref.check_report(inst.problem, rep).ok
    y = next(l for l, s in rep["cover"]["sets"].items() if s)
    bad = copy.deepcopy(rep)
    bad["cover"]["sets"][y] = bad["cover"]["sets"][y][1:]
    assert not ref.check_report(inst.problem, bad).ok
    bad = copy.deepcopy(rep)
    bad["f_min"][y] -= 1e-3
    assert not ref.check_report(inst.problem, bad).ok


def test_self_time_on_synthetic_tree():
    # A [0, 10] has B [1, 4] and C [3, 6] (overlapping, as from two
    # threads) and D [8, 9]; B has E [2, 3]; F [20, 21] is a root.
    tree = [(1, "A", 0.0, 10.0, 0), (2, "B", 1.0, 4.0, 1), (3, "C", 3.0, 6.0, 1),
            (4, "D", 8.0, 9.0, 1), (5, "E", 2.0, 3.0, 2), (6, "F", 20.0, 21.0, 0)]
    selfs = spans.self_times(tree)
    assert selfs == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0, 6: 1.0}
    dump = {"names": ["A", "B", "C", "D", "E", "F"],
            "spans": [[s[0], "ABCDEF".index(s[1]), s[2], s[3], s[4]] for s in tree],
            "counters": {}, "absent": []}
    m, absent = spans.layer_metrics(dump)
    assert absent == [] and set(m) == set(spans.metric_names())


@pytest.fixture
def galois_modules():
    """The galois_solve modules, restored after the test patched them."""
    from galois_solve import covering, engine, kernel, lab, solver

    gs = {"cli": cli, "serialize": serialize, "kernel": kernel,
          "engine": engine, "covering": covering, "solver": solver, "lab": lab}
    classes = (kernel.Kernel, covering.CoverFamily, engine.FunctionOnSpace)
    saved = [(m, dict(vars(m))) for m in gs.values()]
    saved += [(c, dict(vars(c))) for c in classes]
    yield gs
    for owner, attrs in saved:
        for k, v in attrs.items():
            if vars(owner).get(k) is not v:
                setattr(owner, k, v)


def test_tracer_counts_a_solve(galois_modules):
    tracer = spans.Tracer()
    spans.install(tracer, galois_modules)
    assert tracer.absent == []
    assert _solve(FIXTURES[0], "--json")[0] == 0
    m, absent = spans.layer_metrics(json.loads(json.dumps(tracer.dump())))
    assert absent == []
    assert m["cli.main.calls"] == 1 and m["solver.solve.calls"] == 1
    assert m["engine.adjoint_passes_per_solve"] == 2.0
    assert m["solver.status.multiple"] == 1
    assert m["scalar.slice_lookups"] > 0
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))


def test_absent_names_are_reported_not_raised():
    dump = {"names": [], "spans": [], "counters": {},
            "absent": ["engine.subdiff_inverse", "scalar.slice_lookups"]}
    m, absent = spans.layer_metrics(dump)
    assert absent == ["engine.subdiff_inverse", "scalar.slice_lookups"]
    assert "engine.subdiff_inverse.self_s" not in m
    assert "engine.adjoint_passes_per_solve" not in m
    assert "scalar.lookups_per_entry" not in m
    assert "engine.apply_adjoint.self_s" in m


def _digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["cli-files", "api-solve", "grid-lab"])
def test_same_seed_same_inputs(tmp_path, workload):
    runs = []
    for k, seed in enumerate((7, 7, 8)):
        d = str(tmp_path / f"run{k}")
        calls, _, kernels = gen.plan(workload, seed, d, ROOT)
        text = json.dumps({"calls": calls, "kernels": kernels}).replace(d, "")
        runs.append((_digest(d), text))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]
