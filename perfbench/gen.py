"""Seeded inputs for the three workloads.

Only numpy and the standard library: galois-solve never sees the seed,
only the files and arrays made from it.  Each instance draws from its
own stream ``default_rng([seed, k])``, so one seed always gives
byte-identical files.  Planted targets ``g = B f0`` come from the
reference forward transform, so a solution is known to exist; random
targets usually have none.  The instance lists below are sized so a
round of each workload takes a few seconds on a 2-core machine; the
largest coupling tables hold 10^6 entries, the size above which grid
kernels switch to lazy rows and columns.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import reference as ref

FIXTURES = ("worked_example.json", "worked_example_unsolvable.json",
            "moreau_small.json")
DESK_SEEDED = 37
DESK_PASSES = 3
LABS = ("fenchel", "quadratic", "lipschitz", "weighted-power", "exgeom")

# (name, table parameters) per class; the target lists below pick the
# kernels of each workload: one file per target in cli-files, one kernel
# with all its targets in api-solve.
MOREAU = [
    ("m-square", dict(shape=(900, 900), integer=False, density=1.0, bonus=False)),
    ("m-tall", dict(shape=(2000, 500), integer=True, density=0.1, bonus=True)),
    ("m-wide", dict(shape=(500, 2000), integer=True, density=1.0, bonus=False)),
    ("m-sparse", dict(shape=(200, 200), integer=False, density=0.1, bonus=True)),
    ("m-int", dict(shape=(200, 200), integer=True, density=1.0, bonus=False)),
]
TIES = [("t-half", dict(n=300)), ("t-big", dict(n=500))]
TABLE = [
    ("b-small", dict(shape=(150, 150), bonus=False)),
    ("b-mixed", dict(shape=(150, 250), bonus=False)),
    ("b-unique", dict(shape=(220, 220), bonus=True)),
]

CLI_TARGETS = {
    "m-square": ["planted"], "m-tall": ["planted"], "m-wide": ["random"],
    "m-sparse": ["random"], "m-int": ["planted"],
    "t-half": ["const", "planted", "spike"],
    "b-small": ["planted"], "b-mixed": ["random"], "b-unique": ["planted"],
}
API_TARGETS = {
    "m-square": ["planted", "random", "planted"],
    "m-tall": ["planted", "random", "planted"],
    "m-sparse": ["planted", "random", "planted"],
    "t-big": ["const", "planted", "spike"],
    "b-small": ["planted", "random", "planted"],
    "b-unique": ["planted", "random", "planted"],
}

# grid-family files: (name, family, params, x grid, y grid, target kind)
GRIDS = [
    ("g-lipschitz", "omega_lipschitz", {"a": 1.0, "q": 1.0},
     {"min": -5.0, "max": 5.0, "step": 1 / 200}, None, "planted"),
    ("g-quadratic", "quadratic", {"a": 1.0},
     {"min": -3.0, "max": 3.0, "step": 3 / 800}, None, "random"),
    ("g-fenchel", "fenchel_dot", {},
     {"min": -2.0, "max": 2.0, "step": 1 / 300},
     {"min": -4.0, "max": 4.0, "step": 1 / 150}, "planted"),
    ("g-wpower", "weighted_power", {"p": 1.5},
     {"dims": [[-2.0, 2.0, 0.1], [0.5, 4.0, 0.5]]},
     {"min": -4.0, "max": 4.0, "step": 0.01}, "planted"),
]


@dataclass
class Instance:
    """One problem: its reference form, its class and how its target
    was made.  ``doc`` is the problem-file document, when one is written."""

    name: str
    klass: str
    target: str
    problem: ref.RefProblem
    doc: Optional[dict] = None


# ----------------------------------------------------------------------
# coupling tables and targets


def _repair_support(rng, finite: np.ndarray) -> np.ndarray:
    """Give every row and every column at least one finite entry."""
    nx, ny = finite.shape
    finite[np.arange(nx), rng.integers(0, ny, nx)] = True
    finite[rng.integers(0, nx, ny), np.arange(ny)] = True
    return finite


def moreau_table(rng, shape, integer: bool, density: float, bonus: bool):
    nx, ny = shape
    if integer:
        b = rng.integers(-50, 51, shape).astype(float)
    else:
        b = rng.normal(size=shape)
    if density < 1.0:
        finite = _repair_support(rng, rng.random(shape) < density)
    else:
        finite = np.ones(shape, dtype=bool)
    if bonus:
        # every y owns one x outright, so planted targets are unique
        k = min(nx, ny)
        rows = rng.permutation(nx)[:k]
        cols = rng.permutation(ny)[:k]
        finite[rows, cols] = True
        b[rows, cols] += 200.0 if integer else 20.0
    return np.where(finite, b, -math.inf)


def ties_table(rng, n: int) -> np.ndarray:
    return (rng.random((n, n)) < 0.5).astype(float)


def table_forms(rng, shape, bonus: bool) -> Dict[str, np.ndarray]:
    nx, ny = shape
    code = rng.choice([ref.AFFINE, ref.SPOWER, ref.TABULATED, ref.OFF],
                      size=shape, p=[0.5, 0.2, 0.2, 0.1]).astype(np.int8)
    support = _repair_support(rng, code != ref.OFF)
    code[support & (code == ref.OFF)] = ref.AFFINE
    c = rng.normal(size=shape)
    m = rng.uniform(0.5, 2.0, shape)
    shift = np.where(code == ref.SPOWER, rng.normal(0.0, 0.5, shape), 0.0)
    s0, t0 = rng.normal(size=shape), rng.normal(size=shape)
    ds = rng.uniform(0.2, 1.5, shape + (2,))
    dt = rng.uniform(0.2, 1.5, shape + (2,))
    pts = np.stack([
        np.stack([s0, s0 + ds[..., 0], s0 + ds[..., 0] + ds[..., 1]], -1),
        np.stack([t0, t0 - dt[..., 0], t0 - dt[..., 0] - dt[..., 1]], -1),
    ], -1)
    if bonus:
        k = min(nx, ny)
        rows, cols = np.arange(k), rng.permutation(ny)[:k]
        code[rows, cols] = ref.AFFINE
        c[rows, cols] += 20.0
        m[rows, cols] = 1.0
    return {"code": code, "c": c, "m": m, "shift": shift, "pts": pts}


def entries_json(forms: Dict[str, np.ndarray]) -> List[List[dict]]:
    code = forms["code"].tolist()
    c, m, sh = forms["c"].tolist(), forms["m"].tolist(), forms["shift"].tolist()
    pts = forms["pts"].tolist()
    rows = []
    for i, crow in enumerate(code):
        row = []
        for j, k in enumerate(crow):
            if k == ref.AFFINE:
                row.append({"type": "affine", "c": c[i][j], "m": m[i][j]})
            elif k == ref.SPOWER:
                row.append({"type": "signed_power", "c": c[i][j], "p": m[i][j],
                            "shift": sh[i][j]})
            elif k == ref.TABULATED:
                row.append({"type": "table", "points": pts[i][j]})
            else:
                row.append({"type": "off"})
        rows.append(row)
    return rows


def bbar_json(b: np.ndarray, integer: bool) -> list:
    if integer:
        return [[int(v) if v != -math.inf else "-inf" for v in r] for r in b.tolist()]
    if np.isneginf(b).any():
        return [[v if v != -math.inf else "-inf" for v in r] for r in b.tolist()]
    return b.tolist()


def target(rng, p: ref.RefProblem, kind: str, integer: bool) -> np.ndarray:
    """A target on the x side: planted ``B f0``, uniform random in the
    planted range, constant 1, or constant 1 with one unreachable spike."""
    nx, ny = p.shape
    if kind == "const":
        return np.ones(nx)
    if kind == "spike":
        g = np.ones(nx)
        g[rng.integers(nx)] = 5.0
        return g
    f0 = rng.integers(0, 21, ny).astype(float) if integer else rng.uniform(0, 1, ny)
    if p.kind == "moreau" and set(np.unique(p.bbar)) <= {0.0, 1.0}:
        f0 = rng.integers(0, 2, ny).astype(float)
    g = ref.forward(p, f0)
    if kind == "planted":
        return g
    if integer:
        return rng.integers(int(g.min()), int(g.max()) + 1, nx).astype(float)
    return rng.uniform(g.min(), g.max(), nx)


def _labels(prefix, n):
    return [f"{prefix}{k + 1}" for k in range(n)]


def kernel_problem(klass: str, params: dict, rng) -> Tuple[ref.RefProblem, bool]:
    if klass == "moreau":
        b = moreau_table(rng, **params)
        nx, ny = b.shape
        return ref.RefProblem("moreau", _labels("x", nx), _labels("y", ny),
                              np.zeros(nx), bbar=b), params["integer"]
    if klass == "ties":
        b = ties_table(rng, params["n"])
        n = params["n"]
        return ref.RefProblem("moreau", _labels("x", n), _labels("y", n),
                              np.zeros(n), bbar=b), True
    forms = table_forms(rng, params["shape"], params["bonus"])
    nx, ny = params["shape"]
    return ref.RefProblem("table", _labels("x", nx), _labels("y", ny),
                          np.zeros(nx), forms=forms), False


def _with_target(p: ref.RefProblem, g: np.ndarray) -> ref.RefProblem:
    return ref.RefProblem(p.kind, p.x_labels, p.y_labels, g, p.tol,
                          bbar=p.bbar, forms=p.forms, grid=p.grid)


def coupling_instances(seed: int, targets: Dict[str, List[str]],
                       with_docs: bool) -> Dict[str, List[Instance]]:
    """Kernels of the three classes, each with its list of targets."""
    specs = [("moreau", n, prm) for n, prm in MOREAU]
    specs += [("ties", n, prm) for n, prm in TIES]
    specs += [("table", n, prm) for n, prm in TABLE]
    out = {}
    for k, (klass, name, prm) in enumerate(specs):
        if name not in targets:
            continue
        rng = np.random.default_rng([seed, k])
        base, integer = kernel_problem(klass, prm, rng)
        insts = []
        for t, kind in enumerate(targets[name]):
            p = _with_target(base, target(rng, base, kind, integer))
            doc = _doc(p, integer) if with_docs else None
            insts.append(Instance(f"{name}.{t}-{kind}", klass, kind, p, doc))
        out[name] = insts
    return out


def _doc(p: ref.RefProblem, integer: bool) -> dict:
    if p.kind == "moreau":
        kernel = {"type": "moreau", "bbar": bbar_json(p.bbar, integer)}
    else:
        kernel = {"type": "table", "entries": entries_json(p.forms)}
    g = p.g.tolist()
    if integer:
        g = [int(v) for v in g]
    return {"kernel": kernel, "g": dict(zip(p.x_labels, g))}


# ----------------------------------------------------------------------
# desk instances


def desk_instances(seed: int) -> List[Instance]:
    """Seeded problems of at most 6 x 6, half coupling tables with -inf
    entries, half explicit affine / signed-power / off tables."""
    out = []
    for k in range(DESK_SEEDED):
        rng = np.random.default_rng([seed, 1000 + k])
        nx, ny = rng.integers(1, 7, 2)
        if k % 2 == 0:
            b = rng.integers(-3, 4, (nx, ny)).astype(float)
            finite = _repair_support(rng, rng.random((nx, ny)) < 0.7)
            b = np.where(finite, b, -math.inf)
            p = ref.RefProblem("moreau", _labels("x", nx), _labels("y", ny),
                               np.zeros(nx), bbar=b)
        else:
            code = rng.choice([ref.AFFINE, ref.SPOWER, ref.OFF], size=(nx, ny),
                              p=[0.6, 0.25, 0.15]).astype(np.int8)
            support = _repair_support(rng, code != ref.OFF)
            code[support & (code == ref.OFF)] = ref.AFFINE
            forms = {
                "code": code,
                "c": rng.integers(-4, 5, (nx, ny)).astype(float),
                "m": np.where(code == ref.SPOWER,
                              rng.choice([0.5, 2.0], (nx, ny)),
                              rng.integers(1, 4, (nx, ny)).astype(float)),
                "shift": np.zeros((nx, ny)),
                "pts": np.zeros((nx, ny, 2, 2)),
            }
            p = ref.RefProblem("table", _labels("x", nx), _labels("y", ny),
                               np.zeros(nx), forms=forms)
        if rng.random() < 0.5:
            g = ref.forward(p, rng.integers(-3, 4, ny).astype(float))
        else:
            g = rng.integers(-3, 4, nx).astype(float)
        p = _with_target(p, g)
        out.append(Instance(f"desk-{k}", "desk", "seeded", p,
                            _doc(p, integer=False)))
    return out


# ----------------------------------------------------------------------
# grid-family files


def _smooth(rng, x: np.ndarray) -> np.ndarray:
    amp = rng.uniform(0.1, 0.5, 4)
    freq = rng.uniform(0.5, 3.0, 4)
    phase = rng.uniform(0.0, 2 * math.pi, 4)
    return (amp[:, None] * np.sin(freq[:, None] * x[None, :] + phase[:, None])).sum(0)


def grid_instances(seed: int) -> List[Instance]:
    out = []
    for k, (name, fam, prm, xg, yg, kind) in enumerate(GRIDS):
        rng = np.random.default_rng([seed, 2000 + k])
        spec = {"type": "grid", "family": fam, "x_grid": xg,
                "y_grid": yg or xg, "params": prm}
        p = ref.grid_problem(spec)
        yp = p.grid["yp"]
        if kind == "planted":
            f0 = _smooth(rng, yp)
            if fam in ("fenchel_dot", "weighted_power"):
                f0 = f0 + 0.5 * yp * yp
            g = ref.forward(p, f0)
        else:
            xp = p.grid["xp"]
            g = _smooth(rng, xp)
        p = _with_target(p, g)
        doc = {"kernel": spec, "g": dict(zip(p.x_labels, g.tolist()))}
        out.append(Instance(name, "grid", kind, p, doc))
    return out


# ----------------------------------------------------------------------
# plans


def write_json(path: str, doc) -> None:
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)


def plan(workload: str, seed: int, inputs: str, root: str):
    """Write the inputs of one workload and return (calls, problems,
    kernels): the worker's call list, the reference problem per call
    id, and for api-solve the kernel files the worker builds from."""
    os.makedirs(inputs, exist_ok=True)
    calls, problems, kernels = [], {}, {}

    def add_file(inst: Instance, argv_tail):
        path = os.path.join(inputs, inst.name + ".json")
        write_json(path, inst.doc)
        cid = f"{len(calls):03d}:{inst.name}"
        calls.append({"id": cid, "class": inst.klass,
                      "argv": ["solve", path] + argv_tail})
        problems[cid] = inst

    if workload == "cli-files":
        for insts in coupling_instances(seed, CLI_TARGETS, True).values():
            for inst in insts:
                add_file(inst, ["--json"])
        desk = []
        for name in FIXTURES:
            path = os.path.join(root, "fixtures", name)
            with open(path) as fh:
                desk.append((path, Instance(name, "desk", "fixture",
                                            ref.problem_from_doc(json.load(fh)))))
        for inst in desk_instances(seed):
            path = os.path.join(inputs, inst.name + ".json")
            write_json(path, inst.doc)
            desk.append((path, inst))
        for _ in range(DESK_PASSES):
            for path, inst in desk:
                cid = f"{len(calls):03d}:{inst.name}"
                calls.append({"id": cid, "class": "desk", "argv": ["solve", path]})
                problems[cid] = inst
    elif workload == "api-solve":
        for name, insts in coupling_instances(seed, API_TARGETS, False).items():
            p0 = insts[0].problem
            if p0.kind == "table":
                kpath = os.path.join(inputs, name + ".entries.json")
                write_json(kpath, entries_json(p0.forms))
            else:
                kpath = os.path.join(inputs, name + ".bbar.npy")
                np.save(kpath, p0.bbar)
            tpath = os.path.join(inputs, name + ".targets.npy")
            np.save(tpath, np.stack([i.problem.g for i in insts]))
            kernels[name] = {"kind": p0.kind, "path": kpath, "targets": tpath}
            for t, inst in enumerate(insts):
                cid = f"{len(calls):03d}:{inst.name}"
                calls.append({"id": cid, "class": inst.klass,
                              "kernel": name, "target": t})
                problems[cid] = inst
    elif workload == "grid-lab":
        for name in LABS:
            cid = f"{len(calls):03d}:lab-{name}"
            calls.append({"id": cid, "class": "lab",
                          "argv": ["lab", name, "--json"]})
            problems[cid] = None
        for inst in grid_instances(seed):
            add_file(inst, ["--json"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls, problems, kernels
