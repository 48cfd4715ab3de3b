"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its measured numbers (run with -s or -v to see them).

Criteria 4 and 5 share one deterministically seeded family of 1000
random coupling-table instances.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import approx_eq, constant, dirac, random_function, random_moreau_kernel
from galois_solve.covering import CoverFamily, check_cover
from galois_solve.engine import (
    FunctionOnSpace,
    apply_adjoint,
    apply_forward,
    projector,
    subdiff_inverse,
)
from galois_solve.lab import (
    exgeom_experiment,
    fenchel_experiment,
    lipschitz_experiment,
    quadratic_experiment,
    weighted_power_experiment,
)
from galois_solve.solver import Problem, Status, oracle_check, solve, verify

SQRT6 = math.sqrt(6.0)
SQRT3 = math.sqrt(3.0)


def _report(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def random_family():
    rng = random.Random(20240551)
    family = []
    for _ in range(1000):
        k = random_moreau_kernel(rng)
        f = random_function(rng, k.y_labels)
        f2 = random_function(rng, k.y_labels)
        g = random_function(rng, k.x_labels)
        family.append((k, f, f2, g))
    return family


def test_criterion_1_worked_example(demo_kernel, demo_g):
    t0 = time.perf_counter()
    sol = solve(Problem(demo_kernel, demo_g))
    closed = np.array([-SQRT6, -4.0 / 3.0, -6.0])
    ok_fmin = bool(np.all(np.abs(sol.f_min.values - closed) <= 1e-12))
    _, inv = subdiff_inverse(demo_kernel, demo_g)
    ok_sets = inv.sets == {
        "y1": frozenset({"x2"}),
        "y2": frozenset({"x1"}),
        "y3": frozenset({"x1", "x2"}),
    }
    ok_status = sol.status is Status.MULTIPLE
    ok_witness = (
        sol.witness_alt is not None
        and np.array_equal(sol.witness_alt.values, [math.inf, math.inf, -6.0])
        and np.array_equal(
            apply_forward(demo_kernel, sol.witness_alt).values, [8.0, 6.0]
        )
    )
    dt = time.perf_counter() - t0
    ok = ok_fmin and ok_sets and ok_status and ok_witness and dt < 1.0
    _report(1, ok,
            f"worked example: f_min within 1e-12, inverse sets, multiple, "
            f"witness verified ({dt:.3f}s)")


def test_criterion_2_restricted_unique(demo_kernel, demo_g):
    sol = solve(Problem(demo_kernel, demo_g, y_restrict=("y1", "y2")))
    closed = np.array([-SQRT6, -4.0 / 3.0])
    ok = (
        sol.status is Status.UNIQUE
        and bool(np.all(np.abs(sol.f_min.values[:2] - closed) <= 1e-12))
        and sol.f_min.values[2] == math.inf
        and sol.cover.is_minimal
        and dict(sol.family.sets) == {
            "y1": frozenset({"x2"}), "y2": frozenset({"x1"})
        }
        and sol.cover.privately_covered == {"y1": "x2", "y2": "x1"}
    )
    _report(2, ok, "restricted problem: unique with minimal covering witnesses")


def test_criterion_3_no_solution(demo_kernel, demo_g_bad):
    sol = solve(Problem(demo_kernel, demo_g_bad))
    closed = np.array([SQRT3, 6.0, 3.0])
    ok_adj = bool(np.all(np.abs(sol.f_min.values - closed) <= 1e-12))
    union = frozenset().union(*sol.family.sets.values())
    g_val, p_val = sol.target.value("x1"), sol.transformed.value("x1")
    ok = (
        ok_adj
        and union == {"x2"}
        and sol.status is Status.NO_SOLUTION
        and float(p_val) - float(g_val) < 0.0
    )
    _report(3, ok,
            f"unsolvable target: adjoint within 1e-12, union {{x2}}, "
            f"residual {float(p_val) - float(g_val):.3f} < 0")


def test_criterion_4_galois_property_suite(random_family):
    t0 = time.perf_counter()
    failures = 0
    for k, f, f2, g in random_family:
        bf = apply_forward(k, f)
        ag = apply_adjoint(k, g)
        if not approx_eq(apply_forward(k, apply_adjoint(k, bf)), bf):
            failures += 1
        if not approx_eq(apply_adjoint(k, apply_forward(k, ag)), ag):
            failures += 1
        if bf.leq(g) != ag.leq(f):
            failures += 1
        hi = FunctionOnSpace(k.y_labels, np.maximum(f.values, f2.values))
        if not apply_forward(k, hi).leq(bf):
            failures += 1
        lo = FunctionOnSpace(k.y_labels, np.minimum(f.values, f2.values))
        if not approx_eq(apply_forward(k, lo), FunctionOnSpace(
            k.x_labels, np.maximum(bf.values, apply_forward(k, f2).values))
        ):
            failures += 1
        for j, y in enumerate(k.y_labels):
            for s in (-1.0, 0.0, 1.0, math.inf, -math.inf):
                d = dirac(k.y_labels, y, s)
                col = [k.entry(i, j).eval_float(s) for i in range(k.shape[0])]
                if not np.array_equal(apply_forward(k, d).values, col):
                    failures += 1
        top = constant(k.x_labels, math.inf)
        if not np.all(np.isneginf(apply_adjoint(k, top).values)):
            failures += 1
        bot = constant(k.x_labels, -math.inf)
        abot = apply_adjoint(k, bot)
        if not (np.all(np.isposinf(abot.values))
                and np.all(np.isneginf(apply_forward(k, abot).values))):
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 10.0
    _report(4, ok,
            f"1000 random instances, all connection laws, "
            f"{failures} failures ({dt:.2f}s < 10s)")


def test_criterion_5_oracle_equivalence(random_family):
    t0 = time.perf_counter()
    disagreements = 0
    for idx, (k, f, f2, g) in enumerate(random_family):
        if not oracle_check(Problem(k, g), trials=200, seed=idx):
            disagreements += 1
    dt = time.perf_counter() - t0
    ok = disagreements == 0 and dt < 30.0
    _report(5, ok,
            f"solver vs first-principles oracle on 1000 instances, "
            f"{disagreements} disagreements ({dt:.2f}s < 30s)")


def test_criterion_6_conjugacy_lab():
    t0 = time.perf_counter()
    results = {
        "fenchel": fenchel_experiment(),
        "quadratic": quadratic_experiment(),
        "lipschitz_exact": lipschitz_experiment("abs_half"),
        "lipschitz_strict": lipschitz_experiment("sin_half"),
        "exgeom": exgeom_experiment(),
        "weighted_power": weighted_power_experiment(),
    }
    dt = time.perf_counter() - t0
    checks = {
        "fenchel": results["fenchel"].passed
        and results["fenchel"].max_abs_error <= 1e-3,
        "quadratic": results["quadratic"].passed
        and results["quadratic"].max_abs_error == 0.0,
        "lipschitz_exact": results["lipschitz_exact"].passed
        and results["lipschitz_exact"].max_abs_error == 0.0,
        "lipschitz_strict": results["lipschitz_strict"].passed
        and results["lipschitz_strict"].details["solver_status"] == "unique",
        "exgeom": results["exgeom"].passed
        and results["exgeom"].max_abs_error <= 2e-3
        and results["exgeom"].details["subdiff_domain_matches_fixed_points"],
        "weighted_power": results["weighted_power"].passed
        and abs(results["weighted_power"].details["certified_threshold"] - 2.0)
        <= 0.5,
    }
    ok = all(checks.values()) and dt < 60.0
    bad = [k for k, v in checks.items() if not v]
    _report(6, ok,
            f"lab experiments all pass ({dt:.1f}s < 60s)"
            + (f"; failing: {bad}" if bad else ""))


def test_criterion_7_covering_module():
    fam = CoverFamily.build(
        ["x1", "x2"],
        {"y1": {"x2"}, "y2": {"x1"}, "y3": {"x1", "x2"}},
        ["y1", "y2", "y3"],
    )
    rep = check_cover(fam)
    sub = CoverFamily.build(["x1", "x2"], {"y1": {"x2"}, "y2": {"x1"}})
    rep_sub = check_cover(sub)

    # exhaustive enumeration of all 7 nonempty subsets as the oracle
    from itertools import combinations

    best = None
    for k in range(1, 4):
        for combo in combinations(fam.index_pool, k):
            if fam.covers(combo):
                best = combo
                break
        if best:
            break
    ok = (
        rep.is_cover and not rep.is_minimal
        and rep_sub.is_minimal
        and best == ("y3",)
    )
    _report(7, ok, "covering verdicts and exhaustive smallest subcover {y3}")
