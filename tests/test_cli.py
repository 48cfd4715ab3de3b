import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_solve.cli import main
from galois_solve.engine import FunctionOnSpace
from galois_solve.kernel import GridSpec, build_table
from galois_solve.lab import EXPERIMENTS, run_experiment
from galois_solve.scalar import Affine, Off
from galois_solve.serialize import (
    function_to_json,
    load_problem,
    problem_from_dict,
    render_report,
    solution_to_report,
)
from galois_solve.errors import ValidationError
from galois_solve.solver import Problem, solve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMO = str(FIXTURES / "worked_example.json")
DEMO_BAD = str(FIXTURES / "worked_example_unsolvable.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- solve


def test_solve_demo_human(capsys):
    code, out, _ = run(capsys, "solve", DEMO)
    assert code == 0
    assert "status: multiple" in out
    # the tie row carries two stars, the others one each
    rows = {m.group(1): m.group(0) for m in
            re.finditer(r"(y\d):.*", out)}
    assert rows["y1"].count("*") == 1
    assert rows["y2"].count("*") == 1
    assert rows["y3"].count("*") == 2
    assert "second solution" in out


def test_solve_demo_json_and_table_agree(capsys):
    code, out, _ = run(capsys, "solve", DEMO, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "multiple"
    assert rep["f_min"]["y3"] == -6
    assert abs(rep["f_min"]["y1"] + math.sqrt(6)) < 1e-12
    assert rep["witness_alt"] == {"y1": "+inf", "y2": "+inf", "y3": -6}
    assert rep["cover"]["sets"] == {
        "y1": ["x2"], "y2": ["x1"], "y3": ["x1", "x2"]
    }
    # numbers printed in the human table match the JSON values
    _, human, _ = run(capsys, "solve", DEMO)
    printed = re.findall(r"y1 = (\S+)", human)
    assert printed and float(printed[0]) == pytest.approx(rep["f_min"]["y1"])


def test_solve_restricted_unique(capsys):
    code, out, _ = run(capsys, "solve", DEMO, "--x-restrict", "x1,x2", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "multiple"


def test_solve_no_solution_exit_code(capsys):
    code, out, _ = run(capsys, "solve", DEMO_BAD, "--json")
    assert code == 3
    rep = json.loads(out)
    assert rep["status"] == "no_solution"
    assert rep["cover"]["uncovered"] == ["x1"]


def test_solve_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "x": ["x1"], "y": ["y1", "y2"],
        "kernel": {"type": "moreau", "bbar": [["-inf", 1]]},
        "g": {"x1": 0},
    }))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "A2" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "nope.json")
    assert code == 2


def test_bad_flags_exit_code(capsys):
    code = main(["lab", "not-an-experiment"])
    capsys.readouterr()
    assert code == 2


def test_lab_step_too_fine_for_a_float_count(capsys):
    code, out, err = run(capsys, "lab", "fenchel", "--step", "1e-320")
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in out + err


# -- apply


def test_apply_adjoint_inline(capsys):
    code, out, _ = run(
        capsys, "apply", DEMO, "--direction", "Bstar",
        "--g", '{"x1": 8, "x2": 6}', "--json",
    )
    assert code == 0
    vals = json.loads(out)
    assert vals["y3"] == -6
    assert abs(vals["y1"] + math.sqrt(6)) < 1e-12


def test_apply_forward_with_infinities(capsys):
    code, out, _ = run(
        capsys, "apply", DEMO, "--direction", "B",
        "--f", '{"y1": "+inf", "y2": "+inf", "y3": -6}', "--json",
    )
    assert code == 0
    assert json.loads(out) == {"x1": 8, "x2": 6}


def test_apply_forward_top(capsys):
    code, out, _ = run(
        capsys, "apply", DEMO, "--direction", "B",
        "--f", '{"y1": "+inf", "y2": "+inf", "y3": "+inf"}', "--json",
    )
    assert json.loads(out) == {"x1": "-inf", "x2": "-inf"}


def test_apply_forward_requires_f(capsys):
    code, _, err = run(capsys, "apply", DEMO, "--direction", "B")
    assert code == 2 and "--f" in err


def test_apply_parse_error(capsys):
    code, _, err = run(capsys, "apply", DEMO, "--direction", "B", "--f", "{oops")
    assert code == 2


# -- lab


def test_lab_quadratic(capsys):
    code, out, _ = run(capsys, "lab", "quadratic", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["max_abs_error"] == 0


def test_lab_lipschitz_strict(capsys):
    code, out, _ = run(capsys, "lab", "lipschitz", "--curve", "sin_half")
    assert code == 0
    assert "unique" in out and "PASS" in out


def test_lab_csv_dump(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "lab", "fenchel", "--csv", str(csv_path))
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert "x" in header.split(",")


# -- problem files and reports


def test_problem_file_rejects_unknown_fields():
    with pytest.raises(ValidationError, match="unknown"):
        problem_from_dict({
            "kernel": {"type": "moreau", "bbar": [[0]]},
            "g": {"x1": 0}, "extra": 1,
        })


def test_problem_file_moreau_and_grid(tmp_path):
    prob = load_problem(str(FIXTURES / "moreau_small.json"))
    assert prob.kernel.x_labels == ("a", "b")
    doc = {
        "kernel": {
            "type": "grid",
            "family": "fenchel_dot",
            "x_grid": {"min": -1, "max": 1, "step": 1},
            "y_grid": {"min": -1, "max": 1, "step": 1},
        },
        "g": {"-1": 1, "0": 0, "1": 1},
    }
    prob2 = problem_from_dict(doc)
    sol = solve(prob2)
    assert sol.caveats  # grid kernels carry the approximation caveat


def test_report_round_trip(capsys):
    for path in (DEMO, DEMO_BAD):
        sol = solve(load_problem(path))
        assert "residual" not in vars(sol)  # built when a report reads it
        rep = solution_to_report(sol)
        assert json.loads(render_report(rep)) == rep


LINE = {"min": -1, "max": 1, "step": 1}
MALFORMED = {
    "quadratic-without-a": {
        "kernel": {"type": "grid", "family": "quadratic", "x_grid": LINE,
                   "y_grid": LINE, "params": {}},
        "g": {"-1": 0, "0": 0, "1": 0},
    },
    "grid-without-step": {
        "kernel": {"type": "grid", "family": "fenchel_dot",
                   "x_grid": {"min": -1, "max": 1}, "y_grid": LINE},
        "g": {"-1": 0, "0": 0, "1": 0},
    },
    "bbar-text": {"kernel": {"type": "moreau", "bbar": [[0, "abc"]]},
                  "g": {"x1": 0}},
    "bbar-null": {"kernel": {"type": "moreau", "bbar": [[0, None]]},
                  "g": {"x1": 0}},
    "bbar-nan": {"kernel": {"type": "moreau", "bbar": [[0, "nan"]]},
                 "g": {"x1": 0}},
    "g-text": {"kernel": {"type": "moreau", "bbar": [[0, 1]]},
               "g": {"x1": "abc"}},
    "bbar-true": {"kernel": {"type": "moreau", "bbar": [[0, True]]},
                  "g": {"x1": 0}},
    "bbar-numeric-string": {"kernel": {"type": "moreau", "bbar": [[0, "1.5"]]},
                            "g": {"x1": 0}},
}


def _grid(family, params, x_grid=LINE, y_grid=LINE):
    return {"kernel": {"type": "grid", "family": family, "x_grid": x_grid,
                       "y_grid": y_grid, "params": params},
            "g": {"-1": 0, "0": 0, "1": 0}}


MALFORMED.update({
    "params-list": _grid("omega_lipschitz", [1]),
    "params-on-fenchel-dot": _grid("fenchel_dot", {"a": 2}),
    "params-unknown-key": _grid("omega_lipschitz", {"A": 2}),
    "params-numeric-string": _grid("omega_lipschitz", {"q": "0.5"}),
    "params-bool": _grid("quadratic", {"a": True}),
    "bound-bool": _grid("fenchel_dot", {}, LINE, {"min": False, "max": 1, "step": 1}),
})


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_problem_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert err.startswith("validation error:")
    assert "Traceback" not in out + err


# -- malformed table entries, generated


not_number = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.sampled_from(["+inf", "nan", "1"]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2),
                                                         st.integers(), max_size=1))
not_finite = st.sampled_from([math.inf, -math.inf, math.nan])
VALID_FORMS = [{"type": "off"}, {"type": "affine", "c": 0, "m": 1},
               {"type": "signed_power", "c": 1, "p": 2, "shift": 0.5},
               {"type": "table", "points": [[0, 1], [1, 0]]}]


def _form(kind, **fields):
    return {"type": kind, **fields}


bad_points = st.one_of(
    not_number,
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=1),  # short
    st.just([[0, 1], [1, 1]]), st.just([[1, 1], [0, 2]]),  # not decreasing
    st.lists(st.lists(st.integers(0, 3), max_size=3).filter(lambda p: len(p) != 2),
             min_size=2, max_size=3),
    st.builds(lambda v: [[0, 1], [1, v]], st.one_of(not_number, not_finite)),
)
bad_form = st.one_of(
    not_number,
    st.builds(lambda t: {"type": t}, st.text(max_size=6).filter(
        lambda t: t not in ("off", "affine", "signed_power", "table"))),
    st.sampled_from([_form("affine", c=1), _form("affine", m=1),
                     _form("signed_power", c=1), _form("signed_power", p=2),
                     _form("table")]),
    st.builds(lambda v: _form("affine", c=v, m=1),
              st.one_of(not_number, st.just(math.inf), st.just(math.nan))),
    st.builds(lambda v: _form("affine", c=0, m=v),
              st.one_of(not_number, not_finite, st.integers(-2, 0))),
    st.builds(lambda v: _form("signed_power", c=v, p=1), st.one_of(not_number, not_finite)),
    st.builds(lambda v: _form("signed_power", c=0, p=v),
              st.one_of(not_number, not_finite, st.floats(-2, 0))),
    st.builds(lambda v: _form("signed_power", c=0, p=1, shift=v),
              st.one_of(not_number, not_finite)),
    st.builds(lambda v: _form("table", points=v), bad_points),
)


@st.composite
def malformed_entries(draw):
    """A small table of valid forms with one defect: a malformed form,
    a ragged or empty row, a row or a table that is not a list."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(st.sampled_from(VALID_FORMS)) for _ in range(ny)] for _ in range(nx)]
    i, j = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
    defect = draw(st.sampled_from(["form", "ragged", "empty", "row", "table"]))
    if defect == "form":
        rows[i][j] = draw(bad_form)
    elif defect == "ragged":
        rows[i].append(VALID_FORMS[1])
        if nx == 1:
            rows.append([VALID_FORMS[1]] * ny)
    elif defect == "empty":
        rows[i] = []
    elif defect == "row":
        rows[i] = draw(not_number.filter(lambda v: not isinstance(v, list)))
    else:
        rows = draw(not_number)
    return rows


WRONG_VALUES = [None, True, "1", "+inf", "nan", [1], {"a": 1}, math.inf, math.nan]
FIELD_DEFECTS = (
    [_form("affine", c=v, m=1) for v in WRONG_VALUES]
    + [_form("affine", c=0, m=v) for v in WRONG_VALUES + [0, -1]]
    + [_form("signed_power", **{"c": 0, "p": 1, field: v})
       for field in ("c", "shift") for v in WRONG_VALUES]
    + [_form("signed_power", c=0, p=v) for v in WRONG_VALUES + [0, -1]]
    + [_form("table", points=[[0, 1], [1, v]]) for v in WRONG_VALUES]
    + [_form("table", points=v) for v in WRONG_VALUES + [[[0, 1]], [[0, 1, 2], [1, 0, 0]]]]
)


@pytest.mark.parametrize("form", FIELD_DEFECTS, ids=repr)
def test_every_malformed_field_is_a_validation_error(form):
    with pytest.raises(ValidationError):
        problem_from_dict({"kernel": {"type": "table", "entries": [[form]]},
                           "g": {"x1": 0}})


def _solve_exits_2(tmp_path_factory, doc, name):
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path)])
    assert code == 2
    assert err.getvalue().startswith("validation error:")
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(max_examples=100, deadline=None)
@given(entries=malformed_entries())
def test_malformed_table_entries_are_validation_errors(tmp_path_factory, entries):
    doc = {"kernel": {"type": "table", "entries": entries}, "g": {"x1": 0}}
    with pytest.raises(ValidationError):
        problem_from_dict(doc)
    _solve_exits_2(tmp_path_factory, doc, "malformed_table.json")


# -- malformed grid kernels, generated


SMALL_LINE = {"min": -1, "max": 1, "step": 0.25}
SMALL_PLANE = {"dims": [[-1, 1, 0.5], [-0.5, 0.5, 0.5]]}
# each family with valid params, on grids of at most 20 points
VALID_GRIDS = {
    "fenchel_dot": ({}, SMALL_LINE, SMALL_LINE),
    "quadratic": ({"a": 1.5}, SMALL_PLANE, SMALL_PLANE),
    "omega_lipschitz": ({"a": 2, "q": 0.5}, SMALL_LINE, SMALL_LINE),
    "weighted_power": ({"p": 1.5}, {"dims": [[-1, 1, 0.5], [0.5, 2, 0.5]]}, SMALL_LINE),
}
below_zero = st.floats(max_value=0)
not_object = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                       st.text(max_size=3), st.lists(st.integers(), max_size=2))
OUT_OF_RANGE = {
    "quadratic": {"a": st.sampled_from([0, 0.0, math.inf, -math.inf, math.nan])},
    "omega_lipschitz": {"a": st.one_of(below_zero, not_finite),
                        "q": st.one_of(below_zero, not_finite,
                                       st.floats(min_value=1, exclude_min=True))},
    "weighted_power": {"p": st.one_of(below_zero, not_finite)},
}
huge_span = st.builds(lambda m, s: [-m, m, s], st.sampled_from([1e300, 1.7e308]),
                      st.sampled_from([1e-300, 1.0, 1e292]))


@st.composite
def bad_grid(draw, grid):
    """``grid`` with one defect: a missing or extra key, a ``dims`` entry
    of the wrong arity, a bound that is not a number, a step <= 0,
    max <= min, or a span of more than the point cap in steps."""
    dims = [list(t) for t in grid["dims"]] if "dims" in grid else [
        [grid["min"], grid["max"], grid["step"]]]
    k = draw(st.integers(0, len(dims) - 1))
    defect = draw(st.sampled_from(
        ["missing", "extra", "arity", "not-number", "step", "max", "span", "object"]))
    if defect == "missing":
        key = draw(st.sampled_from(sorted(grid)))
        return {kk: v for kk, v in grid.items() if kk != key}
    if defect == "extra":
        key = draw(st.sampled_from(sorted({"dims", "min", "points"} - set(grid))))
        return {**grid, key: [[0, 1, 1]]}
    if defect == "arity":
        dims[k] = draw(st.sampled_from([dims[k][:1], dims[k][:2], dims[k] + [1]]))
    elif defect == "not-number":
        dims[k][draw(st.integers(0, 2))] = draw(not_number)
    elif defect == "step":
        dims[k][2] = draw(st.one_of(below_zero, not_finite))
    elif defect == "max":
        dims[k][1] = dims[k][0] - draw(st.sampled_from([0, 0.5, 1e300]))
    elif defect == "span":
        dims[k] = draw(huge_span)
    else:
        return draw(not_object)
    if defect == "arity" or "dims" in grid:
        return {"dims": dims}
    return dict(zip(("min", "max", "step"), dims[0]))


@st.composite
def malformed_grid_kernels(draw):
    """A valid grid problem and the same problem with one defect in its
    family name, its params or one of its grids."""
    family = draw(st.sampled_from(sorted(VALID_GRIDS)))
    params, x_grid, y_grid = VALID_GRIDS[family]
    g = dict.fromkeys(GridSpec.from_dict(x_grid).labels(), 0)
    valid = {"type": "grid", "family": family, "params": params,
             "x_grid": x_grid, "y_grid": y_grid}
    bad = dict(valid)
    defects = ["family", "params-not-object", "params-key", "x_grid", "y_grid",
               "dimension"]
    if params:
        defects += ["params-value", "params-range"]
    defect = draw(st.sampled_from(defects))
    if defect == "family":
        bad["family"] = draw(st.one_of(
            st.text(max_size=12).filter(lambda t: t not in VALID_GRIDS), not_number))
    elif defect == "params-not-object":
        bad["params"] = draw(not_object)
    elif defect == "params-key":
        key = draw(st.text(max_size=3).filter(lambda t: t not in params))
        bad["params"] = {**params, key: 1}
    elif defect == "params-value":
        bad["params"] = {**params, draw(st.sampled_from(sorted(params))): draw(not_number)}
    elif defect == "params-range":
        key, values = draw(st.sampled_from(sorted(OUT_OF_RANGE[family].items())))
        bad["params"] = {**params, key: draw(values)}
    elif defect == "dimension":
        bad["y_grid"] = SMALL_LINE if "dims" in y_grid else SMALL_PLANE
    else:
        bad[defect] = draw(bad_grid(valid[defect]))
    return {"kernel": valid, "g": g}, {"kernel": bad, "g": g}


@settings(max_examples=100, deadline=None)
@given(docs=malformed_grid_kernels())
def test_malformed_grid_kernels_are_validation_errors(tmp_path_factory, docs):
    valid, bad = docs
    problem_from_dict(valid)
    with pytest.raises(ValidationError) as exc:
        problem_from_dict(bad)
    # the kernel is refused, not the target on the labels of its x grid
    assert not str(exc.value).startswith(("missing values", "values for unknown"))
    _solve_exits_2(tmp_path_factory, bad, "malformed_grid.json")


# -- the report renderer writes what json.dumps writes


def _dumps(doc, sort_keys=True):
    return json.dumps(doc, indent=2, sort_keys=sort_keys)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_render_report_on_lab_reports(name):
    doc = run_experiment(name).to_dict()
    assert render_report(doc) == _dumps(doc)


def test_render_report_on_solve_reports():
    docs = [solution_to_report(solve(load_problem(p))) for p in (DEMO, DEMO_BAD)]
    # infinities in g, f_min and the residual, non-ASCII labels, an
    # empty pool: no covering sets, no essential or uncovered points
    kernel = build_table([[Affine(0, 1), Off()], [Off(), Affine(1, 2)]],
                         ["ξ₁", "naïve \"x\""], ["y∞", "\u0000y"])
    for g in ([math.inf, -math.inf], [0.0, -math.inf], [-math.inf, -math.inf]):
        problem = Problem(kernel, FunctionOnSpace(kernel.x_labels, np.array(g)))
        docs.append(solution_to_report(solve(problem)))
    assert docs[-1]["cover"] == {"essential": [], "minimal": True, "sets": {},
                                 "uncovered": []}
    for doc in docs:
        assert render_report(doc) == _dumps(doc)
    flat = function_to_json(solve(Problem(kernel, FunctionOnSpace(
        kernel.x_labels, np.array([-math.inf, 2.0])))).f_min)
    assert "+inf" in flat.values()
    assert render_report(flat, sort_keys=False) == _dumps(flat, False)


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4))
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=120, deadline=None)
@given(json_docs, st.booleans())
def test_render_report_matches_json_dumps(doc, sort_keys):
    assert render_report(doc, sort_keys) == _dumps(doc, sort_keys)


def test_render_report_with_keys_that_are_not_strings():
    doc = {1: [1.5, "a"], 2: {"b": [], "a": {}}, 0.5: None}
    assert render_report({"k": doc}) == _dumps({"k": doc})
    assert render_report({"k": [doc, {True: [1]}]}) == _dumps({"k": [doc, {True: [1]}]})
