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


@pytest.mark.parametrize("how,tol", [
    ("flag", "inf"), ("flag", "nan"), ("flag", "-1"), ("file", math.inf),
], ids=lambda v: str(v))
def test_solve_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
        tmp_path, capsys, how, tol):
    """An infinite tolerance would make every entry a tie, and every
    verdict vacuous."""
    if how == "flag":
        code, out, err = run(capsys, "solve", DEMO_BAD, "--tol", tol)
    else:
        doc = json.loads(Path(DEMO_BAD).read_text())
        doc["tolerance"] = tol
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and "Traceback" not in out + err
    assert err.startswith("validation error: tolerance must be finite")
    assert str(float(tol)) in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "nope.json")
    assert code == 2


# a directory, bytes that are not UTF-8, and text that is not JSON
UNREADABLE = {"directory": None, "latin-1": b'{"x": "\xe9"}', "not-json": b"{oops"}


def _unreadable(tmp_path, kind):
    path = tmp_path / kind
    if UNREADABLE[kind] is None:
        path.mkdir()
    else:
        path.write_bytes(UNREADABLE[kind])
    return str(path)


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_solve_unreadable_file(tmp_path, capsys, kind):
    code, out, err = run(capsys, "solve", _unreadable(tmp_path, kind))
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in out + err


@pytest.mark.parametrize("site", ["lab-csv-dir", "lab-csv-under-file", "solve-under-file",
                                  "apply-f-under-file"])
def test_a_path_that_cannot_be_opened_exits_2(tmp_path, capsys, site):
    file = tmp_path / "file"
    file.write_text("{}")
    argv = {"lab-csv-dir": ["lab", "quadratic", "--csv", str(tmp_path)],
            "lab-csv-under-file": ["lab", "quadratic", "--csv", str(file / "x.csv")],
            "solve-under-file": ["solve", str(file / "p.json")],
            "apply-f-under-file": ["apply", DEMO, "--direction", "B",
                                   "--f", "@" + str(file / "f.json")]}[site]
    code, out, err = run(capsys, *argv)
    assert code == 2 and "Traceback" not in out + err
    assert err.startswith("validation error:") and len(err.splitlines()) == 1


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


@pytest.mark.parametrize("f", [
    "{oops",
    '{"y1": "abc", "y2": 0, "y3": 0}',
    '{"y1": true, "y2": 0, "y3": 0}',
    '{"y1": NaN, "y2": 0, "y3": 0}',
    '{"y1": 1' + "0" * 400 + ', "y2": 0, "y3": 0}',
], ids=["not-json", "string", "bool", "nan", "overflow"])
def test_apply_parse_error(capsys, f):
    code, out, err = run(capsys, "apply", DEMO, "--direction", "B", "--f", f)
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ["--direction", "Bstar", "--f", '{"y1": 0, "y2": 0, "y3": 0}'],
    ["--direction", "Bstar", "--f", "{oops"],
    ["--direction", "B", "--f", '{"y1": 0, "y2": 0, "y3": 0}',
     "--g", '{"x1": 8, "x2": 6}'],
    ["--direction", "B", "--f", '{"y1": 0, "y2": 0, "y3": 0}', "--g", "{oops"],
], ids=["Bstar-f", "Bstar-bad-f", "B-g", "B-bad-g"])
def test_apply_refuses_the_flag_it_does_not_read(capsys, argv):
    code, out, err = run(capsys, "apply", DEMO, *argv)
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in out + err


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_apply_unreadable_function_file(tmp_path, capsys, kind):
    code, out, err = run(capsys, "apply", DEMO, "--direction", "Bstar",
                         "--g", "@" + _unreadable(tmp_path, kind))
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in out + err


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


@pytest.mark.parametrize("argv", [
    ["fenchel", "--step", "0"], ["fenchel", "--step", "-0.01"],
    ["exgeom", "--step", "0"], ["lipschitz", "--step", "-1"],
    ["quadratic", "--a", "0"], ["quadratic", "--curve", "wavy"],
    ["lipschitz", "--a", "5"], ["fenchel", "--curve", "cos"],
    ["quadratic", "--step", "0.01"], ["weighted-power", "--a", "2"],
    ["weighted-power", "--step", "0.1"], ["exgeom", "--curve", "abs"],
], ids=" ".join)
def test_lab_flags_are_passed_on_or_refused(capsys, argv):
    code, out, err = run(capsys, "lab", *argv)
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in out + err


@pytest.mark.parametrize("argv,largest", [
    (["exgeom", "--step", "0.6"], "0.5"), (["exgeom", "--step", "1"], "0.5"),
    (["exgeom", "--step", "0.49"], "0.5"), (["fenchel", "--step", "2.99"], "2.99"),
    (["fenchel", "--step", "3"], "2.99"), (["fenchel", "--step", "100"], "2.99"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_lab_step_that_empties_a_measured_region_is_refused(capsys, argv, largest):
    code, out, err = run(capsys, "lab", *argv)
    assert code == 2 and "Traceback" not in out + err
    assert err.startswith("validation error:") and "largest usable step is" in err
    assert largest in err


@pytest.mark.parametrize("argv,expected", [
    (["fenchel", "--step", "1.5"], 1), (["fenchel", "--step", "2.98"], 1),
    (["exgeom", "--step", "0.5"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_lab_coarse_step_that_leaves_every_region_runs(capsys, argv, expected):
    code, out, err = run(capsys, "lab", *argv)
    assert code == expected and "Traceback" not in out + err


def test_lab_flags_reach_the_experiment(capsys):
    code, out, _ = run(capsys, "lab", "quadratic", "--a", "-0.5", "--json")
    assert code in (0, 1) and json.loads(out)["details"]["a"] == -0.5
    assert run_experiment("quadratic", a=None, curve=None, step=None).details["a"] == 1.0


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


# grid families whose tables overflow, stored and generated
OVERFLOWING = {name: _grid(family, params, grid, grid) for name, family, params, grid in (
    ("quadratic-stored", "quadratic", {"a": 1e308}, {"min": -2, "max": 2, "step": 0.04}),
    ("quadratic-generated", "quadratic", {"a": 1e308}, {"min": -2, "max": 2, "step": 0.004}),
    ("fenchel-stored", "fenchel_dot", {}, {"min": -1e200, "max": 1e200, "step": 4e198}),
    ("fenchel-generated", "fenchel_dot", {}, {"min": -1e200, "max": 1e200, "step": 2e197}),
    ("lipschitz-stored", "omega_lipschitz", {"a": 1e300},
     {"min": -1e10, "max": 1e10, "step": 1e9}),
)}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_grid_file_is_one_validation_error(tmp_path, capsys, name):
    kernel = OVERFLOWING[name]["kernel"]
    labels = GridSpec.from_dict(kernel["x_grid"]).labels()
    doc = {"kernel": kernel, "g": dict.fromkeys(labels, 0)}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert re.fullmatch(r"validation error: \w+\(.*\) overflows on these grids: .*\n", err)


def _moreau(**labels):
    return {"kernel": {"type": "moreau", "bbar": [[0, 1], [1, 0]]},
            "g": {"x1": 0, "x2": 0}, **labels}


# labels are JSON lists of strings, and an empty list is not "no labels"
MALFORMED.update({
    "x-string": _moreau(x="ab", g={"a": 0, "b": 0}),
    "x-empty": _moreau(x=[]),
    "y-empty": _moreau(y=[]),
    "x-numbers": _moreau(x=[1, 2], g={"1": 0, "2": 0}),
    "y-mixed": _moreau(y=["y1", 2]),
    "x-null": _moreau(x=None),
    "x-restrict-string": _moreau(x=["a", "b"], g={"a": 0, "b": 0}, x_restrict="ab"),
    "x-restrict-numbers": _moreau(x=["1", "2"], g={"1": 0, "2": 0}, x_restrict=[1]),
    "x-restrict-null": _moreau(x_restrict=None),
})


def test_label_lists_are_taken_as_given():
    prob = problem_from_dict({**_moreau(x=["a", "b"], y=["u", "v"]),
                              "g": {"a": 0, "b": 0}, "x_restrict": []})
    assert prob.kernel.x_labels == ("a", "b") and prob.kernel.y_labels == ("u", "v")
    assert prob.x_restrict == ()


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


# -- one accept rule for an extended real at every input site


def _parses(v, infinities) -> bool:
    """The rule, written out: a real number that is not a bool, NaN or
    an integer beyond the float range, or one of the listed strings."""
    if isinstance(v, str):
        return v in infinities
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return not math.isnan(float(v))
    except OverflowError:
        return False


INF_VALUES = {"+inf": math.inf, "inf": math.inf, "-inf": -math.inf}
ALL_INF = tuple(INF_VALUES)
AFFINE_ROWS = [[{"type": "affine", "c": 0, "m": 1}] * 2] * 2


def _table_site(form):
    return {"kernel": {"type": "table", "entries": [[form, AFFINE_ROWS[0][1]],
                                                    AFFINE_ROWS[1]]},
            "g": {"x1": 0, "x2": 0}}


# site: (infinity strings it takes, problem file or apply --f for a value,
# which taken values are sure to make a solvable file, None: no claim)
SITES = {
    "g": (ALL_INF, lambda v: _moreau(g={"x1": v, "x2": 0}), lambda x: True),
    "apply-f": (ALL_INF, lambda v: {"y1": v, "y2": 0, "y3": 0}, lambda x: True),
    "tolerance": ((), lambda v: _moreau(tolerance=v), None),
    "grid-bound": ((), lambda v: _grid("fenchel_dot", {}, LINE,
                                       {"min": -1, "max": 1, "step": v}), None),
    "grid-param": ((), lambda v: _grid("quadratic", {"a": v}), None),
    "affine-c": (("-inf",), lambda v: _table_site({"type": "affine", "c": v, "m": 1}),
                 lambda x: x < math.inf),
    "affine-m": ((), lambda v: _table_site({"type": "affine", "c": 0, "m": v}), None),
    "signed-power-c": ((), lambda v: _table_site(
        {"type": "signed_power", "c": v, "p": 1, "shift": 0}), math.isfinite),
    "signed-power-p": ((), lambda v: _table_site(
        {"type": "signed_power", "c": 0, "p": v}), None),
    "signed-power-shift": ((), lambda v: _table_site(
        {"type": "signed_power", "c": 0, "p": 1, "shift": v}), math.isfinite),
    "breakpoint": ((), lambda v: _table_site(
        {"type": "table", "points": [[0, 1], [1, v]]}), None),
}

json_value = st.one_of(
    st.integers(-10**6, 10**6), st.floats(allow_nan=False),
    st.integers(2**1024, 2**1100).flatmap(lambda n: st.sampled_from([n, -n])),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "1.5",
                     "nan", "inf", "+inf", "-inf", "abc", 0, -0.0]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(value=json_value)
def test_one_accept_rule_at_every_input_site(tmp_path_factory, value):
    """Every field that holds an extended real takes exactly the values
    of ``extreal.parse`` with its own infinity strings; a refused value
    exits 2 with no traceback, naming the field.  The coupling entries
    of a moreau table keep their own rule (numbers and "-inf", checked
    entry by entry in ``kernel.build_moreau``) until that loop is
    replaced by one array conversion, so they are not a site here."""
    path = tmp_path_factory.getbasetemp() / "site.json"
    for site, (infinities, doc, valid) in SITES.items():
        if site == "apply-f":
            code, text, err = _cli(["apply", DEMO, "--direction", "B",
                                    "--f", json.dumps(doc(value))])
        else:
            path.write_text(json.dumps(doc(value)))
            code, text, err = _cli(["solve", str(path)])
        assert "Traceback" not in text, site
        if not _parses(value, infinities):
            assert code == 2 and err.startswith("validation error:"), site
            assert "is not a number" in err, (site, err)
            continue
        assert "is not a number" not in err, (site, err)
        if valid is not None and valid(float(INF_VALUES.get(value, value))):
            assert code in (0, 3), (site, err)

    ok = _parses(value, ALL_INF)
    for build in (lambda: FunctionOnSpace.from_mapping(["a", "b"], {"a": value, "b": 0}),
                  lambda: FunctionOnSpace.constant(["a"], value),
                  lambda: FunctionOnSpace.dirac(["a", "b"], "a", value),
                  lambda: FunctionOnSpace(("a",), [0.0]).with_value("a", value)):
        if ok:
            assert build().values[0] == float(INF_VALUES.get(value, value))
        else:
            with pytest.raises(ValidationError):
                build()


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
