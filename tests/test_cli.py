import json
import math
import re
from pathlib import Path

import pytest

from galois_solve.cli import main
from galois_solve.serialize import (
    load_problem,
    problem_from_dict,
    render_report,
    solution_to_report,
)
from galois_solve.errors import ValidationError
from galois_solve.solver import solve

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
        rep = solution_to_report(solve(load_problem(path)))
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
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_problem_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert err.startswith("validation error:")
    assert "Traceback" not in out + err
