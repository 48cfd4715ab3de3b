"""Problem and report files.

Problems are JSON documents; infinities travel as the strings "-inf"
and "+inf" to stay inside standard JSON, and every value is read and
written by the rules of :mod:`galois_solve.extreal`.  Unknown fields in
problem files are rejected rather than ignored, so typos fail loudly.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import extreal
from .covering import CoverFamily
from .engine import FunctionOnSpace
from .errors import ValidationError
from .kernel import (
    FenchelDot,
    GridSpec,
    Kernel,
    OmegaLipschitz,
    Quadratic,
    WeightedPower,
    build_grid_kernel,
    build_moreau,
    build_table,
    labels_of,
    same_space,
)
from .solver import Problem, Solution

_PROBLEM_KEYS = {"x", "y", "kernel", "g", "x_restrict", "tolerance"}
#: Each grid family and its params, with their defaults (None: required).
_GRID_FAMILIES = {"fenchel_dot": (FenchelDot, {}), "quadratic": (Quadratic, {"a": None}),
                  "omega_lipschitz": (OmegaLipschitz, {"a": 1.0, "q": 1.0}),
                  "weighted_power": (WeightedPower, {"p": None})}


def problem_from_dict(doc: dict) -> Problem:
    """The problem a parsed problem file describes.  Any malformed part
    (a missing field, a value that is not a number) is a ValidationError."""
    if not isinstance(doc, dict):
        raise ValidationError("problem file must be a JSON object")
    unknown = set(doc) - _PROBLEM_KEYS
    if unknown:
        raise ValidationError(f"unknown problem fields: {sorted(unknown)}")
    if "kernel" not in doc or "g" not in doc:
        raise ValidationError("problem file needs 'kernel' and 'g'")
    x, y, x_restrict = (_labels(doc, key) for key in ("x", "y", "x_restrict"))
    if x == [] or y == []:  # the builders read an empty list as none given
        raise ValidationError("index sets must be nonempty")
    try:
        kernel = _kernel_from_dict(doc["kernel"], x, y)
        gmap = doc["g"]
        if not isinstance(gmap, dict):
            raise ValidationError("'g' must map x labels to values")
        g = FunctionOnSpace.from_mapping(kernel.x_space, gmap)
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"problem file is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed problem file: {exc}") from exc
    tol = extreal.parse(doc.get("tolerance", extreal.DEFAULT_TOL), "'tolerance'")
    return Problem(kernel, g, x_restrict=x_restrict, tolerance=tol)


def _labels(doc: dict, key: str):
    """The labels under ``key``, a JSON list of strings, or None."""
    labels = doc.get(key)
    if key in doc and not (isinstance(labels, list)
                           and all(isinstance(l, str) for l in labels)):
        raise ValidationError(f"{key!r} must be a list of strings: {labels!r}")
    return labels


def _kernel_from_dict(spec: dict, x_labels, y_labels) -> Kernel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError("'kernel' must be an object with a 'type'")
    kind = spec["type"]
    if kind == "table":
        _require_keys(spec, {"type", "entries"})
        return build_table(spec["entries"], x_labels, y_labels)
    if kind == "moreau":
        _require_keys(spec, {"type", "bbar"})
        return build_moreau(spec["bbar"], x_labels, y_labels)
    if kind == "grid":
        _require_keys(spec, {"type", "family", "x_grid", "y_grid", "params"})
        if x_labels is not None or y_labels is not None:
            raise ValidationError("grid kernels generate their own labels")
        family = _family_from_dict(spec["family"], spec.get("params", {}))
        return build_grid_kernel(
            family,
            GridSpec.from_dict(spec["x_grid"]),
            GridSpec.from_dict(spec["y_grid"]),
        )
    raise ValidationError(f"unknown kernel type: {kind!r}")


def _require_keys(spec: dict, allowed: set):
    unknown = set(spec) - allowed
    if unknown:
        raise ValidationError(f"unknown kernel fields: {sorted(unknown)}")
    missing = {k for k in allowed if k != "params"} - set(spec)
    if missing:
        raise ValidationError(f"kernel is missing fields: {sorted(missing)}")


def _family_from_dict(name: str, params: dict):
    if name not in _GRID_FAMILIES:
        raise ValidationError(
            f"unknown kernel family {name!r}; choices: {sorted(_GRID_FAMILIES)}"
        )
    family, fields = _GRID_FAMILIES[name]
    if not isinstance(params, dict) or not set(params) <= set(fields):
        raise ValidationError(f"{name} takes the params {sorted(fields)}: {params!r}")
    return family(**{k: extreal.parse(params[k] if v is None else params.get(k, v),
                                      f"param {k!r}")
                     for k, v in fields.items()})


def _read_json(path: str, what: str):
    """The JSON document in a file.  Bytes that are not UTF-8 and text
    that is not JSON are each a ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} cannot be read: {exc}") from exc


def load_problem(path: str) -> Problem:
    return problem_from_dict(_read_json(path, "problem file"))


# ----------------------------------------------------------------------
# report files


def function_to_json(f: Optional[FunctionOnSpace]):
    if f is None:
        return None
    return dict(zip(f.labels, extreal.to_json(f.values)))


def solution_to_report(sol: Solution) -> dict:
    """The wire form of a solution; round-trips through JSON losslessly."""
    cover = {
        "sets": _sorted_sets(sol.family),
        "essential": list(sol.cover.essential),
        "minimal": sol.cover.is_minimal,
        "uncovered": list(sol.cover.uncovered),
    }
    return {
        "status": sol.status.value,
        "f_min": function_to_json(sol.f_min),
        "cover": cover,
        "witness_alt": function_to_json(sol.witness_alt),
        "residual": {x: [gv, pv] for x, gv, pv in zip(
            sol.target.labels, extreal.to_json(sol.target.values),
            extreal.to_json(sol.transformed.values))},
        "caveats": list(sol.caveats),
    }


def _sorted_sets(family: CoverFamily) -> dict:
    """Each index's set as the sorted list of its labels."""
    labels = labels_of(family.universe_space)
    order, rank = _label_order(labels)
    names = list(map(labels.__getitem__, order))
    members = list(map(names.__getitem__, _member_ranks(family, rank).tolist()))
    ptr = family.indptr.tolist()
    return {z: members[a:b] for z, a, b in zip(family.index_pool, ptr, ptr[1:])}


def _label_order(labels):
    """The positions of ``labels`` in sorted order, and each one's rank."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = np.empty(len(labels), np.intp)
    rank[order] = np.arange(len(labels))
    return order, rank


def _member_ranks(family: CoverFamily, rank: np.ndarray) -> np.ndarray:
    """The members of each set, set after set, as their ranks ``rank``
    over the universe space, ascending within each set: one sort on
    (index, rank)."""
    row = np.repeat(np.arange(len(family.pool)) * len(rank), np.diff(family.indptr))
    return np.sort(row + rank[family.points[family.indices]]) - row


def report_text(sol: Solution) -> str:
    """``render_report(solution_to_report(sol))``, byte for byte, written
    from the solution's positions without building the report.

    Each side's labels are JSON-encoded once and sorted once; each array
    of values is encoded once, as ``json`` writes floats (infinities as
    "+inf" and "-inf"), and ``transformed`` and ``witness_alt`` reuse
    the text of ``target`` and ``f_min`` wherever they are bitwise equal.
    """
    family, cover = sol.family, sol.cover
    x_text, x_order, x_rank = _encoded_side(family.universe_space)
    y_text, y_order, y_rank = (
        (x_text, x_order, x_rank) if same_space(family.pool_space, family.universe_space)
        else _encoded_side(family.pool_space))

    members = list(map(x_text.__getitem__, _member_ranks(family, x_rank).tolist()))
    at = y_rank[family.pool]
    rows = np.argsort(at)
    # each set as _indented(members, 3, "[]") writes it, inlined: there are many
    sets = [y_text[k] + (": [\n        " + ",\n        ".join(members[a:b]) + "\n      ]"
                         if a < b else ": []")
            for k, a, b in zip(at[rows].tolist(), family.indptr[rows].tolist(),
                               family.indptr[rows + 1].tolist())]

    target = _numbers(sol.target.values)
    transformed = _numbers_like(sol.transformed.values, sol.target.values, target)
    f_min = _numbers(sol.f_min.values)
    witness = "null"
    if sol.witness_alt is not None:
        witness = _function(y_text, y_order, _numbers_like(
            sol.witness_alt.values, sol.f_min.values, f_min))
    residual = list(map("{}: [\n      {},\n      {}\n    ]".format, x_text,
                        map(target.__getitem__, x_order),
                        map(transformed.__getitem__, x_order)))
    essential = y_rank[cover.family.pool[cover.essential_at]].tolist()
    uncovered = x_rank[cover.family.points[cover.uncovered_at]].tolist()
    return _indented([
        '"caveats": ' + _indented(list(map(encode_basestring_ascii, sol.caveats)), 1, "[]"),
        '"cover": ' + _indented([
            '"essential": ' + _indented(list(map(y_text.__getitem__, essential)), 2, "[]"),
            '"minimal": ' + ("true" if cover.is_minimal else "false"),
            '"sets": ' + _indented(sets, 2),
            '"uncovered": ' + _indented(list(map(x_text.__getitem__, uncovered)), 2, "[]"),
        ], 1),
        '"f_min": ' + _function(y_text, y_order, f_min),
        '"residual": ' + _indented(residual, 1),
        '"status": ' + encode_basestring_ascii(sol.status.value),
        '"witness_alt": ' + witness,
    ], 0)


def _encoded_side(space):
    """The labels of a space as JSON text, in sorted order, the
    positions they come from and the rank of each position."""
    labels = labels_of(space)
    order, rank = _label_order(labels)
    return [encode_basestring_ascii(labels[k]) for k in order], order, rank


def _numbers(values: np.ndarray) -> list:
    """Each value as ``json`` writes a float, infinities as the strings
    "+inf" and "-inf"."""
    out = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(np.isinf(values)).tolist():
        out[k] = '"+inf"' if values[k] > 0 else '"-inf"'
    return out


def _numbers_like(values: np.ndarray, base: np.ndarray, base_text: list) -> list:
    """``_numbers(values)``, reusing ``base_text``, the text of ``base``,
    wherever ``values`` equals ``base`` bit for bit."""
    out = list(base_text)
    at = np.flatnonzero(values.view(np.uint64) != base.view(np.uint64))
    for k, text in zip(at.tolist(), _numbers(values[at])):
        out[k] = text
    return out


def _function(text: list, order: list, values: list) -> str:
    """A function's object at depth 1: sorted labels and their values."""
    return _indented(list(map("{}: {}".format, text, map(values.__getitem__, order))), 1)


def _indented(items: list, depth: int, brackets: str = "{}") -> str:
    """A JSON object of encoded ``"key": value`` items, or with the
    brackets "[]" an array of encoded items, as ``json.dumps`` with
    ``indent=2`` writes it at ``depth``."""
    if not items:
        return brackets
    ind = "\n" + "  " * (depth + 1)
    return brackets[0] + ind + ("," + ind).join(items) + ind[:-2] + brackets[1]


def render_report(report) -> str:
    """A report as JSON, its keys sorted and indented by two spaces.
    ``solve --json`` reports are written by :func:`report_text`."""
    return json.dumps(report, indent=2, sort_keys=True)


def parse_function_arg(arg: str, space) -> FunctionOnSpace:
    """A function on ``space`` (labels or a grid) given inline as JSON,
    or in a file via an ``@path`` argument.  Values are numbers or the
    infinity strings."""
    if arg.startswith("@"):
        doc = _read_json(arg[1:], "function file")
    else:
        try:
            doc = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"inline function is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("a function must be a JSON object of label: value")
    return FunctionOnSpace.from_mapping(space, doc)
