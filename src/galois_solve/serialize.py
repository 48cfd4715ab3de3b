"""Problem and report files.

Problems are JSON documents; infinities travel as the strings "-inf"
and "+inf" to stay inside standard JSON, and every value is read and
written by the rules of :mod:`galois_solve.extreal`.  Unknown fields in
problem files are rejected rather than ignored, so typos fail loudly.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional, Tuple

from . import extreal
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
        g = FunctionOnSpace.from_mapping(kernel.x_labels, gmap)
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
        "sets": {y: sorted(sol.family.sets[y]) for y in sol.family.index_pool},
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


def render_report(report, sort_keys: bool = True) -> str:
    """``json.dumps(report, indent=2, sort_keys=sort_keys)``, byte for byte.

    With an indent, the json module encodes in pure Python.  Here a list
    or dict of scalars, and a dict of such lists, goes through its C
    encoder in one call, with the line break and indent of its depth as
    the item separator; only the other containers are joined in Python.
    """
    encoders = {}

    def c_encode(o, item_sep: str, key_sep: str = ": ") -> str:
        enc = encoders.get((item_sep, key_sep))
        if enc is None:
            enc = encoders[item_sep, key_sep] = c_make_encoder(
                None, _SCALAR.default, encode_basestring_ascii, None, key_sep,
                item_sep, sort_keys, False, True)
        return "".join(enc(o, 0))

    def encode(o, depth: int) -> str:
        if isinstance(o, dict):
            values = o.values()
        elif isinstance(o, (list, tuple)):
            values = o
        else:
            return _SCALAR.encode(o)
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        outer, ind = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        types = set(map(type, values))
        if types <= _SCALARS:
            text = c_encode(o, "," + ind)
            return text[0] + ind + text[1:-1] + outer + text[-1]
        if (types == {list} and isinstance(o, dict) and set(
                map(type, itertools.chain.from_iterable(values))) <= _SCALARS):
            return _lists_by_key(c_encode(o, ",\0", "\1"), outer, ind,
                                 ind + "  ")
        if isinstance(o, dict):
            if not all(isinstance(k, str) for k in o):
                raise _KeyNotStr
            items = sorted(o.items()) if sort_keys else o.items()
            body = ("," + ind).join(
                encode_basestring_ascii(k) + ": " + encode(v, depth + 1)
                for k, v in items)
            return "{" + ind + body + outer + "}"
        body = ("," + ind).join(encode(v, depth + 1) for v in o)
        return "[" + ind + body + outer + "]"

    try:
        if c_make_encoder is not None:
            return encode(report, 0)
    except _KeyNotStr:
        pass
    # keys that are not strings, which the json module converts first,
    # and interpreters without its C encoder take the json module's path
    return json.dumps(report, indent=2, sort_keys=sort_keys)


_SCALAR = json.JSONEncoder()
_SCALARS = frozenset((str, int, float, bool, type(None)))


class _KeyNotStr(Exception):
    pass


def _lists_by_key(text: str, outer: str, ind: str, inner: str) -> str:
    """Indent a dict of lists of scalars, encoded with the item separator
    ",\\0" and the key separator "\\1".  Encoded strings escape every
    control character, so the markers occur nowhere else, and a list
    ends wherever "]" precedes a separator or the closing brace."""
    text = (text.replace("[],\0", "[]\2")      # an empty list, next key
                .replace("],\0", ind + "]\2")  # a list's end, next key
                .replace("\1[]", ": []")
                .replace("\1[", ": [" + inner)
                .replace("\0", inner)           # within a list
                .replace("\2", "," + ind))
    end = "]" if text[-3] == "[" else ind + "]"
    return "{" + ind + text[1:-2] + end + outer + "}"


def parse_function_arg(arg: str, labels: Tuple[str, ...]) -> FunctionOnSpace:
    """A function given inline as JSON, or in a file via an ``@path``
    argument.  Values are numbers or the infinity strings."""
    if arg.startswith("@"):
        doc = _read_json(arg[1:], "function file")
    else:
        try:
            doc = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"inline function is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("a function must be a JSON object of label: value")
    return FunctionOnSpace.from_mapping(labels, doc)
