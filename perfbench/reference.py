"""Independent reference for galois-solve outputs, in plain numpy.

Nothing here imports galois_solve.  A problem is held as a
:class:`RefProblem` with arrays for the kernel and the target; the
checks recompute the adjoint candidate ``f_min``, the covering sets at
the problem's tolerance, the cover and minimality verdict and the
residual, and re-verify any second solution with their own forward
transform.

Covering-set membership is decided with a small rounding band around
the tie threshold ``f_min(y) - tol``: entries clearly above it must be
in the reported set, entries clearly below must not, and entries inside
the band may go either way.  The verdict is then recomputed from the
reported sets, so a report passes only when its sets are right and its
verdict follows from them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Tolerance the problem format uses when a file sets none.
DEFAULT_TOL = 1e-9

#: Column block for the dense reductions.
BLOCK = 512

OFF, AFFINE, SPOWER, TABULATED = 0, 1, 2, 3
_FAMILIES = ("fenchel_dot", "quadratic", "omega_lipschitz", "weighted_power")


@dataclass
class RefProblem:
    """A problem as arrays.

    ``kind`` is ``moreau`` (``bbar``), ``table`` (per-entry form codes and
    parameters) or ``grid`` (a family on uniform grids, evaluated in
    blocks on demand).
    """

    kind: str
    x_labels: List[str]
    y_labels: List[str]
    g: np.ndarray
    tol: float = DEFAULT_TOL
    bbar: Optional[np.ndarray] = None
    forms: Optional[Dict[str, np.ndarray]] = None
    grid: Optional[Dict] = None

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.x_labels), len(self.y_labels)


# ----------------------------------------------------------------------
# grids


def axis_count(lo: float, hi: float, step: float) -> int:
    """Points on a uniform axis, as the problem-file format defines them."""
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def axis_points(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(axis_count(lo, hi, step))


def grid_points(spec: Dict) -> np.ndarray:
    """Points of a grid spec: shape (n,) in 1-D, (n, d) otherwise."""
    if "dims" in spec:
        axes = [axis_points(*map(float, d)) for d in spec["dims"]]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    return axis_points(float(spec["min"]), float(spec["max"]), float(spec["step"]))


def grid_labels(pts: np.ndarray) -> List[str]:
    if pts.ndim == 1:
        return [format(v, ".12g") for v in pts]
    return ["(" + ",".join(format(c, ".12g") for c in row) + ")" for row in pts]


def _grid_block(grid: Dict, rows: slice, cols: slice) -> np.ndarray:
    """Coupling values bbar(x, y) for a block of x rows and y columns."""
    xp, yp = grid["xp"][rows], grid["yp"][cols]
    fam, prm = grid["family"], grid["params"]
    if fam == "weighted_power":
        return -xp[:, 1:2] * np.abs(yp[None, :] - xp[:, 0:1]) ** prm["p"]
    if xp.ndim == 1:
        dot = xp[:, None] * yp[None, :]
        dist = np.abs(yp[None, :] - xp[:, None])
        sq = yp * yp
    else:
        dot = xp @ yp.T
        dist = np.sqrt(((yp[None, :, :] - xp[:, None, :]) ** 2).sum(axis=2))
        sq = (yp * yp).sum(axis=1)
    if fam == "fenchel_dot":
        return dot
    if fam == "quadratic":
        return dot - 0.5 * prm["a"] * sq[None, :]
    return -prm.get("a", 1.0) * dist ** prm.get("q", 1.0)


# ----------------------------------------------------------------------
# scalar forms, evaluated elementwise


def _pl_eval(pts: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Piecewise-linear map through breakpoints ``pts`` (..., K, 2),
    extended linearly beyond both ends."""
    k = pts.shape[-2]
    s, t = pts[..., 0], pts[..., 1]
    idx = np.clip((s <= lam[..., None]).sum(axis=-1) - 1, 0, k - 2)[..., None]
    s0 = np.take_along_axis(s, idx, -1)[..., 0]
    s1 = np.take_along_axis(s, idx + 1, -1)[..., 0]
    t0 = np.take_along_axis(t, idx, -1)[..., 0]
    t1 = np.take_along_axis(t, idx + 1, -1)[..., 0]
    return t0 + (lam - s0) * (t1 - t0) / (s1 - s0)


def _forms_eval(forms: Dict[str, np.ndarray], lam: np.ndarray,
                adjoint: bool) -> np.ndarray:
    """Each form (or its closed-form adjoint) at ``lam``, same shape.

    Forward: affine c - m*l, signed power c - sgn(l-s)|l-s|^p, tabulated
    through its breakpoints.  Adjoint: (c - t)/m, s - sgn(t-c)|t-c|^(1/p),
    and the tabulated map with its breakpoints mirrored.  Every form maps
    +inf to -inf and -inf to +inf; Off is -inf everywhere.
    """
    code, c, m, sh = forms["code"], forms["c"], forms["m"], forms["shift"]
    out = np.full(lam.shape, -math.inf)
    fin = np.isfinite(lam)
    lamf = np.where(fin, lam, 0.0)
    with np.errstate(all="ignore"):
        aff = code == AFFINE
        if adjoint:
            out[aff] = (c[aff] - lamf[aff]) / m[aff]
        else:
            out[aff] = c[aff] - m[aff] * lamf[aff]
        sp = code == SPOWER
        if adjoint:
            d = lamf[sp] - c[sp]
            out[sp] = sh[sp] - np.sign(d) * np.abs(d) ** (1.0 / m[sp])
        else:
            d = lamf[sp] - sh[sp]
            out[sp] = c[sp] - np.sign(d) * np.abs(d) ** m[sp]
        tb = code == TABULATED
        if tb.any():
            pts = forms["pts"][tb]
            if adjoint:
                pts = pts[:, ::-1, ::-1]
            out[tb] = _pl_eval(pts, lamf[tb])
    on = code != OFF
    out[on & (lam == math.inf)] = -math.inf
    out[on & (lam == -math.inf)] = math.inf
    return out


# ----------------------------------------------------------------------
# the two transforms, blocked


def adjoint_block(p: RefProblem, cols: slice) -> np.ndarray:
    """b°(y, x, g(x)) for all x and the y columns in ``cols``: shape
    (nx, ncols), -inf off the support."""
    g = p.g
    if p.kind == "table":
        sub = {k: v[:, cols] for k, v in p.forms.items()}
        lam = np.broadcast_to(g[:, None], sub["code"].shape)
        return _forms_eval(sub, lam, adjoint=True)
    if p.kind == "moreau":
        b = p.bbar[:, cols]
    else:
        b = _grid_block(p.grid, slice(None), cols)
    return _sub_absorbing(b, g[:, None])


def forward(p: RefProblem, f: np.ndarray) -> np.ndarray:
    """(Bf)(x) = max_y b(x, y, f(y)), with f allowed to take +-inf."""
    nx, ny = p.shape
    if p.kind == "table":
        lam = np.broadcast_to(f[None, :], p.forms["code"].shape)
        return _forms_eval(p.forms, lam, adjoint=False).max(axis=1)
    out = np.empty(nx)
    for lo in range(0, nx, BLOCK):
        rows = slice(lo, min(lo + BLOCK, nx))
        b = p.bbar[rows] if p.kind == "moreau" else _grid_block(p.grid, rows, slice(None))
        out[rows] = _sub_absorbing(b, f[None, :]).max(axis=1)
    return out


def _sub_absorbing(b: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """b - lam with -inf absorbing: -inf - anything = -inf, b - (+inf) =
    -inf, finite b - (-inf) = +inf."""
    with np.errstate(invalid="ignore"):
        out = b - lam
    out[np.isnan(out)] = -math.inf
    return out


def adjoint_candidate(p: RefProblem) -> np.ndarray:
    """f_min(y) = max_x b°(y, x, g(x))."""
    ny = len(p.y_labels)
    out = np.empty(ny)
    for lo in range(0, ny, BLOCK):
        cols = slice(lo, min(lo + BLOCK, ny))
        out[cols] = adjoint_block(p, cols).max(axis=0)
    return out


# ----------------------------------------------------------------------
# checking


@dataclass
class Verdict:
    """What the reference concluded about one output."""

    errors: List[str]
    status: Optional[str] = None
    mean_set_size: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.errors


def _close(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol + 1e-9 * max(1.0, abs(a), abs(b))


def _num(v) -> float:
    if v == "+inf" or v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def check_sets(p: RefProblem, f_min: np.ndarray,
               claimed: Dict[str, Sequence[str]], errors: List[str]):
    """Validate reported covering sets against the reference values.

    ``f_min`` is the reported candidate (already checked close to the
    reference one); membership thresholds use it, as the solver does.
    """
    xi = {l: i for i, l in enumerate(p.x_labels)}
    ny = len(p.y_labels)
    uni = p.g > -math.inf
    for lo in range(0, ny, BLOCK):
        cols = slice(lo, min(lo + BLOCK, ny))
        vals = adjoint_block(p, cols)
        for jj, j in enumerate(range(cols.start, cols.stop)):
            yl = p.y_labels[j]
            if yl not in claimed:
                continue
            m = f_min[j]
            col = vals[:, jj]
            supp = col > -math.inf
            if m == -math.inf:
                must = supp.copy()
                may = must
            elif m == math.inf:
                must = col == math.inf
                may = must
            else:
                thr, band = m - p.tol, 1e-11 * (1.0 + abs(m))
                must = supp & (col >= thr + band)
                may = supp & (col >= thr - band)
            must &= uni
            may &= uni
            got = np.zeros(len(p.x_labels), dtype=bool)
            try:
                got[[xi[l] for l in claimed[yl]]] = True
            except KeyError as exc:
                errors.append(f"set of {yl} names unknown x {exc}")
                continue
            if (must & ~got).any():
                miss = p.x_labels[int(np.argmax(must & ~got))]
                errors.append(f"covering set of {yl} misses {miss}")
            if (got & ~may).any():
                extra = p.x_labels[int(np.argmax(got & ~may))]
                errors.append(f"covering set of {yl} wrongly holds {extra}")


def cover_verdict(universe: Sequence[str], pool: Sequence[str],
                  sets: Dict[str, Sequence[str]]):
    """(status, uncovered, essential) of a family of covering sets."""
    counts = {w: 0 for w in universe}
    for y in pool:
        for w in sets[y]:
            counts[w] += 1
    uncovered = [w for w in universe if counts[w] == 0]
    essential = [y for y in pool if any(counts[w] == 1 for w in sets[y])]
    if uncovered:
        status = "no_solution"
    elif len(essential) == len(pool):
        status = "unique"
    else:
        status = "multiple"
    return status, uncovered, essential


def check_report(p: RefProblem, rep: dict) -> Verdict:
    """Check a ``solve --json`` report (or the same dict from the
    library) against the reference."""
    errors: List[str] = []
    try:
        return _check_report(p, rep, errors)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        errors.append(f"malformed report: {exc!r}")
        return Verdict(errors)


def _check_report(p: RefProblem, rep: dict, errors: List[str]) -> Verdict:
    ref = adjoint_candidate(p)
    if set(rep["f_min"]) != set(p.y_labels):
        errors.append("f_min labels differ from the y side")
        return Verdict(errors)
    got = np.array([_num(rep["f_min"][l]) for l in p.y_labels])
    for j, l in enumerate(p.y_labels):
        if not _close(got[j], ref[j], 0.0):
            errors.append(f"f_min({l}) = {got[j]!r}, reference {ref[j]!r}")
            break

    universe = [l for l, v in zip(p.x_labels, p.g) if v > -math.inf]
    pool = [l for l, v in zip(p.y_labels, got) if v < math.inf]
    cover = rep["cover"]
    sets = cover["sets"]
    if sorted(sets) != sorted(pool):
        errors.append("covering sets are not indexed by the pool")
        return Verdict(errors)
    check_sets(p, got, sets, errors)
    status, uncovered, essential = cover_verdict(universe, pool, sets)
    if rep["status"] != status:
        errors.append(f"status {rep['status']} but the sets give {status}")
    if list(cover["uncovered"]) != uncovered:
        errors.append("uncovered points differ")
    if list(cover["essential"]) != essential:
        errors.append("essential indices differ")
    if bool(cover["minimal"]) != (status == "unique"):
        errors.append("minimality flag disagrees with the sets")

    pg = forward(p, got)
    res = rep["residual"]
    for i, l in enumerate(p.x_labels):
        gv, pv = (_num(v) for v in res[l])
        if gv != p.g[i] or not _close(pv, pg[i], 0.0):
            errors.append(f"residual at {l} is {res[l]}, reference "
                          f"[{p.g[i]!r}, {pg[i]!r}]")
            break

    alt = rep["witness_alt"]
    if (alt is not None) != (status == "multiple"):
        errors.append("second solution present iff status is multiple: violated")
    elif alt is not None:
        w = np.array([_num(alt[l]) for l in p.y_labels])
        _check_witness(p, got, w, errors)
    mean = float(np.mean([len(sets[y]) for y in pool])) if pool else 0.0
    return Verdict(errors, status, mean)


def _check_witness(p: RefProblem, f_min: np.ndarray, w: np.ndarray,
                   errors: List[str]):
    if np.any(w < f_min - p.tol):
        errors.append("second solution lies below the minimal one")
    if all(_close(a, b, 0.0) for a, b in zip(w, f_min)):
        errors.append("second solution equals the minimal one")
    bw = forward(p, w)
    for i, l in enumerate(p.x_labels):
        if p.g[i] > -math.inf and not _close(bw[i], p.g[i], p.tol):
            errors.append(f"second solution fails at {l}: B f = {bw[i]!r}, "
                          f"g = {p.g[i]!r}")
            break


_ROW = re.compile(r"^\s*(\S+): (.*)$")


def check_text(p: RefProblem, text: str) -> Verdict:
    """Check the human ``solve`` output: the starred adjoint table, the
    status line and the minimal solution lines."""
    errors: List[str] = []
    lines = text.splitlines()
    try:
        head = lines.index("adjoint evaluation (rows y, maximisers marked *):")
        at = lines.index("minimal solution candidate:")
    except ValueError:
        return Verdict(["text report lacks its sections"])
    ny = len(p.y_labels)
    table = lines[head + 1:head + 1 + ny]
    status_line = lines[head + 1 + ny]
    sets, cells = {}, np.empty((len(p.x_labels), ny))
    for j, row in enumerate(table):
        m = _ROW.match(row)
        toks = m.group(2).split() if m else []
        if not m or m.group(1) != p.y_labels[j] or len(toks) != len(p.x_labels):
            return Verdict([f"bad adjoint table row {row!r}"])
        sets[p.y_labels[j]] = [p.x_labels[i] for i, t in enumerate(toks)
                               if t.startswith("*")]
        cells[:, j] = [_num(t.lstrip("*")) for t in toks]
    f_min = {}
    for row in lines[at + 1:at + 1 + ny]:
        label, _, val = row.strip().partition(" = ")
        f_min[label] = _num(val)
    if list(f_min) != p.y_labels:
        return Verdict(["minimal solution lines do not list the y side"])
    ref = adjoint_candidate(p)
    got = np.array([f_min[l] for l in p.y_labels])
    for j, l in enumerate(p.y_labels):
        if not _close(got[j], ref[j], 0.0):
            errors.append(f"printed f_min({l}) = {got[j]!r}, reference {ref[j]!r}")
    vals = adjoint_block(p, slice(None))
    for i in range(len(p.x_labels)):
        for j in range(ny):
            a, b = cells[i, j], vals[i, j]
            if not _close(a, b, 0.0):
                errors.append(f"adjoint table cell ({p.y_labels[j]}, "
                              f"{p.x_labels[i]}) = {a!r}, reference {b!r}")
    universe = [l for l, v in zip(p.x_labels, p.g) if v > -math.inf]
    pool = [l for l, v in zip(p.y_labels, ref) if v < math.inf]
    claimed = {y: [w for w in sets[y] if w in set(universe)] for y in pool}
    check_sets(p, ref, claimed, errors)
    status, _, _ = cover_verdict(universe, pool, claimed)
    if status_line != f"status: {status}":
        errors.append(f"{status_line!r} but the starred sets give {status}")
    return Verdict(errors, status)


def check_lab(name: str, rep: dict) -> Verdict:
    errors = []
    if rep.get("pass") is not True:
        errors.append(f"lab {name} did not pass")
    return Verdict(errors, "pass" if not errors else "fail")


# ----------------------------------------------------------------------
# reading problem documents


def _default_labels(prefix: str, n: int) -> List[str]:
    return [f"{prefix}{k + 1}" for k in range(n)]


def forms_from_entries(entries: Sequence[Sequence[dict]]) -> Dict[str, np.ndarray]:
    """Form codes and parameters from JSON scalar-form dicts."""
    nx, ny = len(entries), len(entries[0])
    code = np.zeros((nx, ny), dtype=np.int8)
    c, m, sh = np.zeros((nx, ny)), np.ones((nx, ny)), np.zeros((nx, ny))
    npts = {len(e["points"]) for r in entries for e in r if e["type"] == "table"}
    if len(npts) > 1:
        raise ValueError("the reference needs one breakpoint count per problem")
    k = npts.pop() if npts else 2
    pts = np.zeros((nx, ny, k, 2))
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            kind = e["type"]
            if kind == "affine":
                if e["c"] == "-inf":
                    continue
                code[i, j], c[i, j], m[i, j] = AFFINE, e["c"], e["m"]
            elif kind == "signed_power":
                code[i, j], c[i, j], m[i, j] = SPOWER, e["c"], e["p"]
                sh[i, j] = e.get("shift", 0.0)
            elif kind == "table":
                code[i, j] = TABULATED
                pts[i, j] = e["points"]
            elif kind != "off":
                raise ValueError(f"unknown scalar form {kind!r}")
    return {"code": code, "c": c, "m": m, "shift": sh, "pts": pts}


def grid_problem(spec: dict, tol: float = DEFAULT_TOL) -> RefProblem:
    """A grid-kernel problem with a zero target."""
    if spec["family"] not in _FAMILIES:
        raise ValueError(f"unknown family {spec['family']!r}")
    xp, yp = grid_points(spec["x_grid"]), grid_points(spec["y_grid"])
    grid = {"family": spec["family"], "params": spec.get("params") or {},
            "xp": xp, "yp": yp}
    xl, yl = grid_labels(xp), grid_labels(yp)
    return RefProblem("grid", xl, yl, np.zeros(len(xl)), tol, grid=grid)


def problem_from_doc(doc: dict) -> RefProblem:
    """Read a problem document (the dict a problem file holds)."""
    spec = doc["kernel"]
    tol = float(doc.get("tolerance", DEFAULT_TOL))
    if doc.get("x_restrict") is not None:
        raise ValueError("the reference does not handle x_restrict")
    kind = spec["type"]
    if kind == "grid":
        p = grid_problem(spec, tol)
    elif kind == "moreau":
        rows = spec["bbar"]
        b = np.array([[_num(v) for v in r] for r in rows], dtype=float)
        p = RefProblem("moreau", doc.get("x") or _default_labels("x", b.shape[0]),
                       doc.get("y") or _default_labels("y", b.shape[1]),
                       np.zeros(b.shape[0]), tol, bbar=b)
    elif kind == "table":
        forms = forms_from_entries(spec["entries"])
        nx, ny = forms["code"].shape
        p = RefProblem("table", doc.get("x") or _default_labels("x", nx),
                       doc.get("y") or _default_labels("y", ny),
                       np.zeros(nx), tol, forms=forms)
    else:
        raise ValueError(f"unknown kernel type {kind!r}")
    p.x_labels, p.y_labels = list(p.x_labels), list(p.y_labels)
    p.g = np.array([_num(doc["g"][l]) for l in p.x_labels])
    return p
