"""The bytes the command line writes, pinned by sha256.

``solve --json`` and ``apply --direction Bstar --json`` on the three
fixtures, on a seeded 600 x 300 integer coupling table with -inf
entries, which spans several blocks of the reduction, with a planted
target and a random one, and on small files of every grid family.  The
table's inputs are integers, so every value its outputs print is exact,
and a change in their bytes is a change in behaviour, not in rounding.
The grid files sit on dyadic grids with integer f0, so their planted
targets are exact except where a root or a power rounds (the
``omega_lipschitz`` file with q = 0.5).  ``scripts/output_digests.py``
compares every output of the benchmark inputs; this test catches a
byte change in seconds.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from galois_solve.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: (file, subcommand) -> (exit code, sha256 of standard output)
PINNED = {
    ("coupling_600x300_planted.json", "apply"): (
        0, "0cb3d069bce5bde4ffdc9584431f7ee1772847cc80e773460be444a9edd75d1d"),
    ("coupling_600x300_planted.json", "solve"): (
        0, "32622b22d99a17e3db3ce14a5131c26fa63bbbe9d542577d0e4c2e73d3db7fd6"),
    ("coupling_600x300_random.json", "apply"): (
        0, "dd8ae5c8b1a891cebc8b64acb88d2a52bd581154d922433aa56cda969bbd27be"),
    ("coupling_600x300_random.json", "solve"): (
        3, "cb36092a16de3850a00ee0d116488c80dbf9c2c9d495cd58c2c5ed1d8186d1db"),
    ("grid_fenchel_dot_1d.json", "apply"): (
        0, "78bd0369d856e8c61d2c5b71a536b09e286d45bbfb737c9bb90e6c3a80cb5745"),
    ("grid_fenchel_dot_1d.json", "solve"): (
        0, "76174965a0994dd2943ce7e8ff29cf33069e24f93f6e4d0cb2a64ce91d8a2bd6"),
    ("grid_fenchel_dot_2d.json", "apply"): (
        0, "2574fd0df64848f46f18bf330d202c12ae44db90430cc56cc1a9d0d9f9851a25"),
    ("grid_fenchel_dot_2d.json", "solve"): (
        3, "711fb8ef2afdbb38f7f9bb3ec933dc467e97e58c00d20744a26ce231f2326c7c"),
    ("grid_omega_lipschitz_q05.json", "apply"): (
        0, "6109ca950891141c9b40adeab2bedd42ed4c978a41f2fe4aeee107f80afe4ec3"),
    ("grid_omega_lipschitz_q05.json", "solve"): (
        3, "7d6c2d37d45e387b2a1daa3788a54993019922511fcd58fa4267d7a2628411b8"),
    ("grid_omega_lipschitz_q1.json", "apply"): (
        0, "6f047a0cfccf8f2f271db336aee933021ab30e31b9f8f6fc454143843b6e4f50"),
    ("grid_omega_lipschitz_q1.json", "solve"): (
        0, "e2d303c4d94af23464a4ff881d3c4b5a477dfe3f82365ca91ce2c003a9e0fa72"),
    ("grid_quadratic_1d.json", "apply"): (
        0, "eb4679e9f443d2bf424c1b467e84c851f4fc3a15af220e8ed1e1a2bb088abe69"),
    ("grid_quadratic_1d.json", "solve"): (
        3, "9cf1aa5c926bcac5cfb63fcc6f0a2b1e0ff80ceda62b4708ca8406d7352f6955"),
    ("grid_weighted_power.json", "apply"): (
        0, "338ef3b3b2ca07abf97c915bec7767944a65a0e6296f9c6c600666e640ac8816"),
    ("grid_weighted_power.json", "solve"): (
        0, "d2253f7145965ff6b81c9442a397f23946e4de0c3b9a52bfe326ec2cf32d49b3"),
    ("moreau_small.json", "apply"): (
        0, "72738aa08ce43d07944ccfd79ec1513b29c0dd4305734ac204ade7965036efcf"),
    ("moreau_small.json", "solve"): (
        0, "f8ae56cf26f7b052460c28ec9ca83c1947c65b5b5054a9635d40c96e6be64810"),
    ("worked_example.json", "apply"): (
        0, "36d2515270d18b2ed18db351a3066c27a17f89f7e93754cf57ba2eaed35d833c"),
    ("worked_example.json", "solve"): (
        0, "92f14ddeff6cb803916834e4e94de1034f374146f5f888461e04d1469618e542"),
    ("worked_example_unsolvable.json", "apply"): (
        0, "0cd4a6f1f619e660d93a9115f38afe9fa650731a33ecd7e5ee252e4d5b173281"),
    ("worked_example_unsolvable.json", "solve"): (
        3, "f9a9c43d99fb84dc544d823a63f3e6e672f765972a259160cbd95d5f64a1b784"),
}


def _coupling_problem(seed: int, nx: int = 600, ny: int = 300):
    """A seeded integer coupling table in [-40, 40] with about a quarter
    of its entries -inf, every row and column repaired to keep a finite
    entry, and two targets: B f0 for an integer f0, and random integers."""
    rng = np.random.default_rng(seed)
    bbar = rng.integers(-40, 41, (nx, ny)).astype(float)
    bbar[rng.random((nx, ny)) < 0.25] = -math.inf
    bbar[np.arange(nx), rng.integers(0, ny, nx)] = rng.integers(-40, 41, nx)
    bbar[rng.integers(0, nx, ny), np.arange(ny)] = rng.integers(-40, 41, ny)
    f0 = rng.integers(-20, 21, ny)
    planted = (bbar - f0).max(axis=1)
    targets = {"planted": planted, "random": rng.integers(-30, 61, nx).astype(float)}
    x = [f"x{i + 1}" for i in range(nx)]
    y = [f"y{j + 1}" for j in range(ny)]
    cells = [["-inf" if v == -math.inf else int(v) for v in row] for row in bbar.tolist()]
    return {name: {"x": x, "y": y, "kernel": {"type": "moreau", "bbar": cells},
                   "g": dict(zip(x, map(int, g.tolist())))}
            for name, g in targets.items()}


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(round((hi - lo) / step) + 1)


def _grid_points(dims):
    """The points of a grid, shape (n,) in 1-D and (n, d) otherwise, and
    their labels as the problem file's target names them."""
    axes = [_axis(*d) for d in dims]
    if len(axes) == 1:
        return axes[0], [format(v, ".12g") for v in axes[0]]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return pts, ["(" + ",".join(format(c, ".12g") for c in p) + ")" for p in pts]


LINE_X = ((-2.0, 2.0, 0.125),)
LINE_Y = ((-2.0, 2.0, 0.25),)

#: name -> (family, params, x dims, y dims, the table from x and y points)
GRID_FILES = {
    "fenchel_dot_1d": ("fenchel_dot", {}, LINE_X, LINE_Y,
                       lambda x, y: x[:, None] * y[None, :]),
    "quadratic_1d": ("quadratic", {"a": 0.5}, LINE_X, LINE_Y,
                     lambda x, y: x[:, None] * y[None, :] - 0.25 * y * y),
    "omega_lipschitz_q1": ("omega_lipschitz", {"a": 1.5}, LINE_X, LINE_Y,
                           lambda x, y: -1.5 * np.abs(y[None, :] - x[:, None])),
    "omega_lipschitz_q05": ("omega_lipschitz", {"a": 1.0, "q": 0.5}, LINE_X, LINE_Y,
                            lambda x, y: -np.abs(y[None, :] - x[:, None]) ** 0.5),
    "weighted_power": ("weighted_power", {"p": 2.0},
                       ((-1.0, 1.0, 0.25), (0.5, 2.0, 0.5)), LINE_Y,
                       lambda x, y: -x[:, 1:] * (y[None, :] - x[:, :1]) ** 2),
    "fenchel_dot_2d": ("fenchel_dot", {}, ((-1.0, 1.0, 0.25),) * 2, ((-1.0, 1.0, 0.5),) * 2,
                       lambda x, y: x @ y.T),
}


def _grid_problem(seed: int, family, params, x_dims, y_dims, table):
    """A grid-family file with the target B f0 for integer f0 in [0, 4],
    lowered by 1 at one x point on odd seeds."""
    rng = np.random.default_rng(seed)
    xp, x = _grid_points(x_dims)
    yp, _ = _grid_points(y_dims)
    f0 = rng.integers(0, 5, len(yp))
    g = (table(xp, yp) - f0).max(axis=1)
    if seed % 2:
        g[rng.integers(len(g))] -= 1
    grid = lambda dims: {"dims": [list(d) for d in dims]}
    return {"kernel": {"type": "grid", "family": family, "params": params,
                       "x_grid": grid(x_dims), "y_grid": grid(y_dims)},
            "g": dict(zip(x, g.tolist()))}


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    """Every input file by name: the fixtures, the seeded table's two and
    the grid files."""
    files = {p.name: p for p in FIXTURES.glob("*.json")}
    root = tmp_path_factory.mktemp("bytes")
    docs = {f"coupling_600x300_{name}.json": doc
            for name, doc in _coupling_problem(12).items()}
    for seed, (name, spec) in enumerate(GRID_FILES.items()):
        docs[f"grid_{name}.json"] = _grid_problem(seed, *spec)
    for name, doc in docs.items():
        path = root / name
        path.write_text(json.dumps(doc))
        files[name] = path
    return files


def _run(capsys, path: Path, command: str):
    argv = (["solve", str(path), "--json"] if command == "solve" else
            ["apply", str(path), "--direction", "Bstar", "--json"])
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name,command", sorted(PINNED), ids=lambda v: str(v))
def test_output_bytes_are_pinned(capsys, problem_files, name, command):
    assert _run(capsys, problem_files[name], command) == PINNED[name, command]
