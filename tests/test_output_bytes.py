"""The bytes the command line writes, pinned by sha256.

``solve --json`` and ``apply --direction Bstar --json`` on the three
fixtures and on a seeded 600 x 300 integer coupling table with -inf
entries, which spans several blocks of the reduction, with a planted
target and a random one.  The table's inputs are integers, so every
value its outputs print is exact, and a change in their bytes is a
change in behaviour, not in rounding.  ``scripts/output_digests.py``
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


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    """Every input file by name: the fixtures and the seeded table's two."""
    files = {p.name: p for p in FIXTURES.glob("*.json")}
    root = tmp_path_factory.mktemp("bytes")
    for name, doc in _coupling_problem(12).items():
        path = root / f"coupling_600x300_{name}.json"
        path.write_text(json.dumps(doc))
        files[path.name] = path
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
