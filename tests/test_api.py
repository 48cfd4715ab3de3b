import pathlib
import re
import types

import galois_solve

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _documented_names():
    """The backticked names of the README's Library API section, in
    order of appearance."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([^`]+)`", section)


def test_every_export_is_documented():
    exported = {name for name, value in vars(galois_solve).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    documented = _documented_names()
    assert sorted(set(documented) - exported) == []
    assert sorted(exported - set(documented)) == []
    # each name once
    assert len(documented) == len(set(documented))
