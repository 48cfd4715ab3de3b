import importlib
import importlib.util
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


# -- the names perfbench/spans.py traces stay present


def _spans():
    """perfbench/spans.py, loaded by path; it imports only the standard
    library, and nothing of it is installed here."""
    path = README.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(home):
    return importlib.import_module(f"galois_solve.{home}")


def test_every_traced_name_is_present():
    spans = _spans()
    for _, home, attr in spans.FUNCTIONS:
        assert hasattr(_module(home), attr), (home, attr)
    for _, home, cls_name, attr, is_cm in spans.METHODS:
        raw = vars(getattr(_module(home), cls_name)).get(attr)
        assert raw is not None, (cls_name, attr)
        assert isinstance(raw, classmethod) == is_cm, (cls_name, attr)
    for home, cls_name, attr in spans.COUNTED:
        assert attr in vars(getattr(_module(home), cls_name)), (cls_name, attr)


def test_the_tracer_hooks_read_every_kernel_and_its_dual():
    """The hooks read ``DENSE_LIMIT`` and a kernel's ``shape``,
    ``is_grid`` and ``is_moreau``; the ``bbar`` hook receives the dual
    when the engine reads the adjoint."""
    kernel = _module("kernel")
    assert isinstance(kernel.DENSE_LIMIT, int)
    grid = kernel.GridSpec.line(0, 2, 1)
    for k in (kernel.build_moreau([[0.0, 1.0]]),
              kernel.build_table([[{"type": "affine", "c": 0, "m": 2}]]),
              kernel.build_grid_kernel(kernel.FenchelDot(), grid, grid)):
        for side in (k, k.dual):
            assert [type(n) for n in side.shape] == [int, int]
            assert isinstance(side.is_grid, bool) and isinstance(side.is_moreau, bool)
