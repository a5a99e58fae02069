"""Package-wide structure: no module keeps mutable global state, no
import goes unused, and no parameter exists that no caller varies."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from loopgerbe import caloron, forms, gerbe, liegroup, loops

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "loopgerbe"


def test_no_module_rebinds_a_global():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_gridfun_is_frozen():
    # the kept eigendecomposition of a tangent must match its samples
    X = loops.GridFun.zero(loops.ThetaGrid(16), 2)
    for name in ("vals", "dvals"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(X, name, None)


def test_forms_has_no_type_registry():
    # point and tangent types flow and bracket through their own methods
    assert not hasattr(forms, "register_point_type")
    assert not hasattr(forms, "register_tangent_type")


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    offenders = [u for path in paths for u in _unused_imports(path)]
    assert offenders == []


def _functions(mod):
    """Every public function of the module and public method of its classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                fn = getattr(raw, "__func__", raw)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield name + "." + attr, fn


def _params(fn) -> tuple:
    return tuple(inspect.signature(fn).parameters)


def test_no_parameter_that_no_caller_varies():
    # Richardson extrapolation is always on outside the exterior
    # derivative, whose step-ladder study switches it off
    takes = [name for mod in (gerbe, caloron) for name, fn in _functions(mod)
             if "richardson" in _params(fn)]
    assert takes == []
    assert _params(liegroup.dexp_left) == ("X", "dX")
    assert _params(liegroup.dexp_right) == ("X", "dX")
    assert _params(loops.conj_loop) == ("h", "X")
