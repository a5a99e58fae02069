"""Package-wide structure: no module keeps mutable global state."""

import ast
from pathlib import Path

from loopgerbe import forms

SRC = Path(__file__).resolve().parents[1] / "src" / "loopgerbe"


def test_no_module_rebinds_a_global():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_forms_has_no_type_registry():
    # point and tangent types flow and bracket through their own methods
    assert not hasattr(forms, "register_point_type")
    assert not hasattr(forms, "register_tangent_type")
