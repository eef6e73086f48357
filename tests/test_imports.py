"""Each sievekit module uses every name that its top-level imports bind
(``from __future__ import annotations`` aside); ``__init__.py``
re-exports by importing, so it is not checked."""

import ast
from pathlib import Path

import pytest

import sievekit

MODULES = sorted(p.name for p in Path(sievekit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no Name node
    of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.ones(1)\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (Path(sievekit.__file__).parent / module).read_text()
    assert unused_imports(source) == []
