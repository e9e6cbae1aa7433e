"""Module layering: every intra-package import names an earlier module."""

import ast
from pathlib import Path

import dcclsc

PACKAGE = Path(dcclsc.__file__).parent

#: Lowest layer first; a module may import only modules before it.
ORDER = ("errors", "params", "market", "closed_form", "oracle", "audit", "report", "suites",
         "cli")


def _package_imports(tree: ast.Module):
    """(line, imported module) for every import of a package module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and node.module.split(".")[0] == "dcclsc":
                base = node.module.partition(".")[2]
            else:
                continue
            names = [base] if base else [a.name for a in node.names]
            yield from ((node.lineno, name.split(".")[0]) for name in names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[1]) for a in node.names
                        if a.name.startswith("dcclsc."))


def test_every_module_is_layered():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ORDER) | {"__init__"}


def test_imports_only_reach_down():
    backward = []
    for rank, module in enumerate(ORDER):
        path = PACKAGE / f"{module}.py"
        for line, target in _package_imports(ast.parse(path.read_text())):
            if target != "__version__" and target not in ORDER[:rank]:
                backward.append(f"{module}.py:{line} imports {target}")
    assert backward == []
