"""Every cap is assigned in `pisot.limits` alone, which imports nothing from
the package: the other modules read each cap from there."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pisot"


def _module_level_names(node):
    """Names bound by assignment outside any function or class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            yield child.id
        yield from _module_level_names(child)


def _is_cap(name):
    return name.startswith("MAX_") or name == "THRESHOLD_CAP"


def test_only_limits_assigns_a_cap():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "limits.py" in modules
    for path in modules:
        caps = {n for n in _module_level_names(ast.parse(path.read_text(encoding="utf-8")))
                if _is_cap(n)}
        if path.name == "limits.py":
            assert "MAX_WORK_BITS" in caps and "THRESHOLD_CAP" in caps
        else:
            assert not caps, (path.name, sorted(caps))


def test_limits_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "limits.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "pisot", ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "pisot" for a in node.names), ast.unparse(node)
