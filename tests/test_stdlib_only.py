"""The package imports nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_mpmath():
    # mpmath is a test and benchmark dependency only.
    probe = "import sys, pisot.cli; sys.exit('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


def test_every_import_is_stdlib_or_relative():
    # Every import statement, lazy ones inside functions included.
    modules = sorted((SRC / "pisot").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top != "mpmath" and top in sys.stdlib_module_names, (path.name, name)
