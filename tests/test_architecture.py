"""Module layering: the library never depends on the command line, and
every strategy policy defines its own clone."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import gamelab
from gamelab import breaker, maker

PACKAGE = Path(gamelab.__file__).parent


def imports_cli(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "gamelab.cli" or a.name.startswith("gamelab.cli.") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module == "gamelab.cli":
                return True
            if node.level == 1 and module == "cli":
                return True
            package_itself = (node.level == 0 and module == "gamelab") or (
                node.level == 1 and not module
            )
            if package_itself and any(a.name == "cli" for a in node.names):
                return True
    return False


def test_no_library_module_imports_the_cli():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")
    assert len(modules) >= 10
    offenders = [p.name for p in modules if imports_cli(ast.parse(p.read_text()))]
    assert offenders == []


def test_detector_sees_every_import_form():
    for src in (
        "import gamelab.cli",
        "from gamelab.cli import main",
        "from gamelab import cli",
        "from .cli import run_match",
        "from . import cli",
        "def f():\n    from .cli import main\n",
    ):
        assert imports_cli(ast.parse(src)), src
    for src in ("from .match import run_match", "import gamelab.engine", "from .. import cli"):
        assert not imports_cli(ast.parse(src)), src


def test_every_policy_defines_its_own_clone():
    # the benchmark tracer wraps only methods a class defines itself, so an
    # inherited clone would drop out of maker.clone and breaker.clone
    policies = [
        cls
        for module in (maker, breaker)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and (hasattr(cls, "move") or hasattr(cls, "micro_move"))
    ]
    assert len(policies) >= 7
    assert [cls.__name__ for cls in policies if "clone" not in vars(cls)] == []
