"""Module layering: the library never depends on the command line, and
every strategy policy defines its own clone and states its memo key, the
state beyond the position that its later moves read, or None; a
randomized policy draws from a draw tape, so forking it copies no
generator state.  Exact solving does not import networkx.  Threshold
crossings and danger sets are written by one routine, and so are the
per-round telemetry rows.  No module-level import goes unused."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gamelab
from gamelab import breaker, maker
from gamelab._util import DrawTape

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


def policies() -> list[type]:
    return [
        cls
        for module in (maker, breaker)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and (hasattr(cls, "move") or hasattr(cls, "micro_move"))
    ]


def test_every_policy_defines_its_own_clone():
    # the benchmark tracer wraps only methods a class defines itself, so an
    # inherited clone would drop out of maker.clone and breaker.clone
    assert len(policies()) >= 7
    assert [cls.__name__ for cls in policies() if "clone" not in vars(cls)] == []


def test_every_policy_states_its_memo_key():
    # the verifier memoizes proven-sound positions only for a strategy with
    # a memo_key method, whose later moves depend on the position and that
    # int alone; such a strategy holds no draw tape and is its own clone,
    # and a subclass must state the claim again rather than inherit it
    assert [cls.__name__ for cls in policies() if "memo_key" not in vars(cls)] == []
    keyed = [cls for cls in policies() if cls.memo_key is not None]
    assert len(keyed) >= 4
    for cls in keyed:
        strategy = cls()
        assert strategy.clone() is strategy, cls.__name__


def test_every_randomized_policy_holds_a_draw_tape():
    # the verifier forks a strategy per line; a tape forks in O(1), and a
    # generator anywhere else would bring back copying its whole state
    randomized = [cls() for cls in policies() if cls.memo_key is None]
    assert len(randomized) >= 3
    assert [type(p).__name__ for p in randomized if type(getattr(p, "rng", None)) is not DrawTape] == []


def test_no_module_copies_a_generator_state():
    calls = [
        f"{p.name}:{node.lineno}"
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("getstate", "setstate")
    ]
    assert calls == []


def test_exact_solving_does_not_import_networkx():
    # the symmetry search is the package's own, so a solve keeps networkx's
    # import cost out of every run that never enumerates trees
    code = (
        "import sys\n"
        "from gamelab.engine import GameConfig\n"
        "from gamelab.exact import game_chromatic_index\n"
        "from gamelab.graph import generate\n"
        "res = game_chromatic_index(generate('complete_bipartite:3:3'), 1, GameConfig.skip_variant(k=1))\n"
        "assert res.value == 4\n"
        "assert 'networkx' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


CROSSING_FIELDS = {"t1_round", "t2_round", "t3_round", "danger"}
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def attribute_aliases(nodes, fields: set[str]) -> set[str]:
    """Local names that ``nodes`` bind to an attribute named in ``fields``,
    directly or by unpacking a tuple."""
    aliases = set()
    for node in nodes:
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
            for t in node.targets:
                if isinstance(t, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(t.elts, node.value.elts)
            for t, v in pairs:
                if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr in fields:
                    aliases.add(t.id)
    return aliases


def crossing_writers(tree: ast.AST) -> set[str]:
    """Functions of a module that write a ``MakerMemory`` crossing field:
    assign or delete the attribute, store into it or call a mutating method
    on it, directly or through a local name bound to it."""
    writers = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = attribute_aliases(ast.walk(fn), CROSSING_FIELDS)

        def is_field(node: ast.AST) -> bool:
            return (isinstance(node, ast.Attribute) and node.attr in CROSSING_FIELDS) or (
                isinstance(node, ast.Name) and node.id in aliases
            )

        for node in ast.walk(fn):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for t in targets:
                for part in ast.walk(t):
                    if isinstance(part, ast.Attribute) and part.attr in CROSSING_FIELDS:
                        writers.add(fn.name)
                    if isinstance(part, ast.Subscript) and is_field(part.value):
                        writers.add(fn.name)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and is_field(node.func.value)
            ):
                writers.add(fn.name)
    return writers


def test_one_routine_writes_threshold_crossings():
    # the paper Maker and telemetry share record_crossings, which freezes
    # danger sets through compute_danger_set; a second writer would let the
    # two drift apart
    writers = {
        f"{p.stem}.{name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for name in crossing_writers(ast.parse(p.read_text()))
    }
    assert writers == {"maker.record_crossings", "maker.compute_danger_set"}


def test_crossing_detector_sees_every_write_form():
    for src in (
        "def f(mem):\n    mem.t1_round[v] = r\n",
        "def f(mem):\n    mem.danger = {}\n",
        "def f(mem):\n    t1, t2 = mem.t1_round, mem.t2_round\n    t2[v] = r\n",
        "def f(mem):\n    d = mem.danger\n    del d[v]\n",
        "def f(mem):\n    mem.t3_round.update(x)\n",
        "def f(mem):\n    d = mem.danger\n    d.setdefault(v, s)\n",
        "def f(self):\n    self.memory.t2_round[v] += 1\n",
    ):
        assert crossing_writers(ast.parse(src)) == {"f"}, src
    for src in (
        "def f(mem):\n    return mem.t1_round.get(v)\n",
        "def f(mem):\n    t1 = mem.t1_round\n    x[v] = t1[v]\n",
        "def f(mem):\n    return v in mem.danger\n",
    ):
        assert crossing_writers(ast.parse(src)) == set(), src


ROW_FIELDS = {"load_rows", "sum_rows"}
GROWERS = {"append", "extend", "insert", "__setitem__"}


def functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function: a method as
    ``Class.method``, a nested function as ``outer.inner``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from functions(node, name + ".")
        else:
            yield from functions(node, prefix)


def own_nodes(fn: ast.AST):
    """Every node of a function's body, but not of the functions or
    classes defined inside it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def row_writers(tree: ast.AST) -> set[str]:
    """Functions of a module that build per-round telemetry rows: add to or
    store into ``load_rows``/``sum_rows`` (directly or through a local name
    bound to one), or store into an index a value that reads a load (an
    attribute ``load`` or a local name bound to one), as a Gamma' sum does."""
    writers = set()
    for name, fn in functions(tree):
        nodes = list(own_nodes(fn))
        row_names = attribute_aliases(nodes, ROW_FIELDS)
        load_names = attribute_aliases(nodes, {"load"})

        def is_rows(node: ast.AST) -> bool:
            return (isinstance(node, ast.Attribute) and node.attr in ROW_FIELDS) or (
                isinstance(node, ast.Name) and node.id in row_names
            )

        def reads_load(node: ast.AST) -> bool:
            return any(
                (isinstance(part, ast.Attribute) and part.attr == "load")
                or (isinstance(part, ast.Name) and part.id in load_names)
                for part in ast.walk(node)
            )

        for node in nodes:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for t in targets:
                for part in ast.walk(t):
                    if isinstance(part, ast.Attribute) and part.attr in ROW_FIELDS:
                        writers.add(name)
                    if isinstance(part, ast.Subscript) and (
                        is_rows(part.value) or (node.value is not None and reads_load(node.value))
                    ):
                        writers.add(name)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in GROWERS
                and is_rows(node.func.value)
            ):
                writers.add(name)
    return writers


def test_one_routine_builds_the_telemetry_rows():
    # analyze replays a log through TraceCollector; a second routine that
    # added rows or summed Gamma' loads would be a second telemetry path,
    # checked only against the first
    writers = {
        f"{p.stem}.{name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for name in row_writers(ast.parse(p.read_text()))
    }
    assert writers == {f"telemetry.TraceCollector.{m}" for m in ("__init__", "observe", "_close_round")}


def test_row_detector_sees_every_write_form():
    for src in (
        "def f(self):\n    self.load_rows.append(row)\n",
        "def f(col):\n    rows = col.sum_rows\n    rows.append(row)\n",
        "def f(col):\n    col.sum_rows += [row]\n",
        "def f(col):\n    col.load_rows[-1] = row\n",
        "def f(col):\n    col.sum_rows.extend(rows)\n",
        "def f(s):\n    sums[x] += s.load[y]\n",
        "def f(s):\n    g, load = s.g, s.load\n    sums[v] = sum(load[u] for u in g.adj[v])\n",
    ):
        assert row_writers(ast.parse(src)) == {"f"}, src
    nested = "def g(s):\n    def f():\n        load = s.load\n        sums[x] -= load[y] - 1\n"
    assert row_writers(ast.parse(nested)) == {"g.f"}
    method = "class C:\n    def f(self, s):\n        self.sums[x] += s.load[y]\n"
    assert row_writers(ast.parse(method)) == {"C.f"}
    for src in (
        "def f(col):\n    return col.load_rows[-1]\n",
        "def f(col):\n    loads = [list(r) for r in zip(*col.load_rows)]\n",
        "def f(s):\n    counts[j] += 1\n    pre = s.load[v] - 1\n",
        "def f(s):\n    load = s.load\n    mult[u] = mult.get(u, 0) + 1\n",
    ):
        assert row_writers(ast.parse(src)) == set(), src


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that the module
    never reads.  ``__future__`` imports, names listed in ``__all__`` and
    imports marked ``# noqa: F401`` (a deliberate re-export) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
            "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
        ):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def test_no_module_level_import_goes_unused():
    files = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) >= 25
    offenders = [
        f"{p.parent.name}/{p.name}: {name}" for p in files for name in unused_imports(p.read_text())
    ]
    assert offenders == []


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport math\nimport os\nos.sep\n"
    assert unused_imports(source) == ["math"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["c"]
    assert unused_imports("import a.b\na.b.c()\n") == []
    assert unused_imports("from a import b  # noqa: F401\n") == []
    assert unused_imports("from a import (\n    b,\n)  # noqa: F401\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    # only module-level imports count: a local one is the function's business
    assert unused_imports("def f():\n    import math\n") == []
