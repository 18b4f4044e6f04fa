"""Every name a module of ``mtslab`` imports is used there or exported,
every name it exports is read by the package or the benchmark, and the
package imports no test code.

An import that outlives the code that read it is dead weight that no
other test notices; this scan names each one. So is an exported name that
only tests read: what tests need to build inputs lives in ``tests/``. The
slow references in ``tests/oracles.py`` are not installed, so no module
of the package may need them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "mtslab"
_BENCH = _SRC.parents[1] / "perfbench"


def _imported(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in kept]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    unused = _unused(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os.path\nfrom json import dumps, loads\n__all__ = ['loads']\n")
    assert _unused(tree) == [("os", 1), ("dumps", 2)]


def _read_by_package(tree):
    """Names package code reads: loaded names and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _read_by_benchmark(tree):
    """Names the benchmark may reach a function by: names, attributes,
    imported names and string constants (its trace points name their
    attributes as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _unread(exporters, readers, benchmark):
    """Exported names that no reader module and no benchmark module reads."""
    exported = set().union(*map(_exported, exporters))
    read = {name for tree in readers for name in _read_by_package(tree)}
    read |= {name for tree in benchmark for name in _read_by_benchmark(tree)}
    return exported - read


# Exported names that only tests read, each with what keeps it in the package.
_WAITING = {
    "summarize": "waits for ROADMAP item 1: only summarize reads engine's opt_units, "
                 "which perfbench traces",
}


def test_every_exported_name_is_read_by_the_package_or_the_benchmark():
    modules = {path: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    readers = [tree for path, tree in modules.items() if path.name != "__init__.py"]
    benchmark = [ast.parse(path.read_text()) for path in sorted(_BENCH.glob("*.py"))]
    unread = _unread(modules.values(), readers, benchmark)
    assert unread == _WAITING.keys(), (
        f"read only by tests: {sorted(unread - _WAITING.keys())}, "
        f"no longer waiting: {sorted(_WAITING.keys() - unread)}")


def test_the_export_scan_sees_a_name_only_tests_read():
    module = ast.parse("def f(): pass\ndef g(): return f()\ndef h(): pass\n"
                       "def k(): pass\n__all__ = ['f', 'g', 'h', 'k']\n")
    init = ast.parse("from .m import g, h\n__all__ = ['g', 'h']\n")
    bench = ast.parse("points = [(m, 'h')]\n")
    assert _unread([module, init], [module], [bench]) == {"g", "k"}


def _test_code_imports(tree):
    """(module, line) for every import that names ``oracles`` or ``tests``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            if {"oracles", "tests"} & set(module.split(".")):
                yield module.strip("."), node.lineno


def test_no_module_of_the_package_imports_test_code():
    found = {path.name: list(_test_code_imports(ast.parse(path.read_text())))
             for path in sorted(_SRC.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}


def test_the_test_code_scan_sees_each_form():
    tree = ast.parse("import tests.oracles\nfrom .oracles import x\n"
                     "from . import oracles\nfrom .core import tests_done\n")
    assert list(_test_code_imports(tree)) == [
        ("tests.oracles", 1), ("oracles.x", 2), ("oracles", 3)]


def test_the_command_line_loads_without_the_tests(tmp_path):
    probe = ("import sys, mtslab.cli\n"
             "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('oracles', 'tests'))\n"
             "assert not loaded, loaded\n"
             "print(mtslab.cli.__file__)\n")
    env = {**os.environ, "PYTHONPATH": str(_SRC.parent)}
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).parent == _SRC
