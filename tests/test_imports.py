"""Source guards: the package imports only the standard library, and one
loop writes the credit ledger."""

import ast
import pathlib
import sys

import pbtsim

SOURCES = sorted(pathlib.Path(pbtsim.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 5
    outside = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in absolute_imports(path)
        if module != "pbtsim" and module not in sys.stdlib_module_names
    ]
    assert outside == []


LEDGER_WRITES = {"reserve", "release", "commit_payment"}


def ledger_writers(path):
    """(line, enclosing function) of every call of a ledger-writing method name."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name if function is None else function)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in LEDGER_WRITES):
                yield child.lineno, function
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)


def test_only_settle_reserves_releases_or_commits():
    calls = [
        (path.name, function, line)
        for path in SOURCES
        for line, function in ledger_writers(path)
    ]
    assert {(name, function) for name, function, _ in calls} == {("routing.py", "settle")}


def test_ledger_guard_names_the_enclosing_function(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "g.reserve(0, 1, 2)\n"
        "def f(g):\n"
        "    def inner():\n"
        "        g.release(0, 1, 2)\n"
        "    return g.commit_payment([], 1) or g.weight(0, 1)\n"
    )
    assert list(ledger_writers(source)) == [(1, None), (4, "f"), (5, "f")]


def test_guard_sees_a_third_party_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import os\nfrom networkx import DiGraph\nfrom . import graph\n")
    assert list(absolute_imports(source)) == [(1, "os"), (2, "networkx")]
