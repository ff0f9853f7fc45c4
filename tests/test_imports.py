"""The package has no runtime dependencies: it imports only the standard library."""

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


def test_guard_sees_a_third_party_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import os\nfrom networkx import DiGraph\nfrom . import graph\n")
    assert list(absolute_imports(source)) == [(1, "os"), (2, "networkx")]
