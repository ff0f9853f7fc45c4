"""Source guards: the package imports only the standard library, no file
imports a name it never reads, the package root imports nothing, one loop
writes the credit ledger, only the graph writes link weights and its link
and neighbor maps, only the embedding writes its tree maps, one function
runs the landmarks' min computation, both max-flow searches push with one
augmentation step, one greedy walk calls next_hop, the engine builds a
run's first trees in one place, node ids are parsed in one place, and every
random draw comes from a seeded stream."""

import ast
import pathlib
import random
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


def callers(path, names):
    """(line, enclosing function) of every call of one of the names.

    The enclosing function is the outermost one, prefixed with its class
    for a method; a call outside any function has None.
    """
    def visit(node, scope, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and function is None:
                yield from visit(child, f"{child.name}.", None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope, function or scope + child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                if getattr(callee, "attr", getattr(callee, "id", None)) in names:
                    yield child.lineno, function
            yield from visit(child, scope, function)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "", None)


def test_only_settle_reserves_releases_or_commits():
    calls = [
        (path.name, function, line)
        for path in SOURCES
        for line, function in callers(path, LEDGER_WRITES)
    ]
    assert {(name, function) for name, function, _ in calls} == {("routing.py", "settle")}


def test_only_the_graph_writes_weights_directly():
    """Everything outside graph.py goes through set_link or the row
    constructor `from_rows`, so the graph alone keeps its neighbor lists in
    step with its links."""
    calls = {path.name for path in SOURCES for _ in callers(path, {"_set_weight"})}
    assert calls == {"graph.py"}
    assert [path.name for path in SOURCES if "_set_weight" in path.read_text(encoding="utf-8")] == ["graph.py"]


GRAPH_MAPS = {"_links", "_adj"}
TREE_MAPS = {"parent", "coord", "prev_coord"}


def map_writes(path, attrs=GRAPH_MAPS):
    """Line of every statement that assigns or deletes an attribute named in
    attrs, or an item of one (at any depth)."""
    def writes(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(writes(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return writes(target.value)
        while isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr in attrs

    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(writes(t) for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_graph_builds_its_maps():
    """No file but graph.py writes a graph's link map or neighbor lists: the
    graph's row constructor builds them and its own methods change them."""
    writes = [f"{path.name}:{line}" for path in SOURCES for line in map_writes(path)]
    assert writes
    assert [w for w in writes if not w.startswith("graph.py:")] == []


def test_map_guard_sees_every_form_of_the_write(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "g._links = {}\n"
        "g._adj[0] = []\n"
        "g._links[0, 1][0] += 5\n"
        "a, g._adj = 1, {}\n"
        "del g._links[0, 1]\n"
        "g._adj: dict = {}\n"
        "x = g._links[0, 1]\n"
        "links = g._links\n"
    )
    assert map_writes(source) == [1, 2, 3, 4, 5, 6]
    source.write_text(
        "emb.coord[4] = (1,)\n"
        "del emb.parent[4]\n"
        "emb.prev_coord[4], x = (), 1\n"
        "emb.coord = {}\n"
        "g._adj[0] = []\n"
        "c = emb.coord[4]\n"
        "emb.parent.get(4)\n"
    )
    assert map_writes(source, TREE_MAPS) == [1, 2, 3, 4]


def test_only_the_embedding_writes_its_trees():
    """No file but embedding.py writes a tree's parent, coordinate or
    previous-coordinate map, so attach, detach and rollback_undo see every
    change: the neighbor indexes' staleness rule and the hop cache rest on
    that."""
    writes = [f"{path.name}:{line}" for path in SOURCES for line in map_writes(path, TREE_MAPS)]
    assert writes
    assert [w for w in writes if not w.startswith("embedding.py:")] == []


def test_only_landmark_min_runs_the_min_computation():
    calls = [
        (path.name, function)
        for path in SOURCES
        for _, function in callers(path, {"mpc_min_assign"})
    ]
    assert calls == [("baselines.py", "_landmark_min")]


def test_only_the_max_flow_searches_augment():
    """FF and the feasibility oracle share the bottleneck-and-push step."""
    calls = [
        (path.name, function)
        for path in SOURCES
        for _, function in callers(path, {"_augment"})
    ]
    assert calls == [("baselines.py", "max_flow"), ("baselines.py", "flow_feasible")]


def test_only_greedy_walk_calls_next_hop():
    """GE-RAND probes and GE-MUL discovery both walk through greedy_walk."""
    calls = [
        (path.name, function)
        for path in SOURCES
        for _, function in callers(path, {"next_hop"})
    ]
    assert calls == [("routing.py", "greedy_walk")]


def test_only_setup_builds_a_runs_first_trees():
    """A static run reuses its first trees in every epoch; only a dynamic
    run, whose graph changes, rebuilds at epoch crossings."""
    engine = next(path for path in SOURCES if path.name == "engine.py")
    assert [f for _, f in callers(engine, {"build_embeddings"})] == ["_setup"]
    assert [f for _, f in callers(engine, {"periodic_rebuild"})] == ["_setup", "run_dynamic"]


def node_id_parses(path):
    """(file, enclosing function) of every `parse_int(..., "node id", ...)` call."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and any(isinstance(a, ast.Constant) and a.value == "node id" for a in node.args)
    }
    return [(path.name, f) for line, f in callers(path, {"parse_int"}) if line in lines]


def test_only_the_id_table_parses_node_ids():
    """Every reader looks a node id up in its id table, so no reader makes
    a second object for an id."""
    assert [call for path in SOURCES for call in node_id_parses(path)] == [("workload.py", "_node_id")]


def test_node_id_guard_sees_every_form_of_the_call(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(t):\n"
        "    return parse_int(t, 'node id'), credit.parse_int(t, 'node id', 3)\n"
        "x = parse_int('1', 'trees')\n"
    )
    assert node_id_parses(source) == [("mod.py", "f"), ("mod.py", "f")]


def test_ledger_guard_names_the_enclosing_function(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "g.reserve(0, 1, 2)\n"
        "def f(g):\n"
        "    def inner():\n"
        "        g.release(0, 1, 2)\n"
        "    return g.commit_payment([], 1) or g.weight(0, 1)\n"
    )
    assert list(callers(source, LEDGER_WRITES)) == [(1, None), (4, "f"), (5, "f")]


def test_guard_sees_a_third_party_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import os\nfrom networkx import DiGraph\nfrom . import graph\n")
    assert list(absolute_imports(source)) == [(1, "os"), (2, "networkx")]


TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def unused_imports(path):
    """(line, name) of every name a source file imports and never reads.

    ``from __future__`` imports and an alias whose own line carries
    ``# noqa: F401`` (a name kept for a caller outside the file) are exempt.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return sorted(unused)


def test_no_unused_imports():
    files = SOURCES + TESTS
    assert [f"{path.name}:{line}: {name}" for path in files for line, name in unused_imports(path)] == []


def test_package_root_imports_nothing():
    """Callers import each name from the module that defines it, so the
    package root keeps no second name for it."""
    init = pathlib.Path(pbtsim.__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"), str(init))
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_unused_import_guard_sees_every_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import xml.dom\n"
        "from .graph import (\n"
        "    CreditGraph,\n"
        "    NodeId,  # noqa: F401  kept for a caller\n"
        "    LinkDelta as Delta,\n"
        ")\n"
        "def f(g: CreditGraph) -> None:\n"
        "    return xml.dom\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (7, "Delta")]


def test_call_guard_names_the_method_and_plain_calls(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class A:\n"
        "    def attempt(self):\n"
        "        return mpc_min_assign()\n"
        "def f():\n"
        "    return x.mpc_min_assign(), mpc_min_assign\n"
    )
    assert list(callers(source, {"mpc_min_assign"})) == [(3, "A.attempt"), (5, "f")]


# The module-level functions of `random` are methods of one hidden, unseeded
# generator: random.random, randint, choice, shuffle, getrandbits, seed, ...
GLOBAL_DRAWS = {
    name for name in random.__all__
    if isinstance(getattr(getattr(random, name), "__self__", None), random.Random)
}


def unseeded_draws(path):
    """Sorted lines of every `random.Random()` without a seed and of every
    use of a module-level draw function, called or imported."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            if any(alias.name in GLOBAL_DRAWS for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "attr", getattr(callee, "id", None))
            module = getattr(getattr(callee, "value", None), "id", None)
            if name == "Random" and not (node.args or node.keywords) \
                    or module == "random" and name in GLOBAL_DRAWS:
                lines.append(node.lineno)
    return sorted(lines)


def test_src_draws_only_from_seeded_streams():
    """Runs repeat byte for byte from their seed, so no draw in the package
    may come from an unseeded generator."""
    assert [f"{path.name}:{line}" for path in SOURCES for line in unseeded_draws(path)] == []


def test_draw_guard_sees_every_unseeded_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import random\n"
        "from random import Random, shuffle\n"
        "a = random.Random(), Random(), random.Random(7), Random(x)\n"
        "b = random.randint(0, 3)\n"
        "c = random.getrandbits(8), rng.getrandbits(8)\n"
        "random.seed(4)\n"
    )
    assert unseeded_draws(source) == [2, 3, 3, 4, 5, 6]
