"""The package holds only code that a subcommand runs.

A walk over the AST of src/magiclattice/*.py follows every package name
that a top-level definition mentions, from the roots below.  A top-level
function, class or constant that the walk never reaches is code that
only tests run: it belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magiclattice"

ENTRY_MODULES = ("cli", "pipeline")  # every top-level definition of these is a root
# perfbench/traced.py samples the batched Xi_2 against it
XI_ORACLE = ("magic", "xi_alpha")
# definitions kept in the package although no subcommand reaches them;
# the ring-gcd ray_reduce, the oracle of the ray key (ROADMAP item 1), is in
# tests/oracles.py
ALLOWED = set()


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _reference_graph() -> dict[tuple[str, str], set[tuple[str, str]]]:
    """(module, name) of each top-level definition -> the (module, name)
    of every package-level name that it mentions."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":  # re-exports only
            continue
        tree = ast.parse(path.read_text())
        imported = {}  # local name -> (module, name), or the module of `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name) if node.module else alias.name
        defined = {name for node in tree.body for name in _defined_names(node)}
        for node in tree.body:
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in defined:
                    refs.add((path.stem, sub.id))
                elif isinstance(sub, ast.Name) and isinstance(imported.get(sub.id), tuple):
                    refs.add(imported[sub.id])
                elif isinstance(sub, ast.Attribute) and isinstance(imported.get(getattr(sub.value, "id", None)), str):
                    refs.add((imported[sub.value.id], sub.attr))
            for name in _defined_names(node):
                graph.setdefault((path.stem, name), set()).update(refs)
    return graph


def test_every_definition_is_reached_from_the_cli(traced):
    graph = _reference_graph()
    roots = {key for key in graph if key[0] in ENTRY_MODULES} | {XI_ORACLE} | ALLOWED
    roots |= {(layer, name) for layer, names in traced.TRACED.items() for name in names}
    reached, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in graph and key not in reached:
            reached.add(key)
            stack.extend(graph[key])
    unreached = sorted(".".join(key) for key in graph.keys() - reached if not key[1].startswith("__"))
    assert not unreached, "no subcommand reaches " + ", ".join(unreached)


def test_no_package_module_imports_the_tests():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            assert not {m.split(".")[0] for m in modules} & {"tests", "oracles", "conftest"}, path.name
