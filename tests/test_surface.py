"""The package's public surface, checked on its syntax trees.

No linter runs on this code, so this test stands in for one. Every name a
module exports in __all__ must be read by package code outside its own
definition, or by the acceptance tests; a name that only unit tests reach
either gets a caller on a command's route or goes. Every name a module
imports must be read in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracobs"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
# E_alpha with its per-point report, which the regime tests read
EXEMPT = {"mlf", "MlfEvalReport"}


def _reads(tree: ast.AST, attributes: bool = True) -> set[str]:
    """Names read under the node, and with `attributes` the attribute names too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported_as(tree: ast.Module, names: set[str]) -> set[str]:
    """The original names of `import ... as` aliases among `names`."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname in names
    }


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_public_names_have_callers_and_imports_are_used():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    # names read per (module, top-level definition); None is module-level code
    reads: dict[tuple[str, str | None], set[str]] = {}
    for mod, tree in modules.items():
        for node in tree.body:
            defined = getattr(node, "name", None)
            reads.setdefault((mod, defined), set()).update(_reads(node))
        reads[mod, None] |= _imported_as(tree, _reads(tree))
    acceptance_tree = ast.parse(ACCEPTANCE.read_text())
    acceptance = _reads(acceptance_tree)
    acceptance |= _imported_as(acceptance_tree, acceptance)
    uncalled = [
        f"{mod}.{name}"
        for mod, tree in modules.items()
        for name in _exports(tree)
        if name not in EXEMPT
        and name not in acceptance
        and not any(name in names for where, names in reads.items() if where != (mod, name))
    ]
    assert not uncalled, f"exported, but read by no package code or acceptance test: {uncalled}"

    unused = []
    for mod, tree in modules.items():
        used = _reads(tree, attributes=False) | set(_exports(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [
                    f"{mod}: {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).split(".")[0] not in used
                ]
    assert not unused, f"imported, but never read: {unused}"
