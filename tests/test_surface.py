"""The package's public surface, checked on its syntax trees.

No linter runs on this code, so this test stands in for one. Every name a
module exports in __all__ must be read by package code outside its own
definition, or by the acceptance tests; a name that only unit tests reach
either gets a caller on a command's route or goes. Every name a module
imports must be read in that module, no module imports an underscore
name from another package module, and none reaches numpy.polynomial.

The same rule holds one level down. Every public member of a package
class (method, property, classmethod or dataclass field) must be read
outside its own definition and its class's __post_init__, and every
parameter with a default must be passed by some call, both by package
code or by the acceptance tests. The checks match by name alone: a member
whose name is also read elsewhere, as `.horizon` of one class may be read
as `.horizon` of another, passes unflagged, and so does a parameter that
a call to another function of the same name passes.

Every private module-level function, class or constant must be read by
its module's code outside its own definition, so that nothing a deletion
leaves behind survives it.

No package function writes module-level state or keeps closure state:
it has no `global` or `nonlocal` statement, assigns or deletes no item of
a module-level name, and calls none of pop, update, clear, append or
setdefault on one. A closure's cell outlives the call that made it, as
module state does, so the two bounded functools.lru_cache wrappers
(fraccalc's _contour and gauss_legendre) are the only state kept across
calls.

Two more checks guard what runs outside this suite: every span the
benchmark's tracer wraps resolves in the package, and the test modules
that CI runs with scipy uninstalled import neither scipy nor hypothesis.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracobs"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "perfbench" / "tracer.py"
# the test modules CI runs once scipy is uninstalled
NO_SCIPY = ("test_cli.py", "test_surface.py")
# E_alpha with its per-point report, which the regime tests read
EXEMPT = {"mlf", "MlfEvalReport"}


def _trees() -> dict[str, ast.Module]:
    """The package modules by name, and the acceptance tests under "acceptance"."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    trees["acceptance"] = ast.parse(ACCEPTANCE.read_text())
    return trees


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


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_private_names_are_read():
    # a helper or constant that deleted code leaves behind reads as live
    # code; no module imports another's private names, so a private name is
    # read in its own module or not at all
    unread = []
    for mod, tree in _trees().items():
        if mod == "acceptance":
            continue
        for node in tree.body:
            for name in _defined(node):
                if name.startswith("_") and not name.startswith("__") and not any(
                    name in _reads(other, attributes=False)
                    for other in tree.body
                    if other is not node
                ):
                    unread.append(f"{mod}.{name}")
    assert not unread, f"private names read by no other code of their module: {unread}"


# the methods that change a dict or a list in place
MUTATORS = {"pop", "update", "clear", "append", "setdefault"}


def test_functions_write_no_module_state():
    # state a call leaves in a module, or in a closure's cell, outlives the
    # call and reaches the next; a name a function binds for itself (a
    # parameter or a local, at any depth of its body) is not the module's
    writes = []
    for mod, tree in _trees().items():
        if mod == "acceptance":
            continue
        module_names = {name for node in tree.body for name in _defined(node)}
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                continue
            local = {
                node.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            } | {node.arg for node in ast.walk(fn) if isinstance(node, ast.arg)}
            shared = module_names - local
            for node in ast.walk(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                    writes.append(f"{mod}:{node.lineno} {kind} {', '.join(node.names)}")
                    continue
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                ):
                    target = node.func.value
                else:
                    continue
                if isinstance(target, ast.Name) and target.id in shared:
                    writes.append(f"{mod}:{node.lineno} {target.id}")
    assert not writes, f"package functions that write module or closure state: {writes}"


def test_modules_import_no_private_names():
    private = [
        f"{mod}: {alias.name}"
        for mod, tree in _trees().items()
        if mod != "acceptance"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "fracobs")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"underscore names imported from another package module: {private}"


def test_modules_import_nothing_from_numpy_polynomial():
    # every command runs in a fresh process, so a module the package loads
    # is paid on every run; fraccalc.gauss_legendre owns the Gauss rules
    found = []
    for mod, tree in _trees().items():
        if mod == "acceptance":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                root = "numpy" if node.value.id == "np" else node.value.id
                names = [f"{root}.{node.attr}"]
            else:
                continue
            found += [
                f"{mod}:{node.lineno} {name}"
                for name in names
                if name == "numpy.polynomial" or name.startswith("numpy.polynomial.")
            ]
    assert not found, f"package modules that reach numpy.polynomial: {found}"


def _member_reads(tree: ast.AST) -> Counter:
    """Attribute reads under the node, and strings such as the keys
    `ReconstructionResult.summary` passes to getattr."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _package_classes(trees: dict[str, ast.Module]):
    for mod, tree in trees.items():
        if mod != "acceptance":
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name not in EXEMPT:
                    yield mod, node


def test_class_members_are_read():
    trees = _trees()
    reads = sum((_member_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for mod, cls in _package_classes(trees):
        post_init = [n for n in cls.body if getattr(n, "name", None) == "__post_init__"]
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            own = sum((_member_reads(n) for n in [node] + post_init), Counter())
            if not name.startswith("_") and reads[name] <= own[name]:
                unread.append(f"{mod}.{cls.name}.{name}")
    assert not unread, f"class members read by no package code or acceptance test: {unread}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated @dataclass or @dataclass(...)."""
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list
    )


def _defaulted(trees: dict[str, ast.Module]):
    """(callee name, position or None, parameter name) of every parameter with a default.

    A method's position leaves out self or cls; a class's __init__, written
    or made by @dataclass, goes by the class name.
    """
    for mod, tree in trees.items():
        if mod == "acceptance":
            continue
        methods = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if _is_dataclass(cls):
                fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
                for pos, field in enumerate(fields):
                    if field.value is not None:
                        yield cls.name, pos, field.target.id
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    methods[node] = cls.name if node.name == "__init__" else node.name
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            if fn.name in EXEMPT:
                continue
            name = methods.get(fn, fn.name)
            positional = fn.args.posonlyargs + fn.args.args
            if fn in methods:
                positional = positional[1:]
            for pos in range(len(positional) - len(fn.args.defaults), len(positional)):
                yield name, pos, positional[pos].arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, None, arg.arg


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names) of every call.

    `import ... as` aliases are called by their original name, `cls(...)`
    inside a class by the class name; a * or ** argument passes everything.
    """
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }

    def visit(node: ast.AST, cls: str | None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            name = cls if name == "cls" else aliases.get(name, name)
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, float("inf") if star else len(node.args), keywords
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls)

    yield from visit(tree, None)


def test_defaulted_parameters_are_passed():
    trees = _trees()
    calls: dict[str, list[tuple[float, set]]] = {}
    for tree in trees.values():
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
    unpassed = [
        f"{name}({param}=)"
        for name, pos, param in _defaulted(trees)
        if not any(
            param in keywords or None in keywords or (pos is not None and pos < count)
            for count, keywords in calls.get(name, ())
        )
    ]
    assert not unpassed, f"parameters no package or acceptance call passes: {unpassed}"


def test_traced_spans_resolve():
    # Tracer.install reads each span as vars(owner)[attr] after getattr
    # through its classes, and raises KeyError on a name that has gone
    tracer = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("MODULES", "SPANS")
    }
    missing = []
    for name, home, path, _ in tracer["SPANS"]:
        assert home in tracer["MODULES"], name
        owner = importlib.import_module(f"fracobs.{home}")
        *classes, attr = path.split(".")
        for part in classes:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(name)
    assert not missing, f"traced spans with no package attribute: {missing}"


def test_no_scipy_modules_import_neither_scipy_nor_hypothesis():
    # imports at any depth count; code passed to a subprocess as a string does not
    found = []
    for name in NO_SCIPY:
        for node in ast.walk(ast.parse((ROOT / "tests" / name).read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {root}"
                for root in roots
                if root.split(".")[0] in ("scipy", "hypothesis")
            ]
    assert not found, f"scipy or hypothesis imported where CI runs without scipy: {found}"
