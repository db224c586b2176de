"""No function in the package that the command line cannot reach.

A function or method is reachable when ``cli.main`` or module-level code
(class bodies included) reaches it through a chain of name uses: a name or
attribute in a reachable body that equals the function's name.  Imports are
not uses, so a re-export in ``__init__`` reaches nothing.  Dunder methods,
and methods that override one of a base class (such as an ``argparse``
hook), are called implicitly and count as reached.

Names are matched without their owner, so methods sharing a name are
merged: one reachable ``validate`` makes every ``validate`` reachable.

The pinned set holds the energy-estimate audits of the source paper that
only tests call so far; any other function that the command line cannot
reach fails here.
"""

import ast
import glob
import importlib
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "prandtlsep")

TEST_ONLY = {
    "energies.coercivity_audit",
    "energies.trace_inequality_audit",
    "energies.v_wall_ratio",
    "modulation.rate_inequality_certificate",
    "operators.dLinv",
    "profiles.check_wellprepared",
}


def _overrides(cls, name: str) -> bool:
    return any(name in vars(base) for base in cls.__mro__[1:])


def _header(fn: ast.FunctionDef) -> list:
    """Decorators and defaults: module-level code, run when ``def`` runs."""
    defaults = fn.args.defaults + [d for d in fn.args.kw_defaults if d]
    return fn.decorator_list + defaults


def _uses(nodes) -> set:
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def _definitions():
    """({qualified name: (name, def node)}, roots, names used by module code)."""
    defs, roots, module_code = {}, set(), []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        modname = os.path.basename(path)[:-3]
        module = importlib.import_module("prandtlsep." + modname)
        tree = ast.parse(open(path).read(), path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{modname}.{node.name}"] = (node.name, node)
                module_code.extend(_header(node))
            elif isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                module_code.extend(node.decorator_list + node.bases)
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef):
                        module_code.append(sub)
                        continue
                    qual = f"{modname}.{node.name}.{sub.name}"
                    defs[qual] = (sub.name, sub)
                    module_code.extend(_header(sub))
                    if sub.name.startswith("__") or _overrides(cls, sub.name):
                        roots.add(qual)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_code.append(node)
    roots.add("cli.main")
    return defs, roots, _uses(module_code)


def _reachable(defs, roots, module_uses) -> set:
    by_name = {}
    for qual, (name, _) in defs.items():
        by_name.setdefault(name, []).append(qual)
    todo = list(roots) + [q for n in module_uses for q in by_name.get(n, [])]
    seen = set()
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        for name in _uses(defs[qual][1].body):
            todo.extend(by_name.get(name, []))
    return seen


def test_grid_cache_is_reached_only_through_grid_cached():
    # grid-only data is built and stored by Grid.cached, in gridfields
    users = [os.path.basename(path)
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
             if "_diff_cache" in open(path).read()]
    assert users == ["gridfields.py"]


def test_every_function_is_reachable_from_the_cli():
    defs, roots, module_uses = _definitions()
    orphans = set(defs) - _reachable(defs, roots, module_uses)
    assert orphans == TEST_ONLY
