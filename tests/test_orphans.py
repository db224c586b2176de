"""No function in the package that nothing in the package calls.

A function or method counts as used when its name occurs as a name, an
attribute or an imported alias anywhere in ``src/prandtlsep`` outside its
own ``def``; a method that overrides one of a base class (such as an
``argparse`` hook) is called by the base.  The pinned set holds the reference and paper functions that
only tests call; a new function without a caller fails here.
"""

import ast
import glob
import importlib
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "prandtlsep")

TEST_ONLY = {
    "AuditSuite.all_pass",
    "Grid.geometric",
    "RationalPoly.eval",
    "RationalPoly.from_jsonable",
    "RationalPoly.is_zero",
    "RationalPoly.to_jsonable",
    "coercivity_audit",
    "convergence_order",
    "eval_uapp_Y",
    "hardy_constant",
    "hardy_general",
    "hardy_phi_closed",
    "op_L",
    "rate_inequality_certificate",
    "theta_second",
    "trace_inequality_audit",
    "uapp_core_poly",
    "v_wall_ratio",
}


def _overrides(cls, name: str) -> bool:
    return any(name in vars(base) for base in cls.__mro__[1:])


def _defs_and_uses():
    defs, used = {}, set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = importlib.import_module(
            "prandtlsep." + os.path.basename(path)[:-3])
        tree = ast.parse(open(path).read(), path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not _overrides(cls, sub.name)):
                        defs[f"{node.name}.{sub.name}"] = sub.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return defs, used


def test_every_function_has_a_caller_in_the_package():
    defs, used = _defs_and_uses()
    orphans = {qual for qual, name in defs.items()
               if not (name.startswith("__") and name.endswith("__"))
               and name not in used}
    assert orphans == TEST_ONLY
