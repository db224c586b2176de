"""No function in the package that the command line cannot reach.

A function or method is reachable when ``cli.main`` or module-level code
(class bodies included) reaches it through a chain of name uses: a name or
attribute in a reachable body that equals the function's name.  Imports are
not uses, so a re-export in ``__init__`` reaches nothing.  Dunder methods,
and methods that override one of a base class (such as an ``argparse``
hook), are called implicitly and count as reached.

Names are matched without their owner, so methods sharing a name are
merged: one reachable ``validate`` makes every ``validate`` reachable.

The pinned set holds one function, ``energies.coercivity_audit``, which
only tests call.  Its verdict on marched frames depends on the wall-fit
window of the inverse operator.  With f the curvature of one diffusion
application at the default window, it holds on the 13 default frames where
f can be formed.  With f the curvature of the energies' first chain stage,
the default window rejects f on 13 of 14 frames, and the chain's own
window gives a left side below the form on all 14.  Until that dependence
is understood the audit is not reported.  Any other function that the
command line cannot reach fails here, and so does a parameter that its
function never reads, a parameter default that no call in the package
leaves in place, and a dataclass field default that no construction in the
package leaves in place.
"""

import ast
import contextlib
import glob
import importlib
import importlib.util
import io
import json
import os
import re
from pathlib import Path

from test_cli import _quick_config

from prandtlsep import cli

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "prandtlsep")

TEST_ONLY = {"energies.coercivity_audit"}


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
        tree = ast.parse(Path(path).read_text(), path)
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
             if "_diff_cache" in Path(path).read_text()]
    assert users == ["gridfields.py"]


def test_least_squares_is_solved_only_in_gridfields():
    # every fit goes through gridfields.lstsq_powers, one call of a LAPACK
    # least-squares driver (gels); no module solves one through numpy
    texts = {os.path.basename(path): Path(path).read_text()
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    users = [name for name, text in texts.items()
             if re.search(r"\b([sdcz]?gels[dsy]?|lstsq|polyfit)\b", text)]
    assert users == ["gridfields.py"]
    assert [name for name, text in texts.items()
            if re.search(r"\b(np|numpy)\.linalg\b", text)] == []


def test_no_module_loads_scipy_optimize_or_interpolate():
    # Brent's root finder, the collapse fit and the quintic spline are the
    # package's own (gridfields); scipy.linalg's LAPACK is the one SciPy
    # subpackage it loads
    texts = {os.path.basename(path): Path(path).read_text()
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    assert texts
    assert [name for name, text in texts.items()
            if re.search(r"scipy\.(optimize|interpolate)\b", text)] == []


def test_every_function_is_reachable_from_the_cli():
    defs, roots, module_uses = _definitions()
    orphans = set(defs) - _reachable(defs, roots, module_uses)
    assert orphans == TEST_ONLY


def test_every_parameter_is_used():
    # a parameter that its function never reads is a dead argument at every
    # call site; ``self`` and ``cls`` are bound implicitly
    unread, paths = [], sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        modname = os.path.basename(path)[:-3]
        for fn in ast.walk(ast.parse(Path(path).read_text(), path)):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for node in ast.walk(ast.Module(body, []))
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{modname}.{name}({p})" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert unread == []


def _omits(call: ast.Call, position: int, name: str) -> bool:
    """Whether ``call`` leaves the parameter at ``position`` (counted after
    a bound ``self`` or ``cls``), called ``name``, to its default."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            keyword.arg is None for keyword in call.keywords):
        return False   # *args or **kwargs may carry it
    return len(call.args) <= position and all(
        keyword.arg != name for keyword in call.keywords)


def test_every_parameter_default_is_relied_on():
    # a default that every call in the package overrides is a value that
    # only tests take; calls are matched by name, as reachability is, and
    # dunder methods are called implicitly (``cls()`` reaches __init__)
    defs, _, _ = _definitions()
    calls = [node for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
             for node in ast.walk(ast.parse(Path(path).read_text(), path))
             if isinstance(node, ast.Call)]
    assert calls
    unrelied = []
    for qual, (name, fn) in defs.items():
        if name.startswith("__"):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        bound = qual.count(".") == 2 and not any(
            getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        first = len(positional) - len(args.defaults)
        defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
        # a keyword-only parameter takes no positional argument
        defaulted += [(len(positional), a.arg)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        named = [call for call in calls if name in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))]
        unrelied += [f"{qual}({p})" for position, p in defaulted
                     if not any(_omits(call, position, p) for call in named)]
    assert unrelied == []


def _leaves(call: ast.Call, position: int, name: str) -> bool:
    """Whether the construction ``call`` leaves the field at ``position``,
    called ``name``, to its default: a keyword names its field, and a
    ``**mapping`` may leave any field that it does not name."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False   # *args may carry it
    return len(call.args) <= position and all(
        keyword.arg != name for keyword in call.keywords)


def test_every_field_default_is_relied_on():
    # a dataclass field default that every construction in the package
    # overrides is a value that only tests take; constructions are calls
    # matched by class name, and ``cls(...)`` in the class's own methods
    trees = {os.path.basename(path)[:-3]: ast.parse(Path(path).read_text(), path)
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    defaulted, unrelied = 0, []
    for modname, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and "dataclass" in _uses(cls.decorator_list)):
                continue
            named = [call for call in calls if cls.name in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None))]
            named += [call for call in ast.walk(cls) if isinstance(call, ast.Call)
                      and getattr(call.func, "id", None) == "cls"]
            annotated = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
            for position, stmt in enumerate(annotated):
                if stmt.value is None:
                    continue
                defaulted += 1
                name = stmt.target.id
                if not any(_leaves(call, position, name) for call in named):
                    unrelied.append(f"{modname}.{cls.name}.{name}")
    assert defaulted
    assert unrelied == []


def _benchmark_spans():
    """perfbench/spans.py, loaded by path: perfbench is not a package."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_hook_resolves():
    # perfbench/spans.py's tracer rebinds each (module, attribute) pair of
    # its HOOKS and raises at once on a missing one: a renamed or deleted
    # target fails here, not only in the traced benchmark run
    spans = _benchmark_spans()
    assert spans.HOOKS
    with spans.Tracer().installed():
        pass


def test_every_benchmark_hook_records_a_call(tmp_path):
    # a traced benchmark run stops on a hooked span that records no call;
    # a short simulate, audit and verify-algebra call every one of them
    spans = _benchmark_spans()
    cfg = _quick_config(tmp_path / "run")
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_simulate(cfg) == cli.EXIT_OK
        assert cli.main(["audit", cfg.outdir]) == cli.EXIT_OK
        assert cli.main(["verify-algebra", "--outdir",
                         str(tmp_path / "algebra")]) == cli.EXIT_OK
    silent = [name for name in (spans.span_name(m, a) for m, a in spans.HOOKS)
              if tracer.calls(name) == 0]
    assert silent == []


def test_the_march_and_the_audit_take_one_balance_pass_per_state(tmp_path):
    # the benchmark's vonmises.record_s times compute_F and trusted_F_mask
    # under the march: one call of each per trajectory row there, and one
    # per audited frame under build_frames, the only other caller
    spans = _benchmark_spans()
    cfg = _quick_config(tmp_path / "run")
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_simulate(cfg) == cli.EXIT_OK
        assert cli.main(["audit", cfg.outdir]) == cli.EXIT_OK
    rows = len(Path(cfg.outdir, "trajectory.csv").read_text().splitlines()) - 1
    reports = json.loads(Path(cfg.outdir, "audit_summary.json").read_text())["reports"]
    frames = sum(r["name"] == "diffusion-balance-bounds" for r in reports)
    assert rows > 1 and frames > 1
    for name in ("vonmises.compute_F", "vonmises.trusted_F_mask"):
        assert tracer.calls(name, "vonmises.solve_until_separation") == rows
        assert tracer.calls(name, "diagnostics.build_frames") == frames
        assert tracer.calls(name) == rows + frames
