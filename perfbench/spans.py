"""Span tracing of the prandtlsep layers, installed from outside the package.

Each hook rebinds one module attribute (a function, a method or a
classmethod) to a wrapper that records a span: its name, its duration and
the span that called it.  Spans are aggregated in memory by (name, parent),
which gives call counts, total time and self time (total minus the time
covered by direct child spans).  ``Tracer.installed()`` puts the wrappers in
place and restores the originals on exit, so untraced iterations run the
package exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute) pairs; "Class.attr" hooks a method or classmethod.
# A span name is "<module suffix>.<attribute>", e.g. "vonmises.march_step".
HOOKS = [
    ("prandtlsep.cli", "run_simulate"),
    ("prandtlsep.cli", "run_audit"),
    ("prandtlsep.cli", "load_trajectory"),
    ("prandtlsep.profiles", "build_initial_data"),
    ("prandtlsep.vonmises", "solve_until_separation"),
    ("prandtlsep.vonmises", "march_step"),
    ("prandtlsep.vonmises", "solve_banded"),
    ("prandtlsep.vonmises", "wall_shear"),
    ("prandtlsep.vonmises", "compute_F"),
    ("prandtlsep.vonmises", "trusted_F_mask"),
    ("prandtlsep.vonmises", "from_von_mises"),
    ("prandtlsep.modulation", "fit_window"),
    ("prandtlsep.modulation", "fit_singularity"),
    ("prandtlsep.gridfields", "fd_weights"),
    ("prandtlsep.gridfields", "Grid.apply_diff"),
    ("prandtlsep.operators", "OperatorContext.from_profile"),
    ("prandtlsep.diagnostics", "build_frames"),
    ("prandtlsep.diagnostics", "rescale_snapshot_profile"),
    ("prandtlsep.diagnostics", "commutator_identity_check"),
    ("prandtlsep.diagnostics", "run_audit_suite"),
    ("prandtlsep.energies", "energy_report"),
    ("prandtlsep.audits", "calibrate_M2"),
    ("prandtlsep.audits", "calibrate_A"),
    ("prandtlsep.audits", "max_principle_audit"),
    ("prandtlsep.audits", "subsolution_audit"),
    ("prandtlsep.audits", "F_bound_audit"),
    ("prandtlsep.ratpoly", "algebra_certificate"),
]

AUDIT_CHECKS = ["audits.calibrate_M2", "audits.calibrate_A",
                "audits.max_principle_audit", "audits.subsolution_audit",
                "audits.F_bound_audit"]

# spans whose return value is a list of items worth counting
_RESULT_COUNTERS = {"diagnostics.build_frames": len}


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self._stack = []   # open spans: [name, child_seconds, child_calls]
        # (name, parent name or None) -> [calls, total_s, self_s, leaf_calls, items]
        self.stats = {}

    def reset(self) -> None:
        self.stats = {}

    def _wrap(self, name, fn):
        stack = self._stack
        count_items = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                key = (name, parent[0] if parent else None)
                row = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                row[3] += frame[2] == 0
                if count_items is not None and result is not None:
                    row[4] += count_items(result)
                if parent is not None:
                    parent[1] += dur
                    parent[2] += 1

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every hook target; a missing target raises at once."""
        restore = []
        try:
            for module_name, attr in HOOKS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                target = f"{module_name}.{attr}"
                if isinstance(owner, type):
                    if leaf not in owner.__dict__:
                        raise AttributeError(f"hook target {target} is missing")
                    original = owner.__dict__[leaf]
                elif hasattr(owner, leaf):
                    original = getattr(owner, leaf)
                else:
                    raise AttributeError(f"hook target {target} is missing")
                name = span_name(module_name, attr)
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__))
                else:
                    patched = self._wrap(name, original)
                setattr(owner, leaf, patched)
                restore.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    # -- aggregate queries -------------------------------------------------

    def _rows(self, name, parent=None):
        return [row for (n, p), row in self.stats.items()
                if n == name and (parent is None or p == parent)]

    def calls(self, name, parent=None) -> int:
        return sum(r[0] for r in self._rows(name, parent))

    def total(self, name, parent=None) -> float:
        return sum(r[1] for r in self._rows(name, parent))

    def self_time(self, name) -> float:
        return sum(r[2] for r in self._rows(name))

    def leaf_calls(self, name) -> int:
        return sum(r[3] for r in self._rows(name))

    def items(self, name) -> int:
        return sum(r[4] for r in self._rows(name))


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced pipeline, keyed as in BENCHMARK.json."""
    march = "vonmises.solve_until_separation"
    rescale = "diagnostics.rescale_snapshot_profile"
    commutator = "diagnostics.commutator_identity_check"
    steps = tr.calls("vonmises.march_step")
    solves = tr.calls("vonmises.solve_banded")
    apply_calls = tr.calls("gridfields.apply_diff")
    return {
        "vonmises.march_s": tr.total(march),
        "vonmises.march_self_s": tr.self_time(march),
        "vonmises.steps": steps,
        "vonmises.tridiag_solves": solves,
        "vonmises.tridiag_s": tr.total("vonmises.solve_banded"),
        "vonmises.solves_per_step": solves / steps if steps else 0.0,
        "vonmises.wall_shear_calls": tr.calls("vonmises.wall_shear"),
        "vonmises.wall_shear_s": tr.total("vonmises.wall_shear"),
        "vonmises.record_s": (tr.total("vonmises.compute_F", march)
                              + tr.total("vonmises.trusted_F_mask", march)),
        "vonmises.invert_calls": tr.calls("vonmises.from_von_mises"),
        "vonmises.invert_s": tr.total("vonmises.from_von_mises"),
        "cli.load_s": tr.total("cli.load_trajectory"),
        "gridfields.fd_weights_calls": tr.calls("gridfields.fd_weights"),
        "gridfields.fd_weights_s": tr.total("gridfields.fd_weights"),
        "gridfields.stencil_hit_ratio": (tr.leaf_calls("gridfields.apply_diff")
                                         / apply_calls if apply_calls else 0.0),
        "operators.context_builds": tr.calls("operators.from_profile"),
        "diagnostics.frames": tr.items("diagnostics.build_frames"),
        "diagnostics.frames_s": tr.total("diagnostics.build_frames"),
        "diagnostics.frames_self_s": tr.self_time("diagnostics.build_frames"),
        "diagnostics.rescale_calls": tr.calls(rescale),
        "diagnostics.rescale_s": tr.total(rescale),
        "diagnostics.rescale_self_s": tr.self_time(rescale),
        "diagnostics.commutator_s": tr.total(commutator),
        "diagnostics.commutator_self_s": tr.self_time(commutator),
        "energies.report_calls": tr.calls("energies.energy_report"),
        "energies.report_s": tr.total("energies.energy_report"),
        "energies.report_self_s": tr.self_time("energies.energy_report"),
        "cli.simulate_self_s": tr.self_time("cli.run_simulate"),
        "cli.audit_self_s": tr.self_time("cli.run_audit"),
        "profiles.initial_data_s": tr.total("profiles.build_initial_data"),
        "modulation.fit_s": (tr.total("modulation.fit_window")
                             + tr.total("modulation.fit_singularity")),
        "diagnostics.audit_suite_s": tr.total("diagnostics.run_audit_suite"),
        "diagnostics.audit_suite_self_s": tr.self_time("diagnostics.run_audit_suite"),
        "audits.checks_s": sum(tr.total(n) for n in AUDIT_CHECKS),
        "ratpoly.certificate_s": tr.total("ratpoly.algebra_certificate"),
    }
