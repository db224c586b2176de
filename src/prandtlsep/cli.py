"""Command-line driver: simulate, audit, verify-algebra, sweep.

Artifacts are plain CSV/JSON with a manifest carrying the full
configuration and its hash; reruns from the same configuration are
bit-for-bit reproducible.  Exit codes are a stable contract:

    0  success / all checks passed
    1  certificate or audit failure
    2  solver failure (partial artifacts kept)
    3  invalid configuration or command line
    4  missing or unreadable input artifacts
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Iterable, List, Optional

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import modulation as md
from . import profiles as pr
from . import ratpoly as rp
from . import vonmises as vm
from .errors import (ConfigError, MissingArtifactError, PrandtlSepError,
                     TooFewNodesError)
from .gridfields import Field, Grid

SCHEMA_VERSION = 4

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    lambda0: float = 0.05
    x0_pressure: float = 1.0
    perturbation_amplitude: float = 0.0
    lambda_stop_factor: float = 50.0
    ds_rel: float = 0.008
    n_psi: int = 2305
    snapshots_per_decade: float = 8.0
    n_physical: int = 3073
    n_rescaled: int = 641
    outdir: str = "run-output"

    def validate(self) -> None:
        if not 0.0 < self.lambda0 <= 0.2:
            raise ConfigError("lambda0 must lie in (0, 0.2]")
        for name, low in (("x0_pressure", 0.0), ("lambda_stop_factor", 1.0),
                          ("ds_rel", 0.0), ("snapshots_per_decade", 0.0)):
            if not low < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and exceed {low:g}")
        if not np.isfinite(self.perturbation_amplitude):
            raise ConfigError("perturbation_amplitude must be finite")
        if self.n_psi < 257 or self.n_rescaled < 65 or self.n_physical < 257:
            raise ConfigError("grid sizes too small")

    @property
    def lambda_stop(self) -> float:
        return self.lambda0 / self.lambda_stop_factor

    def march_config(self) -> vm.MarchConfig:
        return vm.MarchConfig(
            lambda_stop=self.lambda_stop, ds_rel=self.ds_rel, n_psi=self.n_psi,
            snapshots_per_decade=self.snapshots_per_decade,
        )

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


def _config_value(key: str, raw) -> object:
    """``raw`` (text from a config file or a flag) typed as RunConfig's
    default for ``key``; a value that does not parse raises ConfigError."""
    text = str(raw)
    current = getattr(RunConfig, key)
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text}") from exc
    return text.strip("'\"")


def parse_config_file(path: str) -> dict:
    """Key = value lines; '#' comments; types resolved against RunConfig."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            try:
                out[key] = _config_value(key, value)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{ln}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Atomic, reproducible artifact writers
# ---------------------------------------------------------------------------


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to a temporary file, then rename it to
    ``path``.  The temporary file is made by ``open``, so the artifact gets
    the mode that the umask gives any new file."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    with open(tmp_path, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp_path, path)


def _csv_lines(header: List[str], columns: List[np.ndarray]) -> Iterable[str]:
    """CSV text row by row, each value the ``repr`` of its float, so a large
    table is never held in memory as text."""
    yield ",".join(header) + "\n"
    for row in np.asarray(columns, dtype=float).T:
        yield ",".join(map(repr, row.tolist())) + "\n"


def write_json(path: str, payload) -> None:
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


# ---------------------------------------------------------------------------
# verify-algebra
# ---------------------------------------------------------------------------

#: stated values of the two highest-order chain coefficients in the source
#: material; the defining recursion provably yields different ones (see the
#: certificate), so these rows are reported as documented mismatches and do
#: not gate the exit status.
_ERRATUM_NOTE = (
    "stated constant is inconsistent with the defining recursion; "
    "the derived value is certified instead"
)


def run_verify_algebra(outdir: str, tamper: Optional[str] = None) -> int:
    checks = rp.algebra_certificate(tamper=tamper)
    coeffs = rp.profile_coefficients()
    a4, a7 = coeffs["a4"], coeffs["a7"]
    erratum = [
        {
            "name": "stated a13 = 11 a4 a7/2496",
            "stated": str(11 * a4 * a7 / 2496),
            "derived": str(coeffs["a13"]),
            "match": coeffs["a13"] == 11 * a4 * a7 / 2496,
            "note": _ERRATUM_NOTE,
        },
        {
            "name": "stated a16 = a7^2/640",
            "stated": str(a7 * a7 / 640),
            "derived": str(coeffs["a16"]),
            "match": coeffs["a16"] == a7 * a7 / 640,
            "note": _ERRATUM_NOTE,
        },
    ]
    payload = {
        "identities": [asdict(c) for c in checks],
        "erratum_checks": erratum,
        "all_passed": all(c.passed for c in checks),
    }
    write_json(os.path.join(outdir, "certificate.json"), payload)
    lines = ["exact algebra certificate", "=" * 60]
    for c in checks:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}")
        if not c.passed:
            lines.append(f"    expected: {c.expected}")
            lines.append(f"    computed: {c.computed}")
    for e in erratum:
        tag = "MATCH" if e["match"] else "MISMATCH (documented erratum)"
        lines.append(f"[{tag}] {e['name']}: derived {e['derived']}")
    _atomic_write(os.path.join(outdir, "certificate.txt"),
                  ["\n".join(lines) + "\n"])
    failing = [c.name for c in checks if not c.passed]
    if failing:
        print(f"verify-algebra: FAIL at {failing[0]}")
        return EXIT_CHECK_FAILED
    print(f"verify-algebra: {len(checks)} identities PASS "
          f"(a4 = {coeffs['a4']}, a7 = {coeffs['a7']}); "
          f"{sum(not e['match'] for e in erratum)} documented erratum rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


#: columns of energies.csv: EnergyReport fields, then its resolved flag
_ENERGY_COLUMNS = ["s", "E0", "E1", "E2", "D0", "D1", "D2", "trace_residual",
                   "bs_plus_b2", "resolved_flag"]


def _snapshot_columns(index: int) -> tuple:
    """Columns of snapshots.csv holding w of a snapshot state and its pair."""
    return f"w_{index:03d}", f"w_{index:03d}_pair"


def _write_manifest(cfg: RunConfig, snapshot_header: List[str],
                    extra: dict) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "config_hash": cfg.config_hash(),
        "columns": {
            "trajectory.csv": ["x", "lambda", "dx", "F_max", "monotonicity_min"],
            "snapshots.csv": snapshot_header,
            "energies.csv": _ENERGY_COLUMNS,
        },
    }
    manifest.update(extra)
    write_json(os.path.join(cfg.outdir, "manifest.json"), manifest)


def run_simulate(cfg: RunConfig) -> int:
    cfg.validate()
    data = pr.build_initial_data(
        cfg.lambda0, grid=pr.default_physical_grid(cfg.n_physical),
        perturbation_amplitude=cfg.perturbation_amplitude,
        x0_pressure=cfg.x0_pressure)
    _atomic_write(
        os.path.join(cfg.outdir, "initial_data.csv"),
        _csv_lines(["y", "u0", "u0_prime", "u0_second"],
                   [data.grid.nodes, data.u0.values,
                    data.u0_prime.values, data.u0_second.values]))
    traj = vm.solve_until_separation(data, cfg.march_config())
    _atomic_write(
        os.path.join(cfg.outdir, "trajectory.csv"),
        _csv_lines(["x", "lambda", "dx", "F_max", "monotonicity_min"],
                   [traj.x, traj.lam, traj.dx, traj.F_max, traj.mono_min]))
    # one table: the shared phi grid, then w of each snapshot and its pair
    header, columns, snap_meta = ["phi"], [traj.psi_grid.nodes], []
    for snap in traj.snapshots:
        for state in (snap.state, snap.pair_state):
            if state.psi_grid is not traj.psi_grid:
                raise ValueError(f"snapshot {snap.index} is off the march's phi grid")
            columns.append(state.W.values)
        header.extend(_snapshot_columns(snap.index))
        snap_meta.append({
            "index": snap.index, "x": snap.x, "s": snap.s, "lam": snap.lam,
            "pair_x": snap.pair_state.x, "pair_s": snap.pair_s,
            "pair_lam": snap.pair_state.lam,
        })
    _atomic_write(os.path.join(cfg.outdir, "snapshots.csv"),
                  _csv_lines(header, columns))

    fit_payload = {"completed": traj.completed, "failure": traj.failure}
    if traj.completed and len(traj.x) > 50:
        try:
            win = md.fit_window(traj.x, traj.lam, cfg.lambda_stop)
            fit = md.fit_singularity(traj.x[win], traj.lam[win])
            s = traj.s
            b = md.compute_b(traj.x, traj.lam)
            late = s >= 5.0 * traj.s0
            bs_prod = (b * s)[late]
            defect = md.local_slope(s, b) + b * b
            fit_payload.update(fit)
            fit_payload.update({
                "J_gamma_13_4": float(np.trapezoid((s ** (13.0 / 4.0) * defect**2)[late],
                                                s[late])),
                "b_envelope": [float(bs_prod.min()), float(bs_prod.max())],
                "x_star_over_lambda0_sq": fit["x_star"] / cfg.lambda0**2,
            })
        except PrandtlSepError as exc:
            fit_payload["fit_error"] = str(exc)
    write_json(os.path.join(cfg.outdir, "fit_report.json"), fit_payload)
    _write_manifest(cfg, header, {"snapshots": snap_meta,
                                  "s0": traj.s0, "completed": traj.completed,
                                  "failure": traj.failure, "x_end": traj.x_end,
                                  "steps": int(len(traj.x))})
    if not traj.completed:
        print(f"simulate: solver stopped early: {traj.failure}")
        return EXIT_SOLVER
    print(f"simulate: {len(traj.x)} steps to lambda = {traj.lam[-1]:.3e}, "
          f"x_end = {traj.x_end:.6f}; exponent "
          f"{fit_payload.get('exponent', float('nan')):.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _read_columns(path: str, names: List[str], finite: tuple) -> dict:
    """The named columns of a CSV artifact written by ``_csv_lines``.

    A missing, unreadable or malformed file, or a non-finite value in one
    of the ``finite`` columns, raises MissingArtifactError.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise MissingArtifactError(f"cannot read {path}: {exc}") from exc
    absent = [name for name in names if name not in header]
    if absent:
        raise MissingArtifactError(f"{path}: missing column {absent[0]!r}")
    if table.shape[1] != len(header):
        raise MissingArtifactError(
            f"malformed {path}: {len(header)} names in the header, "
            f"{table.shape[1]} columns")
    columns = {name: table[:, header.index(name)] for name in names}
    for name in finite:
        if not np.all(np.isfinite(columns[name])):
            raise MissingArtifactError(f"{path}: non-finite value in column {name}")
    return columns


_MANIFEST_KEYS = ("config", "s0", "snapshots", "completed", "failure")
_SNAPSHOT_KEYS = ("index", "x", "s", "lam", "pair_x", "pair_s", "pair_lam")


def _require_keys(entry, keys, where: str) -> None:
    missing = [key for key in keys if key not in entry] \
        if isinstance(entry, dict) else list(keys)
    if missing:
        raise MissingArtifactError(f"{where}: missing key {missing[0]!r}")


def load_trajectory(outdir: str) -> tuple:
    """Rebuild the trajectory and snapshot states from run artifacts."""
    man_path = os.path.join(outdir, "manifest.json")
    traj_path = os.path.join(outdir, "trajectory.csv")
    if not (os.path.exists(man_path) and os.path.exists(traj_path)):
        raise MissingArtifactError(f"run artifacts not found under {outdir}")
    try:
        with open(man_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MissingArtifactError(f"cannot read {man_path}: {exc}") from exc
    _require_keys(manifest, ("schema_version",) + _MANIFEST_KEYS, man_path)
    if manifest["schema_version"] != SCHEMA_VERSION:
        raise MissingArtifactError(
            f"{man_path}: schema_version {manifest['schema_version']!r}, "
            f"expected {SCHEMA_VERSION}")
    _require_keys(manifest["config"], sorted(_CONFIG_KEYS), f"{man_path} config")
    unknown = set(manifest["config"]) - _CONFIG_KEYS
    if unknown:
        raise MissingArtifactError(
            f"{man_path}: unknown config keys {sorted(unknown)}")
    cfg = RunConfig(**manifest["config"])
    if not manifest["snapshots"]:
        raise MissingArtifactError(f"{man_path}: no snapshots listed")
    # F_max is nan where a station has no trusted node
    raw = _read_columns(traj_path, ["x", "lambda", "dx", "F_max",
                                    "monotonicity_min"], finite=("x", "lambda"))
    names = ["phi"]
    for meta in manifest["snapshots"]:
        _require_keys(meta, _SNAPSHOT_KEYS, f"{man_path} snapshot entry")
        names.extend(_snapshot_columns(meta["index"]))
    table_path = os.path.join(outdir, "snapshots.csv")
    table = _read_columns(table_path, names, finite=names)
    if len(table["phi"]) != cfg.n_psi:
        raise MissingArtifactError(
            f"{table_path}: {len(table['phi'])} rows, expected n_psi = {cfg.n_psi}")
    try:
        grid = Grid(table["phi"], "loaded")
    except (ValueError, TooFewNodesError) as exc:
        raise MissingArtifactError(f"{table_path}: {exc}") from exc

    def state(name: str, x: float, lam: float) -> vm.VMState:
        return vm.VMState(x=x, psi_grid=grid, W=Field(grid, table[name]),
                          lam=lam, x0_pressure=cfg.x0_pressure)

    snapshots = []
    for meta in manifest["snapshots"]:
        w_name, pair_name = _snapshot_columns(meta["index"])
        snapshots.append(vm.Snapshot(
            index=meta["index"], s=meta["s"],
            state=state(w_name, meta["x"], meta["lam"]),
            pair_state=state(pair_name, meta["pair_x"], meta["pair_lam"]),
            pair_s=meta["pair_s"]))
    traj = vm.Trajectory(
        x=raw["x"], lam=raw["lambda"],
        s=md.accumulate_s(raw["x"], raw["lambda"], manifest["s0"]),
        dx=raw["dx"], F_max=raw["F_max"],
        mono_min=raw["monotonicity_min"], snapshots=snapshots,
        psi_grid=grid, s0=manifest["s0"],
        completed=manifest["completed"], failure=manifest["failure"])
    return cfg, traj


def run_audit(outdir: str) -> int:
    try:
        cfg, traj = load_trajectory(outdir)
    except MissingArtifactError as exc:
        print(f"audit: {exc}")
        return EXIT_MISSING
    frames = dg.build_frames(traj, n_grid=cfg.n_rescaled)
    energies = [fr.report for fr in frames if fr.report is not None]
    columns = [np.array([getattr(r, key) for r in energies], dtype=float)
               for key in _ENERGY_COLUMNS[:-1]]
    columns.append(np.array([float(r.resolved) for r in energies]))
    _atomic_write(os.path.join(outdir, "energies.csv"),
                  _csv_lines(_ENERGY_COLUMNS, columns))
    suite = dg.run_audit_suite(frames)
    reports = [asdict(r) for r in suite.reports]
    commutator = []
    for snap, fr in zip(traj.snapshots[1:-1:4], frames[1:-1:4]):
        try:
            commutator.append(dg.commutator_identity_check(
                snap, fr.u, fr.b, n_grid=cfg.n_rescaled))
        except PrandtlSepError as exc:
            commutator.append({"s_mid": snap.s, "error": str(exc)})
    payload = {
        "calibration": {"M2": suite.M2, "M1": suite.M1, "M0": suite.M0,
                         "alpha": suite.alpha, "A_minus": suite.A_minus,
                         "A_plus": suite.A_plus, "C_minus": suite.C_minus},
        "reports": reports,
        "commutator_identity": commutator,
    }
    failed = [r for r in suite.reports if not r.passed]
    payload["all_passed"] = not failed
    write_json(os.path.join(outdir, "audit_summary.json"), payload)
    # the commutator checks and the resolved flags are reported, not gated:
    # on the default run none of them holds (criteria 6 and 7)
    holds = sum(c.get("holds") is True for c in commutator)
    resolved = sum(r.resolved for r in energies)
    checks = (f"commutator identity holds {holds}/{len(commutator)}; "
              f"energies resolved {resolved}/{len(energies)}")
    if failed:
        print(f"audit: {len(failed)} reports FAILED (first: {failed[0].name}); "
              f"{checks}")
        return EXIT_CHECK_FAILED
    print(f"audit: {len(reports)} reports PASS "
          f"({len(frames)} snapshots audited); {checks}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_worker(args: tuple) -> dict:
    lambda0, base = args
    cfg = RunConfig(**{**base, "lambda0": lambda0,
                       "outdir": os.path.join(base["outdir"], f"lam{lambda0:g}")})
    code = run_simulate(cfg)
    entry = {"lambda0": lambda0, "exit": code}
    fit_path = os.path.join(cfg.outdir, "fit_report.json")
    if os.path.exists(fit_path):
        with open(fit_path) as fh:
            entry["fit"] = json.load(fh)
    return entry


def run_sweep(lambda0_list: List[float], cfg: RunConfig) -> int:
    if len(lambda0_list) < 2:
        raise ConfigError("sweep needs at least two lambda0 values")
    base = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    jobs = [(lam0, base) for lam0 in sorted(lambda0_list, reverse=True)]
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 2)) as ex:
        results = list(ex.map(_sweep_worker, jobs))
    rows = []
    any_fail = False
    for entry in results:
        fit = entry.get("fit", {})
        x_star = fit.get("x_star", float("nan"))
        rows.append((entry["lambda0"], x_star,
                     x_star / entry["lambda0"] ** 2 if np.isfinite(x_star) else float("nan"),
                     fit.get("exponent", float("nan"))))
        any_fail = any_fail or entry["exit"] != 0
    table = "".join(_csv_lines(
        ["lambda0", "x_star", "x_star_over_lambda0_sq", "exponent"],
        [np.asarray(col) for col in zip(*rows)]))
    _atomic_write(os.path.join(cfg.outdir, "sweep.csv"), [table])
    print(table, end="")
    ratios = [r[2] for r in rows if np.isfinite(r[2])]
    if len(ratios) >= 2:
        spread = (max(ratios) - min(ratios)) / min(ratios)
        print(f"sweep: x*/lambda0^2 spread = {spread:.1%}")
    return EXIT_SOLVER if any_fail else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, not argparse's 2, the solver-failure code."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None)


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            values[f.name] = _config_value(f.name, raw)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    parser = _Parser(
        prog="prandtlsep",
        description="Marched wall-shear collapse laboratory: simulate, audit, "
                    "and certify the exact profile algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("verify-algebra", help="re-derive and certify the "
                           "exact profile algebra")
    p_alg.add_argument("--outdir", default="run-output")
    p_alg.add_argument("--tamper", default=None, help=argparse.SUPPRESS)

    p_sim = sub.add_parser("simulate", help="march to separation and fit the "
                           "collapse law")
    _add_config_flags(p_sim)

    p_aud = sub.add_parser("audit", help="energies and inequality audits on a "
                           "finished run")
    p_aud.add_argument("rundir", help="directory holding simulate artifacts")

    p_sw = sub.add_parser("sweep", help="independent runs across lambda0 values")
    p_sw.add_argument("lambda0_values", nargs="+", type=float)
    _add_config_flags(p_sw)

    try:
        args = parser.parse_args(argv)
        if args.command == "verify-algebra":
            return run_verify_algebra(args.outdir, tamper=args.tamper)
        if args.command == "simulate":
            return run_simulate(_build_config(args))
        if args.command == "audit":
            return run_audit(args.rundir)
        if args.command == "sweep":
            cfg = _build_config(args)
            return run_sweep(args.lambda0_values, cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except PrandtlSepError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
