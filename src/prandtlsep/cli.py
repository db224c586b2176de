"""Command-line driver: simulate, audit, verify-algebra, sweep.

Artifacts are plain CSV/JSON, but for the marched snapshot states, which
are one binary NPY table; a manifest carries the full configuration and
its hash, and reruns from the same configuration are bit-for-bit
reproducible.  Exit codes are a stable contract:

    0  success / all checks passed
    1  certificate or audit failure
    2  solver failure (partial artifacts kept)
    3  invalid configuration or command line
    4  missing or unreadable input artifacts
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable, List, Optional

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import modulation as md
from . import profiles as pr
from . import ratpoly as rp
from . import vonmises as vm
from .energies import EnergyReport
from .errors import (ConfigError, MissingArtifactError, PrandtlSepError,
                     TooFewNodesError)
from .gridfields import Field, Grid

SCHEMA_VERSION = 11

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4

#: The march takes about 330 steps per decade of the wall shear on the
#: default configuration, so at this bound a snapshot (a marching pair)
#: falls about every 6th step: 101 pairs and 3.7 MB of snapshots.npy.
#: At 1000 per decade every step was a snapshot, and the file was 100 MB.
MAX_SNAPSHOTS_PER_DECADE = 64.0

#: Largest node count of any grid: there a state's w takes 8 MB, and a size
#: such as 10**11 is rejected before numpy is asked for 745 GiB.
MAX_GRID_NODES = 2**20 + 1

#: The collapse fit needs more march stations than this
MIN_FIT_STATIONS = 50


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    lambda0: float = 0.05
    x0_pressure: float = 1.0
    perturbation_amplitude: float = 0.0
    lambda_stop_factor: float = 50.0
    ds_rel: float = 0.016          # target step in s, relative: ds = ds_rel * s
    n_psi: int = 2305
    snapshots_per_decade: float = 8.0
    n_physical: int = 3073
    n_rescaled: int = 641
    outdir: str = "run-output"

    def __post_init__(self):  # typed as a config file types it: 10 is 10.0
        for f in fields(self):
            object.__setattr__(self, f.name, _config_value(f.name, getattr(self, f.name)))

    def validate(self) -> None:
        if not 0.0 < self.lambda0 <= pr.LAMBDA0_MAX:
            raise ConfigError(f"lambda0 must lie in (0, {pr.LAMBDA0_MAX:g}]")
        for name, low in (("x0_pressure", 0.0), ("lambda_stop_factor", 1.0),
                          ("ds_rel", 0.0), ("snapshots_per_decade", 0.0)):
            if not low < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and exceed {low:g}")
        if self.snapshots_per_decade > MAX_SNAPSHOTS_PER_DECADE:
            raise ConfigError("snapshots_per_decade must not exceed "
                              f"{MAX_SNAPSHOTS_PER_DECADE:g}")
        if not np.isfinite(self.perturbation_amplitude):
            raise ConfigError("perturbation_amplitude must be finite")
        if (self.n_psi < 257 or self.n_rescaled < dg.MIN_RESCALED_NODES
                or self.n_physical < 257):
            raise ConfigError("grid sizes too small")
        if max(self.n_psi, self.n_rescaled, self.n_physical) > MAX_GRID_NODES:
            raise ConfigError(f"grid sizes must not exceed {MAX_GRID_NODES} nodes")

    @property
    def lambda_stop(self) -> float:
        return self.lambda0 / self.lambda_stop_factor

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


def _atomic_save(path: str, write: Callable, mode: str) -> None:
    """Open a temporary file in ``mode``, hand it to ``write``, then rename
    it to ``path``.  The temporary file is made by ``open``, so the artifact
    gets the mode that the umask gives any new file.  The output path is
    part of the configuration, so a path that cannot be written raises
    ConfigError."""
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(tmp_path, mode) as fh:
            write(fh)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` through ``_atomic_save``."""
    _atomic_save(path, lambda fh: fh.writelines(chunks), "w")


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
#: material, each with its row name and the coefficient it states; the
#: defining recursion provably yields different ones (see the certificate),
#: so these rows are reported as documented mismatches and do not gate the
#: exit status.
_STATED_CONSTANTS = (
    ("stated a13 = 11 a4 a7/2496", "a13", lambda c: 11 * c["a4"] * c["a7"] / 2496),
    ("stated a16 = a7^2/640", "a16", lambda c: c["a7"] * c["a7"] / 640),
)
_ERRATUM_NOTE = (
    "stated constant is inconsistent with the defining recursion; "
    "the derived value is certified instead"
)


def run_verify_algebra(outdir: str) -> int:
    chain = rp.profile_chain(4)
    checks = rp.algebra_certificate(chain)
    coeffs = rp.profile_coefficients(chain[-1])
    erratum = [
        {"name": name, "stated": str(stated(coeffs)), "derived": str(coeffs[key]),
         "match": coeffs[key] == stated(coeffs), "note": _ERRATUM_NOTE}
        for name, key, stated in _STATED_CONSTANTS
    ]
    payload = {
        "identities": [asdict(c) for c in checks],
        "erratum_checks": erratum,
        "all_passed": all(c.passed for c in checks),
    }
    write_json(os.path.join(outdir, "certificate.json"), payload)
    failing = [c.name for c in checks if not c.passed]
    if failing:
        # row names hold commas, so the list is split at semicolons
        print(f"verify-algebra: FAIL at {len(failing)} of {len(checks)} rows: "
              + "; ".join(failing))
        return EXIT_CHECK_FAILED
    print(f"verify-algebra: {len(checks)} identities PASS "
          f"(a4 = {coeffs['a4']}, a7 = {coeffs['a7']}); "
          f"{sum(not e['match'] for e in erratum)} documented erratum rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


#: the value contracts of a column: the rows that break one, and the problem
#: that an error line names
_CONTRACTS = {
    "finite": (lambda v: ~np.isfinite(v), "is not finite"),
    "positive": (lambda v: v <= 0.0, "is not positive"),
    "rising": (lambda v: np.diff(v, prepend=-np.inf) <= 0.0,
               "does not exceed the row before"),
    "count": (lambda v: (v < 0.0) | (v != np.floor(v)), "is not a count"),
    "magnitude": (lambda v: ~(np.isnan(v) | (v >= 0.0) & (v < np.inf)),
                  "is neither nan nor a finite value >= 0"),
}

#: trajectory.csv, one row per march station: each column's field of
#: ``vonmises.Trajectory`` and its value contracts, checked in order.
#: ``step_error`` is nan on the rows no quadratic start reached, F_max where
#: a station has no trusted node
_TRAJECTORY_CSV = {
    "x": ("x", ("finite", "rising")),
    "lambda": ("lam", ("finite", "positive")),
    "s": ("s", ("finite", "positive", "rising")),
    "F_max": ("F_max", ()),
    "solves": ("solves", ("finite", "count")),
    "halvings": ("halvings", ("finite", "count")),
    "short": ("short", ("finite", "count")),
    "step_error": ("step_error", ("magnitude",)),
}

#: manifest.json: each key and the JSON types its value may take
_MANIFEST_JSON = {
    "schema_version": (int,), "package_version": (str,), "config": (dict,),
    "config_hash": (str,), "snapshots": (list,), "steps": (int,),
    "completed": (bool,), "failure": (str,), "failed_step": (dict, type(None)),
}
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", bool: "a boolean", type(None): "null"}

#: columns of energies.csv, one row per frame with a report
_ENERGY_COLUMNS = [f.name for f in fields(EnergyReport)]


def _row_name(row: int) -> str:
    """The name of a row of snapshots.npy: ``phi`` for row 0, then
    ``w_003`` for w of snapshot 3 (row 7) and ``w_003_pair`` for its pair's
    (row 8)."""
    index, pair = divmod(row - 1, 2)
    return "phi" if row == 0 else f"w_{index:03d}" + "_pair" * pair


def run_simulate(cfg: RunConfig) -> int:
    cfg.validate()
    data = pr.build_initial_data(cfg.lambda0, pr.default_physical_grid(cfg.n_physical),
                                 cfg.perturbation_amplitude, cfg.x0_pressure)
    traj = vm.solve_until_separation(data, cfg)
    _atomic_write(os.path.join(cfg.outdir, "trajectory.csv"), _csv_lines(
        list(_TRAJECTORY_CSV),
        [getattr(traj, field) for field, _ in _TRAJECTORY_CSV.values()]))
    # one table: the march's one phi grid, then w of each snapshot and its
    # pair, written row by row after the header np.save would write
    rows = [traj.psi_grid.nodes] + [state.W.values for snap in traj.snapshots
                                    for state in (snap.state, snap.pair_state)]

    def write_table(fh):
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
            "fortran_order": False, "shape": (len(rows), len(traj.psi_grid))})
        for row in rows:
            row.tofile(fh)

    _atomic_save(os.path.join(cfg.outdir, "snapshots.npy"), write_table, "wb")

    late = traj.s >= 5.0 * traj.s[0]
    fit_payload = {}
    if traj.completed and len(traj.x) <= MIN_FIT_STATIONS:
        fit_payload["fit_error"] = (f"{len(traj.x)} stations, the fit needs "
                                    f"more than {MIN_FIT_STATIONS}")
    elif traj.completed:
        try:
            win = md.fit_window(traj.lam, cfg.lambda_stop)
            fit = md.fit_singularity(traj.x[win], traj.lam[win])
            s = traj.s
            b = md.compute_b(traj.x, traj.lam)
            bs_prod = (b * s)[late]
            # b s = k held constant in ds/dx = lam**-4 gives the collapse
            # lam ~ (x* - x)**(k / (2 (2k - 1))), exactly 1/2 at k = 1
            bs_median = float(np.median((b * s)[win]))
            fit_payload.update(fit)
            fit_payload.update({
                "bs_median": bs_median,
                "exponent_predicted": bs_median / (2.0 * (2.0 * bs_median - 1.0)),
                "rate_certificate": md.rate_inequality_certificate(
                    s[late], b[late], gamma=13.0 / 4.0),
                "b_envelope": [float(bs_prod.min()), float(bs_prod.max())],
                "x_star_over_lambda0_sq": fit["x_star"] / cfg.lambda0**2,
            })
        except PrandtlSepError as exc:
            fit_payload["fit_error"] = str(exc)
    write_json(os.path.join(cfg.outdir, "fit_report.json"), fit_payload)
    # a snapshot is named by its trajectory row; its pair is the next row
    write_json(os.path.join(cfg.outdir, "manifest.json"), {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "config_hash": cfg.config_hash(),
        "snapshots": [snap.station for snap in traj.snapshots],
        "completed": traj.completed, "failure": traj.failure,
        "steps": int(len(traj.x)), "failed_step": traj.failed_step})
    # the rows' work, and the failed step's on a run that stopped early
    failed = traj.failed_step or {"solves": 0, "halvings": 0}
    # the worst step error (nan on rows no quadratic start reached) is the
    # inflow's start-up; past s = 5 s0 the march's own steps are left
    error = traj.step_error
    worst = int(np.argmax(np.fmax(error, -np.inf)))
    work = (f"{traj.solves.sum() + failed['solves']} solves, "
            f"{traj.short.sum()} steps short of the Picard tolerance, "
            f"worst step error {error[worst]:.2e} at row {worst}, "
            f"{np.fmax.reduce(error[late], initial=np.nan):.1e} past s = 5 s0")
    if not traj.completed:
        print(f"simulate: solver stopped early: {traj.failure}; {work} (failed "
              f"step: {failed['solves']} solves, {failed['halvings']} dx halvings)")
        return EXIT_SOLVER
    exponent = f"exponent {fit_payload.get('exponent', float('nan')):.4f}"
    if "fit_error" in fit_payload:
        exponent += f" ({fit_payload['fit_error']})"
    else:
        exponent += (f" (b*s law {fit_payload['exponent_predicted']:.4f} at "
                     f"median b*s {fit_payload['bs_median']:.4f})")
    print(f"simulate: {len(traj.x)} steps to lambda = {traj.lam[-1]:.3e}, "
          f"x_end = {traj.x[-1]:.6e}; {exponent}; {work}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _reject(path: str, values: np.ndarray, bad: np.ndarray, place: Callable,
            problem: str) -> None:
    """Raise MissingArtifactError at the first ``bad`` entry of ``values``, if
    any, where ``place`` names it from its index."""
    if bad.any():
        index = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise MissingArtifactError(
            f"{path}: {place(*index)}: {float(values[index])!r} {problem}")


def _read_columns(path: str, columns: dict) -> dict:
    """The columns of a CSV artifact written by ``_csv_lines``, by name,
    each checked against its contracts in ``columns``.

    A missing, unreadable, malformed or empty file, or a value that breaks
    a contract, raises MissingArtifactError.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            lines = [line for line in fh if line.strip()]
        if not lines:
            raise MissingArtifactError(f"{path} holds no rows")
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError) as exc:
        raise MissingArtifactError(f"cannot read {path}: {exc}") from exc
    absent = [name for name in columns if name not in header]
    if absent:
        raise MissingArtifactError(f"{path}: missing column {absent[0]!r}")
    if table.shape[1] != len(header):
        raise MissingArtifactError(
            f"malformed {path}: {len(header)} names in the header, "
            f"{table.shape[1]} columns")
    # frozen: the columns are read-only views that states keep as they are
    table.flags.writeable = False
    values = {name: table[:, header.index(name)] for name in columns}
    for name, (_, contracts) in columns.items():
        for contract in contracts:
            flags, problem = _CONTRACTS[contract]
            _reject(path, values[name], flags(values[name]),
                    lambda row: f"column {name}, row {row}", problem)
    return values


def load_trajectory(outdir: str) -> tuple:
    """Rebuild the trajectory and snapshot states from run artifacts."""
    man_path = os.path.join(outdir, "manifest.json")
    traj_path = os.path.join(outdir, "trajectory.csv")
    try:
        with open(man_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MissingArtifactError(f"cannot read {man_path}: {exc}") from exc
    if type(manifest) is not dict:
        raise MissingArtifactError(f"{man_path}: not a JSON object")
    # an older schema is named as such, not by a key it lacks
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise MissingArtifactError(
            f"{man_path}: schema_version {version!r}, expected {SCHEMA_VERSION}")
    extra = sorted(set(manifest) - set(_MANIFEST_JSON))
    if extra:
        raise MissingArtifactError(f"{man_path}: unknown keys {extra}")
    for key, types in _MANIFEST_JSON.items():
        if key not in manifest:
            raise MissingArtifactError(f"{man_path}: missing key {key!r}")
        if type(manifest[key]) not in types:
            raise MissingArtifactError(
                f"{man_path}: {key} {manifest[key]!r} is not "
                f"{' or '.join(_JSON_NAMES[kind] for kind in types)}")
    # known config keys, snapshot rows listed, and a run summary that names
    # a failure and a failed step exactly when the run stopped early
    config, stations, completed, failure, step = (
        manifest[key] for key in ("config", "snapshots", "completed", "failure",
                                  "failed_step"))
    missing = sorted(_CONFIG_KEYS - set(config))
    unknown = sorted(set(config) - _CONFIG_KEYS)
    whole = step is not None and sorted(step) == ["halvings", "solves"] \
        and all(type(n) is int and n >= 0 for n in step.values())
    for ok, problem in (
            (not missing, f"missing config keys {missing}"),
            (not unknown, f"unknown config keys {unknown}"),
            (stations != [], "no snapshots listed"),
            (completed == (failure == ""),
             f"completed is {completed} but failure is {failure!r}"),
            (step is None if completed else whole, f"failed_step {step!r}: "
             "null on a completed run, else whole solves and halvings >= 0")):
        if not ok:
            raise MissingArtifactError(f"{man_path}: {problem}")
    try:
        cfg = RunConfig(**config)
        cfg.validate()
    except ConfigError as exc:
        raise MissingArtifactError(f"{man_path}: {exc}") from exc
    if manifest["config_hash"] != cfg.config_hash():
        raise MissingArtifactError(
            f"{man_path}: config_hash {manifest['config_hash']!r}, but the "
            f"config hashes to {cfg.config_hash()!r}")
    raw = _read_columns(traj_path, _TRAJECTORY_CSV)
    # each step's ds the march's clock from x and lambda
    x, s, lam = raw["x"], raw["s"], raw["lambda"]
    with np.errstate(all="ignore"):
        clock = np.diff(s) / vm.slow_time_increment(np.diff(x), lam[:-1], lam[1:])
    _reject(traj_path, s, np.concatenate([[False], ~(np.abs(clock - 1.0) <= 1e-9)]),
            lambda row: f"column s, row {row}",
            "is off the clock ds/dx = lambda**-4 from the row before")
    rows = len(x)
    if manifest["steps"] != rows:
        raise MissingArtifactError(f"{man_path}: steps {manifest['steps']!r}, "
                                   f"but {traj_path} holds {rows} rows")
    for station in stations:
        problem = ("is not an integer" if type(station) is not int
                   else "is negative" if station < 0
                   else f"has no pair row among the {rows} rows of {traj_path}"
                   if station + 1 >= rows else "")
        if problem:
            raise MissingArtifactError(
                f"{man_path}: snapshot station {station!r} {problem}")
    for before, station in zip(stations, stations[1:]):
        if station <= before:
            raise MissingArtifactError(f"{man_path}: snapshot station {station} "
                                       f"does not exceed the one before, {before}")
    table_path = os.path.join(outdir, "snapshots.npy")
    # np.load reads a file by what it starts with, and a cut zip archive
    # leaves its handle open there: only a file with the .npy magic gets in.
    # It is mapped, not read: mapping fails on a file shorter than its
    # header declares before any memory is allocated for the values
    npy_magic = np.lib.format.MAGIC_PREFIX
    try:
        with open(table_path, "rb") as fh:
            if fh.read(len(npy_magic)) != npy_magic:
                raise ValueError("it does not start with the .npy magic "
                                 f"{npy_magic!r}")
        mapped = np.load(table_path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise MissingArtifactError(f"cannot read {table_path}: {exc}") from exc
    # phi, then w of each listed snapshot and of its pair, on n_psi nodes
    shape = (1 + 2 * len(stations), cfg.n_psi)
    if mapped.dtype != np.float64 or mapped.shape != shape:
        raise MissingArtifactError(
            f"{table_path}: a {mapped.dtype} array of shape {mapped.shape}, "
            f"expected float64 of shape {shape}")
    # one copy in memory, frozen: the rows are read-only views that states
    # keep as they are
    table = np.array(mapped)
    table.flags.writeable = False
    _reject(table_path, table, ~np.isfinite(table),
            lambda row, node: f"row {_row_name(row)}, node {node}", "is not finite")
    try:
        grid = Grid(table[0])
    except (ValueError, TooFewNodesError) as exc:
        raise MissingArtifactError(f"{table_path}: {exc}") from exc
    # the k-th listed station's w is row 2k + 1, its pair's row 2k + 2
    w = table[1:]
    states = [vm.VMState(x=float(x[row]), s=float(s[row]),
                         W=Field(grid, w_row), lam=float(lam[row]))
              for row, w_row in zip([row for station in stations
                                     for row in (station, station + 1)], w)]
    # each w as the march leaves it: 0 at the wall, 0 after it only on a
    # leading block that a step may clamp, w/phi finite, rising but for the
    # roundoff that the march's monotonicity test forgives, and its edge the
    # far value of the march's outer flow from the row before
    zero = w[:, 1:] == 0.0
    clamped = np.logical_and.accumulate(zero, axis=1)
    clamped[:, vm.WALL_FLOOR_CELLS:] = False
    edge, off_edge = w[:, -1], np.zeros((len(w), 1), dtype=bool)
    with np.errstate(all="ignore"):
        far = np.array([vm.adverse_outer_flow(before, after.x - before.x)[1]
                        for before, after in zip(states, states[1:])])
        steep = ~np.isfinite(w[:, 1:] / grid.nodes[1:])
        off_edge[1:, 0] = ~(np.abs(edge[1:] - far) <= 1e-9 * np.maximum(
            np.abs(edge[1:]), np.abs(edge[:-1])))
    falls = np.diff(w, axis=1) < -vm.MONO_TOL_FACTOR * w.max(axis=1, keepdims=True)
    for bad, first_node, problem in (
            (w[:, :1] != 0.0, 0, "is not 0 at the wall"),
            (w < 0.0, 0, "is negative"),
            (zero & ~clamped, 1, "is 0 outside a leading block of the first "
                                 f"{vm.WALL_FLOOR_CELLS} cells after the wall"),
            (steep, 1, "over phi is not finite"),
            (falls, 1, "falls below the node before by more than the march "
                       "accepts"),
            (off_edge, len(grid) - 1, "is not the edge value of the row before "
                                      "less 2 dx")):
        _reject(table_path, w[:, first_node:], bad, lambda row, node: (
            f"row {_row_name(row + 1)}, node {node + first_node}"), problem)

    snapshots = [vm.Snapshot(station=station, state=state, pair_state=pair)
                 for station, state, pair in zip(stations, states[::2], states[1::2])]
    traj = vm.Trajectory(
        **{field: raw[name] for name, (field, _) in _TRAJECTORY_CSV.items()},
        snapshots=snapshots, psi_grid=grid, failure=failure, failed_step=step)
    return cfg, traj


def run_audit(outdir: str) -> int:
    try:
        cfg, traj = load_trajectory(outdir)
    except MissingArtifactError as exc:
        print(f"audit: {exc}")
        return EXIT_MISSING
    frames = dg.build_frames(traj, cfg.n_rescaled)
    energies = [fr.report for fr in frames if fr.report is not None]
    columns = [np.array([getattr(r, key) for r in energies], dtype=float)
               for key in _ENERGY_COLUMNS]
    _atomic_write(os.path.join(outdir, "energies.csv"),
                  _csv_lines(_ENERGY_COLUMNS, columns))
    # a snapshot that cannot be inverted, splined or rescaled is listed with
    # its error, and the other frames are still audited
    broken = [{"index": fr.index, "error": str(fr.failure),
               "type": type(fr.failure).__name__}
              for fr in frames if fr.failure is not None]
    suite = dg.run_audit_suite(frames)
    reports = [vars(r) for r in suite.reports]
    commutator = [fr.commutator for fr in frames if fr.commutator is not None]
    failed = [r for r in suite.reports if not r.passed]
    write_json(os.path.join(outdir, "audit_summary.json"), {
        "calibration": {k: v for k, v in vars(suite).items() if k != "reports"},
        "reports": reports,
        "commutator_identity": commutator,
        "failed_snapshots": broken,
        "all_passed": not failed and not broken,
    })
    # reported, not gated: what was not checked, and the commutator and
    # resolved counts, both 0 on the default run (criteria 6 and 7)
    holds = sum(c.get("holds") is True for c in commutator)
    unchecked = [c for c in commutator if "error" in c]
    resolved = sum(r.resolved_flag for r in energies)
    checks = f"commutator identity holds {holds}/{len(commutator)}"
    if unchecked:
        checks += (f", {len(unchecked)} not checked (first: s_mid "
                   f"{unchecked[0]['s_mid']:.3g}: {unchecked[0]['error']})")
    checks += f"; energies resolved {resolved}/{len(energies)}"
    no_lower = [str(fr.index) for fr in frames for r in fr.checks
                if r.details.get("lower_samples") == 0]
    if no_lower:
        checks = (f"lower balance bound not checked on {len(no_lower)} frames "
                  f"({', '.join(no_lower)}: empty domain); {checks}")
    if broken:
        checks = (f"{len(broken)} snapshots failed to rescale (first: snapshot "
                  f"{broken[0]['index']}: {broken[0]['error']}); {checks}")
    if not traj.completed:
        checks += f"; the manifest marks the run incomplete: {traj.failure}"
    if failed:
        print(f"audit: {len(failed)} reports FAILED (first: {failed[0].name}); "
              f"{checks}")
    else:
        print(f"audit: {len(reports)} reports PASS "
              f"({len(frames) - len(broken)} snapshots audited); {checks}")
    # a snapshot that failed to rescale is a solver failure
    return EXIT_SOLVER if broken else EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_worker(cfg: RunConfig) -> dict:
    """One member's ``simulate``: its exit code, its captured stdout and its
    fit report.  A package error but ConfigError exits 2, as ``simulate``
    alone would, and leaves the other members running."""
    entry = {"lambda0": cfg.lambda0}
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            entry["exit"] = run_simulate(cfg)
    except ConfigError:
        raise
    except PrandtlSepError as exc:
        entry.update(exit=EXIT_SOLVER, error=f"solver error: {exc}")
        return entry
    finally:
        entry["stdout"] = out.getvalue()
    fit_path = os.path.join(cfg.outdir, "fit_report.json")
    if os.path.exists(fit_path):
        with open(fit_path) as fh:
            entry["fit"] = json.load(fh)
    return entry


def _sweep_members(lambda0_list: List[float], cfg: RunConfig) -> List[RunConfig]:
    """Each member's validated configuration, largest lambda0 first."""
    if len(lambda0_list) < 2:
        raise ConfigError("sweep needs at least two lambda0 values")
    if len(set(lambda0_list)) < len(lambda0_list):
        raise ConfigError("sweep lambda0 values must differ: each member "
                          "writes to the directory named by its value")
    members = [replace(cfg, lambda0=lam0,
                       outdir=os.path.join(cfg.outdir, f"lam{lam0!r}"))
               for lam0 in sorted(lambda0_list, reverse=True)]
    for member in members:
        member.validate()
    return members


def run_sweep(lambda0_list: List[float], cfg: RunConfig) -> int:
    # only sweep starts processes: the pool machinery stays out of the import
    # that every subcommand pays for
    from concurrent.futures import ProcessPoolExecutor

    members = _sweep_members(lambda0_list, cfg)
    with ProcessPoolExecutor(max_workers=min(len(members), os.cpu_count() or 2)) as ex:
        results = list(ex.map(_sweep_worker, members))
    # the members' own lines in member order, whichever finished first
    print("".join(entry["stdout"] for entry in results), end="")
    rows = []
    for entry in results:
        if "error" in entry:
            print(f"sweep: lambda0 = {entry['lambda0']!r}: {entry['error']}")
        fit = entry.get("fit", {})
        x_star = fit.get("x_star", float("nan"))
        rows.append((entry["lambda0"], x_star,
                     x_star / entry["lambda0"] ** 2 if np.isfinite(x_star) else float("nan"),
                     fit.get("exponent", float("nan"))))
    table = "".join(_csv_lines(
        ["lambda0", "x_star", "x_star_over_lambda0_sq", "exponent"],
        [np.asarray(col) for col in zip(*rows)]))
    _atomic_write(os.path.join(cfg.outdir, "sweep.csv"), [table])
    print(table, end="")
    ratios = [r[2] for r in rows if np.isfinite(r[2])]
    if len(ratios) >= 2:
        spread = (max(ratios) - min(ratios)) / min(ratios)
        print(f"sweep: x*/lambda0^2 spread = {spread:.1%}")
    return EXIT_SOLVER if any(entry["exit"] for entry in results) else EXIT_OK


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
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    values.update((f.name, getattr(args, f.name)) for f in fields(RunConfig)
                  if getattr(args, f.name, None) is not None)
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
            return run_verify_algebra(args.outdir)
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
