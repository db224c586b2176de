import contextlib
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import tamper_second_iterate

import prandtlsep
from prandtlsep import cli
from prandtlsep.errors import InconsistentLambdaError


def _quick_config(outdir) -> cli.RunConfig:
    # a short run: stop at lambda0/6 so the marching takes a few dozen steps
    return cli.RunConfig(lambda0=0.05, lambda_stop_factor=6.0,
                         n_psi=1153, n_physical=1537, ds_rel=0.02,
                         snapshots_per_decade=10.0, outdir=str(outdir))


def _json(*parts):
    return json.loads(Path(*parts).read_text())


def _trajectory_columns(outdir) -> dict:
    """The columns of a run's trajectory.csv by name."""
    path = os.path.join(outdir, "trajectory.csv")
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(names, table.T))


@pytest.fixture()
def quick_cfg(tmp_path):
    return _quick_config(tmp_path / "run")


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    cfg = _quick_config(tmp_path_factory.mktemp("finished") / "run")
    assert cli.run_simulate(cfg) == cli.EXIT_OK
    return cfg.outdir


class TestConfig:
    def test_validation_catches_bad_values(self):
        nan, inf = float("nan"), float("inf")
        for bad in ({"lambda0": 0.5}, {"lambda_stop_factor": 1.0},
                    {"ds_rel": 0.0}, {"ds_rel": nan},
                    {"snapshots_per_decade": 0.0}, {"snapshots_per_decade": -8.0},
                    {"snapshots_per_decade": cli.MAX_SNAPSHOTS_PER_DECADE + 1.0},
                    {"x0_pressure": inf}, {"perturbation_amplitude": nan},
                    {"n_psi": 10**11}, {"n_physical": 10**11},
                    {"n_rescaled": 10**11}, {"n_rescaled": 125}):
            with pytest.raises(cli.ConfigError):
                cli.RunConfig(**bad).validate()
        # the dense-snapshots benchmark workload and the bound itself pass
        for spd in (16.0, cli.MAX_SNAPSHOTS_PER_DECADE):
            cli.RunConfig(snapshots_per_decade=spd).validate()
        # the resolved flag recomputes the energies on n_rescaled // 2 + 1
        # nodes: 64 at 126, the grid minimum; 63 at 125 would leave every
        # sample unresolved
        cli.RunConfig(n_rescaled=126).validate()

    def test_round_trip_through_file(self, tmp_path):
        cfg = cli.RunConfig(lambda0=0.04, n_psi=1537, ds_rel=0.01)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.canonical_text().replace(" = ", " = "))
        parsed = cli.RunConfig(**cli.parse_config_file(str(path)))
        assert parsed == cfg
        assert parsed.config_hash() == cfg.config_hash()

    def test_an_int_where_a_float_is_meant_reloads(self, tmp_path):
        # a value is typed as a config file types it, so an int where the
        # field is a float hashes as the float that the manifest reloads
        cfg = cli.RunConfig(lambda0=0.05, lambda_stop_factor=6, n_psi=1153,
                            n_physical=1537, ds_rel=0.02, snapshots_per_decade=10,
                            outdir=str(tmp_path / "run"))
        assert type(cfg.snapshots_per_decade) is float
        assert cfg.config_hash() == _quick_config(tmp_path / "run").config_hash()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_simulate(cfg) == cli.EXIT_OK
        loaded, _ = cli.load_trajectory(cfg.outdir)
        assert loaded == cfg

    def test_readme_config_block_lists_every_field(self):
        # the ini block of README.md documents every RunConfig field and no other key
        readme = Path(os.path.dirname(__file__), os.pardir, "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
                if line.split("#", 1)[0].strip()]
        assert sorted(keys) == sorted(f.name for f in cli.fields(cli.RunConfig))

    def test_readme_artifact_table_names_every_column_and_key(self, finished_run,
                                                              tmp_path):
        # README's artifact table has a row for each file that simulate,
        # audit and verify-algebra write and no other; its trajectory.csv row
        # names the columns of cli's trajectory table in order, and its
        # manifest.json row the keys of cli's manifest table, which are the
        # keys that simulate writes
        readme = Path(os.path.dirname(__file__), os.pardir, "README.md").read_text()
        table = readme.split("### Artifacts\n\n", 1)[1].split("\n\n", 1)[0]
        rows = dict(line.strip("| `").split("` | ", 1)
                    for line in table.splitlines()[2:])
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
            assert cli.main(["verify-algebra", "--outdir", str(rundir)]) == cli.EXIT_OK
        assert sorted(rows) == sorted(os.listdir(rundir))
        columns = rows["trajectory.csv"].split("`")[1]
        assert columns.split(", ") == list(cli._TRAJECTORY_CSV)
        keys = set(rows["manifest.json"].split("`")[1::2])
        assert keys == set(cli._MANIFEST_JSON) == set(_json(rundir, "manifest.json"))

    def test_readme_api_tour_runs(self, capsys):
        # the python block of README.md runs as printed: one default march,
        # the collapse fit and the audit suite
        readme = Path(os.path.dirname(__file__), os.pardir, "README.md").read_text()
        (block,) = [part.split("```", 1)[0]
                    for part in readme.split("```python\n")[1:]]
        exec(compile(block, "README.md", "exec"), {})
        exponent, all_passed = capsys.readouterr().out.split()
        assert abs(float(exponent) - 0.5) < 0.05
        assert all_passed == "True"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 3\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(str(path))

    def test_bad_number_in_file_rejected(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("lambda0 = 0.05\nn_psi = abc\n")
        with pytest.raises(cli.ConfigError, match="typo.cfg:2"):
            cli.parse_config_file(str(path))

    def test_bad_number_flag_exit_code(self, tmp_path):
        code = cli.main(["simulate", "--n-psi", "abc",
                         "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flag", [
        "--dx-init", "--dx-min", "--cfl-safety", "--psi-power",
        "--source-scale", "--audit-c-minus", "--audit-c-zone",
        "--audit-max-principle", "--audit-sub-super", "--audit-f-bounds",
        "--no-such-flag"])
    def test_unknown_flag_exit_code(self, tmp_path, flag, capsys):
        # the audit constants and the march numerics are fixed, not flags;
        # argparse alone would exit 2, the solver-failure code
        code = cli.main(["simulate", flag, "0", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert not os.listdir(tmp_path)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")

    def test_out_of_range_exit_code(self, tmp_path, capsys):
        # each is rejected before the march starts (ds_rel = 0 is left to
        # the validation test: a march with it would take 200,000 steps)
        for flag, value in (("--lambda0", "0.7"), ("--snapshots-per-decade", "0"),
                            ("--snapshots-per-decade", "-8"),
                            ("--snapshots-per-decade", "1000"), ("--ds-rel", "nan"),
                            ("--x0-pressure", "inf"),
                            ("--perturbation-amplitude", "nan"),
                            # rejected before any array exists: 10**11 nodes
                            # would ask numpy for 745 GiB
                            ("--n-psi", str(10**11)), ("--n-physical", str(10**11)),
                            ("--n-rescaled", str(10**11)), ("--n-rescaled", "125")):
            code = cli.main(["simulate", flag, value, "--outdir", str(tmp_path)])
            assert code == cli.EXIT_CONFIG, flag
            assert not os.listdir(tmp_path)
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("configuration error:")

    @pytest.mark.parametrize("lambda0", ["1e-300", "1e-100"])
    def test_tiny_lambda0_exits_2(self, tmp_path, lambda0, capsys):
        # inside (0, 0.2], but 1/lambda0**2 overflows (1e-300) or the
        # wall polynomial does (1e-100): one line, no traceback, no files
        code = cli.main(["simulate", "--lambda0", lambda0,
                         "--outdir", str(tmp_path / "run")])
        assert code == cli.EXIT_SOLVER
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("solver error:")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["simulate", "verify-algebra"])
    def test_unwritable_outdir_exit_code(self, tmp_path, command, capsys):
        # the output path is configuration: a path under a regular file is
        # rejected in one line, not with a traceback
        (tmp_path / "file").write_text("")
        outdir = str(tmp_path / "file" / "sub")
        assert cli.main([command, "--outdir", outdir]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"configuration error: cannot write {outdir}")
        assert os.listdir(tmp_path) == ["file"]


class TestVerifyAlgebra:
    def test_fresh_build_passes(self, tmp_path):
        code = cli.main(["verify-algebra", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        # one artifact, in which every row is a computed check
        assert os.listdir(tmp_path) == ["certificate.json"]
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["all_passed"]
        names = " ".join(i["name"] for i in cert["identities"])
        assert "1/48" in names
        assert "(emitted)" not in names
        # the bracket's d-coefficients are checked with exact values
        assert any("d11 = 2a10 - a4a7/4" in i["name"] and "(31/3870720)*Y^11*b^4"
                   in i["computed"] for i in cert["identities"])

    def test_tampered_coefficient_fails_naming_culprit(self, tmp_path, capsys,
                                                       monkeypatch):
        tamper_second_iterate(monkeypatch)
        code = cli.main(["verify-algebra", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "U2" in out

    def test_failure_line_names_every_failing_row(self, tmp_path, capsys,
                                                  monkeypatch):
        # a b^2 Y^9 term in u4 fails four of the 20 rows: the line gives
        # the count and every name, in certificate order
        chain_of = cli.rp.profile_chain

        def tampered(n):
            chain = chain_of(n)
            chain[3] = chain[3] + cli.rp.RationalPoly.monomial(Fraction(1, 1000), 9, 2)
            return chain

        monkeypatch.setattr(cli.rp, "profile_chain", tampered)
        code = cli.main(["verify-algebra", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CHECK_FAILED
        cert = json.loads((tmp_path / "certificate.json").read_text())
        failed = [i["name"] for i in cert["identities"] if not i["passed"]]
        assert len(failed) == 4 and len(cert["identities"]) == 20
        assert capsys.readouterr().out == (
            "verify-algebra: FAIL at 4 of 20 rows: " + "; ".join(failed) + "\n")
        assert failed[0] == "L_{core}(Y^7)"

    def test_profile_chain_is_derived_once(self, tmp_path, monkeypatch):
        # the certificate, the corrector's coefficients and the erratum rows
        # all read the one chain of iterates that verify-algebra derives
        calls = []
        chain_of = cli.rp.profile_chain

        def counted(n):
            calls.append(n)
            return chain_of(n)

        monkeypatch.setattr(cli.rp, "profile_chain", counted)
        assert cli.main(["verify-algebra", "--outdir", str(tmp_path)]) == cli.EXIT_OK
        assert calls == [4]

    def test_removed_tamper_flag_is_refused(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = cli.main(["verify-algebra", "--outdir", str(outdir),
                         "--tamper", "a4"])
        assert code == cli.EXIT_CONFIG
        assert not outdir.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: unrecognized arguments: "
                                "--tamper a4\n")


class _MakesDirectory:
    """A pickle payload: loading it calls ``os.mkdir(path)``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


#: edits of trajectory.csv that each end in a traceback without the
#: checks of ``load_trajectory``: (column, value on every row), or
#: (column, None) for one row moved off the clock
_TRAJECTORY_EDITS = {
    "lambda_all_zero": ("lambda", "0.0"), "lambda_all_negative": ("lambda", "-0.01"),
    "lambda_all_huge": ("lambda", "1e300"), "s_all_zero": ("s", "0.0"),
    "s_all_negative": ("s", "-5.0"), "x_constant": ("x", "0.001"),
    "s_off_the_clock": ("s", None)}
#: damages that set one cell of trajectory.csv: (column, value, data row).
#: Each step's work is a count, a whole number >= 0, and its error estimate
#: a magnitude
_CELL_EDITS = {
    "fractional_solves": ("solves", "1.5", 4),
    "negative_halvings": ("halvings", "-1.0", 4),
    "negative_step_error": ("step_error", "-1.0", 50),
    "nan_in_x": ("x", "nan", 10), "inf_in_solves": ("solves", "inf", 4)}


#: hostile values for a cell of trajectory.csv or the value of a manifest key;
#: the last five are of other JSON types than a number
_HOSTILE = (0, -1, 1e300, float("nan"), float("inf"), "text", [], {}, None, True)


@pytest.fixture(scope="module")
def hostile_rundir(finished_run, tmp_path_factory):
    """A copy of the finished run whose three artifacts each example of the
    property test rewrites."""
    rundir = tmp_path_factory.mktemp("hostile") / "run"
    shutil.copytree(finished_run, rundir)
    return rundir


class TestSimulateAndAudit:
    def test_end_to_end_short_run(self, quick_cfg, capsys):
        code = cli.run_simulate(quick_cfg)
        assert code == cli.EXIT_OK
        simulate_line = capsys.readouterr().out
        outdir = quick_cfg.outdir
        # one snapshot table, not a file per snapshot, and no inflow profile
        assert sorted(os.listdir(outdir)) == ["fit_report.json", "manifest.json",
                                              "snapshots.npy", "trajectory.csv"]
        manifest = _json(outdir, "manifest.json")
        assert manifest["completed"]
        # one C-ordered float64 table: phi, then w of the k-th listed station
        # in row 2k + 1 and of its pair in row 2k + 2
        table = np.load(os.path.join(outdir, "snapshots.npy"), allow_pickle=False)
        k = len(manifest["snapshots"])
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert table.shape == (1 + 2 * k, quick_cfg.n_psi)
        assert [cli._row_name(row) for row in (0, 1, 2, 7, 8, 2 * k)] == [
            "phi", "w_000", "w_000_pair", "w_003", "w_003_pair",
            f"w_{k - 1:03d}_pair"]
        assert manifest["config_hash"] == quick_cfg.config_hash()
        # the march's Picard work: the solves and the short steps are the
        # sums of the per-row columns, and no step failed
        trajectory = _trajectory_columns(outdir)
        solves, short = trajectory["solves"].sum(), trajectory["short"].sum()
        assert 0 < solves and short == 0
        assert manifest["failed_step"] is None
        assert (f"{solves:.0f} solves, {short:.0f} steps short of the Picard "
                "tolerance" in simulate_line)
        # x_end is the last station to 6 significant digits
        x_end = float(simulate_line.split("x_end = ", 1)[1].split(";", 1)[0])
        assert abs(x_end - trajectory["x"][-1]) <= 5e-6 * trajectory["x"][-1]
        code = cli.main(["audit", outdir])
        assert code == cli.EXIT_OK
        summary = _json(outdir, "audit_summary.json")
        assert summary["all_passed"]
        # the summary line counts the ungated checks as the artifacts record them
        checks = summary["commutator_identity"]
        holds = sum(c.get("holds") is True for c in checks)
        resolved = np.loadtxt(os.path.join(outdir, "energies.csv"), delimiter=",",
                              skiprows=1, ndmin=2)[:, -1]
        out = capsys.readouterr().out
        assert f"commutator identity holds {holds}/{len(checks)};" in out
        assert f"energies resolved {int(resolved.sum())}/{len(resolved)}" in out
        # and names the frames whose lower balance bound had no sample
        no_lower = [i for i, r in enumerate(summary["reports"][2::3])
                    if r["details"]["lower_samples"] == 0]
        assert no_lower
        assert (f"lower balance bound not checked on {len(no_lower)} frames "
                f"({', '.join(map(str, no_lower))}: empty domain); "
                "commutator identity") in out

    @pytest.mark.parametrize("stop, error", [
        (2.0, "no samples above 3.11 * lambda_stop"),
        (1.01, "stations, the fit needs more than 50")])
    def test_summary_line_says_why_there_is_no_exponent(self, tmp_path, stop,
                                                        error, capsys):
        # a run that stops above the fit window (about 100 stations) or
        # after a few steps completes, and its line quotes fit_report.json
        cfg = cli.RunConfig(lambda_stop_factor=stop, n_psi=1153, n_physical=1537,
                            outdir=str(tmp_path / "run"))
        assert cli.run_simulate(cfg) == cli.EXIT_OK
        fit = _json(cfg.outdir, "fit_report.json")
        assert list(fit) == ["fit_error"] and error in fit["fit_error"]
        assert f"; exponent nan ({fit['fit_error']}); " in capsys.readouterr().out

    def test_steps_at_the_picard_cap_are_counted(self, quick_cfg, monkeypatch,
                                                 capsys):
        # with no tolerance to meet every step ends at its sweep cap
        monkeypatch.setattr(cli.vm, "PICARD_TOL", 0.0)
        assert cli.run_simulate(quick_cfg) == cli.EXIT_OK
        manifest = _json(quick_cfg.outdir, "manifest.json")
        steps = manifest["steps"] - 1
        trajectory = _trajectory_columns(quick_cfg.outdir)
        assert trajectory["short"].tolist() == [0] + [1] * steps
        assert trajectory["solves"].sum() == (cli.vm.STARTUP_SWEEPS
                                              + (steps - 1) * cli.vm.PICARD_SWEEPS)
        assert trajectory["solves"].tolist() == [0, cli.vm.STARTUP_SWEEPS] \
            + [cli.vm.PICARD_SWEEPS] * (steps - 1)
        assert not trajectory["halvings"].any()
        assert f"{steps} steps short of the Picard tolerance" in capsys.readouterr().out

    def test_march_rejects_a_fall_that_audit_rejects(self, quick_cfg,
                                                     monkeypatch, capsys):
        # the first solve returns w with a fall at node 1000 halfway between
        # MONO_TOL_FACTOR times the old state's max and times its own, which
        # the edge undercuts by 2 dx: the loader judges a row against its
        # own max, so the march must halve that step, and audit then loads
        # every row
        solve = cli.vm._bdf2_solve
        calls = []

        def fall(grid, w_n, prev, h, far_value, source, scale, buffers):
            w, n, converged, error = solve(grid, w_n, prev, h, far_value,
                                           source, scale, buffers)
            calls.append(h)
            if len(calls) == 1:
                w = w.copy()
                w[1001] = w[1000] - cli.vm.MONO_TOL_FACTOR * (scale + w.max()) / 2
            return w, n, converged, error

        monkeypatch.setattr(cli.vm, "_bdf2_solve", fall)
        assert cli.run_simulate(quick_cfg) == cli.EXIT_OK
        halvings = _trajectory_columns(quick_cfg.outdir)["halvings"]
        assert halvings[1] == 1 and halvings.sum() == 1
        assert calls[1] == calls[0] / 2
        assert cli.main(["audit", quick_cfg.outdir]) == cli.EXIT_OK

    def test_rerun_is_bit_identical(self, quick_cfg, tmp_path):
        cli.run_simulate(quick_cfg)
        again = cli.RunConfig(**{**{f.name: getattr(quick_cfg, f.name)
                                    for f in cli.fields(quick_cfg)},
                                 "outdir": str(tmp_path / "rerun")})
        cli.run_simulate(again)
        for name in ("trajectory.csv", "snapshots.npy"):
            first = Path(quick_cfg.outdir, name).read_bytes()
            second = Path(again.outdir, name).read_bytes()
            assert first == second

    def test_artifact_mode_follows_umask(self, tmp_path):
        # artifacts get the mode of any file the user creates, not 0600
        old = os.umask(0o022)
        try:
            cli.write_json(str(tmp_path / "artifact.json"), {"a": 1})
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x")
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "artifact.json").st_mode & 0o777
        assert mode == os.stat(tmp_path / "plain.txt").st_mode & 0o777
        assert sorted(os.listdir(tmp_path)) == ["artifact.json", "plain.txt"]

    def test_audit_missing_dir_exit_code(self, tmp_path):
        code = cli.main(["audit", str(tmp_path / "nowhere")])
        assert code == cli.EXIT_MISSING

    @pytest.mark.parametrize("damage", [
        "missing_snapshot", "missing_pair", "unreadable_snapshot",
        "text_array", "ragged_csv", "missing_row", "renamed_column",
        "unknown_config_key", "missing_config_key", "schema_version",
        "old_schema", "schema_2", "schema_3", "schema_5", "schema_6", "schema_7",
        "schema_9", "text_file", "npz_archive", "cut_npz_archive",
        "pickled_object_array", "int64_array", "one_d_array", "empty_file",
        "half_file", "huge_header", "huge_row", "wall_nonzero", "decreasing_row",
        "zeros_past_the_floor", "zero_inside_the_row", "edge_off_the_march",
        "completed_not_a_bool", "failure_not_a_string", "completed_with_failure",
        "failed_step_on_completed_run",
        "fractional_solves", "negative_halvings", "nan_value",
        "unsorted_phi", "truncated_snapshot", "short_snapshot",
        "empty_snapshots", "snapshots_not_a_list", "station_not_an_int",
        "station_is_a_bool", "negative_station", "station_without_pair",
        "config_out_of_range", "config_grid_too_large", "config_not_a_number",
        "manifest_not_json", "header_names_columns",
        "lambda_all_zero", "lambda_all_negative", "lambda_all_huge", "s_all_zero",
        "s_all_negative", "x_constant", "s_off_the_clock", "stations_reversed",
        "steps_off_the_rows", "steps_is_a_bool", "steps_is_a_string", "config_edited",
        "config_hash_zeroed", "negative_step_error", "nan_in_x", "inf_in_solves",
        "header_only_csv", "empty_csv", "commented_rows", "manifest_not_an_object",
        "config_not_an_object", "schema_10", "unknown_manifest_key"])
    def test_broken_artifacts_exit_4(self, finished_run, tmp_path, damage, capsys):
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        manifest_path = rundir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        snap = rundir / "snapshots.npy"
        # phi is row 0; w of snapshot 3 is row 7 and its pair's row 8
        table = np.load(snap, allow_pickle=False)
        shape = table.shape
        edited = {"missing_pair": np.delete(table, 8, axis=0),
                  "missing_row": table[1:],
                  "text_array": table.astype(str),
                  "int64_array": table.astype(np.int64),
                  "one_d_array": table.ravel(),
                  "truncated_snapshot": table[:, :39],   # too few for a grid
                  "short_snapshot": table[:, :200]}      # a grid, not n_psi
        if damage in edited:
            np.save(snap, edited[damage])
        elif damage in ("nan_value", "unsorted_phi", "huge_row", "wall_nonzero",
                        "decreasing_row", "zeros_past_the_floor",
                        "zero_inside_the_row", "edge_off_the_march"):
            table = table.copy()
            if damage == "nan_value":
                table[7, 10] = np.nan
            elif damage == "unsorted_phi":
                table[0, [10, 11]] = table[0, [11, 10]]
            elif damage == "huge_row":
                # the wall value kept: w/phi overflows on the first node
                table[7, 1:] = 1e300
            elif damage == "wall_nonzero":
                table[7, 0] = 1e-3
            elif damage == "zeros_past_the_floor":
                # a leading block of zeros longer than a step may clamp
                table[7, 1:cli.vm.WALL_FLOOR_CELLS + 9] = 0.0
            elif damage == "zero_inside_the_row":
                table[7, 500] = 0.0
            elif damage == "edge_off_the_march":
                # still rising, but off the march's far value
                table[7, -1] *= 1.001
            else:
                table[7, 500] *= 0.5
            np.save(snap, table)
        elif damage == "missing_snapshot":
            snap.unlink()
        elif damage == "unreadable_snapshot":
            snap.unlink()
            snap.mkdir()
        elif damage == "text_file":
            snap.write_text("phi,w_000\n0.0,0.0\n")
        elif damage in ("npz_archive", "cut_npz_archive"):
            with open(snap, "wb") as fh:
                np.savez(fh, table=table)
            if damage == "cut_npz_archive":
                snap.write_bytes(snap.read_bytes()[:-100])
        elif damage == "pickled_object_array":
            np.save(snap, table.astype(object), allow_pickle=True)
        elif damage == "empty_file":
            snap.write_bytes(b"")
        elif damage == "half_file":
            snap.write_bytes(snap.read_bytes()[:snap.stat().st_size // 2])
        elif damage == "huge_header":
            # a header that declares 8 TiB of values, on a few bytes of them
            with open(snap, "wb") as fh:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": "<f8", "fortran_order": False, "shape": (2**40,)})
                fh.write(bytes(16))
        elif damage == "ragged_csv":
            (rundir / "trajectory.csv").write_text(
                (rundir / "trajectory.csv").read_text() + "1.0,2.0\n")
        elif damage == "renamed_column":
            traj = rundir / "trajectory.csv"
            traj.write_text(traj.read_text().replace("F_max", "Fmax", 1))
        elif damage in ("header_only_csv", "empty_csv", "commented_rows"):
            traj = rundir / "trajectory.csv"
            header, *rows = traj.read_text().splitlines(True)
            traj.write_text({"header_only_csv": header, "empty_csv": "",
                             "commented_rows": header + "#".join([""] + rows)
                             }[damage])
        elif damage == "header_names_columns":
            # one name more than the rows have columns
            traj = rundir / "trajectory.csv"
            traj.write_text(traj.read_text().replace("\n", ",extra\n", 1))
        elif damage == "unknown_config_key":
            manifest["config"]["no_such_key"] = 1
        elif damage == "unknown_manifest_key":
            # a key simulate never writes: schema 6's solve count
            manifest["tridiag_solves"] = 5
        elif damage == "missing_config_key":
            del manifest["config"]["n_rescaled"]
        elif damage == "config_not_an_object":
            manifest["config"] = list(manifest["config"])
        elif damage == "config_out_of_range":
            manifest["config"]["n_rescaled"] = 20
        elif damage == "config_grid_too_large":
            manifest["config"]["n_psi"] = 10**11
        elif damage == "config_not_a_number":
            manifest["config"]["lambda0"] = "abc"
        elif damage == "schema_version":
            manifest["schema_version"] = cli.SCHEMA_VERSION + 1
        elif damage == "old_schema":
            # version 1 also stored the march scheme and five weight keys
            manifest["schema_version"] = 1
            manifest["config"]["scheme"] = "bdf2"
        elif damage == "schema_2":
            # version 2 also stored the march numerics and the audit settings
            manifest["schema_version"] = 2
            manifest["config"]["cfl_safety"] = 0.9
        elif damage == "schema_3":
            # version 3 kept each snapshot and its pair in files of their own
            manifest["schema_version"] = 3
            manifest["snapshots"] = [{"index": k, "file": f"snapshot_{k:03d}.csv"}
                                     for k in range(len(manifest["snapshots"]))]
        elif damage == "schema_5":
            # version 5 repeated each snapshot's x, s and lam and its pair's
            manifest["schema_version"] = 5
            manifest["snapshots"] = [{"index": k, "x": 0.0, "s": 1.0, "lam": 0.05}
                                     for k in range(len(manifest["snapshots"]))]
        elif damage == "schema_6":
            # version 6 counted the run's solves in the manifest
            manifest["schema_version"] = 6
            manifest["tridiag_solves"] = 1
        elif damage == "schema_7":
            # version 7 counted the short steps in the manifest and kept no
            # failed step
            manifest["schema_version"] = 7
            del manifest["failed_step"]
        elif damage == "schema_10":
            # version 10 also wrote the inflow profile to initial_data.csv
            manifest["schema_version"] = 10
            (rundir / "initial_data.csv").write_text("y,u0,u0_prime,u0_second\n")
        elif damage == "schema_9":
            # version 9 kept the snapshot states as text in snapshots.csv
            manifest["schema_version"] = 9
            snap.unlink()
            (rundir / "snapshots.csv").write_text("phi,w_000,w_000_pair\n")
        elif damage == "completed_not_a_bool":
            manifest["completed"] = "yes"
        elif damage == "failure_not_a_string":
            manifest["failure"] = 5
        elif damage == "completed_with_failure":
            manifest["failure"] = "max_steps exhausted"
        elif damage == "failed_step_on_completed_run":
            manifest["failed_step"] = {"solves": 1, "halvings": 0}
        elif damage in _CELL_EDITS:
            # one cell of trajectory.csv, on the text line after the data row
            traj = rundir / "trajectory.csv"
            rows = traj.read_text().splitlines()
            name, value, row = _CELL_EDITS[damage]
            column = rows[0].split(",").index(name)
            cells = rows[row + 1].split(",")
            cells[column] = value
            rows[row + 1] = ",".join(cells)
            traj.write_text("\n".join(rows) + "\n")
        elif damage in _TRAJECTORY_EDITS:
            # one column of trajectory.csv set to one value on every row, or,
            # for s_off_the_clock, one row's s moved by 1e-6 relative
            traj = rundir / "trajectory.csv"
            rows = traj.read_text().splitlines()
            name, value = _TRAJECTORY_EDITS[damage]
            column = rows[0].split(",").index(name)
            for k in range(1, len(rows)) if value else (5,):
                cells = rows[k].split(",")
                cells[column] = value or repr(float(cells[column]) * (1.0 + 1e-6))
                rows[k] = ",".join(cells)
            traj.write_text("\n".join(rows) + "\n")
        elif damage == "stations_reversed":
            manifest["snapshots"] = manifest["snapshots"][::-1]
        elif damage == "empty_snapshots":
            manifest["snapshots"] = []
        elif damage == "snapshots_not_a_list":
            manifest["snapshots"] = 5
        elif damage == "station_not_an_int":
            manifest["snapshots"][2] = "a"
        elif damage == "station_is_a_bool":
            manifest["snapshots"][2] = True
        elif damage == "negative_station":
            manifest["snapshots"][2] = -1
        elif damage == "station_without_pair":
            # the last trajectory row has no next row to pair with
            manifest["snapshots"][-1] = manifest["steps"] - 1
        elif damage in ("steps_off_the_rows", "steps_is_a_bool", "steps_is_a_string"):
            manifest["steps"] = {"steps_off_the_rows": 999, "steps_is_a_bool": True,
                                 "steps_is_a_string": str(manifest["steps"])}[damage]
        elif damage == "config_edited":
            manifest["config"]["lambda0"] = 0.07
        elif damage == "config_hash_zeroed":
            manifest["config_hash"] = "0" * 64
        text = json.dumps([manifest] if damage == "manifest_not_an_object"
                          else manifest)
        if damage == "manifest_not_json":
            text = text[:len(text) // 2]
        manifest_path.write_text(text)
        # one line, and no warning on the way to it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["audit", str(rundir)])
        assert code == cli.EXIT_MISSING
        out, err = capsys.readouterr()
        assert "audit:" in out and len(out.strip().splitlines()) == 1 and not err
        # these reach their own check, not an earlier one
        assert {"manifest_not_json": "cannot read",
                "header_names_columns": "names in the header",
                "ragged_csv": "the number of columns changed from 8 to 2",
                "renamed_column": "trajectory.csv: missing column 'F_max'",
                "unknown_config_key": "unknown config keys ['no_such_key']",
                "unknown_manifest_key":
                    "manifest.json: unknown keys ['tridiag_solves']",
                "missing_config_key": "missing config keys ['n_rescaled']",
                "empty_snapshots": "no snapshots listed",
                "nan_in_x": "trajectory.csv: column x, row 10: nan is not finite",
                "inf_in_solves":
                    "trajectory.csv: column solves, row 4: inf is not finite",
                "header_only_csv": "trajectory.csv holds no rows",
                "empty_csv": "trajectory.csv holds no rows",
                # a '#' is text, not the start of a comment
                "commented_rows": "could not convert string '#0.0' to float",
                "manifest_not_an_object": "manifest.json: not a JSON object",
                "config_not_an_object": "manifest.json: config ['",
                "schema_10": f"schema_version 10, expected {cli.SCHEMA_VERSION}",
                "schema_5": "schema_version 5",
                "schema_6": "schema_version 6",
                "schema_7": "schema_version 7",
                "schema_9": "schema_version 9",
                "missing_snapshot": "cannot read",
                "unreadable_snapshot": "cannot read",
                "text_file": "cannot read",
                "cut_npz_archive": "does not start with the .npy magic",
                "pickled_object_array": "cannot read",
                "empty_file": "cannot read",
                "half_file": "cannot read",
                "huge_header": "cannot read",
                "npz_archive": "does not start with the .npy magic",
                "missing_pair": f"a float64 array of shape ({shape[0] - 1}, {shape[1]}), "
                                f"expected float64 of shape {shape}",
                "missing_row": f"shape ({shape[0] - 1}, {shape[1]}), expected",
                "text_array": "expected float64",
                "int64_array": f"a int64 array of shape {shape}, expected",
                "one_d_array": f"shape ({shape[0] * shape[1]},), expected",
                "truncated_snapshot": f"shape ({shape[0]}, 39), expected",
                "short_snapshot": f"shape ({shape[0]}, 200), expected",
                "nan_value": "row w_003, node 10: nan is not finite",
                "unsorted_phi": "strictly increasing",
                "huge_row": "row w_003, node 1: 1e+300 over phi is not finite",
                "wall_nonzero": "row w_003, node 0: 0.001 is not 0 at the wall",
                "decreasing_row": "row w_003, node 500: ",
                "zeros_past_the_floor":
                    f"row w_003, node {cli.vm.WALL_FLOOR_CELLS + 1}: 0.0 is 0 outside "
                    f"a leading block of the first {cli.vm.WALL_FLOOR_CELLS} cells",
                "zero_inside_the_row": "row w_003, node 500: 0.0 is 0 outside",
                "edge_off_the_march": f"row w_003, node {shape[1] - 1}: ",
                "completed_not_a_bool": "completed 'yes' is not a boolean",
                "failure_not_a_string": "failure 5 is not a string",
                "completed_with_failure":
                    "completed is True but failure is 'max_steps exhausted'",
                "failed_step_on_completed_run": "failed_step {'solves': 1",
                "fractional_solves": "column solves, row 4: 1.5 is not a count",
                "negative_halvings": "column halvings, row 4: -1.0 is not a count",
                "snapshots_not_a_list": "snapshots 5 is not an array",
                "station_not_an_int": "station 'a' is not an integer",
                "station_is_a_bool": "station True is not an integer",
                "negative_station": "station -1 is negative",
                "station_without_pair": "has no pair row",
                "config_grid_too_large": "must not exceed",
                "lambda_all_zero": "column lambda, row 0: 0.0 is not positive",
                "lambda_all_negative": "column lambda, row 0: -0.01 is not positive",
                "lambda_all_huge": "column s, row 1: ",
                "s_all_zero": "column s, row 0: 0.0 is not positive",
                "s_all_negative": "column s, row 0: -5.0 is not positive",
                "x_constant": "column x, row 1: 0.001 does not exceed the row before",
                "s_off_the_clock": "column s, row 4: ",   # text line 5
                "stations_reversed": "does not exceed the one before",
                "steps_off_the_rows": "steps 999, but ",
                "steps_is_a_bool": "steps True is not an integer",
                "steps_is_a_string": f"steps '{manifest['steps']}' is not an integer",
                "config_edited": "the config hashes to",
                "config_hash_zeroed": f"config_hash '{'0' * 64}', but",
                "negative_step_error":
                    "column step_error, row 50: -1.0 is neither nan nor a finite"
                }.get(damage, "") in out
        if damage == "steps_off_the_rows":
            rows = len((rundir / "trajectory.csv").read_text().splitlines()) - 1
            assert f"trajectory.csv holds {rows} rows" in out
        if damage == "config_not_an_object":
            assert "is not an object" in out
        if damage in ("lambda_all_huge", "s_off_the_clock"):
            assert "is off the clock ds/dx = lambda**-4" in out
        if damage == "decreasing_row":
            assert "falls below the node before by more than the march" in out
        if damage == "edge_off_the_march":
            assert "is not the edge value of the row before less 2 dx" in out

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_hostile_edit_exits_with_one_line(self, finished_run, hostile_rundir,
                                              data):
        # one cell of a trajectory.csv column, the value of one manifest key,
        # or one cell of a w row of snapshots.npy, set to a hostile value or
        # swapped with the next row's (trajectory) or set to the next node's
        # (w): audit exits with a known code after one line, and raises no
        # exception and no warning
        rows = Path(finished_run, "trajectory.csv").read_text().splitlines()
        manifest = _json(finished_run, "manifest.json")
        table = np.load(Path(finished_run, "snapshots.npy"), allow_pickle=False)
        target = data.draw(st.sampled_from(("trajectory", "manifest", "snapshots")))
        if target == "snapshots":
            row = data.draw(st.integers(1, table.shape[0] - 1))
            value = data.draw(st.sampled_from(_HOSTILE[:5] + ("next",)))
            node = data.draw(st.integers(0, table.shape[1] - 1 - (value == "next")))
            table[row, node] = table[row, node + 1] if value == "next" else value
        elif target == "trajectory":
            column = rows[0].split(",").index(
                data.draw(st.sampled_from(list(cli._TRAJECTORY_CSV))))
            row = data.draw(st.integers(1, len(rows) - 2))
            value = data.draw(st.sampled_from(_HOSTILE[:6] + ("swap",)))
            cells = [line.split(",") for line in rows]
            if value == "swap":
                cells[row][column], cells[row + 1][column] = (
                    cells[row + 1][column], cells[row][column])
            else:
                cells[row][column] = str(value)
            rows = [",".join(line) for line in cells]
        else:
            manifest[data.draw(st.sampled_from(list(cli._MANIFEST_JSON)))] = \
                data.draw(st.sampled_from(_HOSTILE))
        (hostile_rundir / "trajectory.csv").write_text("\n".join(rows) + "\n")
        (hostile_rundir / "manifest.json").write_text(json.dumps(manifest))
        np.save(hostile_rundir / "snapshots.npy", table)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["audit", str(hostile_rundir)])
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_SOLVER,
                        cli.EXIT_MISSING)
        assert len(out.getvalue().strip().splitlines()) == 1

    def test_loading_the_table_runs_no_code(self, finished_run, tmp_path, capsys):
        # a pickle in place of snapshots.npy is refused unread: unpickling
        # it makes the sentinel directory
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        sentinel = tmp_path / "sentinel"
        payload = pickle.dumps(_MakesDirectory(str(sentinel)))
        pickle.loads(payload)
        assert sentinel.is_dir()
        sentinel.rmdir()
        (rundir / "snapshots.npy").write_bytes(payload)
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_MISSING
        assert not sentinel.exists()
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("audit: cannot read")

    def test_failed_report_exits_1(self, finished_run, tmp_path, monkeypatch,
                                   capsys):
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        # a negative tolerance fails the curvature audit of every frame
        monkeypatch.setattr(cli.dg.au, "audit_tol",
                            lambda h, scale: -np.ones_like(scale))
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_CHECK_FAILED
        assert "reports FAILED (first: max-principle)" in capsys.readouterr().out
        summary = json.loads((rundir / "audit_summary.json").read_text())
        assert not summary["all_passed"]
        assert summary["failed_snapshots"] == []

    def test_snapshot_that_fails_to_rescale_is_listed(self, finished_run, tmp_path,
                                                      monkeypatch, capsys):
        # snapshot 2 fails to rescale, snapshot 3's energy chain only on
        # every other node: the first is listed and left out, the second is
        # audited with its energies flagged unresolved
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        cfg, traj = cli.load_trajectory(str(rundir))
        n = len(traj.snapshots)
        rescale, build = cli.dg.rescale_snapshot_profile, cli.dg.build_frames
        chain = cli.dg.en.energy_chain
        built = []

        def failing_rescale(u_at, lam, grid):
            if lam == traj.snapshots[2].state.lam and len(grid) == cfg.n_rescaled:
                raise InconsistentLambdaError("planted")
            return rescale(u_at, lam, grid)

        def failing_chain(ctx, V, s):
            if (s, len(ctx.grid)) == (traj.snapshots[3].state.s,
                                      cfg.n_rescaled // 2 + 1):
                raise InconsistentLambdaError("planted")
            return chain(ctx, V, s)

        def keep_frames(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli.dg, "rescale_snapshot_profile", failing_rescale)
        monkeypatch.setattr(cli.dg.en, "energy_chain", failing_chain)
        monkeypatch.setattr(cli.dg, "build_frames", keep_frames)
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_SOLVER
        # one frame per snapshot, in snapshot order
        assert [fr.index for fr in built[0]] == list(range(n))
        failure, no_failure = (fr.failure for fr in built[0][2:4])
        assert isinstance(failure, InconsistentLambdaError)
        assert str(failure) == "planted" and no_failure is None
        summary = json.loads((rundir / "audit_summary.json").read_text())
        assert summary["failed_snapshots"] == [
            {"index": 2, "error": "planted", "type": "InconsistentLambdaError"}]
        assert len(summary["reports"]) == 3 * (n - 1)
        assert not summary["all_passed"]
        energies = np.loadtxt(rundir / "energies.csv", delimiter=",",
                              skiprows=1, ndmin=2)
        assert len(energies) == n - 1
        assert traj.snapshots[2].state.s not in energies[:, 0]
        (row,) = energies[energies[:, 0] == traj.snapshots[3].state.s]
        assert row[-1] == 0.0
        out = capsys.readouterr().out
        assert (f"({n - 1} snapshots audited); 1 snapshots failed to rescale "
                "(first: snapshot 2: planted)") in out

    @pytest.mark.parametrize("failing", ["state", "pair_state"])
    def test_failed_commutator_check_is_written_at_the_pair_midpoint(
            self, finished_run, tmp_path, monkeypatch, capsys, failing):
        # snapshot 1's pair is checked; its own rescale fails, or only its
        # pair state's, and the failed entry sits where a finished one
        # would, at the mean of the pair's slow times in trajectory.csv.
        # The summary line names it as not checked, not as a gap that fails
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        cfg, traj = cli.load_trajectory(str(rundir))
        snap = traj.snapshots[1]
        planted = getattr(snap, failing).lam
        rescale = cli.dg.rescale_snapshot_profile

        def failing_rescale(u_at, lam, grid):
            if lam == planted and len(grid) == cfg.n_rescaled:
                raise InconsistentLambdaError("planted")
            return rescale(u_at, lam, grid)

        monkeypatch.setattr(cli.dg, "rescale_snapshot_profile", failing_rescale)
        cli.main(["audit", str(rundir)])
        summary = json.loads((rundir / "audit_summary.json").read_text())
        checks = summary["commutator_identity"]
        entry = checks[0]
        assert entry["error"] == "planted"
        s = _trajectory_columns(rundir)["s"]
        assert entry["s_mid"] == 0.5 * (s[snap.station] + s[snap.station + 1])
        holds = sum(c.get("holds") is True for c in checks)
        assert (f"commutator identity holds {holds}/{len(checks)}, 1 not checked "
                f"(first: s_mid {entry['s_mid']:.3g}: planted); energies resolved"
                ) in capsys.readouterr().out

    @pytest.mark.parametrize("planted", [(0,), (0, 1)])
    def test_calibration_moves_past_snapshots_that_fail_to_rescale(
            self, finished_run, tmp_path, monkeypatch, planted):
        # the first snapshot fails to rescale, then also the one that took
        # over the calibration: the constants, the sandwich amplitudes
        # included, come from the next snapshot that rescales, as on a run
        # that never listed the failed ones, and the failures and the
        # reports come out in snapshot order
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        cfg, traj = cli.load_trajectory(str(rundir))
        n = len(traj.snapshots)
        clean = cli.dg.run_audit_suite(cli.dg.build_frames(traj, cfg.n_rescaled))
        rest = replace(traj, snapshots=traj.snapshots[len(planted):])
        expected = asdict(cli.dg.run_audit_suite(
            cli.dg.build_frames(rest, cfg.n_rescaled)))
        reports = expected.pop("reports")
        assert expected != {k: v for k, v in asdict(clean).items()
                            if k != "reports"}
        lams = {traj.snapshots[i].state.lam for i in planted}
        rescale = cli.dg.rescale_snapshot_profile

        def failing_rescale(u_at, lam, grid):
            if lam in lams and len(grid) == cfg.n_rescaled:
                raise InconsistentLambdaError("planted")
            return rescale(u_at, lam, grid)

        monkeypatch.setattr(cli.dg, "rescale_snapshot_profile", failing_rescale)
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_SOLVER
        summary = json.loads((rundir / "audit_summary.json").read_text())
        assert [f["index"] for f in summary["failed_snapshots"]] == list(planted)
        assert summary["calibration"] == expected
        assert summary["reports"] == json.loads(json.dumps(reports))
        names = ["max-principle", "sub-super-solutions", "diffusion-balance-bounds"]
        assert [r["name"] for r in summary["reports"]] == names * (n - len(planted))
        assert [r["details"]["s"] for r in summary["reports"][::3]] == [
            snap.state.s for snap in rest.snapshots]

    def test_audit_memory_does_not_grow_with_snapshots(self, finished_run,
                                                       tmp_path, capsys):
        # one snapshot's spline, contexts and rescaled arrays are alive at
        # a time, so twice the snapshots per decade raise the audit's
        # traced peak by less than a quarter (by 55% when every frame kept
        # them until the audit returned)
        dense = replace(_quick_config(tmp_path / "dense"),
                        snapshots_per_decade=20.0)
        assert cli.run_simulate(dense) == cli.EXIT_OK
        peaks, counts = [], []
        for source in (finished_run, dense.outdir):
            rundir = tmp_path / f"audit{len(peaks)}"
            shutil.copytree(source, rundir)
            # a first audit builds what the process keeps: unit grids, stencils
            assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
            tracemalloc.start()
            try:
                assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            counts.append(len(_json(rundir, "manifest.json")["snapshots"]))
        assert counts[1] >= 1.8 * counts[0]
        assert peaks[1] < 1.25 * peaks[0]

    def test_audit_splines_and_inverts_each_state_once(self, finished_run,
                                                       tmp_path, monkeypatch):
        # an inverted state, a snapshot or a commutator pair, is splined once
        # and its one rescale reads that spline
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        calls = {"spline": 0, "invert": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli.dg, "spline_interpolant",
                            counted("spline", cli.dg.spline_interpolant))
        monkeypatch.setattr(cli.dg.vm, "from_von_mises",
                            counted("invert", cli.dg.vm.from_von_mises))
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
        manifest = json.loads((rundir / "manifest.json").read_text())
        summary = json.loads((rundir / "audit_summary.json").read_text())
        assert summary["commutator_identity"]
        states = len(manifest["snapshots"]) + len(summary["commutator_identity"])
        assert calls == {"spline": states, "invert": states}

    def test_audit_builds_one_stencil_set_per_wall_unit_shape(
            self, finished_run, tmp_path, monkeypatch):
        # every frame's wall-unit grid of n nodes, which its commutator check
        # reads too, scales the stencils of one unit grid, and so does every
        # grid of a frame's every other node, n // 2 + 1 of them, so a fresh
        # process builds each order once per shape however many frames it
        # audits, next to the loaded phi grid's own second differences,
        # Gauss-point interpolation and wall extrapolation.  The subsampled
        # grid reads no dissipation, so it needs no third difference
        from prandtlsep import gridfields as gf
        from prandtlsep import modulation as md

        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        builds = []
        build = gf.fd_weights

        def counted(x, x0, order):
            builds.append((np.shape(x), order))
            return build(x, x0, order)

        monkeypatch.setattr(gf, "fd_weights", counted)
        md._unit_rescaled_grid.cache_clear()
        md._unit_subsampled_grid.cache_clear()
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
        n = _quick_config(rundir).n_rescaled
        shapes = (n, n // 2 + 1)
        wall = sorted(b for b in builds if len(b[0]) == 2 and b[0][0] in shapes)
        assert wall == sorted([((n, gf._STENCIL_WIDTH[k]), k) for k in (1, 2, 3)]
                              + [((n // 2 + 1, gf._STENCIL_WIDTH[k]), k) for k in (1, 2)])
        assert len(builds) == len(wall) + 3 == 8
        # a later audit in the process builds only its phi grid's
        builds.clear()
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
        assert len(builds) == 3

    def test_audit_takes_one_energy_report_per_rescaled_frame(
            self, finished_run, tmp_path, monkeypatch):
        # the resolved check reads its subsampled energies off the chain,
        # not off a second report
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        calls = []
        report = cli.dg.en.energy_report

        def counted(ctx, *args):
            calls.append(len(ctx.grid))
            return report(ctx, *args)

        monkeypatch.setattr(cli.dg.en, "energy_report", counted)
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
        rows = np.loadtxt(rundir / "energies.csv", delimiter=",", skiprows=1, ndmin=2)
        assert calls == [_quick_config(rundir).n_rescaled] * len(rows)

    def test_audit_rescales_each_snapshot_once(self, finished_run, tmp_path,
                                               monkeypatch):
        # the resolved check subsamples the frame's own rescale and the
        # commutator check reads it, so an audit rescales each snapshot once
        # and each checked pair's state once, onto its snapshot's grid, every
        # one on n_rescaled nodes, and none inside the resolved check
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        calls, inside = [], []
        rescale, resolved = cli.dg.rescale_snapshot_profile, cli.dg.energies_resolved

        def counted(u_at, lam, grid):
            calls.append(len(grid))
            return rescale(u_at, lam, grid)

        def watched(*args):
            before = len(calls)
            flag = resolved(*args)
            inside.append(len(calls) - before)
            return flag

        monkeypatch.setattr(cli.dg, "rescale_snapshot_profile", counted)
        monkeypatch.setattr(cli.dg, "energies_resolved", watched)
        assert cli.main(["audit", str(rundir)]) == cli.EXIT_OK
        snapshots = len(_json(rundir, "manifest.json")["snapshots"])
        pairs = len(_json(rundir, "audit_summary.json")["commutator_identity"])
        assert pairs > 0
        assert calls == [_quick_config(rundir).n_rescaled] * (snapshots + pairs)
        assert inside == [0] * snapshots

    def test_audit_of_too_short_run_exits_2(self, tmp_path, capsys):
        # a completed run of a few steps is too short for the modulation rate
        cfg = cli.RunConfig(**{**{f.name: getattr(_quick_config(tmp_path), f.name)
                                  for f in cli.fields(cli.RunConfig)},
                               "lambda_stop_factor": 1.01,
                               "outdir": str(tmp_path / "short")})
        assert cli.run_simulate(cfg) == cli.EXIT_OK
        steps = _json(cfg.outdir, "manifest.json")["steps"]
        assert steps < 7
        capsys.readouterr()
        assert cli.main(["audit", cfg.outdir]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "need at least 7 samples" in err

    def test_loaded_trajectory_matches(self, quick_cfg, monkeypatch):
        # every loaded snapshot and pair state equals the march's bit for bit
        marched = []
        solve = cli.vm.solve_until_separation

        def keep_march(*args):
            marched.append(solve(*args))
            return marched[-1]

        monkeypatch.setattr(cli.vm, "solve_until_separation", keep_march)
        cli.run_simulate(quick_cfg)
        cfg, traj = cli.load_trajectory(quick_cfg.outdir)
        assert cfg.lambda0 == quick_cfg.lambda0
        assert len(traj.x) > 10
        (ref,) = marched
        # the loaded stations and slow-time clock are the march's, bit for bit
        for got, want in ((traj.x, ref.x), (traj.lam, ref.lam), (traj.s, ref.s)):
            assert np.array_equal(got, want)
        assert len(traj.snapshots) == len(ref.snapshots) > 2
        assert np.array_equal(traj.psi_grid.nodes, ref.psi_grid.nodes)
        for got, want in zip(traj.snapshots, ref.snapshots):
            assert got.station == want.station
            for a, b in ((got.state, want.state), (got.pair_state, want.pair_state)):
                # one Grid shared by every loaded state, as in the march
                assert a.W.grid is traj.psi_grid
                # w is a row of the one loaded table, next to phi, not a
                # copy of it
                assert a.W.values.base is traj.psi_grid.nodes.base is not None
                assert np.array_equal(a.W.values, b.W.values)
                assert (a.x, a.s, a.lam) == (b.x, b.s, b.lam)


@pytest.fixture(scope="module")
def large_lambda0_run(tmp_path_factory):
    """(outdir, audit exit code, audit line, simulate line) of a lambda0 =
    0.1 run: the wall-unit span 8 s0**(2/7) of snapshot 0 reaches y = 2.982,
    past the 2.944 that its inverted profile spans."""
    cfg = cli.RunConfig(lambda0=0.1, n_psi=1153, n_physical=1537,
                        outdir=str(tmp_path_factory.mktemp("large") / "run"))
    with contextlib.redirect_stdout(io.StringIO()) as simulated:
        assert cli.run_simulate(cfg) == cli.EXIT_OK
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["audit", cfg.outdir])
    return cfg.outdir, code, out.getvalue(), simulated.getvalue()


class TestLargeLambda0:
    def test_frame_past_the_profile_span_is_audited(self, large_lambda0_run):
        # snapshot 0's wall-unit grid stops at the end of its profile, so
        # all 14 snapshots are audited
        outdir, code, line, _ = large_lambda0_run
        assert code == cli.EXIT_OK
        summary = _json(outdir, "audit_summary.json")
        assert summary["failed_snapshots"] == []
        assert len(summary["reports"]) == 3 * 14
        energies = np.loadtxt(os.path.join(outdir, "energies.csv"), delimiter=",",
                              skiprows=1, ndmin=2)
        assert len(energies) == 14
        assert "(14 snapshots audited)" in line

    def test_energies_header_is_the_report_fields(self, large_lambda0_run):
        outdir = large_lambda0_run[0]
        with open(os.path.join(outdir, "energies.csv")) as fh:
            header = fh.readline().strip()
        assert header.split(",") == [f.name for f in cli.fields(cli.EnergyReport)]

    def test_fit_report_carries_rate_certificate(self, large_lambda0_run):
        fit = _json(large_lambda0_run[0], "fit_report.json")
        cert = fit["rate_certificate"]
        assert "J_gamma_13_4" not in fit
        assert cert["gamma"] == 13.0 / 4.0 and cert["J"] > 0.0
        # the certificate's envelope is the b*s envelope of the same samples
        lo, hi = fit["b_envelope"]
        assert cert["epsilon"] == max(1.0 - lo, hi - 1.0)
        assert cert["violations"] == 0 and cert["holds"]

    def test_fit_report_explains_the_exponent(self, large_lambda0_run):
        # the median b*s over the fit window, the exponent k/(2(2k - 1)) that
        # a constant b*s = k gives, and the summary line beside the fitted one
        outdir, *_, line = large_lambda0_run
        fit = _json(outdir, "fit_report.json")
        traj = _trajectory_columns(outdir)
        win = cli.md.fit_window(traj["lambda"], 0.1 / 50.0)
        assert fit["window"] == [traj["x"][win][0], traj["x"][win][-1]]
        b = cli.md.compute_b(traj["x"], traj["lambda"])
        k = float(np.median((b * traj["s"])[win]))
        assert fit["bs_median"] == k and 0.9 < k < 1.1
        assert fit["exponent_predicted"] == k / (2.0 * (2.0 * k - 1.0))
        assert (f"exponent {fit['exponent']:.4f} (b*s law "
                f"{fit['exponent_predicted']:.4f} at median b*s {k:.4f})") in line
        # and the worst step error, the column's largest value and its row,
        # and the largest past s = 5 s0, where the inflow's start-up is over
        error = traj["step_error"]
        worst, row = np.nanmax(error), np.nanargmax(error)
        late = np.nanmax(error[traj["s"] >= 5.0 * traj["s"][0]])
        assert np.isnan(error[:3]).all() and 0.0 < late < worst < 1e-8
        assert line.rstrip().endswith(f"worst step error {worst:.2e} at row "
                                      f"{row}, {late:.1e} past s = 5 s0")


class TestSweep:
    def test_needs_two_values(self, tmp_path):
        code = cli.main(["sweep", "0.05", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_repeated_value_rejected(self, tmp_path, capsys):
        # two members would share one directory; rejected before any worker
        code = cli.main(["sweep", "0.05", "0.05", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert not os.listdir(tmp_path)
        assert "must differ" in capsys.readouterr().err

    def test_out_of_range_member_rejected_before_any_member_runs(self, tmp_path,
                                                                  capsys):
        # 0.5 is outside (0, 0.2]: no member writes, the 0.05 one included
        code = cli.main(["sweep", "0.05", "0.5", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert not os.listdir(tmp_path)
        assert "lambda0 must lie in" in capsys.readouterr().err

    def test_member_directory_keeps_every_digit(self, tmp_path):
        # 0.05 and 0.05000001 print alike under :g and must not share lam0.05
        members = cli._sweep_members([0.05, 0.05000001, 0.025],
                                     cli.RunConfig(outdir=str(tmp_path)))
        assert [os.path.basename(m.outdir) for m in members] == [
            "lam0.05000001", "lam0.05", "lam0.025"]


class TestSweepIntegration:
    def test_two_member_sweep(self, tmp_path, capsys):
        cfg = cli.RunConfig(lambda_stop_factor=40.0, n_psi=1153,
                            n_physical=1537, ds_rel=0.02,
                            outdir=str(tmp_path / "sweep"))
        code = cli.run_sweep([0.04, 0.05], cfg)
        assert code == cli.EXIT_OK
        table = Path(cfg.outdir, "sweep.csv").read_text().splitlines()
        assert table[0] == "lambda0,x_star,x_star_over_lambda0_sq,exponent"
        assert len(table) == 3
        ratios = [float(r.split(",")[2]) for r in table[1:]]
        assert all(np.isfinite(ratios))
        # each member's simulate line reaches this process's stdout, largest
        # lambda0 first, before the table: the final lambdas decrease
        out = capsys.readouterr().out.splitlines()
        members = [line for line in out if line.startswith("simulate: ")]
        assert len(members) == 2
        assert out.index(members[-1]) < out.index(table[0])
        final = [float(line.split("to lambda = ")[1].split(",")[0])
                 for line in members]
        assert final[0] > final[1]

    def test_a_member_with_rejected_initial_data_keeps_the_sweep(self, tmp_path,
                                                                 capsys):
        # lambda0 = 0.1 with a negative perturbation has inflow curvature
        # above 1: that member exits 2 as its simulate would, with a nan row
        # and a line that names it, and the 0.05 member's row is kept
        cfg = cli.RunConfig(lambda_stop_factor=40.0, n_psi=1153,
                            n_physical=1537, ds_rel=0.02,
                            perturbation_amplitude=-0.01,
                            outdir=str(tmp_path / "sweep"))
        code = cli.run_sweep([0.05, 0.1], cfg)
        assert code == cli.EXIT_SOLVER
        out = capsys.readouterr().out
        assert ("sweep: lambda0 = 0.1: solver error: curvature exceeds 1 "
                "somewhere") in out.splitlines()
        table = Path(cfg.outdir, "sweep.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in table[1:]] == ["0.1", "0.05"]
        assert table[1] == "0.1,nan,nan,nan"
        assert all(np.isfinite([float(v) for v in table[2].split(",")]))
        assert os.path.exists(os.path.join(cfg.outdir, "lam0.05", "fit_report.json"))
        assert not os.path.exists(os.path.join(cfg.outdir, "lam0.1"))


class TestSolverFailurePath:
    def test_unreachable_stop_exits_2_with_partial_artifacts(self, tmp_path,
                                                             monkeypatch, capsys):
        # a stop threshold below the grid's wall resolution: the march ends
        # early with a recorded failure and keeps partial artifacts
        cfg = cli.RunConfig(lambda0=0.05, lambda_stop_factor=1e5,
                            n_psi=1153, n_physical=1537, ds_rel=0.02,
                            outdir=str(tmp_path / "fail"))
        calls, solve = [], cli.vm.solve_banded
        monkeypatch.setattr(cli.vm, "solve_banded",
                            lambda *args: calls.append(None) or solve(*args))
        code = cli.run_simulate(cfg)
        assert code == cli.EXIT_SOLVER
        # partial artifacts kept
        assert os.path.exists(os.path.join(cfg.outdir, "trajectory.csv"))
        manifest = _json(cfg.outdir, "manifest.json")
        assert not manifest["completed"]
        assert manifest["failure"]
        solves = _assert_line_counts_every_solve(cfg.outdir, manifest,
                                                 capsys.readouterr().out)
        assert solves == len(calls)
        # the snapshots that can be rescaled are audited; the late ones near
        # collapse are listed, and the summary line says the run stopped
        assert cli.main(["audit", cfg.outdir]) == cli.EXIT_SOLVER
        summary = _json(cfg.outdir, "audit_summary.json")
        audited = len(manifest["snapshots"]) - len(summary["failed_snapshots"])
        assert audited > 0 and summary["failed_snapshots"]
        assert len(summary["reports"]) == 3 * audited
        out = capsys.readouterr().out
        assert f"the manifest marks the run incomplete: {manifest['failure']}" in out

    def test_singular_solve_exits_2_with_partial_artifacts(self, quick_cfg,
                                                           monkeypatch, capsys):
        # LAPACK reports a zero pivot from the 40th tridiagonal solve on;
        # every solve asks the one binder for its gtsv, so a patched binder
        # stands in from the start
        lapack = cli.vm.gridfields.lapack
        calls = []

        def singular_from_40th(*args):
            calls.append(None)
            *out, info = lapack("dgtsv")(*args)
            return (*out, 2 if len(calls) >= 40 else info)

        monkeypatch.setattr(cli.vm.gridfields, "lapack", lambda name: (
            singular_from_40th if name == "dgtsv" else lapack(name)))
        assert cli.run_simulate(quick_cfg) == cli.EXIT_SOLVER
        assert os.path.exists(os.path.join(quick_cfg.outdir, "snapshots.npy"))
        manifest = _json(quick_cfg.outdir, "manifest.json")
        assert not manifest["completed"]
        assert "singular" in manifest["failure"]
        assert manifest["steps"] > 1
        # the failed solve is the failed step's last
        solves = _assert_line_counts_every_solve(quick_cfg.outdir, manifest,
                                                 capsys.readouterr().out)
        assert solves == len(calls) == 40
        assert manifest["failed_step"]["solves"] >= 1

    def test_singular_wall_fit_exits_2_with_partial_artifacts(self, quick_cfg,
                                                              monkeypatch, capsys):
        # LAPACK reports a rank-deficient wall-shear fit from the 20th fit
        # on: the window is unusable, and the march stops at that step
        lapack = cli.vm.gridfields.lapack
        calls = []

        def singular_from_20th(*args, **kwargs):
            calls.append(None)
            *out, info = lapack("dgels")(*args, **kwargs)
            return (*out, 1 if len(calls) >= 20 else info)

        monkeypatch.setattr(cli.vm.gridfields, "lapack", lambda name: (
            singular_from_20th if name == "dgels" else lapack(name)))
        assert cli.run_simulate(quick_cfg) == cli.EXIT_SOLVER
        manifest = _json(quick_cfg.outdir, "manifest.json")
        assert not manifest["completed"]
        assert manifest["failure"] == "wall window under-resolved in phi"
        assert manifest["steps"] == len(_trajectory_columns(quick_cfg.outdir)["x"]) > 1
        assert "solver stopped early" in capsys.readouterr().out


def _assert_line_counts_every_solve(outdir, manifest, line) -> int:
    """The solves on the summary line of a run that stopped early: the
    rows' and the failed step's, which the manifest records."""
    failed = manifest["failed_step"]
    assert failed is not None
    solves = int(line.split("; ")[-1].split(" solves, ", 1)[0])
    assert solves == _trajectory_columns(outdir)["solves"].sum() + failed["solves"]
    return solves


def _run_fresh(code: str):
    """The JSON value that a fresh interpreter, importing this checkout's
    prandtlsep, prints on the last line of its output after running ``code``."""
    src = os.path.dirname(os.path.dirname(prandtlsep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str, modules) -> list:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    return _run_fresh(f"import json, sys\n{code}\nprint(json.dumps(sorted("
                      f"m for m in {tuple(modules)!r} if m in sys.modules)))")


def test_benchmark_checks_read_the_cli_artifacts(tmp_path):
    # perfbench/worker.py checks every simulate and audit by the keys it
    # reads from their artifacts; a key the CLI no longer writes fails here.
    # The worker imports scipy.linalg, so it runs in a fresh interpreter
    cfg = cli.RunConfig(lambda0=0.05, lambda_stop_factor=50.0, n_psi=1153,
                        n_physical=1537, ds_rel=0.02, snapshots_per_decade=10.0,
                        outdir=str(tmp_path / "run"))
    assert cli.run_simulate(cfg) == cli.EXIT_OK
    assert cli.main(["audit", cfg.outdir]) in (cli.EXIT_OK, cli.EXIT_SOLVER)
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    (sim, sim_problems), (aud, _) = _run_fresh(
        f"import json, sys\nsys.path.insert(0, {perfbench!r})\nimport worker\n"
        f"print(json.dumps([worker.check_simulate({cfg.outdir!r}), "
        f"worker.check_audit({cfg.outdir!r})]))")
    assert sim_problems == []
    manifest = _json(cfg.outdir, "manifest.json")
    summary = _json(cfg.outdir, "audit_summary.json")
    assert sim["steps"] == manifest["steps"] > 50
    assert set(sim) == {"steps", "exponent", "residual", "x_star",
                        "x_star_over_lambda0_sq", "b_envelope"}
    # this coarse grid leaves snapshots that fail to rescale: their reports
    # are missing, which the audit check reports
    audited = len(manifest["snapshots"]) - len(summary["failed_snapshots"])
    assert aud["reports"] == 3 * audited
    assert aud["all_passed"] == summary["all_passed"]
    assert set(aud) == {"reports", "all_passed", "commutator_holds",
                        "resolved_samples"}


def test_cli_import_loads_neither_integrate_nor_optimize():
    # every subcommand pays for what importing the CLI loads: only the march,
    # the least-squares fits and the spline of simulate and audit call
    # LAPACK (scipy.linalg), only sweep starts processes, and no subcommand
    # integrates by quadrature
    assert _loaded_after("import prandtlsep.cli", (
        "scipy.integrate", "scipy.optimize", "scipy.linalg",
        "scipy.interpolate", "concurrent.futures.process")) == []


#: what neither simulate nor audit loads: the inflow root, the collapse fit
#: and the spline are the package's own, on scipy.linalg's LAPACK alone
_UNLOADED = ("scipy.optimize", "scipy.interpolate", "scipy.sparse")


def test_simulate_and_audit_load_neither_optimize_nor_interpolate(tmp_path):
    # each in its own interpreter: a simulate that fits the collapse law,
    # then an audit that splines every snapshot of its run
    outdir = str(tmp_path / "run")
    config = tmp_path / "run.cfg"
    config.write_text("lambda0 = 0.05\nn_psi = 1153\nn_physical = 1537\n"
                      "ds_rel = 0.02\nsnapshots_per_decade = 10.0\n"
                      f"outdir = {outdir}\n")
    simulate = ("from prandtlsep import cli\n"
                f"assert cli.main(['simulate', '--config', {str(config)!r}]) == 0")
    assert _loaded_after(simulate, _UNLOADED) == []
    assert "x_star" in _json(outdir, "fit_report.json")
    audit = ("from prandtlsep import cli\n"
             f"assert cli.main(['audit', {outdir!r}]) in (0, 2)")
    assert _loaded_after(audit, _UNLOADED) == []
    manifest = _json(outdir, "manifest.json")
    summary = _json(outdir, "audit_summary.json")
    assert len(summary["failed_snapshots"]) < len(manifest["snapshots"])


def test_verify_algebra_never_loads_lapack(tmp_path):
    code = ("from prandtlsep import cli\n"
            f"assert cli.main(['verify-algebra', '--outdir', {str(tmp_path)!r}]) == 0")
    assert _loaded_after(code, ("scipy.linalg",)) == []
