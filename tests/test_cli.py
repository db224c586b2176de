import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import prandtlsep
from prandtlsep import cli


def _quick_config(outdir) -> cli.RunConfig:
    # a short run: stop at lambda0/6 so the marching takes a few dozen steps
    return cli.RunConfig(lambda0=0.05, lambda_stop_factor=6.0,
                         n_psi=1153, n_physical=1537, ds_rel=0.02,
                         snapshots_per_decade=10.0, outdir=str(outdir))


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
                    {"x0_pressure": inf}, {"perturbation_amplitude": nan}):
            with pytest.raises(cli.ConfigError):
                cli.RunConfig(**bad).validate()

    def test_round_trip_through_file(self, tmp_path):
        cfg = cli.RunConfig(lambda0=0.04, n_psi=1537, ds_rel=0.01)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.canonical_text().replace(" = ", " = "))
        parsed = cli.RunConfig(**cli.parse_config_file(str(path)))
        assert parsed == cfg
        assert parsed.config_hash() == cfg.config_hash()

    def test_readme_config_block_lists_every_field(self):
        # the ini block of README.md documents every RunConfig field and no other key
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md")).read()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
                if line.split("#", 1)[0].strip()]
        assert sorted(keys) == sorted(f.name for f in cli.fields(cli.RunConfig))

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
                            ("--snapshots-per-decade", "-8"), ("--ds-rel", "nan"),
                            ("--x0-pressure", "inf"),
                            ("--perturbation-amplitude", "nan")):
            code = cli.main(["simulate", flag, value, "--outdir", str(tmp_path)])
            assert code == cli.EXIT_CONFIG, flag
            assert not os.listdir(tmp_path)
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("configuration error:")


class TestVerifyAlgebra:
    def test_fresh_build_passes(self, tmp_path):
        code = cli.main(["verify-algebra", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["all_passed"]
        names = " ".join(i["name"] for i in cert["identities"])
        assert "1/48" in names
        # d-coefficients are emitted with exact values
        assert any("d-coefficients" in i["name"] for i in cert["identities"])

    def test_tampered_coefficient_fails_naming_culprit(self, tmp_path, capsys):
        code = cli.main(["verify-algebra", "--outdir", str(tmp_path),
                         "--tamper", "a4"])
        assert code == cli.EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "U2" in out


class TestSimulateAndAudit:
    def test_end_to_end_short_run(self, quick_cfg, capsys):
        code = cli.run_simulate(quick_cfg)
        assert code == cli.EXIT_OK
        outdir = quick_cfg.outdir
        for name in ("trajectory.csv", "manifest.json", "fit_report.json",
                     "initial_data.csv", "snapshots.csv"):
            assert os.path.exists(os.path.join(outdir, name))
        # one snapshot table, not a file per snapshot
        assert not [f for f in os.listdir(outdir) if f.startswith("snapshot_")]
        manifest = json.loads(open(os.path.join(outdir, "manifest.json")).read())
        assert manifest["completed"]
        header = open(os.path.join(outdir, "snapshots.csv")).readline().strip()
        assert header.split(",") == manifest["columns"]["snapshots.csv"]
        assert header.split(",")[:3] == ["phi", "w_000", "w_000_pair"]
        assert manifest["config_hash"] == quick_cfg.config_hash()
        capsys.readouterr()
        code = cli.main(["audit", outdir])
        assert code == cli.EXIT_OK
        summary = json.loads(open(os.path.join(outdir, "audit_summary.json")).read())
        assert summary["all_passed"]
        # the summary line counts the ungated checks as the artifacts record them
        checks = summary["commutator_identity"]
        holds = sum(c.get("holds") is True for c in checks)
        resolved = np.loadtxt(os.path.join(outdir, "energies.csv"), delimiter=",",
                              skiprows=1, ndmin=2)[:, -1]
        out = capsys.readouterr().out
        assert f"commutator identity holds {holds}/{len(checks)}" in out
        assert f"energies resolved {int(resolved.sum())}/{len(resolved)}" in out

    def test_rerun_is_bit_identical(self, quick_cfg, tmp_path):
        cli.run_simulate(quick_cfg)
        again = cli.RunConfig(**{**{f.name: getattr(quick_cfg, f.name)
                                    for f in cli.fields(quick_cfg)},
                                 "outdir": str(tmp_path / "rerun")})
        cli.run_simulate(again)
        for name in ("trajectory.csv", "snapshots.csv"):
            first = open(os.path.join(quick_cfg.outdir, name), "rb").read()
            second = open(os.path.join(again.outdir, name), "rb").read()
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
        "non_numeric_csv", "ragged_csv", "missing_column",
        "unknown_config_key", "missing_config_key", "schema_version",
        "old_schema", "schema_2", "schema_3", "missing_s0",
        "missing_snapshot_key", "nan_value", "unsorted_phi",
        "truncated_snapshot", "short_snapshot", "empty_snapshots"])
    def test_broken_artifacts_exit_4(self, finished_run, tmp_path, damage, capsys):
        rundir = tmp_path / "run"
        shutil.copytree(finished_run, rundir)
        manifest_path = rundir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        snap = rundir / "snapshots.csv"
        header = snap.read_text().split("\n", 1)[0].split(",")
        if damage == "missing_snapshot":
            snap.unlink()
        elif damage == "missing_pair":
            snap.write_text(snap.read_text().replace(",w_003_pair,", ",v_003_pair,", 1))
        elif damage == "unreadable_snapshot":
            snap.unlink()
            snap.mkdir()
        elif damage == "non_numeric_csv":
            snap.write_text(snap.read_text().replace("\n0.0,", "\nzero,", 1))
        elif damage == "ragged_csv":
            (rundir / "trajectory.csv").write_text(
                (rundir / "trajectory.csv").read_text() + "1.0,2.0\n")
        elif damage == "missing_column":
            snap.write_text(snap.read_text().replace("phi,", "psi,", 1))
        elif damage == "unknown_config_key":
            manifest["config"]["no_such_key"] = 1
        elif damage == "missing_config_key":
            del manifest["config"]["n_rescaled"]
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
            manifest["snapshots"][2]["file"] = "snapshot_002.csv"
        elif damage == "missing_s0":
            del manifest["s0"]
        elif damage == "missing_snapshot_key":
            del manifest["snapshots"][2]["pair_lam"]
        elif damage == "empty_snapshots":
            manifest["snapshots"] = []
        elif damage in ("nan_value", "unsorted_phi", "truncated_snapshot",
                        "short_snapshot"):
            rows = snap.read_text().splitlines()
            if damage == "nan_value":
                cells = rows[10].split(",")
                cells[header.index("w_003")] = "nan"
                rows[10] = ",".join(cells)
            elif damage == "unsorted_phi":
                rows[10], rows[11] = rows[11], rows[10]
            elif damage == "truncated_snapshot":
                rows = rows[:40]   # 39 nodes, too few for a grid
            else:
                rows = rows[:201]  # 200 nodes: a valid grid, but not n_psi
            snap.write_text("\n".join(rows) + "\n")
        manifest_path.write_text(json.dumps(manifest))
        code = cli.main(["audit", str(rundir)])
        assert code == cli.EXIT_MISSING
        assert "audit:" in capsys.readouterr().out

    def test_audit_of_too_short_run_exits_2(self, tmp_path, capsys):
        # a completed run of a few steps is too short for the modulation rate
        cfg = cli.RunConfig(**{**{f.name: getattr(_quick_config(tmp_path), f.name)
                                  for f in cli.fields(cli.RunConfig)},
                               "lambda_stop_factor": 1.01,
                               "outdir": str(tmp_path / "short")})
        assert cli.run_simulate(cfg) == cli.EXIT_OK
        steps = json.loads(open(os.path.join(cfg.outdir, "manifest.json")).read())["steps"]
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
        assert len(traj.snapshots) == len(ref.snapshots) > 2
        assert np.array_equal(traj.psi_grid.nodes, ref.psi_grid.nodes)
        for got, want in zip(traj.snapshots, ref.snapshots):
            assert (got.index, got.s, got.pair_s) == (want.index, want.s, want.pair_s)
            for a, b in ((got.state, want.state), (got.pair_state, want.pair_state)):
                # one Grid shared by every loaded state, as in the march
                assert a.psi_grid is traj.psi_grid
                assert np.array_equal(a.W.values, b.W.values)
                assert (a.x, a.lam) == (b.x, b.lam)


class TestSweep:
    def test_needs_two_values(self, tmp_path):
        code = cli.main(["sweep", "0.05", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG


class TestSweepIntegration:
    def test_two_member_sweep(self, tmp_path):
        cfg = cli.RunConfig(lambda_stop_factor=40.0, n_psi=1153,
                            n_physical=1537, ds_rel=0.02,
                            outdir=str(tmp_path / "sweep"))
        code = cli.run_sweep([0.05, 0.04], cfg)
        assert code == cli.EXIT_OK
        table = open(os.path.join(cfg.outdir, "sweep.csv")).read().splitlines()
        assert table[0] == "lambda0,x_star,x_star_over_lambda0_sq,exponent"
        assert len(table) == 3
        ratios = [float(r.split(",")[2]) for r in table[1:]]
        assert all(np.isfinite(ratios))


class TestSolverFailurePath:
    def test_unreachable_stop_exits_2_with_partial_artifacts(self, tmp_path):
        # a stop threshold below the grid's wall resolution: the march ends
        # early with a recorded failure and keeps partial artifacts
        cfg = cli.RunConfig(lambda0=0.05, lambda_stop_factor=1e5,
                            n_psi=1153, n_physical=1537, ds_rel=0.02,
                            outdir=str(tmp_path / "fail"))
        code = cli.run_simulate(cfg)
        assert code == cli.EXIT_SOLVER
        # partial artifacts kept
        assert os.path.exists(os.path.join(cfg.outdir, "trajectory.csv"))
        manifest = json.loads(open(os.path.join(cfg.outdir, "manifest.json")).read())
        assert not manifest["completed"]
        assert manifest["failure"]

    def test_singular_solve_exits_2_with_partial_artifacts(self, quick_cfg,
                                                           monkeypatch):
        # LAPACK reports a zero pivot from the 40th tridiagonal solve on
        gtsv = cli.vm.dgtsv
        calls = []

        def singular_from_40th(*args):
            calls.append(None)
            *out, info = gtsv(*args)
            return (*out, 2 if len(calls) >= 40 else info)

        monkeypatch.setattr(cli.vm, "dgtsv", singular_from_40th)
        assert cli.run_simulate(quick_cfg) == cli.EXIT_SOLVER
        assert os.path.exists(os.path.join(quick_cfg.outdir, "snapshots.csv"))
        manifest = json.loads(open(os.path.join(quick_cfg.outdir,
                                                "manifest.json")).read())
        assert not manifest["completed"]
        assert "singular" in manifest["failure"]
        assert manifest["steps"] > 1


def test_cli_import_loads_neither_integrate_nor_optimize():
    # every subcommand pays for what importing the CLI loads; only simulate
    # fits (scipy.optimize) and no subcommand integrates by quadrature
    src = os.path.dirname(os.path.dirname(prandtlsep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, prandtlsep.cli; print(sorted(m for m in "
             "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
