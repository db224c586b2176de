import numpy as np
import pytest

from prandtlsep import diagnostics as dg
from prandtlsep import modulation as md
from prandtlsep import profiles as pr
from prandtlsep import vonmises as vm


@pytest.fixture(scope="module")
def short_traj():
    data = pr.build_initial_data(0.05)
    cfg = vm.MarchConfig(lambda_stop=0.05 / 8.0)
    traj = vm.solve_until_separation(data, cfg)
    assert traj.completed
    return traj


@pytest.fixture(scope="module")
def frames(short_traj):
    return dg.build_frames(short_traj, n_grid=513)


class TestFrames:
    def test_modulation_attached(self, frames):
        assert len(frames) >= 5
        for fr in frames:
            assert 0.8 < fr.b * fr.s < 1.2
            assert 0.8 < fr.btilde * fr.s < 1.2

    def test_profiles_normalized(self, frames):
        for fr in frames:
            assert abs(fr.ctx.near_wall[0] - 1.0) < 1e-6
            assert fr.ctx.U.values[0] == 0.0

    def test_streamfunction_scaling(self, frames, short_traj):
        fr = frames[2]
        snap = short_traj.snapshots[2]
        assert np.allclose(fr.W_resc.values * snap.lam**4,
                           snap.state.W.values, atol=1e-30)

    def test_energy_reports_attached(self, frames):
        reported = [fr for fr in frames if fr.report is not None]
        assert reported
        for fr in reported:
            r = fr.report
            assert r.E1 >= 0 and r.E2 >= 0 and r.D1 >= 0


class TestAuditSuite:
    def test_all_pass_on_short_run(self, frames):
        suite = dg.run_audit_suite(frames)
        assert all(r.passed for r in suite.reports)
        assert suite.M2 >= 0.25
        assert suite.A_minus >= 2.0**-10

    def test_calibration_frozen_from_first_frame(self, frames):
        s1 = dg.run_audit_suite(frames)
        s2 = dg.run_audit_suite(frames)
        assert s1.M2 == s2.M2
        assert s1.A_minus == s2.A_minus and s1.A_plus == s2.A_plus


class TestCommutator:
    def test_pair_based_identity_runs(self, short_traj):
        b = md.compute_b(short_traj.x, short_traj.lam)
        snap = short_traj.snapshots[2]
        i = int(np.argmin(np.abs(short_traj.x - snap.x)))
        out = dg.commutator_identity_check(snap, vm.from_von_mises(snap.state),
                                           float(b[i]), n_grid=513)
        assert out["s_mid"] > short_traj.s0
        assert np.isfinite(out["relative_gap"])
        assert out["tolerance"] == pytest.approx(
            5.0 * (out["ds_over_s"] + out["h_rel"] ** 2))
