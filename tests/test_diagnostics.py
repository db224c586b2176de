import types
from dataclasses import replace

import numpy as np
import pytest
import first_gap as fg
import uapp_pairs as up
from reference import inflow_data, inflow_grid

from prandtlsep import diagnostics as dg
from prandtlsep import modulation as md
from prandtlsep import profiles as pr
from prandtlsep import vonmises as vm
from prandtlsep.cli import RunConfig
from prandtlsep.errors import SingularInputError
from prandtlsep.gridfields import Field, spline_interpolant
from prandtlsep.operators import OperatorContext


@pytest.fixture(scope="module")
def short_traj():
    data = inflow_data(0.05)
    traj = vm.solve_until_separation(data, RunConfig(lambda_stop_factor=8.0))
    assert traj.completed
    return traj


@pytest.fixture(scope="module")
def audited(short_traj):
    """The frames of the short run, with what the pass handed on and then
    dropped: each snapshot's full-resolution wall-unit context, by shear,
    and the rescaled w that each balance check read, by slow time."""
    contexts, balance = {}, {}
    rescale = dg.rescale_snapshot_profile
    sub, bounds = dg.au.subsolution_audit, dg.au.F_bound_audit

    def keep_context(u_at, lam, grid):
        ctx = rescale(u_at, lam, grid)
        if len(grid) == 513:   # the pair states' rescales come after
            contexts.setdefault(lam, ctx)
        return ctx

    def keep_sub(W, s, *args):
        balance.setdefault(s, []).append(W)
        return sub(W, s, *args)

    def keep_bounds(W, F, s, *args, **kwargs):
        balance.setdefault(s, []).append(W)
        return bounds(W, F, s, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dg, "rescale_snapshot_profile", keep_context)
        patch.setattr(dg.au, "subsolution_audit", keep_sub)
        patch.setattr(dg.au, "F_bound_audit", keep_bounds)
        frames = dg.build_frames(short_traj, 513)
    return frames, contexts, balance


@pytest.fixture(scope="module")
def frames(audited):
    return audited[0]


class TestFrames:
    def test_modulation_attached(self, frames):
        assert len(frames) >= 5
        for fr in frames:
            assert 0.8 < fr.b * fr.s < 1.2
            assert 0.8 < fr.btilde * fr.s < 1.2

    def test_profiles_normalized(self, audited):
        frames, contexts, _ = audited
        assert all(fr.failure is None for fr in frames)
        for fr in frames:
            ctx = contexts[fr.lam]
            assert abs(ctx.near_wall[0] - 1.0) < 1e-6
            assert ctx.U.values[0] == 0.0

    def test_streamfunction_scaling(self, audited, short_traj):
        # both balance checks of a snapshot read its w / lam**4
        frames, _, balance = audited
        fr = frames[2]
        snap = short_traj.snapshots[2]
        assert len(balance[fr.s]) == 2
        for W in balance[fr.s]:
            assert np.allclose(W.values * snap.state.lam**4,
                               snap.state.W.values, atol=1e-30)

    def test_energy_reports_attached(self, frames):
        reported = [fr for fr in frames if fr.report is not None]
        assert reported
        for fr in reported:
            r = fr.report
            assert r.E1 >= 0 and r.E2 >= 0 and r.D1 >= 0


class TestResolved:
    """The resolved flag recomputes E0, E1, E2 on every other node of the
    frame's n wall-unit nodes, n // 2 + 1 of them, one chain stage at a
    time, and stops at the first that moves."""

    @staticmethod
    def _frame(u_at, state, b, n):
        # the frame's context, corrector and report
        ctx, V = dg._wall_unit_corrector(u_at, state, b, n)
        return ctx, V, dg.en.energy_report(ctx, V, state.s, b, -b * b)

    @staticmethod
    def _spy_linv(monkeypatch, fail_at=None):
        # the node count of every op_Linv call of the chain, raising on
        # call number ``fail_at``
        calls, linv = [], dg.en.op_Linv

        def counted(ctx, *args):
            calls.append(len(ctx.grid))
            if len(calls) == fail_at:
                raise SingularInputError("planted")
            return linv(ctx, *args)

        monkeypatch.setattr(dg.en, "op_Linv", counted)
        return calls

    @staticmethod
    def _smooth_profile(s, b):
        # U_app plus the smooth corrector 1e-3 Y**7 exp(-Y), in wall units
        def u_at(y):
            return pr.eval_uapp(s, b, y) + 1e-3 * y**7 * np.exp(-y)

        u_at.span = 1e3
        return u_at, types.SimpleNamespace(s=s, lam=1.0)

    @pytest.mark.parametrize("position, first_moved", [(0, 1), (1, 0)])
    def test_no_stage_past_the_first_energy_that_moves(
            self, short_traj, monkeypatch, position, first_moved):
        # the inflow's E1 moves by a factor 3 on every other node, snapshot
        # 1's E0 by 30%: the check runs no subsampled op_Linv past that stage
        snap = short_traj.snapshots[position]
        b = float(md.compute_b(short_traj.x, short_traj.lam)[snap.station])
        u_at = spline_interpolant(vm.from_von_mises(snap.state))
        ctx, V, report = self._frame(u_at, snap.state, b, 513)
        grid, idx = md.subsampled_rescaled_grid(ctx.grid)
        coarse = OperatorContext.from_profile(Field(grid, ctx.U.values[idx]))
        half = [E for E, *_ in dg.en.energy_chain(
            coarse, Field(grid, V.values[idx]), snap.state.s)]
        moved = [abs(a - c) > 0.10 * max(a, c)
                 for a, c in zip((report.E0, report.E1, report.E2), half)]
        assert moved.index(True) == first_moved
        calls = self._spy_linv(monkeypatch)
        assert not dg.energies_resolved(report, ctx, V, snap.state.s)
        assert calls == [257] * first_moved

    def test_a_smooth_corrector_runs_every_stage_and_is_resolved(self, monkeypatch):
        u_at, state = self._smooth_profile(500.0, 2e-3)
        ctx, V, report = self._frame(u_at, state, 2e-3, 513)
        calls = self._spy_linv(monkeypatch)
        assert dg.energies_resolved(report, ctx, V, state.s)
        assert calls == [257, 257]

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_a_stage_that_raises_leaves_the_energies_unresolved(
            self, monkeypatch, fail_at):
        u_at, state = self._smooth_profile(500.0, 2e-3)
        ctx, V, report = self._frame(u_at, state, 2e-3, 513)
        calls = self._spy_linv(monkeypatch, fail_at)
        assert not dg.energies_resolved(report, ctx, V, state.s)
        assert calls == [257] * fail_at

    @pytest.mark.parametrize("n", [513, 641, 640, 127, 126])
    def test_the_subsampled_grid_is_every_other_node(self, n):
        # nodes 0, 2, 4, .. and the last: n // 2 + 1 of them, the frame
        # grid's own, and one unit grid's scaled copy for every frame of n
        # nodes; for odd n they are the nodes of the (n + 1)/2-node
        # standard grid of the same span up to roundoff
        s, reach = 2.7e4, 40.0
        frame = md.standard_rescaled_grid(s, n, reach)
        grid, idx = md.subsampled_rescaled_grid(frame)
        assert len(grid) == n // 2 + 1
        assert np.array_equal(idx[:-1], np.arange(0, n - 1, 2))
        assert idx[-1] == n - 1
        assert np.array_equal(grid.nodes, frame.nodes[idx])
        assert grid.span == frame.span
        again, _ = md.subsampled_rescaled_grid(md.standard_rescaled_grid(2 * s, n, reach))
        assert grid._unit is not None and again._unit is grid._unit
        if n % 2:
            direct = md.standard_rescaled_grid(s, n // 2 + 1, reach)
            assert np.allclose(grid.nodes, direct.nodes, rtol=4 * np.finfo(float).eps,
                               atol=0.0)


class TestRepresentationRoundTrip:
    @pytest.mark.parametrize("s", [7.2e2, 2.7e4, 5.3e5])
    def test_wall_curvature_of_the_approximate_solution(self, s):
        # u(y) = lam**2 U_app(y/lam) at lam = s**-1/2, through the path of
        # a marched snapshot: streamfunction state at the march's n_psi,
        # inverse map, spline, wall-unit rescaling; its U_YY matches
        # U_app's on the same grid (measured 4e-11, 7e-10 and 3e-8)
        lam = s**-0.5
        g = inflow_grid()
        u = Field(g, lam**2 * pr.eval_uapp(s, 1.0 / s, g.nodes / lam))
        state = vm.to_von_mises(u, lam, s, n_psi=RunConfig.n_psi)
        u_at = spline_interpolant(vm.from_von_mises(state))
        grid = md.standard_rescaled_grid(s, 641, reach=u_at.span / lam)
        ctx = dg.rescale_snapshot_profile(u_at, lam, grid)
        exact = OperatorContext.from_profile(
            Field(grid, pr.eval_uapp(s, 1.0 / s, grid.nodes)))
        Y = grid.nodes
        window = (Y >= 0.25) & (Y <= 2.0)
        gap = np.abs(ctx.U_YY.values - exact.U_YY.values)[window]
        assert gap.max() < 1e-7


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

    def test_sandwich_checks_wait_for_their_amplitudes(self, frames, short_traj,
                                                       monkeypatch):
        # the first two snapshots are asked whether their sandwich floor
        # lies inside their span, and answered no, so the third calibrates
        # the amplitudes; the two before it are checked against them once
        # known, and every frame keeps its reports in the suite's order
        early, asked = {fr.btilde for fr in frames[:2]}, set()
        floor = dg.au.sandwich_floor

        def unreachable_once(bt):
            if bt in early - asked:
                asked.add(bt)
                return np.inf
            return floor(bt)

        monkeypatch.setattr(dg.au, "sandwich_floor", unreachable_once)
        late = dg.build_frames(short_traj, 513)
        assert asked == early
        suite = dg.run_audit_suite(late)
        assert [sorted(fr.calibrated) for fr in late[:3]] == [
            ["M0", "M1", "M2", "alpha"], [], ["A_minus", "A_plus"]]
        W = dg._rescaled_W(short_traj.snapshots[2].state)
        assert (suite.A_minus, suite.A_plus) == dg.au.calibrate_A(W, late[2].btilde)
        assert suite.M2 == dg.run_audit_suite(frames).M2
        for fr in late:
            assert [r.name for r in fr.checks] == [
                "max-principle", "sub-super-solutions", "diffusion-balance-bounds"]
            assert fr.checks[1].details["A_minus"] == suite.A_minus
        for fr, snap in zip(late[:2], short_traj.snapshots):
            W = dg._rescaled_W(snap.state)
            assert fr.checks[1] == dg.au.subsolution_audit(
                W, fr.s, fr.b, fr.btilde, suite.A_minus, suite.A_plus)
        assert suite.reports == [r for fr in late for r in fr.checks]


class TestSplineOracle:
    @staticmethod
    def _assert_scipys(u, lam, s):
        # at the nodes, between them and on the audit's wall-unit grid, the
        # package's spline is make_interp_spline(k=5) to 1e-13 relative
        from scipy.interpolate import make_interp_spline

        y = u.grid.nodes
        walls = lam * md.standard_rescaled_grid(s, 641, reach=u.grid.span / lam).nodes
        q = np.sort(np.concatenate([y, 0.5 * (y[1:] + y[:-1]), walls]))
        ref = make_interp_spline(y, u.values, k=5)(q)
        ours = spline_interpolant(u)(q)
        inside = q > 0.0
        assert np.all(np.abs(ours - ref)[inside] <= 1e-13 * np.abs(ref[inside]))
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_marched_states(self, short_traj):
        for snap in short_traj.snapshots:
            for state in (snap.state, snap.pair_state):
                self._assert_scipys(vm.from_von_mises(state), state.lam, state.s)

    @pytest.mark.parametrize("s", [7.2e2, 2.7e4, 5.3e5])
    def test_late_states(self, s):
        # the approximate solution's states, as in the round trip above, out
        # to s ~ 5e5 where the march's wall layer is thinnest
        lam = s**-0.5
        g = inflow_grid()
        u = Field(g, lam**2 * pr.eval_uapp(s, 1.0 / s, g.nodes / lam))
        state = vm.to_von_mises(u, lam, s, n_psi=RunConfig.n_psi)
        self._assert_scipys(vm.from_von_mises(state), lam, s)


class TestCommutator:
    def test_pair_based_identity_runs(self, short_traj):
        snap = short_traj.snapshots[2]
        b = float(md.compute_b(short_traj.x, short_traj.lam)[snap.station])
        ctx, _ = dg._wall_unit_corrector(
            spline_interpolant(vm.from_von_mises(snap.state)), snap.state, b, 513)
        out = dg.commutator_identity_check(ctx, snap, b)
        assert out["s_mid"] > short_traj.s[0]
        assert np.isfinite(out["relative_gap"])
        assert out["tolerance"] == pytest.approx(
            5.0 * (out["ds_over_s"] + out["h_rel"] ** 2))

    @pytest.mark.parametrize("n, checked", [(2, []), (3, [1]), (4, [1, 2]),
                                            (5, [1, 2, 3])])
    def test_the_checked_pairs_are_criterion_6s(self, short_traj, n, checked,
                                                monkeypatch):
        # of n snapshots, those at positions 1, n // 2 and n - 2 that lie in
        # 1 .. n - 2 check their pair, whose state is rescaled onto the
        # grid of the snapshot's own frame
        grids, rescale = {}, dg.rescale_snapshot_profile

        def kept(u_at, lam, grid):
            grids[lam] = grid
            return rescale(u_at, lam, grid)

        monkeypatch.setattr(dg, "rescale_snapshot_profile", kept)
        traj = replace(short_traj, snapshots=short_traj.snapshots[:n])
        frames = dg.build_frames(traj, 513)
        assert [fr.index for fr in frames if fr.commutator is not None] == checked
        for p in checked:
            state, pair = traj.snapshots[p].state, traj.snapshots[p].pair_state
            assert frames[p].commutator["s_mid"] == 0.5 * (state.s + pair.s)
            assert grids[pair.lam] is grids[state.lam]
        assert len(grids) == n + len(checked)

    # known answers on pairs of the approximate solution (tests/uapp_pairs.py,
    # whose script prints them), at the first checked pair of a default
    # run, a middle one and the latest; the tolerance is 0.0403 to 0.0405

    @pytest.mark.parametrize("s1", up.S_FIRST)
    def test_approximate_solution_closes_the_identity(self, s1):
        # measured 2.14e-5, 2.03e-5 and 1.93e-5
        out = up.uapp_pair_gap(s1)
        assert out["relative_gap"] < 1e-3 and out["holds"]

    @pytest.mark.parametrize("s1", up.S_FIRST)
    @pytest.mark.parametrize("kwargs", [kwargs for _, kwargs in up.CASES])
    def test_the_gap_bounds_the_gap_of_the_window_maxima(self, s1, kwargs):
        # max|lhs| and max|rhs| are the maxima that the gap compares:
        # they differ by at most max|lhs - rhs| = relative_gap max|rhs|
        out = up.uapp_pair_gap(s1, **kwargs)
        assert out["max_rhs"] > 0.0
        assert (abs(out["max_lhs"] - out["max_rhs"])
                <= out["relative_gap"] * out["max_rhs"])

    @pytest.mark.parametrize("s1", up.S_FIRST)
    def test_a_rate_off_by_2_5_percent_shows_as_its_error(self, s1):
        # measured 0.0249, 0.0250 and 0.0250: a gap of the size of b's error
        gap = up.uapp_pair_gap(s1, b_factor=up.B_FACTOR)["relative_gap"]
        assert 0.02 <= gap <= 0.03

    @pytest.mark.parametrize("s1", up.S_FIRST)
    def test_a_static_profile_error_fails_the_check(self, s1):
        # measured 0.267, 1.15 and 1.007
        out = up.uapp_pair_gap(s1, delta=up.DELTA)
        assert out["relative_gap"] > out["tolerance"] and not out["holds"]

    def test_first_checked_pair_misses_the_curvature_by_1e_4(self):
        # the first checked pair of the default run (tests/first_gap.py,
        # whose script prints it against n_psi): the marched U_YY of both
        # states and of their mean misses 1 - bY^2/4 by about 1e-4
        row = fg.first_pair_row(2305)
        assert row["s_mid"] == pytest.approx(722.3, abs=0.1)
        assert all(5e-5 < miss < 2e-4 for miss in row["U_YY_miss"])
        assert np.isfinite(row["gap"]) and np.isfinite(row["d_ds_off_uapp"])
        # the gap's left side is U_app's (5.412e-3 against 5.392e-3 and
        # 5.412e-3); its denominator, the marched max|rhs|, reads 1.087e-2
        assert row["max_lhs"] == pytest.approx(row["uapp_max_rhs"], rel=1e-3)
        assert row["uapp_max_lhs"] == pytest.approx(row["uapp_max_rhs"], rel=1e-2)
        assert row["max_rhs"] == pytest.approx(1.087e-2, rel=1e-3)
