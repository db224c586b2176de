from dataclasses import replace

import numpy as np
import pytest
import reference
import scipy.linalg
from forcings import collapse_errors, flat_outer_flow
from reference import inflow_data, same_bits, uniform_grid
from step_cost import step_calls

from prandtlsep import diagnostics as dg
from prandtlsep import gridfields as gf
from prandtlsep import modulation as md
from prandtlsep import operators as ops
from prandtlsep import vonmises as vm
from prandtlsep.cli import RunConfig
from prandtlsep.errors import (InvalidProfileError, InvalidStateError,
                              StepFailureError)
from prandtlsep.gridfields import Field, Grid, spline_interpolant


def w_max(state) -> float:
    """The largest w of a state: the scale ``vm.march_step`` is handed."""
    return float(state.W.values.max())


def shear(state) -> float:
    """``vm.wall_shear`` of a state, on its w with the wall law restored
    and its window centred on the state's own shear."""
    w = vm._wall_restore(state.W.grid.nodes, state.W.values)
    return vm.wall_shear(state.W.grid, w, state.lam)


@pytest.fixture(scope="module")
def data05():
    return inflow_data(0.05)


@pytest.fixture(scope="module")
def short_traj(data05):
    # lambda_stop 0.05 / (5/3) = 0.03
    return vm.solve_until_separation(data05, RunConfig(lambda_stop_factor=5.0 / 3.0))


class TestTransforms:
    def test_linear_profile(self):
        # u = y: phi = y^2/2, w = y^2 = 2 phi
        g = uniform_grid(1025, 2.0)
        state = vm.to_von_mises(Field(g, g.nodes), 1.0, 1.0, n_psi=1153)
        phi = state.W.grid.nodes
        assert np.max(np.abs(state.W.values - 2.0 * phi)) < 1e-7

    def test_quadratic_profile(self):
        # u = y^2/2: phi = y^3/6, w = (6 phi)^(4/3)/4 exactly
        g = Grid.power_clustered(2049, 2.0, 2.0)
        state = vm.to_von_mises(Field(g, g.nodes**2 / 2), 0.0, 1.0, n_psi=1153)
        phi = state.W.grid.nodes[1:]
        expected = (6.0 * phi) ** (4.0 / 3.0) / 4.0
        rel = np.abs(state.W.values[1:] - expected) / expected
        assert np.max(rel[phi > 1e-9]) < 1e-3    # 4/3-power cusp at the wall
        assert np.max(rel[phi > 1e-4]) < 1e-5

    def test_round_trip(self, data05):
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        u_back = vm.from_von_mises(state)
        ref = spline_interpolant(data05.u0)(
            np.clip(u_back.grid.nodes, 0, data05.grid.span))
        assert np.max(np.abs(u_back.values - ref)) < 1e-5

    def test_wall_layer_round_trip_on_exact_profile(self):
        # U = Y + Y^2/2 - b Y^4/48 in wall units on the march's power-5 phi
        # grid: w ~ 2 phi + O(phi^(3/2)) at the wall, where a quadrature in
        # phi loses five digits of y(phi) and 1e-3 of the curvature
        s = 25199.0
        b = 1.0 / s
        grid = md.standard_rescaled_grid(s, 641, reach=np.inf)

        def u_of(Y):
            return Y + Y**2 / 2 - b * Y**4 / 48

        def phi_of(Y):
            return Y**2 / 2 + Y**3 / 6 - b * Y**5 / 240

        psi = vm.default_psi_grid(phi_of(1.1 * grid.span), 2305)
        phi = psi.nodes
        Y_exact = np.minimum(np.sqrt(2 * phi), np.cbrt(6 * phi))
        for _ in range(60):   # Newton from above: monotone convergence
            Y_exact = Y_exact - (phi_of(Y_exact) - phi) / np.maximum(
                u_of(Y_exact), 1e-300)
        state = vm.VMState(x=0.0, s=s, W=Field(psi, u_of(Y_exact)**2), lam=1.0)
        u = vm.from_von_mises(state)
        rel = np.abs(u.grid.nodes[1:] - Y_exact[1:]) / Y_exact[1:]
        assert np.max(rel) < 5e-9

        ctx = dg.rescale_snapshot_profile(spline_interpolant(u), 1.0, grid)
        Y = grid.nodes
        near = (Y > 0.05) & (Y <= 0.2)
        assert np.max(np.abs(ctx.U_YY.values - (1 - b * Y**2 / 4))[near]) < 1e-9
        D = ops.op_diffusion(ctx, fit=ops.CHAIN_FITS[0]).values
        window = (Y >= 0.5) & (Y <= 2.0)
        assert np.max(np.abs(D + b * Y / 2)[window]) < 1e-8

    def test_inversion_refuses_a_normal_coordinate_that_does_not_increase(
            self, data05):
        # a first cell of w at 1e-300 passes the positivity test, but
        # 1/sqrt(w) there swamps every later cell of y(phi)
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        w = state.W.values.copy()
        w[1] = 1e-300
        with pytest.raises(InvalidStateError, match="does not increase"):
            vm.from_von_mises(replace(state, W=Field(state.W.grid, w)))

    def test_monotonicity_required(self):
        g = uniform_grid(256, 2.0)
        u = np.sin(3 * g.nodes)
        with pytest.raises(InvalidProfileError):
            vm.to_von_mises(Field(g, u), 3.0, 1.0, n_psi=1153)

    def test_wall_shear_estimate(self, data05):
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        assert abs(shear(state) - 0.05) / 0.05 < 2e-3


class TestWallShearWindow:
    @staticmethod
    def _spy_prefixes(monkeypatch):
        # the node count m of every normal-coordinate call (None: whole grid)
        prefixes = []
        normal_coordinate = vm._normal_coordinate

        def spy(grid, w, m=None):
            prefixes.append(m)
            return normal_coordinate(grid, w, m)

        monkeypatch.setattr(vm, "_normal_coordinate", spy)
        return prefixes

    def test_prefix_equals_full_y_on_every_snapshot(self, short_traj, monkeypatch):
        prefixes = self._spy_prefixes(monkeypatch)
        states = [st for snap in short_traj.snapshots
                  for st in (snap.state, snap.pair_state)]
        assert len(states) > 2
        for st in states:
            assert shear(st) == reference.wall_shear_full_y(st)
        # the full-y reference calls with m None; every windowed call is short
        windowed = [m for m in prefixes if m is not None]
        assert len(windowed) >= len(states)
        assert max(windowed) < len(short_traj.psi_grid) // 2

    @staticmethod
    def _guess_at(st, y_cap):
        # a state whose shear guess puts the fit window's end at y_cap
        return replace(st, lam=(4.0 * y_cap) ** 3)

    def test_fallback_to_full_y_when_the_estimate_never_passes(self, short_traj,
                                                               monkeypatch):
        # a y_cap past every wall estimate 2 phi_k/sqrt(w_k): no prefix is
        # tried, the whole grid is used
        st = short_traj.snapshots[-1].state
        phi = st.W.grid.nodes
        w = vm._wall_restore(phi, st.W.values)
        guess = self._guess_at(st, 1.01 * np.max(2.0 * phi[1:] / np.sqrt(w[1:])))
        prefixes = self._spy_prefixes(monkeypatch)
        assert shear(guess) == reference.wall_shear_full_y(guess)
        assert prefixes[0] is None

    def test_fallback_to_full_y_when_the_prefix_falls_short(self, short_traj,
                                                            monkeypatch):
        # far from the wall w tends to a constant and 2 phi/sqrt(w) runs
        # ahead of y, so a y_cap near the grid's end gets a prefix that
        # ends before it: that prefix is dropped for the whole grid
        st = short_traj.snapshots[-1].state
        w = vm._wall_restore(st.W.grid.nodes, st.W.values)
        y_end = vm._normal_coordinate(st.W.grid, w)[-1]
        guess = self._guess_at(st, 0.95 * y_end)
        prefixes = self._spy_prefixes(monkeypatch)
        assert shear(guess) == reference.wall_shear_full_y(guess)
        assert prefixes[0] is not None and prefixes[1] is None

    def test_prefix_covers_the_window_on_the_default_march(self, monkeypatch):
        # on the default march every wall-shear call's prefix reaches y_cap,
        # so the whole-grid fallback never runs, and no prefix spans a fifth
        # of the grid (the bound phi/sqrt(w) <= y took 576-640 nodes here).
        # Every station past the inflow, whose shear is lambda0, is estimated
        calls = self._spy_prefixes(monkeypatch)
        monkeypatch.setattr(vm, "MAX_STEPS", 200)
        traj = vm.solve_until_separation(inflow_data(0.05), RunConfig())
        assert len(calls) >= len(traj.x) - 1 and None not in calls
        assert max(calls) < 0.2 * len(traj.psi_grid)


class TestGridCaches:
    @staticmethod
    def _builds(monkeypatch, owner, name) -> list:
        """Arguments of every call of ``owner.name`` from now on."""
        calls = []
        build = getattr(owner, name)

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(owner, name, spy)
        return calls

    @staticmethod
    def _frozen(grid, key) -> bool:
        # a cache hit never calls the builder, so None stands in for it
        value = grid.cached(key, None)
        arrays = value if isinstance(value, tuple) else (value,)
        return all(not arr.flags.writeable for arr in arrays)

    def test_d2_weights_built_once_per_grid(self, monkeypatch):
        grid = vm.default_psi_grid(3.0, 2305)
        builds = self._builds(monkeypatch, vm, "_build_three_point")
        w = grid.nodes ** 0.75
        buffers = vm._march_buffers(len(grid))
        for _ in range(2):
            vm._resolvent_solve(grid, w, np.sqrt(w), 1e-6, w[-1], buffers)
        vm.compute_F(Field(grid, w), float(w.max()))
        assert [args[1] for args in builds] == [2]
        assert self._frozen(grid, ("three_point", 2))

    def test_march_builds_its_stencils_once_per_grid(self, data05, monkeypatch):
        # a fresh phi grid asks fd_weights for the second and first
        # differences, the Gauss-point interpolation and the wall
        # extrapolation; the next step and the per-step record ask for none
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        builds = self._builds(monkeypatch, gf, "fd_weights")
        forcing, buffers = vm.adverse_outer_flow, vm._march_buffers(1153)
        first, *_ = vm.march_step(state, 1e-6, forcing, (), buffers, w_max(state))
        assert sorted(args[2] for args in builds) == [0, 0, 1, 2]
        vm.march_step(first, 1e-6, forcing, ((state.W.values, 1e-6),), buffers,
                      w_max(first))
        vm.trusted_F_mask(vm.compute_F(first.W, w_max(first))[1])
        assert len(builds) == 4

    def test_normal_coordinate_weights_built_once_per_grid(self, monkeypatch):
        grid = vm.default_psi_grid(3.0, 2305)
        builds = self._builds(monkeypatch, vm, "_normal_coordinate_weights")
        w = 2.0 * grid.nodes + grid.nodes ** 1.5
        full = vm._normal_coordinate(grid, w)
        assert same_bits(vm._normal_coordinate(grid, w, 640), full[:640])
        assert len(builds) == 1
        assert self._frozen(grid, "normal_coordinate")

    def test_roundoff_gain_built_once_per_grid(self, monkeypatch):
        grid = vm.default_psi_grid(3.0, 2305)
        builds = self._builds(monkeypatch, vm, "_d2_gain")
        phi = grid.nodes
        state = vm.VMState(x=0.0, s=1.0, W=Field(grid, 2.0 * phi + phi**1.5), lam=1.0)
        first = vm.compute_F(state.W, w_max(state))[1]
        vm.trusted_F_mask(first)
        assert same_bits(vm.compute_F(state.W, w_max(state))[1], first)
        assert len(builds) == 1
        assert self._frozen(grid, "d2_gain")

    def test_diff_stencils_built_once_per_grid(self, monkeypatch):
        grid = Grid.power_clustered(641, 40.0, 5.0)
        builds = self._builds(monkeypatch, gf, "fd_weights")
        for order in (1, 2, 3, 1, 2, 3):
            grid.apply_diff(np.sin(grid.nodes), order)
        assert [args[2] for args in builds] == [1, 2, 3]
        assert all(self._frozen(grid, order) for order in (1, 2, 3))

    @pytest.mark.parametrize("n_psi", [1153, 9217])
    def test_stencil_weights_match_the_closed_forms(self, n_psi):
        # each weight within 1e-15 of the largest weight magnitude of its
        # stencil: the centre weight of the first difference is a
        # cancellation hm - hp, which neither form resolves to more digits
        grid = vm.default_psi_grid(3.0, n_psi)
        phi = grid.nodes

        def close(got, ref):
            scale = np.max(np.abs(ref), axis=-1, keepdims=True)
            return got.shape == ref.shape and np.all(np.abs(got - ref) <= 1e-15 * scale)

        for order in (1, 2):
            assert close(vm._three_point_weights(grid, order).T,
                         reference.three_point_weights(phi, order).T)
        h, stencils, lag, wall = vm._normal_coordinate_weights(grid)
        t = np.sqrt(phi)
        pts = t[:-1, None] + h[:, None] * vm._GAUSS3_T[None, :]
        assert close(lag, reference.gauss_interpolation_weights(
            t, stencils[:, 0], pts))
        assert close(wall, reference.wall_extrapolation_weights(t))
        state = vm.VMState(x=0.0, s=1.0, W=Field(grid, 2.0 * phi + phi**1.5), lam=1.0)
        got = vm.compute_F(state.W, w_max(state))[1][:-1]
        ref = reference.f_roundoff_floor(state)[:-1]
        assert np.all(np.abs(got - ref) <= 1e-15 * ref)


class TestTridiagonalSolve:
    @staticmethod
    def _system(n=64):
        ab = np.zeros((3, n))
        ab[0, 1:] = 1.0
        ab[1] = 4.0
        ab[2, :-1] = 1.0
        return ab, np.linspace(0.0, 1.0, n)

    @pytest.mark.parametrize("n_psi", [2305, 4609])
    def test_equals_scipy_bit_for_bit(self, data05, n_psi, monkeypatch):
        # the equilibrated systems of the march's first steps, start-up included
        systems = []
        solve = vm.solve_banded

        def keep(ab, rhs):
            systems.append((ab.copy(), rhs.copy()))
            return solve(ab, rhs)

        monkeypatch.setattr(vm, "solve_banded", keep)
        monkeypatch.setattr(vm, "MAX_STEPS", 3)
        vm.solve_until_separation(data05, RunConfig(n_psi=n_psi))
        assert len(systems) > 6
        for ab, rhs in systems:
            assert len(rhs) == n_psi
            assert same_bits(solve(ab, rhs),
                             scipy.linalg.solve_banded((1, 1), ab, rhs))

    def test_reused_buffers_give_the_fresh_band(self, data05, monkeypatch):
        # every Picard sweep of the march's first steps refills the buffers
        # that the sweep before it left behind
        solves = []
        resolvent = vm._resolvent_solve

        def keep(grid, rhs, coeff, tau, far_value, buffers):
            out = resolvent(grid, rhs, coeff, tau, far_value, buffers)
            solves.append((grid, rhs.copy(), coeff.copy(), tau, far_value,
                           out.copy()))
            return out

        monkeypatch.setattr(vm, "_resolvent_solve", keep)
        monkeypatch.setattr(vm, "MAX_STEPS", 3)
        vm.solve_until_separation(data05, RunConfig())
        assert len(solves) > 6
        for grid, rhs, coeff, tau, far_value, out in solves:
            assert same_bits(out, reference.resolvent_solve(grid, rhs, coeff,
                                                            tau, far_value))

    def test_nonfinite_entry_fails_the_step(self):
        ab, rhs = self._system()
        rhs[7] = np.nan
        with pytest.raises(StepFailureError, match="non-finite"):
            vm.solve_banded(ab, rhs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["coeff", "rhs"])
    def test_nonfinite_coefficient_or_rhs_fails_the_step(self, where, value):
        # the march's solve checks the diagonal it fills and the right-hand
        # side, not the whole band
        grid = vm.default_psi_grid(3.0, 1153)
        w = grid.nodes ** 0.75
        inputs = {"rhs": w.copy(), "coeff": np.sqrt(w)}
        inputs[where][7] = value
        with pytest.raises(StepFailureError, match="non-finite"):
            vm._resolvent_solve(grid, inputs["rhs"], inputs["coeff"], 1e-6,
                                w[-1], vm._march_buffers(len(grid)))

    def test_zero_pivot_fails_the_step(self):
        ab, rhs = self._system()
        ab[1, 0] = ab[2, 0] = 0.0     # first column zero
        with pytest.raises(StepFailureError, match="singular"):
            vm.solve_banded(ab, rhs)


class TestStepCost:
    def test_package_frames_per_step(self):
        # the frames that each march step enters in the package, over the 30
        # steps after the start-up of a 1153-node march: a one-sweep step
        # enters 17 (march_step, the forcing, _bdf2_solve, _milne_ratio,
        # the Field's two, wall_shear with its one lookup and estimate,
        # _normal_coordinate with its one lookup, lstsq_powers,
        # slow_time_increment, and one sweep's _wall_restore,
        # _resolvent_solve with its one lookup, and solve_banded), each
        # further sweep 4 more, and the second march step, which has no
        # quadratic start, no _milne_ratio
        counts = step_calls(1153, 31)
        package = [frames for _, frames, _ in counts]
        assert len(package) == 30
        assert package[:6] == [32, 37, 33, 29, 25, 21]
        assert sum(package) == 681


class TestDiffusionBalance:
    def test_self_similar_region_balances(self):
        # u = y^2/2 has sqrt(w) w_phiphi = 2 exactly
        g = Grid.power_clustered(2049, 3.0, 2.0)
        state = vm.to_von_mises(Field(g, g.nodes**2 / 2), 0.0, 1.0, n_psi=1153)
        F, floor = vm.compute_F(state.W, w_max(state))
        trusted = vm.trusted_F_mask(floor)
        inner = trusted & (state.W.grid.nodes < 2.0)
        assert np.max(np.abs(F[inner])) < 2e-3

    def test_wall_value_is_zero(self, data05):
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        assert vm.compute_F(state.W, w_max(state))[0][0] == 0.0

    def test_far_field_approaches_minus_two(self, data05):
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        F = vm.compute_F(state.W, w_max(state))[0]
        assert abs(F[-2] + 2.0) < 1e-2


class TestMarch:
    def test_step_consistency_with_balance(self, data05):
        # one small step must move w by dx * (sqrt(w) w_phiphi - 2)
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        dx = 1e-8
        new, *_ = vm.march_step(state, dx, vm.adverse_outer_flow, (),
                                vm._march_buffers(1153), w_max(state))
        # the slow-time clock: the trapezoid rule on the two stations' shears,
        # not the first-order rule on the old one
        dx_taken = new.x - state.x
        assert new.s == state.s + 0.5 * dx_taken * (state.lam**-4 + new.lam**-4)
        assert new.s != state.s + dx_taken / state.lam**4
        F, floor = vm.compute_F(state.W, w_max(state))
        trusted = vm.trusted_F_mask(floor)
        dw_rate = (new.W.values - state.W.values) / dx
        sel = trusted & (state.W.grid.nodes > 1e-3) \
            & (state.W.grid.nodes < 0.9 * state.W.grid.span)
        err = np.abs(dw_rate[sel] - F[sel])
        assert np.max(err) / np.max(np.abs(F[sel])) < 0.05

    def test_pair_steps_are_half_steps(self, short_traj):
        # the step that makes a snapshot's pair is taken at ds_rel / 2, so its
        # ds/s, which sets the commutator check's tolerance, is half a
        # regular step's.  With dx = CFL lam_old**4 ds_rel s and the clock
        # ds = dx (lam_old**-4 + lam**-4) / 2, ds/s divided by the trapezoid
        # factor is CFL ds_rel, or half of it, to roundoff
        traj = short_traj
        pairs = np.array([snap.station for snap in traj.snapshots])
        assert len(pairs) >= 2 and not traj.halvings.any()
        half = np.isin(np.arange(len(traj.x) - 1), pairs)
        ds_over_s = np.diff(traj.s) / traj.s[:-1]
        trapezoid = 0.5 * (1.0 + (traj.lam[:-1] / traj.lam[1:]) ** 4)
        np.testing.assert_allclose(
            ds_over_s / trapezoid,
            vm.CFL_SAFETY * RunConfig.ds_rel * np.where(half, 0.5, 1.0),
            rtol=1e-12)
        late = pairs[pairs > 0]
        np.testing.assert_allclose(ds_over_s[late] / ds_over_s[late - 1], 0.5,
                                   rtol=0.02)

    @pytest.mark.parametrize("h, h_prev, h_older", [
        (1.0, 1.0, 1.0), (1.0, 2.0, 0.5), (0.5, 1.0, 3.0), (2.0, 0.7, 1.3)])
    def test_milne_ratio_is_exact_on_a_cubic(self, h, h_prev, h_older):
        # on y = x**3, y' = 3 x**2 (third derivative constant, f free of y),
        # the quadratic extrapolation and the variable-step BDF2 step each
        # miss y by exactly their error constant times h**3: the ratio turns
        # the gap between them into the BDF2 step's error, 2/11 of it at a
        # constant step
        x = 0.3 + np.cumsum([0.0, h_older, h_prev, h])
        y = x**3
        start = np.polyval(np.polyfit(x[:3], y[:3], 2), x[3])
        om = h / h_prev
        alpha = (1.0 + 2.0 * om) / (1.0 + om)
        step = ((1.0 + om) * y[2] - om * om / (1.0 + om) * y[1]
                + h * 3.0 * x[3] ** 2) / alpha
        ratio = vm._milne_ratio(h, h_prev, h_older)
        assert ratio * abs(step - start) == pytest.approx(abs(y[3] - step),
                                                          rel=1e-9)
        if h == h_prev == h_older:
            assert ratio == pytest.approx(2.0 / 11.0, rel=1e-15)

    def test_step_error_is_the_scaled_gap_to_the_quadratic_start(self, data05):
        # three constant steps from the inflow: the third's start is
        # 3 w_2 - 3 w_1 + w_0, and its step_error is 2/11 of the converged
        # state's gap to it, relative to max w; the start-up step and the
        # second step have no quadratic start
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        h = 2e-5
        ws, errors, prev = [state.W.values], [], ()
        for _ in range(3):
            new, *_, error = vm.march_step(state, h, vm.adverse_outer_flow,
                                           prev, vm._march_buffers(1153),
                                           w_max(state))
            prev = ((state.W.values, h),) + prev[:1]
            state = new
            ws.append(state.W.values)
            errors.append(error)
        assert np.isnan(errors[:2]).all()
        gap = np.max(np.abs(ws[3] - (3.0 * ws[2] - 3.0 * ws[1] + ws[0])))
        assert errors[2] == pytest.approx(2.0 / 11.0 * gap / np.max(ws[2]),
                                          rel=1e-6)

    def test_extrapolated_start_reaches_the_old_fixed_point(self, data05,
                                                            monkeypatch):
        # Picard started from the extrapolated state and from the old station
        # converges to the same BDF2 step: on each of 20 stations, from the
        # same inputs, the two agree within 1e-11 max w, and the
        # extrapolated start takes fewer solves.  From the third step on the
        # start is the quadratic through three stations, which also takes
        # fewer solves than the linear start through two (prev[:1])
        gaps, sweeps, linear = [], [], []
        solve = vm._bdf2_solve

        def both(grid, w_n, prev, h, far_value, source, scale, buffers):
            out = solve(grid, w_n, prev, h, far_value, source, scale, buffers)
            old = reference.bdf2_solve(grid, w_n, prev, h, far_value, source,
                                       scale, extrapolate=False)
            gaps.append(float(np.max(np.abs(out[0] - old[0]))) / scale)
            sweeps.append((out[1], old[1]))
            if len(prev) == 2:
                two = solve(grid, w_n, prev[:1], h, far_value, source, scale,
                            buffers)
                linear.append((out[1], two[1]))
            return out

        monkeypatch.setattr(vm, "_bdf2_solve", both)
        monkeypatch.setattr(vm, "MAX_STEPS", 20)
        vm.solve_until_separation(data05, RunConfig())
        assert len(gaps) == 20
        assert max(gaps) <= 1e-11
        assert sweeps[0][0] == sweeps[0][1]          # the start-up step
        assert sum(new for new, _ in sweeps) < sum(old for _, old in sweeps)
        assert len(linear) == 18
        assert sum(new for new, _ in linear) < sum(two for _, two in linear)

    def test_each_row_counts_its_steps_solves_and_halvings(self, data05,
                                                           monkeypatch):
        # the fourth solve call returns w with a bump at the far edge: that
        # step loses monotonicity once, halves dx and solves again, and its
        # row carries both attempts' sweeps and one halving
        sweeps = []
        solve = vm._bdf2_solve

        def bumped(grid, w_n, prev, h, far_value, source, scale, buffers):
            w, n, converged, error = solve(grid, w_n, prev, h, far_value,
                                           source, scale, buffers)
            sweeps.append(n)
            if len(sweeps) == 4:
                w = w.copy()
                w[-2] = 2.0 * w[-1]
            return w, n, converged, error

        monkeypatch.setattr(vm, "_bdf2_solve", bumped)
        monkeypatch.setattr(vm, "MAX_STEPS", 6)
        traj = vm.solve_until_separation(data05, RunConfig())
        assert len(traj.x) == 7 and len(sweeps) == 7
        assert traj.solves.tolist() == [0] + sweeps[:3] + [sweeps[3] + sweeps[4]] \
            + sweeps[5:]
        assert traj.halvings.tolist() == [0, 0, 0, 0, 1, 0, 0]
        assert traj.solves.sum() == sum(sweeps)
        assert not traj.short.any()
        # the step cap ends the run between steps: no step failed
        assert traj.failure == "max_steps exhausted"
        assert traj.failed_step == {"solves": 0, "halvings": 0}

    def test_clamped_head_takes_the_wall_law_in_the_shear_read(self, data05,
                                                                monkeypatch):
        # a solve that leaves the first three cells after the wall negative:
        # the step clamps them to 0 and keeps them so in the new state, and
        # the wall shear reads the w of _wall_restore, from the count of
        # clamped cells that the floor test made
        solve, shear_of, reads = vm._bdf2_solve, vm.wall_shear, []

        def dipped(*args):
            w, *rest = solve(*args)
            w[1:4] = -1e-30
            return (w, *rest)

        def spy(grid, w, guess):
            reads.append(w)
            return shear_of(grid, w, guess)

        monkeypatch.setattr(vm, "_bdf2_solve", dipped)
        monkeypatch.setattr(vm, "wall_shear", spy)
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        new, *_ = vm.march_step(state, 1e-6, vm.adverse_outer_flow, (),
                                vm._march_buffers(1153), w_max(state))
        w = new.W.values
        assert (w[1:4] == 0.0).all() and w[4] > 0.0
        (read,) = reads
        restored = vm._wall_restore(state.W.grid.nodes, w)
        assert same_bits(read, restored) and not same_bits(read, w)
        assert new.lam == shear_of(state.W.grid, restored, state.lam)

    def test_bdf2_solve_equals_plain_expressions_bit_for_bit(self, data05,
                                                              monkeypatch):
        # the in-place arithmetic on the march's buffers gives what the plain
        # array expressions give, on the start-up, the linear-start and the
        # quadratic-start steps alike.  The quadratic-start steps include
        # multi-sweep ones, whose gap to the start is taken anew, and, from
        # row 84 on, one-sweep ones, whose gap is that sweep's move
        results = []
        solve = vm._bdf2_solve

        def both(grid, w_n, prev, h, far_value, source, scale, buffers):
            out = solve(grid, w_n, prev, h, far_value, source, scale, buffers)
            results.append((len(prev), out, reference.bdf2_solve(
                grid, w_n, prev, h, far_value, source, scale)))
            return out

        monkeypatch.setattr(vm, "_bdf2_solve", both)
        monkeypatch.setattr(vm, "MAX_STEPS", 90)
        vm.solve_until_separation(data05, RunConfig(n_psi=1153))
        assert [n for n, *_ in results] == [0, 1] + [2] * 88
        sweeps = {out[1] for n, out, _ in results if n == 2}
        assert 1 in sweeps and max(sweeps) > 1
        for _, (w, *counts), (w_ref, *counts_ref) in results:
            assert same_bits(w, w_ref)
            assert same_bits(np.array(counts), np.array(counts_ref))

    def test_work_arrays_built_once_and_no_station_shares_them(self, data05,
                                                               monkeypatch):
        # one allocation of the work arrays per march; every station a step
        # reads or makes, those in prev included, is read-only, apart from
        # the others and from the work arrays, and stays as it was made
        allocations, steps = [], []
        allocate, step = vm._march_buffers, vm.march_step

        def spy_allocate(n):
            allocations.append(allocate(n))
            return allocations[-1]

        def spy_step(state, dx, forcing, prev, buffers, scale):
            out = step(state, dx, forcing, prev, buffers, scale)
            steps.append(([state.W.values, out[0].W.values]
                          + [w for w, _ in prev], out[0].W.values.copy()))
            return out

        monkeypatch.setattr(vm, "_march_buffers", spy_allocate)
        monkeypatch.setattr(vm, "march_step", spy_step)
        monkeypatch.setattr(vm, "MAX_STEPS", 30)
        traj = vm.solve_until_separation(data05, RunConfig(n_psi=1153))
        assert len(allocations) == 1 and len(steps) == 30
        assert len(traj.psi_grid) == 1153
        work = allocations[0]
        assert [len(stations) for stations, _ in steps[:3]] == [2, 3, 4]
        for stations, _ in steps:
            for k, w in enumerate(stations):
                assert not w.flags.writeable
                assert not any(np.shares_memory(w, buf) for buf in work)
                assert not any(np.shares_memory(w, other)
                               for other in stations[k + 1:])
        for stations, made in steps:
            assert same_bits(stations[1], made)

    @staticmethod
    def _audit_F_max(state) -> float:
        F, floor = vm.compute_F(state.W, w_max(state))
        trusted = vm.trusted_F_mask(floor)
        return np.max(F[trusted]) if trusted.any() else np.nan

    def test_F_max_column_is_the_audit_F_path(self, short_traj, data05,
                                              monkeypatch):
        # the record's one compute_F pass over each state gives the max of F
        # over trusted_F_mask, the F that the audit reads, bit for bit
        traj = short_traj
        assert traj.snapshots
        for snap in traj.snapshots:
            for state, row in ((snap.state, snap.station),
                               (snap.pair_state, snap.station + 1)):
                assert same_bits(traj.F_max[row], self._audit_F_max(state))
        # every row's pass reads the max of w that the step handed on: the
        # state's own max bit for bit, and one pass per row
        passes = []
        compute_F = vm.compute_F

        def spy(W, w_max_):
            passes.append((W, w_max_))
            return compute_F(W, w_max_)

        monkeypatch.setattr(vm, "compute_F", spy)
        monkeypatch.setattr(vm, "MAX_STEPS", 30)
        traj = vm.solve_until_separation(data05, RunConfig(n_psi=1153))
        marched = passes[:]
        assert len(marched) == len(traj.x) == 31
        for row, (W, handed_on) in enumerate(marched):
            assert same_bits(handed_on, W.values.max())
            state = vm.VMState(x=traj.x[row], s=traj.s[row], W=W, lam=traj.lam[row])
            assert same_bits(traj.F_max[row], self._audit_F_max(state))

    def test_monotonicity_preserved(self, short_traj):
        # every kept state is non-decreasing in phi to the roundoff tolerance
        # of the march's step acceptance
        assert short_traj.snapshots
        for snap in short_traj.snapshots:
            for state in (snap.state, snap.pair_state):
                w = state.W.values
                assert np.min(np.diff(w)) >= -vm.MONO_TOL_FACTOR * np.max(w)

    def test_balance_stays_nonpositive(self, short_traj):
        assert np.nanmax(short_traj.F_max) <= 1e-6

    def test_shear_decreases_under_adverse_gradient(self, short_traj):
        lam = short_traj.lam
        assert lam[-1] < lam[0]
        # monotone trend up to estimator noise
        assert np.sum(np.diff(lam) > 1e-6 * lam[0]) == 0

    def test_every_snapshot_is_a_marching_pair(self, short_traj):
        # each snapshot's pair is the next accepted station, on the same grid
        snaps = short_traj.snapshots
        for snap in snaps:
            i = snap.station
            for state, row in ((snap.state, i), (snap.pair_state, i + 1)):
                assert (state.x, state.s, state.lam) == (
                    short_traj.x[row], short_traj.s[row], short_traj.lam[row])
            assert snap.state.W.grid is snap.pair_state.W.grid \
                is short_traj.psi_grid

    def test_far_field_consistency(self, short_traj):
        # the march carries the far edge from the inflow's own value by
        # d(w_far)/dx = -2: it stays on u_E**2 = 2 (1 - x) to roundoff
        for snap in short_traj.snapshots:
            far = 2.0 * (1.0 - snap.state.x)
            assert abs(snap.state.W.values[-1] - far) / far < 1e-13

    def test_two_shear_estimators_agree(self, short_traj):
        snap = short_traj.snapshots[-1]
        u = vm.from_von_mises(snap.state)
        y = u.grid.nodes
        hi = 0.6 * snap.state.lam
        idx = np.nonzero((y > 0) & (y <= hi))[0]
        lam_fit = reference.lstsq_powers_svd(y[idx], u.values[idx], (1, 2, 3, 4))[0]
        assert abs(snap.state.lam - lam_fit) / lam_fit < 0.02


class TestZeroSource:
    def test_flat_outer_flow_does_not_separate(self, data05, monkeypatch):
        monkeypatch.setattr(vm, "DX_MAX", 5e-4)
        monkeypatch.setattr(vm, "MAX_STEPS", 300)
        traj = vm.solve_until_separation(data05, RunConfig(lambda_stop_factor=5e4),
                                         flat_outer_flow)
        assert traj.lam.min() >= 0.5 * data05.lambda0
        assert traj.lam[-1] >= traj.lam[0]

    def test_flat_outer_flow_keeps_the_far_edge(self, data05):
        # with no source the far value is the old edge value, bit for bit,
        # and the step is taken whole: the far value and the source term
        # come from one forcing
        state = vm.to_von_mises(data05.u0, data05.lambda0, data05.s0, n_psi=1153)
        new, *_ = vm.march_step(state, 1e-5, flat_outer_flow, (),
                                vm._march_buffers(1153), w_max(state))
        assert new.x == 1e-5
        assert same_bits(new.W.values[-1], state.W.values[-1])


class TestConfig:
    def test_validation(self, data05):
        assert vm.DX_MIN < vm.DX_MAX
        with pytest.raises(ValueError):
            vm.solve_until_separation(data05, RunConfig(lambda0=0.0))


class TestManufacturedCollapse:
    def test_march_meets_the_exact_collapse(self):
        # the manufactured collapse (tests/forcings.py) at n_psi 1153 and
        # 2305: the collapse law is exact to 1e-3, and the march's x* and
        # curvature errors fall at least 3x per doubling (4x measured)
        coarse, fine = (collapse_errors(n_psi) for n_psi in (1153, 2305))
        for errors in (coarse, fine):
            assert abs(errors["exponent"] - 0.5) <= 1e-3
            assert abs(errors["bs_median"] - 1.0) <= 1e-3
        assert abs(fine["x_star_error"]) <= 1e-3
        for key in ("x_star_error", "uyy_miss"):
            assert abs(coarse[key]) >= 3.0 * abs(fine[key])


class TestRefinement:
    def test_shear_history_converges_under_refinement(self, data05):
        # coarse vs refined vs doubly-refined shear histories at fixed x:
        # overall order >= 1 in the (dx, h) pair
        histories = []
        for factor in (1.0, 2.0, 4.0):
            cfg = RunConfig(lambda_stop_factor=8.0, ds_rel=0.016 / factor,
                            n_psi=int(1152 * np.sqrt(factor)) + 1)
            traj = vm.solve_until_separation(data05, cfg)
            histories.append((traj.x, traj.lam))
        x_probe = np.linspace(0.2, 0.8, 7) * min(h[0][-1] for h in histories)
        vals = [np.interp(x_probe, x, lam) for x, lam in histories]
        err_coarse = np.max(np.abs(vals[0] - vals[2]))
        err_fine = np.max(np.abs(vals[1] - vals[2]))
        assert err_fine < err_coarse
        assert err_coarse / max(err_fine, 1e-15) >= 2.0 ** 0.9
