from dataclasses import replace

import numpy as np
import pytest
import reference
import scipy.linalg
from reference import same_bits, uniform_grid

from prandtlsep import gridfields as gf
from prandtlsep import modulation as md
from prandtlsep import operators as ops
from prandtlsep import profiles as pr
from prandtlsep import vonmises as vm
from prandtlsep.errors import InvalidProfileError, StepFailureError
from prandtlsep.gridfields import Field, Grid, spline_interpolant


@pytest.fixture(scope="module")
def data05():
    return pr.build_initial_data(0.05)


@pytest.fixture(scope="module")
def short_traj(data05):
    cfg = vm.MarchConfig(lambda_stop=0.03)
    return vm.solve_until_separation(data05, cfg)


class TestTransforms:
    def test_linear_profile(self):
        # u = y: phi = y^2/2, w = y^2 = 2 phi
        g = uniform_grid(1025, 2.0)
        state = vm.to_von_mises(Field(g, g.nodes), x0_pressure=2.0)
        phi = state.psi_grid.nodes
        assert np.max(np.abs(state.W.values - 2.0 * phi)) < 1e-7

    def test_quadratic_profile(self):
        # u = y^2/2: phi = y^3/6, w = (6 phi)^(4/3)/4 exactly
        g = Grid.power_clustered(2049, 2.0, 2.0)
        state = vm.to_von_mises(Field(g, g.nodes**2 / 2), x0_pressure=2.0)
        phi = state.psi_grid.nodes[1:]
        expected = (6.0 * phi) ** (4.0 / 3.0) / 4.0
        rel = np.abs(state.W.values[1:] - expected) / expected
        assert np.max(rel[phi > 1e-9]) < 1e-3    # 4/3-power cusp at the wall
        assert np.max(rel[phi > 1e-4]) < 1e-5

    def test_round_trip(self, data05):
        state = vm.to_von_mises(data05.u0, x0_pressure=1.0)
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
        grid = md.standard_rescaled_grid(s, 641)

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
        state = vm.VMState(x=0.0, psi_grid=psi, W=Field(psi, u_of(Y_exact)**2),
                           lam=1.0, x0_pressure=1.0)
        u = vm.from_von_mises(state)
        rel = np.abs(u.grid.nodes[1:] - Y_exact[1:]) / Y_exact[1:]
        assert np.max(rel) < 5e-9

        U = md.rescale_profile(u, 1.0, grid)
        ctx = ops.OperatorContext.from_profile(U)
        Y = grid.nodes
        near = (Y > 0.05) & (Y <= 0.2)
        assert np.max(np.abs(ctx.U_YY.values - (1 - b * Y**2 / 4))[near]) < 1e-9
        D = ops.op_diffusion(ctx, fit=ops.CHAIN_FITS[0]).values
        window = (Y >= 0.5) & (Y <= 2.0)
        assert np.max(np.abs(D + b * Y / 2)[window]) < 1e-8

    def test_monotonicity_required(self):
        g = uniform_grid(256, 2.0)
        u = np.sin(3 * g.nodes)
        with pytest.raises(InvalidProfileError):
            vm.to_von_mises(Field(g, u))

    def test_wall_shear_estimate(self, data05):
        state = vm.to_von_mises(data05.u0, x0_pressure=1.0)
        assert abs(state.lam - 0.05) / 0.05 < 2e-3


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
            assert vm.wall_shear(st) == reference.wall_shear_full_y(st)
        # the full-y reference calls with m None; every windowed call is short
        windowed = [m for m in prefixes if m is not None]
        assert len(windowed) >= len(states)
        assert max(windowed) < len(short_traj.psi_grid) // 2

    def test_fallback_to_full_y_when_the_bound_never_passes(self, short_traj,
                                                            monkeypatch):
        # a guess whose y_cap lies past every phi_k/sqrt(w_k) but inside the
        # grid's y span: the bound finds no prefix, the whole grid is used
        st = short_traj.snapshots[-1].state
        phi = st.psi_grid.nodes
        w = vm._wall_restore(phi, st.W.values)
        y_end = vm._normal_coordinate(st.psi_grid, w)[-1]
        bound_max = np.max(phi[1:] / np.sqrt(w[1:]))
        assert bound_max < y_end
        y_cap = 0.5 * (bound_max + y_end)
        guess = replace(st, lam=(4.0 * y_cap) ** 3)
        prefixes = self._spy_prefixes(monkeypatch)
        assert vm.wall_shear(guess) == reference.wall_shear_full_y(guess)
        assert prefixes[0] is None


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
        builds = self._builds(monkeypatch, vm, "_d2_weights")
        w = grid.nodes ** 0.75
        for _ in range(2):
            vm._resolvent_solve(grid, w, np.sqrt(w), 1e-6, w[-1])
        assert len(builds) == 1
        assert self._frozen(grid, "d2_weights") and self._frozen(grid, "spacings")
        assert vm._spacings(grid)[2] is vm._spacings(grid)[2]

    def test_normal_coordinate_weights_built_once_per_grid(self, monkeypatch):
        grid = vm.default_psi_grid(3.0, 2305)
        builds = self._builds(monkeypatch, vm, "_normal_coordinate_weights")
        w = 2.0 * grid.nodes + grid.nodes ** 1.5
        full = vm._normal_coordinate(grid, w)
        assert same_bits(vm._normal_coordinate(grid, w, 640), full[:640])
        assert len(builds) == 1
        assert self._frozen(grid, "normal_coordinate")

    def test_diff_stencils_built_once_per_grid(self, monkeypatch):
        grid = Grid.power_clustered(641, 40.0, 5.0)
        builds = self._builds(monkeypatch, gf, "fd_weights")
        for order in (1, 2, 3, 1, 2, 3):
            grid.apply_diff(np.sin(grid.nodes), order)
        assert [args[2] for args in builds] == [1, 2, 3]
        assert all(self._frozen(grid, order) for order in (1, 2, 3))

    def test_cached_spacings_give_the_inline_formula(self, short_traj):
        st = short_traj.snapshots[-1].state
        assert same_bits(vm.f_roundoff_floor(st), reference.f_roundoff_floor(st))


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
        vm.solve_until_separation(data05, vm.MarchConfig(n_psi=n_psi, max_steps=3))
        assert len(systems) > 6
        for ab, rhs in systems:
            assert len(rhs) == n_psi
            assert same_bits(solve(ab, rhs),
                             scipy.linalg.solve_banded((1, 1), ab, rhs))

    def test_nonfinite_entry_fails_the_step(self):
        ab, rhs = self._system()
        rhs[7] = np.nan
        with pytest.raises(StepFailureError, match="non-finite"):
            vm.solve_banded(ab, rhs)

    def test_zero_pivot_fails_the_step(self):
        ab, rhs = self._system()
        ab[1, 0] = ab[2, 0] = 0.0     # first column zero
        with pytest.raises(StepFailureError, match="singular"):
            vm.solve_banded(ab, rhs)


class TestDiffusionBalance:
    def test_self_similar_region_balances(self):
        # u = y^2/2 has sqrt(w) w_phiphi = 2 exactly
        g = Grid.power_clustered(2049, 3.0, 2.0)
        state = vm.to_von_mises(Field(g, g.nodes**2 / 2), x0_pressure=4.0)
        F = vm.compute_F(state.W).values
        trusted = vm.trusted_F_mask(state)
        inner = trusted & (state.psi_grid.nodes < 2.0)
        assert np.max(np.abs(F[inner])) < 2e-3

    def test_wall_value_is_zero(self, data05):
        state = vm.to_von_mises(data05.u0, x0_pressure=1.0)
        assert vm.compute_F(state.W).values[0] == 0.0

    def test_far_field_approaches_minus_two(self, data05):
        state = vm.to_von_mises(data05.u0, x0_pressure=1.0)
        F = vm.compute_F(state.W).values
        assert abs(F[-2] + 2.0) < 1e-2


class TestMarch:
    def test_step_consistency_with_balance(self, data05):
        # one small step must move w by dx * (sqrt(w) w_phiphi - 2)
        state = vm.to_von_mises(data05.u0, x0_pressure=1.0)
        cfg = vm.MarchConfig(lambda_stop=1e-9)
        dx = 1e-8
        new = vm.march_step(state, dx, cfg)
        F = vm.compute_F(state.W).values
        trusted = vm.trusted_F_mask(state)
        dw_rate = (new.W.values - state.W.values) / dx
        sel = trusted & (state.psi_grid.nodes > 1e-3) \
            & (state.psi_grid.nodes < 0.9 * state.psi_grid.span)
        err = np.abs(dw_rate[sel] - F[sel])
        assert np.max(err) / np.max(np.abs(F[sel])) < 0.05

    def test_monotonicity_preserved(self, short_traj):
        assert short_traj.mono_min.min() >= -1e-9

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
        assert [snap.index for snap in snaps] == list(range(len(snaps)))
        for snap in snaps:
            i = int(np.nonzero(short_traj.x == snap.x)[0][0])
            assert snap.pair_state.x == short_traj.x[i + 1]
            assert (snap.s, snap.pair_s) == (short_traj.s[i], short_traj.s[i + 1])
            assert snap.lam == short_traj.lam[i] == snap.state.lam
            assert snap.state.psi_grid is snap.pair_state.psi_grid \
                is short_traj.psi_grid

    def test_far_field_consistency(self, short_traj):
        snap = short_traj.snapshots[-1]
        far = snap.state.far_target()
        assert abs(snap.state.W.values[-1] - far) / far < 1e-3

    def test_two_shear_estimators_agree(self, short_traj):
        snap = short_traj.snapshots[-1]
        u = vm.from_von_mises(snap.state)
        y = u.grid.nodes
        hi = 0.6 * snap.lam
        idx = np.nonzero((y > 0) & (y <= hi))[0]
        cols = np.stack([y[idx] ** p for p in (1, 2, 3, 4)], axis=1)
        norms = np.linalg.norm(cols, axis=0)
        sol, *_ = np.linalg.lstsq(cols / norms, u.values[idx], rcond=None)
        lam_fit = sol[0] / norms[0]
        assert abs(snap.lam - lam_fit) / lam_fit < 0.02


class TestZeroSource:
    def test_flat_outer_flow_does_not_separate(self, data05):
        cfg = vm.MarchConfig(source_scale=0.0, lambda_stop=1e-6,
                             dx_init=5e-4, max_steps=300)
        traj = vm.solve_until_separation(data05, cfg)
        assert traj.lam.min() >= 0.5 * data05.lambda0
        assert traj.lam[-1] >= traj.lam[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            vm.MarchConfig(dx_init=vm.DX_MIN)
        with pytest.raises(ValueError):
            vm.MarchConfig(lambda_stop=0.0)


class TestRefinement:
    def test_shear_history_converges_under_refinement(self, data05):
        # coarse vs refined vs doubly-refined shear histories at fixed x:
        # overall order >= 1 in the (dx, h) pair
        histories = []
        for factor in (1.0, 2.0, 4.0):
            cfg = vm.MarchConfig(lambda_stop=0.05 / 8.0,
                                 ds_rel=0.016 / factor,
                                 n_psi=int(1152 * np.sqrt(factor)) + 1)
            traj = vm.solve_until_separation(data05, cfg)
            histories.append((traj.x, traj.lam))
        x_probe = np.linspace(0.2, 0.8, 7) * min(h[0][-1] for h in histories)
        vals = [np.interp(x_probe, x, lam) for x, lam in histories]
        err_coarse = np.max(np.abs(vals[0] - vals[2]))
        err_fine = np.max(np.abs(vals[1] - vals[2]))
        assert err_fine < err_coarse
        assert err_coarse / max(err_fine, 1e-15) >= 2.0 ** 0.9
