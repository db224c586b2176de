import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import fit_singularity_lm, inflow_data

from prandtlsep import diagnostics as dg
from prandtlsep import modulation as md
from prandtlsep.cli import RunConfig
from prandtlsep.errors import (DomainError, FitFailureError,
                               InconsistentLambdaError, InvalidProfileError)
from prandtlsep.gridfields import Field, Grid, spline_interpolant


class TestModulationRate:
    def test_synthetic_inverse_law(self):
        s0 = 100.0
        ss = np.geomspace(s0, 1e5, 2000)
        lam = 0.05 * (s0 / ss) ** 0.5
        x = np.concatenate([[0.0], np.cumsum(
            0.5 * (lam[1:] ** 4 + lam[:-1] ** 4) * np.diff(ss))])
        b = md.compute_b(x, lam)
        # window-clamped endpoint samples carry larger slope error
        assert np.max(np.abs(b * ss - 1.0)[5:-5]) < 5e-4

    def test_constant_shear_gives_zero(self):
        x = np.linspace(0, 1, 100)
        b = md.compute_b(x, np.full_like(x, 0.3))
        assert np.max(np.abs(b)) < 1e-14

    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            md.compute_b(np.linspace(0, 1, 3), np.ones(3))

    def test_robust_to_single_glitch(self):
        s0 = 100.0
        ss = np.geomspace(s0, 1e4, 1000)
        lam = 0.05 * (s0 / ss) ** 0.5
        lam[500] *= 1.002  # single-sample estimator glitch
        x = np.concatenate([[0.0], np.cumsum(
            0.5 * (lam[1:] ** 4 + lam[:-1] ** 4) * np.diff(ss))])
        b = md.compute_b(x, lam)
        assert np.max(np.abs(b * ss - 1.0)[5:-5]) < 0.02


    def test_matches_per_window_theil_sen(self):
        rng = np.random.default_rng(7)
        x = np.cumsum(rng.uniform(0.5, 1.5, 60))
        lam = np.exp(-0.01 * x) * (1.0 + 1e-3 * rng.standard_normal(60))
        window = md.B_WINDOW
        assert window == 7
        half = window // 2
        ref = np.empty(len(x))
        for i in range(len(x)):
            lo = max(0, min(i - half, len(x) - window))
            pts = range(lo, lo + window)
            ref[i] = np.median([(lam[a] - lam[c]) / (x[a] - x[c])
                                for a, c in itertools.combinations(pts, 2)])
        assert np.array_equal(md.compute_b(x, lam), -2.0 * ref * lam**3)


class TestLocalSlope:
    def test_matches_per_sample_loop(self):
        # the vectorised slope repeats the per-sample arithmetic exactly
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.uniform(0.5, 1.5, 40))
        f = np.sin(0.1 * x) + 1e-3 * rng.standard_normal(40)
        ref = np.empty(len(x))
        for i in range(len(x)):
            lo = max(0, min(i - 2, len(x) - 5))
            xs = x[lo:lo + 5] - x[i]
            fs = f[lo:lo + 5]
            den = np.sum(xs * xs) - np.sum(xs) ** 2 / 5
            ref[i] = (np.sum(xs * fs) - np.sum(xs) * np.sum(fs) / 5) / den
        assert np.array_equal(md.local_slope(x, f), ref)

    def test_exact_on_lines_and_needs_a_window(self):
        x = np.geomspace(1.0, 50.0, 12)
        assert np.allclose(md.local_slope(x, 3.0 - 0.5 * x), -0.5, rtol=1e-12)
        with pytest.raises(DomainError):
            md.local_slope(x[:4], x[:4])


class TestRegularizedRate:
    def test_inverse_law_fixed_point(self):
        s = np.linspace(100.0, 1e4, 8000)
        bt = md.evolve_btilde(s, 1.0 / s)
        assert np.max(np.abs(bt * s - 1.0)) < 5e-5

    def test_zero_rate_constant(self):
        s = np.linspace(100.0, 1e4, 100)
        assert np.ptp(md.evolve_btilde(s, np.zeros_like(s))) == 0.0

    def test_envelope_transfer(self):
        # b within (1 +- eps)/s keeps btilde within (1 +- 2 eps)/s for
        # large starting s
        s = np.geomspace(1e3, 1e6, 5000)
        eps = 0.05
        b = (1.0 + eps * np.sin(np.log(s))) / s
        bt = md.evolve_btilde(s, b)
        prod = bt * s
        assert np.all(prod <= 1.0 + 2 * eps + 1e-6)
        assert np.all(prod >= 1.0 - 2 * eps - 1e-6)

    @given(st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_positive_decreasing_for_positive_rate(self, amp):
        s = np.linspace(10.0, 100.0, 500)
        b = amp / s
        bt = md.evolve_btilde(s, b)
        assert np.all(bt > 0)
        assert np.all(np.diff(bt) <= 0)


class TestCollapseFit:
    def test_square_root_model_recovered(self):
        x = np.linspace(0, 0.00995, 400)
        lam = 0.3 * np.sqrt(0.01 - x)
        fit = md.fit_singularity(x, lam)
        assert abs(fit["exponent"] - 0.5) < 1e-6
        assert abs(fit["x_star"] - 0.01) < 1e-6
        assert abs(fit["C"] - 0.3) < 1e-6
        assert fit["residual"] < 1e-10

    def test_cube_root_model_not_forced_to_half(self):
        x = np.linspace(0, 0.0099999, 500)
        fit = md.fit_singularity(x, (0.01 - x) ** (1.0 / 3.0))
        assert abs(fit["exponent"] - 1.0 / 3.0) < 1e-6

    @pytest.mark.parametrize("law", ["square-root", "cube-root"])
    def test_synthetic_laws_match_the_levenberg_marquardt_fit(self, law):
        # variable projection lands on the least-squares minimum that the
        # LM fit it replaced found; both residuals are roundoff
        if law == "square-root":
            x = np.linspace(0, 0.00995, 400)
            lam = 0.3 * np.sqrt(0.01 - x)
        else:
            x = np.linspace(0, 0.0099999, 500)
            lam = (0.01 - x) ** (1.0 / 3.0)
        fit, ref = md.fit_singularity(x, lam), fit_singularity_lm(x, lam)
        for key in ("x_star", "C", "exponent"):
            assert fit[key] == pytest.approx(ref[key], rel=1e-9, abs=0)
        assert fit["residual"] < 1e-12 and ref["residual"] < 1e-12

    def test_default_window_matches_the_levenberg_marquardt_fit(self):
        from prandtlsep import vonmises as vm

        cfg = RunConfig()
        traj = vm.solve_until_separation(inflow_data(0.05), cfg)
        win = md.fit_window(traj.lam, cfg.lambda_stop)
        fit = md.fit_singularity(traj.x[win], traj.lam[win])
        ref = fit_singularity_lm(traj.x[win], traj.lam[win])
        for key in ("x_star", "C", "exponent", "residual"):
            assert fit[key] == pytest.approx(ref[key], rel=1e-9, abs=0)

    def test_no_minimum_in_reach_raises(self):
        # an exponential decay has no finite x*: the residual falls all the
        # way out, and the bracket's last step still reads a falling slope
        x = np.linspace(0.0, 1.0, 60)
        with pytest.raises(FitFailureError, match="has no minimum"):
            md.fit_singularity(x, np.exp(-3.0 * x))

    def test_preconditions(self):
        x = np.linspace(0, 0.001, 40)
        lam = 0.3 * np.sqrt(0.01 - x)  # spans far less than a decade
        with pytest.raises(DomainError):
            md.fit_singularity(x, lam)
        with pytest.raises(DomainError):
            md.fit_singularity(x[:10], lam[:10])


class TestFitWindow:
    def test_ends_are_set_in_lambda(self):
        # the window holds the samples with lam in (lam_end, lam_end *
        # 10**FIT_DECADES], lam_end = FIT_END * lambda_stop, however densely
        # lam is sampled
        lam_end = md.FIT_END * 1e-3
        for n in (300, 3000):
            lam = np.geomspace(0.05, 1e-3, n)
            win = md.fit_window(lam, 1e-3)
            inside = (lam > lam_end) & (lam <= lam_end * 10.0**md.FIT_DECADES)
            assert np.array_equal(np.nonzero(inside)[0],
                                  np.arange(win.start, win.stop))
        with pytest.raises(DomainError, match="no samples above 3.11"):
            md.fit_window(np.geomspace(0.003, 0.001, 100), 1e-3)

    def test_same_lambda_at_two_step_sizes(self):
        # a coarse march at ds_rel 0.008 and 0.016: each window ends at its
        # last station above lam_end, so the two end shears lie within one
        # step's change of lam (0.7% at ds_rel 0.016) of each other
        from prandtlsep import vonmises as vm

        data = inflow_data(0.05)
        lam_end = md.FIT_END * 5e-3
        ends = []
        for ds_rel in (0.008, 0.016):
            traj = vm.solve_until_separation(
                data, RunConfig(lambda_stop_factor=10.0, ds_rel=ds_rel, n_psi=577))
            win = md.fit_window(traj.lam, 5e-3)
            assert traj.lam[win.stop] <= lam_end < traj.lam[win.stop - 1]
            ends.append(traj.lam[win.stop - 1])
        assert ends[0] / lam_end - 1.0 < 0.004 and ends[1] / lam_end - 1.0 < 0.008
        assert abs(ends[1] / ends[0] - 1.0) < 0.008


class TestRateCertificate:
    def test_exact_law_trivially_holds(self):
        s = np.geomspace(100, 1e5, 2000)
        cert = md.rate_inequality_certificate(s, 1.0 / s, gamma=13.0 / 4.0)
        assert cert["holds"]
        assert cert["J"] < 1e-3   # endpoint slope windows set the floor

    def test_synthetic_decaying_perturbation(self):
        s = np.geomspace(100, 1e5, 4000)
        b = 1.0 / s + 0.01 * s ** (-1.1) / s
        cert = md.rate_inequality_certificate(s, b, gamma=13.0 / 4.0)
        assert cert["holds"]
        assert np.isfinite(cert["J"])

    def test_envelope_violation_reported(self):
        s = np.geomspace(100, 1e4, 500)
        cert = md.rate_inequality_certificate(s, 3.0 / s, gamma=3.5)
        assert not cert["envelope_ok"]
        assert not cert["holds"]

    def test_gamma_domain(self):
        s = np.geomspace(100, 1e4, 500)
        with pytest.raises(DomainError):
            md.rate_inequality_certificate(s, 1.0 / s, gamma=6.0)


class TestRescale:
    @staticmethod
    def _rescale(u, lam, grid):
        return dg.rescale_snapshot_profile(spline_interpolant(u), lam, grid).U

    def test_designed_scaling_identity(self):
        # u = lam y + y^2/2 maps to exactly Y + Y^2/2
        lam = 0.05
        g = Grid.tanh_clustered(2049, 3.0, 5.0)
        u = Field(g, lam * g.nodes + g.nodes**2 / 2)
        grid = md.standard_rescaled_grid(400.0, 321, reach=np.inf)
        U = self._rescale(u, lam, grid)
        expected = grid.nodes + grid.nodes**2 / 2
        assert np.max(np.abs(U.values - expected)) < 1e-6

    def test_wall_slope_normalized(self):
        lam = 0.04
        g = Grid.tanh_clustered(2049, 3.0, 5.0)
        u = Field(g, lam * g.nodes + g.nodes**2 / 2 - 0.02 * g.nodes**4)
        grid = md.standard_rescaled_grid(625.0, 321, reach=np.inf)
        U = self._rescale(u, lam, grid)
        Y = grid.nodes
        sel = (Y > 0) & (Y < 0.35)
        cols = np.stack([Y[sel] ** p for p in (1, 2, 3, 4)], axis=1)
        sol, *_ = np.linalg.lstsq(cols, U.values[sel], rcond=None)
        assert abs(sol[0] - 1.0) < 1e-6

    def test_inconsistent_shear_rejected(self):
        g = Grid.tanh_clustered(2049, 3.0, 5.0)
        u = Field(g, 0.05 * g.nodes + g.nodes**2 / 2)
        grid = md.standard_rescaled_grid(400.0, 321, reach=np.inf)
        with pytest.raises(InconsistentLambdaError):
            self._rescale(u, 0.06, grid)

    @pytest.mark.parametrize("drift, error, message", [
        (1.007, InvalidProfileError, "wall slope 1.00700000"),
        (1.01, InconsistentLambdaError, "wall-normalized 1.0303$"),
    ], ids=["shear-within-tolerance", "shear-rejected"])
    def test_check_judges_the_shear_the_profile_is_built_with(self, drift, error,
                                                             message):
        # a wall slope that never settles: the profile read at the k-th
        # shear tried is drift**k y, so every fit reads c1 = drift and the
        # fourth and last profile is built with lam = drift**3.  At 1.007
        # that shear is within SLOPE_RTOL of 1 (one more update would leave
        # it) and only the context's own slope check rejects the profile; at
        # 1.01 the rejection quotes the shear the profile was built with
        grid = md.standard_rescaled_grid(400.0, 321, reach=np.inf)
        shears = []

        def u_at(y):
            # every query ends at the grid's last node, so it names its shear
            shear = y[-1] / grid.span
            if not shears or not np.isclose(shear, shears[-1], rtol=1e-12):
                shears.append(shear)
            return drift ** len(shears) * y

        with pytest.raises(error, match=message):
            dg.rescale_snapshot_profile(u_at, 1.0, grid)
        assert len(shears) == 4
        assert shears[-1] == pytest.approx(drift**3, rel=1e-12, abs=0)
