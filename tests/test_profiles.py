import numpy as np
import pytest
from reference import (eval_uapp_Y, inflow_data, poly_eval, same_bits,
                       theta_prime, theta_second, uapp_core_poly, uniform_grid)

from prandtlsep import energies as en
from prandtlsep import gridfields as gf
from prandtlsep import profiles as pr
from prandtlsep.errors import DomainError
from prandtlsep.gridfields import Field, Grid, spline_interpolant
from prandtlsep.operators import OperatorContext


def check_wellprepared(U0: Field, s0: float, eta: float = 0.1) -> dict:
    """Scaled smallness report for rescaled initial data."""
    if s0 <= 1.0:
        raise DomainError("s0 must exceed 1")
    ctx = OperatorContext.from_profile(U0, slope_tol=1e-3)
    b0 = 1.0 / s0
    V = en.compute_V(U0, s0, b0)
    report = en.energy_report(ctx, V, s0, b0, 0.0)
    Y = U0.grid.nodes
    a4 = pr.wall_coefficients()[0]
    # curvature-based modulation estimate: U_YY ~ 1 - 12 a4 b Y^2 near wall
    window = (Y > 0.2) & (Y < 1.5)
    uyy = ctx.U_YY.values
    b_est = float(np.mean((1.0 - uyy[window]) / (12.0 * a4 * Y[window] ** 2)))
    return {
        "E1_scaled": report.E1 * s0 ** (13.0 / 4.0 + eta / 2.0),
        "E2_scaled": report.E2 * s0**5,
        "b_gap": abs(b_est - b0) * s0,
        "UYY_bounds_ok": bool(np.max(uyy) <= 1.0 + 5e-3),
    }


def curvature_constant(data) -> float:
    """Smallest C0 with u0'' - 1 >= -C0 min(y**2, 1) on the inflow grid."""
    y, g = data.grid.nodes, data.u0_second.values
    envelope = np.minimum(y * y, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(envelope > 0, (1.0 - g) / envelope, 0.0)
    return float(np.max(ratio))


def compatibility_slope(data) -> float:
    """sup |u0'' - 1|/y**2 on the inner half of the wall zone
    y < lambda0**(3/7), where u0'' is the exact wall polynomial."""
    y, g = data.grid.nodes, data.u0_second.values
    inner = (y > 0) & (y < 0.5 * data.lambda0 ** (3.0 / 7.0))
    return float(np.max(np.abs(g[inner] - 1.0) / y[inner] ** 2))


class TestTheta:
    def test_quadratic_below_matching_point(self):
        xi = np.linspace(0, pr.THETA_C0, 50)
        assert np.array_equal(pr.theta(xi), 0.5 * xi**2)

    def test_strictly_increasing(self):
        xi = np.linspace(1e-6, 12, 4000)
        assert np.all(np.diff(pr.theta(xi)) > 0)

    def test_saturates(self):
        assert abs(pr.theta(10.0) - 1.0) < 1e-6

    def test_c2_at_matching_point(self):
        eps = 1e-7
        for fn, scale in ((pr.theta, 1.0), (theta_prime, 1.0),
                          (theta_second, 1.0)):
            jump = abs(float(fn(pr.THETA_C0 + eps)) - float(fn(pr.THETA_C0 - eps)))
            assert jump < 5e-6 * scale


class TestEvalUapp:
    def test_wall_value_and_slope(self):
        assert pr.eval_uapp(400.0, 1 / 400.0, 0.0) == 0.0
        eps = 1e-7
        slope = pr.eval_uapp(400.0, 1 / 400.0, eps) / eps
        assert abs(slope - 1.0) < 1e-6
        assert abs(eval_uapp_Y(400.0, 1 / 400.0, 0.0) - 1.0) < 1e-14

    def test_far_field_plateau(self):
        s, b = 1e6, 1e-6
        val = pr.eval_uapp(s, b, 5e6)
        assert abs(val * b - 1.0) < 1e-6

    def test_matches_polynomial_in_inner_zone(self):
        s, b = 400.0, 1 / 400.0
        Y = np.linspace(1e-3, 0.5 * s ** (2.0 / 7.0), 60)
        core = uapp_core_poly()
        poly = np.array([poly_eval(core, v, b) for v in Y])
        got = pr.eval_uapp(s, b, Y)
        assert np.max(np.abs(got - poly) / np.abs(poly)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pr.eval_uapp(-1.0, 0.1, 1.0)
        with pytest.raises(DomainError):
            pr.eval_uapp(10.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            pr.eval_uapp(10.0, 0.1, np.array([-1.0]))


@pytest.fixture(scope="module")
def data():
    return inflow_data(0.05)


class TestInitialData:

    def test_wall_values(self, data):
        assert data.u0.values[0] == 0.0
        assert abs(data.u0_prime.values[0] - 0.05) < 1e-14
        assert abs(data.u0_second.values[0] - 1.0) < 1e-12

    def test_strictly_increasing(self, data):
        assert np.all(data.u0_prime.values[:-1] > 0)
        assert np.all(np.diff(data.u0.values) > 0)

    def test_curvature_band(self, data):
        g = data.u0_second.values
        assert np.max(g) <= 1.0 + 1e-12
        y = data.grid.nodes
        envelope = np.minimum(y * y, 1.0)
        assert np.all(g - 1.0 >= -curvature_constant(data) * envelope - 1e-12)

    def test_compatibility_is_quadratic(self, data):
        # u'' - 1 = O(y^2) with the curvature coefficient of the wall
        # polynomial: slope -> 12 a4 b0 / lambda0^2 = 1/4 * b0/lambda0^2
        b0 = data.lambda0**2
        assert abs(compatibility_slope(data) - 0.25 * b0 / data.lambda0**2) < 0.01

    def test_outer_speed_matched(self, data):
        assert abs(data.u0.values[-1] - np.sqrt(2.0)) < 1e-9
        assert abs(data.u0_prime.values[-1]) < 1e-12

    def test_fourth_derivative_convention(self, data):
        # b0 = -2 lambda0^2 u0''''(0); the curvature slope near the wall
        # measures u0'''' directly
        y = data.grid.nodes
        g = data.u0_second.values
        m = (y > 0.002) & (y < 0.02)
        u4 = 2.0 * np.mean((g[m] - 1.0) / y[m] ** 2)
        b0 = data.lambda0**2
        assert abs(-2.0 * data.lambda0**2 * u4 - b0) < 1e-3 * b0

    def test_lambda_range_enforced(self):
        with pytest.raises(DomainError):
            inflow_data(0.0)
        with pytest.raises(DomainError):
            inflow_data(0.25)

    def test_span_precondition(self):
        small = Grid.tanh_clustered(257, 0.5, 4.0)
        with pytest.raises(DomainError):
            inflow_data(0.05, grid=small)

    def test_perturbation_keeps_invariants(self):
        data = inflow_data(0.05, perturbation_amplitude=1e-3)
        assert np.max(data.u0_second.values) <= 1.0 + 1e-12
        assert np.all(data.u0_prime.values[:-1] > 0)

    @pytest.mark.parametrize("lambda0", [0.025, 0.048, 0.05, 0.0512, 0.1])
    def test_matching_root_is_scipys_bit_for_bit(self, lambda0, monkeypatch):
        # the outer-speed matching, solved by the package's Brent port and
        # by scipy.optimize.brentq with the same bracket and tolerances
        from scipy.optimize import brentq

        roots = []

        def both(f, a, b, xtol):
            roots.append((gf.brentq(f, a, b, xtol),
                          brentq(f, a, b, xtol=xtol, rtol=gf._BRENT_RTOL)))
            return roots[-1][0]

        monkeypatch.setattr(pr, "brentq", both)
        inflow_data(lambda0)
        (ours, scipys), = roots
        assert same_bits(ours, scipys)

    def test_zero_perturbation_is_exact_zero(self, monkeypatch):
        # amplitude 0 gives the profile with no perturbation added at all
        a = inflow_data(0.05, perturbation_amplitude=0.0)
        monkeypatch.setattr(pr, "_perturbation", lambda *args: (0.0, 0.0, 0.0))
        b = inflow_data(0.05)
        assert np.array_equal(a.u0.values, b.u0.values)

    def test_inner_zone_matches_reference_profile(self, data):
        y = data.grid.nodes
        inner = (y > 0) & (y < data.lambda0 ** (3.0 / 7.0))
        U0 = data.u0.values[inner] / data.lambda0**2
        Ua = pr.eval_uapp(data.s0, data.lambda0**2, y[inner] / data.lambda0)
        assert np.max(np.abs(U0 - Ua)) < 1e-6


class TestWellPrepared:
    def test_constructed_data_is_well_prepared(self):
        from prandtlsep import diagnostics as dg
        from prandtlsep import modulation as md

        data = inflow_data(0.05)
        grid = md.standard_rescaled_grid(data.s0, 513, reach=np.inf)
        U0 = dg.rescale_snapshot_profile(spline_interpolant(data.u0),
                                         data.lambda0, grid).U
        report = check_wellprepared(U0, data.s0)
        assert report["UYY_bounds_ok"]
        assert report["b_gap"] < 0.05
        # scaled energies: well-prepared means bounded by an order-one
        # constant; the construction leaves them at discretization level
        assert report["E1_scaled"] < 1e-2
        assert report["E2_scaled"] < 50.0

    def test_s0_domain(self):
        g = uniform_grid(65, 1.0)
        with pytest.raises(DomainError):
            check_wellprepared(Field(g, g.nodes), 0.5)
