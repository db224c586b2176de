"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 6 and 7 are implemented at their stated tolerances and
fail on marched data; each failure message carries the measured values.
The measured cause (the curvature error of the marched profile on the
wall-fit windows, which the fixed phi grid resolves with fewer and fewer
nodes as the shear collapses) and the resolution table are in CHANGES.md.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from forcings import flat_outer_flow
from hardy import hardy_constant, hardy_phi, hardy_phi_closed
from reference import convergence_order, inflow_data, op_L

from prandtlsep import cli
from prandtlsep import diagnostics as dg
from prandtlsep import gridfields as gf
from prandtlsep import modulation as md
from prandtlsep import operators as ops
from prandtlsep import ratpoly as rp
from prandtlsep import vonmises as vm
from prandtlsep.gridfields import Field


def conclude(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def main_run():
    data = inflow_data(0.05)
    cfg = cli.RunConfig()
    t0 = time.time()
    traj = vm.solve_until_separation(data, cfg)
    elapsed = time.time() - t0
    assert traj.completed
    return data, cfg, traj, elapsed


@pytest.fixture(scope="module")
def small_run():
    data = inflow_data(0.025)
    cfg = cli.RunConfig(lambda0=0.025)
    traj = vm.solve_until_separation(data, cfg)
    assert traj.completed
    return data, cfg, traj


@pytest.fixture(scope="module")
def main_fit(main_run):
    _, cfg, traj, _ = main_run
    win = md.fit_window(traj.lam, cfg.lambda_stop)
    return md.fit_singularity(traj.x[win], traj.lam[win])


@pytest.fixture(scope="module")
def main_frames(main_run):
    _, _, traj, _ = main_run
    return dg.build_frames(traj, cli.RunConfig().n_rescaled)


@pytest.fixture(scope="module")
def main_suite(main_frames):
    return dg.run_audit_suite(main_frames)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_goldstein_exponent(main_run, main_fit):
    _, _, _, elapsed = main_run
    p = main_fit["exponent"]
    rms = main_fit["residual"]
    ok = 0.45 <= p <= 0.55 and rms < 0.02 and elapsed <= 300.0
    conclude(1, ok, f"exponent {p:.4f} in [0.45, 0.55], log-log rms "
                    f"{rms:.2e} < 0.02, solve time {elapsed:.1f}s <= 300s")


def test_criterion_2_xstar_scaling(main_fit, small_run):
    _, cfg_s, traj_s = small_run
    win = md.fit_window(traj_s.lam, cfg_s.lambda_stop)
    fit_s = md.fit_singularity(traj_s.x[win], traj_s.lam[win])
    r_main = main_fit["x_star"] / 0.05**2
    r_small = fit_s["x_star"] / 0.025**2
    spread = abs(r_main - r_small) / min(r_main, r_small)
    ok = spread < 0.30
    conclude(2, ok, f"x*/lambda0^2 = {r_main:.3f} vs {r_small:.3f}, "
                    f"spread {spread:.1%} < 30%")


def test_criterion_3_modulation_law(main_run):
    _, _, traj, _ = main_run
    b = md.compute_b(traj.x, traj.lam)
    s = traj.s
    late = s >= 5.0 * s[0]
    prod = (b * s)[late]
    defect = md.local_slope(s, b) + b * b
    J = float(np.trapezoid((s ** (13.0 / 4.0) * defect**2)[late], s[late]))
    ok = prod.min() >= 0.9 and prod.max() <= 1.1 and np.isfinite(J)
    conclude(3, ok, f"b*s in [{prod.min():.4f}, {prod.max():.4f}] for "
                    f"s >= 5 s0; weighted defect integral J = {J:.4g} (finite)")


def test_march_lambda_slope_has_no_jumps(main_run):
    # the rate b reads the slope of lambda; step-to-step jumps in it (up to
    # 19% when each Picard iteration started from the old station) pulled
    # the b*s envelope down to 0.92
    _, _, traj, _ = main_run
    slope = np.abs(np.diff(traj.lam) / np.diff(traj.x))
    jump = np.abs(np.diff(slope)) / np.minimum(slope[:-1], slope[1:])
    assert np.max(jump[traj.s[2:] >= 2000.0]) <= 0.05


def test_march_picard_work(main_run):
    # every step meets the Picard tolerance, at no more than 2 solves a step,
    # and no step of the completed run failed.  The default run takes 671
    # solves in 559 steps: steps 6 to 100, in the inflow's transient, take
    # 2 solves each from the quadratic Picard start, every later step 1.
    # The bound is on the run's total work, which the step size sets
    _, _, traj, _ = main_run
    steps = len(traj.x) - 1
    assert traj.short.sum() == 0
    assert traj.solves.sum() <= 2 * steps
    assert traj.solves.sum() <= 700
    assert traj.completed and traj.failed_step is None


def test_criterion_4_exact_algebra():
    cert = {c.name: c for c in rp.algebra_certificate(rp.profile_chain(4))}
    coeffs = rp.profile_coefficients(rp.profile_chain(4)[-1])
    checks = [
        coeffs["a4"] == Fraction(1, 48),
        coeffs["a7"] == Fraction(1, 4032),
        coeffs["a10"] == Fraction(27, 1440) * coeffs["a7"],
        coeffs["a11"] == Fraction(3, 1760) * coeffs["a7"],
        cert["residual(Y^2/2)"].passed,
        cert["remainder: (b_s+b^2) coefficient"].passed,
        cert["remainder: pure b^4 part"].passed,
        rp.leading_V_coefficients(rp.profile_chain(2)[-1])
        == (Fraction(-1, 2520), Fraction(-1, 8960)),
    ]
    ok = all(checks)
    conclude(4, ok, "a4 = 1/48, a7 = 1/4032, a10 = 27a7/1440, a11 = 3a7/1760, "
                    "residual(Y^2/2) = 0, remainder decomposition shape, "
                    "corrector coefficients (-8a7/5, -3a4/560); zero tolerance")


def _stated_constant_check(key: str, stated_name: str, tmp_path) -> None:
    """The stated constant against the recursion, re-derived independently.

    The certificate's a13 and a16 are the coefficients of the fourth
    iterate.  An independent sympy derivation of the recursion must give
    the same values, and ``verify-algebra`` must report the stated constant
    as an erratum row (match false) carrying that derived value.
    """
    import symbolic_recursion

    derived = symbolic_recursion.profile_coefficients(4)[key]
    coeffs = rp.profile_coefficients(rp.profile_chain(4)[-1])
    assert cli.run_verify_algebra(str(tmp_path)) == cli.EXIT_OK
    with open(tmp_path / "certificate.json") as fh:
        rows = {r["name"]: r for r in json.load(fh)["erratum_checks"]}
    row = rows[stated_name]
    ok = (coeffs[key] == derived and row["match"] is False
          and Fraction(row["derived"]) == derived
          and Fraction(row["stated"]) != derived)
    conclude(4, ok, f"{key} = {coeffs[key]} (sympy re-derivation {derived}); "
                    f"erratum row '{stated_name}': stated {row['stated']}, "
                    f"match {row['match']}, derived {row['derived']}")


def test_criterion_4_stated_a13(tmp_path):
    pytest.importorskip("sympy")
    _stated_constant_check("a13", "stated a13 = 11 a4 a7/2496", tmp_path)


def test_criterion_4_stated_a16(tmp_path):
    pytest.importorskip("sympy")
    _stated_constant_check("a16", "stated a16 = a7^2/640", tmp_path)


def test_criterion_5_operator_identities():
    t0 = time.time()
    errs_u2, errs_mass, errs_pair = [], [], []
    for n in (257, 513, 1025):
        g = gf.Grid.tanh_clustered(n, 8.0, 4.0)
        Y = g.nodes
        ctx = ops.OperatorContext.from_profile(Field(g, Y + Y**2 / 2))
        got = ops.op_Linv(ctx, Field(g, ctx.U.values**2)).values
        errs_u2.append(np.max(np.abs(got - (ctx.U.values + Y * ctx.U_Y.values))))
        f = Field(g, ctx.U_Y.values * gf.cumint(ctx.U).values)
        errs_mass.append(np.max(np.abs(ops.op_Linv(ctx, f).values
                                       - Y * ctx.U_Y.values)))
        w = Field(g, np.sin(Y) * Y)
        errs_pair.append(np.max(np.abs(
            ops.op_Linv(ctx, op_L(ctx, w)).values - w.values)))
    elapsed = time.time() - t0
    # the U^2 identity is exact up to roundoff at every resolution
    order_mass = convergence_order(errs_mass)
    order_pair = convergence_order(errs_pair)
    ok = (errs_u2[-1] < 1e-9 and order_mass >= 1.8 and order_pair >= 1.8
          and elapsed < 30.0)
    conclude(5, ok, f"Linv(U^2) exact to {errs_u2[-1]:.1e}; "
                    f"Linv(U_Y int U) order {order_mass:.2f} >= 1.8; "
                    f"inverse pair order {order_pair:.2f} >= 1.8; "
                    f"runtime {elapsed:.1f}s")


def test_criterion_6_commutator_identity(main_frames):
    # finite-difference check at the stated 5 (ds/s + h^2) scale, on the
    # pairs that the audit checks: snapshots 1, 7 and 12, at s_mid 722,
    # 2.67e4 and 5.34e5.  The diffusion field D = Linv(U_YY - 1) is fitted
    # on Y in [0.25, 2], where the physical signal -bY^2/4 of U_YY - 1 is
    # 1.4e-3 at s ~ 715 and 2e-6 at s ~ 5e5.  The marched U_YY misses
    # 1 - bY^2/4 there by 1e-4 at s ~ 715, growing to 4e-3 at s ~ 5e5
    # (n_psi = 2305), as the window shrinks from phi nodes 133-333 to nodes
    # 20-49 of the fixed grid; D is then dominated by the march's curvature
    # error and the gap stays near 1.  The miss converges at second order in
    # n_psi, but the first checked pair's gap does not fall steadily with
    # it: 1.498, 3.033 and 0.232 at n_psi 2305, 4609 and 9217.  The check
    # itself closes to 2e-5 on pairs of the approximate solution
    # (test_diagnostics.py)
    checks = {fr.index: fr.commutator for fr in main_frames
              if fr.commutator is not None}
    assert list(checks) == [1, 7, 12]
    gaps = [c["relative_gap"] for c in checks.values()]
    tols = [5.0 * (c["ds_over_s"] + c["h_rel"] ** 2) for c in checks.values()]
    ok = all(g <= t for g, t in zip(gaps, tols))
    conclude(6, ok, f"relative gaps {[f'{g:.3f}' for g in gaps]} vs "
                    f"tolerances {[f'{t:.4f}' for t in tols]}")


def test_criterion_7_trace_identity(main_run, main_frames):
    # check at the stated tolerance 0.25 max(|b_s + b^2|, 1e-6/s^2), which
    # is 1.6e-9 at s ~ 720 and below 1e-14 late.  The resolved flag compares
    # the energies of the frame's 641-node wall-unit profile with those of
    # the same profile on every other node, not of a second rescale, and
    # the default run flags no sample: E0 moves 1.3-1.6x on frames 1-8,
    # from the march's truncation error on its first three phi cells, E1
    # on the inflow frame, and frames 9-13 end on the subsampled profile's
    # 1e-6 wall-slope check before any energy is compared.  The trace
    # residuals of frames 1-13, 6.7e-3 to 0.43, are stable in n_rescaled but
    # fall 4x per doubling of n_psi: the march's second-order error, the
    # same curvature error of the marched data as criterion 6's
    reports = [fr.report for fr in main_frames if fr.report is not None]
    resolved = [r for r in reports if r.resolved_flag]
    detail_all = f"{len(resolved)}/{len(reports)} samples resolved"
    if not resolved:
        conclude(7, False, detail_all + "; criterion requires resolved "
                 "samples to audit the trace against -(b_s+b^2)/2")
    passing = [
        r for r in resolved
        if abs(r.trace_residual)
        <= 0.25 * max(abs(r.bs_plus_b2), 1e-6 / r.s**2)
    ]
    frac = len(passing) / len(resolved)
    # refinement leg only meaningful once samples resolve at all
    data, cfg, _, _ = main_run
    refined = vm.solve_until_separation(
        data, replace(cfg, ds_rel=cfg.ds_rel / 2.0, n_psi=3457))
    frames_ref = dg.build_frames(refined, cli.RunConfig().n_rescaled)
    rep_ref = [fr.report for fr in frames_ref
               if fr.report is not None and fr.report.resolved_flag]
    pass_ref = [
        r for r in rep_ref
        if abs(r.trace_residual)
        <= 0.25 * max(abs(r.bs_plus_b2), 1e-6 / r.s**2)
    ]
    frac_ref = len(pass_ref) / max(len(rep_ref), 1)
    ok = frac >= 0.8 and frac_ref >= min(frac, 0.8)
    conclude(7, ok, detail_all + f"; pass fraction {frac:.0%}, refined "
                                 f"{frac_ref:.0%}")


def test_criterion_8_maximum_principle(main_run, main_suite):
    _, _, traj, _ = main_run
    mp = [r for r in main_suite.reports if r.name == "max-principle"]
    fb = [r for r in main_suite.reports if r.name == "diffusion-balance-bounds"]
    upper_ok = all(r.details["upper_violations"] == 0 for r in fb)
    f_traj_ok = bool(np.nanmax(traj.F_max) <= 1e-6)
    violations = sum(r.violation_count for r in mp)
    ok = violations == 0 and upper_ok and f_traj_ok
    conclude(8, ok, f"curvature bounds: {violations} violations over "
                    f"{len(mp)} slices (M2 = {main_suite.M2} frozen at s0); "
                    f"balance F <= tol globally along the march "
                    f"(max {np.nanmax(traj.F_max):.2e})")


def test_criterion_8_audits_state_what_they_checked(main_suite):
    # the balance audit counts the trusted nodes of its upper bound and the
    # nodes of its lower bound's domain, which is empty on frames 0-3, where
    # its floor lies past its cap; the curvature audit starts at y_min,
    # measured 0.5 to 4.896
    mp = [r for r in main_suite.reports if r.name == "max-principle"]
    fb = [r for r in main_suite.reports if r.name == "diffusion-balance-bounds"]
    assert len(mp) == len(fb) == 14
    for r in fb:
        assert r.samples == r.details["upper_samples"] + r.details["lower_samples"]
        # measured 2142 to 2158 of the 2303 interior phi nodes
        assert 2100 < r.details["upper_samples"] < 2303
    lower = [r.details["lower_samples"] for r in fb]
    assert lower[:4] == [0, 0, 0, 0] and all(n > 0 for n in lower[4:])
    y_min = [r.details["y_min"] for r in mp]
    assert y_min[0] == 0.5 and y_min == sorted(y_min)
    assert y_min[-1] == pytest.approx(4.896, abs=1e-3)


def test_criterion_9_sub_super_solutions(main_suite):
    ss = [r for r in main_suite.reports if r.name == "sub-super-solutions"]
    sandwich = sum(r.details["sandwich_violations"] for r in ss)
    differential = sum(r.details["differential_violations"] for r in ss)
    ok = sandwich == 0 and differential == 0
    conclude(9, ok, f"sandwich violations {sandwich}, differential "
                    f"inequality violations {differential} over {len(ss)} "
                    f"slices (A- = {main_suite.A_minus}, "
                    f"A+ = {main_suite.A_plus} frozen)")


def test_criterion_10_hardy_constants():
    sup_phi = hardy_constant(0.0, 1.0) / 4.0
    c_perturbed = hardy_constant(0.01, 0.999)
    gaps = [abs(hardy_phi(r, 0.0, mu) - hardy_phi_closed(r, mu))
            for r, mu in ((0.5, 0.8), (5.0, 0.9), (50.0, 1.0))]
    ok = (abs(sup_phi - 2.0 / 9.0) <= 1e-3 and c_perturbed <= 0.9
          and max(gaps) < 1e-8)
    conclude(10, ok, f"sup phi = {sup_phi:.6f} = 2/9 +- 1e-3; "
                     f"C(0.01, 0.999) = {c_perturbed:.4f} <= 0.9; "
                     f"closed form vs quadrature {max(gaps):.1e} < 1e-8")


def test_criterion_11_global_solution_control(monkeypatch):
    data = inflow_data(0.05)
    monkeypatch.setattr(vm, "DX_MAX", 5e-4)
    monkeypatch.setattr(vm, "MAX_STEPS", 400)
    traj = vm.solve_until_separation(
        data, cli.RunConfig(lambda_stop_factor=5e4), flat_outer_flow)
    horizon = traj.x[-1]
    lam_min = float(traj.lam.min())
    ok = lam_min >= 0.5 * data.lambda0 and horizon > 20.0 * 0.05**2
    conclude(11, ok, f"flat outer flow: lambda stays >= {lam_min:.4f} "
                     f">= lambda0/2 over x <= {horizon:.3f} "
                     f"(>20x the adverse separation length)")
