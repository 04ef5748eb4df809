import contextlib
import dataclasses
import math

import numpy as np
import pytest

import sortcycles as sc
from sortcycles import verify

from . import oracles
from .oracles import held_panel
from .test_statics import with_params


class TestIndependentFirmSolver:
    def test_agrees_with_closed_forms(self, recession_eq):
        # the price-based solve and the closed-form tilts are separate routes to
        # the same allocation
        closed = held_panel(recession_eq, 200, seed=3)
        sol = verify.independent_firm_solution(recession_eq, closed.theta, closed.eps1,
                                               closed.eps2)
        assert np.allclose(np.exp(sol["log_Q"]), closed.Q, rtol=1e-9)
        assert np.allclose(np.exp(sol["log_l"]), closed.l, rtol=1e-9)
        assert np.allclose(np.exp(sol["log_k"]), closed.k, rtol=1e-9)
        assert np.allclose(np.exp(sol["log_chi"]), closed.chi, rtol=1e-9)


class TestMarketClearingChecks:
    def test_sigma_zero_is_exact(self, table):
        # lognormal factors collapse to one; only type-quadrature error remains
        params, _ = table
        clean = with_params(params, sigma1=0.0, sigma2=0.0)
        shock = sc.AggregateShockState(z=0.0)
        eq = sc.solve_static(clean, shock, 1.0)
        mass, shape = verify.job_density_residuals(eq)
        assert mass < 1e-12
        assert shape < 1e-8

    @pytest.mark.parametrize("z", [0.0, 0.3984])
    def test_calibrated_params_all_clear(self, table, z):
        params, _ = table
        shock = sc.AggregateShockState(z=z)
        eq = sc.solve_static(params, shock, 1.0)
        mass, shape = verify.job_density_residuals(eq)
        assert mass < 1e-8
        assert shape < 1e-8
        assert verify.goods_market_residual(eq) < 1e-8
        assert verify.capital_market_residual(eq) < 1e-8

    def test_wrong_lambda_breaks_density_shape(self, boom_eq):
        wrong = dataclasses.replace(boom_eq, lambda_t=boom_eq.lambda_t * 1.01)
        _, shape = verify.job_density_residuals(wrong)
        assert shape > 1e-3

    def test_wrong_output_breaks_goods_integral(self, boom_eq):
        wrong = dataclasses.replace(boom_eq, Y=boom_eq.Y * 1.01)
        assert verify.goods_market_residual(wrong) > 1e-8

    def test_wrong_rental_breaks_capital_integral(self, boom_eq):
        wrong = dataclasses.replace(boom_eq, R=boom_eq.R * 1.01)
        assert verify.capital_market_residual(wrong) > 1e-8

    def test_worker_clearing(self, table, boom_eq, rng):
        params, _ = table
        xs = rng.exponential(1.0 / params.lambda_x, 20)
        assert verify.worker_clearing_residual(boom_eq, np.append(xs, 0.0)) < 1e-12
        assert verify.worker_clearing_residual(boom_eq, xs, slope_factor=1.01) > 1e-12


class TestBracketScan:
    def test_exactly_one_sign_change_at_table_params(self, table):
        params, chain = table
        for z in (0.0, chain.z_high):
            shock = sc.AggregateShockState(z=z)
            assert oracles.bracket_scan_sign_changes(params, shock) == 1


class TestPropositionSuite:
    def test_hundred_random_points_zero_violations(self):
        grid = verify.random_valid_params(100, seed=314)
        report = verify.proposition_suite(grid)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, failed

    def test_single_point_lambda_direction(self, table):
        params, _ = table
        lam1 = sc.solve_lambda(params, sc.AggregateShockState(z=0.1))
        lam2 = sc.solve_lambda(params, sc.AggregateShockState(z=0.6))
        assert lam1 < lam2

    def test_psi_zero_boundary_degenerates_gracefully(self, table):
        params, _ = table
        p0 = with_params(params, psi=0.0, lambda_theta=6.0)
        for z in np.linspace(0.0, 1.0, 5):
            eq = sc.solve_static(p0, sc.AggregateShockState(z=z), 1.0)
            vw, _, _ = sc.dispersions(eq.params, eq.shock, eq.lambda_t)
            assert vw == 0.0

    def test_random_params_are_reproducible(self):
        a = verify.random_valid_params(10, seed=5)
        b = verify.random_valid_params(10, seed=5)
        assert a == b


class TestThetaProcess:
    def test_valid_process_passes_ks(self):
        proc = sc.ThetaRedrawProcess(rho=0.7, lambda_low=2.0, lambda_high=2.5,
                                     p_stay_low=0.9, p_stay_high=0.8)
        res = verify.theta_process_check(proc, n=100_000, T=50, seed=21)
        assert res.passed
        assert res.statistic >= 4.0

    def test_full_redraw_limit(self):
        # rho = 0: the cross-section is redrawn i.i.d. every period
        proc = sc.ThetaRedrawProcess(rho=0.0, lambda_low=2.0, lambda_high=2.0,
                                     p_stay_low=0.5, p_stay_high=0.5)
        res = verify.theta_process_check(proc, n=50_000, T=25, seed=3)
        assert res.passed

    def test_invalid_process_raises(self):
        proc = sc.ThetaRedrawProcess(rho=0.7, lambda_low=2.0, lambda_high=3.0,
                                     p_stay_low=0.9, p_stay_high=0.8)
        with pytest.raises(sc.InvalidProcess):
            verify.theta_process_check(proc, n=100, T=5, seed=1)


class TestRunVerification:
    def test_full_report_passes_and_is_ordered(self, table):
        params, chain = table
        shocks = [sc.AggregateShockState(z=z) for z in chain.z_states]
        report = verify.run_verification(params, shocks, n_prop_points=20)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == sorted(names)

    def test_deterministic_rerun(self, table):
        params, chain = table
        shocks = [sc.AggregateShockState(z=z) for z in chain.z_states]
        a = verify.run_verification(params, shocks, n_prop_points=10)
        b = verify.run_verification(params, shocks, n_prop_points=10)
        assert a == b


@pytest.fixture(scope="module")
def verified_equilibria(table):
    """Both published states at K = 1 and the first 10 solvable equilibria of
    seeded valid parameters at z = 0 or the published z_high, K = 1."""
    params, chain = table
    out = [sc.solve_static(params, sc.AggregateShockState(z=z), 1.0)
           for z in chain.z_states]
    for i, p in enumerate(verify.random_valid_params(30, seed=20_261_019)):
        with contextlib.suppress(sc.SortCyclesError):
            z = chain.z_states[i % 2]
            out.append(sc.solve_static(p, sc.AggregateShockState(z=z), 1.0))
        if len(out) == 12:
            return out
    raise AssertionError("fewer than 10 of 30 parameter points solve")


#: verify's three type integrands at an equilibrium, by the firm quantity each integrates
FIRM_LOGS = {
    "employment": lambda eq: lambda sol: sol["log_l"],
    "price index": lambda eq: lambda sol: (1.0 - eq.params.xi) * (
        math.log(eq.params.xi / (eq.params.xi - 1.0)) + sol["log_chi"]),
    "capital": lambda eq: lambda sol: sol["log_k"],
}


class TestTypeQuadrature:
    # every type node is solved in one broadcast call; the per-node loop it
    # replaced is the oracle
    @pytest.mark.parametrize("quantity", list(FIRM_LOGS))
    def test_integrals_match_the_per_node_oracle(self, verified_equilibria, quantity):
        for j, eq in enumerate(verified_equilibria):
            firm_log = FIRM_LOGS[quantity](eq)
            for upper in (40.0 / eq.lambda_t,
                          40.0 / max(eq.coefficients.margin, 1e-3)):
                got = verify._gauss_legendre(verify._type_density_integrand(eq, firm_log),
                                             upper)
                want = oracles.type_integral_oracle(eq, firm_log, upper)
                assert math.isclose(got, want, rel_tol=1e-14, abs_tol=0.0), (j, upper)

    def test_density_points_match_the_per_node_oracle(self, verified_equilibria):
        for j, eq in enumerate(verified_equilibria):
            firm_log = FIRM_LOGS["employment"](eq)
            hs = np.linspace(0.05, 20.0, 20) / eq.lambda_t
            got = verify._type_density_integrand(eq, firm_log)(hs)
            want = [oracles.type_density_oracle(eq, firm_log)(h) for h in hs]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0, err_msg=str(j))

    def test_the_rules_are_computed_once(self, boom_eq, monkeypatch):
        verify.job_density_residuals(boom_eq)
        verify.goods_market_residual(boom_eq)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
        monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", None)
        eq = dataclasses.replace(boom_eq, params=dataclasses.replace(boom_eq.params,
                                                                     sigma2=0.1))
        verify.capital_market_residual(eq)
