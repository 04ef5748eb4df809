import math

import numpy as np
import pytest

import sortcycles as sc
import sortcycles.calibrate as cal


@pytest.fixture(scope="module")
def table_module():
    return sc.published_calibration()


@pytest.fixture(scope="module")
def truth(table_module):
    params, chain = table_module
    return np.array([params.psi, chain.z_high, params.lambda_theta,
                     params.lambda_x, params.sigma1])


@pytest.fixture(scope="module")
def self_targets(table_module, truth):
    params, chain = table_module
    m = cal.model_moments(truth, params, chain, cal.SimConfig(fast=True), seed=0)
    return sc.TargetSet(**{k: m[k] for k in cal.MOMENT_NAMES})


FAST = cal.SimConfig(fast=True)


def curve_invariants(x):
    """The two combinations of (z_h, lambda_theta, lambda_x) the moments identify."""
    psi, z_h, lam_th, lam_x, _ = x
    return z_h / lam_th, lam_x * lam_th ** ((1.0 - psi) / psi)


class TestObjective:
    def test_self_target_is_exactly_zero(self, table_module, truth, self_targets):
        params, chain = table_module
        assert cal.objective(truth, params, self_targets, FAST, seed=0,
                             chain_template=chain) == 0.0

    def test_common_random_numbers_make_it_deterministic(self, table_module, truth):
        params, chain = table_module
        x = truth * 1.07
        a = cal.objective(x, params, sc.TargetSet(), FAST, seed=0, chain_template=chain)
        b = cal.objective(x, params, sc.TargetSet(), FAST, seed=0, chain_template=chain)
        assert a == b

    def test_lambda_x_perturbation_strictly_increases(self, table_module, truth, self_targets):
        # local identification in the lambda_x direction (off the scaling curve)
        params, chain = table_module
        bumped = truth * np.array([1.0, 1.0, 1.0, 1.1, 1.0])
        assert cal.objective(bumped, params, self_targets, FAST, seed=0,
                             chain_template=chain) > 0.0

    def test_out_of_bounds_returns_finite_sentinel(self, table_module, truth, self_targets):
        params, chain = table_module
        bad = truth.copy()
        bad[0] = 1.5  # psi above its bound
        val = cal.objective(bad, params, self_targets, FAST, seed=0, chain_template=chain)
        assert val == cal.INFEASIBLE and math.isfinite(val)

    def test_guard_failure_returns_finite_sentinel(self, table_module, self_targets):
        # tiny lambda_theta trips the capital-demand guard inside the solve
        params, chain = table_module
        bad = np.array([0.4022, 0.3984, 0.11, 0.8681, 0.2293])
        val = cal.objective(bad, params, self_targets, FAST, seed=0, chain_template=chain)
        assert val == cal.INFEASIBLE

    def test_scaling_symmetry_gives_equal_objective(self, table_module, truth, self_targets):
        # (z, lambda_theta) -> (cz, c lambda_theta), lambda_x -> c^{-(1-psi)/psi} lambda_x
        # leaves every moment unchanged: the targets identify only the curve
        params, chain = table_module
        c = 1.8
        x = truth * np.array([1.0, c, c, c ** (-(1.0 - truth[0]) / truth[0]), 1.0])
        val = cal.objective(x, params, self_targets, FAST, seed=0, chain_template=chain)
        assert val < 1e-18

    def test_panel_a_fits_the_attainable_targets(self, table_module, truth):
        # at the published parameters the four attainable rows of the data
        # column fit to < 0.05; the full objective is dominated by the TFP
        # volatility row, which the model cannot produce (decisions ledger)
        params, chain = table_module
        no_tfp = sc.TargetSet(weights=(1.0, 1.0, 1.0, 1.0, 0.0))
        assert cal.objective(truth, params, no_tfp, FAST, seed=0,
                             chain_template=chain) < 0.05
        full = cal.objective(truth, params, sc.TargetSet(), FAST, seed=0,
                             chain_template=chain)
        assert full > 50.0  # the documented inconsistency, kept visible

    def test_proportional_deviations_weighting(self, table_module, truth):
        # doubling one weight doubles that term's contribution
        params, chain = table_module
        x = truth * 1.05
        base = cal.objective(x, params, sc.TargetSet(), FAST, seed=0, chain_template=chain)
        heavy = sc.TargetSet(weights=(2.0, 1.0, 1.0, 1.0, 1.0))
        m = cal.model_moments(x, params, chain, FAST, seed=0)
        extra = (m["labor_share"] / heavy.labor_share - 1.0) ** 2
        got = cal.objective(x, params, heavy, FAST, seed=0, chain_template=chain)
        assert got == pytest.approx(base + extra, rel=1e-12)


class TestSigma1Inversion:
    def test_closed_form_inversion_oracle(self, table_module):
        # var_log_tfpr is analytically invertible for sigma1
        params, chain = table_module
        sigma_star = 0.31
        shock = sc.AggregateShockState.from_params(params, z=0.0, sigma1_t=sigma_star)
        eq = sc.solve_static(params, shock, 1.0)
        _, _, vr = sc.analytic_moments(eq, params, shock)
        c = eq.coefficients
        ratio = (eq.lambda_t / params.lambda_x) ** params.psi
        bracket = ratio - c.eta_q * c.eta_q_theta / params.xi
        implied = math.sqrt((vr - bracket ** 2 / params.lambda_theta ** 2)
                            / ((c.eta_q / params.xi) ** 2 * params.gamma ** 2))
        assert implied == pytest.approx(sigma_star, rel=1e-10)

    def test_one_dimensional_recovery_within_1pct(self, table_module, truth):
        # all other parameters pinned; the search recovers sigma1 from the
        # five-moment objective
        params, chain = table_module
        sigma_star = 0.31
        x_star = truth.copy()
        x_star[4] = sigma_star
        m = cal.model_moments(x_star, params, chain, FAST, seed=0)
        targets = sc.TargetSet(**{k: m[k] for k in cal.MOMENT_NAMES})
        bounds = [(v, v) for v in truth[:4]] + [(0.0, 2.0)]
        res = cal.calibrate(params, targets, bounds=bounds, seed=2, n_starts=3,
                            sim_config=FAST, chain_template=chain)
        assert res.params["sigma1"] == pytest.approx(sigma_star, rel=0.01)


class TestCalibrate:
    def test_zero_noise_exact_recovery_on_identified_block(self, table_module, truth,
                                                           self_targets):
        # (psi, sigma1) are point-identified; pin the scaling-curve block and
        # demand recovery at optimizer tolerance
        params, chain = table_module
        bounds = [(0.01, 0.99)] + [(v, v) for v in truth[1:4]] + [(0.0, 2.0)]
        res = cal.calibrate(params, self_targets, bounds=bounds, seed=3, n_starts=3,
                            sim_config=FAST, chain_template=chain,
                            max_iter_per_start=2000)
        assert res.objective < 1e-12
        assert res.params["psi"] == pytest.approx(truth[0], abs=1e-6)
        assert res.params["sigma1"] == pytest.approx(truth[4], abs=1e-6)

    def test_full_search_recovers_identified_quantities(self, table_module, truth,
                                                        self_targets):
        # multistart over all five: psi and sigma1 come back exactly, and the
        # other three land on the truth's scaling curve (the only thing the
        # five moments identify); the moment fit is essentially perfect
        params, chain = table_module
        res = cal.calibrate(params, self_targets, seed=7, n_starts=6,
                            sim_config=FAST, chain_template=chain,
                            max_iter_per_start=1200)
        assert res.objective < 1e-10
        assert res.params["psi"] == pytest.approx(truth[0], rel=1e-3)
        assert res.params["sigma1"] == pytest.approx(truth[4], rel=1e-3)
        rec = np.array([res.params[k] for k in cal.FREE_PARAM_NAMES])
        got_i1, got_i2 = curve_invariants(rec)
        want_i1, want_i2 = curve_invariants(truth)
        assert got_i1 == pytest.approx(want_i1, rel=0.02)
        assert got_i2 == pytest.approx(want_i2, rel=0.02)
        for name, target in zip(cal.MOMENT_NAMES, self_targets.values()):
            assert res.moments[name] == pytest.approx(target, rel=1e-4)

    def test_deterministic_given_seed(self, table_module, self_targets):
        params, chain = table_module
        kw = dict(seed=11, n_starts=2, sim_config=FAST, chain_template=chain,
                  max_iter_per_start=150)
        a = cal.calibrate(params, self_targets, **kw)
        b = cal.calibrate(params, self_targets, **kw)
        assert a == b

    def test_reports_best_found_even_without_improvement(self, table_module, self_targets):
        params, chain = table_module
        res = cal.calibrate(params, self_targets, seed=5, n_starts=1,
                            sim_config=FAST, chain_template=chain, max_iter_per_start=1)
        assert math.isfinite(res.objective)
        assert res.n_evaluations > 0

    def test_full_mode_runs_and_is_deterministic(self, table_module, truth, self_targets):
        params, chain = table_module
        cfg = cal.SimConfig(fast=False, T=600, burn_in=60, grid_n=120)
        a = cal.objective(truth, params, self_targets, cfg, seed=0, chain_template=chain)
        b = cal.objective(truth, params, self_targets, cfg, seed=0, chain_template=chain)
        assert a == b
        assert 0.0 <= a < 1.0  # realized frequencies differ from ergodic ones

    def test_full_mode_moments_near_fast_mode(self, table_module, truth):
        params, chain = table_module
        fast = cal.model_moments(truth, params, chain, FAST, seed=0)
        full = cal.model_moments(truth, params, chain,
                                 cal.SimConfig(fast=False, T=2000, burn_in=100, grid_n=120),
                                 seed=0)
        for k in ("labor_share", "wage_inequality", "rev_share_top10", "rev_share_p50_p90"):
            assert full[k] == pytest.approx(fast[k], rel=0.10)


class TestAssemble:
    def test_fixed_block_is_preserved(self, table_module, truth):
        params, chain = table_module
        new_params, new_chain = cal.assemble(truth * 1.1, params, chain)
        assert new_params.alpha == params.alpha
        assert new_params.beta == params.beta
        assert new_params.sigma2 == params.sigma2
        assert new_chain.p_stay_low == chain.p_stay_low
        assert new_chain.z_high == pytest.approx(truth[1] * 1.1)

    def test_invalid_free_block_raises(self, table_module, truth):
        params, chain = table_module
        bad = truth.copy()
        bad[0] = 1.5
        with pytest.raises(sc.DomainError):
            cal.assemble(bad, params, chain)
