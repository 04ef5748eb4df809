import dataclasses

import numpy as np
import pytest

import sortcycles as sc
from sortcycles import dynamics

from . import oracles

R_STAR = 1.0 / 0.96 - 1.0 + 0.10  # Euler target rental rate, beta=0.96 delta=0.10

# frozen from the bisection oracle (rerun live below)
K_STAR_BOOM = 30.6347042358609
K_STAR_RECESSION = 17.759463379189704


def absorbing_boom(chain):
    return dataclasses.replace(chain, p_stay_low=1.0, p_stay_high=0.0)


class TestSteadyState:
    def test_euler_condition_holds(self, table):
        params, chain = table
        for z, frozen in [(0.0, K_STAR_BOOM), (chain.z_high, K_STAR_RECESSION)]:
            k_star, c_star = sc.steady_state(params, z)
            eq = sc.solve_static(params, sc.AggregateShockState.from_params(params, z=z), k_star)
            assert params.beta * (eq.R + 1.0 - params.delta) == pytest.approx(1.0, abs=1e-10)
            assert eq.R == pytest.approx(R_STAR, abs=1e-10)
            assert k_star == pytest.approx(frozen, rel=1e-9)
            assert c_star == pytest.approx(eq.household_income - params.delta * k_star, rel=1e-12)

    def test_r_star_value(self):
        assert R_STAR == pytest.approx(0.1417, abs=5e-5)

    def test_distortions_depress_steady_capital(self, table):
        params, chain = table
        assert sc.steady_state(params, 0.0)[0] > sc.steady_state(params, chain.z_high)[0]

    def test_consistency_with_capital_scaling(self, table):
        # R has exact elasticity alpha-1 in K, so K* solves a power equation
        params, _ = table
        r1 = sc.solve_static(params, sc.AggregateShockState.from_params(params, z=0.0), 1.0).R
        implied = (r1 / R_STAR) ** (1.0 / (1.0 - params.alpha))
        assert sc.steady_state(params, 0.0)[0] == pytest.approx(implied, rel=1e-9)


class TestPolicy:
    def test_grid_covers_spec_hull(self, table, policy):
        params, chain = table
        k_lo = 0.5 * min(K_STAR_BOOM, K_STAR_RECESSION)
        k_hi = 1.5 * max(K_STAR_BOOM, K_STAR_RECESSION)
        assert policy.K_grid.shape[0] >= 200
        assert policy.K_grid[0] == pytest.approx(k_lo, rel=1e-9)
        assert policy.K_grid[-1] == pytest.approx(k_hi, rel=1e-9)

    def test_consumption_positive_and_increasing_in_k(self, policy):
        assert np.all(policy.C > 0.0)
        assert np.all(np.diff(policy.C, axis=1) > 0.0)

    def test_savings_nondecreasing_in_k(self, policy):
        assert np.all(np.diff(policy.K_next, axis=1) >= 0.0)

    def test_savings_stay_inside_the_hull(self, policy):
        assert np.all(policy.K_next >= policy.K_grid[0] - 1e-12)
        assert np.all(policy.K_next <= policy.K_grid[-1] + 1e-12)

    def test_resource_feasibility_at_nodes(self, table, policy):
        # C + K' = (1-delta)K + income exactly, with income recomputed from
        # the full statics composition rather than the solver's tables
        params, chain = table
        for s in range(2):
            shock = sc.AggregateShockState.from_params(params, z=chain.z_states[s])
            for j in range(0, policy.K_grid.shape[0], 37):
                K = policy.K_grid[j]
                income = sc.solve_static(params, shock, K).household_income
                lhs = policy.C[s, j] + policy.K_next[s, j]
                rhs = (1.0 - params.delta) * K + income
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_offgrid_euler_residuals(self, table, policy):
        params, _ = table
        g = np.random.default_rng(42)
        pts = g.uniform(policy.K_grid[0] * 1.01, policy.K_grid[-1] * 0.99, 1000)
        states = g.integers(0, 2, 1000)
        resid = sc.euler_residuals(policy, params, pts, states)
        assert np.quantile(resid, 0.99) < 1e-5

    def test_no_convergence_raises(self, table):
        params, chain = table
        with pytest.raises(sc.NoConvergence):
            sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=80), max_iter=3)


class TestSimulate:
    def test_absorbing_boom_is_constant_at_steady_state(self, table):
        params, chain = table
        quiet = absorbing_boom(chain)
        pol = sc.solve_policy(params, quiet, grid_spec=sc.GridSpec(n=300))
        path = sc.simulate(pol, params, quiet, T=600, burn_in=100, seed=5, K0=K_STAR_BOOM)
        assert np.all(path.z == 0.0)
        # the recorded series settle to the grid's fixed point, within 0.1%
        # of the analytic steady state, and stop moving
        assert np.max(np.abs(path.K / K_STAR_BOOM - 1.0)) < 1e-3
        assert np.ptp(path.K[-100:]) / K_STAR_BOOM < 1e-9
        assert np.ptp(path.Y[-100:]) / path.Y[-1] < 1e-9

    def test_degenerate_chain_converges_from_afar(self, table):
        params, chain = table
        quiet = absorbing_boom(chain)
        pol = sc.solve_policy(params, quiet, grid_spec=sc.GridSpec(n=300))
        path = sc.simulate(pol, params, quiet, T=501, burn_in=1, seed=5, K0=0.6 * K_STAR_BOOM)
        assert abs(path.K[-1] / K_STAR_BOOM - 1.0) < 1e-3

    def test_budget_identity_every_period(self, table, table_path):
        params, _ = table
        path = table_path
        resid = (path.C[:-1] + path.K[1:] - (1.0 - params.delta) * path.K[:-1]
                 - path.income[:-1])
        assert np.max(np.abs(resid / path.income[:-1])) < 1e-10

    def test_bit_identical_reruns(self, table, policy):
        params, chain = table
        a = sc.simulate(policy, params, chain, T=400, burn_in=50, seed=9)
        b = sc.simulate(policy, params, chain, T=400, burn_in=50, seed=9)
        for name in ("K", "Y", "C", "measured_tfp", "z"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_published_moments_where_attainable(self, table_path):
        m = table_path.moments()
        assert m["labor_share"] == pytest.approx(0.6102, abs=0.02)
        assert m["wage_inequality"] == pytest.approx(0.7666, rel=0.15)

    def test_t_must_exceed_burn_in(self, table, policy):
        params, chain = table
        with pytest.raises(sc.DomainError):
            sc.simulate(policy, params, chain, T=50, burn_in=100, seed=1)

    def test_grid_exit_reported_with_period(self, table, policy):
        params, chain = table
        with pytest.raises(sc.GridExit) as err:
            sc.simulate(policy, params, chain, T=200, burn_in=10, seed=1,
                        K0=policy.K_grid[0] * 0.5)
        assert err.value.period == 0

    @pytest.mark.parametrize("seed,K0", [(1, None), (7, 0.8 * K_STAR_BOOM)],
                             ids=["steady-state-start", "low-start"])
    def test_matches_per_period_oracle(self, table, policy, seed, K0):
        # scaled K=1 table vs a full static solve at every (s_t, K_t)
        params, chain = table
        path = sc.simulate(policy, params, chain, T=250, burn_in=20, seed=seed, K0=K0)
        ref = oracles.simulate_oracle(policy, params, chain, T=250, burn_in=20, seed=seed,
                                      K0=K0)
        assert np.array_equal(path.states, ref["states"])
        for name in ("z", "K", "lambda_t", "var_log_wage", "var_log_tfpq", "var_log_tfpr"):
            assert np.array_equal(getattr(path, name), ref[name]), name
        for name in ("Y", "C", "measured_tfp", "labor_share", "R", "w0", "income"):
            np.testing.assert_allclose(getattr(path, name), ref[name], rtol=1e-12, atol=0,
                                       err_msg=name)

    def test_state_path_marginals(self, table):
        _, chain = table
        states = dynamics.draw_state_path(chain, 200_000, seed=77)
        pi = sc.stationary_distribution(chain)
        assert np.mean(states) == pytest.approx(pi[1], abs=0.01)


class TestImpulseResponse:
    def test_zero_shock_means_zero_irf(self, table):
        params, chain = table
        flat = dataclasses.replace(chain, z_high=0.0)
        pol = sc.solve_policy(params, flat, grid_spec=sc.GridSpec(n=250))
        irf = sc.impulse_response(pol, params, flat, horizon=6, n_sims=40, seed=3)
        # the two (identical) states mix the expectation with different
        # weights, so the policy rows differ by ulps; zero holds to 1e-13
        for series in (irf.d_log_Y, irf.d_measured_tfp, irf.d_var_log_wage,
                       irf.d_var_log_tfpq, irf.d_var_log_tfpr):
            assert np.max(np.abs(series)) < 1e-13

    def test_impact_signs_and_magnitude(self, table, policy):
        params, chain = table
        irf = sc.impulse_response(policy, params, chain, horizon=10, n_sims=300, seed=6)
        assert irf.d_log_Y[0] < -0.05
        assert irf.d_measured_tfp[0] < 0.0
        assert irf.d_var_log_tfpq[0] > 0.0
        assert irf.d_var_log_tfpr[0] > 0.0
        assert irf.d_var_log_wage[0] < 0.0

    def test_output_gap_persists_beyond_impact(self, table, policy):
        # the treated path carries a lower capital stock for several periods
        # (the mean gap shrinks as treated episodes exit the recession, so
        # persistence, not deepening, is the testable statement)
        params, chain = table
        irf = sc.impulse_response(policy, params, chain, horizon=10, n_sims=300, seed=6)
        assert np.all(irf.d_log_Y[:6] < 0.0)
        assert np.all(irf.d_measured_tfp[:6] < 0.0)

    @pytest.mark.parametrize("horizon,n_sims,seed", [(0, 9, 4), (1, 5, 8), (6, 70, 8)])
    def test_matches_scalar_oracle(self, table, policy, horizon, n_sims, seed):
        # every pair advanced together vs one pair at a time with a full
        # static solve per record; each column measured against its largest
        # magnitude, since K-free columns can cross zero
        params, chain = table
        irf = sc.impulse_response(policy, params, chain, horizon=horizon, n_sims=n_sims,
                                  seed=seed)
        ref = oracles.irf_oracle(policy, params, chain, horizon, n_sims, seed)
        cols = (irf.d_log_Y, irf.d_measured_tfp, irf.d_var_log_wage, irf.d_var_log_tfpq,
                irf.d_var_log_tfpr)
        for j, col in enumerate(cols):
            assert col.shape == (horizon + 1,)
            scale = np.max(np.abs(ref[:, j]))
            assert np.max(np.abs(col - ref[:, j])) <= 1e-12 * scale, j

    def test_negative_horizon_rejected(self, table, policy):
        params, chain = table
        with pytest.raises(sc.DomainError):
            sc.impulse_response(policy, params, chain, horizon=-1, n_sims=4)

    @pytest.mark.parametrize("z_high", [0.05, 0.15, 0.3984, 0.7, 1.0])
    def test_impact_negative_for_any_positive_shock(self, table, z_high):
        params, chain = table
        variant = dataclasses.replace(chain, z_high=z_high)
        pol = sc.solve_policy(params, variant, grid_spec=sc.GridSpec(n=120))
        irf = sc.impulse_response(pol, params, variant, horizon=0, n_sims=8, seed=2)
        assert irf.d_log_Y[0] < 0.0
        assert irf.d_measured_tfp[0] < 0.0

    def test_requires_at_least_one_episode(self, table, policy):
        params, chain = table
        with pytest.raises(sc.DomainError):
            sc.impulse_response(policy, params, chain, n_sims=0)


class TestGenerateShockPath:
    def test_z_chain_path(self, table):
        params, chain = table
        path = sc.generate_shock_path(params, chain, T=500, seed=4)
        zs = {s.z for s in path}
        assert zs <= {chain.z_low, chain.z_high}
        assert all(s.lambda_theta_t == params.lambda_theta for s in path)

    def test_theta_chain_path_and_comovement(self, table):
        params, _ = table
        proc = sc.ThetaRedrawProcess(rho=0.7, lambda_low=3.0, lambda_high=3.6,
                                     p_stay_low=0.9, p_stay_high=0.8)
        path = sc.generate_shock_path(params, proc, T=400, seed=4)
        rates = {s.lambda_theta_t for s in path}
        assert rates <= {3.0, 3.6}
        # frozen at each rate: the lower rate raises wage AND tfpq dispersion
        lo = sc.AggregateShockState.from_params(params, z=0.0, lambda_theta_t=3.0)
        hi = sc.AggregateShockState.from_params(params, z=0.0, lambda_theta_t=3.6)
        eq_lo = sc.solve_static(params, lo, 1.0)
        eq_hi = sc.solve_static(params, hi, 1.0)
        vw_lo, vq_lo, _ = sc.analytic_moments(eq_lo, params, lo)
        vw_hi, vq_hi, _ = sc.analytic_moments(eq_hi, params, hi)
        assert vw_lo > vw_hi
        assert vq_lo > vq_hi

    def test_invalid_theta_process_rejected(self, table):
        params, _ = table
        bad = sc.ThetaRedrawProcess(rho=0.7, lambda_low=2.0, lambda_high=3.0,
                                    p_stay_low=0.9, p_stay_high=0.8)
        with pytest.raises(sc.InvalidProcess):
            sc.generate_shock_path(params, bad, T=10, seed=1)

    def test_constant_volatility_when_innovations_are_off(self, table):
        params, _ = table
        proc = sc.LogVolProcess(rho1=0.9, rho2=0.5, sigma_l=0.0, sigma_k=0.0)
        path = sc.generate_shock_path(params, proc, T=50, seed=2)
        assert all(s.sigma1_t == pytest.approx(params.sigma1, rel=1e-14) for s in path)
        assert all(s.sigma2_t == params.sigma2 for s in path)

    def test_volatility_shocks_move_tfpr_only(self, table):
        params, _ = table
        proc = sc.LogVolProcess(rho1=0.8, rho2=0.8, sigma_l=0.3, sigma_k=0.0)
        path = sc.generate_shock_path(params, proc, T=30, seed=6)
        vqs, vrs = [], []
        for shock in path:
            eq = sc.solve_static(params, shock, 1.0)
            _, vq, vr = sc.analytic_moments(eq, params, shock)
            vqs.append(vq)
            vrs.append(vr)
        assert np.ptp(vqs) == 0.0      # TFPQ dispersion untouched
        assert np.ptp(vrs) > 1e-4      # TFPR dispersion moves period to period

    def test_unsupported_process_rejected(self, table):
        params, _ = table
        with pytest.raises(sc.DomainError):
            sc.generate_shock_path(params, object(), T=5, seed=0)
