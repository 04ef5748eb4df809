import contextlib
import dataclasses
import inspect
import math

import numpy as np
import pytest

import sortcycles as sc
from sortcycles import calibrate, dynamics, statics, verify

from . import oracles
from .test_statics import with_params

R_STAR = 1.0 / 0.96 - 1.0 + 0.10  # Euler target rental rate, beta=0.96 delta=0.10

# frozen from the bisection oracle (rerun live below)
K_STAR_BOOM = 30.6347042358609
K_STAR_RECESSION = 17.759463379189704

# (psi, z_high, lambda_theta, lambda_x, sigma1) where a 120-node recession
# policy saves the grid floor
CALIBRATION_POINT = np.array([0.0531, 1.585, 3.514, 17.03, 0.974])


def absorbing_boom(chain):
    return dataclasses.replace(chain, p_stay_low=1.0, p_stay_high=0.0)


def variant_chain(chain):
    """A chain unlike the published one in its z values and stay probabilities."""
    return dataclasses.replace(chain, z_high=0.1, p_stay_low=0.5)


@pytest.fixture(scope="module")
def variant_policy(table):
    params, chain = table
    return sc.solve_policy(params, variant_chain(chain), grid_spec=sc.GridSpec(n=120))


def assert_irf_matches_oracle(irf, ref, horizon):
    # each column measured against its largest magnitude, since K-free
    # columns can cross zero
    cols = (irf["d_log_Y"], irf["d_measured_tfp"], irf["d_var_log_wage"],
            irf["d_var_log_tfpq"], irf["d_var_log_tfpr"])
    for j, col in enumerate(cols):
        assert col.shape == (horizon + 1,)
        scale = np.max(np.abs(ref[:, j]))
        assert np.max(np.abs(col - ref[:, j])) <= 1e-12 * scale, j


class TestSteadyState:
    def test_euler_condition_holds(self, table):
        params, chain = table
        for z, frozen in [(0.0, K_STAR_BOOM), (chain.z_high, K_STAR_RECESSION)]:
            k_star, c_star = sc.steady_state(params, z)
            eq = sc.solve_static(params, sc.AggregateShockState(z=z), k_star)
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
        r1 = sc.solve_static(params, sc.AggregateShockState(z=0.0), 1.0).R
        implied = (r1 / R_STAR) ** (1.0 / (1.0 - params.alpha))
        assert sc.steady_state(params, 0.0)[0] == pytest.approx(implied, rel=1e-9)

    def test_bit_identical_to_the_full_bisection(self, steady_states):
        # the bisection stops once its bracket stops shrinking; the 200 steps
        # it used to take all the same land on the same bits
        for params, z, want in steady_states:
            assert sc.steady_state(params, z) == want, (params, z)

    def test_at_most_70_static_solves(self, steady_states, monkeypatch):
        # each bisection step evaluates the aggregates at one K; the 200-step
        # bisection took 208
        calls = []
        aggregates = statics.aggregates
        monkeypatch.setattr(statics, "aggregates",
                            lambda *args: calls.append(1) or aggregates(*args))
        for params, z, _ in steady_states:
            calls.clear()
            sc.steady_state(params, z)
            assert len(calls) <= 70, (params, z, len(calls))


@pytest.fixture(scope="module")
def steady_states(table):
    """(params, z, (K*, C*) of the full bisection) at z = 0 and at the
    published z_high, for the published parameters and the first 20 seeded
    valid parameter points whose capital demand is bounded at both."""
    params, chain = table
    out = [(params, z, oracles.steady_state_oracle(params, z)) for z in chain.z_states]
    for p in verify.random_valid_params(40, seed=20_261_019):
        with contextlib.suppress(sc.UnboundedCapitalDemand):
            out += [(p, z, oracles.steady_state_oracle(p, z)) for z in chain.z_states]
        if len(out) == 42:
            return out
    raise AssertionError("fewer than 20 of 40 parameter points have steady states")


class TestGridSpec:
    def test_defaults(self):
        # perfbench/record_references.py derives the capital hull from these
        spec = sc.GridSpec()
        assert (spec.n, spec.lo_frac, spec.hi_frac) == (400, 0.5, 1.5)
        assert sc.GridSpec(n=400) == spec

    def test_holds_the_fractions_as_python_floats(self):
        spec = sc.GridSpec(n=50, lo_frac=20, hi_frac=np.float64(21.0))
        assert (spec.lo_frac, spec.hi_frac) == (20.0, 21.0)
        assert type(spec.lo_frac) is float and type(spec.hi_frac) is float

    @pytest.mark.parametrize("field, value", [
        ("lo_frac", math.nan), ("lo_frac", True), ("lo_frac", "0.5"), ("lo_frac", None),
        ("hi_frac", math.inf), ("hi_frac", math.nan), ("hi_frac", np.float32(2.0)),
    ])
    def test_fraction_that_is_no_finite_real_is_named(self, field, value):
        with pytest.raises(sc.DomainError, match=rf"^{field} must be a finite real number"):
            sc.GridSpec(**{field: value})

    @pytest.mark.parametrize("n", [2.5, 400.0, True, "400", None])
    def test_node_count_that_is_no_integer_is_named(self, n):
        with pytest.raises(sc.DomainError, match=r"^n must be an integer, got "):
            sc.GridSpec(n=n)

    def test_infinite_ceiling_is_no_policy(self, table):
        # it once gave a Policy whose ceiling node was inf, with numpy
        # RuntimeWarnings as the only sign
        params, chain = table
        with pytest.raises(sc.DomainError, match="hi_frac"):
            sc.solve_policy(params, chain, grid_spec=sc.GridSpec(hi_frac=math.inf))

    def test_floor_above_a_nodes_resources_is_no_policy(self, table):
        # a floor of 10 times the boom steady state exceeds what the lowest
        # nodes can produce and keep
        params, chain = table
        with pytest.raises(sc.DomainError, match=r"^grid floor K=177\.595 leaves no consumption "
                                                 r"at 2 nodes: resources there do not exceed it$"):
            sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=50, lo_frac=10.0,
                                                                 hi_frac=11.0))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=1), "grid needs at least 2 nodes"),
        (dict(lo_frac=0.0), "grid fractions must satisfy 0 < lo < hi"),
        (dict(lo_frac=1.5, hi_frac=1.5), "grid fractions must satisfy 0 < lo < hi"),
    ])
    def test_range_rules_still_hold(self, kwargs, message):
        with pytest.raises(sc.DomainError, match=message):
            sc.GridSpec(**kwargs)


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
            shock = sc.AggregateShockState(z=chain.z_states[s])
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

    def test_euler_residuals_match_pointwise_oracle(self, table, policy):
        # all points at once vs one at a time, grid ends included
        params, _ = table
        g = np.random.default_rng(7)
        pts = np.concatenate([g.uniform(policy.K_grid[0], policy.K_grid[-1], 300),
                              [policy.K_grid[0], policy.K_grid[-1]] * 2])
        states = np.concatenate([g.integers(0, 2, 300), [0, 0, 1, 1]])
        got = sc.euler_residuals(policy, params, pts, states)
        ref = oracles.euler_residuals_oracle(policy, params, pts, states)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_euler_residuals_reject_other_params(self, table, policy):
        # the residuals are the policy's own; other parameters are an error,
        # not a different answer
        params, _ = table
        other = with_params(params, psi=0.6)
        with pytest.raises(sc.DomainError):
            sc.euler_residuals(policy, other, policy.K_grid[:3], np.zeros(3, dtype=np.int64))

    def test_euler_residuals_follow_the_policy_chain(self, table, policy):
        # a policy handed another chain reports residuals for that chain
        params, chain = table
        other = dataclasses.replace(policy, chain=dataclasses.replace(chain, p_stay_low=0.5))
        g = np.random.default_rng(11)
        pts = np.concatenate([g.uniform(policy.K_grid[0], policy.K_grid[-1], 200),
                              [policy.K_grid[0], policy.K_grid[-1]]])
        states = np.concatenate([g.integers(0, 2, 200), [1, 0]])
        got = sc.euler_residuals(other, params, pts, states)
        ref = oracles.euler_residuals_oracle(other, params, pts, states)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_no_convergence_raises(self, table):
        params, chain = table
        with pytest.raises(sc.NoConvergence):
            sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=80), max_iter=3)

    def test_carries_its_state_table_and_steady_states(self, table, policy):
        params, chain = table
        ref = dynamics.state_table(params, chain)
        for name in ("z", "Y", "income", "R", "w0", "measured_tfp"):
            assert np.array_equal(getattr(policy.table, name), getattr(ref, name)), name
        assert policy.k_star == tuple(sc.steady_state(params, z)[0] for z in chain.z_states)


class TestTimeIteration:
    @pytest.mark.parametrize("case", ["published", "delta-0.9-hi-frac-30", "calibration-point"])
    def test_matches_oracle_on_the_published_grid(self, table, policy, case):
        # the endogenous-grid solver against the reference bisection time
        # iteration on the same grid and tables: the two converge to rules a
        # tolerance apart, not in the same number of sweeps.  With delta 0.9
        # on the wide grid, the start max(res - K, 0.05 res) would give the
        # endogenous grid a non-monotone first sweep; at the calibration
        # point 15 recession nodes save the floor of the 120-node grid.
        params, chain = table
        if case == "delta-0.9-hi-frac-30":
            params = with_params(params, delta=0.9)
            policy = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=400, hi_frac=30.0))
        elif case == "calibration-point":
            params, chain = calibrate.assemble(CALIBRATION_POINT, params, chain)
            policy = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=120))
        assert policy.K_grid.shape[0] == (120 if case == "calibration-point" else 400)
        C, _, _ = oracles.policy_oracle(params, policy)
        np.testing.assert_allclose(policy.C, C, rtol=1e-5, atol=0)
        # the oracle's savings res - C at floor-binding nodes scatter by
        # rounding on both sides of the floor (-2 to +6 ulps at the
        # calibration point), so binding means within 16 ulps of it
        floor = policy.K_grid[0]
        oracle_binds = oracles.node_resources(policy) - C <= floor + 16 * np.spacing(floor)
        assert np.array_equal(policy.K_next <= floor, oracle_binds)
        if case == "calibration-point":
            assert np.sum(oracle_binds) == 15

    def test_floor_above_resources_raises(self, table):
        # a grid from 20 to 21 times K* has nodes whose resources do not cover
        # saving the floor: no consumption is feasible there
        params, chain = table
        with pytest.raises(sc.DomainError, match="grid floor"):
            sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=50, lo_frac=20, hi_frac=21))

    def test_converges_and_is_feasible(self, table):
        params, chain = table
        pol = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=60), tol=1e-10)
        assert pol.sup_diff < 1e-10
        assert np.all(pol.C > 0.0)
        assert np.all(pol.K_next >= pol.K_grid[0] - 1e-12)
        assert np.all(pol.K_next <= pol.K_grid[-1] + 1e-12)

    def test_deterministic_rerun(self, table):
        params, chain = table
        a = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=60), tol=1e-10)
        b = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=60), tol=1e-10)
        assert np.array_equal(a.C, b.C)
        assert a.n_iterations == b.n_iterations


class TestSimulate:
    def test_absorbing_boom_is_constant_at_steady_state(self, table):
        params, chain = table
        quiet = absorbing_boom(chain)
        pol = sc.solve_policy(params, quiet, grid_spec=sc.GridSpec(n=300))
        path = sc.simulate(pol, T=600, burn_in=100, seed=5, K0=K_STAR_BOOM)
        cols = path.columns()
        assert np.all(cols["z"] == 0.0)
        # the recorded series settle to the grid's fixed point, within 0.1%
        # of the analytic steady state, and stop moving
        assert np.max(np.abs(path.K / K_STAR_BOOM - 1.0)) < 1e-3
        assert np.ptp(path.K[-100:]) / K_STAR_BOOM < 1e-9
        assert np.ptp(cols["Y"][-100:]) / cols["Y"][-1] < 1e-9

    def test_degenerate_chain_converges_from_afar(self, table):
        params, chain = table
        quiet = absorbing_boom(chain)
        pol = sc.solve_policy(params, quiet, grid_spec=sc.GridSpec(n=300))
        path = sc.simulate(pol, T=501, burn_in=1, seed=5, K0=0.6 * K_STAR_BOOM)
        assert abs(path.K[-1] / K_STAR_BOOM - 1.0) < 1e-3

    def test_budget_identity_every_period(self, table, policy, table_path):
        params, _ = table
        path = table_path
        income = policy.table.income[path.states] * path.K ** params.alpha
        resid = (path.C[:-1] + path.K[1:] - (1.0 - params.delta) * path.K[:-1]
                 - income[:-1])
        assert np.max(np.abs(resid / income[:-1])) < 1e-10

    def test_bit_identical_reruns(self, policy):
        a = sc.simulate(policy, T=400, burn_in=50, seed=9).columns()
        b = sc.simulate(policy, T=400, burn_in=50, seed=9).columns()
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_published_moments_where_attainable(self, table_path):
        m = table_path.moments()
        assert m["labor_share"] == pytest.approx(0.6102, abs=0.02)
        assert m["wage_inequality"] == pytest.approx(0.7666, rel=0.15)

    def test_k_free_moments_are_period_averages(self, policy, table_path):
        # the state-share formula against averaging the per-period values
        m, table = table_path.moments(), policy.table
        s = table_path.states[table_path.burn_in:]
        for name, column in (("labor_share", "labor_share"), ("wage_inequality", "var_log_wage"),
                             ("var_log_tfpq", "var_log_tfpq"), ("var_log_tfpr", "var_log_tfpr")):
            assert m[name] == pytest.approx(np.mean(getattr(table, column)[s]), rel=1e-14,
                                           abs=0.0), name
        assert m["std_tfp"] == pytest.approx(np.std(table.measured_tfp[s]), rel=1e-14, abs=0.0)

    def test_t_must_exceed_burn_in(self, policy):
        with pytest.raises(sc.DomainError):
            sc.simulate(policy, T=50, burn_in=100, seed=1)

    @pytest.mark.parametrize("T,burn_in", [(0, -1), (20, -5)])
    def test_negative_burn_in_is_rejected(self, policy, T, burn_in):
        with pytest.raises(sc.DomainError):
            sc.simulate(policy, T=T, burn_in=burn_in, seed=1)

    def test_draws_states_from_the_policy_chain(self, table, variant_policy):
        # the chain comes with the policy: its z values and its stay
        # probabilities, never those of another chain
        _, chain = table
        variant = variant_chain(chain)
        path = sc.simulate(variant_policy, T=2000, burn_in=10, seed=11)
        assert set(np.unique(path.columns()["z"])) <= {0.0, 0.1}
        assert np.array_equal(path.states, dynamics.draw_state_path(variant, 2000, 11))

    def test_grid_exit_reported_with_period(self, policy):
        with pytest.raises(sc.GridExit) as err:
            sc.simulate(policy, T=200, burn_in=10, seed=1, K0=policy.K_grid[0] * 0.5)
        assert err.value.period == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_long_path_stays_on_the_default_grid(self, policy, seed):
        # the recession savings rule sits exactly on the grid floor at its
        # lowest node, so a long path can reach the floor but never leave
        assert np.all(policy.K_next[:, 0] >= policy.K_grid[0])
        path = sc.simulate(policy, T=100_000, burn_in=100, seed=seed)
        assert path.K.min() >= policy.K_grid[0]

    @pytest.mark.parametrize("seed,K0", [(1, None), (7, 0.8 * K_STAR_BOOM)],
                             ids=["steady-state-start", "low-start"])
    def test_matches_per_period_oracle(self, table, policy, seed, K0):
        # scaled K=1 table vs a full static solve at every (s_t, K_t)
        params, chain = table
        path = sc.simulate(policy, T=250, burn_in=20, seed=seed, K0=K0)
        ref = oracles.simulate_oracle(policy, params, chain, T=250, burn_in=20, seed=seed,
                                      K0=K0)
        assert np.array_equal(path.states, ref["states"])
        cols = path.columns()
        cols["income"] = policy.table.income[path.states] * path.K ** params.alpha
        for name in ("z", "K", "lambda_t", "var_log_wage", "var_log_tfpq", "var_log_tfpr"):
            assert np.array_equal(cols[name], ref[name]), name
        for name in ("Y", "C", "measured_tfp", "labor_share", "R", "w0", "income"):
            np.testing.assert_allclose(cols[name], ref[name], rtol=1e-12, atol=0,
                                       err_msg=name)

    def test_state_path_marginals(self, table):
        _, chain = table
        states = dynamics.draw_state_path(chain, 200_000, seed=77)
        pi = sc.stationary_distribution(chain)
        assert np.mean(states) == pytest.approx(pi[1], abs=0.01)


class TestStatePath:
    def test_transition_rule(self, monkeypatch):
        u = np.array([0.1, 0.98, 0.5, 0.99, 0.1])
        monkeypatch.setattr(dynamics, "block_uniforms", lambda *args: u[:, None])
        chain = sc.MarkovChain2(z_high=0.4, p_stay_low=0.9, p_stay_high=0.8)
        s = dynamics.draw_state_path(chain, u.shape[0], seed=0)
        # stays while u < p_stay, flips otherwise
        assert list(s) == [0, 1, 1, 0, 0]


def interp_capital_path(policy, K0, states):
    """The capital recursion as one scalar np.interp per period."""
    out = np.empty(states.shape[0] + 1)
    out[0] = K0
    for t, s in enumerate(states.tolist()):
        out[t + 1] = np.interp(out[t], policy.K_grid, policy.K_next[s])
    return out


class TestCapitalPath:
    def one_step(self, policy, K, s):
        return dynamics._capital_path(policy, K, np.array([s]))[1]

    @pytest.mark.parametrize("s", [0, 1])
    def test_is_np_interp_bit_for_bit(self, policy, s):
        # random points inside and beyond the grid, every node, both ends,
        # points just inside and outside them
        grid = policy.K_grid
        lo, hi = grid[0], grid[-1]
        points = np.concatenate([
            np.random.default_rng(5).uniform(0.5 * lo, 1.5 * hi, 2000), grid,
            [lo, hi, np.nextafter(lo, 0.0), np.nextafter(lo, np.inf),
             np.nextafter(hi, 0.0), np.nextafter(hi, np.inf), 0.0, 1e300]])
        got = np.array([self.one_step(policy, K, s) for K in points])
        want = np.interp(points, grid, policy.K_next[s])
        assert np.array_equal(got, want)
        assert np.array_equal(got[2000:2000 + grid.size], policy.K_next[s])

    def test_clamps_at_both_grid_ends(self, policy):
        grid, rule = policy.K_grid, policy.K_next
        for s in (0, 1):
            assert self.one_step(policy, 0.5 * grid[0], s) == rule[s, 0]
            assert self.one_step(policy, 2.0 * grid[-1], s) == rule[s, -1]

    def test_nan_stays_nan(self, policy):
        path = dynamics._capital_path(policy, float("nan"), np.array([0, 1, 0]))
        assert np.all(np.isnan(path))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_long_path_is_the_np_interp_recursion(self, table, policy, variant_policy, seed):
        _, chain = table
        states = dynamics.draw_state_path(chain, 10_000, seed)
        for pol, K0 in ((policy, policy.k_star[0]), (variant_policy, 0.7 * K_STAR_BOOM)):
            assert np.array_equal(dynamics._capital_path(pol, K0, states),
                                  interp_capital_path(pol, K0, states))


class TestImpulseResponse:
    def test_zero_shock_means_zero_irf(self, table):
        params, chain = table
        flat = dataclasses.replace(chain, z_high=0.0)
        pol = sc.solve_policy(params, flat, grid_spec=sc.GridSpec(n=250))
        irf = sc.impulse_response(pol, horizon=6, n_sims=40, seed=3)
        # the two (identical) states mix the expectation with different
        # weights, so the policy rows differ by ulps; zero holds to 1e-13
        for series in (irf["d_log_Y"], irf["d_measured_tfp"], irf["d_var_log_wage"],
                       irf["d_var_log_tfpq"], irf["d_var_log_tfpr"]):
            assert np.max(np.abs(series)) < 1e-13

    def test_impact_signs_and_magnitude(self, policy):
        irf = sc.impulse_response(policy, horizon=10, n_sims=300, seed=6)
        assert irf["d_log_Y"][0] < -0.05
        assert irf["d_measured_tfp"][0] < 0.0
        assert irf["d_var_log_tfpq"][0] > 0.0
        assert irf["d_var_log_tfpr"][0] > 0.0
        assert irf["d_var_log_wage"][0] < 0.0

    def test_output_gap_persists_beyond_impact(self, policy):
        # the treated path carries a lower capital stock for several periods
        # (the mean gap shrinks as treated episodes exit the recession, so
        # persistence, not deepening, is the testable statement)
        irf = sc.impulse_response(policy, horizon=10, n_sims=300, seed=6)
        assert np.all(irf["d_log_Y"][:6] < 0.0)
        assert np.all(irf["d_measured_tfp"][:6] < 0.0)

    @pytest.mark.parametrize("horizon,n_sims,seed", [(0, 9, 4), (1, 5, 8), (6, 70, 8)])
    def test_matches_scalar_oracle(self, table, policy, horizon, n_sims, seed):
        # every pair advanced together vs one pair at a time with a full
        # static solve per record
        params, chain = table
        irf = sc.impulse_response(policy, horizon=horizon, n_sims=n_sims, seed=seed)
        ref = oracles.irf_oracle(policy, params, chain, horizon, n_sims, seed)
        assert_irf_matches_oracle(irf, ref, horizon)

    def test_follows_the_policy_chain(self, table, variant_policy):
        # the oracle is handed the variant chain itself, so the policy must
        # supply the same chain to the presimulation and the episodes
        params, chain = table
        irf = sc.impulse_response(variant_policy, horizon=6, n_sims=70, seed=8)
        ref = oracles.irf_oracle(variant_policy, params, variant_chain(chain), 6, 70, 8)
        assert_irf_matches_oracle(irf, ref, 6)

    def test_negative_horizon_rejected(self, policy):
        with pytest.raises(sc.DomainError):
            sc.impulse_response(policy, horizon=-1, n_sims=4)

    @pytest.mark.parametrize("z_high", [0.05, 0.15, 0.3984, 0.7, 1.0])
    def test_impact_negative_for_any_positive_shock(self, table, z_high):
        params, chain = table
        variant = dataclasses.replace(chain, z_high=z_high)
        pol = sc.solve_policy(params, variant, grid_spec=sc.GridSpec(n=120))
        irf = sc.impulse_response(pol, horizon=0, n_sims=8, seed=2)
        assert irf["d_log_Y"][0] < 0.0
        assert irf["d_measured_tfp"][0] < 0.0

    def test_requires_at_least_one_episode(self, policy):
        with pytest.raises(sc.DomainError):
            sc.impulse_response(policy, n_sims=0)


#: solve_policy's stopping tolerance: the last sweep changed C by less than this
POLICY_TOL = inspect.signature(sc.solve_policy).parameters["tol"].default
#: room for rounding in the powers, logs, products and means, relative
ROUNDING = 1e3 * np.finfo(float).eps


@pytest.fixture(scope="module")
def full_depreciation(table):
    """The published point with delta = 1, where the savings rule is exact."""
    params, chain = table
    return dataclasses.replace(params, delta=1.0), chain


@pytest.fixture(scope="module")
def full_depreciation_policy(full_depreciation):
    return sc.solve_policy(*full_depreciation)


def one_row_scaled(policy, s):
    """``policy`` with the savings of state s scaled by 1.0001: the negative control."""
    K_next = policy.K_next.copy()
    K_next[s] *= 1.0001
    return dataclasses.replace(policy, K_next=K_next)


def log_step(policy):
    return float(np.max(np.diff(np.log(policy.K_grid))))


def node_bound(policy):
    """(2, n) bound on |K_next - sigma_s I1_s K^alpha| at the nodes from the
    solver's tolerance.

    At delta = 1 a sweep maps a relative error e in C to at most sigma_s
    e^(Delta ln K) times e: the Euler equation passes e on to consumption at
    K', and inverting resources m = c + K', whose slope in K' is 1/sigma,
    passes on sigma times it, interpolated within one cell.  A contraction of
    modulus q ends within q / (1 - q) of its last change, and the last change
    is below tol / min C in relative terms.  K_next = resources - C carries
    C's error.
    """
    sigma = oracles.full_depreciation_shares(policy)
    rule = oracles.full_depreciation_savings(policy, policy.K_grid[None, :], [[0], [1]])
    C = oracles.node_resources(policy) - rule
    q = np.max(sigma) * math.exp(log_step(policy))
    return q / (1.0 - q) * POLICY_TOL * C / np.min(C)


def path_bound(policy):
    """Relative bound on the savings rule between the nodes: the nodes' error
    plus linear interpolation's a-priori error for c K^alpha on a cell from a
    to a e^h, alpha (1 - alpha) / 8 ((b - a) / a)^2 = alpha (1 - alpha) / 8
    (e^h - 1)^2, with f'' at its largest, at a."""
    alpha, h = policy.params.alpha, log_step(policy)
    rule = oracles.full_depreciation_savings(policy, policy.K_grid[None, :], [[0], [1]])
    nodes = np.max(node_bound(policy) / rule) * math.exp(alpha * h)
    return alpha * (1.0 - alpha) / 8.0 * math.expm1(h) ** 2 + nodes + ROUNDING


class TestFullDepreciationOracle:
    """The dynamic block against the exact savings rule of delta = 1
    (``oracles.full_depreciation_shares``).  Each check passes on the solved
    policy and fails on it with one row of K_next scaled by 1.0001."""

    @staticmethod
    def node_excess(policy):
        rule = oracles.full_depreciation_savings(policy, policy.K_grid[None, :], [[0], [1]])
        return np.max(np.abs(policy.K_next - rule) / node_bound(policy))

    @staticmethod
    def path_excess(policy, solved):
        path = sc.simulate(policy, T=10_000, burn_in=100, seed=1)
        rule = oracles.full_depreciation_savings(policy, path.K[:-1], path.states[:-1])
        return np.max(np.abs(path.K[1:] / rule - 1.0)) / path_bound(solved)

    @staticmethod
    def consumption_excess(policy, solved):
        path = sc.simulate(policy, T=10_000, burn_in=100, seed=1)
        sigma = oracles.full_depreciation_shares(solved)
        exact = (1.0 - sigma[path.states]) * solved.table.income[path.states] * path.K ** solved.params.alpha
        # C = income - K' carries K''s error, sigma / (1 - sigma) times C's size
        bound = path_bound(solved) * np.max(sigma / (1.0 - sigma)) + ROUNDING
        return np.max(np.abs(path.C / exact - 1.0)) / bound

    @staticmethod
    def irf_excess(policy, solved):
        irf = sc.impulse_response(policy, horizon=20, n_sims=1000, seed=3)
        gap = solved.table.measured_tfp[1] - solved.table.measured_tfp[0]
        predicted = oracles.full_depreciation_log_y_response(solved, irf["d_measured_tfp"] / gap)
        # each path's log K' is off the rule by at most -log(1 - path_bound);
        # the gap of two paths carries twice that, damped by alpha per period
        alpha, step = solved.params.alpha, -math.log1p(-path_bound(solved))
        bound = alpha * 2.0 * step / (1.0 - alpha) + ROUNDING
        return np.max(np.abs(irf["d_log_Y"] - predicted)) / bound

    @pytest.mark.parametrize("n", [50, 400])
    @pytest.mark.parametrize("lo_frac", [0.5, 0.3, 0.1])
    def test_policy_at_every_node(self, full_depreciation, n, lo_frac):
        policy = sc.solve_policy(*full_depreciation, grid_spec=sc.GridSpec(n=n, lo_frac=lo_frac))
        assert self.node_excess(policy) <= 1.0
        for s in (0, 1):
            assert self.node_excess(one_row_scaled(policy, s)) > 1.0, s

    def test_savings_rule_along_a_path(self, full_depreciation_policy):
        policy = full_depreciation_policy
        assert self.path_excess(policy, policy) <= 1.0
        for s in (0, 1):
            assert self.path_excess(one_row_scaled(policy, s), policy) > 1.0, s

    def test_simulated_consumption(self, full_depreciation_policy):
        policy = full_depreciation_policy
        assert self.consumption_excess(policy, policy) <= 1.0
        for s in (0, 1):
            assert self.consumption_excess(one_row_scaled(policy, s), policy) > 1.0, s

    def test_impulse_response_is_a_linear_filter_of_the_state_gap(self,
                                                                  full_depreciation_policy):
        policy = full_depreciation_policy
        assert self.irf_excess(policy, policy) <= 1.0
        for s in (0, 1):
            assert self.irf_excess(one_row_scaled(policy, s), policy) > 1.0, s
