import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sortcycles as sc
from sortcycles import UnboundedCapitalDemand

from .oracles import central_diff, fixed_point_residual, gaussian_expectation, lambda_oracle

# frozen by the bisection oracle below (rerun live in test_matches_bisection_oracle)
LAMBDA_BOOM = 0.7464676603475053
LAMBDA_RECESSION = 1.5612864644124769


def with_params(params, **overrides):
    fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(sc.ModelParams)}
    fields.update(overrides)
    return sc.validate(sc.ModelParams(**fields))


class TestSolveLambda:
    def test_matches_bisection_oracle(self, table):
        params, chain = table
        for z, frozen in [(0.0, LAMBDA_BOOM), (chain.z_high, LAMBDA_RECESSION)]:
            shock = sc.AggregateShockState(z=z)
            got = sc.solve_lambda(params, shock)
            assert got == pytest.approx(lambda_oracle(params, z), abs=1e-10)
            assert got == pytest.approx(frozen, abs=1e-9)

    def test_residual_tolerance(self, table):
        params, chain = table
        for z in (0.0, chain.z_high):
            shock = sc.AggregateShockState(z=z)
            lam = sc.solve_lambda(params, shock)
            resid = abs(float(fixed_point_residual(params, shock, lam)))
            assert resid <= 1e-12 * max(1.0, params.lambda_theta)

    def test_recession_root_is_strictly_larger(self, table):
        # lambda_t falls when z falls; z_h > 0 means a larger root than the boom
        params, chain = table
        assert LAMBDA_RECESSION > LAMBDA_BOOM
        lam0 = sc.solve_lambda(params, sc.AggregateShockState(z=0.0))
        lamh = sc.solve_lambda(params, sc.AggregateShockState(z=chain.z_high))
        assert lamh > lam0

    def test_psi_zero_closed_form(self, table):
        params, _ = table
        p0 = with_params(params, psi=0.0, lambda_theta=6.0)
        shock = sc.AggregateShockState(z=0.25)
        denom = 1.0 + (1.0 - p0.alpha - p0.gamma) * (p0.xi - 1.0)
        b = (p0.xi - 1.0) / denom
        d = (1.0 + (p0.xi - 1.0) * (1.0 - p0.alpha)) / denom
        assert sc.solve_lambda(p0, shock) == pytest.approx(6.0 + d * 0.25 - b, abs=1e-12)

    def test_psi_zero_without_root_raises(self, table):
        params, _ = table
        p0 = with_params(params, psi=0.0, lambda_theta=2.0)  # b = 4.44 > target
        with pytest.raises(sc.NoRoot):
            sc.solve_lambda(p0, sc.AggregateShockState(z=0.0))

    def test_tiny_psi_underflowing_root_raises(self, table):
        # b = 4.44 > target = 2.616, so the root lambda_x (target/b)^(1/psi)
        # underflows; the Newton slope overflows on the way down
        params, _ = table
        p = with_params(params, psi=1.8463183175100548e-05)
        with pytest.raises(sc.NoRoot):
            sc.solve_lambda(p, sc.AggregateShockState(z=0.0))

    def test_underflowing_slope_raises_the_underflowing_root(self, table):
        # psi near 0 and a large lambda_x: the Newton slope meets a
        # lam/lambda_x that underflows to 0, once a ZeroDivisionError
        params, _ = table
        p = with_params(params, psi=0.0005470035633374955, lambda_x=36.60824475548099,
                        lambda_theta=0.3088276072852493, gamma=0.23570371159269,
                        xi=4.304384207882934)
        with pytest.raises(sc.NoRoot, match="underflows"):
            sc.solve_lambda(p, sc.AggregateShockState(z=0.06250966489027221))

    def test_root_beyond_the_float_range_raises(self, table):
        # b = -3.6 and (lam/lambda_x)^psi ~ 4700 lam: G stays negative while
        # the bracket doubles up to the float range
        params, _ = table
        p = with_params(params, psi=0.99039, lambda_x=2.1066e-4, lambda_theta=0.9087,
                        gamma=0.27466, xi=1.8848)
        with pytest.raises(sc.NoRoot, match="bracket"):
            sc.solve_lambda(p, sc.AggregateShockState(z=0.1463))

    def test_monotone_in_z_on_grid(self, table):
        params, _ = table
        zs = np.linspace(0.0, 1.5, 50)
        lams = [sc.solve_lambda(params, sc.AggregateShockState(z=z))
                for z in zs]
        assert np.all(np.diff(lams) > 0.0)

    def test_neutral_in_A_and_sigma_bitwise(self, table):
        params, chain = table
        base = sc.AggregateShockState(z=chain.z_high)
        ref = sc.solve_lambda(params, base)
        for A in (0.5, 1.0, 2.0):
            assert sc.solve_lambda(params, dataclasses.replace(base, A=A)) == ref
        for s1 in (0.0, 0.3):
            for s2 in (0.0, 0.3):
                got = sc.solve_lambda(with_params(params, sigma1=s1, sigma2=s2), base)
                assert got == ref

    def test_negative_b_branch(self, table):
        # psi large and gamma small flips the sign of b; the root still sits
        # on the increasing branch and matches the oracle
        params, _ = table
        p = with_params(params, psi=0.9, gamma=0.2, alpha=0.3, lambda_theta=3.0)
        shock = sc.AggregateShockState(z=0.4)
        got = sc.solve_lambda(p, shock)
        assert got == pytest.approx(lambda_oracle(p, 0.4, 3.0), rel=1e-10)

    @given(alpha=st.floats(0.05, 0.6), gamma_frac=st.floats(0.15, 0.95),
           xi=st.floats(1.3, 15.0), psi=st.floats(0.05, 0.9),
           lam_x=st.floats(0.3, 8.0), lam_th=st.floats(0.5, 8.0),
           z=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_root_property(self, alpha, gamma_frac, xi, psi, lam_x, lam_th, z):
        # residual within tolerance and strictly increasing in z.  Roots
        # beyond ~1e4 (the deep negative-b corner) are excluded: there the
        # absolute tolerance falls below the floating-point cancellation
        # floor of G's terms, which is a representation limit, not a solver
        # property.
        gamma = gamma_frac * (0.97 - alpha)
        p = sc.validate(sc.ModelParams(alpha=alpha, gamma=gamma, delta=0.1, beta=0.96,
                                       xi=xi, psi=psi, lambda_x=lam_x, lambda_theta=lam_th,
                                       sigma1=0.1, sigma2=0.0))
        shock = sc.AggregateShockState(z=z)
        lam = sc.solve_lambda(p, shock)
        assert lam >= 0.0
        assume(lam < 1e4)
        assert abs(float(fixed_point_residual(p, shock, lam))) <= 1e-12 * max(1.0, lam_th)
        lam_up = sc.solve_lambda(p, sc.AggregateShockState(z=z + 0.05))
        assert lam_up > lam


class TestCoefficients:
    def test_degenerate_case_collapses(self, table):
        # sigma1=sigma2=0, z=0, psi=0: B1=1 and B2=B3=1/(lambda_theta - kappa eta_q)
        params, _ = table
        p0 = with_params(params, psi=0.0, sigma1=0.0, sigma2=0.0, lambda_theta=6.0)
        shock = sc.AggregateShockState(z=0.0)
        lam = sc.solve_lambda(p0, shock)
        c = sc.coefficients(p0, shock, lam)
        assert c.eta_q_theta == pytest.approx(1.0, abs=0)
        assert c.b1 == pytest.approx(1.0, abs=0)
        expected = 1.0 / (6.0 - p0.kappa * p0.eta_q)
        assert c.b2 == pytest.approx(expected, rel=1e-14)
        assert c.b3 == pytest.approx(expected, rel=1e-14)

    def test_b_constants_against_gauss_hermite(self, table):
        # the numerators are E[exp(loading * eps)] products; integrate them
        params, _ = table
        p = with_params(params, sigma2=0.15)  # make the eps2 dimension live
        shock = sc.AggregateShockState(z=0.0)
        lam = sc.solve_lambda(p, shock)
        c = sc.coefficients(p, shock, lam)
        ke = p.kappa * p.eta_q
        margin = p.lambda_theta - ke * c.eta_q_theta
        assert c.margin == margin

        e1_l = gaussian_expectation(lambda e: np.exp(-(ke * p.gamma + 1.0) * e), p.sigma1)
        e2_l = gaussian_expectation(lambda e: np.exp(-ke * p.alpha * e), p.sigma2)
        assert c.b1 == pytest.approx(e1_l * e2_l, rel=1e-10)

        e1_k = gaussian_expectation(lambda e: np.exp(-ke * p.gamma * e), p.sigma1)
        e2_k = gaussian_expectation(lambda e: np.exp(-(ke * p.alpha + 1.0) * e), p.sigma2)
        assert c.b2 == pytest.approx(e1_k * e2_k / margin, rel=1e-10)

        e2_g = gaussian_expectation(lambda e: np.exp(-ke * p.alpha * e), p.sigma2)
        assert c.b3 == pytest.approx(e1_k * e2_g / margin, rel=1e-10)

    def test_eta_l_theta_restates_fixed_point(self, table):
        # at the solved lambda, eta_l_theta = lambda_theta - lambda_t
        params, chain = table
        for z in (0.0, chain.z_high):
            shock = sc.AggregateShockState(z=z)
            lam = sc.solve_lambda(params, shock)
            c = sc.coefficients(params, shock, lam)
            assert c.eta_l_theta == pytest.approx(params.lambda_theta - lam, abs=1e-12)

    def test_guard_raises(self, table):
        params, _ = table
        thin = with_params(params, lambda_theta=0.5)  # margin goes negative
        shock = sc.AggregateShockState(z=0.0)
        lam = sc.solve_lambda(thin, shock)
        with pytest.raises(UnboundedCapitalDemand):
            sc.coefficients(thin, shock, lam)


GOLDEN_K = 30.6347042358609  # steady-state capital at z=0 (Euler oracle below)
GOLDEN_BOOM = {
    "lambda_t": 0.7464676603475054,
    "w0": 1.5879998096616401,
    "R": 0.1416666666666667,
    "Y": 16.274686625301115,
    "Q_bar": 0.3946869331737668,
    "k_bar": 1.123122495933772,
    "chi_bar": 1.3437571814015803,
    "l_bar": 0.2003892182974333,
    "M": 41.23441963085194,
    "C_in": 0.6894473384960134,
    "Y_l": 10.252287231005475,
    "Y_k": 4.339916433413631,
    "Y_d": 3.2549373250602236,
}


class TestAggregates:
    def test_golden_vector(self, table):
        # frozen output, cross-validated by the verify module's independent
        # market-clearing quadrature (test_verify / acceptance criterion 3)
        params, _ = table
        shock = sc.AggregateShockState(z=0.0)
        eq = sc.solve_static(params, shock, GOLDEN_K)
        for name, value in GOLDEN_BOOM.items():
            assert getattr(eq, name) == pytest.approx(value, rel=1e-12), name

    def test_production_identity(self, table, boom_eq, recession_eq):
        # Q_bar = A k_bar^alpha l_bar^gamma (the defining identity, with the
        # labor exponent that the production function requires)
        params, _ = table
        for eq in (boom_eq, recession_eq):
            rhs = eq.shock.A * eq.k_bar ** params.alpha * eq.l_bar ** params.gamma
            assert eq.Q_bar == pytest.approx(rhs, rel=1e-10)

    def test_labor_market_closure(self, table, boom_eq, recession_eq):
        params, _ = table
        for eq in (boom_eq, recession_eq):
            assert params.lambda_theta * eq.coefficients.b1 * eq.l_bar == \
                pytest.approx(eq.lambda_t, rel=1e-10)

    def test_y_equals_m_qbar(self, boom_eq):
        assert boom_eq.Y == pytest.approx(boom_eq.M * boom_eq.Q_bar, rel=1e-14)

    def test_positivity(self, boom_eq, recession_eq):
        for eq in (boom_eq, recession_eq):
            for name in ("w0", "R", "Y", "Q_bar", "k_bar", "chi_bar", "l_bar"):
                assert getattr(eq, name) > 0.0

    def test_w0_homogeneity(self, table):
        params, _ = table
        z = 0.1
        base = sc.solve_static(params, sc.AggregateShockState(z=z), 5.0)
        double_a = sc.solve_static(params, sc.AggregateShockState(z=z, A=2.0), 5.0)
        assert double_a.w0 == pytest.approx(2.0 * base.w0, rel=1e-12)
        double_k = sc.solve_static(params, sc.AggregateShockState(z=z), 10.0)
        assert double_k.w0 == pytest.approx(2.0 ** params.alpha * base.w0, rel=1e-12)

    def test_rejects_nonpositive_capital(self, table, boom_eq):
        params, _ = table
        with pytest.raises(sc.DomainError):
            sc.aggregates(params, boom_eq.shock, boom_eq.lambda_t, boom_eq.coefficients, 0.0)


class TestFactorIncomes:
    def test_no_wedges_no_resource_loss(self, table):
        # z=0 and sigma1=sigma2=0: factor incomes exhaust output
        params, _ = table
        clean = with_params(params, sigma1=0.0, sigma2=0.0)
        eq = sc.solve_static(clean, sc.AggregateShockState(z=0.0), 3.0)
        assert eq.Y_l + eq.Y_k + eq.Y_d == pytest.approx(eq.Y, rel=1e-10)

    def test_wedges_create_income_output_gap(self, boom_eq, recession_eq):
        # the wedges move resources both ways: at the published parameters the
        # household receives 1.0966 Y in booms and 0.7444 Y in recessions
        assert boom_eq.household_income / boom_eq.Y == pytest.approx(1.0966, abs=1e-4)
        assert recession_eq.household_income / recession_eq.Y == pytest.approx(0.7444, abs=1e-4)
        assert boom_eq.Y_l + boom_eq.Y_k + boom_eq.Y_d > boom_eq.Y
        assert recession_eq.Y_l + recession_eq.Y_k + recession_eq.Y_d < recession_eq.Y

    def test_capital_income_share(self, table, boom_eq, recession_eq):
        # with sigma2 = 0, B2 = B3 exactly, so Y_k/Y = alpha * kappa
        params, _ = table
        for eq in (boom_eq, recession_eq):
            assert eq.Y_k / eq.Y == pytest.approx(params.alpha * params.kappa, rel=1e-12)

    def test_capital_income_equals_rk(self, boom_eq, recession_eq):
        for eq in (boom_eq, recession_eq):
            assert eq.Y_k == pytest.approx(eq.R * eq.K, rel=1e-12)

    def test_quadrature_oracle(self, table, boom_eq):
        # integrate the firm-level payment decomposition against the type and
        # wedge distributions; factor incomes must match.  The type density is
        # folded into the exponent: the wage bill of a type-theta firm alone
        # overflows where the density-weighted integrand is still tiny.
        from scipy import integrate

        params, _ = table
        eq = boom_eq
        shock = eq.shock
        slope = (params.psi / params.gamma) * (params.lambda_x / eq.lambda_t) ** (1.0 - params.psi)
        c = eq.coefficients
        ke = params.kappa * params.eta_q
        lt = params.lambda_theta
        margin = c.margin

        gauss_l = gaussian_expectation(
            lambda e: np.exp(-(ke * params.gamma + 1.0) * e), params.sigma1)

        def labor_income_density(theta):
            log_wl = (slope * (eq.lambda_t / params.lambda_x) * theta
                      + c.eta_l_theta * theta - lt * theta)
            return eq.w0 * eq.l_bar * gauss_l * lt * math.exp(log_wl)

        y_l, _ = integrate.quad(labor_income_density, 0.0, 50.0 / (margin + shock.z),
                                epsabs=1e-13, epsrel=1e-12, limit=400)
        assert y_l == pytest.approx(eq.Y_l, rel=1e-8)

        gauss_k = gaussian_expectation(lambda e: np.exp(-ke * params.gamma * e), params.sigma1)

        def capital_density(theta):
            return eq.R * eq.k_bar * gauss_k * lt * math.exp((ke * c.eta_q_theta - lt) * theta)

        y_k, _ = integrate.quad(capital_density, 0.0, 50.0 / margin,
                                epsabs=1e-13, epsrel=1e-12, limit=400)
        assert y_k == pytest.approx(eq.Y_k, rel=1e-8)

    def test_labor_income_guard(self, table):
        params, _ = table
        thin = with_params(params, lambda_theta=0.5)
        shock = sc.AggregateShockState(z=0.0)
        lam = sc.solve_lambda(thin, shock)
        with pytest.raises(UnboundedCapitalDemand):
            sc.coefficients(thin, shock, lam)


class TestMeasuredTFP:
    def test_unit_capital(self, table, boom_eq):
        assert sc.measured_tfp(boom_eq) == pytest.approx(math.log(boom_eq.Y), abs=1e-14)

    def test_a_elasticity_is_one(self, table):
        # exact from the price-block composition; checked by finite difference
        params, _ = table
        p0 = with_params(params, psi=0.0, lambda_theta=6.0)
        shock0 = sc.AggregateShockState(z=0.0)

        def tfp_of_log_a(log_a):
            shock = dataclasses.replace(shock0, A=math.exp(log_a))
            return sc.measured_tfp(sc.solve_static(p0, shock, 4.0))

        slope = central_diff(tfp_of_log_a, 0.0, 1e-6)
        assert slope == pytest.approx(1.0, rel=1e-6)

    def test_recession_tfp_is_lower(self, table):
        params, chain = table
        K = 12.0
        boom = sc.solve_static(params, sc.AggregateShockState(z=0.0), K)
        rec = sc.solve_static(params, sc.AggregateShockState(z=chain.z_high), K)
        assert sc.measured_tfp(boom) > sc.measured_tfp(rec)

    def test_invariant_to_capital(self, table):
        # Y scales exactly with K^alpha, so measured TFP is capital-free
        params, _ = table
        shock = sc.AggregateShockState(z=0.1)
        tfps = [sc.measured_tfp(sc.solve_static(params, shock, K)) for K in (0.5, 3.0, 40.0)]
        assert np.ptp(tfps) < 1e-12
