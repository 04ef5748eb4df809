"""Within-period equilibrium: the job-distribution rate, coefficient block,
the K-free dispersions, aggregate prices and quantities given (K, shock
state), and the deterministic steady state of a fixed shock state.

The period problem separates cleanly.  The employment-weighted distribution
of job types is exponential with rate lambda_t, and lambda_t solves a single
scalar equation

    G(lam) = b * (lam/lambda_x)^psi + lam - (d*z + lambda_theta) = 0

that involves no prices.  Given lambda_t, a block of loadings (eta's) and
lognormal market constants (B1, B2, B3) turns the three market-clearing
conditions into closed forms for w0, R and Y; every firm-level object is then
an exponential tilt of the scale constants Q_bar, k_bar, chi_bar, l_bar.

Each K-free formula is written here once: G, the type ratio with eta_q_theta,
the coefficients and the dispersions.  The lambda-level formulas
(:func:`dispersions`, :func:`tfpr_type_loading`) take (params, shock,
lambda_t), since they also serve where no equilibrium is solved.  The shock
state is (z, A) alone: the firm-type rate lambda_theta and the wedge
volatilities sigma1, sigma2 come from ``params``.

All powers are evaluated in log space: the xi/(xi-1)-type exponents applied
to large market constants would otherwise overflow for thick-tailed
calibrations.

Everything here is scalar and needs the standard library alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import BracketFailure, DomainError, NonFinite, NoRoot, UnboundedCapitalDemand
from .params import AggregateShockState, ValidatedParams

#: |log x| above which exp(x) is treated as an overflow rather than a value
EXP_CAP = 700.0

#: residual tolerance for the fixed point, scaled by max(1, lambda_theta)
LAMBDA_TOL = 1e-12

_EPS = sys.float_info.epsilon


def _exp_checked(logx: float) -> float:
    if abs(logx) > EXP_CAP:
        raise NonFinite(f"log magnitude {logx:.3g} exceeds the exp cap {EXP_CAP:g}")
    return math.exp(logx)


def _job_equation(params: ValidatedParams, shock: AggregateShockState):
    """(G, b, T): the job-distribution residual G(lam) = b (lam/lambda_x)^psi + lam - T,
    with b, d and T = d z + lambda_theta computed once for every evaluation.
    b may take either sign; d > 0 scales the market-efficiency shock."""
    a, g, psi, xi, lam_x = params.alpha, params.gamma, params.psi, params.xi, params.lambda_x
    denom = 1.0 + (1.0 - a - g) * (xi - 1.0)
    b = ((xi - 1.0) * (g - psi * (1.0 - a)) - psi) / (g * denom)
    d = (1.0 + (xi - 1.0) * (1.0 - a)) / denom
    target = d * shock.z + params.lambda_theta

    def G(lam):
        return b * (lam / lam_x) ** psi + lam - target

    return G, b, target


def _root_bracket(params: ValidatedParams, G, b: float, target: float) -> float:
    """The top of the sign-change bracket [0, hi] of the G of :func:`_job_equation`.
    It starts at the analytic upper bound T + |b| (1 + T/lambda_x)^psi + 1 and
    is doubled while G is still negative there, which can happen for extreme
    (psi near 1, tiny lambda_x) corners of the parameter space."""
    hi = target + abs(b) * (1.0 + target / params.lambda_x) ** params.psi + 1.0
    for _ in range(2000):
        if G(hi) > 0.0:
            return hi
        hi *= 2.0
    # G grows without bound, but with b < 0, psi near 1 and a tiny lambda_x
    # its root can lie beyond the float range
    raise NoRoot("failed to bracket the job-distribution root")


def solve_lambda(params: ValidatedParams, shock: AggregateShockState) -> float:
    """Unique nonnegative root of the job-distribution equation.

    The root always lies on the increasing branch of G (strict convexity when
    b < 0), so a sign-change bracket (:func:`_root_bracket`) plus safeguarded
    Newton converges unconditionally.
    """
    psi, lam_x = params.psi, params.lambda_x
    G, b, target = _job_equation(params, shock)  # T > 0 for valid inputs

    def Gprime(lam: float) -> float:
        if psi == 0.0 or lam == 0.0:
            return 1.0
        try:
            return b * psi / lam_x * (lam / lam_x) ** (psi - 1.0) + 1.0
        except (OverflowError, ZeroDivisionError):
            # psi near 0: a denormal lam overflows the slope, and a lam/lam_x
            # that underflows to 0 leaves 0 to a negative power
            return math.copysign(math.inf, b)

    # degenerate psi edges make G affine; the uniqueness argument needs 0 < psi < 1
    if psi == 0.0:
        root = target - b
        if root < 0.0:
            raise NoRoot(f"psi=0 linear equation has negative root {root:.6g}")
        return root
    if psi == 1.0:
        slope = 1.0 + b / lam_x
        if slope <= 0.0:
            raise NoRoot("psi=1 equation has nonpositive slope; no nonnegative root")
        return target / slope

    lo, hi = 0.0, _root_bracket(params, G, b, target)

    # bisection depth covers roots down to the denormal range: for psi near 0
    # with b > target the root is lambda_x (target/b)^(1/psi), which can be
    # astronomically small yet still representable
    tol = LAMBDA_TOL * max(1.0, params.lambda_theta)
    x = 0.5 * (lo + hi)
    for _ in range(1200):
        gx = G(x)
        if abs(gx) <= tol:
            return x
        if gx > 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= 8.0 * _EPS * hi:
            # bracket collapsed to relative machine precision: the residual
            # floor is set by cancellation among G's terms, not by the root
            return 0.5 * (lo + hi)
        gp = Gprime(x)
        if gp > 0.0:
            xn = x - gx / gp
            if lo < xn < hi:
                x = xn
                continue
        x = 0.5 * (lo + hi)
    if abs(G(x)) <= tol:
        return x
    raise NoRoot(f"job-distribution root underflows double precision "
                 f"(stalled at residual {G(x):.3g})")


def _type_loadings(params: ValidatedParams, shock: AggregateShockState,
                   lambda_t: float) -> tuple[float, float]:
    """(ratio, eta_q_theta): the type ratio (lambda_t/lambda_x)^psi, log TFPQ's slope
    in firm type, and log output's type loading -gamma z + (1 - psi) ratio."""
    ratio = (lambda_t / params.lambda_x) ** params.psi
    return ratio, -params.gamma * shock.z + (1.0 - params.psi) * ratio


def tfpr_type_loading(params: ValidatedParams, shock: AggregateShockState,
                      lambda_t: float) -> float:
    """Slope of log TFPR in firm type, (lambda_t/lambda_x)^psi - eta_q eta_q_theta / xi."""
    ratio, eta_q_theta = _type_loadings(params, shock, lambda_t)
    return ratio - params.eta_q * eta_q_theta / params.xi


def dispersions(params: ValidatedParams, shock: AggregateShockState,
                lambda_t: float) -> tuple[float, float, float]:
    """(var_log_wage, var_log_tfpq, var_log_tfpr) in closed form.

    They need only lambda_t and the shock state, no prices, so they do not
    depend on K.  A power beyond the float range raises NonFinite.
    """
    p = params
    try:
        ratio, _ = _type_loadings(params, shock, lambda_t)
        var_wage = ((p.psi / p.gamma) ** 2 * p.lambda_x ** (-2.0 * p.psi)
                    * lambda_t ** (2.0 * p.psi - 2.0))
        var_tfpq = ratio ** 2 / p.lambda_theta ** 2
        bracket = tfpr_type_loading(params, shock, lambda_t)
        var_tfpr = (bracket ** 2 / p.lambda_theta ** 2
                    + (p.eta_q / p.xi) ** 2 * (p.gamma ** 2 * p.sigma1 ** 2
                                               + p.alpha ** 2 * p.sigma2 ** 2))
    except OverflowError as exc:
        raise NonFinite(f"a dispersion overflows at lambda_t={lambda_t:.6g}, "
                        f"lambda_theta={p.lambda_theta:.6g}") from exc
    return (var_wage, var_tfpq, var_tfpr)


@dataclass(frozen=True)
class Coefficients:
    """Firm-block loadings and the lognormal market constants.

    eta_q_theta and eta_l_theta are the firm-type loadings of output and
    employment.  B1, B2, B3 collect the Gaussian wedge moments entering labor,
    capital and goods market clearing; B2 and B3 carry the 1/margin factor
    from the type integral, where margin = lambda_theta - kappa eta_q
    eta_q_theta must stay positive or capital demand diverges.
    """

    eta_q_theta: float
    eta_l_theta: float
    b1: float
    b2: float
    b3: float
    margin: float


def coefficients(params: ValidatedParams, shock: AggregateShockState, lambda_t: float) -> Coefficients:
    """Evaluate the coefficient block at a solved lambda_t."""
    a, g = params.alpha, params.gamma
    kappa = params.kappa
    eta_q = params.eta_q
    s1, s2 = params.sigma1, params.sigma2

    ratio, eta_q_theta = _type_loadings(params, shock, lambda_t)
    eta_l_theta = kappa * eta_q * eta_q_theta - shock.z - (params.psi / g) * ratio

    margin = params.lambda_theta - kappa * eta_q * eta_q_theta
    if margin <= 0.0:
        raise UnboundedCapitalDemand(
            f"lambda_theta - kappa*eta_q*eta_q_theta = {margin:.6g} <= 0")

    ke = kappa * eta_q
    b1 = _exp_checked(0.5 * ((ke * g + 1.0) ** 2 * s1 * s1 + (ke * a) ** 2 * s2 * s2))
    b2 = _exp_checked(0.5 * ((ke * g) ** 2 * s1 * s1 + (ke * a + 1.0) ** 2 * s2 * s2)) / margin
    b3 = _exp_checked(0.5 * ((ke * g) ** 2 * s1 * s1 + (ke * a) ** 2 * s2 * s2)) / margin
    return Coefficients(eta_q_theta=eta_q_theta, eta_l_theta=eta_l_theta,
                        b1=b1, b2=b2, b3=b3, margin=margin)


@dataclass(frozen=True)
class StaticEquilibrium:
    """One period's complete within-period solution.

    Scale constants (Q_bar, k_bar, chi_bar, l_bar) are the firm-level values
    at theta = eps1 = eps2 = 0; M and C_in are the goods-market composites;
    Y_l, Y_k, Y_d are the factor incomes the household receives.  Firms pay
    their wedge times the wage bill workers receive, so the incomes can
    exceed Y or fall short of it: at the published parameters they sum to
    1.0966 Y in booms and 0.7444 Y in recessions.
    """

    lambda_t: float
    coefficients: Coefficients
    w0: float
    R: float
    Y: float
    Q_bar: float
    k_bar: float
    chi_bar: float
    l_bar: float
    M: float
    C_in: float
    Y_l: float
    Y_k: float
    Y_d: float
    shock: AggregateShockState
    K: float
    params: ValidatedParams  # carried for derived measures; not part of the wire format

    @property
    def household_income(self) -> float:
        return self.Y_l + self.Y_k + self.Y_d

    @property
    def labor_share(self) -> float:
        return self.Y_l / self.Y


def aggregates(params: ValidatedParams, shock: AggregateShockState, lambda_t: float,
               coeffs: Coefficients, K: float) -> StaticEquilibrium:
    """Aggregate prices and quantities, evaluated in the order
    M, w0, C_in, Q_bar, Y, R and then the scale constants chi_bar, k_bar, l_bar.
    """
    if not K > 0.0:
        raise DomainError(f"capital stock must be positive, got {K}")
    a, g, xi = params.alpha, params.gamma, params.xi
    kappa, eta_q = params.kappa, params.eta_q
    lt = params.lambda_theta
    A = shock.A

    log_ltb1 = math.log(lt * coeffs.b1)
    log_ltb2 = math.log(lt * coeffs.b2)
    log_ltb3 = math.log(lt * coeffs.b3)
    log_lam = math.log(lambda_t)
    log_K = math.log(K)
    log_A = math.log(A)

    log_M = (xi / (xi - 1.0)) * log_ltb3
    log_w0 = (log_A + math.log(g * kappa) + log_ltb3 / (xi - 1.0)
              + (g - 1.0) * (log_lam - log_ltb1) + a * (log_K - log_ltb2))
    log_C_in = (log_A + a * log_K + g * math.log(kappa) - a * log_ltb2
                + (g / xi) * log_M + g * (math.log(g) - log_w0))
    exp_q = eta_q / (1.0 - eta_q * (-a + (a + g) / xi))
    log_Q_bar = exp_q * log_C_in
    log_Y = log_M + log_Q_bar
    log_R = log_ltb2 + math.log(a * kappa) + log_Q_bar + log_ltb3 / (xi - 1.0) - log_K
    log_chi_bar = math.log(kappa) + (log_Y - log_Q_bar) / xi
    log_k_bar = math.log(a * kappa) + kappa * log_Q_bar + log_Y / xi - log_R
    log_l_bar = (log_chi_bar + log_A + a * log_k_bar + math.log(g) - log_w0) / (1.0 - g)

    chi_q = _exp_checked(log_chi_bar) * _exp_checked(log_Q_bar)
    y_l, y_k, y_d = _factor_incomes_from(params, shock, coeffs, chi_q)

    return StaticEquilibrium(
        lambda_t=lambda_t,
        coefficients=coeffs,
        w0=_exp_checked(log_w0),
        R=_exp_checked(log_R),
        Y=_exp_checked(log_Y),
        Q_bar=_exp_checked(log_Q_bar),
        k_bar=_exp_checked(log_k_bar),
        chi_bar=_exp_checked(log_chi_bar),
        l_bar=_exp_checked(log_l_bar),
        M=_exp_checked(log_M),
        C_in=_exp_checked(log_C_in),
        Y_l=y_l,
        Y_k=y_k,
        Y_d=y_d,
        shock=shock,
        K=float(K),
        params=params,
    )


def _factor_incomes_from(params: ValidatedParams, shock: AggregateShockState,
                         coeffs: Coefficients, chi_q: float) -> tuple[float, float, float]:
    """(Y_l, Y_k, Y_d): labor income, capital income, distributed profits.

    The labor-income denominator carries the extra +z relative to the capital
    margin because workers are paid net of the type-correlated wedge.
    """
    labor_margin = coeffs.margin + shock.z
    if labor_margin <= 0.0:
        raise UnboundedCapitalDemand(f"labor-income margin {labor_margin:.6g} <= 0")
    lt = params.lambda_theta
    y_l = params.gamma * lt * coeffs.b1 * chi_q / labor_margin
    y_k = params.alpha * lt * coeffs.b2 * chi_q
    y_d = (params.xi / (params.xi - 1.0) - params.gamma - params.alpha) * lt * coeffs.b3 * chi_q
    return (y_l, y_k, y_d)


def solve_static(params: ValidatedParams, shock: AggregateShockState, K: float) -> StaticEquilibrium:
    """Full within-period solve: lambda_t, coefficients, aggregates."""
    lam = solve_lambda(params, shock)
    coeffs = coefficients(params, shock, lam)
    return aggregates(params, shock, lam, coeffs, K)


def measured_tfp(eq: StaticEquilibrium) -> float:
    """Aggregate measured TFP, log Y - alpha log K.

    The household supplies one unit of labor in the aggregate, so the gamma
    log L term of the usual Solow residual vanishes.
    """
    return math.log(eq.Y) - eq.params.alpha * math.log(eq.K)


def steady_state(params: ValidatedParams, z_fixed: float, A: float = 1.0) -> tuple[float, float]:
    """Deterministic steady state (K*, C*) of the fixed-shock economy.

    K* solves beta (R(K*) + 1 - delta) = 1 by bisection on the aggregates of
    the K-free lambda_t and coefficients, solved once; R is strictly
    decreasing in K (its elasticity is alpha - 1 < 0).  The bisection stops
    once the midpoint rounds to an end of the bracket, after which no step
    could move it.  C* then follows from the budget constraint with
    investment at replacement level.
    """
    shock = AggregateShockState(z=z_fixed, A=A)
    r_star = 1.0 / params.beta - 1.0 + params.delta
    lam = solve_lambda(params, shock)
    coeffs = coefficients(params, shock, lam)

    def rental(K: float) -> float:
        return aggregates(params, shock, lam, coeffs, K).R

    lo = 1e-8
    if rental(lo) <= r_star:
        raise BracketFailure("rental rate below the Euler target even at minimal capital")
    hi = 1.0
    for _ in range(200):
        if rental(hi) < r_star:
            break
        hi *= 2.0
    else:  # pragma: no cover
        raise BracketFailure("could not bracket the steady-state capital stock")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if rental(mid) > r_star:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)
    income = aggregates(params, shock, lam, coeffs, k_star).household_income
    return k_star, income - params.delta * k_star
