"""Independent verification of every closed form against brute-force
integration or simulation, plus a harness for the comparative-statics claims.

Independence is the point: nothing here evaluates the closed-form exponential
tilts or the B constants, or imports another module's private helpers.  Firm
behavior is re-derived from the primitive problem - cost minimization against
the wage schedule, rental rate and CES demand - given only the equilibrium
prices (w0, R, Y, lambda_t).  Market clearing is then checked by numerical
integration: a composite Gauss-Legendre rule (8 panels of 20 nodes) over the
firm-type dimension and order-64 Gauss-Hermite in each wedge dimension; the
firm problem is solved at all of an integral's type nodes in one array
evaluation.  The truncation point of the type integral is set where the
integrand's exponential tail is below 1e-17 of its mass.  On this smooth,
exponentially damped integrand the fixed rule agrees with adaptive
Gauss-Kronrod quadrature to a few 1e-15, so the reported residuals are those
of the closed forms, not of the rule.

Each residual function reads the model's inputs from the solved equilibrium
(``eq.params``, ``eq.shock``, ``eq.K``), never from a second copy, and
returns bare floats.  :func:`run_verification` names every check and sets its
tolerance, and pairs it with a negative control: the same residual under a
deliberately perturbed equilibrium must breach tolerance, otherwise the check
could not detect the errors it exists to catch.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .params import AggregateShockState, ModelParams, require_ints
from .rng import block_uniforms, exponential_icdf
from .errors import NoRoot
from .statics import (StaticEquilibrium, dispersions, solve_lambda, solve_static,
                      tfpr_type_loading)

GH_ORDER = 64
#: composite Gauss-Legendre rule of the type integrals: panels, nodes per panel
GL_PANELS, GL_NODES = 8, 20
#: the proposition suite's grids: Z_POINTS shocks on [0, Z_MAX] (where every
#: parameter draw must solve) and Z_POINTS values of lambda_theta
Z_POINTS, Z_MAX = 20, 1.2


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    passed: bool

    @staticmethod
    def from_checks(checks) -> "VerificationReport":
        ordered = tuple(sorted(checks, key=lambda c: c.name))
        return VerificationReport(checks=ordered, passed=all(c.passed for c in ordered))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, locked against writes: a cached rule is every caller's."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of order GH_ORDER integrating E[f(eps)], eps ~ N(0, 1)."""
    x, w = np.polynomial.hermite_e.hermegauss(GH_ORDER)
    return _read_only(x, w / math.sqrt(2.0 * math.pi))


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of the GL_NODES-point Gauss-Legendre rule on [-1, 1]."""
    return _read_only(*np.polynomial.legendre.leggauss(GL_NODES))


def _gauss_hermite(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating E[f(eps)], eps ~ N(0, sigma^2)."""
    if sigma == 0.0:
        return np.zeros(1), np.ones(1)
    x, w = _hermite_rule()
    return sigma * x, w


def independent_firm_solution(eq: StaticEquilibrium, theta, eps1, eps2) -> dict[str, np.ndarray]:
    """Solve the firm's problem from prices alone; no closed-form tilts.

    Cost minimization gives l = gamma*chi*Q/(tau1 w(x)) and
    k = alpha*chi*Q/(tau2 R); CES demand with the constant markup gives
    chi = ((xi-1)/xi) (Y/Q)^(1/xi).  Substituting into the production
    function leaves one equation linear in log Q.
    """
    params, shock = eq.params, eq.shock
    a, g, xi, psi = params.alpha, params.gamma, params.xi, params.psi
    theta = np.asarray(theta, dtype=float)
    eps1 = np.asarray(eps1, dtype=float)
    eps2 = np.asarray(eps2, dtype=float)

    x = (eq.lambda_t / params.lambda_x) * theta
    log_q_prod = np.where(theta > 0.0, x ** psi * theta ** (1.0 - psi), 0.0)
    slope = (psi / g) * (params.lambda_x / eq.lambda_t) ** (1.0 - psi)
    log_wage = math.log(eq.w0) + slope * x
    log_tau1 = shock.z * theta + eps1
    log_tau2 = eps2
    log_kappa = math.log((xi - 1.0) / xi)

    coef = (1.0 - a - g) + (a + g) / xi
    rhs = (math.log(shock.A) + log_q_prod
           + (a + g) * (log_kappa + math.log(eq.Y) / xi)
           + a * (math.log(a) - log_tau2 - math.log(eq.R))
           + g * (math.log(g) - log_tau1 - log_wage))
    log_Q = rhs / coef
    log_chi = log_kappa + (math.log(eq.Y) - log_Q) / xi
    log_l = math.log(g) + log_chi + log_Q - log_tau1 - log_wage
    log_k = math.log(a) + log_chi + log_Q - log_tau2 - math.log(eq.R)
    return {"log_Q": log_Q, "log_chi": log_chi, "log_l": log_l, "log_k": log_k}


def _type_density_integrand(eq: StaticEquilibrium, firm_log: Callable[[dict], np.ndarray]
                            ) -> Callable[[np.ndarray], np.ndarray]:
    """thetas -> the wedge average of exp(firm_log(firm solution)) times the
    type density at each theta, by Gauss-Hermite over both wedges.  All the
    thetas are solved in one call, broadcast against the wedge grid."""
    params = eq.params
    n1, w1 = _gauss_hermite(params.sigma1)
    n2, w2 = _gauss_hermite(params.sigma2)
    E1, E2 = np.meshgrid(n1, n2, indexing="ij")
    W = np.outer(w1, w2)
    lt = params.lambda_theta

    def integrand(thetas: np.ndarray) -> np.ndarray:
        theta = np.asarray(thetas, dtype=float)[:, None, None]
        logs = firm_log(independent_firm_solution(eq, theta, E1, E2))
        # keep the type density inside the exponent: the integrand is tame
        # even where the firm-level quantity alone would overflow
        return np.sum(W * np.exp(logs + math.log(lt) - lt * theta), axis=(1, 2))

    return integrand


def _gauss_legendre(f: Callable[[np.ndarray], np.ndarray], upper: float) -> float:
    """Integral of f over [0, upper] by the composite Gauss-Legendre rule of
    GL_PANELS equal panels with GL_NODES nodes each; f takes all the nodes
    at once."""
    x, w = _legendre_rule()
    half = 0.5 * upper / GL_PANELS
    left = np.arange(GL_PANELS)[:, None] * (2.0 * half)
    nodes = (left + half * (x + 1.0)).ravel()
    return float(np.dot(np.tile(half * w, GL_PANELS), f(nodes)))


def _type_integral(eq: StaticEquilibrium, firm_log: Callable[[dict], np.ndarray]) -> float:
    """Integrate an exp-weighted firm quantity against the type density, up
    to the type at which the integrand's exponential tail is ~exp(-40)."""
    theta_max = 40.0 / max(eq.coefficients.margin, 1e-3)
    return _gauss_legendre(_type_density_integrand(eq, firm_log), theta_max)


def job_density_residuals(eq: StaticEquilibrium) -> tuple[float, float]:
    """(mass, shape): |total employment mass - 1|, and the coefficient of
    variation of f(h) e^{lambda_t h}, which is flat at the right lambda_t.

    f(h) is built from the independent firm solver: the wedge-averaged
    employment of type-h firms times the type density.
    """
    density = _type_density_integrand(eq, lambda sol: sol["log_l"])
    mass = _gauss_legendre(density, 40.0 / eq.lambda_t)

    hs = np.linspace(0.05, 20.0, 20) / eq.lambda_t
    shaped = density(hs) * np.exp(eq.lambda_t * hs)
    # scale-free: f(h) carries a factor lambda_t, whose square can overflow
    shaped /= shaped.max()
    return abs(mass - 1.0), float(np.std(shaped) / np.mean(shaped))


def goods_market_residual(eq: StaticEquilibrium) -> float:
    """Final-good zero-profit: |price-index integral - 1|."""
    xi = eq.params.xi
    val = _type_integral(
        eq, lambda sol: (1.0 - xi) * (math.log(xi / (xi - 1.0)) + sol["log_chi"]))
    return abs(val - 1.0)


def capital_market_residual(eq: StaticEquilibrium) -> float:
    """Aggregate capital demand against the stock: |demand / ``eq.K`` - 1|."""
    return abs(_type_integral(eq, lambda sol: sol["log_k"]) / eq.K - 1.0)


def worker_clearing_residual(eq: StaticEquilibrium, x_samples: np.ndarray,
                             slope_factor: float = 1.0) -> float:
    """Type-by-type labor market clearing under the matching function.

    max |lambda_x e^{-lambda_x x} - lambda_t mu'(x) e^{-lambda_t mu(x)}| over
    the sampled x, with mu(x) = slope_factor * (lambda_x/lambda_t) x
    (slope_factor != 1 is the negative control's wrong assignment).

    At slope_factor 1 this is an identity: lambda_t mu'(x) = lambda_x whatever
    ``eq.lambda_t`` is, so a wrong lambda_t leaves it at rounding error.  The
    job-density shape residual and its control are what catch one.
    """
    lx, lt = eq.params.lambda_x, eq.lambda_t
    mu_slope = slope_factor * lx / lt
    supply = lx * np.exp(-lx * x_samples)
    demand = lt * mu_slope * np.exp(-lt * mu_slope * x_samples)
    return float(np.max(np.abs(supply - demand)))


# --- comparative-statics harness ---------------------------------------------


def random_valid_params(n: int, seed: int) -> list[ModelParams]:
    """Seeded draws from the interior of the admissible parameter region.

    psi stays inside (0, 1) so the uniqueness argument applies with the power
    term genuinely nonlinear; the degenerate psi edges are exercised by
    dedicated tests.  Draws whose job-distribution root explodes beyond 1e4
    (the psi -> 1, strongly negative-b corner, where the root exceeds any
    economically meaningful scale and double precision cannot express the
    residual) are rejected and redrawn.
    """
    out: list[ModelParams] = []
    shock_max = AggregateShockState(z=Z_MAX)
    block = 0
    while len(out) < n:
        u = block_uniforms(seed, "param-draws", 3 * block, 3).reshape(12)
        block += 1
        alpha = 0.05 + 0.55 * u[0]
        gamma = 0.10 + (0.93 - alpha - 0.10) * u[1]
        xi = 1.2 + 18.8 * u[2]
        psi = 0.05 + 0.90 * u[3]
        lam_x = 0.2 + 9.8 * u[4]
        lam_th = 0.3 + 9.7 * u[5]
        sigma1 = 0.5 * u[6]
        sigma2 = 0.5 * u[7]
        beta = 0.90 + 0.08 * u[8]
        delta = 0.02 + 0.2 * u[9]
        candidate = ModelParams(alpha=alpha, gamma=gamma, delta=delta, beta=beta, xi=xi, psi=psi,
                                lambda_x=lam_x, lambda_theta=lam_th, sigma1=sigma1, sigma2=sigma2)
        try:
            lam_hi = solve_lambda(candidate, shock_max)
        except NoRoot:  # collapse handling makes this rare
            continue
        if lam_hi < 1e4:
            out.append(candidate)
    return out


def _not_strictly_monotone(values, increasing: bool) -> int:
    """1 unless the values rise (or fall) strictly at every step, else 0."""
    d = np.diff(values)
    return int(not np.all(d > 0.0 if increasing else d < 0.0))


def proposition_suite(params_grid) -> VerificationReport:
    """Count each parameter point's violations of every stated
    monotonicity/invariance claim, summed over the grid.

    Per parameter point, on Z_POINTS shocks with z in [0, Z_MAX]: lambda_t
    strictly increasing in z; wage dispersion strictly decreasing, TFPQ and
    TFPR dispersion strictly increasing in z; the TFPR type-loading bracket
    strictly positive.  At z = Z_MAX/2: lambda_t bit-identical across A and
    across (sigma1, sigma2); and on a lambda_theta grid of Z_POINTS, TFPQ and
    TFPR dispersion strictly decreasing, wage dispersion strictly decreasing in
    lambda_theta (i.e. rising when the rate falls), together with the
    composite S-quantity from the redraw-shock analysis.
    """
    z_shocks = [AggregateShockState(z=z) for z in np.linspace(0.0, Z_MAX, Z_POINTS).tolist()]
    shock_mid = AggregateShockState(z=0.5 * Z_MAX)
    shocks_A = [AggregateShockState(z=shock_mid.z, A=A) for A in (0.5, 1.0, 2.0)]
    violations: Counter[str] = Counter()
    n_points = 0
    for p in params_grid:
        n_points += 1
        z_rows = []
        for shock in z_shocks:
            lam = solve_lambda(p, shock)
            z_rows.append((lam, tfpr_type_loading(p, shock, lam), *dispersions(p, shock, lam)))
        lams, loadings, vw, vq, vr = zip(*z_rows)

        lam_ref = solve_lambda(p, shock_mid)
        denom = 1.0 + (1.0 - p.alpha - p.gamma) * (p.xi - 1.0)
        e_coef = 1.0 - (1.0 - p.psi) / denom
        m_coef = p.gamma / denom
        lt_rows = []
        for lt in np.linspace(0.6 * p.lambda_theta, 1.6 * p.lambda_theta, Z_POINTS).tolist():
            p_lt = replace(p, lambda_theta=lt)
            lam = solve_lambda(p_lt, shock_mid)
            # composite from the redraw-shock analysis, with the type ratio at
            # the first power: that is the power its own step-1 bound covers,
            # and the one consistent with the TFPR dispersion bracket
            s_q = (e_coef * (lam / p.lambda_x) ** p.psi + m_coef * shock_mid.z) ** 2 / lt ** 2
            lt_rows.append((*dispersions(p_lt, shock_mid, lam), s_q))
        vw_lt, vq_lt, vr_lt, s_lt = zip(*lt_rows)

        violations.update({
            "lambda_increasing_in_z": _not_strictly_monotone(lams, True),
            "wage_var_decreasing_in_z": _not_strictly_monotone(vw, False),
            "tfpq_var_increasing_in_z": _not_strictly_monotone(vq, True),
            "tfpr_var_increasing_in_z": _not_strictly_monotone(vr, True),
            "tfpr_bracket_positive": sum(not loading > 0.0 for loading in loadings),
            "lambda_neutral_in_A": sum(solve_lambda(p, shock) != lam_ref for shock in shocks_A),
            "lambda_neutral_in_sigma": sum(
                solve_lambda(replace(p, sigma1=s1, sigma2=s2), shock_mid) != lam_ref
                for s1 in (0.0, 0.3) for s2 in (0.0, 0.3)),
            "tfpq_var_decreasing_in_lambda_theta": _not_strictly_monotone(vq_lt, False),
            "tfpr_var_decreasing_in_lambda_theta": _not_strictly_monotone(vr_lt, False),
            "wage_var_decreasing_in_lambda_theta": _not_strictly_monotone(vw_lt, False),
            "s_quantity_decreasing_in_lambda_theta": _not_strictly_monotone(s_lt, False),
        })

    checks = [CheckResult(f"prop_{name}", float(count), 0.0, count == 0)
              for name, count in violations.items()]
    checks.append(CheckResult("prop_points_tested", float(n_points), 0.0, n_points > 0))
    return VerificationReport.from_checks(checks)


# --- full report --------------------------------------------------------------


def run_verification(params: ModelParams, shocks: list[AggregateShockState],
                     n_prop_points: int = 100) -> VerificationReport:
    """All oracles at the given shock states, each solved at K=1, plus the
    proposition suite on ``n_prop_points`` parameter draws of seed 2718.

    Every check is named and given its tolerance here, and passes when its
    residual is below it.  A negative control passes when the residual of a
    wrong equilibrium is above it: a 1% perturbation of lambda_t must break
    the density shape, of Y the goods integral, of R the capital integral,
    and of the assignment's slope the worker clearing.
    """
    require_ints(n_prop_points=n_prop_points)
    checks = []
    for i, shock in enumerate(shocks):
        eq = solve_static(params, shock, 1.0)
        tag = f"[z={shock.z:g}]"
        xs = exponential_icdf(block_uniforms(7, f"worker-x-{i}", 0, 20)[:, 0], params.lambda_x)
        mass, shape = job_density_residuals(eq)
        for name, residual, tol in (
                ("job_density_mass", mass, 1e-8),
                ("job_density_shape", shape, 1e-8),
                ("goods_market", goods_market_residual(eq), 1e-8),
                ("capital_market", capital_market_residual(eq), 1e-8),
                ("worker_clearing", worker_clearing_residual(eq, xs), 1e-12)):
            checks.append(CheckResult(name + tag, residual, tol, residual < tol))
        for name, residual, tol in (
                ("negative_control_density_shape",
                 job_density_residuals(replace(eq, lambda_t=eq.lambda_t * 1.01))[1], 1e-3),
                # Y = M Q_bar with Q_bar perturbed
                ("negative_control_goods", goods_market_residual(replace(eq, Y=eq.Y * 1.01)),
                 1e-8),
                ("negative_control_capital",
                 capital_market_residual(replace(eq, R=eq.R * 1.01)), 1e-8),
                ("negative_control_worker", worker_clearing_residual(eq, xs, 1.01), 1e-12)):
            checks.append(CheckResult(name + tag, residual, tol, residual > tol))

    checks += proposition_suite(random_valid_params(n_prop_points, seed=2718)).checks
    return VerificationReport.from_checks(checks)
