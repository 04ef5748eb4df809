"""Independent verification of every closed form against brute-force
integration or simulation, plus a harness for the comparative-statics claims.

Independence is the point: nothing here evaluates the closed-form exponential
tilts or the B constants.  Firm behavior is re-derived from the primitive
problem - cost minimization against the wage schedule, rental rate and CES
demand - given only the equilibrium prices (w0, R, Y, lambda_t).  Market
clearing is then checked by numerical integration: adaptive Gauss-Kronrod
(QUADPACK, via scipy) over the firm-type dimension and order-64
Gauss-Hermite in each wedge dimension.  The truncation point of the type
integral is set where the integrand's exponential tail is below 1e-17 of its
mass, so quadrature tolerances dominate the reported residuals.

Every check ships with a negative control: the same residual evaluated under
a deliberately perturbed equilibrium object must breach tolerance, otherwise
the check could not detect the errors it exists to catch.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from .params import (AggregateShockState, ModelParams, ThetaRedrawProcess, ValidatedParams,
                     validate)
from .rng import block_uniforms, exponential_icdf
from .errors import NoRoot
from .firms import dispersions, tfpr_type_loading
from .statics import (StaticEquilibrium, capital_margin, fixed_point_coefficients,
                      fixed_point_residual, solve_lambda, solve_static)

GH_ORDER = 64


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


def _gauss_hermite(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating E[f(eps)], eps ~ N(0, sigma^2)."""
    if sigma == 0.0:
        return np.zeros(1), np.ones(1)
    x, w = np.polynomial.hermite_e.hermegauss(GH_ORDER)
    return sigma * x, w / math.sqrt(2.0 * math.pi)


def independent_firm_solution(eq: StaticEquilibrium, params: ValidatedParams,
                              shock: AggregateShockState, theta, eps1, eps2) -> dict[str, np.ndarray]:
    """Solve the firm's problem from prices alone; no closed-form tilts.

    Cost minimization gives l = gamma*chi*Q/(tau1 w(x)) and
    k = alpha*chi*Q/(tau2 R); CES demand with the constant markup gives
    chi = ((xi-1)/xi) (Y/Q)^(1/xi).  Substituting into the production
    function leaves one equation linear in log Q.
    """
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


def _type_integral(eq, params, shock, which: str, theta_max: float) -> float:
    """Integrate exp-weighted firm quantities against the type density."""
    n1, w1 = _gauss_hermite(shock.sigma1_t)
    n2, w2 = _gauss_hermite(shock.sigma2_t)
    E1, E2 = np.meshgrid(n1, n2, indexing="ij")
    W = np.outer(w1, w2)
    lt = shock.lambda_theta_t
    xi = params.xi

    def inner(theta: float) -> float:
        sol = independent_firm_solution(eq, params, shock, theta, E1, E2)
        if which == "labor":
            logs = sol["log_l"]
        elif which == "capital":
            logs = sol["log_k"]
        elif which == "goods":
            logs = (1.0 - xi) * (math.log(xi / (xi - 1.0)) + sol["log_chi"])
        else:  # pragma: no cover
            raise ValueError(which)
        # keep the type density inside the exponent: the integrand is tame
        # even where the firm-level quantity alone would overflow
        return float(np.sum(W * np.exp(logs + math.log(lt) - lt * theta)))

    val, _ = integrate.quad(inner, 0.0, theta_max, epsabs=1e-12, epsrel=1e-11, limit=400)
    return val


def _tail_cut(eq, params, shock) -> float:
    """Upper limit at which the integrand's exponential tail is ~exp(-40)."""
    rate = capital_margin(params, shock, eq.coefficients)
    return 40.0 / max(rate, 1e-3)


def check_job_density(eq: StaticEquilibrium, params: ValidatedParams,
                      shock: AggregateShockState) -> tuple[CheckResult, CheckResult]:
    """(a) total employment mass is one; (b) f(h) e^{lambda_t h} is flat.

    f(h) is built from the independent firm solver: the wedge-averaged
    employment of type-h firms times the type density.
    """
    n1, w1 = _gauss_hermite(shock.sigma1_t)
    n2, w2 = _gauss_hermite(shock.sigma2_t)
    E1, E2 = np.meshgrid(n1, n2, indexing="ij")
    W = np.outer(w1, w2)
    lt = shock.lambda_theta_t

    def density(h: float) -> float:
        sol = independent_firm_solution(eq, params, shock, h, E1, E2)
        return float(np.sum(W * np.exp(sol["log_l"] + math.log(lt) - lt * h)))

    h_max = 40.0 / eq.lambda_t
    mass, _ = integrate.quad(density, 0.0, h_max, epsabs=1e-12, epsrel=1e-11, limit=400)
    mass_resid = abs(mass - 1.0)

    hs = np.linspace(0.05, 20.0, 20) / eq.lambda_t
    shaped = np.array([density(h) * math.exp(eq.lambda_t * h) for h in hs])
    cv = float(np.std(shaped) / np.mean(shaped))
    return (CheckResult("job_density_mass", mass_resid, 1e-8, mass_resid < 1e-8),
            CheckResult("job_density_shape", cv, 1e-8, cv < 1e-8))


def check_goods_market(eq: StaticEquilibrium, params: ValidatedParams,
                       shock: AggregateShockState) -> CheckResult:
    """Final-good zero-profit: the price-index integral equals one."""
    val = _type_integral(eq, params, shock, "goods", _tail_cut(eq, params, shock))
    resid = abs(val - 1.0)
    return CheckResult("goods_market", resid, 1e-8, resid < 1e-8)


def check_capital_market(eq: StaticEquilibrium, params: ValidatedParams,
                         shock: AggregateShockState, K: float) -> CheckResult:
    """Aggregate capital demand integrates back to the supplied stock."""
    val = _type_integral(eq, params, shock, "capital", _tail_cut(eq, params, shock))
    resid = abs(val / K - 1.0)
    return CheckResult("capital_market", resid, 1e-8, resid < 1e-8)


def check_worker_clearing(eq: StaticEquilibrium, params: ValidatedParams,
                          x_samples: np.ndarray, slope_factor: float = 1.0) -> CheckResult:
    """Type-by-type labor market clearing under the matching function.

    |lambda_x e^{-lambda_x x} - lambda_t mu'(x) e^{-lambda_t mu(x)}| at each
    sampled x, with mu(x) = slope_factor * (lambda_x/lambda_t) x
    (slope_factor != 1 is the negative control's wrong assignment).
    """
    lx, lt = params.lambda_x, eq.lambda_t
    mu_slope = slope_factor * lx / lt
    supply = lx * np.exp(-lx * x_samples)
    demand = lt * mu_slope * np.exp(-lt * mu_slope * x_samples)
    resid = float(np.max(np.abs(supply - demand)))
    name = "worker_clearing" if slope_factor == 1.0 else "worker_clearing_perturbed"
    return CheckResult(name, resid, 1e-12, resid < 1e-12)


# --- comparative-statics harness ---------------------------------------------


def random_valid_params(n: int, seed: int, z_max: float = 1.2) -> list[ValidatedParams]:
    """Seeded draws from the interior of the admissible parameter region.

    psi stays inside (0, 1) so the uniqueness argument applies with the power
    term genuinely nonlinear; the degenerate psi edges are exercised by
    dedicated tests.  Draws whose job-distribution root explodes beyond 1e4
    (the psi -> 1, strongly negative-b corner, where the root exceeds any
    economically meaningful scale and double precision cannot express the
    residual) are rejected and redrawn.
    """
    out: list[ValidatedParams] = []
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
        candidate = validate(ModelParams(alpha=alpha, gamma=gamma, delta=delta, beta=beta,
                                         xi=xi, psi=psi, lambda_x=lam_x, lambda_theta=lam_th,
                                         sigma1=sigma1, sigma2=sigma2))
        try:
            lam_hi = solve_lambda(candidate, AggregateShockState.from_params(candidate, z=z_max))
        except NoRoot:  # pragma: no cover - collapse handling makes this rare
            continue
        if lam_hi < 1e4:
            out.append(candidate)
    return out


def _strictly_monotone(values: np.ndarray, increasing: bool) -> bool:
    d = np.diff(values)
    return bool(np.all(d > 0.0)) if increasing else bool(np.all(d < 0.0))


def bracket_scan_sign_changes(params: ValidatedParams, shock: AggregateShockState,
                              n_points: int = 10_000) -> int:
    """Count sign changes of G over the solve bracket on a uniform scan.

    The bracket is the solver's: the analytic upper bound, doubled while G is
    still negative there (needed in the negative-b corner).
    """
    b, d = fixed_point_coefficients(params)
    target = d * shock.z + shock.lambda_theta_t
    hi = target + abs(b) * (1.0 + target / params.lambda_x) ** params.psi + 1.0
    for _ in range(2000):
        if float(fixed_point_residual(params, shock, hi)) > 0.0:
            break
        hi *= 2.0
    g = fixed_point_residual(params, shock, np.linspace(0.0, hi, n_points))
    signs = np.sign(g)
    signs = signs[signs != 0.0]
    return int(np.sum(signs[1:] != signs[:-1]))


def proposition_suite(params_grid, n_z: int = 20, z_max: float = 1.2) -> VerificationReport:
    """Assert every stated monotonicity/invariance on a grid of shocks.

    Per parameter point: lambda_t strictly increasing in z; wage dispersion
    strictly decreasing, TFPQ and TFPR dispersion strictly increasing in z;
    the TFPR type-loading bracket strictly positive; lambda_t bit-identical
    across A and across (sigma1, sigma2); and on a lambda_theta grid, TFPQ
    and TFPR dispersion strictly decreasing, wage dispersion strictly
    decreasing in lambda_theta (i.e. rising when the rate falls), together
    with the composite S-quantity from the redraw-shock analysis.
    """
    z_grid = np.linspace(0.0, z_max, n_z)
    violations = {
        "lambda_increasing_in_z": 0,
        "wage_var_decreasing_in_z": 0,
        "tfpq_var_increasing_in_z": 0,
        "tfpr_var_increasing_in_z": 0,
        "tfpr_bracket_positive": 0,
        "lambda_neutral_in_A": 0,
        "lambda_neutral_in_sigma": 0,
        "tfpq_var_decreasing_in_lambda_theta": 0,
        "tfpr_var_decreasing_in_lambda_theta": 0,
        "wage_var_decreasing_in_lambda_theta": 0,
        "s_quantity_decreasing_in_lambda_theta": 0,
    }
    n_points = 0
    for p in params_grid:
        n_points += 1
        lams, vws, vqs, vrs = [], [], [], []
        for z in z_grid:
            shock = AggregateShockState.from_params(p, z=z)
            lam = solve_lambda(p, shock)
            if not tfpr_type_loading(p, shock, lam) > 0.0:
                violations["tfpr_bracket_positive"] += 1
            vw, vq, vr = dispersions(p, shock, lam)
            lams.append(lam)
            vws.append(vw)
            vqs.append(vq)
            vrs.append(vr)
        if not _strictly_monotone(np.array(lams), True):
            violations["lambda_increasing_in_z"] += 1
        if not _strictly_monotone(np.array(vws), False):
            violations["wage_var_decreasing_in_z"] += 1
        if not _strictly_monotone(np.array(vqs), True):
            violations["tfpq_var_increasing_in_z"] += 1
        if not _strictly_monotone(np.array(vrs), True):
            violations["tfpr_var_increasing_in_z"] += 1

        shock_mid = AggregateShockState.from_params(p, z=0.5 * z_max)
        lam_ref = solve_lambda(p, shock_mid)
        for A in (0.5, 1.0, 2.0):
            if solve_lambda(p, replace(shock_mid, A=A)) != lam_ref:
                violations["lambda_neutral_in_A"] += 1
        for s1 in (0.0, 0.3):
            for s2 in (0.0, 0.3):
                if solve_lambda(p, replace(shock_mid, sigma1_t=s1, sigma2_t=s2)) != lam_ref:
                    violations["lambda_neutral_in_sigma"] += 1

        lt_grid = np.linspace(0.6 * p.lambda_theta, 1.6 * p.lambda_theta, n_z)
        denom = 1.0 + (1.0 - p.alpha - p.gamma) * (p.xi - 1.0)
        e_coef = 1.0 - (1.0 - p.psi) / denom
        m_coef = p.gamma / denom
        z_fix = 0.5 * z_max
        vq2, vr2, vw2, s2q = [], [], [], []
        for lt in lt_grid:
            shock = AggregateShockState.from_params(p, z=z_fix, lambda_theta_t=lt)
            lam = solve_lambda(p, shock)
            vw, vq, vr = dispersions(p, shock, lam)
            vq2.append(vq)
            vr2.append(vr)
            vw2.append(vw)
            ratio = (lam / p.lambda_x) ** p.psi
            # composite from the redraw-shock analysis, with the type ratio at
            # the first power: that is the power its own step-1 bound covers,
            # and the one consistent with the TFPR dispersion bracket
            s2q.append((e_coef * ratio + m_coef * z_fix) ** 2 / lt ** 2)
        if not _strictly_monotone(np.array(vq2), False):
            violations["tfpq_var_decreasing_in_lambda_theta"] += 1
        if not _strictly_monotone(np.array(vr2), False):
            violations["tfpr_var_decreasing_in_lambda_theta"] += 1
        if not _strictly_monotone(np.array(vw2), False):
            violations["wage_var_decreasing_in_lambda_theta"] += 1
        if not _strictly_monotone(np.array(s2q), False):
            violations["s_quantity_decreasing_in_lambda_theta"] += 1

    checks = [CheckResult(f"prop_{name}", float(count), 0.0, count == 0)
              for name, count in violations.items()]
    checks.append(CheckResult("prop_points_tested", float(n_points), 0.0, n_points > 0))
    return VerificationReport.from_checks(checks)


def theta_process_check(process: ThetaRedrawProcess, n: int, T: int, seed: int) -> CheckResult:
    """Simulate the firm-type redraw law and KS-test exponential stationarity.

    Start from the exact stationary cross-section, evolve n firms T periods
    under theta' = rho theta (+ Exp(lambda') with prob 1 - rho lambda'/lambda),
    and compare the empirical distribution against Exp(lambda_t) at five
    checkpoints.  Passing requires sqrt(n) * KS < 1.95 at >= 4 of 5.
    """
    process.check_valid()
    state_u = block_uniforms(seed, "theta-state", 0, T)[:, 0]
    rates = np.empty(T + 1)
    rates[0] = process.lambda_low
    cur = 0
    stay = (process.p_stay_low, process.p_stay_high)
    for t in range(T):
        if state_u[t] >= stay[cur]:
            cur = 1 - cur
        rates[t + 1] = process.rates[cur]

    theta = exponential_icdf(block_uniforms(seed, "theta-init", 0, n)[:, 0], rates[0])
    checkpoints = sorted(set(np.linspace(T // 5, T, 5, dtype=int)))
    passes = 0
    blocks_per_period = (n + 1) // 2  # two firms per block: (keep-u, redraw-u) pairs
    for t in range(1, T + 1):
        u = block_uniforms(seed, "theta-step", (t - 1) * blocks_per_period, blocks_per_period)
        u = u.reshape(-1, 2)[:n]
        p_keep = process.rho * rates[t] / rates[t - 1]
        eps = exponential_icdf(u[:, 1], rates[t])
        theta = process.rho * theta + np.where(u[:, 0] < p_keep, 0.0, eps)
        if t in checkpoints:
            sorted_theta = np.sort(theta)
            cdf = 1.0 - np.exp(-rates[t] * sorted_theta)
            grid = np.arange(1, n + 1) / n
            ks = float(max(np.max(np.abs(grid - cdf)), np.max(np.abs(grid - 1.0 / n - cdf))))
            if math.sqrt(n) * ks < 1.95:
                passes += 1
    return CheckResult("theta_process_stationarity", float(passes), 4.0, passes >= 4)


# --- full report --------------------------------------------------------------


def run_verification(params: ValidatedParams, shocks: list[AggregateShockState],
                     K: float | None = None, threads: int = 1,
                     n_prop_points: int = 100, prop_seed: int = 2718) -> VerificationReport:
    """All oracles at the given shock states plus the proposition suite.

    Negative controls run alongside: a 1% perturbation of lambda_t must break
    the density shape check, a perturbed output level the goods integral, and
    a perturbed rental rate the capital integral.  Their CheckResults report
    whether the detection fired.
    """
    tasks = []

    def add(fn, *args):
        tasks.append((fn, args))

    for i, shock in enumerate(shocks):
        K_s = K if K is not None else 1.0
        eq = solve_static(params, shock, K_s)
        tag = f"[z={shock.z:g}]"

        def density_checks(eq=eq, shock=shock, tag=tag):
            a, b = check_job_density(eq, params, shock)
            return [replace(a, name=a.name + tag), replace(b, name=b.name + tag)]

        def goods_checks(eq=eq, shock=shock, tag=tag):
            return [replace(check_goods_market(eq, params, shock), name="goods_market" + tag)]

        def capital_checks(eq=eq, shock=shock, K_s=K_s, tag=tag):
            return [replace(check_capital_market(eq, params, shock, K_s), name="capital_market" + tag)]

        def worker_checks(eq=eq, shock=shock, tag=tag, i=i):
            xs = exponential_icdf(block_uniforms(7, f"worker-x-{i}", 0, 20)[:, 0], params.lambda_x)
            return [replace(check_worker_clearing(eq, params, xs), name="worker_clearing" + tag)]

        def negative_controls(eq=eq, shock=shock, tag=tag, i=i):
            out = []
            wrong = replace(eq, lambda_t=eq.lambda_t * 1.01)
            _, shape = check_job_density(wrong, params, shock)
            out.append(CheckResult("negative_control_density_shape" + tag, shape.statistic,
                                   1e-3, shape.statistic > 1e-3))
            wrong_y = replace(eq, Y=eq.Y * 1.01)  # Y = M Q_bar with Q_bar perturbed
            g = check_goods_market(wrong_y, params, shock)
            out.append(CheckResult("negative_control_goods" + tag, g.statistic,
                                   1e-8, g.statistic > 1e-8))
            wrong_r = replace(eq, R=eq.R * 1.01)
            c = check_capital_market(wrong_r, params, shock, eq.K)
            out.append(CheckResult("negative_control_capital" + tag, c.statistic,
                                   1e-8, c.statistic > 1e-8))
            xs = exponential_icdf(block_uniforms(7, f"worker-x-{i}", 0, 20)[:, 0], params.lambda_x)
            w = check_worker_clearing(eq, params, xs, slope_factor=1.01)
            out.append(CheckResult("negative_control_worker" + tag, w.statistic,
                                   1e-12, w.statistic > 1e-12))
            return out

        add(density_checks)
        add(goods_checks)
        add(capital_checks)
        add(worker_checks)
        add(negative_controls)

    def prop_checks():
        report = proposition_suite(random_valid_params(n_prop_points, prop_seed))
        return list(report.checks)

    add(prop_checks)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda fa: fa[0](*fa[1]), tasks))
    else:
        results = [fn(*args) for fn, args in tasks]
    flat = [c for sub in results for c in sub]
    return VerificationReport.from_checks(flat)
