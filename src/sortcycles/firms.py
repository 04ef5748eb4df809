"""Firm-level closed forms, the wage schedule, analytic dispersion measures,
and seeded Monte-Carlo cross-sections.

A firm is a point (theta, eps1, eps2).  Its allocation is an exponential tilt
of the equilibrium scale constants, so every firm-level statistic reduces to
moments of an exponential type mixed with Gaussian wedges: log quantities are
Pareto-lognormal convolutions with Pareto upper tails.  Sampling realizes the
continuum as a finite panel with counter-based draws, which makes panels
deterministic in (n, seed) and independent of chunking or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyPanel, NonFinite
from .params import AggregateShockState, ValidatedParams
from .rng import block_uniforms, chunk_ranges, exponential_icdf, normal_icdf
from .statics import EXP_CAP, StaticEquilibrium

#: firms per sampling chunk; any multiple of one Philox block keeps chunked
#: sampling bit-identical across thread counts
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class FirmDraw:
    """One firm's state: type and the two wedge shocks."""

    theta: float
    eps1: float
    eps2: float

    def __post_init__(self):
        if not (self.theta >= 0.0 and math.isfinite(self.eps1) and math.isfinite(self.eps2)):
            raise ValueError("theta must be nonnegative and wedge shocks finite")


@dataclass(frozen=True)
class FirmOutcome:
    """Closed-form allocation and productivity measures of one firm."""

    Q: float
    k: float
    l: float
    chi: float
    P: float
    tau1: float
    tau2: float
    revenue: float
    wage_bill: float
    log_tfpq: float
    log_tfpr: float
    matched_x: float


@dataclass(frozen=True)
class CrossSectionMoments:
    """Targets-and-fit block computed from one sampled cross-section."""

    var_log_wage: float
    var_log_tfpq: float
    var_log_tfpr: float
    labor_share: float
    rev_share_top10: float
    rev_share_p50_p90: float
    n_firms: int
    seed: int


def matching(eq: StaticEquilibrium, x) -> float | np.ndarray:
    """Job type h assigned to a worker of type x: h = (lambda_x/lambda_t) x."""
    return (eq.params.lambda_x / eq.lambda_t) * np.asarray(x, dtype=float)[()]


def matched_worker(eq: StaticEquilibrium, theta) -> float | np.ndarray:
    """Inverse assignment: the worker type employed by a type-theta firm."""
    return (eq.lambda_t / eq.params.lambda_x) * np.asarray(theta, dtype=float)[()]


def wage(eq: StaticEquilibrium, x) -> float | np.ndarray:
    """Wage schedule w(x) = w0 exp((psi/gamma)(lambda_x/lambda_t)^(1-psi) x)."""
    p = eq.params
    slope = (p.psi / p.gamma) * (p.lambda_x / eq.lambda_t) ** (1.0 - p.psi)
    return eq.w0 * np.exp(slope * np.asarray(x, dtype=float))[()]


def _firm_arrays(eq: StaticEquilibrium, params: ValidatedParams, shock: AggregateShockState,
                 theta, eps1, eps2) -> dict[str, np.ndarray]:
    """Vectorized closed forms; shared by the scalar op and the sampler."""
    a, g, xi, psi = params.alpha, params.gamma, params.xi, params.psi
    c = eq.coefficients
    kappa, eta_q = c.kappa, c.eta_q
    theta = np.asarray(theta, dtype=float)
    eps1 = np.asarray(eps1, dtype=float)
    eps2 = np.asarray(eps2, dtype=float)

    ratio = (eq.lambda_t / params.lambda_x) ** psi
    core = c.eta_q_theta * theta - g * eps1 - a * eps2
    log_q = math.log(eq.Q_bar) + eta_q * core
    log_k = math.log(eq.k_bar) + kappa * eta_q * core - eps2
    log_chi = math.log(eq.chi_bar) - (eta_q / xi) * core
    log_l = (math.log(eq.l_bar) + c.eta_l_theta * theta
             - (kappa * eta_q * g + 1.0) * eps1 - kappa * eta_q * a * eps2)

    worst = max(np.max(np.abs(log_q), initial=0.0), np.max(np.abs(log_k), initial=0.0),
                np.max(np.abs(log_chi), initial=0.0), np.max(np.abs(log_l), initial=0.0))
    if worst > EXP_CAP:
        raise NonFinite(f"firm log magnitude {worst:.3g} exceeds the exp cap {EXP_CAP:g}")

    Q = np.exp(log_q)
    k = np.exp(log_k)
    l = np.exp(log_l)
    chi = np.exp(log_chi)
    P = (xi / (xi - 1.0)) * chi
    matched_x = (eq.lambda_t / params.lambda_x) * theta
    log_tfpq = ratio * theta
    # log P + log TFPQ; the chi_bar term keeps it a true revenue residual
    # rather than the dispersion-only display that drops the period constant
    log_tfpr = (math.log(xi / (xi - 1.0)) + math.log(eq.chi_bar)
                + (ratio - eta_q * c.eta_q_theta / xi) * theta
                + (eta_q / xi) * (g * eps1 + a * eps2))
    return {
        "theta": theta, "eps1": eps1, "eps2": eps2,
        "Q": Q, "k": k, "l": l, "chi": chi, "P": P,
        "tau1": np.exp(shock.z * theta + eps1),
        "tau2": np.exp(eps2),
        "revenue": P * Q,
        "wage_bill": wage(eq, matched_x) * l,
        "log_tfpq": log_tfpq,
        "log_tfpr": log_tfpr,
        "matched_x": matched_x,
    }


def firm_outcome(eq: StaticEquilibrium, params: ValidatedParams, shock: AggregateShockState,
                 draw: FirmDraw) -> FirmOutcome:
    """Evaluate one firm's closed-form allocation under a solved equilibrium."""
    vals = _firm_arrays(eq, params, shock, draw.theta, draw.eps1, draw.eps2)
    names = [f.name for f in fields(FirmOutcome)]
    return FirmOutcome(**{name: float(vals[name]) for name in names})


def tfpr_type_loading(params: ValidatedParams, shock: AggregateShockState,
                      lambda_t: float) -> float:
    """Slope of log TFPR in firm type, (lambda_t/lambda_x)^psi - eta_q eta_q_theta / xi."""
    p = params
    ratio = (lambda_t / p.lambda_x) ** p.psi
    eta_q_theta = -p.gamma * shock.z + (1.0 - p.psi) * ratio
    return ratio - p.eta_q * eta_q_theta / p.xi


def dispersions(params: ValidatedParams, shock: AggregateShockState,
                lambda_t: float) -> tuple[float, float, float]:
    """(var_log_wage, var_log_tfpq, var_log_tfpr) in closed form.

    They need only lambda_t and the shock state, no prices, so they do not
    depend on K.
    """
    p = params
    ratio = (lambda_t / p.lambda_x) ** p.psi
    var_wage = (p.psi / p.gamma) ** 2 * p.lambda_x ** (-2.0 * p.psi) * lambda_t ** (2.0 * p.psi - 2.0)
    var_tfpq = ratio ** 2 / shock.lambda_theta_t ** 2
    bracket = tfpr_type_loading(params, shock, lambda_t)
    var_tfpr = (bracket ** 2 / shock.lambda_theta_t ** 2
                + (p.eta_q / p.xi) ** 2 * (p.gamma ** 2 * shock.sigma1_t ** 2
                                           + p.alpha ** 2 * shock.sigma2_t ** 2))
    return (var_wage, var_tfpq, var_tfpr)


def analytic_moments(eq: StaticEquilibrium, params: ValidatedParams,
                     shock: AggregateShockState) -> tuple[float, float, float]:
    """(var_log_wage, var_log_tfpq, var_log_tfpr) of a solved equilibrium."""
    return dispersions(params, shock, eq.lambda_t)


class FirmPanel:
    """A sampled cross-section held as column arrays, in draw order."""

    COLUMNS = ("theta", "eps1", "eps2", "Q", "k", "l", "chi", "P", "tau1", "tau2",
               "revenue", "wage_bill", "log_tfpq", "log_tfpr", "matched_x")

    def __init__(self, data: dict[str, np.ndarray], seed: int):
        for name in self.COLUMNS:
            setattr(self, name, data[name])
        self.seed = seed

    def __len__(self) -> int:
        return self.theta.shape[0]

    def row(self, i: int) -> FirmOutcome:
        names = [f.name for f in fields(FirmOutcome)]
        return FirmOutcome(**{name: float(getattr(self, name)[i]) for name in names})


def sample_cross_section(eq: StaticEquilibrium, params: ValidatedParams, shock: AggregateShockState,
                         n: int, seed: int, threads: int = 1, stream_label: str = "panel") -> FirmPanel:
    """Seeded i.i.d. panel: theta ~ Exp(lambda_theta_t), eps_i ~ N(0, sigma_it^2).

    Firm i consumes exactly one counter block of the (seed, stream_label)
    stream, so the panel is a pure function of (n, seed) regardless of how
    the chunks are scheduled.
    """
    if n < 1:
        raise EmptyPanel("panel size must be at least 1")
    cols = {name: np.empty(n) for name in FirmPanel.COLUMNS}

    def fill(rng_range):
        start, stop = rng_range
        u = block_uniforms(seed, stream_label, start, stop - start)
        theta = exponential_icdf(u[:, 0], shock.lambda_theta_t)
        eps1 = shock.sigma1_t * normal_icdf(u[:, 1])
        eps2 = shock.sigma2_t * normal_icdf(u[:, 2])
        vals = _firm_arrays(eq, params, shock, theta, eps1, eps2)
        for name in FirmPanel.COLUMNS:
            cols[name][start:stop] = vals[name]

    ranges = chunk_ranges(n, SAMPLE_CHUNK)
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, ranges))
    else:
        for r in ranges:
            fill(r)
    return FirmPanel(cols, seed)


def _weighted_variance(values: np.ndarray, weights: np.ndarray) -> float:
    mean = float(np.average(values, weights=weights))
    return float(np.average((values - mean) ** 2, weights=weights))


def cross_section_moments(panel: FirmPanel, eq: StaticEquilibrium) -> CrossSectionMoments:
    """Empirical dispersion and concentration moments of a panel.

    Revenue ranks are descending with ties broken by draw order; percentile
    boundaries use the nearest-rank convention, so the top-10% block of n
    firms is exactly round(n/10) firms.  The wage variance weights each
    firm's (single) worker type by its employment l, which reproduces the
    worker-level variance through labor-market clearing.  The labor share is
    the aggregate Y_l/Y of the underlying equilibrium, matching the way the
    empirical target is constructed.
    """
    n = len(panel)
    if n == 0:
        raise EmptyPanel("cannot compute moments of an empty panel")
    order = np.argsort(-panel.revenue, kind="stable")
    rev_sorted = panel.revenue[order]
    total = float(rev_sorted.sum())
    k10 = int(round(0.10 * n))
    k50 = int(round(0.50 * n))
    top10 = float(rev_sorted[:k10].sum()) / total
    p50_p90 = float(rev_sorted[k10:k50].sum()) / total

    log_wage = np.log(panel.wage_bill / panel.l)
    return CrossSectionMoments(
        var_log_wage=_weighted_variance(log_wage, panel.l),
        var_log_tfpq=float(np.var(panel.log_tfpq)),
        var_log_tfpr=float(np.var(panel.log_tfpr)),
        labor_share=eq.labor_share,
        rev_share_top10=top10,
        rev_share_p50_p90=p50_p90,
        n_firms=n,
        seed=panel.seed,
    )


def pareto_lognormal_topshare(a: float, s: float, rate: float, q: float) -> float:
    """Share of E[exp(a*theta + s*Z)] earned above its upper q-quantile,
    theta ~ Exp(rate), Z ~ N(0,1) independent.

    Conditioning on Z makes both the tail probability and the truncated mean
    closed forms (exponential survival times normal cdfs), so only the
    threshold requires a scalar bisection.  Products exp(big)*ndtr(-big) are
    assembled through log_ndtr to avoid overflow.  Requires rate > a for a
    finite mean, which the capital-demand guard already enforces.
    """
    from scipy.special import log_ndtr, ndtr

    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if a >= rate:
        raise ValueError("mean revenue diverges: need rate > a")

    if s == 0.0:
        if a > 0.0:
            return q ** (1.0 - a / rate)
        if a < 0.0:
            cut = -math.log1p(-q) / rate
            return 1.0 - math.exp((a - rate) * cut)
        return q
    if a == 0.0:
        # pure lognormal
        from scipy.special import ndtri
        return float(ndtr(s - ndtri(1.0 - q)))

    m = rate / abs(a)  # type-tail rate per unit of log revenue

    if a > 0.0:
        def tail_prob(t: float) -> float:
            u = t / s
            return float(ndtr(-u) + math.exp(min(-m * t + 0.5 * (m * s) ** 2
                                                 + log_ndtr(u - m * s), 0.0)))

        def upper_share(t: float) -> float:
            u = t / s
            lead = float(ndtr(s - u))
            rest = math.exp(-(rate - a) * t / a + 0.5 * ((m * s) ** 2 - s * s)
                            + log_ndtr(u - m * s))
            return lead + rest
    else:
        def tail_prob(t: float) -> float:
            u = t / s
            return float(ndtr(-u)) - math.exp(min(m * t + 0.5 * (m * s) ** 2
                                                  + log_ndtr(-u - m * s), 0.0))

        def upper_share(t: float) -> float:
            u = t / s
            lead = float(ndtr(s - u))
            rest = math.exp((rate + abs(a)) * t / abs(a) + 0.5 * ((m * s) ** 2 - s * s)
                            + log_ndtr(-u - m * s))
            return lead - rest

    lo = -60.0 * s - 60.0 / m * (a < 0.0) - 1.0
    hi = 60.0 * s + (60.0 * a / rate if a > 0.0 else 0.0) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail_prob(mid) > q:
            lo = mid
        else:
            hi = mid
    return upper_share(0.5 * (lo + hi))


def revenue_concentration(eq: StaticEquilibrium, params: ValidatedParams,
                          shock: AggregateShockState) -> tuple[float, float]:
    """(top-10% share, top-50%-minus-top-10% share) of the firm continuum.

    log revenue is kappa eta_q (eta_q_theta theta - gamma eps1 - alpha eps2)
    up to a constant, a Pareto-lognormal.  The shares are evaluated in closed
    form rather than by panel sampling: with tail indices barely above one,
    finite panels understate concentration at any feasible size, while the
    continuum value is what the model's cross-section actually implies.
    """
    c = eq.coefficients
    a = c.kappa * c.eta_q * c.eta_q_theta
    s = c.kappa * c.eta_q * math.sqrt((params.gamma * shock.sigma1_t) ** 2
                                      + (params.alpha * shock.sigma2_t) ** 2)
    top10 = pareto_lognormal_topshare(a, s, shock.lambda_theta_t, 0.10)
    top50 = pareto_lognormal_topshare(a, s, shock.lambda_theta_t, 0.50)
    return top10, top50 - top10


def tfpq_tail_index(panel: FirmPanel, top_fraction: float = 0.1) -> float:
    """Hill estimator of the Pareto tail index of TFPQ levels.

    log TFPQ is exactly exponential, so levels are exact Pareto with index
    lambda_theta_t / (lambda_t/lambda_x)^psi; the Hill estimate over the top
    order statistics is the natural empirical counterpart.
    """
    logs = np.sort(panel.log_tfpq)
    k = max(int(top_fraction * logs.shape[0]), 2)
    tail = logs[-k:]
    return 1.0 / float(np.mean(tail[1:] - tail[0]))
