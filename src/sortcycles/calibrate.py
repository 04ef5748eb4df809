"""Moment-matching calibration of (psi, z_high, lambda_theta, lambda_x, sigma1).

The objective is the weighted sum of squared proportional deviations of five
model moments from their targets: targets span two orders of magnitude, so
absolute squares would let the large concentration moments drown out TFP
volatility.  All randomness is held fixed across evaluations (common random
numbers): the only stochastic input, the z-state path of the full mode,
depends on the seed and on the transition probabilities alone, and the
probabilities are not calibrated - so the objective is a smooth
deterministic function of the parameters and simplex search applies.

Two evaluation modes:

* fast - no dynamic solve.  Every moment is a closed-form function of the
  two z-states mixed with the chain's stationary distribution (the
  revenue-concentration moments come from the exact Pareto-lognormal share
  formulas), so the fast objective involves no sampling at all.
* full - policy solve plus simulation; state frequencies, the TFP path and
  the per-period averages come from the simulated history.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .errors import DomainError, SortCyclesError
from .firms import analytic_moments, revenue_concentration
from .params import (PUBLISHED_CHAIN, AggregateShockState, MarkovChain2, ValidatedParams,
                     stationary_distribution, validate)
from .statics import measured_tfp, solve_static
from . import dynamics

FREE_PARAM_NAMES = ("psi", "z_high", "lambda_theta", "lambda_x", "sigma1")
DEFAULT_BOUNDS = ((0.01, 0.99), (0.0, 2.0), (0.1, 20.0), (0.1, 20.0), (0.0, 2.0))

#: finite sentinel returned when a guard fails, so the simplex can retreat
INFEASIBLE = 1e10

MOMENT_NAMES = ("labor_share", "wage_inequality", "rev_share_top10",
                "rev_share_p50_p90", "std_tfp")


def _is_finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class TargetSet:
    """Empirical targets with optional weights (defaults are the data column)."""

    labor_share: float = 0.6097
    wage_inequality: float = 0.7666
    rev_share_top10: float = 0.9074
    rev_share_p50_p90: float = 0.0842
    std_tfp: float = 0.0090
    weights: tuple[float, float, float, float, float] = (1.0, 1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        for name, value in zip(MOMENT_NAMES, self.values()):
            if not _is_finite_number(value):
                raise DomainError(f"target {name} must be a finite number, got {value!r}")
        if not (isinstance(self.weights, (tuple, list)) and len(self.weights) == len(MOMENT_NAMES)
                and all(_is_finite_number(w) and w >= 0.0 for w in self.weights)):
            raise DomainError(f"weights must be a list of {len(MOMENT_NAMES)} finite nonnegative "
                              f"numbers, one per moment, got {self.weights!r}")

    def values(self) -> tuple[float, ...]:
        return (self.labor_share, self.wage_inequality, self.rev_share_top10,
                self.rev_share_p50_p90, self.std_tfp)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one objective evaluation."""

    T: int = 10_000
    burn_in: int = 100
    grid_n: int = 200
    fast: bool = True


@dataclass(frozen=True)
class CalibrationResult:
    params: dict[str, float]
    objective: float
    moments: dict[str, float]
    n_evaluations: int
    seed: int
    n_starts: int


def assemble(free_params, fixed_params: ValidatedParams,
             chain_template: MarkovChain2) -> tuple[ValidatedParams, MarkovChain2]:
    """Overlay the free block on the fixed parameters."""
    psi, z_high, lambda_theta, lambda_x, sigma1 = [float(v) for v in free_params]
    params = validate(replace(fixed_params, psi=psi, lambda_theta=lambda_theta,
                              lambda_x=lambda_x, sigma1=sigma1))
    chain = replace(chain_template, z_high=z_high)
    return params, chain


def _state_moments(params: ValidatedParams, chain: MarkovChain2):
    """Per-state cross-section moments and K-free aggregates (all closed form)."""
    out = []
    for z in chain.z_states:
        shock = AggregateShockState.from_params(params, z=z)
        eq = solve_static(params, shock, 1.0)
        top10, p5090 = revenue_concentration(eq, params, shock)
        vw, vq, vr = analytic_moments(eq, params, shock)
        out.append({"labor_share": eq.labor_share, "var_log_wage": vw, "var_log_tfpq": vq,
                    "var_log_tfpr": vr, "tfp": measured_tfp(eq), "rev_share_top10": top10,
                    "rev_share_p50_p90": p5090})
    return out


def model_moments(free_params, fixed_params: ValidatedParams, chain_template: MarkovChain2,
                  sim_config: SimConfig, seed: int) -> dict[str, float]:
    """The five calibration moments at one parameter point."""
    params, chain = assemble(free_params, fixed_params, chain_template)
    per_state = _state_moments(params, chain)

    if sim_config.fast:
        pi = stationary_distribution(chain)
        freq = (pi[0], pi[1])
    else:
        policy = dynamics.solve_policy(params, chain,
                                       grid_spec=dynamics.GridSpec(n=sim_config.grid_n))
        path = dynamics.simulate(policy, params, chain, T=sim_config.T,
                                 burn_in=sim_config.burn_in, seed=seed)
        f_high = float(np.mean(path.states[sim_config.burn_in:]))
        freq = (1.0 - f_high, f_high)

    def mix(key):
        return freq[0] * per_state[0][key] + freq[1] * per_state[1][key]

    if sim_config.fast:
        std_tfp = abs(per_state[1]["tfp"] - per_state[0]["tfp"]) * math.sqrt(freq[0] * freq[1])
        labor_share = mix("labor_share")
        wage_ineq = mix("var_log_wage")
    else:
        std_tfp = float(np.std(path.measured_tfp[sim_config.burn_in:]))
        labor_share = float(np.mean(path.labor_share[sim_config.burn_in:]))
        wage_ineq = float(np.mean(path.var_log_wage[sim_config.burn_in:]))

    top10 = mix("rev_share_top10")
    p5090 = mix("rev_share_p50_p90")
    return {
        "labor_share": labor_share,
        "wage_inequality": wage_ineq,
        "rev_share_top10": top10,
        "rev_share_p50_p90": p5090,
        "std_tfp": std_tfp,
    }


def objective(free_params, fixed_params: ValidatedParams, targets: TargetSet,
              sim_config: SimConfig, seed: int,
              chain_template: MarkovChain2 | None = None) -> float:
    """Weighted sum of squared proportional deviations; INFEASIBLE on guard failure."""
    chain_template = chain_template or PUBLISHED_CHAIN
    for v, (lo, hi) in zip(free_params, DEFAULT_BOUNDS):
        if not lo <= v <= hi:
            return INFEASIBLE
    try:
        moments = model_moments(free_params, fixed_params, chain_template, sim_config, seed)
    except SortCyclesError:
        return INFEASIBLE
    total = 0.0
    for w, name, target in zip(targets.weights, MOMENT_NAMES, targets.values()):
        if target == 0.0:
            total += w * moments[name] ** 2
        else:
            total += w * (moments[name] / target - 1.0) ** 2
    return float(total)


def calibrate(fixed_params: ValidatedParams, targets: TargetSet,
              bounds=DEFAULT_BOUNDS, seed: int = 0, n_starts: int = 4,
              sim_config: SimConfig | None = None,
              chain_template: MarkovChain2 | None = None,
              max_iter_per_start: int = 800,
              x0: np.ndarray | None = None) -> CalibrationResult:
    """Derivative-free search: Nelder-Mead from Latin-hypercube starts.

    Deterministic given the seed: starts come from a seeded LHS sampler and
    every objective evaluation reuses the same random draws.  Reports the
    best point found even if no start improves.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    sim_config = sim_config or SimConfig()
    chain_template = chain_template or PUBLISHED_CHAIN
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    sampler = qmc.LatinHypercube(d=len(bounds), seed=seed)
    starts = lo + sampler.random(n=n_starts) * (hi - lo)
    if x0 is not None:
        starts[0] = np.asarray(x0, dtype=float)

    def fun(x):
        return objective(x, fixed_params, targets, sim_config, seed,
                         chain_template=chain_template)

    def run_start(x_start):
        return optimize.minimize(fun, x_start, method="Nelder-Mead",
                                 bounds=list(zip(lo, hi)),
                                 options={"maxiter": max_iter_per_start,
                                          "xatol": 1e-8, "fatol": 1e-12})

    results = [run_start(s) for s in starts]

    best = min(results, key=lambda r: (r.fun, tuple(r.x)))
    best_moments = model_moments(best.x, fixed_params, chain_template, sim_config, seed)
    return CalibrationResult(
        params={name: float(v) for name, v in zip(FREE_PARAM_NAMES, best.x)},
        objective=float(best.fun),
        moments=best_moments,
        n_evaluations=int(sum(r.nfev for r in results)),
        seed=seed,
        n_starts=n_starts,
    )
