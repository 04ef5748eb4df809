"""Moment-matching calibration of (psi, z_high, lambda_theta, lambda_x, sigma1).

The objective is the weighted sum of squared proportional deviations of five
model moments from their targets: targets span two orders of magnitude, so
absolute squares would let the large concentration moments drown out TFP
volatility.  All randomness is held fixed across evaluations (common random
numbers): the only stochastic input, the state weights of the full mode,
depends on the seed and on the transition probabilities alone, and the
probabilities are not calibrated - so the residuals are smooth deterministic
functions of the parameters and least squares with finite-difference
Jacobians applies.  The moments identify psi, sigma1 and two combinations of
(z_high, lambda_theta, lambda_x) (an exact scaling symmetry leaves them
unchanged), so the search holds lambda_theta at its configured value.

All five moments are K-free, so each takes one closed-form value per z-state
(:func:`sortcycles.dynamics.state_table`; the revenue-concentration moments
come from the exact Pareto-lognormal share formulas applied to the table's
per-state equilibria).  Neither mode solves the dynamic model.  Each moment
weights its two per-state values by two state weights (w_boom, w_recession),
and TFP volatility, a two-valued series, is the gap times sqrt(w_boom ·
w_recession): :func:`sortcycles.dynamics.state_moments`, the formula of a
simulated path's summary too.  The modes differ only in those weights
(:func:`state_weights`):

* fast - the chain's stationary distribution, so the objective involves no
  sampling at all.
* full - the state shares of the seeded path of T periods after burn-in, so
  TFP volatility and the averages are those of that finite history.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SortCyclesError
from .firms import revenue_concentration
from .params import MarkovChain2, ValidatedParams, stationary_distribution, validate
from .rng import latin_hypercube
from . import dynamics

FREE_PARAM_NAMES = ("psi", "z_high", "lambda_theta", "lambda_x", "sigma1")
DEFAULT_BOUNDS = ((0.01, 0.99), (0.0, 2.0), (0.1, 20.0), (0.1, 20.0), (0.0, 2.0))

#: the objective where a guard fails: no feasible point reaches it
INFEASIBLE = math.inf
#: Latin hypercubes of n_starts points drawn, at most, to find n_starts feasible starts
START_BATCHES = 8
#: stop tolerances of each least-squares start: relative cost decrease, step
#: length relative to the point, and largest entry of the scaled gradient
FTOL = XTOL = GTOL = 1e-8
#: forward-difference step of the Jacobian, relative to max(1, |x|)
FD_STEP = math.sqrt(np.finfo(float).eps)
#: fraction of the distance to the nearest bound that a step stops at
STEP_BACK = 0.995

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
    """Knobs of one objective evaluation.

    ``fast`` weights the per-state values by the stationary distribution;
    otherwise by the state shares of a sampled path of ``T`` periods whose
    first ``burn_in`` are dropped (:func:`state_weights`).
    """

    T: int = 10_000
    burn_in: int = 100
    fast: bool = True

    def __post_init__(self):
        if self.burn_in < 0:
            raise DomainError(f"burn_in={self.burn_in} must be nonnegative")
        if not self.fast and self.T <= self.burn_in:
            raise DomainError(f"T={self.T} must exceed burn_in={self.burn_in}")


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


def state_weights(chain: MarkovChain2, sim_config: SimConfig,
                  seed: int) -> tuple[float, float]:
    """(w_boom, w_recession), the weights of the two z-states in every
    moment: the one place where the modes differ.  Fast mode takes the
    chain's stationary distribution; full mode the state shares of the seeded
    path of T periods after burn-in.  Only the stay probabilities are read,
    and they are not calibrated, so one draw serves every parameter point."""
    if sim_config.fast:
        return stationary_distribution(chain)
    return dynamics.state_shares(
        dynamics.draw_state_path(chain, sim_config.T, seed)[sim_config.burn_in:])


def model_moments(free_params, fixed_params: ValidatedParams, chain: MarkovChain2,
                  weights: tuple[float, float]) -> dict[str, float]:
    """The five calibration moments at one parameter point: the closed-form
    per-state values weighted by the :func:`state_weights`."""
    params, chain = assemble(free_params, fixed_params, chain)
    table = dynamics.state_table(params, chain)
    top10, p50_p90 = zip(*(revenue_concentration(eq) for eq in table.equilibria))
    return dynamics.state_moments(weights, table.measured_tfp, labor_share=table.labor_share,
                                  wage_inequality=table.var_log_wage, rev_share_top10=top10,
                                  rev_share_p50_p90=p50_p90)


def residuals(free_params, fixed_params: ValidatedParams, targets: TargetSet,
              chain: MarkovChain2, weights: tuple[float, float]) -> np.ndarray:
    """Weighted proportional deviations sqrt(w)·(m/t - 1), sqrt(w)·m where a
    target is 0, one per moment; all infinite on guard failure."""
    try:
        moments = model_moments(free_params, fixed_params, chain, weights)
    except SortCyclesError:
        return np.full(len(MOMENT_NAMES), np.inf)
    return np.array([math.sqrt(w) * (moments[name] if target == 0.0
                                     else moments[name] / target - 1.0)
                     for w, name, target in zip(targets.weights, MOMENT_NAMES, targets.values())])


def objective(free_params, fixed_params: ValidatedParams, targets: TargetSet,
              chain: MarkovChain2, weights: tuple[float, float]) -> float:
    """Squared norm of the residuals: the weighted sum of squared proportional
    deviations, or INFEASIBLE (infinite) on guard failure."""
    r = residuals(free_params, fixed_params, targets, chain, weights)
    total = float(r @ r)
    return total if math.isfinite(total) else INFEASIBLE


def _feasible_starts(fun, lo, hi, seed: int,
                     n_starts: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The first n_starts feasible points of successive seeded Latin hypercubes
    over the box [lo, hi], each with its residuals: an infeasible start is
    replaced by the stream's next."""
    starts = []
    for batch in range(START_BATCHES):
        for u in latin_hypercube(seed, "calibrate-starts", n_starts, len(lo), batch):
            x = lo + u * (hi - lo)
            f = fun(x)
            if np.all(np.isfinite(f)):
                starts.append((x, f))
                if len(starts) == n_starts:
                    return starts
    raise DomainError(f"found {len(starts)} of {n_starts} feasible starts in "
                      f"{START_BATCHES * n_starts} Latin-hypercube draws")


def _jacobian(fun, x: np.ndarray, f: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of fun at x, where fun(x) = f.  A column
    steps backward where the forward point passes the upper bound or is
    infeasible, and is zero where neither side is feasible."""
    J = np.zeros((f.size, x.size))
    for j in range(x.size):
        h = FD_STEP * max(1.0, abs(x[j]))
        for step in ((-h, h) if x[j] + h > hi[j] else (h, -h)):
            xh = x.copy()
            xh[j] += step
            fh = fun(xh)
            if np.all(np.isfinite(fh)):
                J[:, j] = (fh - f) / (xh[j] - x[j])
                break
    return J


def _least_squares(fun, x0: np.ndarray, f0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   max_nfev: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize 0.5·|fun(x)|² over the box [lo, hi] from the interior point x0,
    where fun(x0) = f0; returns (x, fun(x)).

    Levenberg-Marquardt steps (Moré 1978) taken in the affine scaling of
    Coleman & Li (1996): each variable is scaled by the square root of its
    distance to the bound that the descent direction -g heads for, so steps
    shrink along a coordinate as it nears the bound it presses against and
    stay free along the others.  A step that would leave the box stops at
    STEP_BACK of the distance to it.  The damping follows Nielsen's update
    (Madsen, Nielsen & Tingleff 2004).  An infeasible trial point (non-finite
    residuals) is a rejected step.

    The Jacobian is a forward-difference one (:func:`_jacobian`) only where
    it must be: at the start, and at the current point when a step made with
    an updated Jacobian is rejected, when such a step would be cut short at a
    bound, or when a stopping test passes on it.  After every accepted step
    it takes Broyden's rank-one update instead (Transtrum & Sethna 2012), so
    every fit ends on a fresh finite-difference Jacobian.  Stops on the
    FTOL, XTOL and GTOL tests or after max_nfev evaluations of fun at x0 and
    at trial points; the Jacobians' evaluations are not counted.
    """
    x, f = x0.copy(), f0
    cost = 0.5 * float(f @ f)
    nfev, mu, nu = 1, 0.0, 2.0
    J, fresh = None, False  # fresh: J is the finite-difference Jacobian at x
    while nfev < max_nfev:
        if J is None:
            J, fresh = _jacobian(fun, x, f, hi), True
        g = J.T @ f
        v = np.where(g < 0.0, hi - x, np.where(g > 0.0, x - lo, 1.0))
        if np.max(np.abs(g * v)) < GTOL:
            if fresh:
                break
            J = None
            continue
        d = np.sqrt(v)
        Js, gs = J * d, g * d
        A = Js.T @ Js
        # the first damping is 1e-3 of the largest curvature, Nielsen's
        # choice for a start far from the fit
        mu = mu or 1e-3 * float(np.max(np.diag(A)))
        while nfev < max_nfev:
            ps = np.linalg.solve(A + mu * np.eye(x.size), -gs)
            step = d * ps
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(step > 0.0, (hi - x) / step,
                                np.where(step < 0.0, (lo - x) / step, np.inf))
            reach = float(np.min(room))
            if reach < 1.0:
                if not fresh:  # an updated Jacobian would run into a bound
                    J = None
                    break
                ps, step = ps * STEP_BACK * reach, step * STEP_BACK * reach
            f_new = fun(x + step)
            nfev += 1
            cost_new = 0.5 * float(f_new @ f_new)
            model = Js @ ps
            predicted = -float(gs @ ps + 0.5 * model @ model)
            ratio = ((cost - cost_new) / predicted
                     if math.isfinite(cost_new) and predicted > 0.0 else -1.0)
            small_step = np.linalg.norm(step) < XTOL * (XTOL + np.linalg.norm(x))
            if ratio > 0.0:
                converged = small_step or (cost - cost_new < FTOL * cost and ratio > 0.25)
                if converged and fresh:
                    return x + step, f_new
                # Broyden's update, or a fresh Jacobian where a stopping test
                # passed on an updated one
                J = None if converged else J + np.outer(f_new - f - J @ step, step) / (step @ step)
                fresh = False
                x, f, cost = x + step, f_new, cost_new
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                break
            if not fresh:  # rejected on an updated Jacobian
                J = None
                break
            if small_step:
                return x, f
            mu *= nu
            nu *= 2.0
    return x, f


def calibrate(fixed_params: ValidatedParams, targets: TargetSet,
              bounds=DEFAULT_BOUNDS, seed: int = 0, n_starts: int = 4,
              sim_config: SimConfig | None = None, *, chain_template: MarkovChain2,
              max_iter_per_start: int = 800) -> CalibrationResult:
    """Bounded least squares on the residuals from Latin-hypercube starts.

    ``lambda_theta`` is held at ``fixed_params.lambda_theta``, the
    normalization that removes the scaling symmetry, and any parameter whose
    bounds have lo == hi is held at that value; the search runs over the
    rest, and a point outside the bounds is infeasible.  Each start is a
    feasible point of a seeded Latin hypercube and runs a bounded
    Levenberg-Marquardt search in Coleman-Li scaling
    (:func:`_least_squares`) with at most ``max_iter_per_start``
    evaluations of its start, made once when the start is screened, and of
    its trial steps (the finite-difference Jacobians come on top).  The
    :func:`state_weights` are computed once.  Deterministic given the seed.
    ``n_evaluations`` counts every residual evaluation: the starts'
    screening, the trial steps and the Jacobians; the reported objective is
    the best fit's own.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if max_iter_per_start < 1:
        raise ValueError("max_iter_per_start must be at least 1")
    sim_config = sim_config or SimConfig()
    lo = np.array([float(b[0]) for b in bounds])
    hi = np.array([float(b[1]) for b in bounds])
    if lo.shape != (len(FREE_PARAM_NAMES),) or not np.all(lo <= hi):
        raise DomainError(f"bounds must be {len(FREE_PARAM_NAMES)} (lo, hi) pairs with "
                          f"lo <= hi, got {bounds!r}")
    theta = FREE_PARAM_NAMES.index("lambda_theta")
    if not lo[theta] <= fixed_params.lambda_theta <= hi[theta]:
        raise DomainError(f"lambda_theta is held at {fixed_params.lambda_theta}, outside its "
                          f"bounds [{lo[theta]}, {hi[theta]}]")
    lo[theta] = hi[theta] = fixed_params.lambda_theta
    free = lo < hi
    if not np.any(free):
        raise DomainError("every parameter is pinned: nothing to calibrate")
    weights = state_weights(chain_template, sim_config, seed)
    n_calls = 0

    def expand(x):
        point = lo.copy()
        point[free] = x
        return point

    def fun(x):
        nonlocal n_calls
        n_calls += 1
        point = expand(x)
        if not np.all((lo <= point) & (point <= hi)):
            return np.full(len(MOMENT_NAMES), np.inf)
        return residuals(point, fixed_params, targets, chain_template, weights)

    starts = _feasible_starts(fun, lo[free], hi[free], seed, n_starts)
    fits = [_least_squares(fun, x0, f0, lo[free], hi[free], max_iter_per_start)
            for x0, f0 in starts]
    best, f = min(fits, key=lambda fit: (float(fit[1] @ fit[1]), tuple(fit[0])))
    point = expand(best)
    return CalibrationResult(
        params={name: float(v) for name, v in zip(FREE_PARAM_NAMES, point)},
        objective=float(f @ f),
        moments=model_moments(point, fixed_params, chain_template, weights),
        n_evaluations=n_calls,
        seed=seed,
        n_starts=n_starts,
    )
