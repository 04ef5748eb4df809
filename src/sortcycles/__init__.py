"""sortcycles: a one-to-many worker-firm sorting model of the business cycle.

Within each period, firms pick the number and the type of their workers;
the employment-weighted job distribution is exponential with an endogenous
rate that is the model's central fixed point.  The package solves the
within-period equilibrium in closed form, simulates the stochastic economy,
calibrates it to cross-sectional and volatility targets, and verifies every
closed form against independent quadrature and simulation oracles.
"""

from .errors import (BracketFailure, DomainError, EmptyPanel, GridExit, InvalidProcess,
                     NoConvergence, NonFinite, NoRoot, SortCyclesError,
                     UnboundedCapitalDemand)
from .params import (AggregateShockState, MarkovChain2, ModelParams, ThetaRedrawProcess,
                     ValidatedParams, load_config, stationary_distribution,
                     published_calibration, validate)
from .statics import (Coefficients, StaticEquilibrium, aggregates, coefficients,
                      measured_tfp, solve_lambda, solve_static)
from .firms import (CrossSectionMoments, FirmDraw, FirmOutcome, FirmPanel,
                    analytic_moments, cross_section_moments, firm_outcome, matching,
                    panel_chunks, sample_cross_section, streamed_moments, wage)
from .dynamics import (GridSpec, IRFResult, Policy, SimulationPath, euler_residuals,
                       impulse_response, simulate, solve_policy, steady_state)
# the calibrate() entry point stays on its submodule (sortcycles.calibrate.calibrate)
# so the submodule itself is not shadowed by a function of the same name
from .calibrate import CalibrationResult, SimConfig, TargetSet, model_moments, objective
from .verify import (CheckResult, VerificationReport, check_capital_market,
                     check_goods_market, check_job_density, check_worker_clearing,
                     proposition_suite, run_verification, theta_process_check)

__version__ = "0.1.0"
