"""sortcycles: a one-to-many worker-firm sorting model of the business cycle.

Within each period, firms pick the number and the type of their workers;
the employment-weighted job distribution is exponential with an endogenous
rate that is the model's central fixed point.  The package solves the
within-period equilibrium in closed form, simulates the stochastic economy,
calibrates it to cross-sectional and volatility targets, and verifies every
closed form against independent quadrature and simulation oracles.

The package namespace is lazy (PEP 562): ``import sortcycles`` runs no
submodule, and each exported name or submodule is imported on first use, so
``sortcycles.load_config`` needs the standard library alone.
"""

import sys

__version__ = "0.1.0"

#: the submodule that defines each exported name
_EXPORTS = {
    **dict.fromkeys(("BracketFailure", "DomainError", "EmptyPanel", "GridExit",
                     "NoConvergence", "NonFinite", "NoRoot", "SortCyclesError",
                     "UnboundedCapitalDemand"), "errors"),
    **dict.fromkeys(("AggregateShockState", "MarkovChain2", "ModelParams", "load_config",
                     "stationary_distribution", "published_calibration"), "params"),
    **dict.fromkeys(("Coefficients", "StaticEquilibrium", "aggregates", "coefficients",
                     "dispersions", "measured_tfp", "solve_lambda", "solve_static",
                     "steady_state"), "statics"),
    **dict.fromkeys(("matching", "panel_moments", "wage"), "firms"),
    **dict.fromkeys(("GridSpec", "Policy", "SimulationPath", "euler_residuals",
                     "impulse_response", "simulate", "solve_policy"), "dynamics"),
    # the calibrate() entry point stays on its submodule (sortcycles.calibrate.calibrate)
    # so the submodule itself is not shadowed by a function of the same name
    **dict.fromkeys(("TargetSet", "model_moments"), "calibrate"),
    **dict.fromkeys(("CheckResult", "VerificationReport", "capital_market_residual",
                     "goods_market_residual", "job_density_residuals", "worker_clearing_residual",
                     "proposition_suite", "run_verification"), "verify"),
}
_SUBMODULES = ("errors", "params", "rng", "statics", "firms", "dynamics", "calibrate", "verify")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name):
    # resolved on every access, never stored here, so a name rebound on its
    # submodule (a test's monkeypatch, a tracing wrapper) is seen at once
    module = name if name in _SUBMODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is the import statement's machinery, which ``python -X importtime``
    # logs; importlib.import_module bypasses that log
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    return sys.modules[qualified] if module == name else getattr(sys.modules[qualified], name)


def __dir__():
    return sorted({*globals(), *__all__})
