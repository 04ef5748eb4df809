"""Command-line front end.

Subcommands: solve | moments | simulate | irf | calibrate | verify.
Exit codes: 0 success, 1 domain error, 2 usage error, 3 verification failure.

Every file this tool writes is a pure function of (config, flags, seed):
floats are emitted with 17 significant digits, key order is fixed, and no
timestamps appear, so reruns are byte-identical.  All randomness descends
from the single --seed through named streams; --threads only changes how
work is scheduled, never what is computed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import calibrate as calibrate_mod
from . import dynamics, firms, statics, verify
from .errors import SortCyclesError
from .params import AggregateShockState, load_config, read_json_object

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _fmt(value):
    if isinstance(value, float):
        return float(f"{value:.17g}")
    if isinstance(value, (np.floating,)):
        return float(f"{float(value):.17g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_fmt(payload), indent=2, sort_keys=False) + "\n")


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    n = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(f"{float(columns[name][i]):.17g}" for name in names))
    path.write_text("\n".join(lines) + "\n")


def _summary(payload: dict) -> None:
    sys.stdout.write(json.dumps(_fmt(payload), sort_keys=False) + "\n")


def _equilibrium_payload(eq: statics.StaticEquilibrium) -> dict:
    c = eq.coefficients
    return {
        "lambda_t": eq.lambda_t,
        "coefficients": {"eta_Q": c.eta_q, "eta_Q_theta": c.eta_q_theta,
                         "eta_l_theta": c.eta_l_theta, "B1": c.b1, "B2": c.b2,
                         "B3": c.b3, "kappa": c.kappa},
        "w0": eq.w0, "R": eq.R, "Y": eq.Y, "Q_bar": eq.Q_bar, "k_bar": eq.k_bar,
        "chi_bar": eq.chi_bar, "l_bar": eq.l_bar, "M": eq.M, "C_in": eq.C_in,
        "Y_l": eq.Y_l, "Y_k": eq.Y_k, "Y_d": eq.Y_d,
        "shock": dataclasses.asdict(eq.shock), "K": eq.K,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sortcycles",
                                     description="Worker-firm sorting over the business cycle")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--params", required=True, help="path to the params/chain JSON config")
        p.add_argument("--seed", type=int, default=12345, help="master seed (uint64)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker-thread cap (used by moments and verify)")

    p = sub.add_parser("solve", help="one period's static equilibrium as JSON")
    common(p)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--K", type=float, default=None,
                   help="capital stock (default: steady state at this z)")

    p = sub.add_parser("moments", help="sampled cross-section moments (and optional panel CSV)")
    common(p)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--n-firms", type=int, default=100_000)
    p.add_argument("--panel-csv", action="store_true", help="also write panel.csv")

    p = sub.add_parser("simulate", help="simulate the stochastic economy; writes path.csv")
    common(p)
    p.add_argument("--T", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--grid-size", type=int, default=400)

    p = sub.add_parser("irf", help="generalized impulse responses; writes irf.csv")
    common(p)
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--n-sims", type=int, default=1000)
    p.add_argument("--grid-size", type=int, default=400)

    p = sub.add_parser("calibrate", help="moment-matching search; writes calibration.json")
    common(p)
    p.add_argument("--targets", default=None, help="TargetSet JSON (default: data column)")
    p.add_argument("--n-starts", type=int, default=4)
    p.add_argument("--fast", action="store_true", help="no dynamic solve inside the objective")
    p.add_argument("--T", type=int, default=10_000, help="simulation length in full mode")
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--grid-size", type=int, default=200)
    p.add_argument("--max-iter", type=int, default=800)

    p = sub.add_parser("verify", help="independent oracles; exit 3 unless all pass")
    common(p)
    p.add_argument("--n-prop-points", type=int, default=100)
    return parser


def _cmd_solve(args, params, chain, out):
    shock = AggregateShockState.from_params(params, z=args.z, A=args.A)
    K = args.K if args.K is not None else dynamics.steady_state(params, args.z, args.A)[0]
    eq = statics.solve_static(params, shock, K)
    _write_json(out / "equilibrium.json", _equilibrium_payload(eq))
    _summary({"subcommand": "solve", "z": args.z, "lambda_t": eq.lambda_t, "Y": eq.Y,
              "out": str(out / "equilibrium.json")})
    return EXIT_OK


def _cmd_moments(args, params, chain, out):
    shock = AggregateShockState.from_params(params, z=args.z, A=args.A)
    K = args.K if args.K is not None else dynamics.steady_state(params, args.z, args.A)[0]
    eq = statics.solve_static(params, shock, K)
    panel = firms.sample_cross_section(eq, params, shock, args.n_firms, args.seed,
                                       threads=args.threads)
    m = firms.cross_section_moments(panel, eq)
    payload = dataclasses.asdict(m)
    _write_json(out / "moments.json", payload)
    if args.panel_csv:
        cols = {name: getattr(panel, name) for name in
                ("theta", "eps1", "eps2", "Q", "k", "l", "chi", "revenue",
                 "log_tfpq", "log_tfpr")}
        _write_csv(out / "panel.csv", cols)
    _summary({"subcommand": "moments", **payload})
    return EXIT_OK


def _cmd_simulate(args, params, chain, out):
    policy = dynamics.solve_policy(params, chain, grid_spec=dynamics.GridSpec(n=args.grid_size))
    path = dynamics.simulate(policy, params, chain, T=args.T, burn_in=args.burn_in,
                             seed=args.seed)
    cols = {"t": np.arange(args.T, dtype=float), "z": path.z, "K": path.K, "Y": path.Y,
            "C": path.C, "measured_tfp": path.measured_tfp, "lambda_t": path.lambda_t,
            "var_log_wage": path.var_log_wage, "var_log_tfpq": path.var_log_tfpq,
            "var_log_tfpr": path.var_log_tfpr, "labor_share": path.labor_share,
            "R": path.R, "w0": path.w0}
    _write_csv(out / "path.csv", cols)
    _summary({"subcommand": "simulate", **path.moments()})
    return EXIT_OK


def _cmd_irf(args, params, chain, out):
    policy = dynamics.solve_policy(params, chain, grid_spec=dynamics.GridSpec(n=args.grid_size))
    irf = dynamics.impulse_response(policy, params, chain, horizon=args.horizon,
                                    n_sims=args.n_sims, seed=args.seed)
    cols = {"h": np.arange(args.horizon + 1, dtype=float), "d_log_Y": irf.d_log_Y,
            "d_measured_tfp": irf.d_measured_tfp, "d_var_log_wage": irf.d_var_log_wage,
            "d_var_log_tfpq": irf.d_var_log_tfpq, "d_var_log_tfpr": irf.d_var_log_tfpr}
    _write_csv(out / "irf.csv", cols)
    _summary({"subcommand": "irf", "n_episodes": irf.n_episodes,
              "impact_d_log_Y": float(irf.d_log_Y[0]),
              "impact_d_measured_tfp": float(irf.d_measured_tfp[0]),
              "impact_d_var_log_wage": float(irf.d_var_log_wage[0]),
              "impact_d_var_log_tfpq": float(irf.d_var_log_tfpq[0]),
              "impact_d_var_log_tfpr": float(irf.d_var_log_tfpr[0])})
    return EXIT_OK


def _load_targets(path: str | None) -> calibrate_mod.TargetSet:
    if path is None:
        return calibrate_mod.TargetSet()
    raw = read_json_object(path, "targets")
    allowed = {"labor_share", "wage_inequality", "rev_share_top10",
               "rev_share_p50_p90", "std_tfp", "weights"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise SortCyclesError(f"unknown key(s) in targets file: {', '.join(unknown)}")
    if isinstance(raw.get("weights"), list):
        raw["weights"] = tuple(raw["weights"])
    return calibrate_mod.TargetSet(**raw)


def _cmd_calibrate(args, params, chain, out):
    targets = _load_targets(args.targets)
    sim_config = calibrate_mod.SimConfig(fast=args.fast, T=args.T, burn_in=args.burn_in,
                                         grid_n=args.grid_size)
    result = calibrate_mod.calibrate(params, targets, seed=args.seed,
                                     n_starts=args.n_starts, sim_config=sim_config,
                                     chain_template=chain, max_iter_per_start=args.max_iter)
    payload = {"params": result.params, "objective": result.objective,
               "moments": result.moments, "n_evaluations": result.n_evaluations,
               "seed": result.seed, "n_starts": result.n_starts}
    _write_json(out / "calibration.json", payload)
    _summary({"subcommand": "calibrate", "objective": result.objective, **result.params})
    return EXIT_OK


def _cmd_verify(args, params, chain, out):
    shocks = [AggregateShockState.from_params(params, z=z) for z in chain.z_states]
    report = verify.run_verification(params, shocks, threads=args.threads,
                                     n_prop_points=args.n_prop_points)
    payload = {"passed": report.passed,
               "checks": [dataclasses.asdict(c) for c in report.checks]}
    _write_json(out / "verify.json", payload)
    n_fail = sum(0 if c.passed else 1 for c in report.checks)
    _summary({"subcommand": "verify", "passed": report.passed,
              "n_checks": len(report.checks), "n_failed": n_fail})
    return EXIT_OK if report.passed else EXIT_VERIFY


_DISPATCH = {
    "solve": _cmd_solve,
    "moments": _cmd_moments,
    "simulate": _cmd_simulate,
    "irf": _cmd_irf,
    "calibrate": _cmd_calibrate,
    "verify": _cmd_verify,
}


#: lower bounds of integer options: (subcommand, or None for all; option; minimum)
_MINIMUMS = ((None, "threads", 1), ("irf", "n_sims", 1), ("irf", "horizon", 0),
             ("calibrate", "n_starts", 1), ("verify", "n_prop_points", 1))


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.subcommand in ("simulate", "calibrate") and args.T <= args.burn_in:
        sys.stderr.write(f"usage error: --T ({args.T}) must exceed --burn-in ({args.burn_in})\n")
        return EXIT_USAGE
    for subcommand, dest, lowest in _MINIMUMS:
        if subcommand in (None, args.subcommand) and getattr(args, dest) < lowest:
            flag = "--" + dest.replace("_", "-")
            sys.stderr.write(f"usage error: {flag} must be at least {lowest}\n")
            return EXIT_USAGE
    if args.seed < 0 or args.seed > 2 ** 64 - 1:
        sys.stderr.write("usage error: --seed must be a 64-bit unsigned value\n")
        return EXIT_USAGE
    try:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SortCyclesError(f"output directory {out} is not writable: {exc}") from exc
        params, chain = load_config(args.params)
        return _DISPATCH[args.subcommand](args, params, chain, out)
    except SortCyclesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
