"""Command-line front end.

Subcommands: solve | moments | simulate | irf | calibrate | verify.
Exit codes: 0 success, 1 domain error, 2 usage error, 3 verification failure.

Every file this tool writes is a pure function of (config, flags, seed):
JSON floats are written as the shortest repr that round-trips, CSV cells
as ``"%.17g" % x`` gives them (formatted in numpy by :mod:`csvtext`), key
order is fixed, and no timestamps appear, so reruns are byte-identical.
All randomness descends from the single --seed through named streams.
--threads (at least 1) sets the processes ``moments`` reduces its panel
with, capped at the cores available and the panel's chunks; the other
subcommands ignore it, and every artifact is the same for every value.  A
run that needs more memory than it can have is a domain error, and so is a
``moments`` worker that cannot start ("cannot start a worker process") or
that dies ("worker process <pid> ended without a result"), and a --z, --A
or --K that is not finite (the line names z, A or K).

Artifacts appear whole or not at all: each is written to a new temporary
beside it in --out, opened before the work, and all move into place after
it.  One that cannot be written, or a JSON one that would hold NaN or
Infinity, is a domain error (exit 1, one ``error:`` line); a path that was
a symlink or had a mode of its own becomes a new file with the default
mode.  The summary line follows the artifacts; a closed stdout drops it.

Each subcommand imports the modules it runs when it runs.  Parsing, --help
and every usage error (exit 2) load the standard library alone, and reading
the config adds only ``errors`` and ``params``.  ``solve`` adds ``statics``
and so needs the standard library alone too; every other subcommand loads
numpy.  Only the subcommands that write a CSV file (``simulate``, ``irf``
and ``moments --panel-csv``) load ``csvtext``; ``moments`` loads it (in
``firms``) before it forks.  Every artifact has one writer, this process:
``moments``' workers send their panel rows home through their pipes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import sys
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .errors import NonFinite, SortCyclesError
from .params import AggregateShockState, load_config, read_json_object, require_keys

if TYPE_CHECKING:
    from .calibrate import TargetSet
    from .statics import StaticEquilibrium

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _write_json(files: dict[str, TextIO], name: str, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
    except ValueError as exc:
        raise NonFinite(f"{name} would hold a non-finite number") from exc
    files[name].write(text + "\n")


@contextlib.contextmanager
def _artifacts(out: Path, names: Sequence[str]) -> Iterator[dict[str, TextIO]]:
    """Name -> a handle on a new temporary beside that artifact, moved into place
    after the block; a failure names the artifact at hand, else the first."""
    files = {}
    try:
        for path in map(out.joinpath, names):
            if path.is_dir():
                raise SortCyclesError(f"cannot write {path}: Is a directory")
            files[path] = out.joinpath(f".{path.name}.{os.getpid()}.tmp").open("x")
        path = out / names[0]
        yield {target.name: fh for target, fh in files.items()}
        for path, fh in files.items():
            fh.close()
        for path, fh in files.items():
            os.replace(fh.name, path)
    except BaseException as exc:
        for fh in files.values():
            with contextlib.suppress(OSError):
                fh.close()
            Path(fh.name).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise SortCyclesError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _summary(payload: dict) -> None:
    # a closed stdout loses only this line; os.devnull takes the flush at exit
    try:
        sys.stdout.write(json.dumps(payload, sort_keys=False) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _equilibrium_payload(eq: StaticEquilibrium) -> dict:
    c = eq.coefficients
    return {
        "lambda_t": eq.lambda_t,
        "coefficients": {"eta_Q": eq.params.eta_q, "eta_Q_theta": c.eta_q_theta,
                         "eta_l_theta": c.eta_l_theta, "B1": c.b1, "B2": c.b2,
                         "B3": c.b3, "kappa": eq.params.kappa},
        "w0": eq.w0, "R": eq.R, "Y": eq.Y, "Q_bar": eq.Q_bar, "k_bar": eq.k_bar,
        "chi_bar": eq.chi_bar, "l_bar": eq.l_bar, "M": eq.M, "C_in": eq.C_in,
        "Y_l": eq.Y_l, "Y_k": eq.Y_k, "Y_d": eq.Y_d,
        "shock": {"z": eq.shock.z, "A": eq.shock.A, "lambda_theta_t": eq.params.lambda_theta,
                  "sigma1_t": eq.params.sigma1, "sigma2_t": eq.params.sigma2},
        "K": eq.K,
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
                       help="processes that moments reduces its panel with, at most the "
                            "cores available and the panel's chunks; other subcommands "
                            "ignore it, and artifacts are the same for every value")

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
    p.add_argument("--fast", action="store_true",
                   help="weight the two states' closed-form moments by the stationary "
                        "distribution (default: by their shares of a sampled state path "
                        "of --T periods); the modes differ in these two weights only")
    p.add_argument("--T", type=int, default=10_000, help="state-path length in full mode")
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--grid-size", type=int, default=200,
                   help="ignored: calibration solves no policy")
    p.add_argument("--max-iter", type=int, default=800,
                   help="residual evaluations per start at its point and at the trial "
                        "steps of the Levenberg-Marquardt search; the finite-difference "
                        "Jacobians come on top, one at the start and one wherever a "
                        "Broyden-updated Jacobian fails or passes a stopping test")

    p = sub.add_parser("verify", help="independent oracles; exit 3 unless all pass")
    common(p)
    p.add_argument("--n-prop-points", type=int, default=100)
    return parser


def _cmd_solve(args, params, chain, files):
    from . import statics

    shock = AggregateShockState(z=args.z, A=args.A)
    K = args.K if args.K is not None else statics.steady_state(params, args.z, args.A)[0]
    eq = statics.solve_static(params, shock, K)
    _write_json(files, "equilibrium.json", _equilibrium_payload(eq))
    return EXIT_OK, {"subcommand": "solve", "z": args.z, "lambda_t": eq.lambda_t, "Y": eq.Y,
                     "out": str(Path(args.out, "equilibrium.json"))}


def _cores() -> int:
    """Cores this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_moments(args, params, chain, files):
    from . import firms, statics

    shock = AggregateShockState(z=args.z, A=args.A)
    K = args.K if args.K is not None else statics.steady_state(params, args.z, args.A)[0]
    eq = statics.solve_static(params, shock, K)
    workers = min(args.threads, _cores())
    moments = firms.panel_moments(eq, args.n_firms, args.seed, workers, files.get("panel.csv"))
    payload = dataclasses.asdict(moments)
    _write_json(files, "moments.json", payload)
    return EXIT_OK, {"subcommand": "moments", **payload}


def _cmd_simulate(args, params, chain, files):
    from . import csvtext, dynamics

    policy = dynamics.solve_policy(params, chain, grid_spec=dynamics.GridSpec(n=args.grid_size))
    path = dynamics.simulate(policy, T=args.T, burn_in=args.burn_in, seed=args.seed)
    csvtext.write_csv(files["path.csv"], path.columns())
    return EXIT_OK, {"subcommand": "simulate", **path.moments()}


def _cmd_irf(args, params, chain, files):
    from . import csvtext, dynamics

    policy = dynamics.solve_policy(params, chain, grid_spec=dynamics.GridSpec(n=args.grid_size))
    irf = dynamics.impulse_response(policy, horizon=args.horizon, n_sims=args.n_sims,
                                    seed=args.seed)
    cols = irf.columns()
    csvtext.write_csv(files["irf.csv"], cols)
    impacts = {f"impact_{name}": float(col[0]) for name, col in cols.items() if name != "h"}
    return EXIT_OK, {"subcommand": "irf", "n_episodes": irf.n_episodes, **impacts}


def _load_targets(path: str | None) -> TargetSet:
    from .calibrate import TargetSet

    if path is None:
        return TargetSet()
    raw = read_json_object(path, "targets")
    require_keys(raw, tuple(field.name for field in dataclasses.fields(TargetSet)), (),
                 "targets file")
    return TargetSet(**raw)


def _cmd_calibrate(args, params, chain, files):
    from . import calibrate

    targets = _load_targets(args.targets)
    sim_config = calibrate.SimConfig(fast=args.fast, T=args.T, burn_in=args.burn_in)
    result = calibrate.calibrate(params, targets, seed=args.seed,
                                 n_starts=args.n_starts, sim_config=sim_config,
                                 chain_template=chain, max_iter_per_start=args.max_iter)
    _write_json(files, "calibration.json", dataclasses.asdict(result))
    return EXIT_OK, {"subcommand": "calibrate", "objective": result.objective, **result.params}


def _cmd_verify(args, params, chain, files):
    from . import verify

    shocks = [AggregateShockState(z=z) for z in chain.z_states]
    report = verify.run_verification(params, shocks, n_prop_points=args.n_prop_points)
    payload = {"passed": report.passed,
               "checks": [dataclasses.asdict(c) for c in report.checks]}
    _write_json(files, "verify.json", payload)
    n_fail = sum(0 if c.passed else 1 for c in report.checks)
    return EXIT_OK if report.passed else EXIT_VERIFY, {
        "subcommand": "verify", "passed": report.passed, "n_checks": len(report.checks),
        "n_failed": n_fail}


#: subcommand -> (its function, its artifact); ``--panel-csv`` puts panel.csv first
_DISPATCH = {
    "solve": (_cmd_solve, "equilibrium.json"),
    "moments": (_cmd_moments, "moments.json"),
    "simulate": (_cmd_simulate, "path.csv"),
    "irf": (_cmd_irf, "irf.csv"),
    "calibrate": (_cmd_calibrate, "calibration.json"),
    "verify": (_cmd_verify, "verify.json"),
}


#: lower bounds of integer options: (subcommand, or None for all; option; minimum)
_MINIMUMS = ((None, "threads", 1), ("moments", "n_firms", 1), ("irf", "n_sims", 1),
             ("irf", "horizon", 0), ("simulate", "grid_size", 2), ("irf", "grid_size", 2),
             ("simulate", "burn_in", 0), ("calibrate", "burn_in", 0),
             ("calibrate", "n_starts", 1), ("calibrate", "max_iter", 1),
             ("verify", "n_prop_points", 1))


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
        command, name = _DISPATCH[args.subcommand]
        names = ("panel.csv", name) if getattr(args, "panel_csv", False) else (name,)
        with _artifacts(out, names) as files:
            code, summary = command(args, params, chain, files)
    except SortCyclesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except MemoryError as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_DOMAIN
    _summary(summary)
    return code


def main() -> None:
    """The process's entry point: ``run`` with the cyclic collector off and the
    heap frozen before exit, whose passes would find only the imports' garbage."""
    gc.disable()
    code = run()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
