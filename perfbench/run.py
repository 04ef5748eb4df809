"""sortcycles benchmark: closed-loop CLI workloads and an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 28 --trace 0

Each workload is a fixed sequence of ``sortcycles`` CLI invocations (a pass).
Passes run as a closed loop from this one process: each invocation is a
fresh subprocess started only after the previous one has ended, with the
checkout's ``src`` on ``PYTHONPATH`` and ``configs/published.json`` as the
config.  Passes repeat until ``--seconds`` would be exceeded (at least one
runs).  Every invocation's outputs are checked (``checks.py``); a failed or
wrong invocation counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time of
a fresh interpreter running ``import sortcycles`` plus ``load_config``),
``wall_s`` (median time of one pass, summed over its invocations) and
``peak_rss_mb`` (largest max-RSS of any invocation, from that child's own
``wait4`` rusage).  The per-step timings, each with its own peak RSS, and the
failure fraction are printed above the result line.

The two times in the result line are drift-corrected.  On a shared machine
the CPU's speed can change by a third within minutes, for every process
alike (child CPU time rises with wall time, so it is not time stolen while
descheduled).  Each run therefore also times a reference probe that does not
use sortcycles (a fresh interpreter importing numpy and the scipy modules
sortcycles uses, then a fixed loop), before and after its passes, and
reports ``time * REF_NOMINAL_S / median(reference)``: seconds on a machine
where the probe takes ``REF_NOMINAL_S``.  A change to sortcycles moves only
the numerator.  The raw medians are printed beside the corrected ones.

``--trace 1`` runs the same steps in-process through ``sortcycles.cli.run``,
alternating an untraced and a traced pass (``tracer.py``), at least two of
each, and reports the per-layer metrics of the traced passes plus the tracing
overhead.  The run is not correct unless every traced pass made the same
calls and no span's self time is negative.

The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

from checks import check_step, negative_control  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "published.json"
REFERENCES = HERE / "references.json"
WORK = ROOT / ".perfbench-work"
RUN = WORK / f"run-{os.getpid()}"  # this process's outputs, removed when it ends

#: compute threads the CLI may use: two, or fewer on a smaller machine
THREADS = min(2, os.cpu_count() or 1)
#: fresh interpreters timed for setup_s
SETUP_PROBES = 3
#: reference probes timed before and after the passes, each
REF_PROBES = 2
#: reference probe time that drift-corrected times are scaled to
REF_NOMINAL_S = 1.0
#: the whole run must end within this many seconds
RUN_DEADLINE_S = 170.0
#: the calibration workload's CLI seed (the CLI default); see CAL_TARGET_WIDTH
CAL_SEED = 12345
#: calibration targets are the defaults scaled by a seeded factor in 1 +- this
CAL_TARGET_WIDTH = 0.02
CAL_DEFAULT_TARGETS = {"labor_share": 0.6097, "wage_inequality": 0.7666,
                       "rev_share_top10": 0.9074, "rev_share_p50_p90": 0.0842,
                       "std_tfp": 0.0090}

LAYERS = ("params", "statics", "firms", "dynamics", "calibrate", "verify", "rng", "kernels")


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a pass."""

    metric: str      # end-to-end timing name, e.g. "moments_csv_s"
    subcommand: str
    flags: dict      # CLI flags besides --params/--seed/--out; True means a bare flag
    artifact: str    # the file the negative control truncates

    @property
    def key(self) -> str:
        return self.metric[:-2]

    def argv(self, seed: int, out: Path) -> list[str]:
        args = [self.subcommand, "--params", str(CONFIG), "--seed", str(seed), "--out", str(out)]
        for name, value in self.flags.items():
            args.append("--" + name.replace("_", "-"))
            if value is not True:
                args.append(str(value))
        return args


WORKLOADS = {
    # policy solve, simulation and impulse responses; bypasses sampling,
    # calibration and verification
    "dynamics": (
        Step("simulate_s", "simulate",
             {"T": 10_000, "burn_in": 100, "grid_size": 400, "threads": 1}, "path.csv"),
        Step("irf_s", "irf",
             {"horizon": 20, "n_sims": 1000, "grid_size": 400, "threads": 1}, "irf.csv"),
    ),
    # import/setup, sampling, moments, the CSV writer and the thread pools;
    # bypasses the policy solver
    "cross-section": (
        Step("solve_s", "solve", {}, "equilibrium.json"),
        Step("moments_s", "moments", {"n_firms": 1_000_000, "threads": THREADS}, "moments.json"),
        Step("moments_csv_s", "moments",
             {"n_firms": 100_000, "panel_csv": True, "threads": THREADS}, "panel.csv"),
        Step("verify_s", "verify", {"threads": THREADS}, "verify.json"),
    ),
    # many tiny closed-form calls and small-grid dynamic solves
    "calibration": (
        Step("calibrate_fast_s", "calibrate", {"fast": True, "n_starts": 4}, "calibration.json"),
        Step("calibrate_full_s", "calibrate",
             {"n_starts": 1, "max_iter": 4, "grid_size": 200}, "calibration.json"),
    ),
}

SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import sortcycles
t1 = time.perf_counter()
from sortcycles.params import load_config
load_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}))
"""

# machine-speed reference: no sortcycles, the same kind of work as its set-up
# (numpy and scipy imports) and its steps (an interpreted loop, array math)
REF_PROBE = """\
import math
import numpy as np
import scipy.integrate, scipy.optimize, scipy.stats
s = 0.0
for i in range(300_000):
    s += math.sqrt(i + 1.0)
a = np.linspace(1.0, 2.0, 1_000_000)
for _ in range(10):
    a = np.sqrt(a * 1.0000001 + 0.5)
print(s + float(a.sum()))
"""

MACHINE_PROBE = """\
import json, sys
import numpy, scipy, sortcycles
try:
    from sortcycles import kernels
    use_numba = getattr(kernels, "USE_NUMBA", None)
except ImportError:
    use_numba = None
try:
    import numba
    numba_imports = True
except ImportError:
    numba_imports = False
print(json.dumps({"sortcycles_file": sortcycles.__file__, "kernels_use_numba": use_numba,
                  "numba_imports": numba_imports, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


# --- statistics -------------------------------------------------------------


def tail(samples: list[float]):
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it, by nearest rank; None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100.0 * n))
    return p, sorted(samples)[rank - 1]


def describe(samples: list[float], scale: float | None = None) -> dict:
    """The median (times scale, if given) as the value, the sample count and the
    tail percentile of the raw samples."""
    median = statistics.median(samples)
    out = {"value": median, "n": len(samples)}
    if scale is not None:
        out.update(value=median * scale, raw=median)
    t = tail(samples)
    if t is not None:
        out[f"p{t[0]}"] = t[1]
    return out


# --- machine record ---------------------------------------------------------


def git_commit(root: Path):
    """The commit checked out at root, read from .git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def require_inside_src(path: str) -> None:
    resolved = Path(path).resolve()
    if SRC.resolve() not in resolved.parents:
        raise SetupError(f"sortcycles resolves to {resolved}, outside {SRC}; refusing to "
                         "measure a copy that is not the checkout under test")


def machine_record() -> dict:
    proc = subprocess.run([sys.executable, "-c", MACHINE_PROBE], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError("cannot import sortcycles from the checkout:\n" + proc.stderr)
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    require_inside_src(info["sortcycles_file"])
    return {"nproc": os.cpu_count(), "cli_threads": THREADS,
            "loadavg_start": list(os.getloadavg()), "git_commit": git_commit(ROOT), **info}


# --- running the CLI --------------------------------------------------------


@dataclass
class Invocation:
    step: Step
    seed: int
    out: Path
    stdout: str
    stderr: str
    seconds: float
    max_rss_mb: float | None
    problems: list[str]


def prepare(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def run_subprocess(argv: list[str], out: Path, deadline: float):
    """Run argv with stdout/stderr to files in out; (returncode, seconds, max_rss_mb).

    The child is reaped with os.wait4, so its max RSS is its own and not
    the running maximum over all children that RUSAGE_CHILDREN gives.
    """
    timeout = max(1.0, deadline - time.monotonic())
    with open(out / "stdout.txt", "wb") as fo, open(out / "stderr.txt", "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def run_step_subprocess(step: Step, seed: int, out: Path, deadline: float,
                        refs: dict) -> Invocation:
    prepare(out)
    argv = [sys.executable, "-m", "sortcycles.cli", *step.argv(seed, out)]
    rc, seconds, rss = run_subprocess(argv, out, deadline)
    stdout = (out / "stdout.txt").read_text(errors="replace")
    stderr = (out / "stderr.txt").read_text(errors="replace")
    problems = check_step(step.key, step.flags, seed, rc, stdout, stderr, out, refs)
    return Invocation(step, seed, out, stdout, stderr, seconds, rss, problems)


def run_step_inprocess(cli, step: Step, seed: int, out: Path, refs: dict,
                       tracer: Tracer | None) -> Invocation:
    prepare(out)
    argv = step.argv(seed, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.run.{step.subcommand}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            with span:
                rc = cli.run(argv)
        except Exception as exc:  # an escaped exception is a failed invocation
            rc = -1
            stderr.write(f"Traceback: {type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - t0
    problems = check_step(step.key, step.flags, seed, rc, stdout.getvalue(), stderr.getvalue(),
                          out, refs)
    return Invocation(step, seed, out, stdout.getvalue(), stderr.getvalue(), seconds, None,
                      problems)


def run_probes(script: str, n: int, deadline: float, *args: str) -> list[tuple[float, str]]:
    """(wall seconds, last stdout line) of n fresh interpreters running script."""
    out = RUN / "probe"
    prepare(out)
    samples = []
    for _ in range(n):
        rc, seconds, _ = run_subprocess([sys.executable, "-c", script, *args], out, deadline)
        if rc != 0:
            raise SetupError("probe failed:\n" + (out / "stderr.txt").read_text())
        samples.append((seconds, (out / "stdout.txt").read_text().strip().splitlines()[-1]))
    return samples


def run_setup_probes(deadline: float) -> list[tuple[float, dict]]:
    """(wall seconds, in-child timings) of fresh interpreters importing sortcycles."""
    return [(seconds, json.loads(line))
            for seconds, line in run_probes(SETUP_PROBE, SETUP_PROBES, deadline, str(CONFIG))]


# --- workload inputs --------------------------------------------------------


def workload_steps(workload: str, seed: int) -> tuple[Step, ...]:
    """The workload's steps with any seed-generated input files attached."""
    steps = WORKLOADS[workload]
    if workload != "calibration":
        return steps
    rng = random.Random(seed)
    targets = {k: v * (1.0 + CAL_TARGET_WIDTH * (2.0 * rng.random() - 1.0))
               for k, v in CAL_DEFAULT_TARGETS.items()}
    path = RUN / "targets.json"
    path.write_text(json.dumps(targets, indent=2) + "\n")
    return tuple(Step(s.metric, s.subcommand, {**s.flags, "targets": str(path)}, s.artifact)
                 for s in steps)


def cli_seeds(workload: str, seed: int, refs: dict) -> list[int]:
    """CLI seed of each pass: a seeded permutation of the reference pool.

    The calibration workload keeps the CLI default seed, so its
    Latin-hypercube starts, which set its cost, do not move with the
    benchmark seed; the seed draws its targets instead.
    """
    if workload == "calibration":
        return [CAL_SEED]
    pool = list(refs["seeds"])
    random.Random(seed).shuffle(pool)
    return pool


# --- the two modes ----------------------------------------------------------


def time_passes(steps, seeds, seconds: float, deadline: float, run_one) -> list[list[Invocation]]:
    """Closed loop of passes until the next would overrun ``seconds``."""
    passes, durations = [], []
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        seed = seeds[len(passes) % len(seeds)]
        passes.append([run_one(step, seed) for step in steps])
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        if (now - t_start + statistics.median(durations) > seconds
                or now + max(durations) > deadline):
            return passes


def check_controls(last_pass: list[Invocation], refs: dict) -> tuple[int, list[str]]:
    """(corruptions tried, corruptions the checks did not flag) on a pass's outputs."""
    tried, missed = 0, []
    for inv in last_pass:
        if not inv.problems:
            n, m = negative_control(inv.step.key, inv.step.flags, inv.seed, inv.stdout,
                                    inv.stderr, inv.out, inv.step.artifact, refs)
            tried += n
            missed += m
    return tried, missed


def end_to_end(workload: str, steps, seeds, seconds: float, deadline: float, refs: dict,
               setup) -> tuple[dict, list[list[Invocation]]]:
    def run_one(step, seed):
        return run_step_subprocess(step, seed, RUN / workload / step.key, deadline, refs)

    reference = [t for t, _ in run_probes(REF_PROBE, REF_PROBES, deadline)]
    passes = time_passes(steps, seeds, seconds, deadline, run_one)
    reference += [t for t, _ in run_probes(REF_PROBE, REF_PROBES, deadline)]
    scale = REF_NOMINAL_S / statistics.median(reference)
    samples = {"setup_s": [s for s, _ in setup],
               "wall_s": [sum(inv.seconds for inv in p) for p in passes]}
    for step in steps:
        samples[step.metric] = [inv.seconds for p in passes for inv in p if inv.step is step]
    rss = [inv.max_rss_mb for p in passes for inv in p]
    report = {name: {"unit": "s", **describe(v, scale)} for name, v in samples.items()}
    for step in steps:
        report[step.metric]["max_rss_mb"] = max(inv.max_rss_mb for p in passes for inv in p
                                                if inv.step is step)
    report["peak_rss_mb"] = {"unit": "MB", "value": max(rss), "n": len(rss)}
    report["reference_s"] = {"unit": "s", **describe(reference)}
    return report, passes


def euler_accuracy(sc) -> dict:
    """Euler residuals of the published policy: criterion 8's point set and the grid edges."""
    params, chain = sc.load_config(str(CONFIG))
    policy = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=400))
    g = np.random.default_rng(20_260_808)
    pts = g.uniform(policy.K_grid[0] * 1.01, policy.K_grid[-1] * 0.99, 1000)
    states = g.integers(0, 2, 1000)
    p99 = float(np.quantile(sc.euler_residuals(policy, params, pts, states), 0.99))
    edges = np.array([policy.K_grid[0], policy.K_grid[-1]] * 2)
    edge_max = float(np.max(sc.euler_residuals(policy, params, edges, np.array([0, 0, 1, 1]))))
    return {"dynamics.euler_resid.p99": p99, "dynamics.euler_resid.edge_max": edge_max}


def per_layer(workload: str, steps, seed: int, seconds: float, deadline: float, refs: dict,
              setup, metric_names: list[str]) -> tuple[dict, list[list[Invocation]], dict]:
    """Alternate untraced and traced in-process passes of one CLI seed, at least two
    of each, so that the traced passes' call counts can be compared."""
    sys.path.insert(0, str(SRC))
    import sortcycles as sc
    from sortcycles import cli

    require_inside_src(sc.__file__)
    # import every layer so the tracer can reach all binding sites
    for layer in LAYERS:
        with contextlib.suppress(ImportError):
            __import__(f"sortcycles.{layer}")
    infeasible = getattr(sys.modules.get("sortcycles.calibrate"), "INFEASIBLE", 1e10)
    counters = {
        "dynamics.solve_policy": ("dynamics.solve_policy.sweeps",
                                  lambda r: getattr(r, "n_iterations", 0)),
        "calibrate.objective": ("calibrate.objective.infeasible",
                                lambda r: 1 if r >= infeasible else 0),
        "verify.run_verification": ("verify.checks", lambda r: len(getattr(r, "checks", ()))),
    }
    counters_named = {key for key, _ in counters.values()} | {"cli.bytes_written"}
    out_dir = RUN / workload
    plain, traced, tracers = [], [], []
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append([run_step_inprocess(cli, s, seed, out_dir / s.key, refs, None)
                      for s in steps])
        tracer = Tracer(counters)
        tracer.install("sortcycles", LAYERS)
        try:
            inv = []
            for s in steps:
                inv.append(run_step_inprocess(cli, s, seed, out_dir / s.key, refs, tracer))
                written = sum(f.stat().st_size for f in (out_dir / s.key).iterdir())
                tracer.add("cli.bytes_written", written)
        finally:
            tracer.uninstall()
        traced.append(inv)
        tracers.append(tracer)
        pair = time.monotonic() - t0
        now = time.monotonic()
        if now + pair > deadline or (len(traced) >= 2 and now - t_start + pair > seconds):
            break

    wall = [sum(i.seconds for i in p) for p in traced]
    plain_wall = [sum(i.seconds for i in p) for p in plain]
    values = {
        "import.sortcycles_s": statistics.median(s["import_s"] for _, s in setup),
        "params.load_config_s": statistics.median(s["load_config_s"] for _, s in setup),
        "trace.overhead_frac": statistics.median(wall) / statistics.median(plain_wall) - 1.0,
    }
    values.update(euler_accuracy(sc))

    spans = [t.spans() for t in tracers]
    counts = [t.counts() for t in tracers]
    wrapped = set().union(*(t.wrapped for t in tracers))
    objective = spans[0].get("calibrate.objective", {"calls": 0, "total_s": 0.0})
    calls = max(objective["calls"], 1)
    values["calibrate.objective.mean_ms"] = 1e3 * objective["total_s"] / calls
    values["calibrate.infeasible_frac"] = counts[0].get("calibrate.objective.infeasible", 0) / calls
    absent = []
    for name in metric_names:
        if name in values:
            continue
        if name in counters_named:
            values[name] = counts[0].get(name, 0)
            continue
        span, field = name.rsplit(".", 1)
        if span.split(".")[0] in LAYERS and span not in wrapped:
            absent.append(span)
        if field == "calls":
            values[name] = spans[0].get(span, {}).get("calls", 0)
        else:
            values[name] = statistics.median(s.get(span, {}).get(field, 0.0) for s in spans)
    calls = [{k: v["calls"] for k, v in s.items()} for s in spans]
    trace_info = {
        "traced_passes": len(traced),
        "counts_repeat": len(traced) >= 2 and all(
            c == calls[0] and n == counts[0] for c, n in zip(calls[1:], counts[1:])),
        "absent": sorted(set(absent)),
        "negative_self_time": sorted({k for s in spans for k, v in s.items() if v["self_s"] < 0}),
    }
    problems = []
    if len(traced) < 2:
        problems.append("fewer than two traced passes ran before the deadline")
    elif not trace_info["counts_repeat"]:
        problems.append("call counts differ between traced passes")
    if trace_info["negative_self_time"]:
        problems.append(f"negative self time: {trace_info['negative_self_time']}")
    trace_info["problems"] = problems
    return values, plain + traced, trace_info


# --- entry point ------------------------------------------------------------


def run_workload(workload: str, args, refs: dict, spec: dict, machine: dict):
    """(record, result line) of one workload."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setup = run_setup_probes(deadline)
        steps = workload_steps(workload, args.seed)
        seeds = cli_seeds(workload, args.seed, refs)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, passes, trace_info = per_layer(workload, steps, seeds[0], args.seconds,
                                                   deadline, refs, setup, names)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            report = {name: {"unit": units[name], "value": values[name]} for name in names}
        else:
            report, passes = end_to_end(workload, steps, seeds, args.seconds, deadline, refs,
                                        setup)
            trace_info = None
        controls, missed = check_controls(passes[-1], refs)
    finally:
        shutil.rmtree(RUN / workload, ignore_errors=True)

    invocations = [inv for p in passes for inv in p]
    failed = [inv for inv in invocations if inv.problems]
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {**machine, "loadavg_end": list(os.getloadavg())}, "passes": len(passes),
        "cli_seeds": [p[0].seed for p in passes],
        "failed_frac": len(failed) / len(invocations),
        "failures": [f"{inv.step.metric} seed {inv.seed}: {'; '.join(inv.problems)}"
                     for inv in failed],
        "negative_controls": controls, "negative_controls_missed": missed,
        "metrics": report, "trace_info": trace_info,
    }
    if args.trace:
        metrics = {name: {"value": r["value"], "unit": r["unit"]} for name, r in report.items()}
    else:
        metrics = {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    trace_problems = trace_info["problems"] if trace_info else []
    result = {"correct": not failed and not missed and not trace_problems,
              "attempted": len(invocations),
              "failed": len(failed), "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    for needed in (SRC / "sortcycles" / "__init__.py", CONFIG, REFERENCES, spec_file):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    refs = json.loads(REFERENCES.read_text())
    spec = json.loads(spec_file.read_text())
    RUN.mkdir(parents=True, exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        machine = machine_record()
        for workload in workloads:
            record, result = run_workload(workload, args, refs, spec, machine)
            print_report(record)
            results.append(result)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(RUN, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:  # all workloads: one line, metrics prefixed by workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()}}))
    return 0


def print_report(record: dict) -> None:
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  CLI seeds {record['cli_seeds']}")
    for name, r in record["metrics"].items():
        line = f"  {name:34s} {r['value']:14.6g} {r['unit']:6s}"
        if "raw" in r:
            line += f" raw {r['raw']:<10.6g}"
        if "max_rss_mb" in r:
            line += f" rss {r['max_rss_mb']:<7.1f}MB"
        if "n" in r:
            tails = [f"{k} {v:.6g}" for k, v in r.items() if k[0] == "p" and k[1:].isdigit()]
            line += f" n={r['n']:<3d} {tails[0] if tails else 'tail: needs n>=11'}"
        print(line)
    print(f"  {'failed_frac':34s} {record['failed_frac']:14.6g} ratio")
    print(f"  negative controls: {record['negative_controls']} corruptions, "
          f"{len(record['negative_controls_missed'])} not flagged")
    trace_problems = record["trace_info"]["problems"] if record["trace_info"] else []
    for line in record["failures"] + record["negative_controls_missed"] + trace_problems:
        print(f"  FAIL {line}")
    if record["trace_info"]:
        print(f"trace: {json.dumps(record['trace_info'])}")


if __name__ == "__main__":
    sys.exit(main())
