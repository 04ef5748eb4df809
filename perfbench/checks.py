"""Output checks for one CLI invocation of the benchmark.

``check_step`` returns a list of problems; an empty list means the
invocation's outputs are correct.  Three kinds of check apply:

* every invocation: exit code 0, no ``Traceback`` on stderr, a JSON summary
  as the last stdout line, finite artifacts with the expected row counts;
* seeded and closed-form outputs: the summary and artifacts agree with
  references recorded by ``record_references.py`` for the same CLI seed, to
  ``EXACT_RTOL``; outputs that depend on the consumption policy (capital,
  output, consumption) agree to ``POLICY_RTOL``, the scale of the 1e-5 Euler
  gate, so an accepted change of policy solver passes.  The impulse
  responses are compared in full, every horizon of every column, each to a
  tolerance scaled by the largest magnitude in its reference column; only
  ``d_log_Y`` moves with the policy (at horizon 0 it does not: capital is
  predetermined and output's log-difference across z is free of it);
* calibration: internal consistency only, because the README's scaling
  symmetry makes point estimates along a curve interchangeable.  The
  objective is recomputed from the reported moments and the targets file
  the run was given, and every parameter must lie inside the search bounds.

``negative_control`` corrupts the outputs of a checked invocation and
reports whether ``check_step`` flags every corruption.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

EXACT_RTOL = 1e-12
POLICY_RTOL = 1e-4
ABS_FLOOR = 1e-15

# calibration search space: calibrate.FREE_PARAM_NAMES and DEFAULT_BOUNDS
CAL_PARAMS = ("psi", "z_high", "lambda_theta", "lambda_x", "sigma1")
CAL_BOUNDS = ((0.01, 0.99), (0.0, 2.0), (0.1, 20.0), (0.1, 20.0), (0.0, 2.0))
CAL_INFEASIBLE = 1e10

# summary fields and impulse-response columns that move with the consumption policy
POLICY_FIELDS = {"mean_Y", "mean_C", "mean_K"}
IRF_POLICY_COLUMNS = {"d_log_Y"}

PATH_COLUMNS = ("t", "z", "K", "Y", "C", "measured_tfp", "lambda_t", "var_log_wage",
                "var_log_tfpq", "var_log_tfpr", "labor_share", "R", "w0")
IRF_COLUMNS = ("h", "d_log_Y", "d_measured_tfp", "d_var_log_wage", "d_var_log_tfpq",
               "d_var_log_tfpr")
PANEL_COLUMNS = ("theta", "eps1", "eps2", "Q", "k", "l", "chi", "revenue", "log_tfpq",
                 "log_tfpr")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _flat(value, prefix=""):
    """Numeric leaves of a JSON value as {dotted.key: number}; strings are skipped."""
    out = {}
    if isinstance(value, dict):
        for k, v in value.items():
            out.update(_flat(v, f"{prefix}{k}."))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out.update(_flat(v, f"{prefix}{i}."))
    elif isinstance(value, (bool, int, float)):
        out[prefix[:-1]] = value
    return out


def _close(a, b, rtol) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=ABS_FLOOR)


def _compare(got: dict, ref: dict, what: str, policy_fields=frozenset()) -> None:
    got, ref = _flat(got), _flat(ref)
    _require(set(got) == set(ref), f"{what}: fields {sorted(set(got) ^ set(ref))} differ "
                                   "from the reference")
    for key, r in ref.items():
        g = got[key]
        _require(isinstance(g, bool) or math.isfinite(g), f"{what}: {key} is not finite")
        rtol = POLICY_RTOL if key in policy_fields else EXACT_RTOL
        _require(_close(g, r, rtol), f"{what}: {key}={g!r} differs from reference {r!r}")


def _read_csv(path: Path, columns: tuple[str, ...], rows: int) -> np.ndarray:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        _require(tuple(header) == columns, f"{path.name}: header {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape == (rows, len(columns)),
             f"{path.name}: shape {data.shape}, expected {(rows, len(columns))}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")
    return data


def _read_json(path: Path) -> dict:
    payload = json.loads(path.read_text())
    _require(all(isinstance(v, bool) or math.isfinite(v) for v in _flat(payload).values()),
             f"{path.name}: non-finite values")
    return payload


def panel_digest(data: np.ndarray) -> dict:
    """Per-column sum of magnitudes, min and max of a panel (no cancellation)."""
    return {name: [float(np.sum(np.abs(data[:, i]))), float(data[:, i].min()),
                   float(data[:, i].max())] for i, name in enumerate(PANEL_COLUMNS)}


def irf_columns(data: np.ndarray) -> dict:
    """Every response column of an irf.csv table, horizon 0 first."""
    h = data[:, 0]
    _require(bool(np.array_equal(h, np.arange(h.shape[0]))), "irf.csv: h is not 0, 1, ...")
    return {name: data[:, i].tolist() for i, name in enumerate(IRF_COLUMNS) if name != "h"}


def _compare_columns(got: dict, ref: dict, what: str) -> None:
    """Column by column, to a tolerance scaled by the column's largest magnitude."""
    _require(set(got) == set(ref), f"{what}: columns {sorted(set(got) ^ set(ref))} differ")
    for name, r in ref.items():
        g, r = np.asarray(got[name]), np.asarray(r)
        _require(g.shape == r.shape, f"{what}: {name} has {g.size} rows, reference {r.size}")
        rtol = POLICY_RTOL if name in IRF_POLICY_COLUMNS else EXACT_RTOL
        worst = int(np.argmax(np.abs(g - r)))
        _require(abs(g[worst] - r[worst]) <= rtol * max(float(np.max(np.abs(r))), ABS_FLOOR),
                 f"{what}: {name}[h={worst}]={float(g[worst])!r} differs from reference "
                 f"{float(r[worst])!r}")


def names_digest(names: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()


def summarize(step: str, flags: dict, summary: dict, out: Path) -> dict:
    """The reference record of one invocation: what ``check_step`` compares."""
    if step == "solve":
        return {"summary": {k: v for k, v in summary.items() if k != "out"},
                "equilibrium": _read_json(out / "equilibrium.json")}
    if step in ("moments", "moments_csv"):
        rec = {"summary": summary, "moments": _read_json(out / "moments.json")}
        if flags.get("panel_csv"):
            rec["panel"] = panel_digest(_read_csv(out / "panel.csv", PANEL_COLUMNS,
                                                  flags["n_firms"]))
        return rec
    if step == "simulate":
        return {"summary": summary}
    if step == "irf":
        return {"summary": summary,
                "irf": irf_columns(_read_csv(out / "irf.csv", IRF_COLUMNS, flags["horizon"] + 1))}
    if step == "verify":
        report = _read_json(out / "verify.json")
        return {"summary": summary,
                "check_names": names_digest([c["name"] for c in report["checks"]])}
    raise ValueError(f"no reference record for step {step!r}")


def _check_calibration(flags: dict, seed: int, summary: dict, out: Path) -> None:
    cal = _read_json(out / "calibration.json")
    _require(tuple(cal["params"]) == CAL_PARAMS, f"parameter names {list(cal['params'])}")
    for name, (lo, hi) in zip(CAL_PARAMS, CAL_BOUNDS):
        v = cal["params"][name]
        _require(lo <= v <= hi, f"{name}={v!r} outside [{lo}, {hi}]")
        _require(summary[name] == v, f"summary {name} differs from calibration.json")
    objective = cal["objective"]
    _require(0.0 <= objective < CAL_INFEASIBLE, f"objective {objective!r} is infeasible")
    _require(summary["objective"] == objective, "summary objective differs from calibration.json")
    targets = json.loads(Path(flags["targets"]).read_text())
    recomputed = sum((cal["moments"][k] / t - 1.0) ** 2 for k, t in targets.items())
    _require(math.isclose(recomputed, objective, rel_tol=1e-9, abs_tol=ABS_FLOOR),
             f"objective {objective!r} does not match its moments ({recomputed!r})")
    _require(cal["seed"] == seed and cal["n_starts"] == flags["n_starts"],
             "seed or n_starts differ from the flags")
    _require(cal["n_evaluations"] >= flags["n_starts"],
             f"n_evaluations {cal['n_evaluations']} below n_starts")


def _check_outputs(step: str, flags: dict, seed: int, summary: dict, out: Path,
                   refs: dict) -> None:
    if step.startswith("calibrate"):
        _check_calibration(flags, seed, summary, out)
        return
    ref = refs["steps"][step].get(str(seed))
    _require(ref is not None, f"no reference for CLI seed {seed}")
    got = summarize(step, flags, summary, out)
    for part, value in ref.items():
        if part == "check_names":
            _require(got[part] == value, "verify check names differ from the reference")
        elif part == "irf":
            _compare_columns(got[part], value, "irf.csv")
        else:
            _compare(got[part], value, f"{step} {part}", POLICY_FIELDS)
    if step == "verify":
        report = _read_json(out / "verify.json")
        _require(report["passed"] is True and summary["passed"] is True, "verify did not pass")
    elif step == "simulate":
        path = _read_csv(out / "path.csv", PATH_COLUMNS, flags["T"])
        K, C = path[:, PATH_COLUMNS.index("K")], path[:, PATH_COLUMNS.index("C")]
        lo, hi = refs["k_hull"]
        _require(bool(np.all((K >= lo) & (K <= hi))),
                 f"capital leaves the grid hull [{lo:.6g}, {hi:.6g}]")
        _require(bool(np.all(C > 0.0)), "nonpositive consumption")


def check_step(step: str, flags: dict, seed: int, returncode: int, stdout: str, stderr: str,
               out: Path, refs: dict) -> list[str]:
    """Problems with one invocation's outputs (empty when they are correct)."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        lines = stdout.strip().splitlines()
        _require(bool(lines), "no summary on stdout")
        summary = json.loads(lines[-1])
        _require(isinstance(summary, dict), "summary is not a JSON object")
        _check_outputs(step, flags, seed, summary, out, refs)
    except CheckFailed as exc:
        problems.append(str(exc))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


def _perturb_first_number(value):
    """Copy of a JSON value with its first nonzero number changed; None if it has none."""
    if isinstance(value, dict):
        for k, v in value.items():
            new = _perturb_first_number(v)
            if new is not None:
                return {**value, k: new}
        return None
    if isinstance(value, bool):
        return None
    if isinstance(value, int) and value != 0:
        return value + 1
    if isinstance(value, float) and value != 0.0:
        return value * (1.0 + 1e-6)
    return None


def negative_control(step: str, flags: dict, seed: int, stdout: str, stderr: str, out: Path,
                     artifact: str, refs: dict) -> tuple[int, list[str]]:
    """Corrupt a correct invocation's outputs; (corruptions tried, those not flagged).

    1. one number of the stdout summary is moved by 1e-6 relative (or 1);
    2. irf only: every response from horizon 1 on is replaced by the next
       horizon's, as if the shock were carried one period too far;
    3. the last line of the artifact file is dropped (this edits the file).
    """
    tried, missed = 1, []
    bad = _perturb_first_number(json.loads(stdout.strip().splitlines()[-1]))
    if bad is not None:
        tried += 1
        if not check_step(step, flags, seed, 0, json.dumps(bad) + "\n", stderr, out, refs):
            missed.append(f"{step}: perturbed summary passed")
    path = out / artifact
    text = path.read_text()
    if step == "irf":
        tried += 1
        lines = text.splitlines(keepends=True)
        shifted = [line.split(",", 1)[0] + "," + nxt.split(",", 1)[1]
                   for line, nxt in zip(lines[2:-1], lines[3:])]
        path.write_text("".join(lines[:2] + shifted + lines[-1:]))
        if not check_step(step, flags, seed, 0, stdout, stderr, out, refs):
            missed.append(f"{step}: {artifact} shifted by one horizon passed")
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    if not check_step(step, flags, seed, 0, stdout, stderr, out, refs):
        missed.append(f"{step}: truncated {artifact} passed")
    return tried, missed
