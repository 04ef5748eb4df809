"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_references.py

Run it from the root of the checkout whose outputs are the reference; it
rewrites ``perfbench/references.json``.  Each of ``REFERENCE_SEEDS`` runs every
step of the dynamics and cross-section workloads.  A seed where any step
fails is left out of the pool and listed under ``excluded`` with the reason.
The calibration workload needs no reference: its checks are internal.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import time

from checks import check_step, summarize
from run import CONFIG, REFERENCES, RUN, SRC, WORK, WORKLOADS, prepare, run_subprocess

#: the candidate CLI seeds: the pool the dynamics and cross-section passes rotate through
REFERENCE_SEEDS = tuple(range(1, 13))


def capital_hull() -> list[float]:
    """[lo_frac * min K*, hi_frac * max K*]: the default capital grid's span."""
    sys.path.insert(0, str(SRC))
    import sortcycles as sc

    params, chain = sc.load_config(str(CONFIG))
    spec = sc.GridSpec()
    k_stars = [sc.steady_state(params, z)[0] for z in chain.z_states]
    return [spec.lo_frac * min(k_stars), spec.hi_frac * max(k_stars)]


def record_seed(seed: int, steps, hull: list[float]) -> tuple[dict, str | None]:
    """{step key: reference record} for one CLI seed, or the reason it failed.

    Each record must pass the checks that will use it.
    """
    records = {}
    for step in steps:
        out = RUN / step.key
        prepare(out)
        rc, _, _ = run_subprocess([sys.executable, "-m", "sortcycles.cli",
                                   *step.argv(seed, out)], out, time.monotonic() + 600)
        stdout = (out / "stdout.txt").read_text()
        stderr = (out / "stderr.txt").read_text()
        if rc != 0 or "Traceback" in stderr:
            return {}, f"{step.metric}: exit {rc}: {stderr.strip()[-200:]}"
        rec = summarize(step.key, step.flags, json.loads(stdout.strip().splitlines()[-1]), out)
        refs = {"k_hull": hull, "steps": {step.key: {str(seed): rec}}}
        problems = check_step(step.key, step.flags, seed, rc, stdout, stderr, out, refs)
        if problems:
            return {}, f"{step.metric}: {'; '.join(problems)}"
        records[step.key] = rec
    return records, None


def main() -> int:
    steps = WORKLOADS["dynamics"] + WORKLOADS["cross-section"]
    refs = {"k_hull": capital_hull(), "seeds": [], "excluded": {},
            "steps": {step.key: {} for step in steps}}
    try:
        for seed in REFERENCE_SEEDS:
            records, reason = record_seed(seed, steps, refs["k_hull"])
            if reason:
                refs["excluded"][str(seed)] = reason
                print(f"seed {seed}: excluded ({reason})", flush=True)
                continue
            for key, rec in records.items():
                refs["steps"][key][str(seed)] = rec
            refs["seeds"].append(seed)
            print(f"seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(RUN, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCES}: pool {refs['seeds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
