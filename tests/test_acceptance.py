"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 5's TFP-volatility clause is implemented exactly as stated and is
expected to fail: the published parameters place the model's measured-TFP
volatility an order of magnitude above the quoted target.  Measured TFP,
log Y - alpha log K, does not depend on K (Y scales as K^alpha), so it takes
one value per state and its standard deviation is |gap| * sqrt(f (1 - f)),
with gap the difference between the two states' values and f the recession
frequency.  At the published calibration that is 0.3817 * 0.2529 = 0.0965 at
the stationary distribution (0.1017 on the test's seeded path).  The stay
probabilities are not calibration targets, so the whole miss is in the gap,
which would have to be about 11 times smaller.  The model can produce 0.0090
at other parameters: `calibrate --fast` reaches objective 5.2568e-4 with
std_tfp 0.00900 and every other moment close to its target, at its default
seed 12345 as at seed 1.  The candidates left are the published parameter values
and the definition of measured TFP, and the abstract in PAPER.md does not
settle which.  Every other criterion passes.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import sortcycles as sc
from sortcycles import cli, firms, verify
from sortcycles.rng import block_uniforms, exponential_icdf

from .oracles import (bracket_scan_sign_changes, fixed_point_residual, held_panel,
                      tfpq_tail_index)

SEED = 20_260_808


def report(criterion: str, passed: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} {criterion} [{elapsed:.2f} s]: {detail}")


@pytest.fixture(scope="module")
def table():
    return sc.published_calibration()


@pytest.fixture(scope="module")
def timed_policy(table):
    params, chain = table
    t0 = time.perf_counter()
    policy = sc.solve_policy(params, chain)
    return policy, time.perf_counter() - t0


def test_criterion1_fixed_point_correctness(table):
    t0 = time.perf_counter()
    draws = verify.random_valid_params(1000, seed=SEED)
    zs = 1.2 * block_uniforms(SEED, "acc1-z", 0, 1000)[:, 0]
    worst_resid = 0.0
    sign_change_failures = 0
    for p, z in zip(draws, zs):
        shock = sc.AggregateShockState(z=float(z))
        lam = sc.solve_lambda(p, shock)
        resid = abs(float(fixed_point_residual(p, shock, lam)))
        worst_resid = max(worst_resid, resid / max(1.0, p.lambda_theta))
        if bracket_scan_sign_changes(p, shock) != 1:
            sign_change_failures += 1
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-12 and sign_change_failures == 0 and elapsed < 5.0
    report("criterion 1 (fixed point)", ok, elapsed,
           f"worst scaled residual {worst_resid:.2e}, "
           f"{sign_change_failures} bracket-scan failures over 1000 draws")
    assert worst_resid <= 1e-12
    assert sign_change_failures == 0
    assert elapsed < 5.0


def test_criterion2_firm_foc_oracle():
    t0 = time.perf_counter()
    u = block_uniforms(SEED, "acc2", 0, 4000)
    equilibria = []
    i = 0
    while len(equilibria) < 20 and i < 1000:
        p = verify.random_valid_params(1, seed=SEED + 17 * i)[0]
        z = 0.8 * float(u[i, 0])
        K = 0.5 + 15.0 * float(u[i, 1])
        i += 1
        try:
            shock = sc.AggregateShockState(z=z)
            eq = sc.solve_static(p, shock, K)
        except sc.SortCyclesError:
            continue
        equilibria.append((p, shock, eq))
    worst = 0.0
    per_eq = 10_000 // len(equilibria)
    for j, (p, shock, eq) in enumerate(equilibria):
        panel = held_panel(eq, per_eq, seed=SEED + j)
        w = sc.wage(eq, panel.matched_x)
        labor = panel.tau1 * w * panel.l / (p.gamma * panel.chi * panel.Q) - 1.0
        capital = panel.tau2 * eq.R * panel.k / (p.alpha * panel.chi * panel.Q) - 1.0
        q_in = panel.matched_x ** p.psi * np.where(panel.theta > 0, panel.theta, 1.0) ** (1.0 - p.psi)
        q_in = np.where(panel.theta > 0, q_in, 0.0)
        production = shock.A * np.exp(q_in) * panel.k ** p.alpha * panel.l ** p.gamma / panel.Q - 1.0
        demand = panel.P ** (-p.xi) * eq.Y / panel.Q - 1.0
        markup = panel.P / (p.xi / (p.xi - 1.0) * panel.chi) - 1.0
        for r in (labor, capital, production, demand, markup):
            worst = max(worst, float(np.max(np.abs(r))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report("criterion 2 (firm FOC oracle)", ok, elapsed,
           f"worst relative residual {worst:.2e} over {len(equilibria)} equilibria x {per_eq} firms")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion3_market_clearing_quadrature(table):
    params, chain = table
    t0 = time.perf_counter()
    worst = 0.0
    controls_fired = True
    for z in chain.z_states:
        shock = sc.AggregateShockState(z=z)
        eq = sc.solve_static(params, shock, 1.0)
        worst = max(worst, *verify.job_density_residuals(eq), verify.goods_market_residual(eq),
                    verify.capital_market_residual(eq))
        wrong_lambda = dataclasses.replace(eq, lambda_t=eq.lambda_t * 1.01)
        _, bad_shape = verify.job_density_residuals(wrong_lambda)
        controls_fired &= bad_shape > 1e-3
        controls_fired &= verify.goods_market_residual(
            dataclasses.replace(eq, Y=eq.Y * 1.01)) > 1e-8
        controls_fired &= verify.capital_market_residual(
            dataclasses.replace(eq, R=eq.R * 1.01)) > 1e-8
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and controls_fired and elapsed < 30.0
    report("criterion 3 (market-clearing quadrature)", ok, elapsed,
           f"worst residual {worst:.2e}, negative controls fired: {controls_fired}")
    assert worst < 1e-8
    assert controls_fired
    assert elapsed < 30.0


def test_criterion4_proposition_suite():
    t0 = time.perf_counter()
    grid = verify.random_valid_params(100, seed=SEED + 4)
    rep = verify.proposition_suite(grid)
    elapsed = time.perf_counter() - t0
    failed = [c.name for c in rep.checks if not c.passed]
    ok = rep.passed and elapsed < 60.0
    report("criterion 4 (proposition suite)", ok, elapsed,
           "zero violations at 100 points x 20-point grids" if rep.passed else f"violations: {failed}")
    assert rep.passed, failed
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def published_targets_run(table, timed_policy):
    params, chain = table
    policy, solve_time = timed_policy
    t0 = time.perf_counter()
    path = sc.simulate(policy, T=10_000, burn_in=100, seed=SEED)
    boom = sc.solve_static(params, sc.AggregateShockState(z=chain.z_low), 1.0)
    rec = sc.solve_static(params, sc.AggregateShockState(z=chain.z_high), 1.0)
    shares = {
        0: firms.revenue_concentration(boom),
        1: firms.revenue_concentration(rec),
    }
    freq_high = float(np.mean(path.states[100:]))
    moments = path.moments()
    moments["rev_share_top10"] = (1 - freq_high) * shares[0][0] + freq_high * shares[1][0]
    moments["rev_share_p50_p90"] = (1 - freq_high) * shares[0][1] + freq_high * shares[1][1]
    elapsed = solve_time + (time.perf_counter() - t0)
    return moments, elapsed


def test_criterion5_published_moments(published_targets_run):
    moments, elapsed = published_targets_run
    checks = {
        "labor share": (moments["labor_share"], 0.6102, 0.02, "abs"),
        "wage inequality": (moments["wage_inequality"], 0.7666, 0.15, "rel"),
        "top-10% revenue share": (moments["rev_share_top10"], 0.8906, 0.03, "abs"),
        "50-90 revenue share": (moments["rev_share_p50_p90"], 0.0840, 0.02, "abs"),
    }
    ok = True
    details = []
    for name, (got, target, tol, kind) in checks.items():
        err = abs(got - target) if kind == "abs" else abs(got / target - 1.0)
        ok &= err <= tol
        details.append(f"{name} {got:.4f} (target {target}, {kind} err {err:.4f})")
    ok &= elapsed < 600.0
    report("criterion 5 (published targets, attainable rows)", ok, elapsed, "; ".join(details))
    for name, (got, target, tol, kind) in checks.items():
        err = abs(got - target) if kind == "abs" else abs(got / target - 1.0)
        assert err <= tol, f"{name}: {got} vs {target}"
    assert elapsed < 600.0


def test_criterion5_std_tfp(table, published_targets_run):
    # implemented at the stated tolerance; fails with the published parameters
    # (model value ~0.0965 vs 0.0090 +/- 30%), see the module docstring
    params, chain = table
    moments, elapsed = published_targets_run
    got = moments["std_tfp"]
    err = abs(got / 0.0090 - 1.0)
    report("criterion 5 (published TFP volatility target)", err <= 0.30, elapsed,
           f"std of measured TFP {got:.4f} vs target 0.0090 +/- 30% (rel err {err:.2f})")
    shocks = (sc.AggregateShockState(z=z) for z in (chain.z_low, chain.z_high))
    tfp_boom, tfp_rec = (sc.measured_tfp(sc.solve_static(params, s, 1.0)) for s in shocks)
    gap = abs(tfp_rec - tfp_boom)
    freq = moments["recession_frequency"]
    spread = math.sqrt(freq * (1.0 - freq))
    assert err <= 0.30, (
        f"std of measured TFP is {got:.4f} = |gap| {gap:.4f} x sqrt(f(1-f)) {spread:.4f}: "
        f"measured TFP is {tfp_boom:.4f} in booms and {tfp_rec:.4f} in recessions, and the "
        f"sampled recession frequency is f = {freq:.4f}; the 0.0090 target needs a gap of "
        f"{0.0090 / spread:.4f}, {gap * spread / 0.0090:.1f} times smaller")


def test_criterion6_irf_qualitative(table, timed_policy):
    params, chain = table
    policy, solve_time = timed_policy
    t0 = time.perf_counter()
    irf = sc.impulse_response(policy, horizon=20, n_sims=1000, seed=SEED)
    boom = sc.solve_static(params, sc.AggregateShockState(z=chain.z_low), 1.0)
    rec = sc.solve_static(params, sc.AggregateShockState(z=chain.z_high), 1.0)
    vw0, vq0, vr0 = sc.dispersions(boom.params, boom.shock, boom.lambda_t)
    vwh, vqh, vrh = sc.dispersions(rec.params, rec.shock, rec.lambda_t)
    elapsed = solve_time + (time.perf_counter() - t0)

    signs_ok = (irf.d_log_Y[0] < -0.05 and irf.d_measured_tfp[0] < 0.0
                and irf.d_var_log_tfpq[0] > 0.0 and irf.d_var_log_tfpr[0] > 0.0
                and irf.d_var_log_wage[0] < 0.0)
    pairs = {
        "TFPQ variance": ((vq0, 0.1203), (vqh, 0.2254)),
        "TFPR variance": ((vr0, 0.0546), (vrh, 0.1330)),
        "wage inequality": ((vw0, 0.7901), (vwh, 0.3132)),
    }
    levels_ok = True
    detail = [f"impact dlogY {irf.d_log_Y[0]:.3f}"]
    for name, ((got_b, want_b), (got_r, want_r)) in pairs.items():
        eb, er = abs(got_b / want_b - 1.0), abs(got_r / want_r - 1.0)
        levels_ok &= eb <= 0.20 and er <= 0.20
        detail.append(f"{name} {got_b:.4f}/{got_r:.4f} vs {want_b}/{want_r}")
    ok = signs_ok and levels_ok and elapsed < 600.0
    report("criterion 6 (IRF qualitative)", ok, elapsed, "; ".join(detail))
    assert signs_ok
    assert levels_ok
    assert elapsed < 600.0


def test_criterion7_monte_carlo_analytic_equivalence(table):
    params, chain = table
    t0 = time.perf_counter()
    shock = sc.AggregateShockState(z=chain.z_low)
    eq = sc.solve_static(params, shock, 1.0)
    panel = held_panel(eq, 1_000_000, seed=SEED)
    vw, vq, vr = sc.dispersions(eq.params, eq.shock, eq.lambda_t)

    def within_3se(series, target):
        centered = (series - series.mean()) ** 2
        se = float(np.std(centered) / math.sqrt(series.shape[0]))
        return abs(float(np.var(series)) - target) <= 3.0 * se, se

    ok_q, se_q = within_3se(panel.log_tfpq, vq)
    ok_r, se_r = within_3se(panel.log_tfpr, vr)
    # worker-side wage sample: the variance is defined over x ~ Exp(lambda_x)
    x = exponential_icdf(block_uniforms(SEED, "acc7-x", 0, 1_000_000)[:, 0], params.lambda_x)
    logw = np.log(sc.wage(eq, x))
    ok_w, se_w = within_3se(logw, vw)
    tail = tfpq_tail_index(panel.log_tfpq)
    tail_target = params.lambda_theta / (eq.lambda_t / params.lambda_x) ** params.psi
    ok_tail = abs(tail / tail_target - 1.0) <= 0.05
    elapsed = time.perf_counter() - t0
    ok = ok_q and ok_r and ok_w and ok_tail and elapsed < 60.0
    report("criterion 7 (MC/analytic equivalence)", ok, elapsed,
           f"tfpq ok={ok_q}, tfpr ok={ok_r}, wage ok={ok_w}, "
           f"tail {tail:.3f} vs {tail_target:.3f}")
    assert ok_q and ok_r and ok_w
    assert ok_tail
    assert elapsed < 60.0


def test_criterion8_dynamic_accuracy(table, timed_policy):
    params, chain = table
    policy, solve_time = timed_policy
    t0 = time.perf_counter()
    g = np.random.default_rng(SEED)
    pts = g.uniform(policy.K_grid[0] * 1.01, policy.K_grid[-1] * 0.99, 1000)
    states = g.integers(0, 2, 1000)
    p99 = float(np.quantile(sc.euler_residuals(policy, params, pts, states), 0.99))

    path = sc.simulate(policy, T=2000, burn_in=100, seed=SEED + 8)
    income = policy.table.income[path.states] * path.K ** params.alpha
    budget = np.max(np.abs((path.C[:-1] + path.K[1:] - (1.0 - params.delta) * path.K[:-1]
                            - income[:-1]) / income[:-1]))

    quiet = dataclasses.replace(chain, p_stay_low=1.0, p_stay_high=0.0)
    pol0 = sc.solve_policy(params, quiet, grid_spec=sc.GridSpec(n=300))
    k_star = sc.steady_state(params, 0.0)[0]
    path0 = sc.simulate(pol0, T=501, burn_in=1, seed=2, K0=0.6 * k_star)
    conv = abs(path0.K[-1] / k_star - 1.0)
    elapsed = solve_time + (time.perf_counter() - t0)
    ok = p99 < 1e-5 and budget <= 1e-10 and conv < 1e-3 and elapsed < 300.0
    report("criterion 8 (dynamic accuracy)", ok, elapsed,
           f"Euler p99 {p99:.2e}, budget {budget:.2e}, steady-state gap {conv:.2e}")
    assert p99 < 1e-5
    assert budget <= 1e-10
    assert conv < 1e-3
    assert elapsed < 300.0


def test_criterion9_theta_process(table):
    t0 = time.perf_counter()
    proc = sc.ThetaRedrawProcess(rho=0.7, lambda_low=2.0, lambda_high=2.5,
                                 p_stay_low=0.9, p_stay_high=0.8)
    res = verify.theta_process_check(proc, n=100_000, T=50, seed=SEED)
    bad = sc.ThetaRedrawProcess(rho=0.7, lambda_low=2.0, lambda_high=3.0,
                                p_stay_low=0.9, p_stay_high=0.8)
    with pytest.raises(sc.InvalidProcess):
        verify.theta_process_check(bad, n=100, T=5, seed=1)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 60.0
    report("criterion 9 (theta-process stationarity)", ok, elapsed,
           f"KS acceptance at {int(res.statistic)}/5 checkpoints; invalid process rejected")
    assert res.passed
    assert elapsed < 60.0


def test_criterion10_determinism(table, tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "published.json"
    cfg.write_text(
        '{"params": {"alpha": 0.3, "gamma": 0.6, "delta": 0.10, "beta": 0.96, "xi": 9,'
        ' "psi": 0.4022, "lambda_x": 0.8681, "lambda_theta": 2.6160, "sigma1": 0.2293,'
        ' "sigma2": 0}, "chain": {"z_high": 0.3984, "p_stay_low": 0.977,'
        ' "p_stay_high": 0.688}}')
    jobs = {
        "solve": ["solve", "--z", "0.3984"],
        "moments": ["moments", "--n-firms", "30000", "--panel-csv"],
        "simulate": ["simulate", "--T", "400", "--burn-in", "50", "--grid-size", "100"],
        "irf": ["irf", "--horizon", "6", "--n-sims", "64", "--grid-size", "100"],
        "calibrate": ["calibrate", "--fast", "--n-starts", "2", "--max-iter", "60"],
        "calibrate-full": ["calibrate", "--T", "600", "--burn-in", "60", "--n-starts", "1",
                           "--max-iter", "4", "--grid-size", "120"],
        "verify": ["verify", "--n-prop-points", "10"],
    }
    mismatches = []
    for name, args in jobs.items():
        outputs = []
        for variant, threads in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / f"{name}-{variant}"
            rc = cli.run(args + ["--params", str(cfg), "--seed", "7",
                                 "--threads", str(threads), "--out", str(out)])
            assert rc == 0, (name, variant, rc)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        if not (outputs[0] == outputs[1] == outputs[2]):
            mismatches.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report("criterion 10 (byte determinism)", ok, elapsed,
           "all six subcommands and full-mode calibrate byte-identical across reruns "
           "and --threads 1 vs 8"
           if ok else f"mismatches: {mismatches}")
    assert not mismatches
