import contextlib
import dataclasses
import math
import mmap
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

import sortcycles as sc
from sortcycles import firms, verify
from sortcycles.rng import block_uniforms, normal_icdf

from .oracles import (HeldPanel, central_diff, cross_section_moments_oracle, held_panel,
                      tfpq_tail_index, topshare_fixed_bisection, topshare_mc,
                      write_csv_oracle)
from .test_statics import LAMBDA_BOOM, with_params

SEED = 20_260_816


def solve_at(params, z, K=1.0):
    shock = sc.AggregateShockState(z=z)
    return sc.solve_static(params, shock, K), shock


class TestMatching:
    def test_zero_worker(self, boom_eq):
        assert sc.matching(boom_eq, 0.0) == 0.0

    def test_identity_when_rates_coincide(self, boom_eq):
        eq = dataclasses.replace(boom_eq, lambda_t=boom_eq.params.lambda_x)
        x = np.array([0.0, 0.3, 2.5])
        assert np.array_equal(sc.matching(eq, x), x)

    def test_table_value(self, table, boom_eq):
        params, _ = table
        h = sc.matching(boom_eq, 1.0)
        assert h == pytest.approx(params.lambda_x / LAMBDA_BOOM, rel=1e-12)
        assert h == pytest.approx(1.163, abs=2e-3)  # 0.8681 / 0.74647

    def test_matched_worker_inverts(self, boom_eq):
        panel = held_panel(boom_eq, 100, seed=1)
        assert np.allclose(sc.matching(boom_eq, panel.matched_x), panel.theta, rtol=1e-14)


class TestWage:
    def test_base_wage(self, boom_eq):
        assert sc.wage(boom_eq, 0.0) == boom_eq.w0

    def test_log_slope_by_finite_difference(self, table, boom_eq):
        params, _ = table
        slope = (params.psi / params.gamma) * (params.lambda_x / boom_eq.lambda_t) ** (1.0 - params.psi)
        fd = central_diff(lambda x: math.log(sc.wage(boom_eq, x)), 1.3, 1e-6)
        assert fd == pytest.approx(slope, abs=1e-8)

    def test_worker_population_variance_matches_analytic(self, table, boom_eq):
        # Var over x ~ Exp(lambda_x) of log w(x), seeded 10^6-draw Monte Carlo
        params, _ = table
        from sortcycles.rng import exponential_icdf
        u = block_uniforms(99, "wage-var", 0, 1_000_000)[:, 0]
        x = exponential_icdf(u, params.lambda_x)
        logw = np.log(sc.wage(boom_eq, x))
        vw, _, _ = sc.dispersions(boom_eq.params, boom_eq.shock, boom_eq.lambda_t)
        sample_var = float(np.var(logw))
        centered = (logw - logw.mean()) ** 2
        se = float(np.std(centered) / math.sqrt(len(logw)))
        assert abs(sample_var - vw) < 3.0 * se


def drawn_from(eq, **param_overrides):
    """``eq`` with its panel drawn from another type rate or wedge volatility;
    the allocation's constants stay those of ``eq``."""
    return dataclasses.replace(eq, params=dataclasses.replace(eq.params, **param_overrides))


@pytest.fixture(scope="module")
def equilibria(table):
    """Both published states at K = 1 and the first 20 solvable equilibria of
    seeded valid parameters, z in [0, 0.8) and K in [0.5, 15.5)."""
    params, chain = table
    out = [sc.solve_static(params, sc.AggregateShockState(z=z), 1.0)
           for z in chain.z_states]
    u = block_uniforms(SEED, "log-wage", 0, 1000)
    i = 0
    while len(out) < 22:
        p = verify.random_valid_params(1, seed=SEED + 17 * i)[0]
        z, K = 0.8 * float(u[i, 0]), 0.5 + 15.0 * float(u[i, 1])
        i += 1
        with contextlib.suppress(sc.SortCyclesError):
            out.append(sc.solve_static(p, sc.AggregateShockState(z=z), K))
    return out


class TestClosedFormLogWage:
    def test_matches_the_log_of_the_wage_bill_per_worker(self, equilibria):
        # log w0 + slope·x against log(w0 exp(slope·x) l / l): within 4 ulps
        # of the largest term, measured at most 3
        for j, eq in enumerate(equilibria):
            panel = held_panel(eq, 2 * firms.SAMPLE_CHUNK + 3, seed=j)
            closed = firms._log_wage(eq, panel.theta)
            old = np.log(panel.wage_bill / panel.l)
            slope_x = firms._wage_slope(eq) * panel.matched_x
            scale = np.maximum.reduce([np.abs(closed), np.abs(slope_x),
                                       np.full(len(panel), max(abs(math.log(eq.w0)), 1.0))])
            assert np.all(np.abs(closed - old) <= 4.0 * np.spacing(scale)), j

    def test_moments_match_the_whole_array_oracle(self, equilibria):
        # measured within 4.5e-16 relative
        n = 2 * firms.SAMPLE_CHUNK + 3
        for j, eq in enumerate(equilibria):
            got = sc.panel_moments(eq, n, j)
            want = cross_section_moments_oracle(held_panel(eq, n, seed=j), eq)
            for name in (*VARIANCES, *SHARES):
                assert math.isclose(got[name], want[name], rel_tol=1e-12, abs_tol=0.0), (j, name)


class TestFirmOutcome:
    def test_zero_type_firm_sits_at_scale_constants(self, boom_eq):
        # a type rate of 1e300 draws types below 1e-298 and no wedges: every
        # firm is the zero-type firm, to the last bit of its log quantities
        eq = drawn_from(boom_eq, lambda_theta=1e300, sigma1=0.0, sigma2=0.0)
        chunk = firms._sample_chunk(eq, 1, 0, 100)
        assert np.all(chunk["theta"] < 1e-298)
        assert np.all(chunk["Q"] == boom_eq.Q_bar)
        assert np.all(chunk["k"] == boom_eq.k_bar)
        assert np.all(chunk["chi"] == boom_eq.chi_bar)
        assert np.all(chunk["l"] == boom_eq.l_bar)

    def test_foc_residual_suite(self, table, recession_eq):
        # labor FOC, capital FOC, production identity, demand/markup identity
        params, _ = table
        eq, shock = recession_eq, recession_eq.shock
        panel = held_panel(eq, 5000, seed=17)
        w = sc.wage(eq, panel.matched_x)
        labor_foc = panel.tau1 * w * panel.l / (params.gamma * panel.chi * panel.Q) - 1.0
        capital_foc = panel.tau2 * eq.R * panel.k / (params.alpha * panel.chi * panel.Q) - 1.0
        q_prod = panel.matched_x ** params.psi * panel.theta ** (1.0 - params.psi)
        production = shock.A * np.exp(q_prod) * panel.k ** params.alpha * panel.l ** params.gamma / panel.Q - 1.0
        demand = panel.P ** (-params.xi) * eq.Y / panel.Q - 1.0
        for resid in (labor_foc, capital_foc, production, demand):
            assert np.max(np.abs(resid)) < 1e-9

    def test_markup_and_demand_invariants(self, table, boom_eq):
        params, _ = table
        panel = held_panel(boom_eq, 2000, seed=3)
        assert np.allclose(panel.P, params.xi / (params.xi - 1.0) * panel.chi, rtol=1e-14)
        assert np.max(np.abs(panel.P ** (-params.xi) * boom_eq.Y / panel.Q - 1.0)) < 1e-10

    def test_labor_share_of_revenue(self, table, boom_eq):
        # wage_bill/revenue = gamma*(xi-1)/(xi*tau1); the gamma follows from
        # the labor FOC (the source text drops it)
        params, _ = table
        panel = held_panel(boom_eq, 2000, seed=3)
        expected = params.gamma * (params.xi - 1.0) / (params.xi * panel.tau1)
        assert np.max(np.abs(panel.wage_bill / panel.revenue - expected)) < 1e-10

    def test_tfpr_is_price_times_tfpq(self, boom_eq):
        panel = held_panel(boom_eq, 2000, seed=5)
        assert np.max(np.abs(np.log(panel.P) + panel.log_tfpq - panel.log_tfpr)) < 1e-12

    def test_tfpr_type_loading_is_positive(self, table):
        # both bracket terms are strictly positive across (params, z)
        params, _ = table
        for z in np.linspace(0.0, 1.5, 8):
            eq, shock = solve_at(params, z)
            c = eq.coefficients
            ratio = (eq.lambda_t / params.lambda_x) ** params.psi
            assert ratio - params.eta_q * c.eta_q_theta / params.xi > 0.0

    def test_overflow_raises_nonfinite(self, boom_eq):
        # a type rate of 0.001 draws types in the thousands, whose log
        # quantities pass the exp cap
        with pytest.raises(sc.NonFinite, match="exp cap"):
            firms._sample_chunk(drawn_from(boom_eq, lambda_theta=0.001), 1, 0, 1000)


class TestAnalyticMoments:
    def test_psi_zero_kills_wage_heterogeneity(self, table):
        params, _ = table
        p0 = with_params(params, psi=0.0, lambda_theta=6.0)
        eq, _ = solve_at(p0, 0.0)
        vw, vq, vr = sc.dispersions(eq.params, eq.shock, eq.lambda_t)
        assert vw == 0.0
        assert vq > 0.0 and vr > 0.0

    def test_published_dispersion_levels(self, boom_eq):
        # rounded published parameters reproduce the reported boom-state
        # moments to within 15%
        vw, vq, vr = sc.dispersions(boom_eq.params, boom_eq.shock, boom_eq.lambda_t)
        assert vq == pytest.approx(0.1203, rel=0.15)
        assert vw == pytest.approx(0.7901, rel=0.15)

    def test_sigma_separation(self, table, boom_eq):
        # perturbing the wedge volatilities moves TFPR dispersion only
        params, _ = table
        base = sc.dispersions(boom_eq.params, boom_eq.shock, boom_eq.lambda_t)
        bumped = sc.dispersions(with_params(params, sigma1=0.4, sigma2=0.2), boom_eq.shock,
                                boom_eq.lambda_t)
        assert bumped[0] == base[0]
        assert bumped[1] == base[1]
        assert bumped[2] > base[2]

    def test_monotone_in_z(self, table):
        params, _ = table
        rows = []
        for z in np.linspace(0.0, 1.0, 20):
            eq, _ = solve_at(params, z)
            rows.append(sc.dispersions(eq.params, eq.shock, eq.lambda_t))
        vw, vq, vr = map(np.array, zip(*rows))
        assert np.all(np.diff(vw) < 0.0)
        assert np.all(np.diff(vq) > 0.0)
        assert np.all(np.diff(vr) > 0.0)

    def test_monotone_in_lambda_theta(self, table):
        # redraw-rate comparative statics: lower lambda_theta raises all three
        params, _ = table
        rows = []
        for lt in np.linspace(3.0, 6.0, 20):
            eq, _ = solve_at(with_params(params, lambda_theta=lt), 0.2)
            rows.append(sc.dispersions(eq.params, eq.shock, eq.lambda_t))
        vw, vq, vr = map(np.array, zip(*rows))
        assert np.all(np.diff(vw) < 0.0)
        assert np.all(np.diff(vq) < 0.0)
        assert np.all(np.diff(vr) < 0.0)


class TestSampling:
    def test_deterministic_rerun(self, boom_eq):
        # 150,000 firms span ten sampling chunks
        a = held_panel(boom_eq, 150_000, seed=8)
        b = held_panel(boom_eq, 150_000, seed=8)
        for col in a.columns:
            assert np.array_equal(getattr(a, col), getattr(b, col)), col

    def test_prefix_property(self, boom_eq):
        # the first k draws of a size-n panel equal the size-k panel, also
        # when n and k fall on different sides of a SAMPLE_CHUNK boundary
        for n, k in ((3000, 1000), (150_000, 70_000)):
            big = held_panel(boom_eq, n, seed=8)
            small = held_panel(boom_eq, k, seed=8)
            for col in big.columns:
                assert np.array_equal(getattr(big, col)[:k], getattr(small, col)), (n, k, col)

    def test_single_firm_satisfies_focs(self, table, boom_eq):
        params, _ = table
        panel = held_panel(boom_eq, 1, seed=123)
        out = panel.row(0)
        w = sc.wage(boom_eq, out.matched_x)
        assert out.tau1 * w * out.l == pytest.approx(params.gamma * out.chi * out.Q, rel=1e-9)
        assert out.tau2 * boom_eq.R * out.k == pytest.approx(params.alpha * out.chi * out.Q, rel=1e-9)

    def test_moments_match_analytic_within_3se(self, boom_eq):
        panel = held_panel(boom_eq, 1_000_000, seed=31)
        _, vq, vr = sc.dispersions(boom_eq.params, boom_eq.shock, boom_eq.lambda_t)
        for series, target in ((panel.log_tfpq, vq), (panel.log_tfpr, vr)):
            centered = (series - series.mean()) ** 2
            se = float(np.std(centered) / math.sqrt(series.shape[0]))
            assert abs(np.var(series) - target) < 3.0 * se

    def test_mean_revenue_matches_output_thin_tail(self, table):
        # finite-variance configuration (revenue tail index > 2), where the
        # CLT applies; heavy-tail behavior at the published point is covered
        # by the continuum share tests
        params, _ = table
        p = with_params(params, xi=4.0, psi=0.25, lambda_theta=5.0, lambda_x=1.0, sigma1=0.1)
        eq, _ = solve_at(p, 0.1, K=2.0)
        panel = held_panel(eq, 400_000, seed=12)
        se = float(np.std(panel.revenue) / math.sqrt(len(panel)))
        assert abs(float(np.mean(panel.revenue)) - eq.Y) < 3.0 * se

    def test_empty_panel_rejected(self, boom_eq):
        with pytest.raises(sc.EmptyPanel):
            sc.panel_moments(boom_eq, 0, seed=1)

    @pytest.mark.parametrize("sigma", [0.0, -0.0, 0.2293])
    def test_a_wedge_is_sigma_times_the_normal_deviate(self, sigma):
        # a zero-width wedge skips the inverse cdf but keeps every signed
        # zero of the product, u = 0.5 (which the sampler can draw) included
        u = np.concatenate((block_uniforms(5, "wedge", 0, 4096).ravel(),
                            [0.5, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53, 2.0 ** -54,
                             1.0 - 2.0 ** -53, 0.02, 0.98]))
        got = firms._wedge(sigma, u)
        want = sigma * normal_icdf(u)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_a_zero_width_wedge_draws_no_normal_deviates(self, boom_eq, monkeypatch):
        # the published sigma2 is 0: only the eps1 column needs AS 241
        assert boom_eq.params.sigma2 == 0.0
        calls = []
        monkeypatch.setattr(firms, "normal_icdf",
                            lambda u: calls.append(u.shape) or normal_icdf(u))
        chunk = firms._sample_chunk(boom_eq, 3, 0, 1000)
        assert calls == [(1000,)]
        assert np.array_equal(np.signbit(chunk["eps2"]),
                              np.signbit(block_uniforms(3, "panel", 0, 1000)[:, 2] - 0.5))


class TestCrossSectionMoments:
    def test_identical_firms_top_decile(self, table):
        # lambda_theta -> infinity limit: theta ~ 0, no wedge noise
        params, _ = table
        eq, _ = solve_at(with_params(params, lambda_theta=1e12, sigma1=0.0, sigma2=0.0), 0.0)
        m = sc.panel_moments(eq, 1000, seed=2)
        assert m["rev_share_top10"] == pytest.approx(0.10, abs=1e-6)

    def test_weighted_wage_variance_consistent_when_weights_are_light(self, table):
        # employment falls with type here (lambda_t > lambda_theta), so the
        # l-weights are bounded and the weighted estimator obeys the CLT
        params, _ = table
        p = with_params(params, xi=4.0, psi=0.3, lambda_theta=4.0, lambda_x=1.0, sigma1=0.1)
        eq, _ = solve_at(p, 0.8)
        assert eq.lambda_t > p.lambda_theta
        m = sc.panel_moments(eq, 400_000, seed=9)
        vw, _, _ = sc.dispersions(eq.params, eq.shock, eq.lambda_t)
        assert m["var_log_wage"] == pytest.approx(vw, rel=0.02)

    def test_labor_share_is_aggregate(self, boom_eq):
        m = sc.panel_moments(boom_eq, 100, seed=4)
        assert m["labor_share"] == boom_eq.labor_share

    def test_empty_panel_rejected(self, boom_eq):
        # a negative size too, before any revenue map is asked for
        with pytest.raises(sc.EmptyPanel):
            sc.panel_moments(boom_eq, -5, seed=1, workers=3)


VARIANCES = ("var_log_wage", "var_log_tfpq", "var_log_tfpr")
SHARES = ("rev_share_top10", "rev_share_p50_p90")
#: a sampled chunk's columns plus the sampler's temporaries, with room to spare
CHUNK_BYTES = 40 * 8 * firms.SAMPLE_CHUNK


def recorded_maps(monkeypatch) -> list[tuple[int, int]]:
    """The (fileno, length) of each memory map opened from here on, in order;
    tracemalloc does not see what a map holds."""
    maps = []
    real = mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        maps.append((fileno, length))
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", recording)
    return maps


def assert_moments_agree(got, want):
    """Log-variances within 1e-13 relative, everything else bit for bit."""
    for name in VARIANCES:
        assert math.isclose(got[name], want[name], rel_tol=1e-13, abs_tol=0.0), name
    for name in (*SHARES, "labor_share", "n_firms", "seed"):
        assert got[name] == want[name], name


def tied_panel(revenue):
    """A hand-built panel with the given revenues and unit everything else."""
    ones = np.ones(len(revenue))
    names = (*firms.PANEL_COLUMNS, "wage_bill")
    return HeldPanel({**dict.fromkeys(names, ones), "revenue": np.asarray(revenue, dtype=float)},
                     seed=0)


def sample_from(monkeypatch, panel):
    """Make the sampler hand out slices of ``panel``'s columns."""
    monkeypatch.setattr(firms, "_sample_chunk", lambda eq, seed, start, stop: {
        name: getattr(panel, name)[start:stop] for name in firms.PANEL_COLUMNS})


#: 2^16: a chunk boundary for every power-of-two SAMPLE_CHUNK up to it
BOUNDARY = 1 << 16


class TestStreamedMoments:
    # one firm, and panels that end one firm short of, one past and five past a
    # chunk boundary, over four to twelve chunks
    @pytest.mark.parametrize("n", [1, BOUNDARY - 1, BOUNDARY + 1, 3 * BOUNDARY + 5])
    def test_matches_the_whole_array_oracle(self, boom_eq, n):
        assert BOUNDARY % firms.SAMPLE_CHUNK == 0
        panel = held_panel(boom_eq, n, seed=21)
        want = cross_section_moments_oracle(panel, boom_eq)
        assert_moments_agree(sc.panel_moments(boom_eq, n, 21), want)

    def test_one_chunk_is_bit_identical_to_the_oracle(self, boom_eq):
        # the oracle given the closed-form log wage, so that only the
        # reduction's arithmetic is compared
        panel = held_panel(boom_eq, 5000, seed=4)
        assert sc.panel_moments(boom_eq, 5000, 4) == cross_section_moments_oracle(
            panel, boom_eq, firms._log_wage(boom_eq, panel.theta))

    @pytest.mark.parametrize("size", [7, 1000, BOUNDARY - 1])
    def test_chunk_invariance(self, boom_eq, size, monkeypatch):
        # the same panel reduced in chunks of another size
        n = BOUNDARY + 1001
        want = sc.panel_moments(boom_eq, n, 13)
        monkeypatch.setattr(firms, "SAMPLE_CHUNK", size)
        assert_moments_agree(sc.panel_moments(boom_eq, n, 13), want)

    def test_tied_revenues_give_exact_shares(self, boom_eq, monkeypatch):
        # 20 firms: the top two are a 5 and one of four 4s, the p50-p90
        # block the other three 4s and five of the eight 3s; total 55
        revenue = [4, 3, 5, 1, 3, 4, 2, 3, 1, 4, 3, 2, 1, 3, 4, 3, 3, 2, 1, 3]
        sample_from(monkeypatch, tied_panel(revenue))
        m = sc.panel_moments(boom_eq, len(revenue), 0)
        assert m["rev_share_top10"] == 9.0 / 55.0
        assert m["rev_share_p50_p90"] == 27.0 / 55.0

    def test_ties_across_chunks_match_the_oracle_exactly(self, boom_eq, monkeypatch):
        n = 2 * firms.SAMPLE_CHUNK + 7
        panel = tied_panel(np.resize([3.0, 1.0, 2.0, 3.0, 2.0], n))
        sample_from(monkeypatch, panel)
        m = sc.panel_moments(boom_eq, n, 0)
        want = cross_section_moments_oracle(panel, boom_eq)
        assert (m["rev_share_top10"], m["rev_share_p50_p90"]) == (want["rev_share_top10"],
                                                                  want["rev_share_p50_p90"])
        # integer revenues: every partial sum is exact
        ranked = np.sort(panel.revenue)[::-1]
        k10, k50 = round(0.1 * n), round(0.5 * n)
        total = int(ranked.sum())
        assert m["rev_share_top10"] == int(ranked[:k10].sum()) / total
        assert m["rev_share_p50_p90"] == int(ranked[k10:k50].sum()) / total

    def test_chunks_are_the_held_panel(self, boom_eq, monkeypatch):
        # the chunks the moments reduce hold exactly the columns of panel.csv
        n = firms.SAMPLE_CHUNK + 3
        chunks = []
        monkeypatch.setattr(firms, "_sample_chunk", lambda *args: chunks.append(
            _SAMPLE_CHUNK(*args)) or chunks[-1])
        sc.panel_moments(boom_eq, n, 6)
        assert [len(c["theta"]) for c in chunks] == [firms.SAMPLE_CHUNK, 3]
        assert all(tuple(c) == firms.PANEL_COLUMNS for c in chunks)
        panel = held_panel(boom_eq, n, seed=6)
        for name in firms.PANEL_COLUMNS:
            assert np.array_equal(np.concatenate([c[name] for c in chunks]),
                                  getattr(panel, name)), name

    def test_empty_panel_rejected_at_the_call(self, boom_eq, monkeypatch):
        # before any firm is drawn or any row written
        def refuse(*args):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(firms, "_sample_chunk", refuse)
        with tempfile.TemporaryFile("w+") as fh:
            with pytest.raises(sc.EmptyPanel):
                sc.panel_moments(boom_eq, 0, 1, 2, fh)
            assert fh.tell() == 0

    def test_peak_memory_is_the_revenue_column_plus_a_chunk(self, boom_eq, monkeypatch):
        # the held panel takes 15 x 8 bytes per firm; the moments keep the
        # revenue column, 8 bytes per firm, in one anonymous map, and one
        # chunk at a time on the heap
        n = 1 << 20
        maps = recorded_maps(monkeypatch)
        tracemalloc.start()
        try:
            sc.panel_moments(boom_eq, n, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert maps == [(-1, 8 * n)]
        assert peak < CHUNK_BYTES, peak


def no_child_process_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


_SAMPLE_CHUNK = firms._sample_chunk


def failing_chunks(monkeypatch, starts):
    """Make the sampler raise NonFinite, naming the chunk, at each chunk start in
    ``starts``; forked workers inherit the patch."""
    def sample(eq, seed, start, stop):
        if start in starts:
            raise sc.NonFinite(f"chunk at firm {start}")
        return _SAMPLE_CHUNK(eq, seed, start, stop)

    monkeypatch.setattr(firms, "_sample_chunk", sample)


class TestPanelMoments:
    # the worker count is passed as is, so a one-core machine forks too
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [firms.SAMPLE_CHUNK + 1, 3 * firms.SAMPLE_CHUNK + 5,
                                   100_000])
    def test_bit_identical_to_the_streamed_moments(self, boom_eq, n, workers):
        # the streamed moments: one process reducing every chunk in turn
        want = sc.panel_moments(boom_eq, n, 17, workers=1)
        assert sc.panel_moments(boom_eq, n, 17, workers) == want
        assert no_child_process_left()

    def test_rows_arrive_in_draw_order(self, boom_eq, tmp_path):
        n = 3 * firms.SAMPLE_CHUNK + 5
        texts = []
        for workers in (1, 3):
            with tempfile.TemporaryFile("w+") as fh:
                sc.panel_moments(boom_eq, n, 4, workers, fh)
                fh.seek(0)
                texts.append(fh.read())
        panel = held_panel(boom_eq, n, seed=4)
        write_csv_oracle(tmp_path / "panel.csv",
                         {name: getattr(panel, name) for name in firms.PANEL_COLUMNS})
        assert texts == [(tmp_path / "panel.csv").read_text()] * 2

    def test_one_worker_forks_nothing(self, boom_eq, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        n = 3 * firms.SAMPLE_CHUNK
        want = sc.panel_moments(boom_eq, n, 2, workers=3)
        monkeypatch.setattr(os, "fork", refuse)
        assert sc.panel_moments(boom_eq, n, 2, workers=1) == want

    def test_the_lowest_failing_chunk_wins(self, boom_eq, monkeypatch):
        # four chunks dealt to three processes: [0, 3] here, [1] and [2] to workers
        chunk = firms.SAMPLE_CHUNK
        n = 4 * chunk
        for starts, first in (({3 * chunk, chunk}, chunk), ({3 * chunk}, 3 * chunk),
                              ({2 * chunk, 0}, 0)):
            failing_chunks(monkeypatch, starts)
            with pytest.raises(sc.NonFinite, match=f"^chunk at firm {first}$"):
                sc.panel_moments(boom_eq, n, 9, workers=3)
            assert no_child_process_left()

    def test_a_refused_revenue_map_is_a_memory_error(self, boom_eq):
        # 8 TB, which the system refuses at the call, before any firm is drawn
        with pytest.raises(MemoryError, match="revenue column"):
            sc.panel_moments(boom_eq, 10 ** 12, 1, workers=2)


BRANCHES = ["a<0", "a>0", "s=0", "a=0"]


def topshare_cases(branch):
    """300 seeded (a, s, rate, q) of one branch of the top-share formula."""
    g = np.random.default_rng({"a<0": 1, "a>0": 2, "s=0": 3, "a=0": 4}[branch])
    cases = []
    for _ in range(300):
        rate, q, s = g.uniform(0.3, 8.0), g.uniform(0.005, 0.995), g.uniform(0.01, 2.5)
        if branch == "a<0":
            a = -g.uniform(0.01, 4.0)
        elif branch == "a>0":
            a = g.uniform(0.01, 0.97) * rate
        elif branch == "s=0":
            a, s = g.choice([-1.0, 0.0, 1.0]) * g.uniform(0.01, 0.97) * rate, 0.0
        else:
            a = 0.0
        cases.append((a, s, rate, q))
    return cases


@pytest.fixture()
def log_ndtr_calls(monkeypatch):
    """Arguments of every ``firms._log_ndtr`` call: one per tail evaluation or share."""
    calls = []
    log_ndtr = firms._log_ndtr
    monkeypatch.setattr(firms, "_log_ndtr", lambda x: calls.append(x) or log_ndtr(x))
    return calls


def _use_scipys_normal_functions(monkeypatch):
    from scipy import special
    monkeypatch.setattr(firms, "_ndtr", special.ndtr)
    monkeypatch.setattr(firms, "_log_ndtr", special.log_ndtr)
    monkeypatch.setattr(firms, "normal_icdf", special.ndtri)


class TestNormalCdfs:
    """The standard library's erfc-based cdfs against scipy's."""

    def test_ndtr_matches_scipy(self):
        from scipy.special import ndtr
        x = np.linspace(-37.0, 37.0, 20_001)
        got = np.array([firms._ndtr(float(v)) for v in x])
        # measured within 5.8e-14; erfc's argument x/sqrt 2 is rounded, and
        # the cdf's relative error grows as x² times that rounding
        np.testing.assert_allclose(got, ndtr(x), rtol=5e-13, atol=0.0)

    def test_log_ndtr_matches_scipy_in_the_lower_tail(self):
        # log(ndtr) above -20, the asymptotic series below, past the point
        # where the cdf itself underflows; measured within 6.6e-16
        from scipy.special import log_ndtr
        x = np.concatenate([np.linspace(-100.0, 0.0, 20_001), -np.logspace(-6.0, 3.0, 500)])
        got = np.array([firms._log_ndtr(float(v)) for v in x])
        np.testing.assert_allclose(got, log_ndtr(x), rtol=1e-15, atol=0.0)

    def test_log_ndtr_matches_scipy_in_the_upper_tail(self):
        # log1p of the upper tail keeps its relative accuracy where the cdf
        # rounds to one; measured within 1.5e-13, the erfc error above
        from scipy.special import log_ndtr
        x = np.concatenate([np.linspace(1e-6, 37.0, 20_001), np.logspace(-6.0, 1.5, 500)])
        got = np.array([firms._log_ndtr(float(v)) for v in x])
        np.testing.assert_allclose(got, log_ndtr(x), rtol=5e-13, atol=0.0)


class TestRevenueConcentration:
    def test_pure_pareto_closed_form(self):
        # s = 0: top-q share of a Pareto with index rate/a is q^(1 - a/rate)
        assert firms.pareto_lognormal_topshare(1.0, 0.0, 2.0, 0.1) == pytest.approx(0.1 ** 0.5, rel=1e-12)

    def test_pure_lognormal_closed_form(self):
        from scipy.stats import norm
        got = firms.pareto_lognormal_topshare(0.0, 0.7, 3.0, 0.2)
        want = norm.sf(norm.isf(0.2) - 0.7)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a,s,rate", [(0.5, 0.4, 2.0), (-0.7, 0.5, 1.5), (0.3, 0.8, 3.0)])
    def test_against_monte_carlo(self, a, s, rate):
        got = firms.pareto_lognormal_topshare(a, s, rate, 0.10)
        mc = topshare_mc(a, s, rate, 0.10, n=2_000_000, seed=44)
        assert got == pytest.approx(mc, abs=3e-3)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_matches_fixed_bisection(self, branch):
        # not bit for bit: within a few ulps of the root tail_prob(t) - q
        # changes sign back and forth between adjacent floats, so each
        # search's last float depends on its own iterates; measured 8.9e-16
        cases = topshare_cases(branch)
        got = [firms.pareto_lognormal_topshare(*case) for case in cases]
        want = [topshare_fixed_bisection(*case) for case in cases]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("branch", ["a<0", "a>0"])
    def test_tail_slope_is_a_central_difference(self, branch):
        # d tail_prob / dt = -m·rest, since the normal densities cancel;
        # measured within 3.5e-7 relative, or 2.7e-10 where the slope is tiny
        for a, s, rate, _ in topshare_cases(branch):
            m = rate / abs(a)
            for t in (-s - 1.0 / m, -0.5 * s, 0.0, 0.7 * s, s + 1.0 / m):
                h = 1e-5 * (abs(t) + s)
                fd = central_diff(lambda x: firms._tail_prob(x, a, s, m)[0], t, h)
                slope = firms._tail_prob(t, a, s, m)[1]
                assert -fd == pytest.approx(slope, rel=1e-6, abs=1e-9), (a, s, rate, t)

    def test_tail_evaluations_per_concentration(self, boom_eq, recession_eq, log_ndtr_calls):
        # two thresholds, each Newton's tail evaluations plus one share: 12
        # at both published states, against about 120 for the bisection
        for eq in (boom_eq, recession_eq):
            log_ndtr_calls.clear()
            firms.revenue_concentration(eq)
            assert len(log_ndtr_calls) <= 40, len(log_ndtr_calls)

    @pytest.mark.parametrize("branch", ["a<0", "a>0"])
    def test_threshold_search_stays_far_below_its_cap(self, branch, log_ndtr_calls):
        # the 200-step cap never binds: measured at most 15 tail evaluations
        # and the share
        for case in topshare_cases(branch):
            log_ndtr_calls.clear()
            firms.pareto_lognormal_topshare(*case)
            assert len(log_ndtr_calls) <= 40, (case, len(log_ndtr_calls))

    @pytest.mark.parametrize("branch", ["a<0", "a>0", "a=0"])
    def test_shares_match_scipys_normal_cdfs(self, branch, monkeypatch):
        # the package's erfc-based cdfs and AS 241 inverse against scipy's
        # special functions in the same formulas: measured within 1.3e-15
        ours = [firms.pareto_lognormal_topshare(*case) for case in topshare_cases(branch)]
        _use_scipys_normal_functions(monkeypatch)
        theirs = [firms.pareto_lognormal_topshare(*case) for case in topshare_cases(branch)]
        np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-14)

    def test_published_shares_match_scipys_normal_cdfs(self, boom_eq, recession_eq,
                                                       monkeypatch):
        ours = [firms.revenue_concentration(eq) for eq in (boom_eq, recession_eq)]
        _use_scipys_normal_functions(monkeypatch)
        theirs = [firms.revenue_concentration(eq) for eq in (boom_eq, recession_eq)]
        np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-14)

    def test_divergent_mean_rejected(self):
        with pytest.raises(ValueError):
            firms.pareto_lognormal_topshare(2.0, 0.1, 2.0, 0.1)

    def test_published_concentration_targets(self, table, boom_eq, recession_eq):
        # ergodic mix of the two state-level continuum shares
        _, chain = table
        pi = sc.stationary_distribution(chain)
        b10, b5090 = firms.revenue_concentration(boom_eq)
        r10, r5090 = firms.revenue_concentration(recession_eq)
        top10 = pi[0] * b10 + pi[1] * r10
        p5090 = pi[0] * b5090 + pi[1] * r5090
        assert top10 == pytest.approx(0.8906, abs=0.03)
        assert p5090 == pytest.approx(0.0840, abs=0.02)


class TestParetoTails:
    def test_log_outcomes_linear_in_type_without_wedge_noise(self, table):
        params, _ = table
        clean = with_params(params, sigma1=0.0, sigma2=0.0)
        eq, _ = solve_at(clean, 0.0)
        chunk = firms._sample_chunk(eq, 1, 0, 1000)
        # seven firms at type sextiles, from the smallest type to the largest
        picked = np.argsort(chunk["theta"])[np.linspace(0, 999, 7).astype(int)]
        theta = chunk["theta"][picked]
        assert np.all(np.diff(theta) > 0.05)
        for col in ("revenue", "l", "Q"):
            logs = np.log(chunk[col][picked])
            slopes = np.diff(logs) / np.diff(theta)
            assert np.ptp(slopes) < 1e-9  # exactly log-linear in theta

    def test_hill_tail_index_within_5pct(self, table, boom_eq):
        params, _ = table
        panel = held_panel(boom_eq, 1_000_000, seed=77)
        ratio = (boom_eq.lambda_t / params.lambda_x) ** params.psi
        analytic = params.lambda_theta / ratio
        est = tfpq_tail_index(panel.log_tfpq)
        assert est == pytest.approx(analytic, rel=0.05)
