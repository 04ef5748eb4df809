import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import pickle
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import sortcycles
from sortcycles import calibrate, cli, csvtext, dynamics, firms, verify

from .oracles import INFEASIBLE, cross_section_moments_oracle, held_panel, write_csv_oracle
from .test_firms import (_SAMPLE_CHUNK, CHUNK_BYTES, assert_moments_agree, failing_chunks,
                         no_child_process_left, recorded_maps)


PUBLISHED = {
    "params": {"alpha": 0.3, "gamma": 0.6, "delta": 0.10, "beta": 0.96, "xi": 9,
               "psi": 0.4022, "lambda_x": 0.8681, "lambda_theta": 2.6160,
               "sigma1": 0.2293, "sigma2": 0},
    "chain": {"z_high": 0.3984, "p_stay_low": 0.977, "p_stay_high": 0.688},
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "published.json"
    path.write_text(json.dumps(PUBLISHED))
    return str(path)


#: the published config at a psi whose job-distribution root underflows
TINY_PSI = {**PUBLISHED, "params": {**PUBLISHED["params"], "psi": 1.8463183175100548e-05}}

#: a psi near 0 with a large lambda_x, where the Newton slope of the
#: job-distribution equation meets a lam/lambda_x that underflows to 0
#: (at z = UNDERFLOWING_SLOPE_Z) and once raised ZeroDivisionError
UNDERFLOWING_SLOPE = {**PUBLISHED, "params": {
    **PUBLISHED["params"], "psi": 0.0005470035633374955, "lambda_x": 36.60824475548099,
    "lambda_theta": 0.3088276072852493, "gamma": 0.23570371159269, "xi": 4.304384207882934}}
UNDERFLOWING_SLOPE_Z = "0.06250966489027221"

#: configs that every subcommand named with them must reject with exit 1: an
#: underflowing root or Newton slope, wedge moments beyond exp's range, a
#: squared type rate beyond the float range, and a boom z above the recession
#: z, which once ran with the two states' labels swapped
BAD_CONFIGS = {
    "tiny-psi": TINY_PSI,
    "underflowing-slope": UNDERFLOWING_SLOPE,
    "sigma1-20": {**PUBLISHED, "params": {**PUBLISHED["params"], "sigma1": 20}},
    "lambda-theta-1e300": {**PUBLISHED, "params": {**PUBLISHED["params"],
                                                   "lambda_theta": 1e300}},
    "swapped-chain": {**PUBLISHED, "chain": {**PUBLISHED["chain"], "z_low": 0.5, "z_high": 0.1}},
}


EQ_KEYS = ["lambda_t", "coefficients", "w0", "R", "Y", "Q_bar", "k_bar", "chi_bar",
           "l_bar", "M", "C_in", "Y_l", "Y_k", "Y_d", "shock", "K"]
COEFF_KEYS = ["eta_Q", "eta_Q_theta", "eta_l_theta", "B1", "B2", "B3", "kappa"]


class TestSolve:
    def test_happy_path_contract(self, config_path, tmp_path, capsys):
        rc = cli.run(["solve", "--params", config_path, "--z", "0", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "equilibrium.json").read_text())
        assert list(payload) == EQ_KEYS
        assert list(payload["coefficients"]) == COEFF_KEYS
        assert payload["lambda_t"] == pytest.approx(0.74646766, abs=1e-6)
        summary = capsys.readouterr().out.strip()
        assert json.loads(summary)["subcommand"] == "solve"

    def test_explicit_capital(self, config_path, tmp_path):
        rc = cli.run(["solve", "--params", config_path, "--z", "0.3984", "--K", "5.0",
                      "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "equilibrium.json").read_text())["K"] == 5.0

    def test_negative_z_is_domain_error(self, config_path, tmp_path):
        assert cli.run(["solve", "--params", config_path, "--z", "-0.1",
                        "--out", str(tmp_path)]) == 1


class TestMoments:
    def test_contract_and_panel_csv(self, config_path, tmp_path):
        rc = cli.run(["moments", "--params", config_path, "--n-firms", "5000",
                      "--seed", "3", "--out", str(tmp_path), "--panel-csv"])
        assert rc == 0
        m = json.loads((tmp_path / "moments.json").read_text())
        assert list(m) == ["var_log_wage", "var_log_tfpq", "var_log_tfpr", "labor_share",
                           "rev_share_top10", "rev_share_p50_p90", "n_firms", "seed"]
        assert m["n_firms"] == 5000 and m["seed"] == 3
        header = (tmp_path / "panel.csv").read_text().splitlines()[0]
        assert header == "theta,eps1,eps2,Q,k,l,chi,revenue,log_tfpq,log_tfpr"
        assert len((tmp_path / "panel.csv").read_text().splitlines()) == 5001

    def test_streamed_panel_csv_is_the_whole_file_writer_on_the_held_panel(self, config_path,
                                                                           tmp_path):
        n = firms.SAMPLE_CHUNK + 3
        rc = cli.run(["moments", "--params", config_path, "--n-firms", str(n), "--seed", "5",
                      "--out", str(tmp_path), "--panel-csv"])
        assert rc == 0
        # the CLI's equilibrium: z = 0, A = 1, capital at its steady state
        params, _ = sortcycles.load_config(config_path)
        shock = sortcycles.AggregateShockState(z=0.0, A=1.0)
        K = sortcycles.steady_state(params, 0.0, 1.0)[0]
        eq = sortcycles.solve_static(params, shock, K)
        panel = held_panel(eq, n, seed=5)
        write_csv_oracle(tmp_path / "whole.csv",
                         {name: getattr(panel, name) for name in firms.PANEL_COLUMNS})
        assert (tmp_path / "panel.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        got = json.loads((tmp_path / "moments.json").read_text())
        assert_moments_agree(sortcycles.CrossSectionMoments(**got),
                             cross_section_moments_oracle(panel, eq))

    def test_panel_csv_peak_memory_is_bounded(self, config_path, tmp_path, monkeypatch):
        # the held panel and its whole-file text took over 1 kB per firm;
        # streaming keeps the revenue column in one anonymous map, and one
        # chunk and one row block on the heap
        n = 1 << 17
        maps = recorded_maps(monkeypatch)
        tracemalloc.start()
        try:
            rc = cli.run(["moments", "--params", config_path, "--n-firms", str(n),
                          "--out", str(tmp_path), "--panel-csv"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert maps == [(-1, 8 * n)]
        assert peak < CHUNK_BYTES, peak

    def test_artifacts_are_the_same_for_every_thread_count(self, config_path, tmp_path):
        n = 3 * firms.SAMPLE_CHUNK + 5
        for threads in ("1", "2", "8"):
            assert cli.run(["moments", "--params", config_path, "--n-firms", str(n),
                            "--seed", "8", "--threads", threads, "--panel-csv",
                            "--out", str(tmp_path / threads)]) == 0
        for name in ("moments.json", "panel.csv"):
            assert len({(tmp_path / threads / name).read_bytes()
                        for threads in ("1", "2", "8")}) == 1, name

    def test_a_failing_worker_leaves_no_panel_and_no_process(self, config_path, tmp_path,
                                                             monkeypatch, capfd):
        # the last of four chunks fails, in the worker's run of two; fd-level
        # capture would also catch output written by a worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        n = 4 * firms.SAMPLE_CHUNK
        failing_chunks(monkeypatch, {3 * firms.SAMPLE_CHUNK})
        argv = ["moments", "--params", config_path, "--n-firms", str(n), "--panel-csv"]
        errors = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert cli.run([*argv, "--threads", threads, "--out", str(out)]) == 1
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
            errors.append(captured.err)
            assert not (out / "panel.csv").exists()
            assert no_child_process_left()
        assert errors[0] == errors[1]
        monkeypatch.undo()
        assert cli.run([*argv, "--threads", "2", "--out", str(tmp_path / "2")]) == 0
        assert len(capfd.readouterr().out.splitlines()) == 1
        assert no_child_process_left()


#: the published config, as shipped
SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "published.json"
MOMENT_NAMES = ("var_log_wage", "var_log_tfpq", "var_log_tfpr", "labor_share",
                "rev_share_top10", "rev_share_p50_p90")
#: (--z, --seed): sha256 of panel.csv and the moments of ``moments`` with
#: --n-firms 3·2^14+5 on the shipped config, as written before the sampler
#: kept only panel.csv's columns and took the log wage in closed form
PINNED = {
    ("0", 1): ("d1cb046548b30b8e5a85feb55300546165575dc14298c96c68052fa4ded40330",
               (0.4143983012580394, 0.12731504383301032, 0.06274277768761916,
                0.629952973414982, 0.7793997855465499, 0.16444645126349738)),
    ("0", 5): ("de0043aa8c9224f7336c7a5e41433b5bef58ec6af905dc04b4a18ca6fb06be76",
               (0.370492550783985, 0.13231898836280429, 0.06496075667083921,
                0.629952973414982, 0.7743212341402959, 0.1681915272061471)),
    ("0", 12): ("7528d648151f7bf808488e3569833589fc97d00b7fbf4ba1612f5a72944418a0",
                (0.616687414645342, 0.13129450586677646, 0.06453299884716569,
                 0.629952973414982, 0.8378246604264399, 0.12058500456187471)),
    ("0.3984", 1): ("0723136a40afd4b5227d82ea2a4df9e95952b0c22a40eb9855c30f8bb9d39ce3",
                    (0.27258209311642867, 0.23049795508165055, 0.14364499901593286,
                     0.27769209836312975, 0.7034397285587041, 0.21749388092072564)),
    ("0.3984", 5): ("e5cae7c9c6de66f53f9c0ad05968a39b67442f1fe9ece952a27a7b8800764321",
                    (0.28585761997615766, 0.23955736351238055, 0.14906850909133515,
                     0.27769209836312975, 0.7044425634435266, 0.21667552574378024)),
    ("0.3984", 12): ("eb336f62269b8b05f8657c769c65090c0d5f4c984073dcc673b5d450d1585806",
                     (0.32837737291526403, 0.23770258568533056, 0.14801376099045005,
                      0.27769209836312975, 0.7598732858341641, 0.17567100065501726)),
}
#: sha256 of equilibrium.json for ``solve`` with these flags on the shipped
#: config, and of verify.json for ``verify --n-prop-points 20``, as written
#: while each shock state still carried copies of lambda_theta, sigma1 and sigma2
PINNED_SOLVE = {
    (): "61559cc320186bb59257980a0d1473acb3f1f66027d40e222c0379d413243f87",
    ("--z", "0.3984"): "54ff51264bf9565628e154cc91bbe5eb171472261f7d93f7d329a4a2fd813d26",
    ("--z", "0.2", "--K", "7.5", "--A", "1.3"):
        "a562fb40d1f40be0bc8269a0df5c57ed4ed2385b4a669e99d4cd4762076a164a",
}
PINNED_VERIFY_20 = "a8ca4de424022ee7f09df8ee5ce0e0e72f2b0293cb0ed8f1505095d95727465d"
#: sha256 of calibration.json on the shipped config for the benchmark's two
#: calibrations, recorded while the package still held a scalar objective
PINNED_CALIBRATE = {
    ("--fast", "--n-starts", "4"):
        "54da5b0b5ec3a40327f66ce9b931bee967bdb91efd71ce1aa19e3f05a7e19d86",
    ("--n-starts", "1", "--max-iter", "4"):
        "1d6e2fb5ca890fd1554d6e8c8d72ca2c90a4b3b23048ef86eb96a0c29e5fb591",
}
#: --seed: sha256 of path.csv (``simulate --T 10000 --burn-in 100``) and of
#: irf.csv (``irf --n-sims 1000 --horizon 20``) on the shipped config with
#: --grid-size 400, as written while every cell of path.csv was formatted on its own
PINNED_DYNAMICS = {
    1: ("d91ba1cf7477f56453662ced3c80bd7bccc7e2a879d1391b6fb2f0846c5c9fe1",
        "afdb02e4821c5ad4b1046cdf7577ebd5d129ee431907dfbdf22e9497263be0f6"),
    7: ("de21d155c21be9fff21487aff921c3cf7d6d7aa7e631862c574f2d2ea6f9b902",
        "ae7f8465ad8c8bfd3aedba426369caf04daeb9890a90832438a202643abb084d"),
}


class TestPinnedArtifacts:
    @pytest.mark.parametrize("flags", list(PINNED_SOLVE), ids=" ".join)
    def test_equilibrium_bytes(self, tmp_path, capsys, flags):
        assert cli.run(["solve", "--params", str(SHIPPED_CONFIG), *flags,
                        "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "equilibrium.json").read_bytes()).hexdigest()
        assert got == PINNED_SOLVE[flags]
        capsys.readouterr()

    def test_verify_bytes(self, tmp_path, capsys):
        assert cli.run(["verify", "--params", str(SHIPPED_CONFIG), "--n-prop-points", "20",
                        "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
        assert got == PINNED_VERIFY_20
        capsys.readouterr()

    @pytest.mark.parametrize("flags", list(PINNED_CALIBRATE), ids=" ".join)
    def test_calibration_bytes(self, tmp_path, capsys, flags):
        assert cli.run(["calibrate", "--params", str(SHIPPED_CONFIG), *flags,
                        "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "calibration.json").read_bytes()).hexdigest()
        assert got == PINNED_CALIBRATE[flags]
        capsys.readouterr()

    @pytest.mark.parametrize("seed", list(PINNED_DYNAMICS))
    def test_path_and_irf_bytes(self, tmp_path, capsys, seed):
        common = ["--params", str(SHIPPED_CONFIG), "--seed", str(seed), "--grid-size", "400",
                  "--out", str(tmp_path)]
        assert cli.run(["simulate", *common, "--T", "10000", "--burn-in", "100"]) == 0
        assert cli.run(["irf", *common, "--n-sims", "1000", "--horizon", "20"]) == 0
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("path.csv", "irf.csv"))
        assert got == PINNED_DYNAMICS[seed]
        capsys.readouterr()

    @pytest.mark.parametrize("z,seed", list(PINNED), ids=lambda v: str(v))
    def test_panel_bytes_and_moments_for_every_thread_count(self, tmp_path, capsys, z, seed):
        sha, moments = PINNED[z, seed]
        n = 3 * firms.SAMPLE_CHUNK + 5
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            assert cli.run(["moments", "--params", str(SHIPPED_CONFIG), "--n-firms", str(n),
                            "--z", z, "--seed", str(seed), "--threads", threads,
                            "--panel-csv", "--out", str(out)]) == 0
            assert hashlib.sha256((out / "panel.csv").read_bytes()).hexdigest() == sha, threads
            got = json.loads((out / "moments.json").read_text())
            for name, want in zip(MOMENT_NAMES, moments):
                assert math.isclose(got[name], want, rel_tol=1e-12, abs_tol=0.0), (threads, name)
            assert (got["n_firms"], got["seed"]) == (n, seed)
        assert len({(tmp_path / t / "moments.json").read_bytes() for t in "123"}) == 1
        capsys.readouterr()


class TestSimulate:
    def test_path_csv_contract(self, config_path, tmp_path):
        rc = cli.run(["simulate", "--params", config_path, "--T", "300", "--burn-in", "50",
                      "--grid-size", "80", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == ("t,z,K,Y,C,measured_tfp,lambda_t,var_log_wage,var_log_tfpq,"
                            "var_log_tfpr,labor_share,R,w0")
        assert len(lines) == 301

    def test_path_csv_write_memory_does_not_grow_with_t(self, config_path, tmp_path,
                                                        monkeypatch):
        # the writer holds one block of rows at a time, so its traced peak at
        # T = 10^5 (1.3 million cells, 25 MB of text) stays that of one block
        write_csv, peaks = csvtext.write_csv, []

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                write_csv(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(csvtext, "write_csv", traced)
        rc = cli.run(["simulate", "--params", config_path, "--T", "100000",
                      "--grid-size", "40", "--out", str(tmp_path)])
        assert rc == 0
        assert len(peaks) == 1 and peaks[0] < 4_000_000, peaks

    def test_t_not_above_burn_in_is_usage_error(self, config_path):
        assert cli.run(["simulate", "--params", config_path, "--T", "50",
                        "--burn-in", "100"]) == 2


class TestIrf:
    def test_irf_csv_contract(self, config_path, tmp_path, capsys):
        rc = cli.run(["irf", "--params", config_path, "--horizon", "4", "--n-sims", "16",
                      "--grid-size", "80", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "irf.csv").read_text().splitlines()
        assert lines[0] == "h,d_log_Y,d_measured_tfp,d_var_log_wage,d_var_log_tfpq,d_var_log_tfpr"
        assert len(lines) == 6
        # the summary's impact keys are the first row of every response column
        summary = json.loads(capsys.readouterr().out)
        first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert list(summary) == ["subcommand", "n_episodes",
                                 *(f"impact_{name}" for name in list(first)[1:])]
        for name, value in list(first.items())[1:]:
            assert summary[f"impact_{name}"] == value, name

    def test_zero_sims_is_usage_error(self, config_path):
        assert cli.run(["irf", "--params", config_path, "--n-sims", "0"]) == 2


class TestCalibrate:
    def test_full_mode_recomputes_its_objective(self, config_path, tmp_path):
        # --grid-size is accepted and ignored: full mode solves no policy
        rc = cli.run(["calibrate", "--params", config_path, "--T", "600", "--burn-in", "60",
                      "--n-starts", "1", "--max-iter", "4", "--grid-size", "120",
                      "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        targets = calibrate.TargetSet()
        recomputed = sum(w * (payload["moments"][name] / target - 1.0) ** 2
                         for w, name, target in zip(targets.weights, calibrate.MOMENT_NAMES,
                                                    targets.values()))
        assert payload["objective"] == pytest.approx(recomputed, rel=1e-12)

    def test_writes_result(self, config_path, tmp_path):
        rc = cli.run(["calibrate", "--params", config_path, "--fast", "--n-starts", "1",
                      "--max-iter", "40", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert list(payload) == ["params", "objective", "moments", "n_evaluations",
                                 "seed", "n_starts"]
        assert list(payload["params"]) == ["psi", "z_high", "lambda_theta", "lambda_x", "sigma1"]

    @pytest.mark.parametrize("flags", [
        ["--fast", "--seed", "13", "--max-iter", "1"],  # reports its start, objective 1.07e10
        ["--fast", "--seed", "20", "--max-iter", "3"],  # its first draw is infeasible
        ["--seed", "13", "--T", "600", "--burn-in", "60", "--max-iter", "4"],
    ], ids=["seed-13-start", "seed-20-replaced-start", "full"])
    def test_objective_is_always_finite(self, config_path, tmp_path, flags):
        # every fit runs from a feasible start and accepts only feasible
        # steps, so the infinite guard-failure sentinel never reaches the file
        rc = cli.run(["calibrate", "--params", config_path, "--n-starts", "1", *flags,
                      "--out", str(tmp_path)])
        assert rc == 0
        objective = strict_json((tmp_path / "calibration.json").read_text())["objective"]
        assert math.isfinite(objective) and 0.0 <= objective < INFEASIBLE

    def test_custom_targets_and_unknown_key(self, config_path, tmp_path):
        good = tmp_path / "targets.json"
        good.write_text(json.dumps({"labor_share": 0.6, "std_tfp": 0.01}))
        rc = cli.run(["calibrate", "--params", config_path, "--targets", str(good),
                      "--fast", "--n-starts", "1", "--max-iter", "10", "--out", str(tmp_path)])
        assert rc == 0
        bad = tmp_path / "bad_targets.json"
        bad.write_text(json.dumps({"labor_shar": 0.6}))
        rc = cli.run(["calibrate", "--params", config_path, "--targets", str(bad),
                      "--fast", "--n-starts", "1", "--out", str(tmp_path)])
        assert rc == 1


class TestVerify:
    def test_correct_build_exits_zero(self, config_path, tmp_path):
        rc = cli.run(["verify", "--params", config_path, "--n-prop-points", "10",
                      "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert names == sorted(names)

    def test_failed_verification_exits_three(self, config_path, tmp_path, monkeypatch):
        broken = verify.VerificationReport.from_checks(
            [verify.CheckResult("stub", 1.0, 0.5, False)])
        monkeypatch.setattr(verify, "run_verification",
                            lambda *a, **k: broken)
        rc = cli.run(["verify", "--params", config_path, "--out", str(tmp_path)])
        assert rc == 3

    def test_non_finite_artifact_is_a_domain_error(self, config_path, tmp_path, monkeypatch,
                                                   capsys):
        broken = verify.VerificationReport.from_checks(
            [verify.CheckResult("stub", float("inf"), 0.5, False)])
        monkeypatch.setattr(verify, "run_verification", lambda *a, **k: broken)
        rc = cli.run(["verify", "--params", config_path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: verify.json would hold a non-finite number\n"
        assert not (tmp_path / "verify.json").exists()


class TestUsageAndConfigErrors:
    def test_unknown_flag(self, config_path):
        assert cli.run(["solve", "--params", config_path, "--frobnicate"]) == 2

    def test_missing_subcommand(self):
        assert cli.run([]) == 2

    def test_unreadable_config(self):
        assert cli.run(["solve", "--params", "/nope/missing.json"]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        payload = {
            "params": {"alpha": 0.3, "gamma": 0.6, "delta": 0.1, "beta": 0.96, "xi": 9,
                       "psi": 0.4, "lambda_x": 0.9, "lambda_theta": 2.6,
                       "sigma1": 0.2, "sigma2": 0, "spare": 1},
            "chain": {"z_high": 0.4, "p_stay_low": 0.9, "p_stay_high": 0.7},
        }
        cfg.write_text(json.dumps(payload))
        assert cli.run(["solve", "--params", str(cfg)]) == 1

    @pytest.mark.parametrize("value", [None, "0.3", [0.3], True])
    def test_non_numeric_config_value(self, tmp_path, capsys, value):
        cfg = tmp_path / "bad.json"
        payload = json.loads(json.dumps(PUBLISHED))
        payload["chain"]["z_high"] = value
        cfg.write_text(json.dumps(payload))
        assert cli.run(["solve", "--params", str(cfg), "--out", str(tmp_path)]) == 1
        want = f"error: z_high must be a finite real number, got {value!r}\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("flag", ["--z", "--A", "--K"])
    def test_non_finite_shock_or_capital_flag(self, config_path, tmp_path, capsys, flag):
        assert cli.run(["solve", "--params", config_path, "--out", str(tmp_path), flag, "inf"]) == 1
        assert capsys.readouterr().err == f"error: {flag[2:]} must be a finite real number, got inf\n"

    def test_bad_seed(self, config_path):
        assert cli.run(["solve", "--params", config_path, "--seed", "-5"]) == 2

    def test_bad_threads(self, config_path):
        assert cli.run(["solve", "--params", config_path, "--threads", "0"]) == 2


#: panel, path or episode counts that end in exit 1 with nothing of their size
#: allocated: 10^12, whose arrays (8 TB and more) the system refuses at the
#: call, and counts whose arrays would pass the 2^63 - 1 bytes a numpy array
#: can span, refused before anything is drawn
HUGE, BEYOND_INDEX, BEYOND = REFUSED = (str(10 ** 12), str(10 ** 19), str(10 ** 30))
REFUSED_COUNTS = st.integers(10 ** 12, 10 ** 30)

TARGET_FILES = {
    "missing": None,
    "invalid-json": "{\"labor_share\": 0.6,",
    "non-numeric": json.dumps({"labor_share": "high"}),
    "short-weights": json.dumps({"weights": [1.0, 2.0]}),
    "non-list-weights": json.dumps({"weights": 3}),
    "negative-weight": json.dumps({"weights": [1.0, 1.0, 1.0, 1.0, -1.0]}),
    "zero-weights": json.dumps({"weights": [0, 0, 0, 0, 0]}),
    "non-object": json.dumps([0.6]),
}


class TestInputHoles:
    @pytest.mark.parametrize("case", [
        ("irf", "--horizon", "-1"),
        ("calibrate", "--fast", "--n-starts", "0"),
        ("calibrate", "--fast", "--max-iter", "0"),
        ("verify", "--n-prop-points", "0"),
        ("moments", "--n-firms", "0"),
        ("simulate", "--grid-size", "1"),
        ("irf", "--grid-size", "1"),
        ("simulate", "--T", "0", "--burn-in", "-1"),
        ("simulate", "--T", "20", "--burn-in", "-5"),
        ("calibrate", "--T", "1", "--burn-in", "-3", "--n-starts", "1", "--max-iter", "2"),
        *[("calibrate", "--fast", "--targets", name) for name in TARGET_FILES],
        *[(sub, "--params", "tiny-psi") for sub in ("solve", "moments", "simulate", "verify")],
        *[(sub, "--params", "sigma1-20") for sub in ("solve", "moments", "simulate", "irf",
                                                     "verify")],
        *[(sub, "--params", "lambda-theta-1e300") for sub in ("simulate", "irf")],
        *[(sub, "--params", "swapped-chain") for sub in ("simulate", "irf", "calibrate")],
        ("solve", "--z", UNDERFLOWING_SLOPE_Z, "--params", "underflowing-slope"),
        # sizes refused at allocation, so nothing is allocated, and counts
        # beyond numpy's array range, refused before anything is drawn
        ("moments", "--n-firms", HUGE), ("moments", "--n-firms", HUGE, "--threads", "2"),
        ("simulate", "--T", HUGE), ("irf", "--n-sims", HUGE),
        ("moments", "--n-firms", BEYOND), ("simulate", "--T", BEYOND_INDEX),
        ("simulate", "--T", BEYOND), ("irf", "--n-sims", BEYOND),
    ], ids=lambda case: "-".join(case))
    def test_exit_code_and_one_error_line(self, config_path, tmp_path, capsys, case):
        sub, *flags = case
        if "--params" in flags:
            config = tmp_path / f"{flags[-1]}.json"
            config.write_text(json.dumps(BAD_CONFIGS[flags[-1]]))
            config_path, flags = str(config), flags[:-2]
            expected, prefix = 1, "error: "
        elif "--targets" in flags:
            name = flags[-1]
            target = tmp_path / f"{name}.json"
            if TARGET_FILES[name] is not None:
                target.write_text(TARGET_FILES[name])
            flags[-1] = str(target)
            expected, prefix = 1, "error: "
        elif set(flags) & set(REFUSED):
            expected, prefix = 1, "error: "
        else:
            expected, prefix = 2, "usage error: "
        rc = cli.run([sub, "--params", config_path, *flags, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == expected
        assert "Traceback" not in err
        assert err.startswith(prefix) and err.count("\n") == 1, err

    def test_huge_type_rate_verifies_to_strict_json(self, tmp_path, capsys):
        # lambda_t ~ 1e300 once overflowed the job-density shape check's
        # squares and wrote Infinity into verify.json
        config = tmp_path / "lambda-theta-1e300.json"
        config.write_text(json.dumps(BAD_CONFIGS["lambda-theta-1e300"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.run(["verify", "--params", str(config), "--n-prop-points", "2",
                          "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        report = strict_json((tmp_path / "verify.json").read_text())
        assert report["passed"] is True


#: (subcommand and flags, artifact): every file a subcommand writes, at small sizes
ARTIFACTS = (
    (("solve",), "equilibrium.json"),
    (("moments", "--n-firms", "100"), "moments.json"),
    (("moments", "--n-firms", "100", "--panel-csv"), "panel.csv"),
    (("simulate", "--T", "60", "--burn-in", "10", "--grid-size", "40"), "path.csv"),
    (("irf", "--horizon", "2", "--n-sims", "4", "--grid-size", "40"), "irf.csv"),
    (("calibrate", "--fast", "--n-starts", "1", "--max-iter", "1"), "calibration.json"),
    (("verify", "--n-prop-points", "1"), "verify.json"),
)


class TestUnwritableArtifact:
    @pytest.mark.parametrize("argv,artifact", ARTIFACTS, ids=[name for _, name in ARTIFACTS])
    def test_directory_at_the_artifact_path(self, config_path, tmp_path, capsys, argv,
                                            artifact):
        # an artifact that cannot be opened is a domain error, and what is at
        # its path is left as it is
        (tmp_path / artifact).mkdir()
        rc = cli.run([*argv, "--params", config_path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert artifact in err
        assert (tmp_path / artifact).is_dir()

    def test_unwritable_moments_json_leaves_no_panel(self, config_path, tmp_path, capsys):
        # moments.json is written before panel.csv's block ends, so a run
        # that fails on it does not leave a finished-looking panel behind
        (tmp_path / "moments.json").mkdir()
        rc = cli.run(["moments", "--n-firms", "1000", "--panel-csv", "--params", config_path,
                      "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "moments.json" in err
        assert (tmp_path / "moments.json").is_dir()
        assert not (tmp_path / "panel.csv").exists()

    def test_unopenable_csv_is_kept(self, tmp_path):
        # an artifact whose temporary could not be opened is left as it is
        path = tmp_path / "path.csv"
        path.write_text("kept\n")
        denied = PermissionError(13, "Permission denied", str(path))
        with mock.patch.object(Path, "open", side_effect=denied):
            with pytest.raises(sortcycles.SortCyclesError, match="path.csv: Permission denied"):
                with cli._artifacts(tmp_path, ["path.csv"]) as files:
                    csvtext.write_csv(files["path.csv"], {"a": np.zeros(2)})
        assert path.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("argv,artifact,target", [
        (("calibrate", "--fast", "--n-starts", "4"), "calibration.json",
         (calibrate, "calibrate")),
        (("simulate",), "path.csv", (dynamics, "solve_policy")),
    ], ids=["calibrate", "simulate"])
    def test_unwritable_artifact_fails_before_the_work(self, config_path, tmp_path, capsys,
                                                       monkeypatch, argv, artifact, target):
        def refuse(*args, **kwargs):
            raise AssertionError("the work ran")

        monkeypatch.setattr(*target, refuse)
        (tmp_path / artifact).mkdir()
        rc = cli.run([*argv, "--params", config_path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert artifact in err
        assert [p.name for p in tmp_path.iterdir()] == [artifact]


#: runs whose artifact a file-size limit of half its size cuts short; of the
#: panel's 3 chunks the middle one is a forked worker's, so there it is the
#: worker's rows, written by the calling process, that pass the limit
FILE_SIZE_CASES = {
    "simulate": ["simulate", "--T", "3000", "--grid-size", "60"],
    "verify": ["verify", "--n-prop-points", "2"],
    "moments": ["moments", "--n-firms", str(3 * firms.SAMPLE_CHUNK), "--panel-csv",
                "--threads", "2"],
}


class TestFileSizeLimit:
    @pytest.mark.parametrize("name", list(FILE_SIZE_CASES))
    def test_a_cut_short_write_keeps_the_earlier_artifacts(self, config_path, tmp_path, name):
        argv = ["-m", "sortcycles", *FILE_SIZE_CASES[name], "--params", config_path,
                "--out", str(tmp_path)]
        assert _fresh_python(*argv, cwd=tmp_path).returncode == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        cap = max(map(len, before.values())) // 2

        def limit():  # in the child only
            resource.setrlimit(resource.RLIMIT_FSIZE, (cap, cap))

        proc = _fresh_python(*argv, cwd=tmp_path, preexec_fn=limit)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "File too large" in proc.stderr, proc.stderr
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestWorkerStart:
    @pytest.mark.parametrize("panel", [False, True], ids=["moments", "panel-csv"])
    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_a_fork_that_fails_is_its_own_error(self, config_path, tmp_path, monkeypatch,
                                                capfd, panel, threads):
        # the last fork of the run fails with EAGAIN; with 3 threads the first
        # worker is already running and must be killed and reaped
        real_fork, forked = os.fork, []

        def fork():
            if len(forked) == int(threads) - 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pid = real_fork()
            forked.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", fork)
        argv = ["moments", "--params", config_path, "--n-firms", str(3 * firms.SAMPLE_CHUNK),
                "--threads", threads, "--out", str(tmp_path), *(["--panel-csv"] * panel)]
        assert cli.run(argv) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot start a worker process: Resource temporarily unavailable\n"
        assert list(tmp_path.iterdir()) == []
        assert len(forked) == int(threads) - 2
        assert no_child_process_left()


class TestWorkerEnd:
    """A worker that ends before its results are home, and a panel whose rows
    come home through the workers' pipes with no TMPDIR to stage them in."""

    @staticmethod
    def moments(config_path, out, *flags):
        return cli.run(["moments", "--params", config_path, "--out", str(out), *flags])

    @staticmethod
    def assert_died(capfd, out, rc):
        captured = capfd.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert re.fullmatch(r"error: worker process \d+ ended without a result "
                            r"\(exit status 7\)\n", captured.err), captured.err
        assert list(out.iterdir()) == []
        assert no_child_process_left()

    @pytest.mark.parametrize("panel", [False, True], ids=["moments", "panel-csv"])
    def test_a_worker_that_dies_is_its_own_error(self, config_path, tmp_path, monkeypatch,
                                                 capfd, panel):
        parent = os.getpid()

        def sample(*args):
            if os.getpid() != parent:
                os._exit(7)
            return _SAMPLE_CHUNK(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(firms, "_sample_chunk", sample)
        rc = self.moments(config_path, tmp_path, "--n-firms", str(3 * firms.SAMPLE_CHUNK),
                          "--threads", "2", *(["--panel-csv"] * panel))
        self.assert_died(capfd, tmp_path, rc)

    @pytest.mark.parametrize("cut", [tuple, str], ids=["result", "text"])
    def test_a_pipe_that_ends_inside_a_message(self, config_path, tmp_path, monkeypatch,
                                               capfd, cut):
        # the worker sends half of the first pickle of the kind ``cut`` and dies
        parent, dump = os.getpid(), pickle.dump

        def half_dump(obj, fh):
            if os.getpid() == parent or not isinstance(obj, cut):
                return dump(obj, fh)
            data = pickle.dumps(obj)
            fh.write(data[:len(data) // 2])
            fh.flush()
            os._exit(7)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pickle, "dump", half_dump)
        rc = self.moments(config_path, tmp_path, "--n-firms", str(3 * firms.SAMPLE_CHUNK),
                          "--threads", "2", "--panel-csv")
        self.assert_died(capfd, tmp_path, rc)

    def test_moments_needs_no_temporary_file(self, config_path, tmp_path, monkeypatch, capfd):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert self.moments(config_path, out, "--n-firms", "100000", "--panel-csv",
                                "--threads", threads) == 0
            files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert capfd.readouterr().err == ""
        assert sorted(files["2"]) == ["moments.json", "panel.csv"]
        assert files["2"] == files["1"]
        assert no_child_process_left()


def strict_json(text: str):
    """Parse JSON, refusing the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


#: values argparse cannot convert to an int or a float
NOT_A_NUMBER = st.sampled_from(["", "abc", "1..5", "0x10"])
INTS = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from([-1, 2 ** 64, -2 ** 63]))
FLOATS = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e6),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1e-320, 1e308, 0.3984]))


@st.composite
def config_files(draw):
    """(kind, file contents or None where no file is written)."""
    if draw(st.integers(0, 2)) == 0:
        return "published", json.dumps(PUBLISHED).encode()
    kind = draw(st.sampled_from(["number", "non-number", "missing", "not-json", "not-utf8",
                                 "directory", "extra-key"]))
    if kind in ("missing", "directory"):
        return kind, None
    if kind == "not-json":
        return kind, b"{\"params\": {"
    if kind == "not-utf8":
        return kind, b"\xff\xfe\x00"
    payload = json.loads(json.dumps(PUBLISHED))
    if kind == "extra-key":
        payload[draw(st.sampled_from(["params", "chain"]))]["spare"] = 1
    if kind in ("number", "non-number"):
        block = draw(st.sampled_from(["params", "chain"]))
        key = draw(st.sampled_from(sorted(payload[block])))
        payload[block][key] = draw(
            st.one_of(FLOATS, INTS) if kind == "number" else
            st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                      st.lists(st.integers(), max_size=2)))
    return kind, json.dumps(payload).encode()


@st.composite
def cli_cases(draw):
    """(subcommand, option pairs, config, whether the argv is a usage error).

    Each option is (flag, values, whether a parsed value is in range)."""
    sub = draw(st.sampled_from(["solve", "moments", "simulate", "irf", "verify", "calibrate"]))
    options = [("--seed", INTS, lambda v: 0 <= v < 2 ** 64),
               ("--threads", st.integers(0, 4), lambda v: v >= 1)]
    if sub in ("solve", "moments"):
        options += [(flag, FLOATS, lambda v: True) for flag in ("--z", "--A", "--K")]
    if sub == "moments":
        options += [("--n-firms", st.one_of(st.integers(0, 1000), REFUSED_COUNTS),
                     lambda v: v >= 1)]
    if sub == "verify":
        options += [("--n-prop-points", st.integers(1, 3), lambda v: True)]
    pairs, usage_error = [], False
    for flag, values, in_range in options:
        if draw(st.booleans()):
            if draw(st.integers(0, 9)) == 0:
                pairs.append((flag, draw(NOT_A_NUMBER)))
                usage_error = True
            else:
                value = draw(values)
                pairs.append((flag, repr(value)))
                usage_error = usage_error or not in_range(value)
    if sub == "verify" and not any(flag == "--n-prop-points" for flag, _ in pairs):
        pairs.append(("--n-prop-points", "1"))
    if sub == "calibrate":
        pairs += [("--fast", None), ("--n-starts", "1"),
                  ("--max-iter", repr(draw(st.integers(1, 5))))]
    if sub in ("simulate", "irf"):
        grid_size = draw(st.integers(1, 100))
        pairs.append(("--grid-size", repr(grid_size)))
        usage_error = usage_error or grid_size < 2
    if sub == "simulate":
        T = draw(st.one_of(st.integers(1, 500), REFUSED_COUNTS))
        burn_in = draw(st.integers(0, min(T, 50)))
        pairs += [("--T", repr(T)), ("--burn-in", repr(burn_in))]
        usage_error = usage_error or T <= burn_in
    if sub == "irf":
        pairs += [("--horizon", repr(draw(st.integers(0, 20)))),
                  ("--n-sims", repr(draw(st.one_of(st.integers(1, 10), REFUSED_COUNTS))))]
    if sub == "moments":
        if not any(flag == "--n-firms" for flag, _ in pairs):
            pairs.append(("--n-firms", "100"))
        if draw(st.booleans()):
            pairs.append(("--panel-csv", None))
    return sub, pairs, draw(config_files()), usage_error


class TestContractProperty:
    @settings(max_examples=120, deadline=None)
    @given(case=cli_cases())
    @example(case=("solve", [], ("number", json.dumps(TINY_PSI).encode()), False))
    @example(case=("moments", [("--n-firms", "10"), ("--panel-csv", None)],
                   ("number", json.dumps(BAD_CONFIGS["sigma1-20"]).encode()), False))
    @example(case=("calibrate", [("--fast", None), ("--n-starts", "1"), ("--max-iter", "5")],
                   ("published", json.dumps(PUBLISHED).encode()), False))
    @example(case=("simulate", [("--grid-size", "20"), ("--T", "50"), ("--burn-in", "10")],
                   ("number", json.dumps(BAD_CONFIGS["lambda-theta-1e300"]).encode()), False))
    # 2.9e17 presimulated periods: fewer elements than an array can index, but
    # more bytes than it can span
    @example(case=("irf", [("--grid-size", "2"), ("--horizon", "0"),
                           ("--n-sims", "28823037615171155")],
                   ("published", json.dumps(PUBLISHED).encode()), False))
    def test_every_argv_ends_in_a_documented_exit_code(self, tmp_path_factory, case):
        sub, pairs, (kind, contents), usage_error = case
        root = tmp_path_factory.mktemp("argv")
        cfg = root / "config.json"
        if kind == "directory":
            cfg.mkdir()
        elif contents is not None:
            cfg.write_bytes(contents)
        argv = [sub, "--params", str(cfg), "--out", str(root / "out")]
        for flag, value in pairs:
            argv.append(flag if value is None else f"{flag}={value}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(argv)
        event(f"{sub} exit {rc}")
        assert rc in (0, 1, 2, 3), (argv, rc)
        assert "Traceback" not in err.getvalue(), err.getvalue()
        if usage_error:
            assert rc == 2, (argv, rc, err.getvalue())
        if rc in (1, 2):
            assert err.getvalue().count("error:") == 1, (argv, rc, err.getvalue())
        if rc in (0, 3):
            for artifact in (root / "out").glob("*.json"):
                strict_json(artifact.read_text())
        if rc == 0 and sub == "calibrate":
            assert strict_json((root / "out" / "calibration.json").read_text())["n_starts"] == 1
        if rc == 0 and ("--panel-csv", None) in pairs:
            n_firms = int(dict(pairs)["--n-firms"])
            assert len((root / "out" / "panel.csv").read_text().splitlines()) == n_firms + 1
        if rc == 0 and sub == "simulate":
            T = int(dict(pairs)["--T"])
            assert len((root / "out" / "path.csv").read_text().splitlines()) == T + 1
        if rc == 0 and sub == "irf":
            horizon = int(dict(pairs)["--horizon"])
            assert len((root / "out" / "irf.csv").read_text().splitlines()) == horizon + 2


class TestDeterminism:
    def test_rerun_byte_identity_quick(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.run(["moments", "--params", config_path, "--n-firms", "4000",
                            "--out", str(out)]) == 0
        assert (out1 / "moments.json").read_bytes() == (out2 / "moments.json").read_bytes()

    def test_numpy_scalars_are_written_as_plain_numbers(self, capsys):
        # np.float64, the one numpy type a payload holds, is a float subclass
        cli._summary({"b": [(np.float64(1 / 3),)], "c": 0.1, "d": "text"})
        assert capsys.readouterr().out == '{"b": [[0.3333333333333333]], "c": 0.1, "d": "text"}\n'

    def test_json_artifacts_write_numpy_scalars_as_plain_numbers(self):
        files = {"x.json": io.StringIO(), "y.json": io.StringIO()}
        cli._write_json(files, "x.json", {"a": np.float64(0.1), "b": -2})
        assert files["x.json"].getvalue() == '{\n  "a": 0.1,\n  "b": -2\n}\n'
        with pytest.raises(TypeError):
            cli._write_json(files, "y.json", {"a": object()})


class TestWriteCsv:
    def test_matches_cell_by_cell_formatting(self, tmp_path):
        rng = np.random.default_rng(7)
        mixed = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        special = np.array([0.0, -0.0, 1.0, -1e-320, 5e-324, 1.7976931348623157e308,
                            np.inf, -np.inf, np.nan, 0.1, 1 / 3, 2.0 ** 53 + 1])
        columns = {"t": np.arange(mixed.size), "mixed": mixed,
                   "special": np.resize(special, mixed.size)}
        with open(tmp_path / "out.csv", "w") as fh:
            csvtext.write_csv(fh, columns)
        # reference: one f-string per cell
        lines = [",".join(columns)]
        for i in range(mixed.size):
            lines.append(",".join(f"{float(col[i]):.17g}" for col in columns.values()))
        assert (tmp_path / "out.csv").read_text() == "\n".join(lines) + "\n"

    def test_more_rows_than_one_block_match_the_whole_file_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 2 * csvtext.BLOCK_ROWS + 3
        columns = {"t": np.arange(n), "a": rng.standard_normal(n),
                   "b": np.exp(50.0 * rng.standard_normal(n))}
        with open(tmp_path / "blocks.csv", "w") as fh:
            csvtext.write_csv(fh, columns)
        write_csv_oracle(tmp_path / "whole.csv", columns)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        # the same rows appended in uneven chunks, as panel.csv is written
        cuts = [0, 5, csvtext.BLOCK_ROWS + 6, n]
        with open(tmp_path / "chunks.csv", "w") as fh:
            fh.write(",".join(columns) + "\n")
            for a, b in zip(cuts, cuts[1:]):
                csvtext.write_rows(fh, [col[a:b] for col in columns.values()])
        assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_special_values_across_block_edges_match_the_whole_file_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        block = csvtext.BLOCK_ROWS
        n = 2 * block + 17
        # class 0 fills the first block but for row 7, a class of one row;
        # classes 1 and 2 appear only after it
        classes = np.zeros(n, dtype=np.int64)
        classes[7] = 9
        classes[block:] = rng.integers(0, 3, n - block)
        # 0.0 in classes 0 and 2 but for one -0.0 in class 0, -0.0 in class 1
        signed_zero = np.where(classes == 1, -0.0, 0.0)
        signed_zero[3] = -0.0
        columns = {"t": np.arange(n), "signed_zero": signed_zero,
                   "per_class": np.array([np.nan, np.inf, -1e-320, 0, 0, 0, 0, 0, 0,
                                          0.1])[classes],
                   "constant": np.full(n, np.pi), "noise": rng.standard_normal(n)}
        with open(tmp_path / "blocks.csv", "w") as fh:
            csvtext.write_csv(fh, columns)
        write_csv_oracle(tmp_path / "whole.csv", columns)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), block=st.integers(1, 6), n=st.integers(1, 30),
           n_cols=st.integers(1, 4))
    def test_small_blocks_match_cell_by_cell_formatting(self, data, block, n, n_cols):
        # signed zeros, a denormal, infinities and nan in blocks of 1-6 rows
        values = st.sampled_from([0.0, -0.0, 1.0, 0.1, 5e-324, np.inf, -np.inf, np.nan])
        cols = [np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
                for _ in range(n_cols)]
        fh = io.StringIO()
        with mock.patch.object(csvtext, "BLOCK_ROWS", block):
            csvtext.write_rows(fh, cols)
        want = "".join(",".join(f"{float(col[i]):.17g}" for col in cols) + "\n"
                       for i in range(n))
        assert fh.getvalue() == want

    def test_failed_chunks_leave_no_file(self, tmp_path):
        # a failure after rows were written, of any class, removes the file
        for failure in (sortcycles.NonFinite, KeyboardInterrupt):
            with pytest.raises(failure):
                with cli._artifacts(tmp_path, ["x.csv"]) as files:
                    csvtext.write_csv(files["x.csv"], {"x": np.arange(3.0)})
                    raise failure("stub")
            assert not (tmp_path / "x.csv").exists(), failure
            assert list(tmp_path.iterdir()) == [], failure


def _fresh_env(**extra):
    """The environment of a new interpreter that imports sortcycles from the
    same source tree, with ``extra`` set."""
    src = str(Path(sortcycles.__file__).resolve().parents[1])
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _fresh_python(*args, cwd, **kwargs):
    """Run a new interpreter that imports sortcycles from the same source tree;
    ``kwargs`` go to subprocess.run."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_fresh_env(),
                          capture_output=True, text=True, timeout=300, **kwargs)


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
config, out = sys.argv[1:]


def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)


import sortcycles
sortcycles.load_config(config)
report = {"load_config": loaded("numpy", "sortcycles")}
from sortcycles import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.run(["--help"]), cli.run(["solve", "--help"]), cli.run(["no-such-command"]),
             cli.run(["solve", "--params", config, "--z", "abc"]),
             cli.run(["irf", "--params", config, "--n-sims", "0"]),
             cli.run(["simulate", "--params", config, "--T", "5", "--burn-in", "5"]),
             cli.run(["verify", "--params", config, "--seed", "-1"])]
report["usage"] = {"codes": codes, "numpy": loaded("numpy")}
for argv in (["solve"], ["moments", "--n-firms", "2000", "--panel-csv"],
             ["simulate", "--T", "300", "--burn-in", "10", "--grid-size", "60"],
             ["irf", "--horizon", "4", "--n-sims", "20", "--grid-size", "60"]):
    if cli.run([*argv, "--params", config, "--out", out]) != 0:
        raise SystemExit(f"{argv[0]} failed")
report["scipy"] = loaded("scipy")
report["sortcycles"] = loaded("sortcycles")
print(json.dumps(report))
"""


_NO_SCIPY_CALIBRATE_VERIFY_SCRIPT = """
import json, sys
from sortcycles import cli
config, out, subcommand = sys.argv[1:]
argv = {"calibrate": ["calibrate", "--fast", "--n-starts", "1"],
        "verify": ["verify", "--n-prop-points", "2"]}[subcommand]
if cli.run([*argv, "--params", config, "--out", out]) != 0:
    raise SystemExit(f"{subcommand} failed")
print(json.dumps({package: sorted(m for m in sys.modules if m.split(".")[0] == package)
                  for package in ("scipy", "sortcycles")}))
"""


_SCIPY_REFUSED_SCRIPT = """
import importlib.abc, sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
from sortcycles import cli
config, out = sys.argv[1:]
for argv in (["solve"], ["moments", "--n-firms", "2000", "--panel-csv"],
             ["simulate", "--T", "300", "--burn-in", "10", "--grid-size", "60"],
             ["irf", "--horizon", "4", "--n-sims", "20", "--grid-size", "60"],
             ["calibrate", "--fast", "--n-starts", "1", "--max-iter", "20"],
             ["calibrate", "--T", "600", "--burn-in", "60", "--n-starts", "1",
              "--max-iter", "4"],
             ["verify", "--n-prop-points", "2"]):
    if cli.run([*argv, "--params", config, "--out", out]) != 0:
        raise SystemExit(f"{argv[0]} failed")
"""


_MAIN_SCRIPT = """
import gc, json, sys
from sortcycles import cli
sys.argv[0] = "sortcycles"
try:
    cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


_UNREACHABLE_SCRIPT = """
import gc, sys
gc.disable()
from sortcycles import cli
config, out, *argv = sys.argv[1:]
code = cli.run([*argv, "--params", config, "--out", out])
print(code, gc.collect())
"""


def _unreachable_after(config_path, out, *argv):
    """(exit code, objects gc.collect finds unreachable) after one run in a
    fresh interpreter whose collector was off from the start."""
    proc = _fresh_python("-c", _UNREACHABLE_SCRIPT, config_path, str(out), *argv, cwd=out)
    assert proc.returncode == 0, proc.stderr
    code, unreachable = map(int, proc.stdout.splitlines()[-1].split())
    return code, unreachable


_FAILING_VERIFY_SCRIPT = """
import sys
from sortcycles import cli, verify
report = verify.VerificationReport.from_checks([verify.CheckResult("stub", 1.0, 0.5, False)])
verify.run_verification = lambda *args, **kwargs: report
sys.argv[0] = "sortcycles"
cli.main()
"""


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("code", [0, 3])
    def test_keeps_the_exit_code_and_writes_no_error(self, config_path, tmp_path, code,
                                                     unbuffered):
        # the summary line only repeats the artifacts, which are in place
        program = ["-m", "sortcycles"] if code == 0 else ["-c", _FAILING_VERIFY_SCRIPT]
        read, write = os.pipe()
        os.close(read)  # no reader from the start: the first write fails
        try:
            proc = subprocess.run(
                [sys.executable, *program, "verify", "--n-prop-points", "2",
                 "--params", config_path, "--out", str(tmp_path)],
                cwd=tmp_path, env=_fresh_env(PYTHONUNBUFFERED=unbuffered), stdout=write,
                stderr=subprocess.PIPE, text=True, timeout=300)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, "")
        assert json.loads((tmp_path / "verify.json").read_text())["passed"] is (code == 0)


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, config_path, tmp_path, capsys,
                                                     enabled):
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv in (["solve"], ["simulate", "--T", "300", "--burn-in", "10",
                                     "--grid-size", "60"],
                         ["simulate", "--T", "5", "--burn-in", "5"]):
                cli.run([*argv, "--params", config_path, "--out", str(tmp_path)])
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
        finally:
            (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()

    @pytest.mark.parametrize("argv,code", [(["solve"], 0),
                                           (["simulate", "--T", "5", "--burn-in", "5"], 2)])
    def test_main_runs_with_the_collector_off_and_freezes_the_heap(self, config_path,
                                                                   tmp_path, argv, code):
        proc = _fresh_python("-c", _MAIN_SCRIPT, *argv, "--params", config_path,
                             "--out", str(tmp_path), cwd=tmp_path)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert (report["code"], report["enabled"]) == (code, False)
        assert report["frozen"] > 0

    @pytest.mark.parametrize("argv,short,long", [
        (["simulate", "--grid-size", "100"], ["--T", "1000"], ["--T", "10000"]),
        (["calibrate", "--fast", "--n-starts", "1"], ["--max-iter", "4"], ["--max-iter", "40"]),
    ], ids=["simulate", "calibrate"])
    def test_unreachable_objects_do_not_grow_with_run_length(self, config_path, tmp_path,
                                                             argv, short, long):
        # with the collector off for the whole run, the cyclic garbage is what
        # the imports leave behind, whatever the run's length
        (tmp_path / "short").mkdir()
        (tmp_path / "long").mkdir()
        code_short, n_short = _unreachable_after(config_path, tmp_path / "short", *argv, *short)
        code_long, n_long = _unreachable_after(config_path, tmp_path / "long", *argv, *long)
        assert (code_short, code_long) == (0, 0)
        assert n_long <= n_short


@pytest.fixture(scope="module")
def solve_to_irf_report(config_path, tmp_path_factory):
    """What a fresh interpreter loaded at each stage of _NO_SCIPY_SCRIPT."""
    out = tmp_path_factory.mktemp("no-scipy")
    proc = _fresh_python("-c", _NO_SCIPY_SCRIPT, config_path, str(out), cwd=out)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def calibrate_verify_reports(config_path, tmp_path_factory):
    """Subcommand -> what a fresh interpreter that ran it alone loaded."""
    reports = {}
    for subcommand in ("calibrate", "verify"):
        out = tmp_path_factory.mktemp(subcommand)
        proc = _fresh_python("-c", _NO_SCIPY_CALIBRATE_VERIFY_SCRIPT, config_path, str(out),
                             subcommand, cwd=out)
        assert proc.returncode == 0, proc.stderr
        reports[subcommand] = json.loads(proc.stdout.splitlines()[-1])
    return reports


class TestFreshInterpreter:
    def test_solve_moments_and_dynamics_never_import_scipy(self, solve_to_irf_report):
        # importing scipy would cost a large part of every CLI start
        assert solve_to_irf_report["scipy"] == []

    def test_load_config_loads_no_numpy_and_no_model_layer(self, solve_to_irf_report):
        # the package namespace is lazy, and the config reader needs the
        # standard library alone
        assert solve_to_irf_report["load_config"] == [
            "sortcycles", "sortcycles.errors", "sortcycles.params"]

    def test_help_and_usage_errors_load_no_numpy(self, solve_to_irf_report):
        assert solve_to_irf_report["usage"] == {"codes": [0, 0, 2, 2, 2, 2, 2], "numpy": []}

    def test_solve_moments_and_dynamics_never_load_calibrate_or_verify(self,
                                                                       solve_to_irf_report):
        loaded = set(solve_to_irf_report["sortcycles"])
        assert {"sortcycles.dynamics", "sortcycles.firms"} <= loaded
        assert loaded & {"sortcycles.calibrate", "sortcycles.verify"} == set()

    def test_calibrate_and_verify_never_import_scipy(self, calibrate_verify_reports):
        # the least-squares search, the normal cdfs of the revenue shares and
        # the type quadrature are numpy and the standard library alone
        assert [r["scipy"] for r in calibrate_verify_reports.values()] == [[], []]

    def test_calibrate_and_verify_never_load_each_other(self, calibrate_verify_reports):
        calibrate_loaded = calibrate_verify_reports["calibrate"]["sortcycles"]
        verify_loaded = calibrate_verify_reports["verify"]["sortcycles"]
        assert "sortcycles.calibrate" in calibrate_loaded
        assert "sortcycles.verify" not in calibrate_loaded
        assert "sortcycles.verify" in verify_loaded
        assert "sortcycles.calibrate" not in verify_loaded

    def test_every_subcommand_runs_where_scipy_cannot_be_imported(self, config_path,
                                                                  tmp_path):
        # scipy is a test dependency only: with every scipy import refused,
        # each subcommand still exits 0
        proc = _fresh_python("-c", _SCIPY_REFUSED_SCRIPT, config_path, str(tmp_path),
                             cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_python_dash_m_runs_the_cli(self, config_path, tmp_path):
        proc = _fresh_python("-m", "sortcycles", "solve", "--params", config_path,
                             "--out", str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["subcommand"] == "solve"
        assert "lambda_t" in json.loads((tmp_path / "equilibrium.json").read_text())
