import json

import pytest

from sortcycles import cli, verify


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "published.json"
    payload = {
        "params": {"alpha": 0.3, "gamma": 0.6, "delta": 0.10, "beta": 0.96, "xi": 9,
                   "psi": 0.4022, "lambda_x": 0.8681, "lambda_theta": 2.6160,
                   "sigma1": 0.2293, "sigma2": 0},
        "chain": {"z_high": 0.3984, "p_stay_low": 0.977, "p_stay_high": 0.688},
    }
    path.write_text(json.dumps(payload))
    return str(path)


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


class TestSimulate:
    def test_path_csv_contract(self, config_path, tmp_path):
        rc = cli.run(["simulate", "--params", config_path, "--T", "300", "--burn-in", "50",
                      "--grid-size", "80", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == ("t,z,K,Y,C,measured_tfp,lambda_t,var_log_wage,var_log_tfpq,"
                            "var_log_tfpr,labor_share,R,w0")
        assert len(lines) == 301

    def test_t_not_above_burn_in_is_usage_error(self, config_path):
        assert cli.run(["simulate", "--params", config_path, "--T", "50",
                        "--burn-in", "100"]) == 2


class TestIrf:
    def test_irf_csv_contract(self, config_path, tmp_path):
        rc = cli.run(["irf", "--params", config_path, "--horizon", "4", "--n-sims", "16",
                      "--grid-size", "80", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "irf.csv").read_text().splitlines()
        assert lines[0] == "h,d_log_Y,d_measured_tfp,d_var_log_wage,d_var_log_tfpq,d_var_log_tfpr"
        assert len(lines) == 6

    def test_zero_sims_is_usage_error(self, config_path):
        assert cli.run(["irf", "--params", config_path, "--n-sims", "0"]) == 2


class TestCalibrate:
    def test_writes_result(self, config_path, tmp_path):
        rc = cli.run(["calibrate", "--params", config_path, "--fast", "--n-starts", "1",
                      "--max-iter", "40", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert list(payload) == ["params", "objective", "moments", "n_evaluations",
                                 "seed", "n_starts"]
        assert list(payload["params"]) == ["psi", "z_high", "lambda_theta", "lambda_x", "sigma1"]

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

    def test_bad_seed(self, config_path):
        assert cli.run(["solve", "--params", config_path, "--seed", "-5"]) == 2

    def test_bad_threads(self, config_path):
        assert cli.run(["solve", "--params", config_path, "--threads", "0"]) == 2


TARGET_FILES = {
    "missing": None,
    "invalid-json": "{\"labor_share\": 0.6,",
    "non-numeric": json.dumps({"labor_share": "high"}),
    "short-weights": json.dumps({"weights": [1.0, 2.0]}),
    "non-list-weights": json.dumps({"weights": 3}),
    "negative-weight": json.dumps({"weights": [1.0, 1.0, 1.0, 1.0, -1.0]}),
    "non-object": json.dumps([0.6]),
}


class TestInputHoles:
    @pytest.mark.parametrize("case", [
        ("irf", "--horizon", "-1"),
        ("calibrate", "--fast", "--n-starts", "0"),
        ("verify", "--n-prop-points", "0"),
        *[("calibrate", "--fast", "--targets", name) for name in TARGET_FILES],
    ], ids=lambda case: "-".join(case))
    def test_exit_code_and_one_error_line(self, config_path, tmp_path, capsys, case):
        sub, *flags = case
        if "--targets" in flags:
            name = flags[-1]
            target = tmp_path / f"{name}.json"
            if TARGET_FILES[name] is not None:
                target.write_text(TARGET_FILES[name])
            flags[-1] = str(target)
            expected, prefix = 1, "error: "
        else:
            expected, prefix = 2, "usage error: "
        rc = cli.run([sub, "--params", config_path, *flags, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == expected
        assert "Traceback" not in err
        assert err.startswith(prefix) and err.count("\n") == 1, err


class TestDeterminism:
    def test_rerun_byte_identity_quick(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.run(["moments", "--params", config_path, "--n-firms", "4000",
                            "--out", str(out)]) == 0
        assert (out1 / "moments.json").read_bytes() == (out2 / "moments.json").read_bytes()
