import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sortcycles as sc
from sortcycles import DomainError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_params(**overrides):
    base = dict(alpha=0.3, gamma=0.6, delta=0.10, beta=0.96, xi=9.0, psi=0.4022,
                lambda_x=0.8681, lambda_theta=2.6160, sigma1=0.2293, sigma2=0.0)
    base.update(overrides)
    return sc.ModelParams(**base)


class TestValidate:
    def test_published_calibration_is_valid(self):
        p = sc.validate(make_params())
        assert isinstance(p, sc.ValidatedParams)
        assert p.kappa == pytest.approx(8.0 / 9.0, abs=0)

    def test_alpha_plus_gamma_boundary(self):
        with pytest.raises(DomainError, match="alpha\\+gamma"):
            sc.validate(make_params(alpha=0.5, gamma=0.5))

    def test_psi_outside_unit_interval(self):
        with pytest.raises(DomainError, match="psi"):
            sc.validate(make_params(psi=1.2))

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("gamma", -0.1), ("xi", 1.0), ("lambda_x", 0.0),
        ("lambda_theta", -1.0), ("sigma1", -0.01), ("sigma2", -0.5),
        ("beta", 1.0), ("beta", 0.0), ("delta", 1.2), ("xi", float("nan")),
    ])
    def test_each_constraint_is_enforced(self, field, value):
        with pytest.raises(DomainError, match=field):
            sc.validate(make_params(**{field: value}))

    def test_idempotent(self):
        p1 = sc.validate(make_params())
        p2 = sc.validate(p1)
        assert p1 == p2

    def test_derived_constants_follow_a_replaced_point(self):
        # kappa and eta_q derive from the fields: a replaced point reads its own
        p = sc.validate(make_params())
        at_9 = (8.0 / 9.0, 9.0 / (1.0 + (1.0 - 0.3 - 0.6) * 8.0))
        assert (p.kappa, p.eta_q) == at_9
        q = dataclasses.replace(p, xi=5.0)
        assert (q.kappa, q.eta_q) == (4.0 / 5.0, 5.0 / (1.0 + (1.0 - 0.3 - 0.6) * 4.0))
        assert (p.kappa, p.eta_q) == at_9
        # equality and hashing read the fields alone
        assert q != p and dataclasses.replace(q, xi=9.0) == p
        assert hash(dataclasses.replace(q, xi=9.0)) == hash(p)

    @given(st.builds(
        make_params,
        alpha=st.floats(-1.0, 2.0),
        gamma=st.floats(-1.0, 2.0),
        xi=st.floats(0.0, 50.0),
        psi=st.floats(-0.5, 1.5),
        beta=st.floats(-0.5, 1.5),
        delta=st.floats(-0.5, 1.5),
    ))
    @settings(max_examples=60, deadline=None)
    def test_total_over_finite_reals(self, params):
        # either a ValidatedParams or a DomainError, never another exception
        try:
            out = sc.validate(params)
        except DomainError:
            return
        assert isinstance(out, sc.ValidatedParams)


class TestShockState:
    def test_holds_only_z_and_A_as_python_floats(self):
        # the type rate and wedge volatilities are parameters, not shock drivers
        assert tuple(f.name for f in dataclasses.fields(sc.AggregateShockState)) == ("z", "A")
        assert sc.AggregateShockState(z=0.1).A == 1.0
        for z, A in ((np.float64(0.25), np.float32(1.5)), (np.int64(0), np.int64(2)), (0, 3)):
            s = sc.AggregateShockState(z=z, A=A)
            assert type(s.z) is float and type(s.A) is float
            assert (s.z, s.A) == (float(z), float(A))

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            sc.AggregateShockState(z=-0.01)


class TestMarkovChain:
    def test_boom_z_above_recession_z_rejected(self):
        # state 0 is the boom: a chain whose z_low exceeds z_high would label
        # the recession the boom
        with pytest.raises(DomainError, match="z_low must not exceed z_high"):
            sc.MarkovChain2(z_high=0.1, p_stay_low=0.9, p_stay_high=0.7, z_low=0.5)

    def test_equal_states_admitted(self):
        chain = sc.MarkovChain2(z_high=0.3, p_stay_low=0.9, p_stay_high=0.7, z_low=0.3)
        assert chain.z_states == (0.3, 0.3)


class TestStationaryDistribution:
    def test_table_chain_exact_linear_solve(self):
        # oracle: solve pi = pi P with exact rationals
        p_l, p_h = Fraction(977, 1000), Fraction(688, 1000)
        pi_low = (1 - p_h) / ((1 - p_l) + (1 - p_h))
        chain = sc.MarkovChain2(z_high=0.3984, p_stay_low=0.977, p_stay_high=0.688)
        got = sc.stationary_distribution(chain)
        assert got[0] == pytest.approx(float(pi_low), abs=1e-12)          # 0.93134328...
        assert got[1] == pytest.approx(float(1 - pi_low), abs=1e-12)      # 0.06865671...
        assert got[0] == pytest.approx(0.9313432835820896, abs=1e-12)

    def test_absorbing_boom(self):
        chain = sc.MarkovChain2(z_high=1.0, p_stay_low=1.0, p_stay_high=0.0)
        assert sc.stationary_distribution(chain) == (1.0, 0.0)

    def test_symmetric_chain(self):
        chain = sc.MarkovChain2(z_high=1.0, p_stay_low=0.5, p_stay_high=0.5)
        assert sc.stationary_distribution(chain) == (0.5, 0.5)

    def test_doubly_degenerate_identity_chain(self):
        chain = sc.MarkovChain2(z_high=1.0, p_stay_low=1.0, p_stay_high=1.0)
        assert sc.stationary_distribution(chain) == (0.5, 0.5)

    @given(p_l=st.floats(0.0, 1.0), p_h=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point_of_transition_operator(self, p_l, p_h):
        chain = sc.MarkovChain2(z_high=0.5, p_stay_low=p_l, p_stay_high=p_h)
        pi = np.array(sc.stationary_distribution(chain))
        P = np.array(chain.transition_matrix)
        assert np.max(np.abs(pi @ P - pi)) < 1e-14
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)


class TestThetaRedrawProcess:
    def test_restriction_accepts_valid(self):
        proc = sc.ThetaRedrawProcess(rho=0.7, lambda_low=2.0, lambda_high=2.5,
                                     p_stay_low=0.9, p_stay_high=0.8)
        proc.check_valid()

    def test_restriction_rejects_lambda_high_at_bound(self):
        # lambda_high = 3 > lambda_low / rho = 2.857
        proc = sc.ThetaRedrawProcess(rho=0.7, lambda_low=2.0, lambda_high=3.0,
                                     p_stay_low=0.9, p_stay_high=0.8)
        with pytest.raises(sc.InvalidProcess):
            proc.check_valid()

    def test_full_redraw_limit_allowed(self):
        proc = sc.ThetaRedrawProcess(rho=0.0, lambda_low=2.0, lambda_high=2.0,
                                     p_stay_low=0.5, p_stay_high=0.5)
        proc.check_valid()


class TestConfigLoading:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def good_payload(self):
        return {
            "params": dataclasses.asdict(make_params()),
            "chain": {"z_high": 0.3984, "p_stay_low": 0.977, "p_stay_high": 0.688},
        }

    def test_published_config_is_the_published_calibration(self):
        # two copies of the published calibration: the code's and the file's
        assert sc.load_config(CONFIGS / "published.json") == sc.published_calibration()

    def test_round_trip(self, tmp_path):
        params, chain = sc.load_config(self.write(tmp_path, self.good_payload()))
        assert params.lambda_theta == 2.6160
        assert chain.z_high == 0.3984
        assert chain.z_low == 0.0

    def test_unknown_param_key_rejected(self, tmp_path):
        payload = self.good_payload()
        payload["params"]["lambda_thetaa"] = 2.0  # typo must fail loudly
        del payload["params"]["lambda_theta"]
        with pytest.raises(DomainError, match="lambda_thetaa"):
            sc.load_config(self.write(tmp_path, payload))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        payload = self.good_payload()
        payload["extra"] = {}
        with pytest.raises(DomainError, match="extra"):
            sc.load_config(self.write(tmp_path, payload))

    def test_missing_key_rejected(self, tmp_path):
        payload = self.good_payload()
        del payload["chain"]["z_high"]
        with pytest.raises(DomainError, match="z_high"):
            sc.load_config(self.write(tmp_path, payload))

    def test_invalid_values_rejected(self, tmp_path):
        payload = self.good_payload()
        payload["params"]["alpha"] = 0.5
        payload["params"]["gamma"] = 0.5
        with pytest.raises(DomainError, match="alpha\\+gamma"):
            sc.load_config(self.write(tmp_path, payload))
