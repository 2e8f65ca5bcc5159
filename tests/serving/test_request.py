"""Tests of the serving request schema: parsing, validation, keying."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.rng import DEFAULT_SEED
from repro.serving import EvalRequest


class TestValidation:
    def test_base_request(self):
        req = EvalRequest(config="base", vdd=0.7)
        assert req.vdd == 0.7
        assert req.n_trials is None and req.seed is None

    def test_config1_requires_msb_in_8t(self):
        EvalRequest(config="config1", vdd=0.65, msb_in_8t=3)
        with pytest.raises(ConfigurationError, match="requires msb_in_8t"):
            EvalRequest(config="config1", vdd=0.65)

    def test_config2_requires_msb_per_layer(self):
        req = EvalRequest(config="config2", vdd=0.65, msb_per_layer=[2, 3, 1])
        assert req.msb_per_layer == (2, 3, 1)
        with pytest.raises(ConfigurationError, match="requires msb_per_layer"):
            EvalRequest(config="config2", vdd=0.65)

    def test_spurious_msb_arguments_rejected(self):
        with pytest.raises(ConfigurationError, match="takes no msb_in_8t"):
            EvalRequest(config="base", vdd=0.7, msb_in_8t=3)
        with pytest.raises(ConfigurationError, match="takes no msb_per_layer"):
            EvalRequest(config="config1", vdd=0.7, msb_in_8t=3,
                        msb_per_layer=(1, 2))

    def test_unknown_config(self):
        with pytest.raises(ConfigurationError, match="unknown config"):
            EvalRequest(config="config9", vdd=0.7)

    @pytest.mark.parametrize(
        "vdd", [0.0, -1.0, "0.7", True, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_vdd(self, vdd):
        with pytest.raises(ConfigurationError):
            EvalRequest(config="base", vdd=vdd)

    @pytest.mark.parametrize("n_trials", [0, -2, 1.5, True])
    def test_bad_n_trials(self, n_trials):
        with pytest.raises(ConfigurationError):
            EvalRequest(config="base", vdd=0.7, n_trials=n_trials)

    @pytest.mark.parametrize("seed", [1.5, "7", True, -1, -5])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigurationError):
            EvalRequest(config="base", vdd=0.7, seed=seed)

    def test_n_trials_ceiling(self):
        from repro.serving.request import MAX_TRIALS

        EvalRequest(config="base", vdd=0.7, n_trials=MAX_TRIALS)
        with pytest.raises(ConfigurationError, match="must not exceed"):
            EvalRequest(config="base", vdd=0.7, n_trials=MAX_TRIALS + 1)

    def test_bad_msb_per_layer_shapes(self):
        with pytest.raises(ConfigurationError):
            EvalRequest(config="config2", vdd=0.7, msb_per_layer=3)
        with pytest.raises(ConfigurationError):
            EvalRequest(config="config2", vdd=0.7, msb_per_layer=[1, 2.5])


class TestCanonicalization:
    def test_resolved_pins_defaults(self):
        req = EvalRequest(config="base", vdd=0.7).resolved(5)
        assert req.n_trials == 5
        assert req.seed == DEFAULT_SEED

    def test_resolved_preserves_explicit_values(self):
        req = EvalRequest(config="base", vdd=0.7, n_trials=2, seed=9).resolved(5)
        assert req.n_trials == 2 and req.seed == 9

    def test_key_payload_requires_resolution(self):
        with pytest.raises(ConfigurationError, match="resolved"):
            EvalRequest(config="base", vdd=0.7).key_payload()

    def test_key_payload_excludes_id(self):
        a = EvalRequest(config="base", vdd=0.7, request_id="a").resolved(3)
        b = EvalRequest(config="base", vdd=0.7, request_id="b").resolved(3)
        assert a.key_payload() == b.key_payload()
        assert "id" not in a.key_payload()

    def test_explicit_default_seed_and_null_seed_share_a_key(self):
        explicit = EvalRequest(config="base", vdd=0.7, seed=DEFAULT_SEED)
        implicit = EvalRequest(config="base", vdd=0.7)
        assert explicit.resolved(3).key_payload() == implicit.resolved(3).key_payload()

    def test_key_payload_is_json_stable(self):
        req = EvalRequest(
            config="config2", vdd=0.65, msb_per_layer=(2, 3, 1, 1, 3), seed=4
        ).resolved(3)
        blob = json.dumps(req.key_payload(), sort_keys=True)
        assert json.loads(blob) == req.key_payload()


class TestWireParsing:
    def test_round_trip(self):
        line = json.dumps(
            {"config": "config1", "vdd": 0.65, "msb_in_8t": 3, "id": "r1",
             "n_trials": 2, "seed": 11}
        )
        req = EvalRequest.from_json_line(line)
        assert req.request_id == "r1"
        assert req.msb_in_8t == 3 and req.n_trials == 2 and req.seed == 11

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown request fields"):
            EvalRequest.from_dict({"config": "base", "vdd": 0.7, "vddd": 1})

    def test_missing_required_fields(self):
        with pytest.raises(ConfigurationError, match="config.*vdd|'config' and 'vdd'"):
            EvalRequest.from_dict({"config": "base"})

    def test_non_object_line(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            EvalRequest.from_json_line("[1, 2]")

    def test_invalid_json_line(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            EvalRequest.from_json_line("{nope")

    def test_non_string_id(self):
        with pytest.raises(ConfigurationError, match="id must be a string"):
            EvalRequest.from_dict({"config": "base", "vdd": 0.7, "id": 4})
