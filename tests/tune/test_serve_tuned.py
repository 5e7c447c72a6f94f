"""Tuned records flowing into the serving layer."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve.plan import PlanCache, PlanKey, compile_plan
from repro.nn.zoo import toynet, vggnet_e
from repro.sim import NetworkExecutor, make_input
from repro.tune import tune


@pytest.fixture(scope="module")
def toy_result():
    return tune(toynet(), evals=40, seed=7)


class TestCompileTuned:
    def test_plan_freezes_the_tuned_configuration(self, toy_result):
        network = toynet().feature_extractor()
        plan = compile_plan(network, tuned=toy_result.record)
        assert plan.partition_sizes == toy_result.incumbent.candidate.sizes
        assert plan.key.tip == toy_result.incumbent.candidate.tip
        assert plan.key.variant == "tuned:cycles"

    def test_tuned_plan_executes_correctly(self, toy_result):
        network = toynet().feature_extractor()
        plan = compile_plan(network, tuned=toy_result.record)
        x = make_input(network.input_shape, seed=0, integer=True)
        direct = NetworkExecutor(network, seed=0, integer=True).run(x)
        out = plan.execute([x])[0]
        assert np.array_equal(out, direct)

    def test_fingerprint_mismatch_rejected(self, toy_result):
        with pytest.raises(ConfigError):
            compile_plan(vggnet_e().feature_extractor(),
                         tuned=toy_result.record)

    def test_tuned_and_default_plans_do_not_alias(self, toy_result):
        network = toynet().feature_extractor()
        cache = PlanCache()
        tuned = cache.get_or_compile(network, tuned=toy_result.record)
        again = cache.get_or_compile(network, tuned=toy_result.record)
        assert again is tuned
        assert cache.hits == 1
        default = cache.get_or_compile(network)
        assert default is not tuned
        assert len(cache) == 2


class TestPlanKeyVariant:
    def test_round_trip_with_variant(self):
        key = PlanKey(fingerprint="ff", strategy="REUSE", tip=2,
                      storage_budget_bytes=None, precision="int",
                      variant="tuned:bytes")
        assert PlanKey.from_dict(key.to_dict()) == key
        assert "tuned:bytes" in str(key)

    def test_legacy_dict_without_variant_still_loads(self):
        key = PlanKey(fingerprint="ff", strategy="REUSE", tip=1,
                      storage_budget_bytes=None, precision="int")
        data = key.to_dict()
        data.pop("variant")
        assert PlanKey.from_dict(data) == key

    def test_default_variant_hidden_from_str(self):
        key = PlanKey(fingerprint="ff", strategy="REUSE", tip=1,
                      storage_budget_bytes=None, precision="int")
        assert "default" not in str(key)
