"""The tuning loop: budgets, determinism, warm resume, degradation."""

import json

import pytest

from repro import obs
from repro.errors import ConfigError
from repro.nn.zoo import alexnet, toynet, vggnet_e
from repro.tune import TuningDB, tune


class TestTuneLoop:
    def test_incumbent_beats_baseline_on_toynet(self):
        result = tune(toynet(), evals=50, seed=7)
        assert result.incumbent.value < result.baseline.value
        assert result.improvement > 1
        assert result.considered == 50

    def test_budget_charges_every_considered_candidate(self):
        result = tune(toynet(), evals=30, seed=1)
        assert result.considered == 30
        assert (result.fresh + result.cached + result.pruned
                == result.considered)

    def test_same_seed_same_trajectory(self):
        a = tune(toynet(), evals=40, seed=5)
        b = tune(toynet(), evals=40, seed=5)
        assert a.incumbent.candidate == b.incumbent.candidate
        assert a.incumbent.value == b.incumbent.value
        assert a.history == b.history

    def test_different_seeds_may_differ(self):
        # not guaranteed per-pair, but the trajectory must depend on the
        # seed: over several seeds the fresh-evaluation counts vary.
        counts = {tune(toynet(), evals=40, seed=s).fresh for s in range(4)}
        assert len(counts) > 1

    def test_warm_resume_zero_fresh(self, tmp_path):
        db = str(tmp_path / "db.json")
        first = tune(toynet(), evals=40, seed=7, db=db)
        assert first.fresh > 0
        second = tune(toynet(), evals=40, seed=7, db=db)
        assert second.fresh == 0
        assert second.cached == second.considered - second.pruned
        assert second.incumbent.candidate == first.incumbent.candidate
        assert second.incumbent.value == first.incumbent.value

    def test_random_strategy_also_works(self):
        result = tune(toynet(), strategy="random", evals=30, seed=2)
        assert result.incumbent.value <= result.baseline.value

    def test_jobs_do_not_change_the_result(self):
        serial = tune(toynet(), evals=30, seed=3, jobs=1)
        parallel = tune(toynet(), evals=30, seed=3, jobs=2)
        assert parallel.incumbent.candidate == serial.incumbent.candidate
        assert parallel.history == serial.history

    def test_seconds_budget_degrades(self):
        # an absurdly small wall-clock budget: the guarantee is at least
        # the baseline evaluation and a degraded=True result, not a crash
        result = tune(vggnet_e(), num_convs=5, seconds=1e-6, seed=0)
        assert result.degraded
        assert result.considered >= 1
        assert result.incumbent is not None

    def test_eval_budget_is_not_degraded(self):
        result = tune(toynet(), evals=20, seed=0)
        assert not result.degraded

    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigError):
            tune(toynet(), evals=10, batch=0)

    @pytest.mark.parametrize("network,options", [
        # every candidate is over the DSP budget
        (toynet, dict(evals=8, seed=1, batch=4, dsp_budget=50)),
        # no AlexNet candidate shards onto 2 devices within 16 evals
        (lambda: alexnet(include_classifier=False),
         dict(objective="interval_dsp", device_counts=(2,), evals=16,
              seed=3, batch=4)),
    ], ids=["dsp_budget", "devices"])
    def test_no_valid_candidate_raises(self, network, options):
        """An invalid (infinite-valued) candidate never becomes the
        incumbent, even when the baseline is invalid too."""
        with pytest.raises(ConfigError, match="no valid candidate"):
            tune(network(), **options)

    def test_result_to_dict_is_json_ready(self):
        result = tune(toynet(), evals=20, seed=4)
        blob = json.dumps(result.to_dict(), sort_keys=True)
        data = json.loads(blob)
        assert data["incumbent"]["value"] == result.incumbent.value
        assert data["considered"] == 20

    def test_obs_counters_mirror_the_loop(self):
        with obs.capture() as registry:
            result = tune(toynet(), evals=30, seed=7)
        counters = registry.to_dict()["counters"]
        assert counters["tune.candidates_evaluated"] == result.fresh
        assert counters.get("tune.cached_hits", 0) == result.cached
        assert counters.get("tune.incumbent_updates", 0) >= 1
        names = [s["name"] for s in registry.to_dict()["spans"]]
        assert "tune" in names
        assert "tune.generation" in names

    def test_weighted_objective(self):
        result = tune(toynet(), objective="cycles=0.7,energy=0.3",
                      evals=30, seed=7)
        # normalized: the baseline scores exactly the weight sum
        assert result.baseline.value == pytest.approx(1.0)
        assert result.incumbent.value < result.baseline.value

    def test_record_property_round_trips(self):
        result = tune(toynet(), evals=30, seed=7)
        record = result.record
        assert record.fingerprint == result.fingerprint
        assert record.candidate == result.incumbent.candidate
