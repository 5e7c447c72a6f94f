"""The tuning loop: seeded, resumable, budgeted, parallel.

:func:`tune` drives one search over the joint fusion x tiling space:

1. price the layer-by-layer default-tiled **baseline** (the normalizer
   for weighted objectives and the yardstick every report compares
   against);
2. per generation: ask the strategy for a batch of candidates, serve
   memo/:class:`~repro.tune.db.TuningDB` hits for free, **prune**
   candidates whose analytical lower bound already exceeds the
   incumbent, fan the remaining fresh evaluations across processes, and
   feed the scored generation back to the strategy;
3. stop when the :class:`~repro.faults.budget.ExplorationBudget` trips
   (every *considered* candidate is charged — cached, pruned, or fresh —
   so a re-run with the same seed and budget replays the identical
   trajectory and resumes warm from the DB with zero fresh work);
4. persist everything evaluated, the incumbent, and a deterministic run
   summary back to the DB.

Observability: a ``tune`` span wraps the search, one ``tune.generation``
span per batch, and counters ``tune.candidates_evaluated``,
``tune.cached_hits``, ``tune.pruned``, ``tune.invalid``,
``tune.incumbent_updates`` mirror the loop's work.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import obs
from ..errors import ConfigError
from ..faults.budget import ExplorationBudget
from ..hw.device import VIRTEX7_690T, FpgaDevice
from ..nn.network import Network
from .db import TunedRecord, TuningDB, space_key
from .evaluate import (
    EvalContext,
    EvalResult,
    evaluate_batch,
    evaluate_candidate,
    lower_bounds,
)
from .objective import Objective
from .search import Scored, SearchStrategy, make_strategy, pareto_insert
from .space import Candidate, SearchSpace

#: Default evaluation budget when the caller bounds neither evals nor time.
DEFAULT_EVALS = 64


@dataclass
class TuningResult:
    """Everything one :func:`tune` call learned."""

    network_name: str
    fingerprint: str
    objective: Objective
    space: SearchSpace
    incumbent: Scored
    baseline: Scored
    considered: int
    fresh: int
    cached: int
    pruned: int
    invalid: int
    generations: int
    degraded: bool
    elapsed_s: float
    pareto: List[Scored] = field(default_factory=list)
    history: List[Tuple[int, float]] = field(default_factory=list)
    db_path: Optional[str] = None

    @property
    def improvement(self) -> float:
        """baseline / incumbent objective ratio (>1 means better)."""
        if self.incumbent.value == 0:
            return float("inf")
        return self.baseline.value / self.incumbent.value

    @property
    def record(self) -> TunedRecord:
        """The portable serve-ready record of the incumbent."""
        return TunedRecord.from_result(self.fingerprint,
                                       self.objective.spec(),
                                       self.incumbent.value,
                                       self.incumbent.result)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "network": self.network_name,
            "fingerprint": self.fingerprint,
            "objective": self.objective.spec(),
            "space": self.space.describe(),
            "incumbent": {"candidate": self.incumbent.candidate.to_dict(),
                          "key": self.incumbent.candidate.key(),
                          "value": self.incumbent.value,
                          "metrics": dict(self.incumbent.result.metrics)},
            "baseline": {"candidate": self.baseline.candidate.to_dict(),
                         "value": self.baseline.value,
                         "metrics": dict(self.baseline.result.metrics)},
            "improvement": self.improvement,
            "considered": self.considered,
            "fresh_evaluations": self.fresh,
            "cached_evaluations": self.cached,
            "pruned": self.pruned,
            "invalid": self.invalid,
            "generations": self.generations,
            "degraded": self.degraded,
            "elapsed_s": round(self.elapsed_s, 4),
            "pareto": [{"candidate": s.candidate.to_dict(),
                        "value": s.value,
                        "metrics": dict(s.result.metrics)}
                       for s in self.pareto],
            "history": [[n, v] for n, v in self.history],
            "db": self.db_path,
        }


def tune(network: Network, objective: Union[str, Objective] = "cycles",
         strategy: Union[str, SearchStrategy] = "evolve",
         evals: Optional[int] = None, seconds: Optional[float] = None,
         seed: int = 0, jobs: int = 1, batch: int = 8,
         num_convs: Optional[int] = None,
         device: FpgaDevice = VIRTEX7_690T,
         dsp_budget: Optional[int] = None,
         db: Union[TuningDB, str, None] = None,
         space: Optional[SearchSpace] = None,
         prune: bool = True,
         device_counts: Optional[Tuple[int, ...]] = None) -> TuningResult:
    """Search the joint fusion x tiling space of (a prefix of) a network.

    Parameters mirror the ``tune`` CLI subcommand: ``evals``/``seconds``
    bound the search (defaulting to :data:`DEFAULT_EVALS` evaluations
    when neither is given), ``seed`` pins the trajectory, ``jobs`` fans
    fresh evaluations across processes, and ``db`` (a path or
    :class:`TuningDB`) makes the run resumable. ``space`` overrides the
    default :meth:`SearchSpace.from_network` construction (advanced
    callers can narrow the choice sets). ``device_counts`` opens the
    pipeline ``devices`` axis — e.g. ``(1, 2, 4)`` co-searches the
    partition with the fleet size, priced by the :mod:`repro.dist`
    stage/link model (pair with objective ``interval_dsp`` a.k.a.
    ``throughput_per_dsp`` to find the count that earns its silicon).
    """
    if batch < 1:
        raise ConfigError("batch must be >= 1", batch=batch)
    if device_counts is not None and space is not None:
        raise ConfigError(
            "pass device_counts via the explicit space, not both",
            device_counts=device_counts)
    obj = objective if isinstance(objective, Objective) else Objective.parse(objective)
    strat = strategy if isinstance(strategy, SearchStrategy) else make_strategy(strategy)
    sliced = (network.prefix(num_convs) if num_convs is not None
              else network.feature_extractor())
    if space is None:
        budget_dsp = device.dsp_slices if dsp_budget is None else dsp_budget
        kwargs = {}
        if device_counts is not None:
            kwargs["device_counts"] = tuple(sorted(set(device_counts)))
        space = SearchSpace.from_network(sliced, device=device,
                                         dsp_budget=budget_dsp, **kwargs)
    fingerprint = sliced.fingerprint()
    ctx = EvalContext.from_space(space)
    database = TuningDB.open(db)
    key = space_key(fingerprint, space.device.name, space.dsp_budget,
                    obj.spec(), device_counts=space.device_counts)
    if evals is None and seconds is None:
        evals = DEFAULT_EVALS
    budget = ExplorationBudget(max_evaluations=evals, max_seconds=seconds)

    rng = random.Random(seed)
    memo: Dict[str, EvalResult] = {}
    counters = {"fresh": 0, "cached": 0, "pruned": 0, "invalid": 0}

    def fetch(candidate: Candidate) -> Optional[EvalResult]:
        cached = memo.get(candidate.key())
        if cached is not None:
            return cached
        stored = database.lookup(key, candidate)
        if stored is not None:
            memo[candidate.key()] = stored
        return stored

    def score(result: EvalResult) -> Scored:
        if not result.valid or "cycles" not in result.metrics:
            return Scored(result=result, value=float("inf"))
        return Scored(result=result,
                      value=obj.value(result.metrics,
                                      baseline_metrics))

    t0 = time.perf_counter()
    incumbent: Optional[Scored] = None
    pareto: List[Scored] = []
    history: List[Tuple[int, float]] = []
    considered = 0
    generations = 0

    with obs.span("tune", network=sliced.name, objective=obj.spec(),
                  strategy=strat.name, seed=seed) as tune_span:
        # 1. the baseline anchors normalization and the final report.
        baseline_cand = space.validate(space.baseline())
        baseline_result = fetch(baseline_cand)
        if baseline_result is None:
            baseline_result = evaluate_candidate(ctx, baseline_cand)
            memo[baseline_cand.key()] = baseline_result
            database.record_eval(key, baseline_result)
            counters["fresh"] += 1
            obs.add_counter("tune.candidates_evaluated")
        else:
            counters["cached"] += 1
            obs.add_counter("tune.cached_hits")
        baseline_metrics = baseline_result.metrics
        baseline = score(baseline_result)
        budget.charge()
        considered += 1
        if baseline.value != float("inf"):
            incumbent = baseline
            history.append((considered, baseline.value))
            pareto_insert(pareto, baseline)

        # 2. the generational loop.
        while not budget.exceeded():
            n = batch
            remaining = budget.remaining_evaluations()
            if remaining is not None:
                n = min(n, remaining)
            if n <= 0:
                break
            proposals = strat.propose(rng, space, n)
            generations += 1
            with obs.span("tune.generation", gen=generations,
                          proposed=len(proposals)) as gen_span:
                plan: List[Tuple[Candidate, Optional[EvalResult], bool]] = []
                fresh_cands: List[Candidate] = []
                for cand in proposals:
                    cand = space.validate(cand)
                    hit = fetch(cand)
                    if hit is not None:
                        counters["cached"] += 1
                        obs.add_counter("tune.cached_hits")
                        plan.append((cand, hit, False))
                        continue
                    if (prune and incumbent is not None
                            and obj.value(lower_bounds(ctx, cand),
                                          baseline_metrics)
                            >= incumbent.value):
                        counters["pruned"] += 1
                        obs.add_counter("tune.pruned")
                        plan.append((cand, None, True))
                        continue
                    fresh_cands.append(cand)
                    plan.append((cand, None, False))
                fresh_results = iter(evaluate_batch(ctx, fresh_cands,
                                                    jobs=jobs))
                scored_gen: List[Scored] = []
                for cand, hit, was_pruned in plan:
                    budget.charge()
                    considered += 1
                    if was_pruned:
                        continue
                    result = hit
                    if result is None:
                        result = next(fresh_results)
                        memo[cand.key()] = result
                        database.record_eval(key, result)
                        counters["fresh"] += 1
                        obs.add_counter("tune.candidates_evaluated")
                    item = score(result)
                    if item.value == float("inf"):
                        counters["invalid"] += 1
                        obs.add_counter("tune.invalid")
                    scored_gen.append(item)
                    pareto_insert(pareto, item)
                    # only a finite (valid) value may become the incumbent
                    if item.value < (incumbent.value if incumbent
                                     else float("inf")):
                        incumbent = item
                        history.append((considered, item.value))
                        obs.add_counter("tune.incumbent_updates")
                gen_span.set(fresh=len(fresh_cands),
                             incumbent=(incumbent.value
                                        if incumbent else None))
                # one timeline point per generation: plotting this series
                # shows convergence (value falling) over the search
                if incumbent is not None:
                    obs.emit_event("tune.generation_best", incumbent.value,
                                   attrs={"generation": generations})
                strat.observe(rng, scored_gen)

        if incumbent is None:
            raise ConfigError(
                "no valid candidate found within the budget "
                "(DSP/BRAM budgets may be too tight for this network)",
                network=sliced.name, considered=considered,
                budget=budget.describe())
        tune_span.set(considered=considered, fresh=counters["fresh"],
                      incumbent=incumbent.value)

    elapsed = time.perf_counter() - t0
    degraded = bool(
        budget.tripped and budget.max_seconds is not None
        and (budget.max_evaluations is None
             or budget.evaluations < budget.max_evaluations))
    database.set_incumbent(key, incumbent.candidate, incumbent.value)
    database.record_run(key, {
        "seed": seed, "strategy": strat.name,
        "requested_evals": budget.max_evaluations,
        "considered": considered, "fresh": counters["fresh"],
        "cached": counters["cached"], "pruned": counters["pruned"],
        "invalid": counters["invalid"],
        "incumbent": incumbent.candidate.key(),
        "value": incumbent.value, "degraded": degraded,
    })
    database.save()
    obs.set_gauge("tune.incumbent_value", incumbent.value)
    result = TuningResult(
        network_name=sliced.name, fingerprint=fingerprint, objective=obj,
        space=space, incumbent=incumbent, baseline=baseline,
        considered=considered, fresh=counters["fresh"],
        cached=counters["cached"], pruned=counters["pruned"],
        invalid=counters["invalid"], generations=generations,
        degraded=degraded, elapsed_s=elapsed, pareto=pareto,
        history=history, db_path=database.path,
    )
    # Static validation of the serve-ready record: a tuner bug that
    # minted a record no plan compiler could honor should fail here,
    # at the producer, not at freeze time in a different process.
    from ..check import check_tuned_record

    findings = [d for d in check_tuned_record(result.record, fingerprint,
                                              num_units=space.num_units)
                if d.is_error]
    if findings:
        raise ConfigError(
            "tuned record failed static validation: "
            + "; ".join(d.render() for d in findings),
            network=sliced.name, findings=len(findings))
    return result
