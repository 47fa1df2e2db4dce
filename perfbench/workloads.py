"""The four benchmark workloads, all on the bundled ``multi_gpu`` system.

Every workload uses the system's own ``reward_config`` (wirelength from
microbump assignment).  A workload has four parts:

* ``setup(work_dir)`` builds what the first operation needs:
  characterization into an empty table cache, evaluators, the server.
  ``run.py`` times it as ``setup_s``.
* ``warm_up(state)`` runs a small piece of the workload once, untimed,
  so the first timed operation does not also pay for first-call costs
  in the process (about 1 s on the first RL arm).
* ``unit(state)`` does one unit of the workload's operations (one arm,
  or one block of requests from each serve client) and returns a
  :class:`Measured`.  ``run.py`` repeats units for about the run's
  seconds, sampling its reference kernel between them; the traced run
  does one unit.  Units of a state run the same work in the same order,
  so two fresh states give the same results and counts.
* ``check(state, measured, checks)`` verifies the outputs.

Inputs depend only on the seed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.baselines import TAP25DConfig, TAP25DPlacer
from repro.chiplet import Placement
from repro.chiplet.validate import placement_is_legal
from repro.experiments.runner import (
    ExperimentBudget,
    build_evaluators,
    dispatch_method_arm,
)
from repro.reward import RewardCalculator
from repro.serve import FloorplanServer
from repro.serve.client import ServeClient
from repro.systems import multi_gpu_system
from repro.thermal import FastThermalModel, GridThermalSolver
from repro.thermal.config import KELVIN_OFFSET
from repro.thermal.fast_model import PEAK_TEMP_MAX_ERROR_C

SYSTEM = "multi_gpu"

# The train and anneal arms run at one fixed seed, the CLI's default.
# PPO stops an update early on a KL threshold, so the work in an epoch
# changes with the seed by up to 2x; across benchmark seeds that would
# swamp any change in speed.  The benchmark seed drives the serve mix
# and its random placements.
ARM_SEED = 0

# RL arm as ``repro.cli train`` runs it: batch width 16, grid 32,
# 16 episodes per epoch.  One epoch per arm keeps an arm near 4.5 s on a
# 2-core host, so a 10 s run times two arms.
RL_EPOCHS = 1
RL_BUDGET = dict(
    rl_epochs=RL_EPOCHS, episodes_per_epoch=16, grid_size=32, rollout_batch_size=16
)

# HotSpot SA arm: 16 lockstep chains, a fresh splu per step.  The arm's
# 20 calibration steps alone take about 40 s on the bundled 64x64 grid,
# so the benchmark fixes the initial temperature and anneals one step:
# an arm of two lockstep steps takes 4-6 s, so a 12 s run times one or
# two arms.
SA_CHAINS = 16
SA_ITERATIONS = 1
SA_INITIAL_TEMPERATURE = 5.0

# Serve mix: each client sends blocks of 10 requests, a miss first so
# every hit has a key of its own to repeat.  A unit is one block from
# each client, so a run is whole blocks and never stops between a miss
# and the evaluates it delays: a miss costs about eight evaluates and
# holds the bundle lock, so a run cut one miss short would move evaluate
# latency more than any change.  A unit takes about 1.5 s on a 2-core
# host.
SERVE_CLIENTS = 2
SERVE_BLOCK = ("miss",) + ("evaluate",) * 7 + ("hit",) * 2
SERVE_PLACEMENTS = 16
RANDOM_WALK_MOVES = 40
# Grid 12 with two episodes never deadlocked in trials, so every miss
# returns a placement to check.
SERVE_PLACE_BUDGET = dict(
    rl_epochs=1, episodes_per_epoch=2, grid_size=12, rollout_batch_size=2
)
WARM_UP_SEED = 999_999


@dataclass
class Measured:
    """What one or more units produced."""

    elapsed_s: float
    ops: int  # epochs, annealing evaluations or requests
    op_ms: list  # per epoch, per annealing step or per evaluate request
    best_reward: float | None
    counts: dict  # exact counts from the program's own counters
    outputs: list  # one per arm or request, for the output checks
    failed_ops: int = 0
    detail: dict = field(default_factory=dict)


class Checks:
    """Output checks of one run; a failed check fails the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def merge(parts: list) -> Measured:
    """One :class:`Measured` for units run one after another: sums and
    concatenations, the first unit's ``best_reward``, and the last
    value of any detail that is not a list."""
    counts: dict = {}
    detail: dict = {}
    for part in parts:
        for key, value in part.counts.items():
            counts[key] = counts.get(key, 0) + value
        for key, value in part.detail.items():
            if isinstance(value, list):
                detail[key] = detail.get(key, []) + value
            elif isinstance(value, dict) and all(
                isinstance(v, list) for v in value.values()
            ):
                merged = detail.setdefault(key, {})
                for name, values in value.items():
                    merged[name] = merged.get(name, []) + values
            else:
                detail[key] = value
    return Measured(
        elapsed_s=sum(part.elapsed_s for part in parts),
        ops=sum(part.ops for part in parts),
        op_ms=[ms for part in parts for ms in part.op_ms],
        best_reward=parts[0].best_reward,
        counts=counts,
        outputs=[output for part in parts for output in part.outputs],
        failed_ops=sum(part.failed_ops for part in parts),
        detail=detail,
    )


# ----------------------------------------------------------------------
# RL and SA arms
# ----------------------------------------------------------------------


class _Arms:
    """A workload whose unit is one whole arm at ``ARM_SEED``."""

    budget: ExperimentBudget
    across_cpus = False  # one busy thread unless the arm has a pool

    def setup(self, work_dir: Path) -> dict:
        spec = multi_gpu_system()
        evaluators = build_evaluators(spec, self.budget, work_dir / "tables")
        return {"spec": spec, "evaluators": evaluators}

    @staticmethod
    def _arm_measured(output, reward, ops, n_steps, elapsed, counts) -> Measured:
        return Measured(
            elapsed_s=elapsed,
            ops=ops,
            op_ms=[1000.0 * elapsed / n_steps],
            best_reward=reward,
            counts=counts,
            outputs=[output],
            detail={"arm_rewards": [reward]},
        )

    @staticmethod
    def _check_repeats(measured: Measured, checks: Checks) -> None:
        for reward in measured.detail["arm_rewards"][1:]:
            checks.expect(
                reward == measured.best_reward,
                "a repeated arm gave another best_reward",
            )

    def close(self, state) -> None:
        pass


class RLTrain(_Arms):
    """The ``RLPlanner`` arm through ``dispatch_method_arm``."""

    def __init__(self, collect_jobs: int):
        self.collect_jobs = collect_jobs
        self.across_cpus = collect_jobs > 1
        self.budget = ExperimentBudget(
            seed=ARM_SEED, collect_jobs=collect_jobs, **RL_BUDGET
        )

    def warm_up(self, state) -> None:
        tiny = replace(self.budget, episodes_per_epoch=2, rollout_batch_size=2)
        dispatch_method_arm(state["spec"], "RLPlanner", tiny, state["evaluators"])

    def unit(self, state) -> Measured:
        capture: dict = {}
        reward = state["evaluators"]["reward_fast"]
        before = reward.evaluation_count
        start = time.perf_counter()
        result = dispatch_method_arm(
            state["spec"], "RLPlanner", self.budget,
            state["evaluators"], capture=capture,
        )
        elapsed = time.perf_counter() - start
        epochs = result.extra["epochs"]
        return self._arm_measured(
            (result, capture.get("placement")),
            result.reward,
            ops=epochs,
            n_steps=epochs,
            elapsed=elapsed,
            counts={
                "epochs": epochs,
                "deadlocks": result.extra["deadlocks"],
                # Zero under the pool: its workers evaluate on copies.
                "reward_evaluations": reward.evaluation_count - before,
            },
        )

    def check(self, state, measured: Measured, checks: Checks) -> None:
        self._check_repeats(measured, checks)
        spec = state["spec"]
        first, placement = measured.outputs[0]
        checks.expect(placement is not None, "arm returned no placement")
        if placement is None:
            return
        checks.expect(
            placement_is_legal(placement), "best placement is not legal"
        )
        fresh = RewardCalculator(
            FastThermalModel(state["evaluators"]["tables"], spec.thermal_config),
            spec.reward_config,
        )
        # Training scores episodes through evaluate_batch, which can
        # differ from the scalar evaluate in the last bit.
        checks.expect(
            fresh.evaluate_batch([placement])[0].reward == first.reward,
            "fresh RewardCalculator does not reproduce best_reward",
        )
        if self.collect_jobs == 1:
            grid = GridThermalSolver(spec.system.interposer, spec.thermal_config)
            grid_c = grid.evaluate(placement).max_temperature - KELVIN_OFFSET
            checks.expect(
                abs(grid_c - first.temperature_c) <= PEAK_TEMP_MAX_ERROR_C,
                f"grid solver peak {grid_c:.3f} C vs fast model "
                f"{first.temperature_c:.3f} C exceeds {PEAK_TEMP_MAX_ERROR_C} C",
            )


class SAHotspot(_Arms):
    """``TAP25DPlacer`` over the grid solver, fresh factorization per step."""

    def __init__(self):
        self.budget = ExperimentBudget(seed=ARM_SEED)

    def warm_up(self, state) -> None:
        shelf = TAP25DPlacer(state["spec"].system, None).initial_placement()
        state["evaluators"]["reward_fast"].evaluate(shelf)

    def unit(self, state) -> Measured:
        solver = state["evaluators"]["solver"]
        reward = state["evaluators"]["reward_solver"]
        before = (solver.factorization_count, reward.evaluation_count)
        placer = TAP25DPlacer(
            state["spec"].system,
            reward,
            TAP25DConfig(
                n_iterations=SA_ITERATIONS,
                initial_temperature=SA_INITIAL_TEMPERATURE,
                seed=ARM_SEED,
                n_chains=SA_CHAINS,
            ),
        )
        start = time.perf_counter()
        result = placer.run()
        elapsed = time.perf_counter() - start
        return self._arm_measured(
            result,
            result.reward,
            ops=result.n_evaluations,
            # One batched step for the starting layouts, one per iteration.
            n_steps=SA_ITERATIONS + 1,
            elapsed=elapsed,
            counts={
                "anneal_evaluations": result.n_evaluations,
                "factorizations": solver.factorization_count - before[0],
                "reward_evaluations": reward.evaluation_count - before[1],
            },
        )

    def check(self, state, measured: Measured, checks: Checks) -> None:
        self._check_repeats(measured, checks)
        spec = state["spec"]
        first = measured.outputs[0]
        checks.expect(
            placement_is_legal(first.placement), "best placement is not legal"
        )
        fresh = RewardCalculator(
            GridThermalSolver(spec.system.interposer, spec.thermal_config),
            spec.reward_config,
        )
        checks.expect(
            fresh.evaluate(first.placement).reward == first.reward,
            "fresh RewardCalculator does not reproduce best_reward",
        )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def _breakdown_key(breakdown) -> tuple:
    return (breakdown.reward, breakdown.wirelength, breakdown.max_temperature_c)


def random_placements(spec, rng: np.random.Generator, n: int):
    """``n`` legal placements: random walks of legal SA moves from the
    shelf packing."""
    placer = TAP25DPlacer(spec.system, None)
    start = placer.initial_placement()
    placements = []
    for _ in range(n):
        current = start
        for _ in range(RANDOM_WALK_MOVES):
            candidate = placer.propose(current, rng, 0.0)
            if candidate is not None:
                current = candidate
        placements.append(current)
    return placements


class ServeMixed:
    """An in-process ``FloorplanServer`` under two closed-loop clients."""

    across_cpus = True  # two clients and the server's threads

    def __init__(self, seed: int):
        self.seed = seed
        spec = multi_gpu_system()
        rng = np.random.default_rng([seed, 0])
        self.placements = [
            p.as_dict() for p in random_placements(spec, rng, SERVE_PLACEMENTS)
        ]

    def setup(self, work_dir: Path) -> dict:
        server = FloorplanServer(
            store_dir=work_dir / "store", cache_dir=work_dir / "tables"
        ).start()
        # The first request builds the warm evaluator bundle.
        ServeClient(server.url).evaluate(SYSTEM, self.placements[0])
        streams = [
            {
                "schedule": self._schedule(client),
                "rng": np.random.default_rng([self.seed, 100 + client]),
                "computed": [],  # budgets of this client's misses so far
            }
            for client in range(SERVE_CLIENTS)
        ]
        return {"server": server, "work_dir": work_dir, "streams": streams}

    def warm_up(self, state) -> None:
        ServeClient(state["server"].url).place(
            SYSTEM, "RLPlanner", dict(SERVE_PLACE_BUDGET, seed=WARM_UP_SEED)
        )

    def _schedule(self, client: int):
        """Endless seeded request stream of one client."""
        rng = np.random.default_rng([self.seed, 1 + client])
        block = 0
        while True:
            rest = list(SERVE_BLOCK[1:])
            rng.shuffle(rest)
            for kind in (SERVE_BLOCK[0], *rest):
                yield kind, int(rng.integers(len(self.placements))), block
            block += 1

    def _client(self, state, client, log) -> None:
        """Send the next block of ``client``'s stream, one at a time."""
        stream = state["streams"][client]
        api = ServeClient(state["server"].url, timeout=120.0)
        for _ in SERVE_BLOCK:
            kind, index, block = next(stream["schedule"])
            entry = {"kind": kind}
            start = time.perf_counter()
            try:
                if kind == "evaluate":
                    entry["index"] = index
                    entry["response"] = api.evaluate(SYSTEM, self.placements[index])
                else:
                    if kind == "miss":
                        # New RL seeds, the same in every run: misses
                        # are the costliest requests, so their work
                        # stays fixed while the benchmark seed moves
                        # the order and the placements.
                        budget = dict(
                            SERVE_PLACE_BUDGET, seed=1_000 * client + block
                        )
                        stream["computed"].append(budget)
                    else:
                        computed = stream["computed"]
                        budget = computed[int(stream["rng"].integers(len(computed)))]
                    entry["budget"] = budget
                    entry["response"] = api.place(SYSTEM, "RLPlanner", budget)
            except Exception as error:  # noqa: BLE001 - counted as failed
                entry["error"] = repr(error)
            entry["ms"] = 1000.0 * (time.perf_counter() - start)
            log.append(entry)

    def unit(self, state) -> Measured:
        """One block from each client, the clients in parallel."""
        logs = [[] for _ in range(SERVE_CLIENTS)]
        engine = state["server"].engine
        hits_before, misses_before = engine.store.counters()
        builds_before = engine.registry.stats()["builds"]
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(state, client, logs[client]))
            for client in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        entries = [entry for log in logs for entry in log]
        hits, misses = engine.store.counters()
        by_kind = {kind: 0 for kind in ("evaluate", "hit", "miss")}
        for entry in entries:
            by_kind[entry["kind"]] += 1
        counts = {
            "requests_evaluate": by_kind["evaluate"],
            "requests_place_hit": by_kind["hit"],
            "requests_place_miss": by_kind["miss"],
            "store_hits": hits - hits_before,
            "store_misses": misses - misses_before,
            # Zero while warm: setup built the bundle.
            "registry_builds": engine.registry.stats()["builds"] - builds_before,
        }
        latencies = {
            f"{kind}_ms": [e["ms"] for e in entries if e["kind"] == kind]
            for kind in ("evaluate", "hit", "miss")
        }
        return Measured(
            elapsed_s=elapsed,
            ops=len(entries),
            op_ms=latencies["evaluate_ms"],
            best_reward=None,
            counts=counts,
            outputs=entries,
            failed_ops=sum(1 for e in entries if "error" in e),
            detail={
                "latencies": latencies,
                "evaluate_batcher": engine.stats()["batchers"]["evaluate"],
            },
        )

    def check(self, state, measured: Measured, checks: Checks) -> None:
        spec = multi_gpu_system()
        # Tables reloaded from the server's disk cache, fresh calculator.
        direct = build_evaluators(
            spec, ExperimentBudget(), state["work_dir"] / "tables"
        )["reward_fast"]
        expected: dict = {}
        misses: dict = {}
        scalar_mismatches: set = set()
        for entry in measured.outputs:
            if "error" in entry:
                continue
            response = entry["response"]
            if entry["kind"] == "evaluate":
                index = entry["index"]
                if index not in expected:
                    placement = Placement.from_dict(
                        spec.system, self.placements[index]
                    )
                    expected[index] = (
                        _breakdown_key(direct.evaluate_batch([placement])[0]),
                        _breakdown_key(direct.evaluate(placement)),
                    )
                batched, scalar = expected[index]
                served = (
                    response["reward"],
                    response["wirelength"],
                    response["max_temperature_c"],
                )
                checks.expect(
                    served == batched,
                    "served evaluate differs from RewardCalculator.evaluate_batch",
                )
                # The scalar evaluate may differ in the last bits of the
                # fast model's temperature; count those, fail beyond them.
                close = all(
                    abs(a - b) <= 1e-9 * abs(b) for a, b in zip(served, scalar)
                )
                checks.expect(
                    close, "served evaluate differs from RewardCalculator.evaluate"
                )
                if served != scalar:
                    scalar_mismatches.add(index)
            elif entry["kind"] == "miss":
                checks.expect(response["cache"] == "miss", "new key was not a miss")
                misses[response["store_key"]] = response
                if response["placement"] is None:
                    continue  # every episode deadlocked
                placement = Placement.from_dict(spec.system, response["placement"])
                checks.expect(
                    placement_is_legal(placement), "served placement is not legal"
                )
                checks.expect(
                    direct.evaluate_batch([placement])[0].reward
                    == response["result"]["reward"],
                    "fresh RewardCalculator does not reproduce a served reward",
                )
        for entry in measured.outputs:
            if entry["kind"] != "hit" or "error" in entry:
                continue
            response = entry["response"]
            miss = misses.get(response["store_key"])
            checks.expect(
                response["cache"] == "hit"
                and miss is not None
                and (response["result"], response["placement"])
                == (miss["result"], miss["placement"]),
                "place hit differs from its miss",
            )
        measured.detail["placements_scalar_evaluate_not_bitwise"] = len(
            scalar_mismatches
        )

    def close(self, state) -> None:
        state["server"].close()


#: name -> factory taking the benchmark seed.
WORKLOADS = {
    "rl_train": lambda seed: RLTrain(collect_jobs=1),
    "rl_train_pool": lambda seed: RLTrain(collect_jobs=2),
    "sa_hotspot": lambda seed: SAHotspot(),
    "serve_mixed": ServeMixed,
}
