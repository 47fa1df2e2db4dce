"""The serve engine: warm evaluators + micro-batching + memoization.

One :class:`ServeEngine` instance backs every request thread of the
HTTP front end.  It composes the three layers the tentpole names:

* the :class:`~repro.serve.registry.WarmRegistry` (characterization
  tables, ``FastThermalModel``, ``GridThermalSolver`` factorizations —
  built once, reused forever),
* two :class:`~repro.serve.batcher.MicroBatcher` queues that coalesce
  concurrent ``evaluate``/``rollout`` requests into the existing
  ``evaluate_batch``/``act_batch`` (via ``collect_wave``) paths, and
* whole-request memoization of ``place`` through :class:`RunStore`
  content addressing — an identical (system, method, budget) request
  returns the stored placement with zero evaluator calls, and
  concurrent identical misses single-flight behind one computation.

Bitwise parity: ``place`` executes the same
:func:`repro.experiments.runner.dispatch_method_arm` code path the CLI
harness runs (warm evaluators are bit-identical to freshly built ones —
the thermal tables round-trip exactly through the disk cache), with the
same single-method time-matching semantics, so a served result equals
the ``repro.cli`` result for the same request in every semantic field.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.chiplet import Placement
from repro.experiments.runner import dispatch_method_arm
from repro.nn.serialization import loads_payload
from repro.parallel.collector import POLICY_PAYLOAD_KIND, collect_wave
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import WarmRegistry
from repro.serve.schema import (
    BadRequest,
    breakdown_to_dict,
    method_result_to_dict,
)
from repro.store import RunStore, store_key
from repro.systems import benchmark_names, get_benchmark
from repro.utils import SeedSequence, get_logger

__all__ = ["ServeEngine", "SERVE_PLACE_KIND"]

_logger = get_logger("serve.engine")

#: Store kind for memoized place requests.  Distinct from the harness's
#: ``method_arm`` kind because the serve artifact carries the winning
#: placement alongside the MethodResult (the table-oriented harness
#: only stores the scalar summary).
SERVE_PLACE_KIND = "serve-place"


def place_store_key(spec, method, budget, time_limited: bool) -> str:
    """Content key of one memoized place request (mirrors
    ``arm_store_key`` structurally, under the serve kind)."""
    from repro.experiments.runner import budget_store_payload, spec_fingerprint

    return store_key(
        SERVE_PLACE_KIND,
        {
            "spec": spec_fingerprint(spec),
            "method": method,
            "budget": budget_store_payload(budget),
            "time_limited": bool(time_limited),
        },
    )


class ServeEngine:
    """Request execution behind the HTTP front end (thread-safe)."""

    def __init__(
        self,
        store_dir=None,
        cache_dir=None,
        *,
        window_s: float = 0.002,
        max_batch: int = 16,
        registry: WarmRegistry | None = None,
    ):
        self.registry = registry or WarmRegistry(cache_dir)
        self.store = RunStore(store_dir) if store_dir is not None else None
        self._eval_batcher = MicroBatcher(
            self._run_evaluate_batch,
            window_s=window_s,
            max_batch=max_batch,
            name="evaluate",
        )
        self._rollout_batcher = MicroBatcher(
            self._run_rollout_batch,
            window_s=window_s,
            max_batch=max_batch,
            name="rollout",
        )
        self._policies: dict = {}  # name -> {"state": dict, "channels": tuple}
        self._networks: dict = {}  # (policy, bundle_key, grid) -> ActorCritic
        self._envs: dict = {}  # (bundle_key, grid) -> batched_env
        self._specs: dict = {}  # benchmark name -> BenchmarkSpec
        self._inflight: dict = {}  # place key -> Future
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.requests = {"place": 0, "evaluate": 0, "rollout": 0}

    # -- shared helpers -------------------------------------------------

    def _spec(self, name: str):
        """Benchmark specs are pure in their name; build each once."""
        with self._lock:
            spec = self._specs.get(name)
        if spec is not None:
            return spec
        try:
            spec = get_benchmark(name)
        except KeyError as error:
            raise BadRequest(str(error)) from error
        with self._lock:
            return self._specs.setdefault(name, spec)

    def _count(self, kind: str) -> None:
        with self._lock:
            self.requests[kind] += 1

    # -- place ----------------------------------------------------------

    def place(self, system: str, method: str, budget) -> dict:
        """Run (or recall) one full placement arm.

        Mirrors the CLI's single-method semantics exactly: no RL arm
        runs alongside, so a ``sa_time_matched`` fast-SA request runs
        without a time limit and is recorded ``time_matched: False`` —
        the same result ``repro.cli train/sa`` produces for the same
        (system, method, budget).

        Response ``cache`` field: ``"hit"`` (served from the store,
        zero compute), ``"inflight"`` (coalesced onto an identical
        concurrent request), ``"miss"`` (computed here).
        """
        self._count("place")
        spec = self._spec(system)
        # Single-method semantics (see method_arm_jobs): time matching
        # was *requested* but no RL arm feeds a limit.
        time_matched = (
            False
            if method == "TAP-2.5D*(FastThermal)" and budget.sa_time_matched
            else None
        )
        key = place_store_key(
            spec, method, budget, time_limited=bool(time_matched)
        )
        if self.store is not None:
            hit, cached = self.store.fetch(key)
            if hit:
                return self._place_response(
                    cached, key, cache="hit", evaluator_calls=0
                )
        leader = False
        with self._lock:
            future = self._inflight.get(key)
            if future is None:
                future = Future()
                self._inflight[key] = future
                leader = True
        if not leader:
            value = future.result()
            return self._place_response(
                value, key, cache="inflight", evaluator_calls=0
            )
        try:
            bundle = self.registry.bundle(spec, budget)
            with bundle.lock:
                calls_before = bundle.evaluator_calls()
                capture: dict = {}
                result = dispatch_method_arm(
                    spec,
                    method,
                    budget,
                    bundle.evaluators,
                    time_matched=time_matched,
                    capture=capture,
                )
                calls = bundle.evaluator_calls() - calls_before
            placement = capture.get("placement")
            value = {
                "result": result,
                "placement": (
                    placement.as_dict() if placement is not None else None
                ),
            }
            if self.store is not None:
                self.store.put(key, value)
            future.set_result(value)
        except BaseException as error:
            future.set_exception(error)
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
        return self._place_response(
            value, key, cache="miss", evaluator_calls=calls
        )

    @staticmethod
    def _place_response(value, key, cache, evaluator_calls) -> dict:
        return {
            "result": method_result_to_dict(value["result"]),
            "placement": value["placement"],
            "cache": cache,
            "store_key": key,
            "evaluator_calls": evaluator_calls,
        }

    # -- evaluate -------------------------------------------------------

    def evaluate(self, system: str, placement: dict, evaluator: str, budget) -> dict:
        """Reward/thermal evaluation of one placement (micro-batched).

        Concurrent requests sharing a (bundle, evaluator) group ride
        one ``RewardCalculator.evaluate_batch`` call.  The response is
        bitwise equal to ``evaluate_batch`` on that placement alone, at
        any batch composition.  It is *not* always bitwise equal to the
        scalar ``RewardCalculator.evaluate``: the fast thermal model's
        scalar and batched paths can differ in the last bit (seen on
        ``multi_gpu``), well inside any tolerance.
        """
        self._count("evaluate")
        spec = self._spec(system)
        bundle = self.registry.bundle(spec, budget)
        try:
            decoded = Placement.from_dict(spec.system, placement)
        except (KeyError, ValueError, TypeError) as error:
            raise BadRequest(f"invalid placement: {error}") from error
        response = self._eval_batcher.call((bundle, evaluator), decoded)
        return response

    def _run_evaluate_batch(self, group_key, placements) -> list:
        bundle, evaluator = group_key
        calculator = bundle.evaluators[
            "reward_fast" if evaluator == "fast" else "reward_solver"
        ]
        with bundle.lock:
            breakdowns = calculator.evaluate_batch(placements)
        n = len(placements)
        return [
            dict(breakdown_to_dict(b), evaluator=evaluator, batch_size=n)
            for b in breakdowns
        ]

    # -- policies & rollouts --------------------------------------------

    def register_policy(
        self, name: str, payload: bytes, channels=(16, 32, 32)
    ) -> dict:
        """Register a trained policy from its broadcast payload bytes.

        ``payload`` is the exact sealed format the collection workers
        receive (``nn/serialization``, kind ``collector-policy``);
        integrity and schema are verified on ingest.  Re-registering a
        name replaces it and invalidates cached network instances.
        """
        if not name:
            raise BadRequest("policy name must be non-empty")
        try:
            state = loads_payload(payload, kind=POLICY_PAYLOAD_KIND)
        except Exception as error:
            raise BadRequest(f"invalid policy payload: {error}") from error
        channels = tuple(int(c) for c in channels)
        with self._lock:
            self._policies[name] = {"state": state, "channels": channels}
            self._networks = {
                cache_key: network
                for cache_key, network in self._networks.items()
                if cache_key[0] != name
            }
        n_params = sum(np.asarray(v).size for v in state.values())
        return {"policy": name, "channels": list(channels), "parameters": int(n_params)}

    def policies(self) -> dict:
        with self._lock:
            return {
                name: {"channels": list(info["channels"])}
                for name, info in self._policies.items()
            }

    def _rollout_context(self, policy: str, spec, budget):
        """(network, batched_env, bundle) for one rollout group —
        networks and envs are built once per (policy, bundle, grid)."""
        from repro.agent.networks import ActorCritic
        from repro.env import BatchedFloorplanEnv, EnvConfig

        with self._lock:
            info = self._policies.get(policy)
        if info is None:
            raise BadRequest(
                f"unknown policy {policy!r}; register it via POST /v1/policies"
            )
        bundle = self.registry.bundle(spec, budget)
        grid = budget.grid_size
        env_key = (bundle.key, spec.name, grid)
        net_key = (policy, bundle.key, spec.name, grid)
        with bundle.lock:
            env = self._envs.get(env_key)
            if env is None:
                env = BatchedFloorplanEnv(
                    spec.system,
                    bundle.evaluators["reward_fast"],
                    EnvConfig(grid_size=grid),
                )
                self._envs[env_key] = env
            network = self._networks.get(net_key)
            if network is None:
                network = ActorCritic.from_state_dict(
                    info["state"],
                    env.observation_shape,
                    env.n_actions,
                    info["channels"],
                )
                self._networks[net_key] = network
        return network, env, bundle

    def rollout(
        self, policy: str, system: str, seed: int, greedy: bool, budget
    ) -> dict:
        """One policy rollout (micro-batched through ``collect_wave``).

        Each request's episode samples exclusively from its own
        ``SeedSequence(seed).rng("serve.rollout")`` stream; per-row
        results are invariant to the wave's width and live count (see
        :meth:`ActorCritic.act_batch`), so the batch a request happens
        to ride, a batch of one included, never changes its trajectory.
        """
        self._count("rollout")
        spec = self._spec(system)
        group = (policy, spec.name, budget.grid_size, bool(greedy))
        return self._rollout_batcher.call((group, budget), (seed, spec))

    def _run_rollout_batch(self, group_key, payloads) -> list:
        (policy, _spec_name, _grid, greedy), budget = group_key
        seeds = [seed for seed, _ in payloads]
        spec = payloads[0][1]
        network, batched_env, bundle = self._rollout_context(
            policy, spec, budget
        )
        rngs = [
            SeedSequence(seed).rng("serve.rollout") for seed in seeds
        ]
        with bundle.lock:
            head_rows = self._rollout_batcher.max_batch
            pairs = collect_wave(network, batched_env, rngs, head_rows, greedy)
        responses = []
        for (episode, info), seed in zip(pairs, seeds):
            deadlock = bool(info.get("deadlock"))
            placement = info.get("placement")
            response = {
                "seed": seed,
                "greedy": bool(greedy),
                "reward": episode.rewards[-1] if episode.rewards else None,
                "steps": episode.length,
                "deadlock": deadlock,
                "placement": (
                    placement.as_dict() if placement is not None else None
                ),
                "batch_size": len(seeds),
            }
            breakdown = info.get("breakdown")
            if breakdown is not None:
                response["breakdown"] = breakdown_to_dict(breakdown)
            if deadlock:
                response["unplaceable"] = info.get("unplaceable")
            responses.append(response)
        return responses

    # -- observability --------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            requests = dict(self.requests)
            n_policies = len(self._policies)
            n_networks = len(self._networks)
            inflight = len(self._inflight)
        stats = {
            "uptime_s": time.monotonic() - self._started,
            "requests": requests,
            "registry": self.registry.stats(),
            "batchers": {
                "evaluate": self._eval_batcher.stats(),
                "rollout": self._rollout_batcher.stats(),
            },
            "policies": n_policies,
            "networks": n_networks,
            "inflight_places": inflight,
            "benchmarks": benchmark_names(),
        }
        if self.store is not None:
            hits, misses = self.store.counters()
            stats["store"] = {
                "root": str(self.store.root),
                "hits": hits,
                "misses": misses,
            }
        return stats

    def close(self) -> None:
        self._eval_batcher.close()
        self._rollout_batcher.close()
