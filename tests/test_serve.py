"""Tests for the floorplanning service (``repro.serve``).

Covers each layer in isolation and then the stack end to end:

* :class:`MicroBatcher` — coalescing, ordering, the ``max_batch`` cap,
  group separation, and error propagation.
* :class:`WarmRegistry` — single-flight builds under thread contention,
  retry after a failed build, and content-key semantics.
* The cold-characterization satellite: N server threads concurrently
  requesting the same uncharacterized system must trigger exactly one
  characterization (and one evaluator build), with the other N-1
  counted as hits.
* :class:`ServeEngine` — place memoization through the run store
  (hit = zero evaluator calls, bitwise-equal response) and
  micro-batched evaluate vs the scalar calculator, bitwise.
* The HTTP surface — health/benchmarks/error codes, served responses
  over real sockets, policy registration, and rollout determinism
  (batch-width invariance, a batch of one included).
* Content keys — computed once per benchmark and equal to the keys the
  plain functions compute.
* Connections — one kept-alive connection per client thread, Nagle
  off, the idle timeout, reconnecting after a closed or restarted
  server, and a burst of connect-per-request clients.

Serve-stack tests share one module-scoped server: the expensive parts
(thermal characterization, the cold place arm) run once and every later
test exercises the warm paths — which is exactly the deployment shape.
"""

import http.client
import json
import logging
import struct
import threading
import time

import pytest

from repro.agent.networks import ActorCritic
from repro.chiplet import Placement
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.runner import ExperimentBudget
from repro.nn.serialization import dumps_payload
from repro.parallel.collector import POLICY_PAYLOAD_KIND
from repro.serve import (
    BadRequest,
    FloorplanServer,
    MicroBatcher,
    ServeClient,
    ServeError,
    WarmRegistry,
    bundle_key,
)
from repro.serve.schema import budget_from_dict, budget_to_dict
from repro.systems import get_benchmark

import numpy as np

METHOD = "TAP-2.5D*(FastThermal)"


def tiny_budget(**overrides) -> ExperimentBudget:
    defaults = dict(
        rl_epochs=1,
        episodes_per_epoch=2,
        grid_size=10,
        sa_iterations_hotspot=12,
        sa_chains=2,
        rollout_batch_size=2,
        position_samples=(2, 2),
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentBudget(**defaults)


def bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------


class _GatedBatches:
    """run_batch stub whose first call blocks until released, so the
    test can deterministically queue companions behind it."""

    def __init__(self):
        self.batches = []
        self.first_started = threading.Event()
        self.release_first = threading.Event()

    def __call__(self, group_key, payloads):
        self.batches.append((group_key, list(payloads)))
        if len(self.batches) == 1:
            self.first_started.set()
            assert self.release_first.wait(timeout=10.0)
        return [payload * 2 for payload in payloads]


class TestMicroBatcher:
    def test_coalesces_queued_items_in_submission_order(self):
        gate = _GatedBatches()
        with MicroBatcher(gate, window_s=0.0, max_batch=8) as batcher:
            first = batcher.submit("g", 1)
            assert gate.first_started.wait(timeout=10.0)
            rest = [batcher.submit("g", value) for value in (2, 3, 4, 5)]
            gate.release_first.set()
            assert first.result(timeout=10.0) == 2
            assert [f.result(timeout=10.0) for f in rest] == [4, 6, 8, 10]
        assert gate.batches[0] == ("g", [1])
        # Everything queued while the worker was busy rode one batch,
        # in submission order.
        assert gate.batches[1] == ("g", [2, 3, 4, 5])
        stats = batcher.stats()
        assert stats["items"] == 5
        assert stats["largest_batch"] == 4

    def test_max_batch_caps_each_batch(self):
        gate = _GatedBatches()
        with MicroBatcher(gate, window_s=0.0, max_batch=3) as batcher:
            leader = batcher.submit("g", 0)
            assert gate.first_started.wait(timeout=10.0)
            futures = [batcher.submit("g", value) for value in range(1, 8)]
            gate.release_first.set()
            leader.result(timeout=10.0)
            for future in futures:
                future.result(timeout=10.0)
        sizes = [len(payloads) for _, payloads in gate.batches[1:]]
        assert sizes == [3, 3, 1]

    def test_groups_never_share_a_batch(self):
        gate = _GatedBatches()
        with MicroBatcher(gate, window_s=0.0, max_batch=8) as batcher:
            leader = batcher.submit("a", 0)
            assert gate.first_started.wait(timeout=10.0)
            futures = [
                batcher.submit(group, value)
                for group, value in (("a", 1), ("b", 2), ("a", 3))
            ]
            gate.release_first.set()
            leader.result(timeout=10.0)
            for future in futures:
                future.result(timeout=10.0)
        # Oldest group drains first; "b" runs in its own batch.
        assert gate.batches[1] == ("a", [1, 3])
        assert gate.batches[2] == ("b", [2])

    def test_batch_failure_fails_only_that_batch(self):
        def run_batch(group_key, payloads):
            if group_key == "bad":
                raise RuntimeError("boom")
            return payloads

        with MicroBatcher(run_batch, window_s=0.0) as batcher:
            bad = batcher.submit("bad", 1)
            with pytest.raises(RuntimeError, match="boom"):
                bad.result(timeout=10.0)
            # The worker survives a failed batch.
            assert batcher.call("good", 7) == 7

    def test_wrong_result_length_fails_the_batch(self):
        with MicroBatcher(lambda g, p: [], window_s=0.0) as batcher:
            with pytest.raises(RuntimeError, match="0 results"):
                batcher.call("g", 1)

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda g, p: p, window_s=0.0)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("g", 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda g, p: p, window_s=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda g, p: p, max_batch=0)


# ----------------------------------------------------------------------
# WarmRegistry
# ----------------------------------------------------------------------


class _CountingBuilder:
    """Injectable builder: counts calls, optionally failing the first."""

    def __init__(self, delay_s: float = 0.02, fail_first: bool = False):
        self.calls = 0
        self.delay_s = delay_s
        self.fail_first = fail_first
        self._lock = threading.Lock()

    def __call__(self, spec, budget, cache_dir):
        with self._lock:
            self.calls += 1
            call = self.calls
        time.sleep(self.delay_s)
        if self.fail_first and call == 1:
            raise RuntimeError("injected build failure")

        class _Calc:
            evaluation_count = 0

        return {"reward_fast": _Calc(), "reward_solver": _Calc()}


@pytest.fixture(scope="module")
def synthetic1_spec():
    return get_benchmark("synthetic1")


class TestWarmRegistry:
    def test_single_flight_under_contention(self, synthetic1_spec):
        builder = _CountingBuilder()
        registry = WarmRegistry(builder=builder)
        budget = tiny_budget()
        n = 8
        barrier = threading.Barrier(n)
        bundles = [None] * n

        def worker(index):
            barrier.wait()
            bundles[index] = registry.bundle(synthetic1_spec, budget)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert builder.calls == 1
        assert all(bundle is bundles[0] for bundle in bundles)
        stats = registry.stats()
        assert stats == {"bundles": 1, "hits": n - 1, "misses": 1, "builds": 1}

    def test_failed_build_is_retried(self, synthetic1_spec):
        builder = _CountingBuilder(delay_s=0.0, fail_first=True)
        registry = WarmRegistry(builder=builder)
        budget = tiny_budget()
        with pytest.raises(RuntimeError, match="injected"):
            registry.bundle(synthetic1_spec, budget)
        # The poisoned slot was dropped; the next request rebuilds.
        bundle = registry.bundle(synthetic1_spec, budget)
        assert builder.calls == 2
        assert registry.stats()["builds"] == 1
        assert bundle.evaluator_calls() == 0

    def test_bundle_key_ignores_training_knobs(self, synthetic1_spec):
        base = tiny_budget()
        training_only = tiny_budget(
            rl_epochs=99, sa_iterations_hotspot=5000, seed=123
        )
        characterization = tiny_budget(position_samples=(3, 3))
        assert bundle_key(synthetic1_spec, base) == bundle_key(
            synthetic1_spec, training_only
        )
        assert bundle_key(synthetic1_spec, base) != bundle_key(
            synthetic1_spec, characterization
        )


class TestColdCharacterizationSingleFlight:
    def test_concurrent_threads_characterize_exactly_once(
        self, synthetic1_spec, tmp_path, monkeypatch
    ):
        """The PR satellite: N server threads hitting one uncharacterized
        system must run exactly one thermal characterization — the other
        N-1 block on the leader's build and count as registry hits."""
        import repro.experiments.runner as runner_module

        real = runner_module.load_or_characterize
        calls = []
        lock = threading.Lock()

        def counting(*args, **kwargs):
            with lock:
                calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "load_or_characterize", counting)
        registry = WarmRegistry(cache_dir=tmp_path / "cold_cache")
        budget = tiny_budget()
        n = 6
        barrier = threading.Barrier(n)
        bundles = [None] * n

        def worker(index):
            barrier.wait()
            bundles[index] = registry.bundle(synthetic1_spec, budget)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(calls) == 1
        stats = registry.stats()
        assert stats["builds"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == n - 1
        assert all(bundle is bundles[0] for bundle in bundles)
        # The warm bundle is a real evaluator stack.
        assert "reward_fast" in bundles[0].evaluators
        assert "tables" in bundles[0].evaluators


# ----------------------------------------------------------------------
# ServeEngine + HTTP surface (one shared warm server)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serve_budget():
    return tiny_budget()


@pytest.fixture(scope="module")
def serve_stack(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_stack")
    server = FloorplanServer(
        "127.0.0.1",
        0,
        store_dir=root / "store",
        cache_dir=root / "cache",
        window_s=0.005,
        max_batch=8,
    ).start()
    client = ServeClient(server.url, timeout=600.0)
    yield server, client
    client.close()
    server.close()


@pytest.fixture(scope="module")
def cold_place(serve_stack, serve_budget):
    """The one cold arm this module runs; everything else rides it."""
    server, _ = serve_stack
    response = server.engine.place("synthetic1", METHOD, serve_budget)
    assert response["cache"] == "miss"
    return response


class TestServeEngine:
    def test_cold_place_computes(self, cold_place):
        assert cold_place["evaluator_calls"] > 0
        assert cold_place["placement"] is not None
        assert cold_place["result"]["method"] == METHOD
        # Single-method semantics: time matching was requested but no
        # RL arm feeds a limit, exactly like `repro.cli sa`.
        assert cold_place["result"]["extra"]["time_matched"] is False

    def test_repeat_is_a_store_hit_with_zero_compute(
        self, serve_stack, serve_budget, cold_place
    ):
        server, _ = serve_stack
        warm = server.engine.place("synthetic1", METHOD, serve_budget)
        assert warm["cache"] == "hit"
        assert warm["evaluator_calls"] == 0
        assert warm["store_key"] == cold_place["store_key"]
        for field in ("reward", "wirelength", "temperature_c"):
            assert bits(warm["result"][field]) == bits(
                cold_place["result"][field]
            )
        assert warm["placement"] == cold_place["placement"]

    def test_different_budget_is_a_different_key(
        self, serve_stack, serve_budget, cold_place
    ):
        server, _ = serve_stack
        from repro.serve.engine import place_store_key

        spec = get_benchmark("synthetic1")
        other = tiny_budget(seed=serve_budget.seed + 1)
        assert place_store_key(
            spec, METHOD, other, time_limited=False
        ) != cold_place["store_key"]

    def test_evaluate_matches_scalar_calculator_bitwise(
        self, serve_stack, serve_budget, cold_place
    ):
        server, _ = serve_stack
        engine = server.engine
        spec = get_benchmark("synthetic1")
        placement_dict = cold_place["placement"]
        served = engine.evaluate(
            "synthetic1", placement_dict, "fast", serve_budget
        )
        bundle = engine.registry.bundle(spec, serve_budget)
        with bundle.lock:
            direct = bundle.evaluators["reward_fast"].evaluate(
                Placement.from_dict(spec.system, placement_dict)
            )
        for field, expected in (
            ("reward", direct.reward),
            ("wirelength", direct.wirelength),
            ("max_temperature_c", direct.max_temperature_c),
            ("thermal_penalty", direct.thermal_penalty),
        ):
            assert bits(served[field]) == bits(expected), field
        # The arm's reported reward re-evaluates exactly through the
        # warm batched path.
        assert bits(served["reward"]) == bits(cold_place["result"]["reward"])

    def test_concurrent_evaluates_are_batch_invariant(
        self, serve_stack, serve_budget, cold_place
    ):
        from concurrent.futures import ThreadPoolExecutor

        server, _ = serve_stack
        placement_dict = cold_place["placement"]
        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(
                pool.map(
                    lambda _: server.engine.evaluate(
                        "synthetic1", placement_dict, "fast", serve_budget
                    ),
                    range(6),
                )
            )
        reference = bits(cold_place["result"]["reward"])
        for response in responses:
            assert bits(response["reward"]) == reference

    def test_unknown_system_is_a_bad_request(self, serve_stack, serve_budget):
        server, _ = serve_stack
        with pytest.raises(BadRequest):
            server.engine.place("no-such-benchmark", METHOD, serve_budget)

    def test_invalid_placement_is_a_bad_request(
        self, serve_stack, serve_budget
    ):
        server, _ = serve_stack
        with pytest.raises(BadRequest):
            server.engine.evaluate(
                "synthetic1", {"bogus": 1}, "fast", serve_budget
            )


class TestHTTPSurface:
    def test_health_and_benchmarks(self, serve_stack):
        _, client = serve_stack
        assert client.health() == {"ok": True}
        assert "synthetic1" in client.benchmarks()

    def test_unknown_endpoint_is_404(self, serve_stack):
        _, client = serve_stack
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_unknown_method_is_400(self, serve_stack):
        _, client = serve_stack
        with pytest.raises(ServeError) as excinfo:
            client.place("synthetic1", "NoSuchMethod")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400_without_traceback(
        self, serve_stack, length
    ):
        server, _ = serve_stack
        logged = []
        recorder = logging.Handler()
        recorder.emit = logged.append
        logger = logging.getLogger("repro.serve.server")
        logger.addHandler(recorder)
        connection = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            connection.putrequest("POST", "/v1/place")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
            logger.removeHandler(recorder)
        assert response.status == 400
        assert "Content-Length" in body["error"]
        assert [r for r in logged if r.exc_info] == []

    def test_unknown_budget_field_is_400(self, serve_stack):
        _, client = serve_stack
        # A typo, and a field budgets no longer have.
        for field, value in (("sa_itertions", 5), ("sa_incremental", True)):
            with pytest.raises(ServeError) as excinfo:
                client.place("synthetic1", METHOD, {field: value})
            assert excinfo.value.status == 400
            assert field in str(excinfo.value)

    def test_host_resource_budget_is_400_and_starts_nothing(
        self, serve_stack, monkeypatch
    ):
        """A client may not make the server fork collection workers or
        bind a coordinator: the request is refused before any arm."""
        import repro.parallel.collector as collector_module

        built = []
        real_init = collector_module.EpisodeCollector.__init__

        def spy_init(self, *args, **kwargs):
            built.append(kwargs)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(
            collector_module.EpisodeCollector, "__init__", spy_init
        )
        _, client = serve_stack
        budget = budget_to_dict(tiny_budget(collect_workers=1))
        with pytest.raises(ServeError) as excinfo:
            client.place("synthetic1", "RLPlanner", budget)
        assert excinfo.value.status == 400
        assert "collect_workers" in str(excinfo.value)
        assert built == []

    def test_served_place_round_trips_bitwise(
        self, serve_stack, serve_budget, cold_place
    ):
        """The wire format preserves every double exactly: the HTTP
        response for the memoized request equals the in-process one."""
        _, client = serve_stack
        response = client.place(
            "synthetic1", METHOD, budget_to_dict(serve_budget)
        )
        assert response["cache"] == "hit"
        assert response["evaluator_calls"] == 0
        for field in ("reward", "wirelength", "temperature_c"):
            assert bits(response["result"][field]) == bits(
                cold_place["result"][field]
            )
        assert response["placement"] == cold_place["placement"]

    def test_stats_expose_every_layer(self, serve_stack, cold_place):
        _, client = serve_stack
        stats = client.stats()
        assert stats["requests"]["place"] >= 1
        assert stats["registry"]["builds"] >= 1
        assert set(stats["batchers"]) == {"evaluate", "rollout"}
        assert stats["store"]["hits"] >= 1
        assert len(stats["pairing_memo"]) == stats["registry"]["bundles"]

    def test_stats_report_pairing_memo_hits_of_a_warm_bundle(
        self, serve_stack, serve_budget, cold_place
    ):
        """A repeated warm evaluate answers bitwise from pairing-memo
        hits, and ``/v1/stats`` reports them per bundle."""
        _, client = serve_stack
        key = bundle_key(get_benchmark("synthetic1"), serve_budget)
        budget = budget_to_dict(serve_budget)
        placement = cold_place["placement"]
        first = client.evaluate("synthetic1", placement, "fast", budget)
        before = client.stats()["pairing_memo"][key]
        repeat = client.evaluate("synthetic1", placement, "fast", budget)
        after = client.stats()["pairing_memo"][key]
        for field in ("reward", "wirelength", "max_temperature_c"):
            assert bits(repeat[field]) == bits(first[field]), field
        assert set(after) == {"reward_fast", "reward_solver"}
        fast_before, fast = before["reward_fast"], after["reward_fast"]
        assert set(fast) == {"hits", "misses", "entries", "bytes"}
        assert fast["hits"] > fast_before["hits"]
        assert fast["misses"] == fast_before["misses"]
        assert fast["entries"] >= 1 and fast["bytes"] > 0


class TestContentKeys:
    """Keys are computed once per benchmark, and equal the keys the
    plain functions compute, so a store written before still hits."""

    def test_engine_keys_equal_freshly_computed_keys(
        self, serve_stack, serve_budget, cold_place
    ):
        from repro.serve.engine import place_store_key

        server, _ = serve_stack
        fresh_spec = get_benchmark("synthetic1")
        assert cold_place["store_key"] == place_store_key(
            fresh_spec, METHOD, serve_budget, time_limited=False
        )
        warm_keys = [bundle.key for bundle in server.engine.registry.bundles()]
        assert bundle_key(fresh_spec, serve_budget) in warm_keys
        registry = server.engine.registry
        served_spec = server.engine._spec("synthetic1")
        assert registry.key(served_spec, serve_budget) == bundle_key(
            fresh_spec, serve_budget
        )

    def test_canonical_part_gives_the_same_store_key(self, synthetic1_spec):
        from repro.experiments.runner import spec_fingerprint
        from repro.store import Canonical, store_key

        fingerprint = spec_fingerprint(synthetic1_spec)
        for payload in (
            {"spec": fingerprint, "x": 0.1},
            {"a": [fingerprint, (1, 2.5)], "spec": fingerprint},
        ):
            reduced = {
                name: Canonical(value) if value is fingerprint else value
                for name, value in payload.items()
            }
            assert store_key("k", reduced) == store_key("k", payload)
        assert store_key("k", {"spec": Canonical(fingerprint)}) != store_key(
            "k", {"spec": Canonical(dict(fingerprint, name="other"))}
        )

    def test_a_spec_fingerprint_is_computed_once_per_benchmark(
        self, serve_stack, serve_budget, cold_place, monkeypatch
    ):
        """50 evaluates and 10 place hits on one benchmark fingerprint
        it once: the registry keeps the bundle key and the reduced
        fingerprint the place key embeds."""
        import repro.serve.engine as engine_module
        import repro.serve.registry as registry_module
        from repro.serve import ServeEngine

        server, _ = serve_stack
        evaluators = server.engine.registry.bundle(
            server.engine._spec("synthetic1"), serve_budget
        ).evaluators
        registry = WarmRegistry(builder=lambda *_: evaluators)
        calls = []
        real = registry_module.spec_fingerprint

        def counting(spec):
            calls.append(spec.name)
            return real(spec)

        monkeypatch.setattr(registry_module, "spec_fingerprint", counting)
        monkeypatch.setattr(engine_module, "spec_fingerprint", counting)
        engine = ServeEngine(
            store_dir=server.engine.store.root, registry=registry
        )
        reward = bits(cold_place["result"]["reward"])
        try:
            for _ in range(50):
                response = engine.evaluate(
                    "synthetic1", cold_place["placement"], "fast", serve_budget
                )
                assert bits(response["reward"]) == reward
            for _ in range(10):
                response = engine.place("synthetic1", METHOD, serve_budget)
                assert response["cache"] == "hit"
                assert response["store_key"] == cold_place["store_key"]
        finally:
            engine.close()
        assert calls == ["synthetic1"]
        assert registry.stats()["builds"] == 1

    def test_a_new_spec_object_is_keyed_afresh(self, synthetic1_spec):
        import dataclasses

        registry = WarmRegistry(builder=_CountingBuilder(delay_s=0.0))
        budget = tiny_budget()
        first = registry.key(synthetic1_spec, budget)
        changed = get_benchmark("synthetic1")
        changed.thermal_config = dataclasses.replace(
            changed.thermal_config,
            ambient=changed.thermal_config.ambient + 1.0,
        )
        assert registry.key(changed, budget) == bundle_key(changed, budget)
        assert registry.key(changed, budget) != first
        assert registry.key(synthetic1_spec, budget) == first


@pytest.fixture(scope="module")
def bare_server():
    """A server with no warm state, for connection-level tests."""
    server = FloorplanServer("127.0.0.1", 0).start()
    yield server
    server.close()


def _wait_closed_by_peer(connection, timeout: float = 10.0) -> None:
    """Block until the server has closed ``connection``'s socket."""
    import select
    import socket

    readable, _, _ = select.select([connection.sock], [], [], timeout)
    assert readable, "the server never closed the idle connection"
    assert connection.sock.recv(1, socket.MSG_PEEK) == b""


class TestConnections:
    """Keep-alive transport: one connection per client thread, Nagle
    off, bounded idle time, and clients that open one connection per
    request served as before."""

    def test_sequential_requests_share_one_connection(self, bare_server):
        client = ServeClient(bare_server.url)
        try:
            first = client.stats()["connections"]
            for _ in range(5):
                assert client.health() == {"ok": True}
            assert client.stats()["connections"] == first
        finally:
            client.close()

    def test_accepted_sockets_have_nagle_off(self, bare_server, monkeypatch):
        import socket

        import repro.serve.server as server_module

        flags = []
        real_setup = server_module._Handler.setup

        def recording_setup(self):
            real_setup(self)
            flags.append(
                self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(server_module._Handler, "setup", recording_setup)
        client = ServeClient(bare_server.url)
        try:
            client.health()
        finally:
            client.close()
        connection = http.client.HTTPConnection(*bare_server.address)
        try:
            connection.request("GET", "/v1/health")
            assert connection.getresponse().read()
        finally:
            connection.close()
        assert len(flags) == 2 and all(flags)

    def test_one_client_shared_by_eight_threads(
        self, serve_stack, serve_budget, cold_place
    ):
        from concurrent.futures import ThreadPoolExecutor

        _, client = serve_stack
        budget = budget_to_dict(serve_budget)
        reward = bits(cold_place["result"]["reward"])

        def work(index):
            for round_ in range(6):
                if (index + round_) % 2:
                    assert client.health() == {"ok": True}
                else:
                    response = client.evaluate(
                        "synthetic1", cold_place["placement"], "fast", budget
                    )
                    assert bits(response["reward"]) == reward
                    assert response["evaluator"] == "fast"
            return index

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(work, range(8))) == list(range(8))

    def test_error_replies_keep_the_connection_usable(
        self, serve_stack, monkeypatch
    ):
        server, client = serve_stack
        before = client.stats()["connections"]
        with pytest.raises(ServeError) as excinfo:
            client.place("synthetic1", "NoSuchMethod")
        assert excinfo.value.status == 400
        assert "NoSuchMethod" in str(excinfo.value)
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        assert "no such endpoint '/v1/nope'" in str(excinfo.value)

        def broken():
            raise RuntimeError("injected failure")

        monkeypatch.setattr(server.engine, "policies", broken)
        with pytest.raises(ServeError) as excinfo:
            client.policies()
        assert excinfo.value.status == 500
        assert "RuntimeError: injected failure" in str(excinfo.value)
        monkeypatch.undo()
        assert client.health() == {"ok": True}
        assert client.stats()["connections"] == before

    def test_a_request_after_a_bad_content_length_succeeds(self, bare_server):
        client = ServeClient(bare_server.url)
        try:
            before = client.stats()["connections"]
            # A malformed request on the client's own kept connection:
            # the server answers 400 and closes it.
            connection = client._connection()
            connection.putrequest("POST", "/v1/place")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
            assert client.health() == {"ok": True}
            assert client.stats()["connections"] == before + 1
        finally:
            client.close()

    def test_an_idle_connection_is_closed_and_the_client_reconnects(
        self, monkeypatch
    ):
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with FloorplanServer("127.0.0.1", 0) as server:
            client = ServeClient(server.url)
            try:
                assert client.health() == {"ok": True}
                _wait_closed_by_peer(client._connection())
                assert client.health() == {"ok": True}
                assert client.stats()["connections"] == 2
            finally:
                client.close()

    def test_the_client_survives_a_server_restart_on_its_port(self):
        first = FloorplanServer("127.0.0.1", 0).start()
        client = ServeClient(first.url)
        try:
            assert client.health() == {"ok": True}
            host, port = first.address
            first.close()
            _wait_closed_by_peer(client._connection())
            with FloorplanServer(host, port) as second:
                assert client.health() == {"ok": True}
                assert client.stats()["connections"] == 1
        finally:
            client.close()

    def test_a_burst_of_connect_per_request_clients_is_not_stalled(
        self, bare_server
    ):
        """32 clients connecting at once (``Connection: close``, as
        urllib and curl send): a listen backlog of 5 drops SYNs here,
        and each dropped one costs a 1 s retry."""
        import urllib.request

        n = 32
        barrier = threading.Barrier(n + 1)
        replies = []

        def one():
            barrier.wait(timeout=10.0)
            url = f"{bare_server.url}/v1/health"
            with urllib.request.urlopen(url, timeout=10.0) as reply:
                replies.append(json.loads(reply.read()))

        threads = [threading.Thread(target=one) for _ in range(n)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=10.0)
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=10.0)
        elapsed = time.perf_counter() - start
        assert not any(thread.is_alive() for thread in threads)
        assert replies == [{"ok": True}] * n
        assert elapsed < 0.5, f"{n} connecting clients took {elapsed:.2f} s"


class TestPolicyServing:
    @pytest.fixture(scope="class")
    def registered_policy(self, serve_stack, serve_budget):
        server, client = serve_stack
        spec = get_benchmark("synthetic1")
        bundle = server.engine.registry.bundle(spec, serve_budget)
        env = BatchedFloorplanEnv(
            spec.system,
            bundle.evaluators["reward_fast"],
            EnvConfig(grid_size=serve_budget.grid_size),
        )
        channels = (4, 8, 8)
        network = ActorCritic(
            env.observation_shape,
            env.n_actions,
            channels=channels,
            rng=np.random.default_rng(42),
        )
        payload = dumps_payload(
            network.state_dict(), kind=POLICY_PAYLOAD_KIND
        )
        info = client.register_policy("unit-policy", payload, channels)
        assert info["policy"] == "unit-policy"
        assert info["parameters"] > 0
        return "unit-policy"

    def test_registered_policy_is_listed(self, serve_stack, registered_policy):
        _, client = serve_stack
        policies = client.policies()
        assert registered_policy in policies
        assert policies[registered_policy]["channels"] == [4, 8, 8]

    def test_corrupt_policy_payload_is_400(self, serve_stack):
        _, client = serve_stack
        with pytest.raises(ServeError) as excinfo:
            client.register_policy("bad", b"not a payload", (4, 8, 8))
        assert excinfo.value.status == 400

    def test_unknown_policy_rollout_is_400(self, serve_stack, serve_budget):
        _, client = serve_stack
        with pytest.raises(ServeError) as excinfo:
            client.rollout(
                "never-registered",
                "synthetic1",
                seed=0,
                budget=budget_to_dict(serve_budget),
            )
        assert excinfo.value.status == 400

    def test_rollout_is_deterministic_and_width_invariant(
        self, serve_stack, serve_budget, registered_policy
    ):
        """A request's trajectory depends only on its own seed stream:
        the same seed served alone (a wave of one) and served inside a
        concurrent batch must answer identically, bit for bit."""
        from concurrent.futures import ThreadPoolExecutor

        _, client = serve_stack
        budget_dict = budget_to_dict(serve_budget)

        solo = client.rollout(
            registered_policy, "synthetic1", seed=5, budget=budget_dict
        )
        assert solo["seed"] == 5
        assert solo["steps"] >= 1

        with ThreadPoolExecutor(max_workers=3) as pool:
            batched = list(
                pool.map(
                    lambda seed: client.rollout(
                        registered_policy,
                        "synthetic1",
                        seed=seed,
                        budget=budget_dict,
                    ),
                    (5, 6, 7),
                )
            )
        by_seed = {response["seed"]: response for response in batched}
        repeat = dict(by_seed[5])
        reference = dict(solo)
        # Batch size is a transport detail (a solo wave vs whatever
        # the burst coalesced into); everything semantic must agree.
        repeat.pop("batch_size")
        reference.pop("batch_size")
        assert repeat == reference
        if solo["reward"] is not None:
            assert bits(by_seed[5]["reward"]) == bits(solo["reward"])

    def test_greedy_rollout_is_reproducible(
        self, serve_stack, serve_budget, registered_policy
    ):
        _, client = serve_stack
        budget_dict = budget_to_dict(serve_budget)
        first = client.rollout(
            registered_policy,
            "synthetic1",
            seed=9,
            greedy=True,
            budget=budget_dict,
        )
        second = client.rollout(
            registered_policy,
            "synthetic1",
            seed=9,
            greedy=True,
            budget=budget_dict,
        )
        first.pop("batch_size")
        second.pop("batch_size")
        assert first == second

    def test_policy_network_is_built_without_random_init(
        self, serve_stack, serve_budget, monkeypatch
    ):
        """Registration and the first rollout build the served network
        straight from the payload's state dict: no orthogonal init, and
        the source network's exact values and memory layout."""
        from repro.nn import layers as layers_module

        server, client = serve_stack
        spec = get_benchmark("synthetic1")
        bundle = server.engine.registry.bundle(spec, serve_budget)
        env = BatchedFloorplanEnv(
            spec.system,
            bundle.evaluators["reward_fast"],
            EnvConfig(grid_size=serve_budget.grid_size),
        )
        channels = (4, 8, 8)
        source = ActorCritic(
            env.observation_shape,
            env.n_actions,
            channels=channels,
            rng=np.random.default_rng(7),
        )
        payload = dumps_payload(source.state_dict(), kind=POLICY_PAYLOAD_KIND)

        def forbidden(*args, **kwargs):
            raise AssertionError("the served policy ran the orthogonal init")

        monkeypatch.setattr(layers_module, "orthogonal", forbidden)
        client.register_policy("no-init-policy", payload, channels)
        response = client.rollout(
            "no-init-policy",
            "synthetic1",
            seed=2,
            budget=budget_to_dict(serve_budget),
        )
        assert response["steps"] >= 1
        (served,) = [
            network
            for key, network in server.engine._networks.items()
            if key[0] == "no-init-policy"
        ]
        for mine, theirs in zip(served.parameters(), source.parameters()):
            assert mine.data.tobytes() == theirs.data.tobytes()
            assert mine.data.strides == theirs.data.strides

    def test_float64_policy_payload_casts_into_float32(
        self, serve_stack, serve_budget
    ):
        """A float64-era payload still registers: the served network
        holds its weights cast once into float32 parameters."""
        server, client = serve_stack
        spec = get_benchmark("synthetic1")
        bundle = server.engine.registry.bundle(spec, serve_budget)
        env = BatchedFloorplanEnv(
            spec.system,
            bundle.evaluators["reward_fast"],
            EnvConfig(grid_size=serve_budget.grid_size),
        )
        channels = (4, 8, 8)
        source = ActorCritic(env.observation_shape, env.n_actions, channels)
        rng = np.random.default_rng(11)
        wide = {
            name: rng.normal(scale=0.1, size=value.shape)
            for name, value in source.state_dict().items()
        }
        payload = dumps_payload(wide, kind=POLICY_PAYLOAD_KIND)
        client.register_policy("float64-policy", payload, channels)
        response = client.rollout(
            "float64-policy",
            "synthetic1",
            seed=4,
            budget=budget_to_dict(serve_budget),
        )
        assert response["steps"] >= 1
        (served,) = [
            network
            for key, network in server.engine._networks.items()
            if key[0] == "float64-policy"
        ]
        for name, value in served.state_dict().items():
            assert value.dtype == np.float32
            assert np.array_equal(value, wide[name].astype(np.float32))


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------


class TestSchema:
    def test_budget_round_trips_through_the_wire_format(self):
        budget = tiny_budget()
        assert budget_from_dict(budget_to_dict(budget)) == budget

    def test_tuple_fields_survive_json_lists(self):
        decoded = budget_from_dict({"position_samples": [3, 4]})
        assert decoded.position_samples == (3, 4)
        assert isinstance(decoded.position_samples, tuple)

    def test_unknown_field_is_rejected(self):
        with pytest.raises(BadRequest, match="unknown budget fields"):
            budget_from_dict({"sa_itertions": 10})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("collect_jobs", 2),
            ("collect_workers", 1),
            ("collect_bind", "0.0.0.0:7777"),
        ],
    )
    def test_host_resource_fields_are_rejected(self, field, value):
        with pytest.raises(BadRequest, match=field):
            budget_from_dict({field: value})
        # Their defaults (what budget_to_dict always carries) pass.
        default = getattr(ExperimentBudget(), field)
        assert getattr(budget_from_dict({field: default}), field) == default

    @pytest.mark.parametrize(
        "field,ceiling",
        [("rl_epochs", 600), ("episodes_per_epoch", 64), ("grid_size", 64)],
    )
    def test_budget_above_its_ceiling_is_rejected(self, field, ceiling):
        with pytest.raises(BadRequest, match=field):
            budget_from_dict({field: ceiling + 1})
        assert getattr(budget_from_dict({field: ceiling}), field) == ceiling

    def test_non_object_budget_is_rejected(self):
        with pytest.raises(BadRequest):
            budget_from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rl_epochs", "abc"),
            ("grid_size", -3),
            ("position_samples", [0, 0]),
            ("sa_chains", 0),
        ],
    )
    def test_invalid_budget_value_is_rejected(self, field, value):
        with pytest.raises(BadRequest, match=field):
            budget_from_dict({field: value})
