"""Run-store subsystem tests: content addressing, versioned payloads,
bitwise checkpoint/resume across the trainer, the SA baselines and the
experiment scheduler.

Covers the PR-5 tentpole guarantees:

* ``store_key`` stability and sensitivity; ``RunStore`` result and
  checkpoint slots (atomic publish, hit/miss accounting), written as
  sealed payloads: every single-bit flip or truncation of a stored
  result or trainer checkpoint reads as a quarantined miss, never as a
  different value;
* the versioned payload schema — arrays, JSON scalars, RNG generator
  states and pickled objects round-trip bitwise; unsealed weight-only
  archives are rejected loudly instead of resuming with reset state;
* the SHA-256 integrity footer (schema v3): truncated, bit-flipped or
  footer-less payload bytes/files fail loudly as
  ``PayloadIntegrityError`` — a transient ``OSError`` to the fault
  layer, a schema error to the store's quarantine path;
* RNG state round-trip for every ``SeedSequence``-derived stream
  (satellite): a restored ``bit_generator.state`` replays the exact
  draw sequence;
* trainer kill-at-epoch-k + resume == uninterrupted run, bitwise,
  with and without RND;
* SA kill-mid-anneal + resume == uninterrupted run, bitwise, for one
  and several lockstep chains through both ``TAP25DPlacer`` and
  ``BStarFloorplanner``;
* scheduler store integration — keyed jobs skip on published results
  (zero executions on a completed sweep), fresh results publish, and
  dependents' ``inject`` hooks read cached dependency results;
* a ``--resume``'d sweep reproduces the sequential goldens exactly
  and re-executes zero method-arm jobs; an in-flight arm restarts
  from its store checkpoint;
* ablations sharded through the scheduler: ``jobs=2`` bitwise equal to
  ``jobs=1`` (satellite);
* ``resolve_jobs`` — the ``--jobs auto`` mode (satellite).
"""

import io
import json
import os
import pickle
import zipfile
from pathlib import Path

import numpy as np
import pytest

from golden_experiments_utils import (
    GOLDEN_EXPERIMENTS_PATH,
    build_golden_budget,
    build_golden_spec,
    run_golden_experiments,
)
from repro.agent import ActorCritic, RLPlannerTrainer, TrainerConfig
from repro.baselines import TAP25DConfig, TAP25DPlacer
from repro.baselines import SAConfig
from repro.baselines.bstar import BStarFloorplanner
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.ablations import run_ablations
from repro.experiments.report import MethodResult
from repro.experiments.runner import (
    ExperimentBudget,
    arm_store_key,
    build_evaluators,
    run_method_arm,
)
from repro.nn import (
    PayloadIntegrityError,
    dumps_payload,
    load_payload,
    loads_payload,
    save_payload,
    serialization,
)
from repro.parallel import JobSpec, RetryPolicy, resolve_jobs, run_jobs
from repro.parallel.collector import POLICY_PAYLOAD_KIND
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig, RNDConfig
from repro.store import RunStore, store_key
from repro.utils import SeedSequence


class _Interrupted(Exception):
    """Raised by checkpoint hooks to emulate a mid-run kill."""


def _hex(value) -> str:
    return float(value).hex()


def _history_hex(result):
    """Bitwise-comparable trainer history (wall-clock fields excluded)."""
    return [
        {
            key: (_hex(v) if isinstance(v, float) else v)
            for key, v in entry.items()
            if key != "elapsed"
        }
        for entry in result.history
    ]


# ----------------------------------------------------------------------
# store keys + slots
# ----------------------------------------------------------------------


class TestStoreKey:
    def test_stable_and_order_insensitive(self):
        a = store_key("kind", {"x": 1, "y": (2.0, "s"), "z": None})
        b = store_key("kind", {"z": None, "y": [2.0, "s"], "x": 1})
        assert a == b
        assert len(a) == 64

    def test_sensitive_to_payload_kind_and_floats(self):
        base = store_key("kind", {"x": 1.0})
        assert store_key("kind", {"x": 1.0 + 1e-15}) != base
        assert store_key("kind2", {"x": 1.0}) != base
        assert store_key("kind", {"x": 1}) != base  # int vs float

    def test_dataclasses_canonicalize(self):
        b1 = ExperimentBudget(seed=1)
        b2 = ExperimentBudget(seed=1)
        assert store_key("k", {"b": b1}) == store_key("k", {"b": b2})
        assert store_key("k", {"b": ExperimentBudget(seed=2)}) != store_key(
            "k", {"b": b1}
        )

    def test_rejects_unhashable_payloads(self):
        with pytest.raises(TypeError):
            store_key("k", {"x": object()})


class TestRunStore:
    def test_result_roundtrip_and_accounting(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 1})
        assert not store.contains(key)
        hit, _ = store.fetch(key)
        assert not hit and store.misses == 1
        store.put(key, {"value": 42})
        assert store.contains(key)
        hit, value = store.fetch(key)
        assert hit and value == {"value": 42}
        assert store.hits == 1

    def test_stored_none_is_a_hit(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 2})
        store.put(key, None)
        hit, value = store.fetch(key)
        assert hit and value is None

    def test_checkpoint_slot(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 3})
        assert store.load_checkpoint(key) is None
        store.save_checkpoint(key, {"iteration": 7})
        store.save_checkpoint(key, {"iteration": 9})  # overwrite
        assert store.load_checkpoint(key)["iteration"] == 9
        store.clear_checkpoint(key)
        assert store.load_checkpoint(key) is None
        store.clear_checkpoint(key)  # idempotent

    def test_no_partial_artifacts(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 4})
        store.put(key, np.arange(1000))
        # The only file under results/ is the complete artifact; the
        # atomic_replace temp name never survives.
        files = list((tmp_path / "results").rglob("*.npz"))
        assert files == [store.result_path(key)]

    def test_corrupt_result_is_quarantined_as_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 5})
        store.put(key, {"value": 1})
        # Torn write / bit rot: the payload is a valid artifact's
        # first half.  fetch must not raise — it quarantines and
        # reports a miss so the unit simply re-runs.
        path = store.result_path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        hit, value = store.fetch(key)
        assert not hit and value is None
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()
        # The slot is writable again and behaves normally afterwards.
        store.put(key, {"value": 2})
        assert store.get(key) == {"value": 2}

    def test_garbage_result_bytes_are_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 6})
        path = store.result_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a payload at all")
        assert store.get(key, default="fallback") == "fallback"
        assert path.with_name(path.name + ".corrupt").exists()

    def test_corrupt_checkpoint_is_quarantined_as_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 7})
        store.save_checkpoint(key, {"iteration": 7})
        path = store.checkpoint_path(key)
        path.write_bytes(path.read_bytes()[:10])
        assert store.load_checkpoint(key, default="restart") == "restart"
        assert path.with_name(path.name + ".corrupt").exists()
        # A fresh checkpoint overwrites cleanly.
        store.save_checkpoint(key, {"iteration": 8})
        assert store.load_checkpoint(key)["iteration"] == 8


class TestStoreCorruption:
    """Stored artifacts are sealed payloads: every single-bit flip and
    every truncation of a stored result or checkpoint reads as a miss
    that quarantines the file, never as a different value."""

    @staticmethod
    def _corruptions(blob: bytes, bits, n_cuts: int, seed: int):
        for bit in bits:
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            yield f"bit {bit}", bytes(damaged)
        for cut in np.random.default_rng(seed).integers(0, len(blob), n_cuts):
            yield f"cut at {cut}", blob[:cut]

    @staticmethod
    def _assert_each_is_a_miss(path, read, miss, corruptions) -> int:
        quarantined = path.with_name(path.name + ".corrupt")
        count = 0
        for label, blob in corruptions:
            path.write_bytes(blob)
            assert read() == miss, label
            assert not path.exists() and quarantined.exists(), label
            quarantined.unlink()
            count += 1
        return count

    def test_every_bit_flip_of_a_result_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 8})
        result = MethodResult(
            system="small",
            method="TAP-2.5D*(FastThermal)",
            reward=-1.25,
            wirelength=1234.5,
            temperature_c=87.25,
            runtime_s=0.5,
            extra={"epochs": 3, "time_matched": True},
        )
        store.put(key, result)
        path = store.result_path(key)
        blob = path.read_bytes()
        checked = self._assert_each_is_a_miss(
            path,
            lambda: store.fetch(key),
            (False, None),
            self._corruptions(blob, range(len(blob) * 8), 64, seed=0),
        )
        assert checked == len(blob) * 8 + 64
        path.write_bytes(blob)  # the intact bytes still read back
        assert store.fetch(key) == (True, result)

    def test_sampled_bit_flips_of_a_checkpoint_are_misses(
        self, trainer_env, tmp_path
    ):
        trainer = _make_trainer(trainer_env, epochs=1, batch_size=2)
        trainer.train()
        state = trainer.state_dict()
        store = RunStore(tmp_path)
        key = store_key("t", {"i": 9})
        store.save_checkpoint(key, state)
        path = store.checkpoint_path(key)
        blob = path.read_bytes()
        bits = np.random.default_rng(1).choice(len(blob) * 8, 256, replace=False)
        self._assert_each_is_a_miss(
            path,
            lambda: store.load_checkpoint(key, default="restart"),
            "restart",
            self._corruptions(blob, bits, 32, seed=2),
        )
        path.write_bytes(blob)
        assert _bits(store.load_checkpoint(key)) == _bits(state)


# ----------------------------------------------------------------------
# versioned payload schema
# ----------------------------------------------------------------------


class TestPayloadSchema:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        payload = {
            "arrays": {"w": rng.normal(size=(3, 4)), "i": np.arange(5)},
            "scalars": [1, -2.5, float("inf"), True, None, "text"],
            "big": 2**130 + 7,  # PCG64-state-sized integer
            "rng_state": rng.bit_generator.state,
            "np_scalar": np.float64(0.1),
            "obj": {"tuple": (1, 2), "nested": [{"x": 0.25}]},
        }
        path = tmp_path / "payload.npz"
        save_payload(payload, path, kind="test")
        loaded = load_payload(path, kind="test")
        assert (loaded["arrays"]["w"] == payload["arrays"]["w"]).all()
        assert loaded["arrays"]["w"].dtype == payload["arrays"]["w"].dtype
        assert loaded["scalars"] == payload["scalars"]
        assert loaded["big"] == payload["big"]
        assert loaded["rng_state"] == payload["rng_state"]
        assert loaded["np_scalar"] == payload["np_scalar"]
        assert type(loaded["np_scalar"]) is np.float64
        assert loaded["obj"]["tuple"] == (1, 2)
        assert isinstance(loaded["obj"]["tuple"], tuple)

    def test_legacy_archive_rejected(self, tmp_path):
        # A weight-only archive written by plain np.savez carries no
        # integrity footer, so it never decodes as a payload.
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, w=np.zeros(3))
        with pytest.raises(PayloadIntegrityError, match="legacy.npz"):
            load_payload(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        save_payload({"x": 1}, path, kind="sa-engine")
        with pytest.raises(Exception, match="kind"):
            load_payload(path, kind="rlplanner-trainer")


class TestPayloadIntegrity:
    """Satellite: the SHA-256 footer sealed onto every payload (schema
    v3) makes corruption in transit or on disk fail loudly — and
    *transiently*, so the fault layer re-broadcasts / re-reads instead
    of quarantining a healthy source."""

    def _payload(self):
        return {"w": np.arange(12, dtype=np.float64), "step": 7}

    def test_bytes_roundtrip_and_match_the_file_form(self, tmp_path):
        data = dumps_payload(self._payload(), kind="test")
        loaded = loads_payload(data, kind="test")
        assert (loaded["w"] == self._payload()["w"]).all()
        assert loaded["step"] == 7
        path = tmp_path / "p.npz"
        save_payload(self._payload(), path, kind="test")
        assert path.read_bytes() == data

    def test_bit_flip_fails_the_footer(self):
        data = bytearray(dumps_payload(self._payload(), kind="test"))
        data[len(data) // 2] ^= 0x01
        with pytest.raises(PayloadIntegrityError, match="SHA-256"):
            loads_payload(bytes(data), kind="test")

    def test_bit_flipped_file_fails_on_load(self, tmp_path):
        path = tmp_path / "p.npz"
        save_payload(self._payload(), path, kind="test")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(PayloadIntegrityError, match="SHA-256"):
            load_payload(path, kind="test")

    @pytest.mark.parametrize("keep", [10, 0.5])
    def test_truncation_fails_even_without_the_footer(self, keep):
        # A truncation that also destroys the footer magic fails the
        # footer check — the same loud, transient error class as a bit
        # flip, never a raw zip traceback.
        data = dumps_payload(self._payload(), kind="test")
        cut = keep if isinstance(keep, int) else int(len(data) * keep)
        with pytest.raises(PayloadIntegrityError):
            loads_payload(data[:cut], kind="test")

    def test_footer_stripped_bytes_are_rejected(self):
        # Every payload has been sealed since schema v3: an archive
        # without its footer is not decoded, however intact it looks.
        data = dumps_payload(self._payload(), kind="test")
        stripped = data[:-40]  # 8-byte magic + 32-byte digest
        with pytest.raises(PayloadIntegrityError, match="SHA-256"):
            loads_payload(stripped, kind="test")

    def test_integrity_error_is_transient_and_schema_classified(self):
        error = PayloadIntegrityError("corrupt")
        assert isinstance(error, OSError)
        assert RetryPolicy.is_transient(error)
        # ...and the store's quarantine path still catches it:
        from repro.nn.serialization import CheckpointSchemaError

        assert isinstance(error, CheckpointSchemaError)


class TestRNGStateRoundTrip:
    """Satellite: every SeedSequence-derived stream restores bitwise."""

    STREAMS = ("network", "rnd", "actions", "ppo", "episode.0", "episode.7")

    def test_streams_replay_identical_draws(self, tmp_path):
        seeds = SeedSequence(42)
        for stream in self.STREAMS:
            rng = seeds.rng(stream)
            rng.random(17)  # advance into mid-stream state
            path = tmp_path / "state.npz"
            save_payload({"state": rng.bit_generator.state}, path, kind="rng")
            expected = rng.random(64)
            expected_ints = rng.integers(0, 1 << 30, size=8)

            restored = seeds.rng(stream)  # fresh generator, then restore
            restored.bit_generator.state = load_payload(path, kind="rng")[
                "state"
            ]
            assert restored.random(64).tobytes() == expected.tobytes(), stream
            assert (
                restored.integers(0, 1 << 30, size=8) == expected_ints
            ).all(), stream

    def test_streams_are_distinct(self):
        seeds = SeedSequence(42)
        states = {
            stream: seeds.rng(stream).bit_generator.state["state"]["state"]
            for stream in self.STREAMS
        }
        assert len(set(states.values())) == len(self.STREAMS)


# ----------------------------------------------------------------------
# trainer kill + resume
# ----------------------------------------------------------------------


@pytest.fixture
def trainer_env(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=10))


def _make_trainer(env, **overrides):
    defaults = dict(
        epochs=4,
        episodes_per_epoch=2,
        seed=3,
        log_every=0,
        encoder_channels=(4, 8, 8),
        ppo=PPOConfig(minibatch_size=8, update_epochs=2),
        rnd=RNDConfig(bonus_scale=0.5),
    )
    defaults.update(overrides)
    return RLPlannerTrainer(env, TrainerConfig(**defaults))


def _archive(data: bytes) -> zipfile.ZipFile:
    """The npz archive inside sealed payload bytes (footer stripped)."""
    return zipfile.ZipFile(io.BytesIO(data[: -serialization._FOOTER_BYTES]))


def _slot_kinds(data: bytes) -> dict:
    """``{slot: node type}`` from a payload's ``__meta__`` tree."""
    with _archive(data) as archive:
        meta = json.loads(
            np.lib.format.read_array(archive.open("__meta__.npy")).tobytes()
        )
    kinds = {}

    def walk(node):
        if "slot" in node:
            kinds[node["slot"]] = node["t"]
        items = node.get("items", ())
        for child in items.values() if isinstance(items, dict) else items:
            walk(child)

    walk(meta["tree"])
    return kinds


def _bits(value):
    """A bitwise-comparable form of a decoded payload."""
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_bits(item) for item in value])
    if isinstance(value, (np.ndarray, np.generic)):
        return (value.dtype.str, np.shape(value), np.asarray(value).tobytes())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int, str, type(None))):
        return value
    return pickle.dumps(value)


class TestPayloadMemberLayout:
    """Numeric arrays are stored uncompressed; only pickled objects (and
    the JSON meta tree) are deflated.  Archives deflated throughout — as
    every payload was written before — still load bitwise."""

    def _assert_layout(self, data: bytes) -> dict:
        kinds = _slot_kinds(data)
        with _archive(data) as archive:
            compression = {
                info.filename[: -len(".npy")]: info.compress_type
                for info in archive.infolist()
            }
        assert set(compression) == set(kinds) | {"__meta__"}
        for slot, kind in kinds.items():
            expected = (
                zipfile.ZIP_DEFLATED if kind == "pickle" else zipfile.ZIP_STORED
            )
            assert compression[slot] == expected, (slot, kind)
        assert compression["__meta__"] == zipfile.ZIP_DEFLATED
        return kinds

    def _trained_state(self, trainer_env) -> dict:
        trainer = _make_trainer(trainer_env, epochs=1, batch_size=2)
        trainer.train()
        return trainer.state_dict()

    def test_policy_payload_stores_every_weight(self):
        network = ActorCritic(
            (7, 10, 10), 200, channels=(4, 8, 8), rng=np.random.default_rng(0)
        )
        data = dumps_payload(network.state_dict(), kind=POLICY_PAYLOAD_KIND)
        assert set(self._assert_layout(data).values()) == {"array"}

    def test_trainer_checkpoint_stores_arrays_deflates_pickles(
        self, trainer_env, tmp_path
    ):
        trainer = _make_trainer(trainer_env, epochs=1, batch_size=2)
        trainer.train()
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        kinds = set(self._assert_layout(path.read_bytes()).values())
        assert {"array", "pickle"} <= kinds

    def test_fully_deflated_archive_still_loads_bitwise(
        self, trainer_env, tmp_path
    ):
        state = self._trained_state(trainer_env)
        kind = "rlplanner-trainer"
        arrays, _ = serialization._pack(state, kind)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        legacy = serialization._seal(buffer.getvalue())
        with _archive(legacy) as archive:
            assert {
                info.compress_type for info in archive.infolist()
            } == {zipfile.ZIP_DEFLATED}
        path = tmp_path / "legacy.npz"
        path.write_bytes(legacy)

        expected = _bits(state)
        assert _bits(loads_payload(legacy, kind=kind)) == expected
        assert _bits(load_payload(path, kind=kind)) == expected
        assert _bits(loads_payload(dumps_payload(state, kind), kind)) == expected


class TestTrainerResume:
    @pytest.mark.parametrize(
        "engine_kwargs",
        [
            dict(batch_size=3),
            dict(batch_size=3, use_rnd=True),
        ],
        ids=["batched", "batched-rnd"],
    )
    def test_kill_and_resume_bitwise(self, trainer_env, tmp_path, engine_kwargs):
        reference = _make_trainer(trainer_env, **engine_kwargs).train()

        path = tmp_path / "ckpt.npz"
        interrupted = _make_trainer(
            trainer_env, checkpoint_every=2, **engine_kwargs
        )

        def kill_at_checkpoint(state):
            interrupted.save_checkpoint(path)
            raise _Interrupted()

        with pytest.raises(_Interrupted):
            interrupted.train(checkpoint_fn=kill_at_checkpoint)

        resumed = _make_trainer(
            trainer_env, checkpoint_every=2, **engine_kwargs
        )
        resumed.load_checkpoint(path)
        assert resumed._progress["epochs_run"] == 2
        result = resumed.train()

        assert result.epochs_run == reference.epochs_run
        assert _hex(result.best_reward) == _hex(reference.best_reward)
        assert _history_hex(result) == _history_hex(reference)
        for key, ref in reference.best_placement.positions.items():
            assert result.best_placement.positions[key] == ref

    def test_final_weights_bitwise(self, trainer_env, tmp_path):
        reference = _make_trainer(trainer_env, batch_size=3)
        reference.train()
        path = tmp_path / "ckpt.npz"
        interrupted = _make_trainer(trainer_env, batch_size=3, checkpoint_every=1)

        calls = {"n": 0}

        def kill_at_third(state):
            calls["n"] += 1
            if calls["n"] == 3:
                interrupted.save_checkpoint(path)
                raise _Interrupted()

        with pytest.raises(_Interrupted):
            interrupted.train(checkpoint_fn=kill_at_third)
        resumed = _make_trainer(trainer_env, batch_size=3, checkpoint_every=1)
        resumed.load_checkpoint(path)
        resumed.train()
        for name, ref in reference.network.state_dict().items():
            got = resumed.network.state_dict()[name]
            assert got.tobytes() == ref.tobytes(), name
        ref_opt = reference.optimizer.state_dict()
        got_opt = resumed.optimizer.state_dict()
        assert got_opt["t"] == ref_opt["t"]
        for ref_m, got_m in zip(ref_opt["m"], got_opt["m"]):
            assert got_m.tobytes() == ref_m.tobytes()
        # RNG streams end in the same state (the next run of anything
        # downstream is also identical).
        assert (
            resumed._ppo_rng.bit_generator.state
            == reference._ppo_rng.bit_generator.state
        )

    def test_checkpoint_states_are_not_aliased(self, trainer_env):
        """An in-memory checkpoint taken at epoch k must not grow as
        training continues (the history list is snapshotted, not
        aliased to the live progress)."""
        trainer = _make_trainer(trainer_env, checkpoint_every=2)
        states = []
        trainer.train(checkpoint_fn=states.append)
        assert len(states) == 1  # epochs=4, cadence 2, final epoch skipped
        assert len(states[0]["progress"]["history"]) == 2
        assert len(trainer._progress["history"]) == 4

    def test_legacy_weight_only_checkpoint_rejected(
        self, trainer_env, tmp_path
    ):
        trainer = _make_trainer(trainer_env)
        path = tmp_path / "weights.npz"
        np.savez(path, **trainer.network.state_dict())  # weights only
        with pytest.raises(PayloadIntegrityError, match="weights.npz"):
            _make_trainer(trainer_env).load_checkpoint(path)


# ----------------------------------------------------------------------
# SA kill + resume
# ----------------------------------------------------------------------


@pytest.fixture
def sa_calculator(small_fast_model):
    return RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )


def _run_killed_then_resumed(make_placer, reference):
    captured = {}

    def kill_at_checkpoint(snapshot):
        captured["snapshot"] = snapshot
        raise _Interrupted()

    with pytest.raises(_Interrupted):
        make_placer().run(checkpoint_fn=kill_at_checkpoint)
    resumed = make_placer().run(resume_state=captured["snapshot"])

    assert _hex(resumed.breakdown.reward) == _hex(reference.breakdown.reward)
    assert resumed.n_evaluations == reference.n_evaluations
    ref_rows = reference.history.state_dict()["rows"]
    got_rows = resumed.history.state_dict()["rows"]
    assert got_rows.tobytes() == ref_rows.tobytes()
    return resumed


class TestSAResume:
    def test_tap25d_sequential(self, small_system, sa_calculator):
        def make(checkpoint_every=20):
            return TAP25DPlacer(
                small_system,
                sa_calculator,
                TAP25DConfig(
                    n_iterations=60, seed=5, checkpoint_every=checkpoint_every
                ),
            )

        reference = TAP25DPlacer(
            small_system, sa_calculator, TAP25DConfig(n_iterations=60, seed=5)
        ).run()
        resumed = _run_killed_then_resumed(make, reference)
        for name in small_system.chiplet_names:
            assert (
                resumed.placement.positions[name]
                == reference.placement.positions[name]
            )

    def test_tap25d_multichain(self, small_system, sa_calculator):
        def make(checkpoint_every=20):
            return TAP25DPlacer(
                small_system,
                sa_calculator,
                TAP25DConfig(
                    n_iterations=60,
                    seed=5,
                    n_chains=3,
                    checkpoint_every=checkpoint_every,
                ),
            )

        reference = TAP25DPlacer(
            small_system,
            sa_calculator,
            TAP25DConfig(n_iterations=60, seed=5, n_chains=3),
        ).run()
        _run_killed_then_resumed(make, reference)

    def test_bstar_sequential(self, small_system, sa_calculator):
        def make(checkpoint_every=15):
            return BStarFloorplanner(
                small_system,
                sa_calculator,
                SAConfig(
                    n_iterations=40, seed=2, checkpoint_every=checkpoint_every
                ),
            )

        reference = BStarFloorplanner(
            small_system, sa_calculator, SAConfig(n_iterations=40, seed=2)
        ).run()
        _run_killed_then_resumed(make, reference)

    def test_bstar_multichain(self, small_system, sa_calculator):
        def make(checkpoint_every=15):
            return BStarFloorplanner(
                small_system,
                sa_calculator,
                SAConfig(
                    n_iterations=40,
                    seed=2,
                    n_chains=3,
                    checkpoint_every=checkpoint_every,
                ),
            )

        reference = BStarFloorplanner(
            small_system,
            sa_calculator,
            SAConfig(n_iterations=40, seed=2, n_chains=3),
        ).run()
        _run_killed_then_resumed(make, reference)

    def test_engine_mismatch_rejected(self, small_system, sa_calculator):
        captured = {}

        def grab(snapshot):
            captured["snapshot"] = snapshot
            raise _Interrupted()

        with pytest.raises(_Interrupted):
            TAP25DPlacer(
                small_system,
                sa_calculator,
                TAP25DConfig(n_iterations=40, seed=5, checkpoint_every=10),
            ).run(checkpoint_fn=grab)
        # A chain-count change between runs.
        with pytest.raises(ValueError, match="1 chains from 3"):
            TAP25DPlacer(
                small_system,
                sa_calculator,
                TAP25DConfig(n_iterations=40, seed=5, n_chains=3),
            ).run(resume_state=captured["snapshot"])
        # A snapshot of the former single-chain engine (no chain count).
        stale = dict(captured["snapshot"], engine="sequential")
        del stale["n_chains"]
        with pytest.raises(ValueError, match="sequential"):
            TAP25DPlacer(
                small_system,
                sa_calculator,
                TAP25DConfig(n_iterations=40, seed=5),
            ).run(resume_state=stale)


# ----------------------------------------------------------------------
# scheduler store integration
# ----------------------------------------------------------------------


def _counting_job(x, counter_path):
    # O_APPEND one-byte writes are atomic: concurrent jobs (the
    # supervised scheduler forks both workers at once) never lose an
    # execution tick the way read-modify-write would.
    with open(counter_path, "a") as handle:
        handle.write("x")
    return x * x


def _executions(counter_path) -> int:
    path = Path(counter_path)
    return len(path.read_text()) if path.exists() else 0


def _offset_job(x, offset=0):
    return x + offset


class TestSchedulerStore:
    def _specs(self, counter_path):
        key_a = store_key("sched-test", {"x": 3})
        key_b = store_key("sched-test", {"x": 4})
        return [
            JobSpec(
                "a",
                _counting_job,
                dict(x=3, counter_path=counter_path),
                store_key=key_a,
            ),
            JobSpec(
                "b",
                _counting_job,
                dict(x=4, counter_path=counter_path),
                store_key=key_b,
            ),
            # Unkeyed dependent: always runs, reads a's (possibly
            # cached) result through inject.
            JobSpec(
                "c",
                _offset_job,
                dict(x=100),
                needs=("a",),
                inject=lambda kwargs, done: {**kwargs, "offset": done["a"]},
            ),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_completed_jobs_skip_execution(self, tmp_path, jobs):
        counter = tmp_path / "count.txt"
        store = RunStore(tmp_path / "store")
        first = run_jobs(self._specs(counter), jobs=jobs, store=store)
        assert first == {"a": 9, "b": 16, "c": 109}
        assert _executions(counter) == 2
        assert store.misses == 2 and store.hits == 0

        rerun_store = RunStore(tmp_path / "store")
        second = run_jobs(self._specs(counter), jobs=jobs, store=rerun_store)
        assert second == first
        # Zero keyed executions: the counter did not move, both keyed
        # jobs were served from the store, and the unkeyed dependent
        # re-ran against the cached dependency result.
        assert _executions(counter) == 2
        assert rerun_store.hits == 2 and rerun_store.misses == 0

    def test_no_store_is_unchanged(self, tmp_path):
        counter = tmp_path / "count.txt"
        outcome = run_jobs(self._specs(counter), jobs=1)
        assert outcome == {"a": 9, "b": 16, "c": 109}
        outcome = run_jobs(self._specs(counter), jobs=1)
        assert _executions(counter) == 4  # executed again, no store


class TestResolveJobs:
    def test_integers_pass_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("2") == 2

    def test_auto_matches_available_cpus(self):
        expected = getattr(os, "process_cpu_count", None)
        if expected is not None:
            expected = expected()
        else:
            try:
                expected = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):
                expected = os.cpu_count()
        assert resolve_jobs("auto") == max(int(expected or 1), 1)
        assert resolve_jobs("AUTO") >= 1

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            resolve_jobs("0")
        with pytest.raises(ValueError):
            resolve_jobs(-2)
        with pytest.raises(ValueError):
            resolve_jobs("many")


# ----------------------------------------------------------------------
# resumable experiment sweeps (golden-pinned)
# ----------------------------------------------------------------------


class TestResumableSweep:
    def test_store_run_matches_golden_and_resume_executes_nothing(
        self, tmp_path
    ):
        """A sweep through the run store reproduces the sequential
        goldens exactly, and re-running it with the warm store executes
        zero method-arm jobs (pure store hits), sequential and pooled.
        """
        golden = json.loads(Path(GOLDEN_EXPERIMENTS_PATH).read_text())
        store = RunStore(tmp_path / "store")
        record = run_golden_experiments(tmp_path / "cache", store=store)
        assert record == golden
        assert store.misses == 4 and store.hits == 0

        rerun = RunStore(tmp_path / "store")
        assert run_golden_experiments(tmp_path / "cache", store=rerun) == golden
        assert rerun.hits == 4 and rerun.misses == 0

        pooled = RunStore(tmp_path / "store")
        assert (
            run_golden_experiments(tmp_path / "cache", store=pooled, jobs=2)
            == golden
        )
        assert pooled.hits == 4 and pooled.misses == 0

    def test_fully_cached_sweep_schedules_no_prewarm(self, tmp_path):
        """When every arm's result is published, the characterization
        prewarm job is dropped and no arm depends on it."""
        from repro.experiments.runner import arm_store_key, method_arm_jobs

        spec = build_golden_spec()
        budget = build_golden_budget()
        store = RunStore(tmp_path / "store")

        cold = method_arm_jobs(spec, budget, store=store)
        assert any("prewarm" in job.job_id for job in cold)

        for job in cold:
            if job.store_key is not None:
                store.put(job.store_key, "stub-result")
        warm = method_arm_jobs(spec, budget, store=store)
        assert not any("prewarm" in job.job_id for job in warm)
        assert all(
            "prewarm" not in dep for job in warm for dep in job.needs
        )
        assert len(warm) == len(cold) - 1

    def test_inflight_arm_resumes_from_store_checkpoint(self, tmp_path):
        """An arm interrupted mid-training restarts from its latest
        store checkpoint and produces the uninterrupted arm's result
        bitwise."""
        spec = build_golden_spec()
        budget = ExperimentBudget(
            **{
                **build_golden_budget().__dict__,
                "rl_checkpoint_every": 1,
            }
        )
        cache = tmp_path / "cache"
        reference = run_method_arm(spec, "RLPlanner", budget, cache_dir=cache)

        # Emulate the kill: run the arm's exact trainer, checkpoint into
        # the arm's store slot after epoch 1, and die there.
        store = RunStore(tmp_path / "store")
        key = arm_store_key(spec, "RLPlanner", budget)
        evaluators = build_evaluators(spec, budget, cache)
        env = BatchedFloorplanEnv(
            spec.system,
            evaluators["reward_fast"],
            EnvConfig(grid_size=budget.grid_size),
        )
        trainer = RLPlannerTrainer(
            env,
            TrainerConfig(
                epochs=budget.rl_epochs,
                episodes_per_epoch=budget.episodes_per_epoch,
                batch_size=budget.rollout_batch_size,
                seed=budget.seed,
                use_rnd=False,
                rnd=RNDConfig(bonus_scale=0.5),
                ppo=PPOConfig(),
                log_every=0,
                checkpoint_every=1,
            ),
        )

        def kill(state):
            store.save_checkpoint(key, state)
            raise _Interrupted()

        with pytest.raises(_Interrupted):
            trainer.train(checkpoint_fn=kill)
        assert store.load_checkpoint(key) is not None

        resumed = run_method_arm(
            spec,
            "RLPlanner",
            budget,
            cache_dir=cache,
            store_dir=store.root,
        )
        assert _hex(resumed.reward) == _hex(reference.reward)
        assert _hex(resumed.wirelength) == _hex(reference.wirelength)
        assert _hex(resumed.temperature_c) == _hex(reference.temperature_c)
        # The checkpoint slot is cleared once the arm completes.
        assert store.load_checkpoint(key) is None

    def test_time_limited_arm_runs_checkpoint_free(self, tmp_path):
        """A wall-clock-limited anneal's stopping iteration is not
        reproducible, so the time-matched arm must never checkpoint —
        it stays result-cached only."""
        spec = build_golden_spec()
        budget = ExperimentBudget(
            **{
                **build_golden_budget().__dict__,
                "sa_chains": 2,
                "sa_iterations_hotspot": 4,
                "sa_checkpoint_every": 1,
            }
        )
        store = RunStore(tmp_path / "store")
        result = run_method_arm(
            spec,
            "TAP-2.5D*(FastThermal)",
            budget,
            cache_dir=tmp_path / "cache",
            time_limit=60.0,  # generous: the anneal finishes within it
            time_matched=True,
            store_dir=store.root,
        )
        assert np.isfinite(result.reward)
        assert result.extra["time_matched"] is True
        assert not list(store.root.rglob("*.ckpt.npz"))
        assert store.contains(
            arm_store_key(
                spec, "TAP-2.5D*(FastThermal)", budget, time_limited=True
            )
        )
        # The unlimited variant of the same arm keys separately: a
        # limited and an unlimited run must never share a result.
        assert not store.contains(
            arm_store_key(spec, "TAP-2.5D*(FastThermal)", budget)
        )


class TestTable2Store:
    def test_shards_publish_and_resume_bitwise(self, tmp_path):
        from repro.experiments import run_table2
        from repro.thermal import ThermalConfig

        config = ThermalConfig(rows=24, cols=24, package_margin=8.0)
        kwargs = dict(
            n_systems=4,
            seed=11,
            thermal_config=config,
            cache_dir=tmp_path,
            position_samples=(2, 2),
            jobs=1,
        )
        store = RunStore(tmp_path / "store")
        first = run_table2(store=store, **kwargs)
        assert store.misses == 1 and store.hits == 0

        rerun = RunStore(tmp_path / "store")
        second = run_table2(store=rerun, **kwargs)
        assert rerun.hits == 1 and rerun.misses == 0
        assert second.predictions == first.predictions
        assert second.references == first.references

        # The store forces the sharded path even at jobs=1; it must be
        # bitwise identical to the plain sequential loop.
        plain = run_table2(**kwargs)
        assert [_hex(p) for p in plain.predictions] == [
            _hex(p) for p in first.predictions
        ]


# ----------------------------------------------------------------------
# ablations through the scheduler (satellite)
# ----------------------------------------------------------------------


class TestAblationsSharded:
    def _budget(self):
        return ExperimentBudget(
            rl_epochs=1,
            episodes_per_epoch=2,
            grid_size=10,
            position_samples=(2, 2),
            seed=11,
        )

    def test_jobs2_bitwise_equals_jobs1(self, tmp_path):
        budget = self._budget()
        sequential = run_ablations(
            budget, cache_dir=tmp_path, verbose=False, jobs=1
        )
        pooled = run_ablations(
            budget, cache_dir=tmp_path, verbose=False, jobs=2
        )
        assert [r.method for r in sequential] == [r.method for r in pooled]
        for seq, par in zip(sequential, pooled):
            assert _hex(seq.reward) == _hex(par.reward), seq.method
            assert _hex(seq.wirelength) == _hex(par.wirelength), seq.method
            assert _hex(seq.temperature_c) == _hex(par.temperature_c)

    def test_resume_skips_completed_variants(self, tmp_path):
        budget = self._budget()
        store = RunStore(tmp_path / "store")
        first = run_ablations(
            budget, cache_dir=tmp_path, verbose=False, store=store
        )
        assert store.misses == len(first) and store.hits == 0
        rerun = RunStore(tmp_path / "store")
        second = run_ablations(
            budget, cache_dir=tmp_path, verbose=False, store=rerun
        )
        assert rerun.hits == len(first) and rerun.misses == 0
        for a, b in zip(first, second):
            assert _hex(a.reward) == _hex(b.reward)


# ----------------------------------------------------------------------
# thread-safe hit/miss accounting (PR-10 satellite)
# ----------------------------------------------------------------------


class TestThreadSafeCounters:
    """The serve layer shares one RunStore across request threads;
    ``+= 1`` on a plain attribute loses updates under contention, so
    the counters sit behind a lock with a consistent snapshot API."""

    def test_concurrent_fetches_lose_no_counts(self, tmp_path):
        import threading

        store = RunStore(tmp_path / "store")
        present = "aa" * 32
        absent = "bb" * 32
        store.put(present, {"x": 1})
        per_thread = 200
        threads = 8
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                hit, value = store.fetch(present)
                assert hit and value == {"x": 1}
                hit, value = store.fetch(absent)
                assert not hit and value is None

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert store.counters() == (
            threads * per_thread,
            threads * per_thread,
        )
        # The raw attributes agree with the snapshot once quiescent.
        assert (store.hits, store.misses) == store.counters()
