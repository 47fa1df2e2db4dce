"""The greedy bump-pairing memo of :class:`repro.bumps.BumpAssigner`.

The memo is exact by construction (a hit returns the positions the
pairing computed for the same key), so these tests pin what could still
go wrong: a key that misses part of the pairing input, an unbounded or
wrongly ordered eviction, writable stored arrays, a memoized Hungarian
pairing, and a memo that travels when an assigner is pickled.
"""

import pickle

import numpy as np
import pytest

import repro.bumps.assign as assign_module
from repro.baselines import TAP25DPlacer
from repro.bumps import BumpAssigner
from repro.bumps.sites import site_coordinates
from repro.chiplet import Placement
from repro.experiments.table1 import TABLE1_SYSTEMS
from repro.geometry import Rect
from repro.nn.serialization import dumps_payload
from repro.parallel.remote import WORKER_INIT_KIND
from repro.reward import RewardCalculator
from repro.systems import get_benchmark

WALKS = 3
MOVES = 24


def propose_walks(spec) -> list:
    """Every state of ``WALKS`` seeded ``propose`` walks, plus the
    partial placements the RL environment passes through on the way
    to each walk's end state (dies placed in ``placement_order``)."""
    placer = TAP25DPlacer(spec.system, None)
    order = spec.system.placement_order()
    placements = []
    for seed in range(WALKS):
        rng = np.random.default_rng(seed)
        placement = placer.initial_placement()
        for move in range(MOVES):
            candidate = placer.propose(placement, rng, move / MOVES)
            if candidate is not None:
                placement = candidate
            placements.append(placement)
        for count in range(2, len(order)):
            partial = Placement(spec.system)
            for name in order[:count]:
                partial.place(name, *placement.positions[name])
            placements.append(partial)
    return placements


def fresh_assigner(assigner: BumpAssigner) -> BumpAssigner:
    return BumpAssigner(
        pitch=assigner.pitch,
        rings=assigner.rings,
        wire_group_size=assigner.wire_group_size,
        method=assigner.method,
    )


def assignment_bytes(assignment) -> list:
    return [
        (net.net_name, net.pairs.tobytes(), net.wires_per_pair.tobytes())
        for net in assignment.nets
    ]


@pytest.mark.parametrize("system", TABLE1_SYSTEMS)
def test_memoized_wirelength_equals_a_fresh_assigner(system):
    spec = get_benchmark(system)
    calculator = RewardCalculator(None, spec.reward_config)
    placements = propose_walks(spec)
    memoized = calculator.wirelength_many(placements)
    for placement, wirelength in zip(placements, memoized):
        assigner = fresh_assigner(calculator.assigner)
        want = assigner.assign(placement)
        assert assigner.memo_info().hits == 0
        assert float(wirelength).hex() == float(want.total_wirelength).hex()
        got = calculator.assigner.assign(placement)
        assert assignment_bytes(got) == assignment_bytes(want)
    info = calculator.assigner.memo_info()
    assert info.hits > info.misses > 0
    # A second pass over the same placements is all hits.
    again = calculator.wirelength_many(placements)
    assert again.tobytes() == memoized.tobytes()
    assert calculator.assigner.memo_info().misses == info.misses


def pairing_inputs(n_dies: int):
    """Pairing inputs of one die against ``n_dies`` equal-sized peers:
    distinct keys whose memo entries have equal sizes."""
    assigner = BumpAssigner(pitch=0.5, rings=2)
    rect_a = Rect(0.0, 0.0, 6.0, 6.0)
    xy_a = site_coordinates(rect_a, pitch=0.5, rings=2)
    free_a = np.ones(len(xy_a), dtype=bool)
    inputs = []
    for k in range(n_dies):
        rect_b = Rect(8.0 + k, 1.0, 6.0, 6.0)
        xy_b = site_coordinates(rect_b, pitch=0.5, rings=2)
        rects = (rect_a.x, rect_a.y, rect_a.w, rect_a.h) + (
            rect_b.x,
            rect_b.y,
            rect_b.w,
            rect_b.h,
        )
        free_b = np.ones(len(xy_b), dtype=bool)
        inputs.append((xy_a, xy_b, 12, rects, free_a, free_b))
    return assigner, inputs


def test_memo_stays_under_its_bound_and_evicts_the_oldest(monkeypatch):
    assigner, inputs = pairing_inputs(5)
    a, b, c, d, e = inputs
    assigner._pair_memoized(*a)
    entry_bytes = assigner.memo_info().bytes
    assert entry_bytes > 0
    monkeypatch.setattr(assign_module, "PAIRING_MEMO_BYTES", 3 * entry_bytes)
    assigner._pair_memoized(*b)
    assigner._pair_memoized(*c)
    assert assigner.memo_info() == (0, 3, 3, 3 * entry_bytes)
    assigner._pair_memoized(*a)  # a hit makes a the most recent entry
    assigner._pair_memoized(*d)  # evicts b, now the oldest
    assert assigner.memo_info() == (1, 4, 3, 3 * entry_bytes)
    assigner._pair_memoized(*a)
    assigner._pair_memoized(*c)
    assert assigner.memo_info().hits == 3
    assigner._pair_memoized(*b)  # b was evicted: a miss, evicting d
    info = assigner.memo_info()
    assert (info.hits, info.misses, info.entries) == (3, 5, 3)
    assigner._pair_memoized(*d)
    assert assigner.memo_info().misses == 6
    for args in inputs:
        assigner._pair_memoized(*args)
        assert assigner.memo_info().bytes <= assign_module.PAIRING_MEMO_BYTES


def test_memo_bound_holds_along_propose_walks(monkeypatch):
    spec = get_benchmark("multi_gpu")
    calculator = RewardCalculator(None, spec.reward_config)
    monkeypatch.setattr(assign_module, "PAIRING_MEMO_BYTES", 20_000)
    for placement in propose_walks(spec):
        calculator.wirelength(placement)
        assert calculator.assigner.memo_info().bytes <= 20_000
    info = calculator.assigner.memo_info()
    assert info.misses > info.entries > 0  # it evicted, and kept some


def test_stored_positions_are_read_only():
    assigner, inputs = pairing_inputs(2)
    missed = assigner._pair_memoized(*inputs[0])
    hit = assigner._pair_memoized(*inputs[0])
    assert hit is missed
    for chosen in (missed, *missed):
        assert not chosen.flags.writeable
        with pytest.raises(ValueError):
            chosen[0] = 0
    assert all(not v.flags.writeable for v in assigner._memo.values())


def test_memoized_positions_equal_the_pairing():
    """Equal-sized dies swapped into the same footprints carry other
    nets, so only ``n_pairs`` tells their pairing inputs apart."""
    assigner, inputs = pairing_inputs(3)
    for xy_a, xy_b, _, rects, free_a, free_b in inputs:
        for n_pairs in (12, 5, 12, 5):
            want_a, want_b = BumpAssigner._pair_greedy(xy_a, xy_b, n_pairs)
            got_a, got_b = assigner._pair_memoized(
                xy_a, xy_b, n_pairs, rects, free_a, free_b
            )
            assert got_a.tolist() == want_a.tolist()
            assert got_b.tolist() == want_b.tolist()
    assert assigner.memo_info()[:3] == (6, 6, 6)


def test_hungarian_pairing_is_not_memoized():
    spec = get_benchmark("multi_gpu")
    greedy = RewardCalculator(None, spec.reward_config).assigner
    hungarian = BumpAssigner(
        pitch=greedy.pitch,
        rings=greedy.rings,
        wire_group_size=greedy.wire_group_size,
        method="hungarian",
    )
    placements = propose_walks(spec)[:8]
    for placement in placements + placements:
        got = hungarian.assign(placement)
        want = fresh_assigner(hungarian).assign(placement)
        assert assignment_bytes(got) == assignment_bytes(want)
    assert hungarian.memo_info() == (0, 0, 0, 0)


def test_pickling_drops_the_memo():
    spec = get_benchmark("multi_gpu")
    cold = RewardCalculator(None, spec.reward_config)
    warm = RewardCalculator(None, spec.reward_config)
    placements = propose_walks(spec)[:8]
    warm.wirelength_many(placements)
    assert warm.assigner.memo_info().entries > 0
    assert pickle.dumps(warm) == pickle.dumps(cold)
    # The remote workers' init payload keeps its digest too.
    assert dumps_payload(
        {"reward_calculator": warm}, kind=WORKER_INIT_KIND
    ) == dumps_payload({"reward_calculator": cold}, kind=WORKER_INIT_KIND)
    # A copy starts with an empty memo and fills its own.
    copy = pickle.loads(pickle.dumps(warm))
    assert copy.assigner.memo_info() == (0, 0, 0, 0)
    assert copy.wirelength_many(placements).tobytes() == (
        warm.wirelength_many(placements).tobytes()
    )
    assert copy.assigner.memo_info().misses > 0
    assert warm.assigner.memo_info().entries > 0
