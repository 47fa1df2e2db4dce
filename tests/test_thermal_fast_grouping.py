"""The fast model's grouped mutual field equals the per-source loop.

:meth:`FastThermalModel._batch_temps` stacks the source dies that share
a size table and a row set into one table call each.  Every table call
is pointwise, and the sources are still summed into the mutual field in
source order, so each temperature must equal, to the last bit, the
per-source loop kept here as the reference: one ``mutual_profiles_many``
call, one radial interpolation and one anisotropy lookup per (source
die, orientation group), accumulated as each source is done.

The inputs are multi_gpu's production tables, batches of 1, 2, 5 and
16 placements from a seeded ``propose`` walk (mixed orientations
across rows), and the same placements with one die unpowered.  A
mutation case checks that the pin can fail: summing the sources
pairwise (``np.sum`` along a contiguous source axis) instead of in
order moves some temperature by an ulp.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import TAP25DPlacer
from repro.chiplet import ChipletSystem, Placement
from repro.systems import get_benchmark
from repro.thermal import FastThermalModel
from repro.thermal.fast_model import _BilinearStencil

WALK_MOVES = 40
BATCHES = (1, 2, 5, 16)


def reference_interp_rows(x, xs, fp_rows):
    """Row-wise linear interpolation, gathered with ``take_along_axis``."""
    idx = np.minimum(np.maximum(np.searchsorted(xs, x) - 1, 0), len(xs) - 2)
    x_lo = xs[idx]
    frac = np.minimum(np.maximum((x - x_lo) / (xs[idx + 1] - x_lo), 0.0), 1.0)
    lo = np.take_along_axis(fp_rows, idx, axis=-1)
    hi = np.take_along_axis(fp_rows, idx + 1, axis=-1)
    return lo + (hi - lo) * frac


def reference_temps(model, placements, accumulate="ordered"):
    """Per-die temperatures ``(n_placements, n_dies)``, one source at a time.

    ``accumulate="pairwise"`` is the mutation: every source's
    contribution is kept, and they are summed with one ``np.sum`` over
    a contiguous source axis (numpy sums such an axis pairwise).
    """
    names = list(placements[0].positions)
    system = placements[0].system
    n_b, n_d = len(placements), len(names)
    chiplets = [system.chiplet(n) for n in names]
    powers = np.array([c.power for c in chiplets])
    raw = np.array([[p.positions[n] for n in names] for p in placements])
    origin = raw[:, :, :2]
    rotated = raw[:, :, 2] != 0.0
    dims = np.array([(c.width, c.height) for c in chiplets])
    size = np.where(rotated[:, :, None], dims[:, ::-1][None], dims[None])
    center = origin + size * 0.5
    tables = model.tables
    die_groups = []
    for i in range(n_d):
        w, h = float(dims[i, 0]), float(dims[i, 1])
        column = rotated[:, i]
        groups = [
            (tables.for_size(w, h), np.flatnonzero(~column)),
            (tables.for_size(h, w), np.flatnonzero(column)),
        ]
        die_groups.append([(st, rows) for st, rows in groups if len(rows)])
    counts = [groups[0][0].profile.size for groups in die_groups]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    p_tot = int(offsets[-1])

    points = np.empty((n_b, p_tot, 2))
    self_field = np.empty((n_b, p_tot))
    for i in range(n_d):
        sl = slice(offsets[i], offsets[i + 1])
        for st, rows in die_groups[i]:
            points[rows, sl] = (
                origin[rows, i][:, None, :] + st.sample_offsets()[None, :, :]
            )
            r_self = st.r_self_at_many(center[rows, i, 0], center[rows, i, 1])
            self_field[rows, sl] = (
                r_self[:, None] * powers[i] * st.profile.ravel()[None, :]
            )

    mutual = np.zeros((n_b, p_tot))
    parts = []
    for j in range(n_d):
        if powers[j] <= 0.0:
            continue
        part = np.zeros((n_b, p_tot))
        for st, rows in die_groups[j]:
            cx, cy = center[rows, j, 0], center[rows, j, 1]
            profiles = st.mutual_profiles_many(cx, cy)
            pts = points[rows]
            dist = np.hypot(
                pts[..., 0] - cx[:, None], pts[..., 1] - cy[:, None]
            )
            contrib = reference_interp_rows(dist, st.mut_distances, profiles)
            stencil = _BilinearStencil(
                st.delta_xs, st.delta_ys, pts.reshape(-1, 2)
            )
            contrib += stencil.sample(st.mut_delta).reshape(len(rows), p_tot)
            contrib[:, offsets[j] : offsets[j + 1]] = 0.0
            contrib *= powers[j]
            if accumulate == "ordered":
                mutual[rows] += contrib
            else:
                part[rows] = contrib
        parts.append(part)
    if accumulate == "pairwise":
        mutual = np.sum(np.ascontiguousarray(np.stack(parts, axis=-1)), axis=-1)

    temps = np.empty((n_b, n_d))
    for i in range(n_d):
        sl = slice(offsets[i], offsets[i + 1])
        temps[:, i] = model.config.ambient + (
            self_field[:, sl] + mutual[:, sl]
        ).max(axis=1)
    return names, temps


def assert_grouped_equals_reference(model, placements):
    names, want = reference_temps(model, placements)
    results = model.evaluate_batch(placements)
    got = np.array(
        [[r.chiplet_temperatures[n] for n in names] for r in results]
    )
    assert got.tobytes() == want.tobytes()
    peaks = model.max_temperatures(placements)
    assert peaks.tobytes() == want.max(axis=1).tobytes()


def with_unpowered_die(placements, name):
    """The same placements on a copy of their system with ``name`` at 0 W."""
    system = placements[0].system
    chiplets = tuple(
        dataclasses.replace(c, power=0.0) if c.name == name else c
        for c in system.chiplets
    )
    unpowered = ChipletSystem(
        name=system.name,
        interposer=system.interposer,
        chiplets=chiplets,
        nets=system.nets,
    )
    return [Placement(unpowered, dict(p.positions)) for p in placements]


@pytest.fixture(scope="module")
def production(multi_gpu_production):
    spec = get_benchmark("multi_gpu")
    evaluators = multi_gpu_production
    placer = TAP25DPlacer(spec.system, None)
    rng = np.random.default_rng(30)
    current = placer.initial_placement()
    placements = []
    while len(placements) < max(BATCHES):
        for _ in range(WALK_MOVES // 4):
            candidate = placer.propose(current, rng, 0.0)
            if candidate is not None:
                current = candidate
        placements.append(current)
    # The walk mixes orientations across rows: some die is rotated in
    # some placements and not in others.
    rotated = np.array(
        [[pos[2] for pos in p.positions.values()] for p in placements]
    )
    assert (rotated.any(axis=0) & ~rotated.all(axis=0)).any()
    return evaluators["fast_model"], placements


@pytest.mark.parametrize("batch", BATCHES)
def test_grouped_mutual_field_equals_the_per_source_loop(production, batch):
    model, placements = production
    for start in range(0, len(placements), batch):
        assert_grouped_equals_reference(model, placements[start : start + batch])


@pytest.mark.parametrize("batch", BATCHES)
def test_an_unpowered_source_adds_nothing(production, batch):
    model, placements = production
    placements = with_unpowered_die(placements, "gpu1")
    for start in range(0, len(placements), batch):
        assert_grouped_equals_reference(model, placements[start : start + batch])


def test_pairwise_source_sum_fails_the_pin(production, monkeypatch):
    model, placements = production
    assert_grouped_equals_reference(model, placements)

    def pairwise(self, batch):
        names, temps = reference_temps(self, batch, accumulate="pairwise")
        return names, temps, temps.max(axis=1)

    monkeypatch.setattr(FastThermalModel, "_batch_temps", pairwise)
    with pytest.raises(AssertionError):
        assert_grouped_equals_reference(model, placements)
