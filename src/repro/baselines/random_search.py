"""Random-search baseline: best of N random legal placements."""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.tap25d import PlacerResult
from repro.chiplet import ChipletSystem, Placement
from repro.geometry import Rect
from repro.reward import RewardCalculator

__all__ = ["random_search", "random_legal_placement"]


def random_legal_placement(
    system: ChipletSystem,
    rng: np.random.Generator,
    max_tries: int = 2000,
    allow_rotation: bool = True,
) -> Placement:
    """Rejection-sample a placement satisfying bounds and spacing.

    Raises
    ------
    RuntimeError
        When no legal sample is found within ``max_tries`` attempts
        (over-packed systems).
    """
    interposer = system.interposer
    spacing = interposer.min_spacing
    # Placing large dies first raises the success rate enormously on
    # tightly packed systems (Ascend 910 is ~60 % utilization).
    order = sorted(system.chiplets, key=lambda c: -c.area)
    for _ in range(max_tries):
        placed = {}
        rotations = {}
        failed = False
        for chiplet in order:
            rotated = bool(
                allow_rotation and chiplet.rotatable and rng.random() < 0.5
            )
            w = chiplet.height if rotated else chiplet.width
            h = chiplet.width if rotated else chiplet.height
            if w > interposer.width or h > interposer.height:
                failed = True
                break
            placed_ok = False
            for _ in range(150):
                x = rng.uniform(0.0, interposer.width - w)
                y = rng.uniform(0.0, interposer.height - h)
                rect = Rect(x, y, w, h)
                if all(
                    rect.gap(other) >= spacing and not rect.overlaps(other)
                    for other in placed.values()
                ):
                    placed[chiplet.name] = rect
                    rotations[chiplet.name] = rotated
                    placed_ok = True
                    break
            if not placed_ok:
                failed = True
                break
        if not failed:
            placement = Placement(system)
            for name, rect in placed.items():
                placement.place(name, rect.x, rect.y, rotations[name])
            return placement
    raise RuntimeError(
        f"could not sample a legal placement for {system.name!r} "
        f"within {max_tries} tries"
    )


def random_search(
    system: ChipletSystem,
    reward_calculator: RewardCalculator,
    n_samples: int = 100,
    seed: int = 0,
    time_limit: float | None = None,
    batch_size: int = 1,
) -> PlacerResult:
    """Evaluate ``n_samples`` random legal placements; return the best.

    Candidates are drawn from one seeded stream and scored ``batch_size``
    at a time through :meth:`~repro.reward.RewardCalculator.evaluate_batch`
    (``batch_size=1`` is a batch of one).  Every reward is a row of the
    calculator's batched core, so the search result is bitwise the same
    for every batch size; larger batches only raise the evaluation
    throughput on the fast thermal model.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    best_breakdown = None
    best_placement = None
    evaluations = 0
    while evaluations < n_samples:
        if time_limit is not None and time.perf_counter() - start > time_limit:
            break
        batch = [
            random_legal_placement(system, rng)
            for _ in range(min(batch_size, n_samples - evaluations))
        ]
        evaluations += len(batch)
        for placement, breakdown in zip(
            batch, reward_calculator.evaluate_batch(batch)
        ):
            if best_breakdown is None or breakdown.reward > best_breakdown.reward:
                best_breakdown = breakdown
                best_placement = placement
    if best_placement is None:
        raise RuntimeError("random search evaluated no placements")
    return PlacerResult(
        placement=best_placement,
        breakdown=best_breakdown,
        n_evaluations=evaluations,
        elapsed=time.perf_counter() - start,
    )
