"""Seeded synthetic chiplet systems.

Two uses, mirroring the paper:

* :func:`synthetic_case` — the five systems of Table III (seeds 1-5).
* :func:`synthetic_thermal_dataset` — the 2,000-system dataset of
  Table II.  All dataset systems share one interposer and draw die sizes
  from a small quantized set, so a single characterization run covers
  the whole dataset (the same economy the paper's table-based method
  relies on).
"""

from __future__ import annotations

from repro.baselines.random_search import random_legal_placement
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net
from repro.reward import RewardConfig
from repro.systems.spec import BenchmarkSpec
from repro.thermal import ThermalConfig
from repro.utils import new_rng

__all__ = [
    "synthetic_system",
    "synthetic_case",
    "synthetic_thermal_dataset",
    "DATASET_INTERPOSER",
    "DATASET_SIZES",
]

# Shared package for the Table II dataset: one characterization serves
# every sample.
DATASET_INTERPOSER = Interposer(40.0, 40.0, min_spacing=0.2)
DATASET_SIZES = (4.0, 6.0, 8.0, 10.0, 12.0)


def synthetic_system(seed: int) -> ChipletSystem:
    """Generate one random system on :data:`DATASET_INTERPOSER`.

    4-8 dies with sides from :data:`DATASET_SIZES` (quantized so
    characterization tables are shared), powers from a uniform 0.1-0.8
    W/mm^2 density, and a netlist that is a random spanning tree plus
    extra edges (probability 0.3 per pair) of 128, 256 or 512 wires —
    connected, like real systems, but irregular.
    """
    rng = new_rng(seed)
    wires_choices = (128, 256, 512)
    n_chiplets = int(rng.integers(4, 9))
    # Keep utilization moderate so every sample is placeable.
    chiplets = []
    total_area = 0.0
    budget = 0.55 * DATASET_INTERPOSER.area
    for i in range(n_chiplets):
        for _ in range(50):
            w = float(rng.choice(DATASET_SIZES))
            h = float(rng.choice(DATASET_SIZES))
            if total_area + w * h <= budget:
                break
        else:
            break
        total_area += w * h
        density = rng.uniform(0.1, 0.8)
        chiplets.append(
            Chiplet(
                name=f"c{i}",
                width=w,
                height=h,
                power=round(float(density * w * h), 2),
                kind="synthetic",
            )
        )
    names = [c.name for c in chiplets]
    nets = []
    # Random spanning tree keeps the system connected.
    shuffled = list(names)
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        parent = shuffled[int(rng.integers(0, i))]
        nets.append(
            Net(
                parent,
                shuffled[i],
                wires=int(rng.choice(wires_choices)),
                name=f"t{i}",
            )
        )
    # Extra cross edges.
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if rng.random() < 0.3 and not any(
                {names[i], names[j]} == {n.src, n.dst} for n in nets
            ):
                nets.append(
                    Net(
                        names[i],
                        names[j],
                        wires=int(rng.choice(wires_choices)),
                        name=f"x{i}_{j}",
                    )
                )
    return ChipletSystem(
        name=f"synthetic_seed{seed}",
        interposer=DATASET_INTERPOSER,
        chiplets=tuple(chiplets),
        nets=tuple(nets),
        metadata={"seed": seed},
    )


def synthetic_case(case: int) -> BenchmarkSpec:
    """One of the five Table III cases (1-based)."""
    if not 1 <= case <= 5:
        raise ValueError("synthetic cases are numbered 1..5")
    paper_rewards = {
        1: {"RLPlanner": -5.8288, "RLPlanner(RND)": -5.1062,
            "TAP-2.5D(HotSpot)": -6.6439, "TAP-2.5D*(FastThermal)": -6.3627},
        2: {"RLPlanner": -6.3236, "RLPlanner(RND)": -6.7848,
            "TAP-2.5D(HotSpot)": -8.9846, "TAP-2.5D*(FastThermal)": -7.1250},
        3: {"RLPlanner": -10.0058, "RLPlanner(RND)": -9.9335,
            "TAP-2.5D(HotSpot)": -12.3946, "TAP-2.5D*(FastThermal)": -10.7151},
        4: {"RLPlanner": -8.4076, "RLPlanner(RND)": -8.3903,
            "TAP-2.5D(HotSpot)": -10.5525, "TAP-2.5D*(FastThermal)": -9.8286},
        5: {"RLPlanner": -8.6193, "RLPlanner(RND)": -8.2049,
            "TAP-2.5D(HotSpot)": -10.6965, "TAP-2.5D*(FastThermal)": -8.5189},
    }
    system = synthetic_system(seed=100 + case)
    return BenchmarkSpec(
        name=f"synthetic{case}",
        system=system,
        thermal_config=ThermalConfig(r_convection=0.12, package_margin=12.0),
        reward_config=RewardConfig(lambda_wl=3.3e-4, t_limit=85.0, alpha=1.0),
        description=f"Synthetic system, case {case} (seed {100 + case})",
        paper_reference={
            method: {"reward": value}
            for method, value in paper_rewards[case].items()
        },
    )


def synthetic_thermal_dataset(
    n_systems: int = 2000, seed: int = 7, with_placements: bool = True
):
    """Yield (system, placement) pairs for the Table II comparison.

    Every system lives on :data:`DATASET_INTERPOSER` with sizes from
    :data:`DATASET_SIZES`; placements are random legal layouts.
    """
    rng = new_rng(seed)
    for index in range(n_systems):
        system = synthetic_system(seed=int(rng.integers(0, 2**31)))
        if with_placements:
            placement = random_legal_placement(
                system, rng, allow_rotation=False
            )
            yield system, placement
        else:
            yield system
