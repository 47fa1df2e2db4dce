"""Baseline floorplanners.

* :class:`TAP25DPlacer` — the paper's SA comparison (thermal-aware,
  continuous coordinates).
* :class:`BStarFloorplanner` — the classic compacted-floorplan baseline
  (paper reference [1]); area/WL-driven, thermally oblivious.
* :func:`random_search` — best of N random legal placements.

Both annealers run through one path: :func:`anneal` over the lockstep
engine (:meth:`SimulatedAnnealing.run_chains`), configured by the one
:class:`SAConfig` (``TAP25DConfig`` is the same class).  A placer
supplies only its states, moves and starting states.
"""

from repro.baselines.sa import PlacerResult, SAConfig, SAHistory, SAResult
from repro.baselines.sa import SimulatedAnnealing, anneal
from repro.baselines.tap25d import TAP25DConfig, TAP25DPlacer
from repro.baselines.bstar import BStarFloorplanner, BStarTree
from repro.baselines.random_search import random_search

__all__ = [
    "SAConfig",
    "SAHistory",
    "SAResult",
    "SimulatedAnnealing",
    "anneal",
    "TAP25DConfig",
    "TAP25DPlacer",
    "PlacerResult",
    "BStarFloorplanner",
    "BStarTree",
    "random_search",
]
