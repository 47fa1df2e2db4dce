"""Microbump assignment and wirelength evaluation.

After all chiplets are placed, the reward calculator allocates microbump
(pin) locations for every inter-chiplet wire and sums Manhattan wire
lengths — the TAP-2.5D recipe the paper adopts.  Two granularities:

* :func:`estimate_wirelength` — bundle-level estimate (wires x Manhattan
  center distance); cheap enough for inner search loops.
* :class:`BumpAssigner` — per-wire assignment onto perimeter bump sites
  with occupancy, greedy or Hungarian pairing, returning exact wirelength
  and the full pin map.
"""

from repro.bumps.sites import BumpSite, perimeter_sites, site_coordinates
from repro.bumps.assign import BumpAssigner, BumpAssignment, NetAssignment
from repro.bumps.wirelength import estimate_wirelength, netlist_hpwl
from repro.bumps.delay import (
    NetDelay,
    WireTechnology,
    estimate_delays,
    worst_net_delay,
)

__all__ = [
    "BumpSite",
    "perimeter_sites",
    "site_coordinates",
    "BumpAssigner",
    "BumpAssignment",
    "NetAssignment",
    "estimate_wirelength",
    "netlist_hpwl",
    "WireTechnology",
    "NetDelay",
    "estimate_delays",
    "worst_net_delay",
]
