"""ASCII floorplan and thermal-map rendering.

Terminal-friendly stand-ins for the paper's figures: each chiplet is
drawn with a distinct letter on a character grid; thermal fields render
as a shade ramp.
"""

from __future__ import annotations

import numpy as np

from repro.chiplet import Placement
from repro.geometry import PlacementGrid

__all__ = ["render_floorplan", "render_thermal_map"]

_SHADES = " .:-=+*#%@"


def render_floorplan(
    placement: Placement, width: int = 60, height: int = 30
) -> str:
    """Draw a placement as an ASCII grid with a legend.

    Each die is filled with a letter (A, B, ...); '.' is empty
    interposer.  Aspect ratio is approximated by the character cell.
    """
    system = placement.system
    grid = PlacementGrid(
        system.interposer.width, system.interposer.height, height, width
    )
    canvas = np.full((height, width), ".", dtype="<U1")
    legend = []
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    for index, name in enumerate(placement.placed_names):
        letter = letters[index % len(letters)]
        rect = placement.footprint(name)
        occupied = grid.coverage(rect) >= 0.5
        canvas[occupied] = letter
        chiplet = system.chiplet(name)
        legend.append(
            f"  {letter} = {name} ({rect.w:g}x{rect.h:g} mm, {chiplet.power:g} W)"
        )
    # Row 0 is the bottom of the interposer: flip for display.
    rows = ["".join(row) for row in canvas[::-1]]
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + row + "|" for row in rows)
    header = (
        f"{system.name}: {system.interposer.width:g} x "
        f"{system.interposer.height:g} mm interposer"
    )
    return "\n".join([header, border, body, border] + legend)


def render_thermal_map(field: np.ndarray, width: int = 60, height: int = 30) -> str:
    """Render a 2D temperature field (K) as an ASCII shade map."""
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError("expected a 2D field")
    # Downsample/upsample by nearest indexing.
    rows_idx = np.linspace(0, field.shape[0] - 1, height).astype(int)
    cols_idx = np.linspace(0, field.shape[1] - 1, width).astype(int)
    sampled = field[np.ix_(rows_idx, cols_idx)]
    lo, hi = float(sampled.min()), float(sampled.max())
    span = max(hi - lo, 1e-9)
    levels = ((sampled - lo) / span * (len(_SHADES) - 1)).astype(int)
    rows = ["".join(_SHADES[v] for v in row) for row in levels[::-1]]
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + row + "|" for row in rows)
    footer = f"min {lo:.2f} K   max {hi:.2f} K"
    return "\n".join([border, body, border, footer])
