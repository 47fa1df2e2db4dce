"""One-time characterization of the fast thermal model's tables.

For each distinct die size appearing in a system (including the rotated
orientation of rotatable dies):

1. the die is placed alone at every point of an ``ny x nx`` grid of
   feasible center positions and the package is solved for all of them
   in one blocked back-substitution
   (:meth:`~repro.thermal.grid_solver.GridThermalSolver.solve_footprints_block`);
   the hottest-cell rise per watt at each position fills the **2D
   self-resistance table**;
2. from the same solves, the temperature rise per watt of every
   chiplet-layer cell *outside* the die is binned by its distance to the
   die center, giving the **1D mutual-resistance table** for that die
   acting as a heat source (averaged over positions).

This is exactly the paper's characterization recipe, with our grid
solver standing in for HotSpot.  Tables depend only on the package
geometry and the set of die sizes, so they are cached as one sealed
payload (:meth:`~repro.thermal.fast_model.ResistanceTables.save`) keyed
by a fingerprint of those inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.chiplet import ChipletSystem, Interposer
from repro.geometry import Rect
from repro.nn import CheckpointSchemaError
from repro.parallel.cache import FileLock
from repro.thermal.config import ThermalConfig
from repro.thermal.fast_model import ResistanceTables, SizeTables, size_key
from repro.thermal.grid_solver import GridThermalSolver
from repro.utils import get_logger

__all__ = [
    "characterize_tables",
    "characterize_for_system",
    "system_sizes",
    "load_or_characterize",
    "tables_fingerprint",
]

_REFERENCE_POWER = 10.0  # W; the network is linear so the value is arbitrary
_logger = get_logger("thermal.characterize")


def tables_fingerprint(
    interposer: Interposer,
    sizes,
    config: ThermalConfig,
    position_samples: tuple,
) -> str:
    """Stable hash identifying a characterization run's inputs."""
    stack_desc = ";".join(
        f"{layer.name}:{layer.material.name}:{layer.thickness}:"
        f"{layer.is_chiplet_layer}"
        for layer in config.stack.layers
    )
    keys = sorted(size_key(w, h) for w, h in sizes)
    desc = (
        "v5"
        f"|ip={interposer.width}x{interposer.height}"
        f"|margin={config.package_margin}"
        f"|grid={config.rows}x{config.cols}"
        f"|amb={config.ambient}|rc={config.r_convection}|rb={config.r_board}"
        f"|stack={stack_desc}|pos={position_samples}|sizes={keys}"
    )
    return hashlib.sha256(desc.encode("utf-8")).hexdigest()[:16]


def characterize_tables(
    interposer: Interposer,
    sizes,
    config: ThermalConfig | None = None,
    position_samples: tuple = (5, 5),
    solver: GridThermalSolver | None = None,
) -> ResistanceTables:
    """Build resistance tables for the given die sizes on one package.

    Parameters
    ----------
    interposer:
        Package placement region.
    sizes:
        Iterable of ``(width, height)`` pairs in mm.
    config:
        Thermal configuration shared with the ground-truth evaluations.
    position_samples:
        ``(ny, nx)`` self-table resolution; 5x5 keeps the one-time cost
        at ``25 * n_sizes`` solves while capturing edge effects.
    solver:
        Reuse an existing solver (must match ``interposer``/``config``).
    """
    config = config or ThermalConfig()
    solver = solver or GridThermalSolver(interposer, config, reuse_factorization=True)
    ny, nx = position_samples
    if ny < 1 or nx < 1:
        raise ValueError("position_samples must be at least (1, 1)")

    unique_sizes = _deduplicate_sizes(sizes)
    tables = ResistanceTables(
        ambient=config.ambient,
        interposer_width=interposer.width,
        interposer_height=interposer.height,
        fingerprint=tables_fingerprint(
            interposer, unique_sizes, config, position_samples
        ),
    )
    for width, height in unique_sizes:
        tables.add(
            _characterize_one_size(
                solver, interposer, config, width, height, ny, nx
            )
        )
        _logger.debug("characterized %sx%s mm", width, height)
    return tables


def system_sizes(system: ChipletSystem) -> list:
    """The die sizes ``system`` needs characterized: each die's
    ``(width, height)``, plus its rotation for rotatable dies."""
    sizes = []
    for chiplet in system.chiplets:
        sizes.append((chiplet.width, chiplet.height))
        if chiplet.rotatable:
            sizes.append((chiplet.height, chiplet.width))
    return sizes


def characterize_for_system(
    system: ChipletSystem,
    config: ThermalConfig | None = None,
    position_samples: tuple = (5, 5),
) -> ResistanceTables:
    """Characterize every die size used by ``system``
    (:func:`system_sizes`)."""
    return characterize_tables(
        system.interposer, system_sizes(system), config, position_samples
    )


def load_or_characterize(
    interposer: Interposer,
    sizes,
    config: ThermalConfig | None = None,
    position_samples: tuple = (5, 5),
    cache_dir=None,
) -> ResistanceTables:
    """Disk-cached :func:`characterize_tables`, safe under concurrency.

    The cache key is the fingerprint of all inputs, so changing the grid
    resolution or the stack invalidates stale tables automatically.

    Any number of processes may request the same entry concurrently
    (the parallel experiment scheduler fans arms of one benchmark over
    a worker pool): a sidecar file lock elects exactly one writer, the
    losers load the winner's tables, and :meth:`ResistanceTables.save`
    publishes atomically, so a reader can never observe a torn file.
    The save/load round-trip is bit-exact (binary ``.npy`` array
    storage, dtypes included), so cached and freshly characterized
    tables are interchangeable.  A cache file that fails to decode (its
    integrity footer, kind or schema version does not match) is
    renamed to ``*.corrupt``, where it stays for a post-mortem, with a
    logged warning, and the tables are characterized again under the
    lock, as the run store treats a corrupted artifact.
    """
    config = config or ThermalConfig()
    unique_sizes = _deduplicate_sizes(sizes)
    fingerprint = tables_fingerprint(
        interposer, unique_sizes, config, position_samples
    )
    if cache_dir is None:
        return characterize_tables(
            interposer, unique_sizes, config, position_samples
        )
    cache_path = Path(cache_dir) / f"thermal_tables_{fingerprint}.npz"
    if cache_path.exists():
        _logger.info("loading cached thermal tables %s", cache_path.name)
        tables = _load_cached(cache_path)
        if tables is not None:
            return tables
    with FileLock(cache_path.with_name(cache_path.name + ".lock")):
        # Double-check inside the lock: another process may have
        # characterized and published (or quarantined) while we waited.
        if cache_path.exists():
            _logger.info(
                "loading cached thermal tables %s (characterized by a "
                "concurrent process)",
                cache_path.name,
            )
            tables = _load_cached(cache_path)
            if tables is not None:
                return tables
            target = cache_path.with_name(cache_path.name + ".corrupt")
            cache_path.replace(target)
            _logger.warning(
                "quarantined corrupt thermal tables %s -> %s; "
                "characterizing again",
                cache_path,
                target.name,
            )
        tables = characterize_tables(
            interposer, unique_sizes, config, position_samples
        )
        tables.save(cache_path)
        _logger.info("cached thermal tables to %s", cache_path.name)
    return tables


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------


def _load_cached(path: Path):
    """The tables cached at ``path``, or ``None`` if they fail to decode
    (or a concurrent process quarantined them before the read)."""
    try:
        return ResistanceTables.load(path)
    except (CheckpointSchemaError, FileNotFoundError):
        return None


def _deduplicate_sizes(sizes) -> list:
    seen = {}
    for width, height in sizes:
        seen.setdefault(size_key(width, height), (float(width), float(height)))
    return list(seen.values())


def _characterize_one_size(
    solver: GridThermalSolver,
    interposer: Interposer,
    config: ThermalConfig,
    width: float,
    height: float,
    ny: int,
    nx: int,
) -> SizeTables:
    """Solves for one die size: self table + self profile + mutual table."""
    if width > interposer.width or height > interposer.height:
        raise ValueError(
            f"die {width}x{height} mm does not fit interposer "
            f"{interposer.width}x{interposer.height} mm"
        )
    xs = _center_samples(width, interposer.width, nx)
    ys = _center_samples(height, interposer.height, ny)
    r_self = np.zeros((len(ys), len(xs)))

    grid = solver.grid
    bin_width = max(grid.dx, grid.dy)
    max_dist = float(np.hypot(interposer.width, interposer.height))
    edges = np.arange(0.0, max_dist + bin_width, bin_width)
    n_bins = len(edges) - 1
    # One radial mutual profile per characterized source position.
    r_mutual = np.zeros((len(ys), len(xs), n_bins))

    # Self-profile bins roughly match the solver cell granularity.
    nu = int(np.clip(round(width / grid.dx), 3, 9))
    nv = int(np.clip(round(height / grid.dy), 3, 9))
    profile_sum = np.zeros((nv, nu))
    profile_count = np.zeros((nv, nu), dtype=np.int64)

    # Cell-center coordinate field (interposer frame), reused per solve.
    mesh_x, mesh_y = solver.cell_centers()
    on_interposer = solver.interposer_mask()
    chip_idx = config.stack.chiplet_layer_index
    # Residuals of the radial model per cell (anisotropy correction).
    delta_sum = np.zeros(solver.grid.shape)
    delta_count = np.zeros(solver.grid.shape, dtype=np.int64)

    # The whole position sweep back-substitutes as one block.
    sweep = [
        (iy, ix, cx, cy, Rect.from_center(cx, cy, width, height))
        for iy, cy in enumerate(ys)
        for ix, cx in enumerate(xs)
    ]
    fields = solver.solve_footprints_block(
        [{"src": rect} for *_, rect in sweep],
        [{"src": _REFERENCE_POWER}] * len(sweep),
    )
    for (iy, ix, cx, cy, rect), temps in zip(sweep, fields):
        chip_layer = temps[chip_idx]
        rise = chip_layer - config.ambient
        cover = solver.chip_coverage(rect)
        under_die = cover >= 0.5
        if not under_die.any():
            under_die = cover > 0.0
        peak = rise[under_die].max()
        r_self[iy, ix] = peak / _REFERENCE_POWER
        # Normalized self-rise shape under the die.
        u = (mesh_x[under_die] - rect.x) / rect.w
        v = (mesh_y[under_die] - rect.y) / rect.h
        bu = np.clip((u * nu).astype(int), 0, nu - 1)
        bv = np.clip((v * nv).astype(int), 0, nv - 1)
        np.add.at(profile_sum, (bv, bu), rise[under_die] / peak)
        np.add.at(profile_count, (bv, bu), 1)
        # Mutual: rise per watt at interposer cells outside the die
        # footprint, binned radially for this source position.
        outside = (cover <= 0.0) & on_interposer
        dist = np.hypot(mesh_x - cx, mesh_y - cy)[outside]
        values = (rise[outside] / _REFERENCE_POWER).ravel()
        bin_idx = np.clip(np.digitize(dist.ravel(), edges) - 1, 0, n_bins - 1)
        mut_sum = np.zeros(n_bins)
        mut_count = np.zeros(n_bins, dtype=np.int64)
        np.add.at(mut_sum, bin_idx, values)
        np.add.at(mut_count, bin_idx, 1)
        valid = mut_count > 0
        bin_centers = 0.5 * (edges[:-1] + edges[1:])
        r_mutual[iy, ix] = np.interp(
            bin_centers,
            bin_centers[valid],
            mut_sum[valid] / np.maximum(mut_count[valid], 1),
        )
        # Per-cell residual of the radial model for this source.
        radial_pred = np.interp(
            np.hypot(mesh_x - cx, mesh_y - cy), bin_centers, r_mutual[iy, ix]
        )
        residual = rise / _REFERENCE_POWER - radial_pred
        delta_sum[outside] += residual[outside]
        delta_count[outside] += 1

    centers = 0.5 * (edges[:-1] + edges[1:])
    delta_xs, delta_ys, mut_delta = _crop_delta(
        solver, delta_sum, delta_count, on_interposer
    )
    profile = np.where(
        profile_count > 0, profile_sum / np.maximum(profile_count, 1), 0.0
    )
    # Empty bins (possible for slim dies) inherit the row maximum so the
    # profile stays sane; renormalize to peak 1.0.
    if (profile_count == 0).any():
        fill = profile[profile_count > 0].mean() if (profile_count > 0).any() else 1.0
        profile[profile_count == 0] = fill
    profile /= profile.max()
    return SizeTables(
        width=width,
        height=height,
        xs=xs,
        ys=ys,
        r_self=r_self,
        mut_distances=centers,
        r_mutual=r_mutual,
        profile=profile,
        delta_xs=delta_xs,
        delta_ys=delta_ys,
        mut_delta=mut_delta,
    )


def _crop_delta(solver, delta_sum, delta_count, on_interposer):
    """Average the residual field and crop it to the interposer cells."""
    delta = np.where(delta_count > 0, delta_sum / np.maximum(delta_count, 1), 0.0)
    rows_in = np.where(on_interposer.any(axis=1))[0]
    cols_in = np.where(on_interposer.any(axis=0))[0]
    r0, r1 = rows_in[0], rows_in[-1] + 1
    c0, c1 = cols_in[0], cols_in[-1] + 1
    mesh_x, mesh_y = solver.cell_centers()
    delta_xs = mesh_x[0, c0:c1]
    delta_ys = mesh_y[r0:r1, 0]
    return delta_xs, delta_ys, delta[r0:r1, c0:c1]


def _center_samples(die_extent: float, region_extent: float, n: int) -> np.ndarray:
    """Feasible die-center coordinates along one axis, n samples."""
    lo = die_extent / 2.0
    hi = region_extent - die_extent / 2.0
    if hi <= lo:
        return np.array([region_extent / 2.0])
    return np.linspace(lo, hi, max(n, 1))
